"""Run bench/run.py once per seed, each in its own process, and summarise
every end-to-end metric by median, quartiles and spread (interquartile range
over the median).

    python3 bench/collect.py --workload fusion --seeds 1-10 --seconds 55
    python3 bench/collect.py --workload fusion --seeds 1-10 --seconds 55 --out bench/baseline.json

With --out, the summary is stored in that JSON file under
``[<workload>]["seeds <seeds>"]``, keeping the other entries already there;
bench/baseline.json was written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DESCRIPTION = (
    "Written by bench/collect.py --out: one process per seed, python3 bench/run.py --workload <w> "
    "--seed <s> --seconds <n> --trace 0. spread = (q3 - q1) / median over the seeds; values are "
    "in seed order; machine is the record of the last run of the set."
)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs = []
    for seed in parse_seeds(args.seeds):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["wall_s"] = time.perf_counter() - started
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={result['wall_s']:.1f}s", flush=True)

    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        metrics[name] = {"unit": first["unit"], **summarise(values)}
        m = metrics[name]
        print(f"{name:48s} median {m['median']:12.6g} {first['unit']:6s} spread {m['spread']:.4f}")
    if args.out:
        report = HERE.parent / ".bench_work" / f"{args.workload}-seed{runs[-1]['seed']}-trace0" / "BENCH.json"
        summary = {"seconds": args.seconds, "seeds": [r["seed"] for r in runs],
                   "correct": all(r["correct"] for r in runs),
                   "attempted": [r["attempted"] for r in runs],
                   "failed": [r["failed"] for r in runs], "wall_s": [r["wall_s"] for r in runs],
                   "machine": json.loads(report.read_text())["machine"], "metrics": metrics}
        existing = json.loads(args.out.read_text()) if args.out.is_file() else {}
        existing["description"] = DESCRIPTION
        existing.setdefault(args.workload, {})[f"seeds {args.seeds}"] = summary
        args.out.write_text(json.dumps(existing, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
