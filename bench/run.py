"""Benchmark of the microexpr command line, run in-process.

    python3 bench/run.py --workload fusion --seed 1 --seconds 45 --trace 0

Each workload generates a synthetic corpus from --seed (set-up), then for
--seconds repeats a pass of CLI calls through ``microexpr.cli.main``:
synth, preprocess, features, train, eval, nearest-feature eval and
single-image predict.  The synth call repeats the set-up, so that its samples
spread over the run.  Every call is checked; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with --trace 0, the per-layer metrics from a traced run with
--trace 1).  A fuller report and, when traced, the spans are written under
``.bench_work/`` in the checkout.  See bench/README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Two passes give two train calls with the same seed, whose checkpoints must
# match.
MIN_PASSES = 2
# Images per class of the side training (Runner.side_profile): fewer than a
# class has in either workload's train split, so that the layers the two
# networks share by name (head) are measured at the main network's batch.
SIDE_PER_CLASS = 2
# p90 needs ten samples beyond it.
PREDICT_SAMPLES = 100
# One thread for BLAS and one CLI worker: on a shared 2-vCPU VM a second
# thread turns neighbours' bursts into large swings (per-call spread of
# preprocess at 256x256 was about 8% with one worker and 18% with two).
WORKERS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
METRICS_KEYS = {"accuracy_trace", "accuracy_ovr_macro", "mae", "per_class", "macro", "protocol"}


@dataclass(frozen=True)
class Workload:
    classes: int
    per_class: int
    size: int
    profile: str
    epochs: int
    lr: float
    test_fraction: float
    features_per_class: int  # 0: describe the whole prepared manifest
    predict_calls: int       # per pass
    # In traced runs the other profile is trained for this many epochs in
    # every pass, on SIDE_PER_CLASS train images per class, so that the
    # traced run reaches every layer of every module (see
    # Runner.side_profile).
    side_epochs: int


# Passes are kept short (5-10 s) so that every stage is sampled all through
# the run: on a shared 2-vCPU VM the CPU speed drifted by up to a third in
# phases of a few seconds, and a stage measured in one long block inherits
# whichever phase it hit.
WORKLOADS = {
    # 7x50 at 128x128, which preprocess scales to 48x48: batch-256 fusion
    # training plus batch-10 / batch-1 inference of the same network;
    # handcrafted features only on a sample.  At 48x48 synth and preprocess
    # were mostly per-call interpreter and file overhead, whose speed swung
    # with the shared host: over 61 back-to-back calls, iqr/median 0.37
    # (synth) and 0.23 (preprocess), against 0.22 and 0.11 at 128x128.
    "fusion": Workload(7, 50, 128, "cnn-fusion", epochs=3, lr=0.01, test_fraction=0.2,
                       features_per_class=4, predict_calls=20, side_epochs=2),
    # 7x6 at 256x256 (JAFFE's image size): large-image conditioning and
    # LBP/HOG descriptors dominate, and the network is one dense layer.  Half
    # the images are test images, so an accuracy step is 1/21, not 1/7.  The
    # first two epochs of a call run slower, so six epochs put the median in
    # the steady ones; lr 0.001 keeps the loss after six epochs as steady
    # across seeds as after three at the default rate.
    "ingest-handcrafted": Workload(7, 6, 256, "mlp-handcrafted", epochs=6, lr=0.001,
                                   test_fraction=0.5, features_per_class=0, predict_calls=20,
                                   side_epochs=1),
}

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train.samples_per_s": "1/s",
    "train.epoch_s.p50": "s",
    "train.loss_final": "nats",
    "eval.images_per_s": "1/s",
    "eval.nearest.images_per_s": "1/s",
    "eval.accuracy_trace": "ratio",
    "predict.ms.mean": "ms",
    "predict.ms.p90": "ms",
    "preprocess.images_per_s": "1/s",
    "features.images_per_s": "1/s",
}

TRACED_FUNCTIONS = (
    "cli.cmd_preprocess", "cli.cmd_features", "cli.cmd_train", "cli.cmd_eval", "cli.cmd_predict",
    "dataset.decode_pgm", "dataset.load_manifest",
    "preprocess.homomorphic_filter", "preprocess.gaussian_blur", "preprocess.hist_equalize",
    "preprocess.bilinear_resize", "preprocess.rotate_bilinear", "preprocess.normalize_per_image",
    "preprocess.apply_pixel_stats",
    "features.crop_regions", "features.avg_pool_resize", "features.lbp_histogram",
    "features.hog_descriptor", "features.handcrafted_descriptor", "features.write_descriptor_csv",
    "network.forward", "network.backward", "network.conv2d_forward", "network.conv2d_backward",
    "network.maxpool2_forward", "network.maxpool2_backward", "network.dense_forward",
    "network.dense_backward", "network.load_checkpoint", "network.save_checkpoint",
    "training.train", "training.train_on_rows", "training.lr_schedule", "training.apply_augment",
    "training.sgd_momentum_step", "training.update_centers",
    "evaluation.single_predict", "evaluation.multicrop_predict", "evaluation.extract_features",
    "evaluation.nearest_feature_predict",
)
LAYERS = tuple(f"{b}.{l}" for b in ("eyes", "face", "mouth")
               for l in ("conv1", "pool1", "conv2", "pool2", "fc")) + ("fuse1", "fuse2", "head", "hidden")
EVAL_FORWARD_BATCHES = (10, 1)


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TRACED_FUNCTIONS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for label in LAYERS:
        units[f"network.{label}.fwd_ms"] = "ms"
        units[f"network.{label}.bwd_ms"] = "ms"
    for batch in EVAL_FORWARD_BATCHES:
        units[f"network.forward.b{batch}_ms"] = "ms"
    for part in ("data_s", "forward_s", "backward_s", "update_s"):
        units[f"training.step.{part}"] = "s"
    units["training.augment.batch_ms"] = "ms"
    units["preprocess.busy_over_wall"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# Machine record


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy as np

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "workers": WORKERS,
    }


# ---------------------------------------------------------------------------
# Calls and checks


class CheckFailed(Exception):
    pass


def read_manifest_rows(path: Path) -> list[list[str]]:
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    return [row for row in csv.reader(lines[1:])]


def sample_manifest(src: Path, per_class: int, dest: Path) -> tuple[Path, int]:
    """Write the first ``per_class`` rows of each class of ``src`` to
    ``dest``, in the same directory; returns it and its row count."""
    taken: dict[str, int] = {}
    rows = []
    for row in read_manifest_rows(src):
        if taken.get(row[1], 0) < per_class:
            taken[row[1]] = taken.get(row[1], 0) + 1
            rows.append(row)
    head = [l for l in src.read_text().splitlines() if l.startswith("#")] + ["path,label,subject"]
    dest.write_text("\n".join(head + [",".join(r) for r in rows]) + "\n")
    return dest, len(rows)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    def __init__(self, workload: Workload, seed: int, work: Path, side: bool):
        from microexpr import cli

        self.cli = cli
        self.w = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.totals: dict[str, list[float]] = {}
        self.checkpoint_sha: str | None = None
        self.loss_final: float | None = None
        self.passes = 0
        self.side = side
        # Outputs of the last pass that trained a model, for predict.
        self.prep: Path | None = None
        self.checkpoint: Path | None = None

    def record(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def record_rate(self, key: str, items: int, wall: float) -> None:
        """Per-call rate for the report; the metric is total items over
        total wall time, which averages the machine's slow and fast phases."""
        self.record(key, items / wall)
        total = self.totals.setdefault(key, [0.0, 0.0])
        total[0] += items
        total[1] += wall

    def rate(self, key: str) -> float:
        items, wall = self.totals.get(key, (0.0, 0.0))
        return items / wall if wall else math.nan

    def call(self, stage: str, argv: list[str], check=None) -> float | None:
        """Run one CLI call and its output check; returns wall seconds, or
        None when the call failed (counted in ``failed``)."""
        self.attempted += 1
        out = io.StringIO()
        # Write back what earlier calls wrote before the clock starts.  On a
        # shared 2-vCPU VM with an ext4 disk, a synth of 350 small files took
        # 0.07-0.12 s right after a flush and 0.2-0.3 s while the pass's
        # earlier outputs were being written back.
        os.sync()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = self.cli.main([str(a) for a in argv])
            wall = time.perf_counter() - started
            if rc != 0:
                raise CheckFailed(f"exit code {rc}")
            if check is not None:
                check(out.getvalue())
            return wall
        except SystemExit as err:
            problem = f"exit {err.code}"
        except Exception as err:  # a traceback is itself a failed call
            problem = f"{type(err).__name__}: {err}"
        self.failed += 1
        self.problems.append(f"{stage} ({' '.join(map(str, argv[:2]))}): {problem}")
        return None

    # -- set-up -----------------------------------------------------------

    def synth(self, raw: Path) -> float | None:
        """Generate the corpus from the seed."""
        return self.call("synth", ["synth", "--classes", self.w.classes, "--per-class",
                                   self.w.per_class, "--size", self.w.size,
                                   "--seed", self.seed, "--out", raw],
                         lambda _: self.check_rows(raw / "manifest.csv", self.n_images))

    @property
    def n_images(self) -> int:
        return self.w.classes * self.w.per_class

    def check_rows(self, path: Path, expected: int) -> list[list[str]]:
        rows = read_manifest_rows(path)
        if len(rows) != expected:
            raise CheckFailed(f"{path.name} has {len(rows)} rows, expected {expected}")
        return rows

    # -- one pass -----------------------------------------------------------

    def run_pass(self) -> None:
        """One pass of CLI calls.  Every pass writes into directories of its
        own, so each check reads only what its call just wrote."""
        w, seed = self.w, self.seed
        self.clear_previous_pass()
        self.passes += 1
        work = self.work / "passes" / str(self.passes)
        prep, run = work / "prep", work / "run"
        synth_wall = self.synth(work / "raw")
        if synth_wall is None:
            return

        def check_preprocess(_):
            train = read_manifest_rows(prep / "train.csv")
            test = read_manifest_rows(prep / "test.csv")
            self.check_rows(prep / "manifest.csv", self.n_images)
            if len(train) + len(test) != self.n_images or not test:
                raise CheckFailed("train/test split does not cover the manifest")
            if not (prep / "pixel_stats.bin").is_file():
                raise CheckFailed("pixel_stats.bin missing")

        wall = self.call("preprocess", ["preprocess", "--manifest", work / "raw" / "manifest.csv",
                                        "--split-fraction", w.test_fraction, "--seed", seed,
                                        "--workers", WORKERS, "--out", prep],
                         check_preprocess)
        if wall is None:
            return
        self.record_rate("preprocess.images_per_s", self.n_images, wall)
        # Set-up is corpus generation and preparation, in every pass: timed
        # all in one block before the passes, its samples landed in
        # whichever speed phase the shared CPU was in.
        self.record("setup_s", synth_wall + wall)
        n_train = len(read_manifest_rows(prep / "train.csv"))
        n_test = len(read_manifest_rows(prep / "test.csv"))

        feat_manifest, n_feat = self.features_manifest(prep)
        wall = self.call("features", ["features", "--manifest", feat_manifest, "--seed", seed,
                                      "--workers", WORKERS, "--out", work / "feat"],
                         lambda _: self.check_descriptors(work / "feat" / "descriptors.csv", n_feat))
        if wall is not None:
            self.record_rate("features.images_per_s", n_feat, wall)

        wall = self.call("train", ["train", "--train-manifest", prep / "train.csv",
                                   "--stats", prep / "pixel_stats.bin", "--profile", w.profile,
                                   "--max-epochs", w.epochs, "--lr", w.lr, "--loss-epsilon", "1e-30",
                                   "--seed", seed, "--out", run],
                         lambda _: self.check_training(run))
        if wall is None:
            return
        self.record_rate("train.samples_per_s", n_train * w.epochs, wall)
        ckpt = self.checkpoint = run / "model.ckpt"
        self.prep = prep

        wall = self.call("eval", ["eval", "--test-manifest", prep / "test.csv", "--checkpoint", ckpt,
                                  "--seed", seed, "--out", work / "eval"],
                         lambda _: self.check_metrics(work / "eval", "eval.accuracy_softmax"))
        if wall is not None:
            self.record_rate("eval.images_per_s", n_test, wall)

        wall = self.call("eval-nearest", ["eval", "--test-manifest", prep / "test.csv",
                                          "--checkpoint", ckpt, "--inference-mode", "nearest-feature",
                                          "--gallery-manifest", prep / "train.csv", "--seed", seed,
                                          "--out", work / "nearest"],
                         lambda _: self.check_metrics(work / "nearest", "eval.accuracy_trace"))
        if wall is not None:
            self.record_rate("eval.nearest.images_per_s", n_test, wall)

        if self.side:
            self.side_profile(work, prep)
        self.predict(w.predict_calls)

    def clear_previous_pass(self) -> None:
        """Delete the previous pass's outputs, outside any timed call, so
        that a run's files do not pile up; ``call`` flushes the deletion
        before the next call starts."""
        previous = self.work / "passes" / str(self.passes)
        if self.prep is not None and self.prep.parent == previous:
            self.prep = self.checkpoint = None
        shutil.rmtree(previous, ignore_errors=True)

    def side_profile(self, work: Path, prep: Path) -> None:
        """Train the profile the workload does not time, briefly, on a few
        train images per class: the MLP on fusion, or the fusion CNN on
        ingest, followed there by a multicrop eval of the test split.
        Without it a workload would never reach the other network's layers,
        augmentation or multicrop, and those per-layer metrics would have no
        value.  Untraced runs skip it, so it enters no end-to-end metric."""
        w, seed = self.w, self.seed
        cnn = w.profile != "cnn-fusion"
        manifest, _ = sample_manifest(prep / "train.csv", SIDE_PER_CLASS, prep / "side_sample.csv")
        run = work / "side"
        wall = self.call("side-train", ["train", "--train-manifest", manifest,
                                        "--stats", prep / "pixel_stats.bin",
                                        "--profile", "cnn-fusion" if cnn else "mlp-handcrafted",
                                        "--max-epochs", w.side_epochs, "--loss-epsilon", "1e-30",
                                        "--seed", seed, "--out", run],
                         lambda _: self.read_train_log(run, w.side_epochs))
        if wall is not None and cnn:
            self.call("side-eval", ["eval", "--test-manifest", prep / "test.csv",
                                    "--checkpoint", run / "model.ckpt", "--seed", seed,
                                    "--out", work / "side-eval"],
                      lambda _: self.check_metrics(work / "side-eval", None))

    def predict(self, calls: int) -> None:
        prep = self.prep
        rows = read_manifest_rows(prep / "manifest.csv")
        class_names = {row[1] for row in rows}
        done = len(self.samples.get("predict.ms", []))
        for i in range(done, done + calls):
            # Stride through the manifest so the calls cover every class.
            image = prep / rows[i * 37 % len(rows)][0]
            wall = self.call("predict", ["predict", image, "--checkpoint", self.checkpoint],
                             lambda out: self.check_prediction(out, class_names))
            if wall is not None:
                self.record("predict.ms", wall * 1e3)

    def features_manifest(self, prep: Path) -> tuple[Path, int]:
        if not self.w.features_per_class:
            return prep / "manifest.csv", self.n_images
        return sample_manifest(prep / "manifest.csv", self.w.features_per_class,
                               prep / "features_sample.csv")

    def check_descriptors(self, path: Path, expected: int) -> None:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) != expected + 1 or rows[0][-1] != "label":
            raise CheckFailed(f"descriptors.csv has {len(rows) - 1} rows, expected {expected}")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise CheckFailed("descriptor rows differ in width")

    def read_train_log(self, run: Path, epochs: int) -> list[dict]:
        with open(run / "train_log.csv", newline="") as fh:
            records = list(csv.DictReader(fh))
        if [int(r["epoch"]) for r in records] != list(range(1, epochs + 1)):
            raise CheckFailed(f"train_log.csv holds {len(records)} epochs, expected {epochs}")
        if not math.isfinite(float(records[-1]["loss"])):
            raise CheckFailed("final loss is not finite")
        return records

    def check_training(self, run: Path) -> None:
        records = self.read_train_log(run, self.w.epochs)
        loss = float(records[-1]["loss"])
        digest = sha256(run / "model.ckpt")
        if self.checkpoint_sha is None:
            self.checkpoint_sha, self.loss_final = digest, loss
        elif digest != self.checkpoint_sha or loss != self.loss_final:
            raise CheckFailed("checkpoint differs from an earlier train call with the same seed")
        for r in records:
            self.record("train.epoch_s", float(r["seconds"]))

    def check_metrics(self, out: Path, key: str | None) -> None:
        report = json.loads((out / "metrics.json").read_text())
        if set(report) != METRICS_KEYS:
            raise CheckFailed(f"metrics.json keys {sorted(report)}")
        acc = report["accuracy_trace"]
        if not 0.0 <= acc <= 1.0:
            raise CheckFailed(f"accuracy_trace {acc} outside [0, 1]")
        if key is not None:
            self.record(key, acc)

    def check_prediction(self, out: str, class_names: set[str]) -> None:
        label, prob = out.split()
        if label not in class_names or not 0.0 <= float(prob) <= 1.0:
            raise CheckFailed(f"prediction {out.strip()!r} outside the class range")


# ---------------------------------------------------------------------------
# Metrics


def end_to_end_metrics(runner: Runner) -> dict[str, float]:
    s = runner.samples
    median = lambda key: statistics.median(s[key]) if s.get(key) else math.nan
    predict = sorted(s.get("predict.ms", []))
    return {
        "setup_s": median("setup_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "train.samples_per_s": runner.rate("train.samples_per_s"),
        "train.epoch_s.p50": median("train.epoch_s"),
        "train.loss_final": runner.loss_final if runner.loss_final is not None else math.nan,
        "eval.images_per_s": runner.rate("eval.images_per_s"),
        "eval.nearest.images_per_s": runner.rate("eval.nearest.images_per_s"),
        "eval.accuracy_trace": median("eval.accuracy_trace"),
        # The mean, not the median: the host's fast and slow phases make
        # per-call predict times bimodal (about 15 and 22 ms on fusion), and
        # the median jumps between the two modes with the run's share of
        # fast calls.  In a ten-run trial on a shared 2-vCPU VM the run
        # medians spread 0.25 and the run means 0.17.
        "predict.ms.mean": statistics.fmean(predict) if predict else math.nan,
        "predict.ms.p90": percentile(predict, 0.90),
        "preprocess.images_per_s": runner.rate("preprocess.images_per_s"),
        "features.images_per_s": runner.rate("features.images_per_s"),
    }


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; NaN unless at least ten samples lie above it."""
    if not sorted_values:
        return math.nan
    rank = math.ceil(q * len(sorted_values))
    if len(sorted_values) - rank < 10:
        return math.nan
    return sorted_values[rank - 1]


def per_layer_metrics(summary: dict, overhead: float) -> dict[str, float]:
    """Per-layer metrics from the tracer summary; NaN where nothing was
    recorded."""
    out = {}
    for name in TRACED_FUNCTIONS:
        out[f"{name}.self_s"] = summary["self_s"].get(name, math.nan)
        out[f"{name}.calls"] = summary["calls"].get(name, math.nan)
    for label in LAYERS:
        for kind in ("fwd", "bwd"):
            out[f"network.{label}.{kind}_ms"] = summary["layer_ms"].get((label, kind), (math.nan, 0))[0]
    for batch in EVAL_FORWARD_BATCHES:
        out[f"network.forward.b{batch}_ms"] = summary["forward_ms"].get(batch, math.nan)
    for part in ("data_s", "forward_s", "backward_s", "update_s"):
        out[f"training.step.{part}"] = summary["step"].get(part, math.nan)
    out["training.augment.batch_ms"] = summary["augment_batch_ms"]
    out["preprocess.busy_over_wall"] = summary["preprocess_busy_over_wall"]
    out["trace.overhead"] = overhead
    return out


# ---------------------------------------------------------------------------
# Main


def timed_passes(runner: Runner, seconds: float, tracer=None):
    """Closed loop: repeat passes until the next one would overrun.  With a
    tracer, passes alternate untraced and traced, starting untraced.
    Returns (traced, wall seconds) per pass."""
    walls: list[tuple[bool, float]] = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls) % 2 == 1
        if traced:
            tracer.install()
        t = time.perf_counter()
        try:
            runner.run_pass()
        finally:
            if traced:
                tracer.uninstall()
        walls.append((traced, time.perf_counter() - t))
        elapsed = time.perf_counter() - started
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(w for _, w in walls) > seconds:
            return walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "microexpr" / "cli.py").is_file():
        print(f"error: microexpr sources not found under {SRC}", file=sys.stderr)
        return 2
    for name in BLAS_ENV:
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))
    import microexpr

    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    runner = Runner(workload, args.seed, work, side=bool(args.trace))
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(), "workload_spec": vars(workload)}
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(microexpr)
        walls = timed_passes(runner, args.seconds, tracer)
        traced = [w for t, w in walls if t]
        untraced = [w for t, w in walls if not t]
        # The first pass of a process runs cold; compare against a later
        # untraced pass when there is one.
        overhead = statistics.median(traced) / statistics.median(untraced[1:] or untraced)
        summary = tracer.summary(threading.get_ident())
        tracer.dump(work / "spans.jsonl")
        metrics = per_layer_metrics(summary, overhead)
        units = per_layer_units()
        report.update(untraced_pass_s=untraced, traced_pass_s=traced,
                      all_self_s=summary["self_s"], all_calls=summary["calls"],
                      layer_batch={f"{k[0]}.{k[1]}": v[1] for k, v in summary["layer_ms"].items()},
                      augment_batch=summary["augment_batch"])
    else:
        walls = timed_passes(runner, args.seconds)
        short = PREDICT_SAMPLES - len(runner.samples.get("predict.ms", []))
        if short > 0 and runner.checkpoint is not None:
            runner.predict(short)
        metrics = end_to_end_metrics(runner)
        units = END_TO_END
        report.update(pass_s=[w for _, w in walls],
                      predict_calls=len(runner.samples.get("predict.ms", [])),
                      samples=runner.samples)
    shutil.rmtree(work / "passes", ignore_errors=True)

    # Every metric, per-layer ones included, is reached on every workload;
    # one that reads 0 or nothing (a traced function renamed, a layer label
    # that no longer matches) fails the run.
    measured = lambda v: math.isfinite(v) and v > 0
    missing = [k for k, v in metrics.items() if not measured(v)]
    if missing:
        runner.problems.append(f"no measurement for {missing}")
    correct = runner.failed == 0 and not missing
    report.update(correct=correct, attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems, checkpoint_sha256=runner.checkpoint_sha,
                  metrics=metrics)
    (work / "BENCH.json").write_text(json.dumps(report, indent=2, default=str) + "\n")

    print(f"machine: {json.dumps(report['machine'])}")
    for problem in runner.problems:
        print(f"problem: {problem}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v if math.isfinite(v) else 0.0, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
