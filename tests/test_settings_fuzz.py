"""Seeded fuzz of the settings path: mutated flag values and `--config` text
go through `cli.main` for `synth`, `preprocess` and `train`.

Every call must return an exit code (0, 1 or 2) and raise nothing, and a
refusal (exit 1) must leave no new path.  Exit 2 may keep output: `train`
saves the rolled-back model after a non-finite loss.
"""

import shutil

import numpy as np
import pytest

from microexpr.cli import CONFIG_DEFAULTS, EXIT_OK, EXIT_VALIDATION, SETTING_CHOICES, main

CASES = 200
KEYS = sorted(CONFIG_DEFAULTS)
JUNK_LINES = ("lr", "= 0.5", "just words", "lr 0.5", "lr == ")
NON_UTF8 = (b"\xff", b"\xc3", b"\x80\xfe")
PREPROCESS_KEYS = ("gamma_low", "gamma_high", "sigma_frac", "split_mode", "split_fraction")
# The settings each command has a flag for; any other key is an unknown flag.
FLAG_KEYS = {
    "synth": ("seed", "workers"),
    "preprocess": ("seed", "workers", *PREPROCESS_KEYS),
    "train": tuple(k for k in KEYS if k not in PREPROCESS_KEYS and k != "inference_mode"),
}


def typo(rng, text: str) -> str:
    """`text` with two neighbouring characters swapped, or one dropped."""
    if len(text) < 2:
        return text + "x"
    i = int(rng.integers(len(text) - 1))
    if rng.random() < 0.5:
        return text[:i] + text[i + 1] + text[i] + text[i + 2:]
    return text[:i] + text[i + 1:]


def mutated_value(rng, key: str) -> str:
    default = str(CONFIG_DEFAULTS[key])
    picks = (
        lambda: default,
        lambda: rng.choice(SETTING_CHOICES.get(key, (default,))),
        # Small integers only: no test asks for more than 4 workers.
        lambda: str(int(rng.integers(-3, 5))),
        lambda: repr(float(rng.uniform(-2.0, 2.0))),
        lambda: rng.choice(["nan", "inf", "-inf", "1e999", "-0.0", "1e-300"]),
        lambda: rng.choice(["abc", "", " ", "1,5", "0x10", "true", "½"]),
        lambda: typo(rng, default),
    )
    return str(picks[int(rng.integers(len(picks)))]())


def mutated_config(rng) -> bytes:
    lines = []
    for _ in range(int(rng.integers(1, 4))):
        kind = rng.random()
        key = str(rng.choice(KEYS))
        if kind < 0.6:
            lines.append(f"{key} = {mutated_value(rng, key)}")
        elif kind < 0.75:
            lines.append(f"{typo(rng, key)} = {CONFIG_DEFAULTS[key]}")
        elif kind < 0.9:
            lines.append(str(rng.choice(JUNK_LINES)))
        else:
            lines.append(f"# {key} = {mutated_value(rng, key)}")
    data = ("\n".join(lines) + "\n").encode()
    if rng.random() < 0.15:
        at = int(rng.integers(len(data) + 1))
        data = data[:at] + NON_UTF8[int(rng.integers(len(NON_UTF8)))] + data[at:]
    return data


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--classes", "2", "--per-class", "4", "--seed", "1",
                 "--out", str(root / "data")]) == EXIT_OK
    assert main(["preprocess", "--manifest", str(root / "data" / "manifest.csv"),
                 "--seed", "1", "--out", str(root / "work")]) == EXIT_OK
    return root


def test_mutated_settings_exit_cleanly(corpus, tmp_path, capsys):
    rng = np.random.default_rng(15)
    work = corpus / "work"
    base = {
        "synth": ["synth", "--classes", "2", "--per-class", "2"],
        "preprocess": ["preprocess", "--manifest", str(corpus / "data" / "manifest.csv")],
        "train": ["train", "--train-manifest", str(work / "train.csv"),
                  "--stats", str(work / "pixel_stats.bin")],
    }
    runs = tmp_path / "runs"
    runs.mkdir()
    cfg = tmp_path / "fuzz.cfg"
    codes = []
    for case in range(CASES):
        command = str(rng.choice(sorted(base)))
        out = runs / f"case{case}"
        argv = [*base[command], "--out", str(out)]
        if rng.random() < 0.5:
            key = str(rng.choice(FLAG_KEYS[command] if rng.random() < 0.8 else KEYS))
            argv += [f"--{key.replace('_', '-')}", mutated_value(rng, key)]
        else:
            cfg.write_bytes(mutated_config(rng))
            argv += ["--config", str(cfg)]
        if command == "train":
            argv += ["--max-epochs", "1"]  # last, so it wins over a mutated one
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc in (0, 1, 2), argv
        if rc == EXIT_VALIDATION:
            assert err.startswith("error: "), argv
            assert list(runs.iterdir()) == [], argv
        shutil.rmtree(out, ignore_errors=True)
        codes.append(rc)
    # The mutations reach both sides: some settings pass, most are refused.
    assert codes.count(EXIT_OK) >= 20 and codes.count(EXIT_VALIDATION) >= 100
