"""Seeded fuzz of the input files: mutated PGM, manifest, predictions,
checkpoint and stats bytes go through `cli.main`.

Every call must return an exit code (0, 1 or 2) and raise nothing.  A
refusal (exit 1) must print `error: <the mutated file>: ` and leave no new
path under `--out`.  Exit 2 is allowed in two documented cases only:
`preprocess` skipped an image it could not read or decode, or training hit a
non-finite loss.

Checkpoint and stats mutations edit header lines only.  Tensor files carry no
digest, so a flipped payload byte can load and serve (exit 0); no refusal is
asserted for payload bytes, and they are not fuzzed here.
"""

import shutil

import numpy as np
import pytest

from microexpr.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from microexpr.dataset import load_manifest
from microexpr.network import FusionArch, init_model, save_checkpoint

CASES = {"pgm": 60, "manifest": 60, "predictions": 40, "checkpoint": 80, "stats": 40}
TOKENS = ("0", "-1", "1", "2", "4", "41", "47", "48", "49", "60", "255", "256", "65535",
          "99999999999", "1e3", "0x30", "4.0", "x", "", "nan", "٤٨")
HEADER_BYTES = list(b" \n\t#P5x0189-\xff")
NON_UTF8 = (b"\xff", b"\xc3", b"\x80\xfe")


def pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def replace_line(lines, i, new):
    return lines[:i] + [new] + lines[i + 1:]


def mutated_pgm(rng, data: bytes) -> bytes:
    """A 48x48 binary PGM ("P5\\n48 48\\n255\\n" + payload), mutated once."""
    header_len = data.index(b"255\n") + 4
    payload = data[header_len:]
    kind = int(rng.integers(8))
    if kind == 0:  # truncation
        return data[: int(rng.integers(len(data)))]
    if kind == 1:  # magic
        return pick(rng, [b"P6", b"P2", b"p5", b"5P", b"P", b"", b"\x00\x00"]) + data[2:]
    if kind == 2:  # one header token replaced
        tokens = [b"48", b"48", b"255"]
        tokens[int(rng.integers(3))] = pick(rng, TOKENS).encode()
        return b"P5\n%s %s\n%s\n" % tuple(tokens) + payload
    if kind == 3:  # zero, small or huge dimensions
        width, height = (pick(rng, [0, 1, 2, 7, 47, 48, 999999, 10**12]) for _ in range(2))
        return b"P5\n%d %d\n255\n" % (width, height) + payload
    if kind == 4:  # maxval
        return b"P5\n48 48\n%s\n" % pick(rng, [b"0", b"1", b"254", b"256", b"65535", b"-255",
                                              b"255.0"]) + payload
    if kind == 5:  # no whitespace after maxval
        return b"P5\n48 48\n255" + payload
    if kind == 6:  # header byte flips
        flipped = bytearray(data)
        for i in rng.integers(0, header_len, size=int(rng.integers(1, 4))):
            flipped[i] = pick(rng, HEADER_BYTES)
        return bytes(flipped)
    flipped = bytearray(data)  # payload byte flips: still a valid image
    for i in rng.integers(header_len, len(data), size=int(rng.integers(1, 20))):
        flipped[i] = int(rng.integers(256))
    return bytes(flipped)


def mutated_manifest(rng, text: str) -> bytes:
    """`# classes: C0,C1`, a `path,label,subject` header, then rows, mutated once."""
    lines = text.splitlines()
    rows = range(2, len(lines))
    kind = int(rng.integers(8))
    if kind == 0:  # a dropped column, in a row or the header
        i = pick(rng, [1, *rows])
        lines = replace_line(lines, i, lines[i].rsplit(",", 1)[0])
    elif kind == 1:  # an extra column
        i = pick(rng, [1, *rows])
        lines = replace_line(lines, i, lines[i] + pick(rng, [",x", ",", ',"a,b"']))
    elif kind == 2:  # a non-UTF-8 byte
        data = ("\n".join(lines) + "\n").encode()
        at = int(rng.integers(len(data) + 1))
        return data[:at] + pick(rng, NON_UTF8) + data[at:]
    elif kind == 3:  # the classes comment edited
        lines = replace_line(lines, 0, pick(rng, [
            "# classes: C0", "# classes: C1,C0", "# classes: C0,C1,C2", "# classes: C0,C0,C1",
            "# classes:", "# classes: C0,,C1", "# classes: C0;C1", "# classes: Ç0,C1",
            "# classes: C0,C1,x y", "# CLASSES: C0,C1", "#classes:C0,C1"]))
    elif kind == 4:  # no header
        lines = [lines[0], *lines[2:]]
    elif kind == 5:  # one image in one or every class
        keep = {label: [line for line in lines[2:] if f",{label}," in line][0]
                for label in ("C0", "C1")}
        others = [line for line in lines[2:] if line not in keep.values()]
        lines = lines[:2] + list(keep.values()) + (others if rng.random() < 0.5 else
                                                   [o for o in others if ",C1," in o])
    elif kind == 6:  # an unterminated quote or an oversized field
        i = pick(rng, list(rows))
        lines = replace_line(lines, i, pick(rng, ['"' + lines[i], lines[i] + "x" * 140000]))
    else:  # blank rows and padding: still a valid manifest
        lines = [lines[0], "", lines[1], *(" " + line + " " for line in lines[2:]), ""]
    return ("\n".join(lines) + "\n").encode()


def mutated_predictions(rng, text: str) -> bytes:
    """A `path,predicted_label` header, then one row per test entry, mutated once."""
    lines = text.splitlines()
    rows = range(1, len(lines))
    kind = int(rng.integers(8))
    if kind == 0:
        lines = replace_line(lines, 0, pick(rng, ["path,label", "path", "predicted_label,path",
                                                  "path,predicted_label,x", ""]))
    elif kind == 1:  # a dropped or an extra column
        i = pick(rng, list(rows))
        lines = replace_line(lines, i, pick(rng, [lines[i].split(",")[0], lines[i] + ",x"]))
    elif kind == 2:
        i = pick(rng, list(rows))
        lines = replace_line(lines, i, lines[i].split(",")[0] + "," + pick(rng, ["C9", "", "c0"]))
    elif kind == 3:  # a missing row
        del lines[pick(rng, list(rows))]
    elif kind == 4:
        data = ("\n".join(lines) + "\n").encode()
        at = int(rng.integers(len(data) + 1))
        return data[:at] + pick(rng, NON_UTF8) + data[at:]
    elif kind == 5:
        return b""
    elif kind == 6:  # an oversized field
        i = pick(rng, list(rows))
        lines = replace_line(lines, i, lines[i] + "x" * 140000)
    else:  # padding: still valid
        lines = [lines[0], *(f" {line} " for line in lines[1:])]
    return ("\n".join(lines) + "\n").encode()


def mutated_header(rng, data: bytes) -> bytes:
    """A tensor file with one of its header lines mutated: the magic, an arch
    token, the classes line, a tensor line's name or dims, or the end line."""
    header_len = data.index(b"\nend\n") + len(b"\nend\n")
    lines = data[:header_len].decode("ascii").split("\n")[:-1]
    payload = data[header_len:]
    tensor_lines = [i for i, line in enumerate(lines) if line.startswith("tensor ")]
    kind = int(rng.integers(4 if lines[1].startswith("tensor ") else 6))
    if kind == 0:
        lines[0] = pick(rng, ["MFETENSOR2", "MFEDRL1", "MFESTATS1", "", "mfetensor1",
                              "MFETENSOR1 "])
    elif kind == 1:
        i = pick(rng, tensor_lines)
        _, name, dims = lines[i].split()
        dims = dims.split(",")
        j = int(rng.integers(len(dims)))
        edit = int(rng.integers(4))
        if edit == 0:
            dims[j] = pick(rng, [*TOKENS, str(int(dims[j]) + 1), str(int(dims[j]) - 1)])
        elif edit == 1:  # a leading zero: still the same dim
            dims[j] = "0" + dims[j]
        elif edit == 2:
            dims = dims[:j] + dims[j + 1:] if len(dims) > 1 else dims + ["1"]
        else:
            name = pick(rng, [name + "x", "centers", "param:head.w", ""])
        lines[i] = f"tensor {name} {','.join(dims)}"
    elif kind == 2:
        where = int(rng.integers(3))
        if where == 0:
            lines = lines[:-1]  # no end line
        elif where == 1:
            lines[-1] = pick(rng, ["END", "end ", "ends"])
        else:
            lines.insert(int(rng.integers(1, len(lines))), "end")
    elif kind == 3:
        del lines[pick(rng, tensor_lines)]
    elif kind == 4:  # an arch token
        tokens = lines[1].split(" ")
        j = int(rng.integers(1, len(tokens)))
        key, _, value = tokens[j].partition("=")
        edit = int(rng.integers(4))
        if edit == 0 and value:
            tokens[j] = f"{key}={pick(rng, TOKENS)}"
        elif edit == 1:
            tokens[j] = pick(rng, [key[:-1] + "x" + "=" + value, "mlp", "conv", "=", key])
        elif edit == 2:
            del tokens[j]
        else:
            tokens.append(tokens[j])
        lines[1] = " ".join(tokens)
    else:
        lines[2] = pick(rng, ["classes C0", "classes C0,C1,C2", "classes C1,C0", "classes ",
                              "classes", "klasses C0,C1", "classes C0,C1,"])
    return ("\n".join(lines) + "\n").encode() + payload


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Raw 48x48 images, their prepared copies and splits, and an untrained
    two-class checkpoint."""
    root = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--classes", "2", "--per-class", "4", "--seed", "1",
                 "--out", str(root / "data")]) == EXIT_OK
    assert main(["preprocess", "--manifest", str(root / "data" / "manifest.csv"),
                 "--seed", "1", "--out", str(root / "work")]) == EXIT_OK
    save_checkpoint(root / "model.ckpt", init_model(FusionArch(classes=2), ("C0", "C1"), seed=0,
                                                    dtype=np.float32))
    return root


class Runner:
    """Runs one mutated-file call and checks its outcome."""

    def __init__(self, root, capsys):
        self.runs = root / "runs"
        self.runs.mkdir()
        self.capsys = capsys
        self.codes = []

    def __call__(self, argv, mutated):
        out = self.runs / "out"
        rc = main([*argv, "--workers", "1", "--out", str(out)])
        err = self.capsys.readouterr().err
        assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_RUNTIME), argv
        if rc == EXIT_VALIDATION:
            assert err.startswith(f"error: {mutated}: "), (argv, err)
            assert list(self.runs.iterdir()) == [], argv
        if rc == EXIT_RUNTIME:
            documented = ("skipping" in err if argv[0] == "preprocess"
                          else argv[0] == "train" and "non-finite" in err)
            assert documented, (argv, err)
        shutil.rmtree(out, ignore_errors=True)
        self.codes.append(rc)


@pytest.fixture
def run(tmp_path, capsys):
    runner = Runner(tmp_path, capsys)
    yield runner
    # The mutations reach both sides: some files are accepted, some refused.
    assert EXIT_OK in runner.codes and EXIT_VALIDATION in runner.codes


def test_mutated_pgms(corpus, tmp_path, run):
    rng = np.random.default_rng(17)
    raw = sorted((corpus / "data" / "images").glob("*.pgm"))
    mutated = tmp_path / "mutated.pgm"
    # The mutated image takes the place of one of the raw corpus's four C0 images.
    rows = [f"{mutated},C0,s0"] + [f"{p},{p.name[:2]},s{i}" for i, p in enumerate(raw[1:], 1)]
    preprocess_manifest = tmp_path / "preprocess.csv"
    preprocess_manifest.write_text("path,label,subject\n" + "\n".join(rows) + "\n")
    features_manifest = tmp_path / "features.csv"
    features_manifest.write_text(f"path,label,subject\n{mutated},C0,s0\n")
    base = raw[0].read_bytes()
    for _ in range(CASES["pgm"]):
        mutated.write_bytes(mutated_pgm(rng, base))
        run(["preprocess", "--manifest", str(preprocess_manifest)], mutated)
        run(["features", "--manifest", str(features_manifest)], mutated)
        run(["predict", str(mutated), "--checkpoint", str(corpus / "model.ckpt")], mutated)


def test_mutated_manifests(corpus, tmp_path, run):
    rng = np.random.default_rng(18)
    images = corpus / "work" / "images"
    base = "# classes: C0,C1\npath,label,subject\n" + "".join(
        f"{p},{p.name[:2]},s{i % 3}\n" for i, p in enumerate(sorted(images.glob("*.pgm"))))
    manifest = tmp_path / "manifest.csv"
    argvs = [
        ["preprocess", "--manifest", str(manifest)],
        ["features", "--manifest", str(manifest)],
        ["train", "--train-manifest", str(manifest), "--max-epochs", "1", "--batch-size", "4"],
        ["eval", "--test-manifest", str(manifest), "--checkpoint", str(corpus / "model.ckpt")],
    ]
    for case in range(CASES["manifest"]):
        manifest.write_bytes(mutated_manifest(rng, base))
        run(argvs[case % len(argvs)], manifest)


def test_mutated_predictions(corpus, tmp_path, run):
    rng = np.random.default_rng(19)
    test_manifest = corpus / "work" / "test.csv"
    entries = load_manifest(test_manifest.read_text()).entries
    base = "path,predicted_label\n" + "".join(f"{path},{label}\n" for path, label, _ in entries)
    predictions = tmp_path / "predictions.csv"
    for _ in range(CASES["predictions"]):
        predictions.write_bytes(mutated_predictions(rng, base))
        run(["eval", "--test-manifest", str(test_manifest), "--predictions", str(predictions)],
            predictions)


def test_mutated_checkpoint_headers(corpus, tmp_path, run):
    rng = np.random.default_rng(20)
    base = (corpus / "model.ckpt").read_bytes()
    ckpt = tmp_path / "model.ckpt"
    image = sorted((corpus / "work" / "images").glob("*.pgm"))[0]
    for _ in range(CASES["checkpoint"]):
        ckpt.write_bytes(mutated_header(rng, base))
        run(["predict", str(image), "--checkpoint", str(ckpt)], ckpt)


def test_mutated_stats_headers(corpus, tmp_path, run):
    rng = np.random.default_rng(21)
    work = corpus / "work"
    base = (work / "pixel_stats.bin").read_bytes()
    stats = tmp_path / "pixel_stats.bin"
    for _ in range(CASES["stats"]):
        stats.write_bytes(mutated_header(rng, base))
        run(["train", "--train-manifest", str(work / "train.csv"), "--stats", str(stats),
             "--max-epochs", "1", "--batch-size", "4"], stats)
