"""Image decoding, manifests, JAFFE-style filenames, synthetic corpora, splits.

Images are binary PGM (P5, 8-bit) only; anything else must be converted
externally.  All randomness is routed through seeded substreams so splits and
synthetic corpora are reproducible bit for bit.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass

import numpy as np

from .rng import STREAM_SPLIT, STREAM_SYNTH, substream

# Canonical JAFFE expression codes, alphabetical; index = label.
JAFFE_CLASS_NAMES = ("AN", "DI", "FE", "HA", "NE", "SA", "SU")

# A `# split:` line records the split that wrote a manifest: these settings,
# each of the type a config file reads it as; split_mode one of SPLIT_MODES.
SPLIT_KEYS = {"split_mode": str, "seed": int, "split_fraction": float}
SPLIT_MODES = ("stratified", "subject")

LINE_BREAK = re.compile(r"\r\n|\r|\n")  # csv.writer quotes these; splitlines splits at more


class PgmError(ValueError):
    """Malformed PGM input. `reason` is one of magic/header/maxval/truncated;
    `offset` is the byte position of the problem."""

    def __init__(self, reason: str, offset: int, detail: str):
        self.reason = reason
        self.offset = offset
        super().__init__(f"{detail} (byte offset {offset})")


class ManifestError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Single-channel image; `pixels` is a (height, width) float64 array."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 2 or px.size == 0:
            raise ValueError(f"image must be a nonempty 2-D array, got shape {px.shape}")
        if not np.all(np.isfinite(px)):
            raise ValueError("image contains non-finite pixels")
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True, eq=False)
class LabeledSample:
    image: GrayImage
    label: int
    subject: str


@dataclass(frozen=True)
class Manifest:
    """Entries are (path, label name, subject); class_names order fixes the
    label-index mapping used everywhere downstream.  split is the record of
    the split that wrote the manifest, a SPLIT_KEYS dict, or None."""

    entries: tuple[tuple[str, str, str], ...]
    class_names: tuple[str, ...]
    split: dict[str, object] | None

    def __post_init__(self):
        if len(set(self.class_names)) != len(self.class_names):
            raise ManifestError("duplicate class names")
        known = set(self.class_names)
        for path, label, _ in self.entries:
            if label not in known:
                raise ManifestError(f"label {label!r} of {path!r} not in declared classes")

    def label_index(self, name: str) -> int:
        return self.class_names.index(name)


def _next_token(data: bytes, pos: int) -> tuple[bytes, int, int]:
    """Next header token, skipping whitespace and '#' comments.
    Returns (token, token start offset, offset after token)."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c in b" \t\r\n":
            pos += 1
        elif c == b"#":
            while pos < n and data[pos : pos + 1] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise PgmError("header", pos, "unexpected end of PGM header")
    start = pos
    while pos < n and data[pos : pos + 1] not in b" \t\r\n":
        pos += 1
    return data[start:pos], start, pos


def decode_pgm(data: bytes) -> GrayImage:
    """Decode a binary PGM (P5, maxval 255); intensities scale to [0,1] as pixel/255."""
    if data[:2] != b"P5":
        raise PgmError("magic", 0, "not a binary PGM (expected magic 'P5')")
    pos = 2
    values: list[int] = []
    for name in ("width", "height", "maxval"):
        tok, start, pos = _next_token(data, pos)
        if not tok.isdigit():
            raise PgmError("header", start, f"malformed {name} field {tok!r}")
        values.append(int(tok))
        if name == "maxval":
            maxval_offset = start
    width, height, maxval = values
    if width < 1 or height < 1:
        raise PgmError("header", 2, f"degenerate dimensions {width}x{height}")
    if maxval != 255:
        raise PgmError("maxval", maxval_offset, f"unsupported maxval {maxval} (only 255)")
    if pos >= len(data) or data[pos : pos + 1] not in b" \t\r\n":
        raise PgmError("header", pos, "expected a single whitespace byte after maxval")
    pos += 1
    need = width * height
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise PgmError(
            "truncated",
            pos + len(payload),
            f"payload needs {need} bytes, found {len(payload)}",
        )
    px = np.frombuffer(payload, dtype=np.uint8).astype(np.float64).reshape(height, width)
    return GrayImage(px / 255.0)


def to_8bit(pixels: np.ndarray) -> np.ndarray:
    """The one 8-bit rule, as uint8: clip to [0,1], scale by 255, round half to even."""
    return np.rint(np.clip(pixels, 0.0, 1.0) * 255.0).astype(np.uint8)


def encode_pgm(img: GrayImage) -> bytes:
    """Write a binary PGM of to_8bit(pixels), which decode_pgm reads back / 255."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + to_8bit(img.pixels).tobytes()


def parse_jaffe_name(filename: str, class_names: tuple[str, ...] | list[str]) -> tuple[int, str]:
    """Parse `<SUBJ>.<EXPR><n>.<id>.<ext>` into (label index, subject).

    EXPR must be a two-letter code present in class_names.
    """
    parts = filename.split(".")
    if len(parts) != 4:
        raise ValueError(f"filename {filename!r} does not match SUBJ.EXPRn.id.ext")
    subj, expr_rep = parts[0], parts[1]
    if not subj or len(expr_rep) < 3 or not expr_rep[:2].isalpha() or not expr_rep[2:].isdigit():
        raise ValueError(f"filename {filename!r} does not match SUBJ.EXPRn.id.ext")
    code = expr_rep[:2]
    if code not in class_names:
        raise ValueError(f"unknown expression code {code!r} in {filename!r}")
    return list(class_names).index(code), subj


def csv_rows(lines: list[str]) -> list[list[str]]:
    """The non-blank CSV rows of text lines; a quoted cell keeps its line breaks."""
    return [row for row in csv.reader(io.StringIO("\n".join(lines))) if row]


def require_split_fraction(fraction: float) -> None:
    if not 0.0 < fraction < 1.0:  # NaN fails too
        raise ValueError(f"split_fraction must lie in (0, 1), got {fraction}")


def _read_split(items: list[str]) -> dict[str, object]:
    """The split record of a `# split:` line's key=value items."""
    values = dict(item.partition("=")[::2] for item in items)
    try:
        if sorted(values) != sorted(SPLIT_KEYS) or len(items) != len(SPLIT_KEYS):
            raise ValueError(f"give each of {list(SPLIT_KEYS)} once")
        split = {key: kind(values[key]) for key, kind in SPLIT_KEYS.items()}
        if split["split_mode"] not in SPLIT_MODES:
            raise ValueError(f"split_mode must be one of {SPLIT_MODES}")
        require_split_fraction(split["split_fraction"])
    except ValueError as err:
        raise ManifestError(f"'# split: {','.join(items)}': {err}") from None
    return split


def load_manifest(text: str) -> Manifest:
    """Parse a manifest CSV: optional `# classes: a,b,c` and `# split: …`
    lines, then a `path,label,subject` header, then one row per sample.

    Without `# classes:`, class names are the sorted set of labels seen;
    without `# split:`, the split is None.
    """
    lines = LINE_BREAK.split(text)
    preamble: dict[str, list[str]] = {}  # `# key: a,b` lines; other `#` lines are comments
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            key, sep, value = stripped[1:].strip().partition(":")
            if sep and key.lower() in ("classes", "split"):
                if key.lower() in preamble:
                    raise ManifestError(f"line {i + 1}: a second '# {key.lower()}:' line")
                preamble[key.lower()] = [n.strip() for n in value.split(",") if n.strip()]
            continue
        body_start = i
        break
    else:
        raise ManifestError("empty manifest")

    rows = csv_rows(lines[body_start:])
    if not rows or [c.strip() for c in rows[0]] != ["path", "label", "subject"]:
        raise ManifestError("manifest must start with a 'path,label,subject' header")
    entries: list[tuple[str, str, str]] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3 or not all(c.strip() for c in row[:2]):
            raise ManifestError(f"row {lineno}: expected path,label,subject, got {row!r}")
        entries.append((row[0].strip(), row[1].strip(), row[2].strip()))
    if not entries:
        raise ManifestError("manifest has no entries")
    class_names = tuple(preamble.get("classes", sorted({e[1] for e in entries})))
    split = _read_split(preamble["split"]) if "split" in preamble else None
    return Manifest(tuple(entries), class_names, split)


def listable_class_name(name: str) -> bool:
    """Whether name reads back from a one-line, comma-separated classes list,
    as a manifest's `# classes:` line and a checkpoint's classes line are:
    non-empty, unchanged by the reader's str.strip, no comma or line break."""
    return bool(name) and name == name.strip() and "," not in name and not LINE_BREAK.search(name)


def require_writable_class_names(class_names) -> None:
    """Refuse, with ManifestError naming it, a class name that a manifest's
    `# classes:` line cannot hold."""
    for name in class_names:
        if not listable_class_name(name):
            raise ManifestError(f"class name {name!r} cannot be written to a manifest's classes "
                                "line: use trimmed, non-empty names without commas or line breaks")


def write_manifest(path, entries, class_names: tuple[str, ...], split: dict | None) -> None:
    """Write a manifest that load_manifest reads back: the `# classes:`
    line, the `# split:` line of a split record unless split is None, the
    header, then one CSV row per (path, label, subject) entry, quoted where
    a cell holds a comma, a quote or a newline.  Class names are checked by
    require_writable_class_names before the file opens."""
    require_writable_class_names(class_names)
    head = ["# classes: " + ",".join(class_names)]
    if split is not None:
        head.append("# split: " + ",".join(f"{key}={split[key]}" for key in SPLIT_KEYS))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(head + ["path,label,subject"]) + "\n")
        csv.writer(fh, lineterminator="\n").writerows(entries)


def split(
    samples: list[LabeledSample],
    test_fraction: float,
    seed: int,
    by_subject: bool = False,
) -> tuple[list[LabeledSample], list[LabeledSample]]:
    """Deterministic train/test partition.

    Default mode stratifies by label: per class, round(test_fraction * n)
    samples go to test.  by_subject=True instead holds out whole subjects
    (round(test_fraction * n_subjects) of them, at least one on each side).
    """
    require_split_fraction(test_fraction)
    by_label: dict[int, list[int]] = {}
    for i, s in enumerate(samples):
        by_label.setdefault(s.label, []).append(i)
    for label, idxs in sorted(by_label.items()):
        if len(idxs) < 2:
            raise ValueError(f"class {label} has {len(idxs)} sample(s); need at least 2")

    rng = substream(seed, STREAM_SPLIT)
    test_idx: set[int] = set()
    if by_subject:
        subjects: list[str] = []
        for s in samples:
            if s.subject not in subjects:
                subjects.append(s.subject)
        k = int(math.floor(test_fraction * len(subjects) + 0.5))
        k = min(max(k, 1), len(subjects) - 1)
        order = rng.permutation(len(subjects))
        held_out = {subjects[j] for j in order[:k]}
        test_idx = {i for i, s in enumerate(samples) if s.subject in held_out}
    else:
        for label, idxs in sorted(by_label.items()):
            k = int(math.floor(test_fraction * len(idxs) + 0.5))
            order = rng.permutation(len(idxs))
            test_idx.update(idxs[j] for j in order[:k])

    train = [s for i, s in enumerate(samples) if i not in test_idx]
    test = [s for i, s in enumerate(samples) if i in test_idx]
    return train, test


# Synthetic texture constants: each class is a fixed band-limited template
# (4 plane waves, 0.5-3 cycles, amplitude 0.4 of dynamic range) plus per-sample
# Gaussian pixel noise of std 0.05, quantized to the 8-bit grid.
_SYNTH_WAVES = 4
_SYNTH_CONTRAST = 0.4
_SYNTH_NOISE_STD = 0.05


def generate_synthetic(
    classes: int, per_class: int, size: int, seed: int
) -> list[LabeledSample]:
    """Deterministic synthetic corpus; class identity is a spatial template.

    Templates are rotation- and mirror-tolerant class signatures (distinct
    low-frequency interference patterns), so the corpus survives the training
    augmentation while staying linearly separable for gradient-histogram
    features on the clean images.
    """
    if classes < 2:
        raise ValueError("need at least 2 classes")
    if per_class < 2:
        raise ValueError("need at least 2 samples per class")
    if size < 16:
        raise ValueError("size must be at least 16")

    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    samples: list[LabeledSample] = []
    for label in range(classes):
        t_rng = substream(seed, STREAM_SYNTH, 0, label)
        field = np.zeros_like(xs)
        total_amp = 0.0
        for _ in range(_SYNTH_WAVES):
            u, v = t_rng.uniform(-3.0, 3.0, size=2)
            if abs(u) + abs(v) < 0.5:
                u += 0.5
            phase = t_rng.uniform(0.0, 2.0 * np.pi)
            amp = t_rng.uniform(0.5, 1.0)
            total_amp += amp
            field += amp * np.sin(2.0 * np.pi * (u * xs + v * ys) / size + phase)
        template = 0.5 + _SYNTH_CONTRAST * field / total_amp
        for i in range(per_class):
            s_rng = substream(seed, STREAM_SYNTH, 1, label * per_class + i)
            noisy = template + s_rng.normal(0.0, _SYNTH_NOISE_STD, size=template.shape)
            samples.append(LabeledSample(GrayImage(to_8bit(noisy) / 255.0), label, f"S{i % 10:02d}"))
    return samples
