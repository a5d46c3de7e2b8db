"""Batch command line: ingest, synth, preprocess, features, train, eval,
predict.

Configuration precedence is flag > config file > built-in default.  Config
files are flat `key = value` text; `#` starts a comment.  Exit codes: 0
success, 1 a malformed flag or input file (an error about a file names it),
2 an unreadable path, a numeric failure or running out of memory.  Every
subcommand honors --seed, and identical invocations produce byte-identical
artifacts.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import dataset, evaluation, features, network, preprocess, training
from .dataset import GrayImage, LabeledSample, Manifest
from .network import load_pixel_stats, save_pixel_stats

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config handling

# The values a mode setting may take, checked for flags and config files
# alike; the first is the default.
SETTING_CHOICES: dict[str, tuple[str, ...]] = {
    "profile": ("cnn-fusion", "mlp-handcrafted"),
    "inference_mode": ("multicrop", "nearest-feature"),
    "split_mode": ("stratified", "subject"),
}

# Every field of the settings classes (seed is TrainConfig's) takes its
# default, and so its option type, from its class; dropout_p from the archs.
CONFIG_DEFAULTS: dict[str, object] = {
    "workers": 1,
    **{key: choices[0] for key, choices in SETTING_CHOICES.items()},
    "split_fraction": 0.2,
    "dropout_p": network.FusionArch.dropout_p,
    **{f.name: f.default for settings in (preprocess.HomomorphicParams, training.TrainConfig)
       for f in dataclasses.fields(settings)},
}


def parse_config_file(text: str) -> dict[str, str]:
    """Flat `key = value` lines, each a known setting with a valid value; '#'
    starts a comment; blanks ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip() or not value.strip():
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        if key.strip() in values:
            raise ConfigError(f"config line {lineno}: duplicate key {key.strip()!r}")
        values[key.strip()] = value.strip()
    unknown = set(values) - set(CONFIG_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for name in values:
        resolve_option(name, None, values)
    return values


def resolve_option(name: str, flag_value, file_values: dict[str, str]):
    """Apply the flag > config file > default precedence for one option."""
    if flag_value is not None:
        return flag_value
    default = CONFIG_DEFAULTS[name]
    if name not in file_values:
        return default
    raw = file_values[name]
    try:
        value = type(default)(raw)
    except ValueError as err:
        raise ConfigError(f"config key {name}: {err}") from err
    if name in SETTING_CHOICES and value not in SETTING_CHOICES[name]:
        raise ConfigError(f"config key {name}: {raw!r} is not one of {SETTING_CHOICES[name]}")
    return value


def _load(path, read):
    """read(Path(path)): malformed content (ValueError, or csv.Error) becomes
    `<path>: <reason>`, exit 1; an OSError names the path already, exit 2."""
    try:
        return read(Path(path))
    except (ValueError, csv.Error) as err:
        raise ConfigError(f"{path}: {err}") from err


def resolve_settings(args: argparse.Namespace) -> None:
    """Set every CONFIG_DEFAULTS key on `args`, so each value in the config
    file is checked whether or not the command reads it."""
    file_values = (_load(args.config, lambda p: parse_config_file(p.read_text()))
                   if args.config else {})
    for name in CONFIG_DEFAULTS:
        setattr(args, name, resolve_option(name, getattr(args, name, None), file_values))
    if args.workers < 1:
        raise ConfigError(f"workers must be at least 1, got {args.workers}")


def _build(cls, args: argparse.Namespace):
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


# ---------------------------------------------------------------------------
# IO helpers


def _read_manifest_file(path: Path) -> Manifest:
    return _load(path, lambda p: dataset.load_manifest(p.read_text()))


def _read_image(path: Path, kind: str | None = None) -> GrayImage:
    """A PGM image; with an architecture kind, only one that kind takes, so
    that a refused image is named where it is read."""
    img = dataset.decode_pgm(path.read_bytes())
    if kind is not None:
        training.require_model_image(kind, img.pixels.shape)
    return img


def _read_stats(path: Path) -> preprocess.PixelStats:
    """Pixel statistics, which preprocess fits on prepared images."""
    stats = load_pixel_stats(path)
    preprocess.require_prepared(stats.mean.shape, "pixel statistics")
    return stats


def _load_samples(manifest_path: Path, manifest: Manifest, kind: str) -> list[LabeledSample]:
    return [LabeledSample(_load(manifest_path.parent / path,  # `/` keeps absolute paths
                                lambda p: _read_image(p, kind)),
                          manifest.label_index(label), subject)
            for path, label, subject in manifest.entries]


def _write_manifest_csv(path: Path, rows: list[tuple[str, str, str]], class_names) -> None:
    lines = ["# classes: " + ",".join(class_names), "path,label,subject"]
    lines += [f"{p},{label},{subject}" for p, label, subject in rows]
    path.write_text("\n".join(lines) + "\n")


def _class_names_for(classes: int) -> tuple[str, ...]:
    if classes == len(dataset.JAFFE_CLASS_NAMES):
        return dataset.JAFFE_CLASS_NAMES
    return tuple(f"C{k}" for k in range(classes))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_ingest(args) -> int:
    src = Path(args.directory)
    if not src.is_dir():
        raise ConfigError(f"not a directory: {src}")
    rows = []
    for path in sorted(src.glob("*.pgm")):
        label_idx, subject = dataset.parse_jaffe_name(path.name, dataset.JAFFE_CLASS_NAMES)
        rows.append((str(path.resolve()), dataset.JAFFE_CLASS_NAMES[label_idx], subject))
    if not rows:
        raise ConfigError(f"no .pgm files with JAFFE-style names under {src}")
    # Made only now, so a refused directory leaves no output.
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_manifest_csv(out / "manifest.csv", rows, dataset.JAFFE_CLASS_NAMES)
    print(f"ingested {len(rows)} images -> {out / 'manifest.csv'}")
    return EXIT_OK


def cmd_synth(args) -> int:
    samples = dataset.generate_synthetic(args.classes, args.per_class, args.size, args.seed)
    out = Path(args.out)
    images_dir = out / "images"
    images_dir.mkdir(parents=True, exist_ok=True)
    class_names = _class_names_for(args.classes)
    rows = []
    for i, sample in enumerate(samples):
        name = f"{class_names[sample.label]}_{i:04d}.pgm"
        (images_dir / name).write_bytes(dataset.encode_pgm(sample.image))
        rows.append((f"images/{name}", class_names[sample.label], sample.subject))
    _write_manifest_csv(out / "manifest.csv", rows, class_names)
    print(f"wrote {len(rows)} synthetic images -> {out}")
    return EXIT_OK


def _preprocess_one(img: GrayImage, params: preprocess.HomomorphicParams) -> GrayImage:
    filtered = preprocess.homomorphic_filter(img, params)
    equalized = preprocess.hist_equalize(filtered)
    size = preprocess.PREPARED_SIZE
    resized = preprocess.bilinear_resize(equalized.pixels, size, size)
    # Quantize now so stats are fitted on exactly what later stages reload.
    return GrayImage(np.rint(np.clip(resized, 0.0, 1.0) * 255.0) / 255.0)


def cmd_preprocess(args) -> int:
    # NaN fails the comparison too; checked before any image is read.
    if not 0.0 < args.split_fraction < 1.0:
        raise ConfigError(f"split_fraction must lie in (0, 1), got {args.split_fraction}")
    manifest_path = Path(args.manifest)
    manifest = _read_manifest_file(manifest_path)
    # Output name -> entry path, in manifest order.  Images are named by stem
    # alone, so two entries sharing one would overwrite each other.
    names: dict[str, str] = {}
    for path, _, _ in manifest.entries:
        name = f"images/{Path(path).stem}.pgm"
        if name in names:
            raise ConfigError(f"{manifest_path}: entries {names[name]} and {path} would "
                              f"both be written to {name}")
        names[name] = path
    params = _build(preprocess.HomomorphicParams, args)

    def process(entry):
        try:
            return _load(manifest_path.parent / entry[0],
                         lambda p: _preprocess_one(_read_image(p), params)), None
        except (OSError, ConfigError) as err:
            return None, err

    rows = []
    samples = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=args.workers) as pool:
        results = pool.map(process, manifest.entries)
        for name, (_, label, subject), (img, err) in zip(names, manifest.entries, results):
            if err is not None:
                print(f"warning: skipping image: {err}", file=sys.stderr)
                continue
            rows.append((name, label, subject))
            samples.append(LabeledSample(img, manifest.label_index(label), subject))

    # Split and fit before the first write, so a refused split leaves nothing.
    try:  # too few images in the manifest, of a class or in all
        train_part, _ = dataset.split(samples, args.split_fraction, args.seed,
                                      by_subject=args.split_mode == "subject")
        stats = preprocess.fit_pixel_stats(
            [preprocess.normalize_per_image(s.image) for s in train_part])
    except ValueError as err:
        raise ConfigError(f"{manifest_path}: {err}") from err
    train_ids = {id(s) for s in train_part}

    out = Path(args.out)
    (out / "images").mkdir(parents=True, exist_ok=True)
    for (name, _, _), sample in zip(rows, samples):
        (out / name).write_bytes(dataset.encode_pgm(sample.image))
    _write_manifest_csv(out / "manifest.csv", rows, manifest.class_names)
    train_rows = [row for s, row in zip(samples, rows) if id(s) in train_ids]
    test_rows = [row for s, row in zip(samples, rows) if id(s) not in train_ids]
    _write_manifest_csv(out / "train.csv", train_rows, manifest.class_names)
    _write_manifest_csv(out / "test.csv", test_rows, manifest.class_names)
    save_pixel_stats(out / "pixel_stats.bin", stats)
    print(f"preprocessed {len(samples)} images ({len(train_rows)} train / {len(test_rows)} test)")
    skipped = len(manifest.entries) - len(rows)
    if skipped:
        print(f"error: {skipped} file(s) skipped", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_features(args) -> int:
    manifest_path = Path(args.manifest)
    manifest = _read_manifest_file(manifest_path)

    def describe(entry):  # in the reader, so an image too small to crop names its file
        return _load(manifest_path.parent / entry[0],
                     lambda p: features.image_descriptor(_read_image(p)))

    with concurrent.futures.ThreadPoolExecutor(max_workers=args.workers) as pool:
        descriptors = list(pool.map(describe, manifest.entries))
    labels = [label for _, label, _ in manifest.entries]
    # Made only now, so a refused manifest or image leaves no directory.
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    features.write_descriptor_csv(out / "descriptors.csv", descriptors, labels)
    print(f"wrote {len(descriptors)} descriptors -> {out / 'descriptors.csv'}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _build(training.TrainConfig, args)
    if args.max_epochs < 1:
        raise ConfigError("max_epochs must be at least 1 for training")
    if args.checkpoint_every < 0:
        raise ConfigError(f"checkpoint_every must be at least 0, got {args.checkpoint_every}")
    manifest_path = Path(args.train_manifest)
    manifest = _read_manifest_file(manifest_path)
    classes = len(manifest.class_names)
    if classes < 2:
        raise ConfigError(f"{manifest_path}: {classes} class {list(manifest.class_names)}; "
                          "training needs at least 2 classes")
    # The checkpoint stores class names as one ASCII, comma-separated line.
    unstorable = [n for n in manifest.class_names if not n.isascii() or "," in n or "\n" in n]
    if unstorable:
        raise ConfigError(f"{manifest_path}: class names {unstorable} cannot be stored in a "
                          "checkpoint: use ASCII names without commas or newlines")
    # Checked before any image, and even for the descriptor MLP, which pixel
    # statistics do not touch.
    stats = _load(args.stats, _read_stats) if args.stats else None
    fusion = args.profile == "cnn-fusion"
    samples = _load_samples(manifest_path, manifest, "fusion" if fusion else "mlp")

    if fusion:
        arch = network.FusionArch(classes=classes, dropout_p=args.dropout_p)
    else:
        arch = network.MlpArch(classes=classes, input_dim=features.IMAGE_DESCRIPTOR_LENGTH,
                               dropout_p=args.dropout_p)
    model = network.init_model(arch, manifest.class_names, cfg.seed, dtype=np.float32)
    model.pixel_stats = stats if fusion else None
    out = Path(args.out)
    error = None
    try:
        model, log = training.train(model, samples, cfg, checkpoint_dir=out,
                                    checkpoint_every=args.checkpoint_every)
    except training.NonFiniteLossError as err:
        # The model was rolled back in place; it and the log so far are kept.
        error, log = err, getattr(err, "log", training.TrainLog())
    # Made only now, so a run refused before its first epoch leaves nothing.
    out.mkdir(parents=True, exist_ok=True)
    network.save_checkpoint(out / "model.ckpt", model)
    log.write_csv(out / "train_log.csv")
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_RUNTIME
    last = log.records[-1]
    print(f"trained {last.epoch} epoch(s), final loss {last.loss:.6f} -> {out / 'model.ckpt'}")
    return EXIT_OK


def _require_classes(model, manifest: Manifest, path: Path) -> None:
    # A manifest label indexes the manifest's own class list.
    if model.class_names != manifest.class_names:
        raise ValueError(f"{path}: manifest classes {manifest.class_names} != checkpoint "
                         f"classes {model.class_names}")


def _read_gallery(args) -> tuple[Path, Manifest] | None:
    """The nearest-feature gallery manifest, read before any checkpoint or
    image so that a missing or empty one costs nothing; None in multicrop."""
    if args.inference_mode == "multicrop":
        if args.gallery_manifest:
            raise ConfigError("--gallery-manifest needs --inference-mode nearest-feature")
        return None
    if not args.gallery_manifest:
        raise ConfigError("nearest-feature mode needs --gallery-manifest")
    path = Path(args.gallery_manifest)
    return path, _read_manifest_file(path)


def _predict(model, images, gallery_manifest) -> list[tuple[int, float]]:
    """(label, score) per image: the label's softmax probability without a
    gallery manifest (multicrop), else the distance to the nearest gallery entry."""
    if gallery_manifest is None:
        return [(label, float(probs[label]))
                for label, probs in evaluation.single_predict(model, images)]
    gpath, gallery_entries = gallery_manifest
    _require_classes(model, gallery_entries, gpath)
    samples = _load_samples(gpath, gallery_entries, model.arch.kind)
    gallery = (evaluation.extract_features(model, [s.image for s in samples]),
               np.array([s.label for s in samples], dtype=np.int64))
    return evaluation.nearest_feature_predict(model, images, gallery)


def _read_predictions(path: Path) -> dict[str, str]:
    """{manifest path: predicted label} from an external predictions CSV."""
    rows = list(csv.reader(path.read_text().splitlines()))
    if not rows or [c.strip() for c in rows[0]] != ["path", "predicted_label"]:
        raise ValueError("predictions CSV must start with 'path,predicted_label'")
    table: dict[str, str] = {}
    for row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"bad prediction row {row!r}")
        if row[0].strip() in table:
            raise ValueError(f"more than one prediction for {row[0].strip()!r}")
        table[row[0].strip()] = row[1].strip()
    return table


def cmd_eval(args) -> int:
    if args.predictions and (args.checkpoint or args.gallery_manifest):
        raise ConfigError("--predictions takes no --checkpoint or --gallery-manifest")
    manifest_path = Path(args.test_manifest)
    manifest = _read_manifest_file(manifest_path)

    if args.predictions:
        true, pred = _load(args.predictions, lambda p: evaluation.evaluate_external_predictions(
            manifest, _read_predictions(p)))
        inference_mode = "external"
    else:
        if not args.checkpoint:
            raise ConfigError("eval needs --checkpoint or --predictions")
        gallery_manifest = _read_gallery(args)
        model = _load(args.checkpoint, network.load_checkpoint)
        _require_classes(model, manifest, manifest_path)
        samples = _load_samples(manifest_path, manifest, model.arch.kind)
        true = np.array([s.label for s in samples], dtype=np.int64)
        predictions = _predict(model, [s.image for s in samples], gallery_manifest)
        pred = np.array([label for label, _ in predictions], dtype=np.int64)
        inference_mode = args.inference_mode

    protocol = {
        "split_mode": args.split_mode,
        "seed": args.seed,
        "inference_mode": inference_mode,
    }
    report, cm = evaluation.build_report(true, pred, manifest.class_names)
    # Made only now, so a refused checkpoint or gallery leaves no directory.
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.json").write_text(evaluation.report_to_json(report, protocol))
    (out / "confusion.csv").write_text(evaluation.confusion_to_csv(cm, manifest.class_names))
    print(f"protocol: {protocol}")
    print(f"macro accuracy (one-vs-rest): {report.accuracy_ovr_macro:.4f}")
    print(f"trace accuracy: {report.accuracy_trace:.4f}")
    return EXIT_OK


def cmd_predict(args) -> int:
    gallery_manifest = _read_gallery(args)
    model = _load(args.checkpoint, network.load_checkpoint)
    img = _load(args.image, lambda p: _read_image(p, model.arch.kind))
    [(label, score)] = _predict(model, [img], gallery_manifest)
    print(f"{model.class_names[label]} {score:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _add_setting(parser: argparse.ArgumentParser, key: str) -> None:
    parser.add_argument(f"--{key.replace('_', '-')}", type=type(CONFIG_DEFAULTS[key]),
                        choices=SETTING_CHOICES.get(key), default=None, dest=key)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    for key in ("seed", "workers"):
        _add_setting(parser, key)
    parser.add_argument("--out", default=".", help="output directory")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, so a bad flag exits 1 like the
    same value in a config file; subparsers inherit the class."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="microexpr", description="micro facial expression recognition pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build a manifest from JAFFE-named PGM files")
    p.add_argument("directory")
    _add_common(p)

    p = sub.add_parser("synth", help="generate a deterministic synthetic corpus")
    p.add_argument("--classes", type=int, default=7)
    p.add_argument("--per-class", type=int, default=10, dest="per_class")
    p.add_argument("--size", type=int, default=48)
    _add_common(p)

    p = sub.add_parser("preprocess", help="filter, equalize, resize, split, fit stats")
    p.add_argument("--manifest", required=True)
    for f in dataclasses.fields(preprocess.HomomorphicParams):
        _add_setting(p, f.name)
    for key in ("split_mode", "split_fraction"):
        _add_setting(p, key)
    _add_common(p)

    p = sub.add_parser("features", help="dump handcrafted descriptors to CSV")
    p.add_argument("--manifest", required=True)
    _add_common(p)

    p = sub.add_parser("train", help="train a classifier")
    p.add_argument("--train-manifest", required=True, dest="train_manifest")
    p.add_argument("--stats", help="pixel statistics file from preprocess")
    _add_setting(p, "profile")
    p.add_argument("--checkpoint-every", type=int, default=0, dest="checkpoint_every",
                   help="also write an epoch-tagged checkpoint every N epochs")
    for f in dataclasses.fields(training.TrainConfig):
        if f.name != "seed":  # one of the common flags
            _add_setting(p, f.name)
    _add_setting(p, "dropout_p")
    _add_common(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint or external predictions")
    p.add_argument("--test-manifest", required=True, dest="test_manifest")
    p.add_argument("--checkpoint")
    p.add_argument("--predictions", help="external path,predicted_label CSV (no model)")
    p.add_argument("--gallery-manifest", dest="gallery_manifest")
    for key in ("inference_mode", "split_mode"):
        _add_setting(p, key)
    _add_common(p)

    p = sub.add_parser("predict", help="classify one PGM image")
    p.add_argument("image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--gallery-manifest", dest="gallery_manifest")
    _add_setting(p, "inference_mode")
    _add_common(p)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        resolve_settings(args)
        # Looked up per call, so a cmd_* patched after the parser was built runs.
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as err:  # ConfigError, PgmError and ManifestError among them
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (training.NonFiniteLossError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as err:  # numpy's names the allocation it refused
        print("error: out of memory" + (f": {err}" if str(err) else ""), file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
