"""Batch command line: ingest, synth, preprocess, features, train, eval,
predict.

Configuration precedence is flag > config file > built-in default.  Config
files are flat `key = value` text; `#` starts a comment.  Exit codes: 0
success, 1 validation problem, 2 runtime or numeric failure.  Every
subcommand honors --seed, and identical invocations produce byte-identical
artifacts.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import dataset, evaluation, features, network, preprocess, training
from .dataset import GrayImage, LabeledSample, Manifest, ManifestError, PgmError
from .network import load_pixel_stats, save_pixel_stats

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config handling

# Every field of the settings classes (seed is TrainConfig's) takes its
# default, and so its option type, from its class; dropout_p from the archs.
CONFIG_DEFAULTS: dict[str, object] = {
    "workers": 1,
    "profile": "cnn-fusion",
    "inference_mode": "multicrop",
    "split_mode": "stratified",
    "split_fraction": 0.2,
    "dropout_p": network.FusionArch.dropout_p,
    **{f.name: f.default for settings in (preprocess.HomomorphicParams, training.TrainConfig)
       for f in dataclasses.fields(settings)},
}


def parse_config_file(text: str) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment; blanks ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip() or not value.strip():
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        values[key.strip()] = value.strip()
    return values


def resolve_option(name: str, flag_value, file_values: dict[str, str]):
    """Apply the flag > config file > default precedence for one option."""
    if flag_value is not None:
        return flag_value
    default = CONFIG_DEFAULTS[name]
    if name in file_values:
        raw = file_values[name]
        try:
            return type(default)(raw)
        except ValueError as err:
            raise ConfigError(f"config key {name}: {err}") from err
    return default


class _Options:
    """Resolved option bag for one invocation."""

    def __init__(self, args: argparse.Namespace):
        file_values: dict[str, str] = {}
        if getattr(args, "config", None):
            path = Path(args.config)
            if not path.is_file():
                raise ConfigError(f"config file not found: {path}")
            file_values = parse_config_file(path.read_text())
        unknown = set(file_values) - set(CONFIG_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        self._args = args
        self._file_values = file_values

    def __getattr__(self, name: str):
        if name in CONFIG_DEFAULTS:
            return resolve_option(name, getattr(self._args, name, None), self._file_values)
        return getattr(self._args, name)

    def build(self, settings_class):
        """A settings dataclass filled from this invocation's resolved options."""
        return settings_class(**{f.name: getattr(self, f.name)
                                 for f in dataclasses.fields(settings_class)})


# ---------------------------------------------------------------------------
# IO helpers


def _read_manifest_file(path: Path) -> Manifest:
    if not path.is_file():
        raise ConfigError(f"manifest not found: {path}")
    return dataset.load_manifest(path.read_text())


def _resolve_entry_path(manifest_path: Path, entry_path: str) -> Path:
    p = Path(entry_path)
    return p if p.is_absolute() else manifest_path.parent / p


def _load_samples(manifest_path: Path, manifest: Manifest) -> list[LabeledSample]:
    samples = []
    for path, label, subject in manifest.entries:
        data = _resolve_entry_path(manifest_path, path).read_bytes()
        img = dataset.decode_pgm(data)
        samples.append(LabeledSample(img, manifest.label_index(label), subject))
    return samples


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
    opts = _Options(args)
    src = Path(args.directory)
    if not src.is_dir():
        raise ConfigError(f"not a directory: {src}")
    out = Path(opts.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for path in sorted(src.glob("*.pgm")):
        label_idx, subject = dataset.parse_jaffe_name(path.name, dataset.JAFFE_CLASS_NAMES)
        rows.append((str(path.resolve()), dataset.JAFFE_CLASS_NAMES[label_idx], subject))
    if not rows:
        raise ConfigError(f"no .pgm files with JAFFE-style names under {src}")
    _write_manifest_csv(out / "manifest.csv", rows, dataset.JAFFE_CLASS_NAMES)
    print(f"ingested {len(rows)} images -> {out / 'manifest.csv'}")
    return EXIT_OK


def cmd_synth(args) -> int:
    opts = _Options(args)
    out = Path(opts.out)
    images_dir = out / "images"
    images_dir.mkdir(parents=True, exist_ok=True)
    samples = dataset.generate_synthetic(args.classes, args.per_class, args.size, opts.seed)
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
    resized = preprocess.bilinear_resize(equalized.pixels, 48, 48)
    # Quantize now so stats are fitted on exactly what later stages reload.
    return GrayImage(np.rint(np.clip(resized, 0.0, 1.0) * 255.0) / 255.0)


def cmd_preprocess(args) -> int:
    opts = _Options(args)
    # NaN fails the comparison too; checked before any image is read.
    if not 0.0 < opts.split_fraction < 1.0:
        raise ConfigError(f"split_fraction must lie in (0, 1), got {opts.split_fraction}")
    manifest_path = Path(args.manifest)
    manifest = _read_manifest_file(manifest_path)
    if not manifest.entries:
        raise ConfigError("manifest has no entries")
    params = opts.build(preprocess.HomomorphicParams)
    out = Path(opts.out)
    images_dir = out / "images"
    images_dir.mkdir(parents=True, exist_ok=True)

    def process(entry):
        path, label, subject = entry
        try:
            img = dataset.decode_pgm(_resolve_entry_path(manifest_path, path).read_bytes())
        except (OSError, PgmError) as err:
            return entry, None, err
        return entry, _preprocess_one(img, params), None

    skipped = 0
    processed: list[tuple[tuple[str, str, str], GrayImage]] = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=max(1, opts.workers)) as pool:
        for entry, img, err in pool.map(process, manifest.entries):
            if err is not None:
                skipped += 1
                print(f"warning: skipping {entry[0]}: {err}", file=sys.stderr)
                continue
            processed.append((entry, img))

    rows = []
    samples = []
    for (path, label, subject), img in processed:
        name = Path(path).stem + ".pgm"
        (images_dir / name).write_bytes(dataset.encode_pgm(img))
        rows.append((f"images/{name}", label, subject))
        samples.append(LabeledSample(img, manifest.label_index(label), subject))
    _write_manifest_csv(out / "manifest.csv", rows, manifest.class_names)

    indexed = list(zip(samples, rows))
    train_part, test_part = dataset.split(
        samples, opts.split_fraction, opts.seed, by_subject=opts.split_mode == "subject"
    )
    train_ids = {id(s) for s in train_part}
    train_rows = [row for s, row in indexed if id(s) in train_ids]
    test_rows = [row for s, row in indexed if id(s) not in train_ids]
    _write_manifest_csv(out / "train.csv", train_rows, manifest.class_names)
    _write_manifest_csv(out / "test.csv", test_rows, manifest.class_names)

    normalized = [preprocess.normalize_per_image(s.image) for s in train_part]
    save_pixel_stats(out / "pixel_stats.bin", preprocess.fit_pixel_stats(normalized))
    print(f"preprocessed {len(processed)} images ({len(train_rows)} train / {len(test_rows)} test)")
    if skipped:
        print(f"error: {skipped} file(s) skipped", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_features(args) -> int:
    opts = _Options(args)
    manifest_path = Path(args.manifest)
    manifest = _read_manifest_file(manifest_path)
    out = Path(opts.out)
    out.mkdir(parents=True, exist_ok=True)

    samples = _load_samples(manifest_path, manifest)
    with concurrent.futures.ThreadPoolExecutor(max_workers=max(1, opts.workers)) as pool:
        descriptors = list(pool.map(lambda s: features.image_descriptor(s.image), samples))
    labels = [manifest.class_names[s.label] for s in samples]
    features.write_descriptor_csv(out / "descriptors.csv", descriptors, labels)
    print(f"wrote {len(descriptors)} descriptors -> {out / 'descriptors.csv'}")
    return EXIT_OK


def cmd_train(args) -> int:
    opts = _Options(args)
    cfg = opts.build(training.TrainConfig)
    if opts.max_epochs < 1:
        raise ConfigError("max_epochs must be at least 1 for training")
    if opts.profile not in ("cnn-fusion", "mlp-handcrafted"):
        raise ConfigError(f"unknown profile {opts.profile!r}")
    manifest_path = Path(args.train_manifest)
    manifest = _read_manifest_file(manifest_path)
    # The checkpoint stores class names as one ASCII, comma-separated line.
    unstorable = [n for n in manifest.class_names if not n.isascii() or "," in n or "\n" in n]
    if unstorable:
        raise ConfigError(f"class names {unstorable} cannot be stored in a checkpoint: "
                          "use ASCII names without commas or newlines")
    samples = _load_samples(manifest_path, manifest)
    if not samples:
        raise ConfigError("training manifest has no entries")
    # Checked even for the descriptor MLP, which pixel statistics do not touch.
    stats = load_pixel_stats(Path(args.stats)) if args.stats else None

    classes = len(manifest.class_names)
    if opts.profile == "cnn-fusion":
        arch = network.FusionArch(classes=classes, dropout_p=opts.dropout_p)
    else:
        arch = network.MlpArch(classes=classes, input_dim=features.IMAGE_DESCRIPTOR_LENGTH,
                               dropout_p=opts.dropout_p)
        stats = None
    model = network.init_model(arch, manifest.class_names, cfg.seed, dtype=np.float32)
    model.pixel_stats = stats
    out = Path(opts.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        model, log = training.train(model, samples, cfg, checkpoint_dir=out,
                                    checkpoint_every=args.checkpoint_every or 0)
    except training.NonFiniteLossError as err:
        network.save_checkpoint(out / "model.ckpt", model)
        getattr(err, "log", training.TrainLog()).write_csv(out / "train_log.csv")
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME

    network.save_checkpoint(out / "model.ckpt", model)
    log.write_csv(out / "train_log.csv")
    last = log.records[-1]
    print(f"trained {last.epoch} epoch(s), final loss {last.loss:.6f} -> {out / 'model.ckpt'}")
    return EXIT_OK


def _require_classes(model, manifest: Manifest, what: str) -> None:
    # A manifest label indexes the manifest's own class list.
    if model.class_names != manifest.class_names:
        raise ValueError(f"checkpoint classes {model.class_names} != {what} classes "
                         f"{manifest.class_names}")


def _predict(model, images, mode, gallery_manifest) -> list[tuple[int, float]]:
    """(label, score) per image: the label's softmax probability in multicrop
    mode, the distance to the nearest gallery entry in nearest-feature mode."""
    if mode == "multicrop":
        predictions = [evaluation.single_predict(model, img) for img in images]
        return [(label, float(probs[label])) for label, probs in predictions]
    if mode == "nearest-feature":
        if not gallery_manifest:
            raise ConfigError("nearest-feature mode needs --gallery-manifest")
        gpath = Path(gallery_manifest)
        gallery_entries = _read_manifest_file(gpath)
        _require_classes(model, gallery_entries, "gallery manifest")
        samples = _load_samples(gpath, gallery_entries)
        gallery = evaluation.build_gallery(model, [s.image for s in samples],
                                           [s.label for s in samples])
        return [evaluation.nearest_feature_predict(model, img, gallery) for img in images]
    raise ConfigError(f"unknown inference mode {mode!r}")


def cmd_eval(args) -> int:
    opts = _Options(args)
    manifest_path = Path(args.test_manifest)
    manifest = _read_manifest_file(manifest_path)

    if args.predictions:
        pred_rows = {}
        with open(args.predictions, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip() for c in header] != ["path", "predicted_label"]:
                raise ConfigError("predictions CSV must start with 'path,predicted_label'")
            for row in reader:
                if len(row) != 2:
                    raise ConfigError(f"bad prediction row {row!r}")
                pred_rows[row[0].strip()] = row[1].strip()
        true, pred = evaluation.evaluate_external_predictions(manifest, pred_rows)
        inference_mode = "external"
    else:
        if not args.checkpoint:
            raise ConfigError("eval needs --checkpoint or --predictions")
        model = network.load_checkpoint(Path(args.checkpoint))
        _require_classes(model, manifest, "manifest")
        samples = _load_samples(manifest_path, manifest)
        true = np.array([s.label for s in samples], dtype=np.int64)
        predictions = _predict(model, [s.image for s in samples], opts.inference_mode,
                               args.gallery_manifest)
        pred = np.array([label for label, _ in predictions], dtype=np.int64)
        inference_mode = opts.inference_mode

    protocol = {
        "split_mode": opts.split_mode,
        "seed": opts.seed,
        "inference_mode": inference_mode,
    }
    report, cm = evaluation.build_report(true, pred, manifest.class_names)
    # Made only now, so a refused checkpoint or gallery leaves no directory.
    out = Path(opts.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.json").write_text(evaluation.report_to_json(report, protocol))
    (out / "confusion.csv").write_text(evaluation.confusion_to_csv(cm, manifest.class_names))
    print(f"protocol: {protocol}")
    print(f"macro accuracy (one-vs-rest): {report.accuracy_ovr_macro:.4f}")
    print(f"trace accuracy: {report.accuracy_trace:.4f}")
    return EXIT_OK


def cmd_predict(args) -> int:
    opts = _Options(args)
    model = network.load_checkpoint(Path(args.checkpoint))
    img = dataset.decode_pgm(Path(args.image).read_bytes())
    if (img.height, img.width) != (48, 48):
        raise ConfigError(f"{args.image} is {img.width}x{img.height}, predict takes a 48x48 "
                          "image: run `microexpr preprocess` first")
    [(label, score)] = _predict(model, [img], opts.inference_mode, args.gallery_manifest)
    print(f"{model.class_names[label]} {score:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _add_setting(parser: argparse.ArgumentParser, key: str) -> None:
    parser.add_argument(f"--{key.replace('_', '-')}", type=type(CONFIG_DEFAULTS[key]),
                        default=None, dest=key)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microexpr", description="micro facial expression recognition pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build a manifest from JAFFE-named PGM files")
    p.add_argument("directory")
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a deterministic synthetic corpus")
    p.add_argument("--classes", type=int, default=7)
    p.add_argument("--per-class", type=int, default=10, dest="per_class")
    p.add_argument("--size", type=int, default=48)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="filter, equalize, resize, split, fit stats")
    p.add_argument("--manifest", required=True)
    for f in dataclasses.fields(preprocess.HomomorphicParams):
        _add_setting(p, f.name)
    p.add_argument("--split-mode", choices=("stratified", "subject"), default=None, dest="split_mode")
    _add_setting(p, "split_fraction")
    _add_common(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("features", help="dump handcrafted descriptors to CSV")
    p.add_argument("--manifest", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train a classifier")
    p.add_argument("--train-manifest", required=True, dest="train_manifest")
    p.add_argument("--stats", help="pixel statistics file from preprocess")
    p.add_argument("--profile", choices=("cnn-fusion", "mlp-handcrafted"), default=None)
    p.add_argument("--checkpoint-every", type=int, default=0, dest="checkpoint_every",
                   help="also write an epoch-tagged checkpoint every N epochs")
    for f in dataclasses.fields(training.TrainConfig):
        if f.name != "seed":  # one of the common flags
            _add_setting(p, f.name)
    _add_setting(p, "dropout_p")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or external predictions")
    p.add_argument("--test-manifest", required=True, dest="test_manifest")
    p.add_argument("--checkpoint")
    p.add_argument("--predictions", help="external path,predicted_label CSV (no model)")
    p.add_argument("--gallery-manifest", dest="gallery_manifest")
    p.add_argument("--inference-mode", choices=("multicrop", "nearest-feature"),
                   default=None, dest="inference_mode")
    p.add_argument("--split-mode", choices=("stratified", "subject"), default=None, dest="split_mode")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify one PGM image")
    p.add_argument("image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--gallery-manifest", dest="gallery_manifest")
    p.add_argument("--inference-mode", choices=("multicrop", "nearest-feature"),
                   default=None, dest="inference_mode")
    _add_common(p)
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PgmError, ManifestError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (training.NonFiniteLossError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
