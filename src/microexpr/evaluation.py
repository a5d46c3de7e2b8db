"""Evaluation: confusion matrices, per-class and macro metrics, MAE over
class indices, and the two inference modes (averaged multi-crop softmax and
nearest neighbor in feature space).

Multiclass reduction is one-vs-rest per class.  0/0 ratios are defined as 0.
Two accuracies are reported side by side: plain trace accuracy and the
one-vs-rest macro average of (TP+TN)/total, which differ by construction.

Nearest-feature inference builds its gallery once, as an (N, F) feature
matrix from eval-rowwise forwards of GALLERY_CHUNK images each; every row is
the same bits as that image's batch-1 extract_features.  Each query is
forwarded at batch 1 and matched against all rows with one distance
reduction and an argmin, so ties go to the lowest gallery index.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, replace

import numpy as np

from .dataset import GrayImage, Manifest, ManifestError
from .network import ModelState, forward, model_dtype, softmax
from .training import model_input

MULTICROP_SOURCE = 48
MULTICROP_WINDOW = 42
# Gallery rows per forward in build_gallery.  Per image on the fusion CNN
# (280 images, one BLAS thread, 2-vCPU host): 16 rows 0.45-0.50 ms; 24 and
# 32 rows 0.49 ms in some runs and 0.73 ms in others; 64 rows 0.74 ms; one
# row 0.84 ms.
GALLERY_CHUNK = 16


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """counts[t][p] = samples of true class t predicted as p."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError("confusion matrix must be square")
        if np.any(counts < 0):
            raise ValueError("confusion counts must be non-negative")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class ClassMetrics:
    name: str
    precision: float
    recall: float
    f_measure: float
    sensitivity: float
    specificity: float


@dataclass(frozen=True)
class MetricsReport:
    per_class: tuple[ClassMetrics, ...]
    macro: dict[str, float]
    accuracy_trace: float
    accuracy_ovr_macro: float
    mae: float | None = None


def confusion(true: np.ndarray, pred: np.ndarray, classes: int) -> ConfusionMatrix:
    true = np.asarray(true, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    if true.shape != pred.shape or true.ndim != 1:
        raise ValueError("true/pred must be equal-length 1-D label vectors")
    for name, vec in (("true", true), ("pred", pred)):
        if vec.size and (vec.min() < 0 or vec.max() >= classes):
            raise ValueError(f"{name} label out of range [0,{classes})")
    counts = np.zeros((classes, classes), dtype=np.int64)
    np.add.at(counts, (true, pred), 1)
    return ConfusionMatrix(counts)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def metrics(cm: ConfusionMatrix, class_names: tuple[str, ...] | None = None) -> MetricsReport:
    """One-vs-rest TP/FP/FN/TN per class, then precision, recall, F-measure,
    sensitivity and specificity applied literally; 0/0 is defined as 0."""
    counts = cm.counts
    total = cm.total
    if total == 0:
        raise ValueError("empty confusion matrix")
    classes = counts.shape[0]
    if class_names is None:
        class_names = tuple(f"class_{k}" for k in range(classes))
    if len(class_names) != classes:
        raise ValueError("class_names length mismatch")

    per_class: list[ClassMetrics] = []
    ovr_accuracies: list[float] = []
    for k in range(classes):
        tp = float(counts[k, k])
        fp = float(counts[:, k].sum() - counts[k, k])
        fn = float(counts[k, :].sum() - counts[k, k])
        tn = float(total - tp - fp - fn)
        precision = _ratio(tp, tp + fp)
        recall = _ratio(tp, tp + fn)
        f_measure = _ratio(2.0 * precision * recall, precision + recall)
        sensitivity = _ratio(tp, tp + fn)
        specificity = _ratio(tn, fp + tn)
        per_class.append(
            ClassMetrics(class_names[k], precision, recall, f_measure, sensitivity, specificity)
        )
        ovr_accuracies.append((tp + tn) / total)

    macro = {
        "precision": float(np.mean([m.precision for m in per_class])),
        "recall": float(np.mean([m.recall for m in per_class])),
        "f_measure": float(np.mean([m.f_measure for m in per_class])),
        "sensitivity": float(np.mean([m.sensitivity for m in per_class])),
        "specificity": float(np.mean([m.specificity for m in per_class])),
    }
    return MetricsReport(
        per_class=tuple(per_class),
        macro=macro,
        accuracy_trace=float(np.trace(counts) / total),
        accuracy_ovr_macro=float(np.mean(ovr_accuracies)),
    )


def mae(true, pred) -> float:
    """Mean absolute difference of class indices under the canonical order."""
    true = np.asarray(true, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if true.shape != pred.shape or true.size == 0:
        raise ValueError("need equal-length nonempty label vectors")
    return float(np.abs(true - pred).mean())


# ---------------------------------------------------------------------------
# Inference


def _check_source(px: np.ndarray) -> None:
    if px.shape != (MULTICROP_SOURCE, MULTICROP_SOURCE):
        raise ValueError(f"expected {MULTICROP_SOURCE}x{MULTICROP_SOURCE} image")


def multicrop_batch(px: np.ndarray) -> np.ndarray:
    """The ten 42x42 test views of a 48x48 image: four corners plus center,
    then the same five mirrored; shape (10, 42, 42)."""
    _check_source(px)
    margin = MULTICROP_SOURCE - MULTICROP_WINDOW
    center = margin // 2
    offsets = ((0, 0), (0, margin), (margin, 0), (margin, margin), (center, center))
    crops = [px[y : y + MULTICROP_WINDOW, x : x + MULTICROP_WINDOW] for y, x in offsets]
    crops += [c[:, ::-1] for c in crops]
    return np.stack(crops)


def _decide(probs: np.ndarray) -> tuple[int, np.ndarray]:
    """(argmax, probs), ties to the lowest class; non-finite probs raise."""
    if not np.isfinite(probs).all():
        raise ValueError("non-finite class probabilities from the checkpoint")
    return int(np.argmax(probs)), probs


def multicrop_predict(model: ModelState, img: GrayImage) -> tuple[int, np.ndarray]:
    """Average the softmax over the ten crop views.  Defined for the fusion
    architecture."""
    if model.arch.kind != "fusion":
        raise ValueError("multicrop prediction requires the fusion architecture")
    views = multicrop_batch(model_input(model, img)).astype(model_dtype(model))
    logits, _, _ = forward(model, views, "eval")
    return _decide(softmax(logits).mean(axis=0))


def _feature_input(model: ModelState, img: GrayImage) -> np.ndarray:
    """The center crop (view 4 of multicrop_batch) for the fusion CNN, the
    whole descriptor row for descriptor models."""
    x = model_input(model, img)
    if model.arch.kind != "fusion":
        return x
    _check_source(x)
    start = (MULTICROP_SOURCE - MULTICROP_WINDOW) // 2
    return x[start : start + MULTICROP_WINDOW, start : start + MULTICROP_WINDOW]


def extract_features(model: ModelState, img: GrayImage) -> np.ndarray:
    """Eval-mode feature vector of one image, forwarded at batch 1: the
    representation the nearest-feature rule compares."""
    batch = _feature_input(model, img)[None].astype(model_dtype(model))
    _, features, _ = forward(model, batch, "eval")
    return features[0]


def build_gallery(
    model: ModelState, images: list[GrayImage], labels
) -> tuple[np.ndarray, np.ndarray]:
    """(features, labels): the (N, F) feature matrix of the gallery images,
    forwarded GALLERY_CHUNK rows at a time, and their (N,) int64 labels.
    An eval-rowwise forward is batch-invariant, so row i is extract_features
    of images[i], bit for bit."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (len(images),):
        raise ValueError("need one gallery label per gallery image")
    dtype = model_dtype(model)
    features = np.empty((len(images), model.arch.feature_dim), dtype=dtype)
    for start in range(0, len(images), GALLERY_CHUNK):
        chunk = images[start : start + GALLERY_CHUNK]
        batch = np.stack([_feature_input(model, img) for img in chunk]).astype(dtype)
        features[start : start + len(chunk)] = forward(model, batch, "eval-rowwise")[1]
    return features, labels


def nearest_feature_predict(
    model: ModelState, img: GrayImage, gallery: tuple[np.ndarray, np.ndarray]
) -> tuple[int, float]:
    """(label, distance) of the build_gallery row that is L2-closest to the
    input's features; ties break to the lowest gallery index.  A non-finite
    distance raises ValueError."""
    gallery_features, gallery_labels = gallery
    if len(gallery_features) == 0:
        raise ValueError("empty gallery")
    feat = extract_features(model, img)
    if gallery_features.shape[1:] != feat.shape:
        raise ValueError("gallery feature dimension mismatch")
    # The same reduction as np.linalg.norm of one row, bit for bit.
    diff = feat - gallery_features
    dists = np.sqrt(np.vecdot(diff, diff))
    if not np.isfinite(dists).all():
        raise ValueError("non-finite distance between the query and gallery features")
    best = int(np.argmin(dists))
    return int(gallery_labels[best]), float(dists[best])


def single_predict(model: ModelState, img: GrayImage) -> tuple[int, np.ndarray]:
    """Plain eval-mode softmax prediction (descriptor models have no crop
    geometry, so this is their softmax inference)."""
    if model.arch.kind == "fusion":
        return multicrop_predict(model, img)
    row = model_input(model, img)[None, :]
    logits, _, _ = forward(model, row.astype(model_dtype(model)), "eval")
    return _decide(softmax(logits)[0])


# ---------------------------------------------------------------------------
# Reports


def build_report(
    true, pred, class_names: tuple[str, ...]
) -> tuple[MetricsReport, ConfusionMatrix]:
    cm = confusion(true, pred, len(class_names))
    return replace(metrics(cm, class_names), mae=mae(true, pred)), cm


def report_to_json(report: MetricsReport, protocol: dict[str, object]) -> str:
    payload = {
        "accuracy_trace": report.accuracy_trace,
        "accuracy_ovr_macro": report.accuracy_ovr_macro,
        "mae": report.mae,
        "per_class": [
            {
                "name": m.name,
                "precision": m.precision,
                "recall": m.recall,
                "f_measure": m.f_measure,
                "sensitivity": m.sensitivity,
                "specificity": m.specificity,
            }
            for m in report.per_class
        ],
        "macro": report.macro,
        "protocol": protocol,
    }
    return json.dumps(payload, indent=2) + "\n"


def confusion_to_csv(cm: ConfusionMatrix, class_names: tuple[str, ...]) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["true"] + list(class_names))
    for k, name in enumerate(class_names):
        writer.writerow([name] + [int(v) for v in cm.counts[k]])
    return out.getvalue()


def evaluate_external_predictions(
    manifest: Manifest, predictions: dict[str, str]
) -> tuple[np.ndarray, np.ndarray]:
    """Match a {path: predicted label name} table against a manifest; returns
    (true, pred) index vectors in manifest order."""
    true: list[int] = []
    pred: list[int] = []
    for path, label, _ in manifest.entries:
        if path not in predictions:
            raise ManifestError(f"no prediction for {path!r}")
        name = predictions[path]
        if name not in manifest.class_names:
            raise ManifestError(f"predicted label {name!r} not in manifest classes")
        true.append(manifest.label_index(label))
        pred.append(manifest.label_index(name))
    return np.asarray(true, dtype=np.int64), np.asarray(pred, dtype=np.int64)
