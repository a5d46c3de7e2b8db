"""Evaluation: confusion matrices, the report computed from their counts
(per-class and macro metrics, accuracies and MAE over class indices), and
the two inference modes (averaged multi-crop softmax and nearest neighbor
in feature space).

Multiclass reduction is one-vs-rest per class.  0/0 ratios are defined as 0.
Two accuracies are reported side by side: plain trace accuracy and the
one-vs-rest macro average of (TP+TN)/total, which differ by construction.

Every public inference function takes a list of images and returns one
result per image.  Each runs the eval forward, whose row for an input is
that input's batch-1 bits at any batch size.  An image set goes through one
chunked helper, _eval_rows, GALLERY_CHUNK images per forward: the
nearest-feature gallery, and the softmax eval and nearest-feature queries of
descriptor models, whose 27 MB hidden weight is then read from memory once
per chunk rather than once per image (network._packed_rowwise).  Multicrop
forwards one image's ten views at a time, and fusion queries go one image
per forward (FUSION_QUERY_CHUNK).  Each query is matched against all gallery
rows with one distance reduction and an argmin, so ties go to the lowest
gallery index.  A numpy overflow or invalid value in an eval forward raises
the non-finite probability or distance error, not a warning.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .dataset import GrayImage, Manifest, ManifestError
from .network import ModelState, forward, model_dtype, softmax
from .preprocess import PREPARED_SIZE, require_prepared
from .training import model_input

# Images per eval forward of an image set: the gallery, descriptor-model
# softmax eval and descriptor-model nearest-feature queries.  Per image on
# the fusion CNN (280 images, one BLAS thread, 2-vCPU host): 16 rows
# 0.45-0.50 ms; 24 and 32 rows 0.49 ms in some runs and 0.73 ms in others;
# 64 rows 0.74 ms; one row 0.84 ms.  Forward per image of 21 descriptor
# rows into the mlp-handcrafted network (26300x256 float32 hidden weight,
# medians of 7 interleaved rounds): 16 rows 1.83 ms, one row 2.64 ms, one
# chunk of all 21 rows 1.49 ms.
GALLERY_CHUNK = 16

# Fusion nearest-feature queries go one image per forward.  That forward is
# the only batch-1 eval forward of the fusion benchmark workload, which
# times it as network.forward.b1_ms (bench/README.md); chunking the queries
# would leave that figure without a measurement.
FUSION_QUERY_CHUNK = 1

PROBS_ERROR = "non-finite class probabilities from the checkpoint"
DISTANCE_ERROR = "non-finite distance between the query and gallery features"


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
    """The metrics.json figures, in file order."""

    accuracy_trace: float
    accuracy_ovr_macro: float
    mae: float
    per_class: tuple[ClassMetrics, ...]
    macro: dict[str, float]


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
    sensitivity and specificity applied literally; 0/0 is defined as 0.
    MAE is the count-weighted |true - predicted| index sum over the total."""
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
        sensitivity = recall
        specificity = _ratio(tn, fp + tn)
        per_class.append(
            ClassMetrics(class_names[k], precision, recall, f_measure, sensitivity, specificity)
        )
        ovr_accuracies.append((tp + tn) / total)

    # Every ClassMetrics field after the name, averaged over the classes.
    macro = {f.name: float(np.mean([getattr(m, f.name) for m in per_class]))
             for f in fields(ClassMetrics)[1:]}
    return MetricsReport(
        accuracy_trace=float(np.trace(counts) / total),
        accuracy_ovr_macro=float(np.mean(ovr_accuracies)),
        # An exact integer sum divided once: the bits of mean(|true - pred|) on the labels.
        mae=float((counts * np.abs(np.subtract(*np.indices(counts.shape)))).sum() / total),
        per_class=tuple(per_class),
        macro=macro,
    )


# ---------------------------------------------------------------------------
# Inference


def _view_origins(px: np.ndarray, window: int) -> tuple[tuple[int, int], ...]:
    """Top-left (y, x) of the five window x window test views of a 48x48
    image: the four corners, then the center."""
    require_prepared(px.shape, "image")
    margin = PREPARED_SIZE - window
    center = margin // 2
    return ((0, 0), (0, margin), (margin, 0), (margin, margin), (center, center))


def multicrop_batch(px: np.ndarray, window: int) -> np.ndarray:
    """The ten window x window test views of a 48x48 image: the five of
    _view_origins, then the same five mirrored; shape (10, window, window)."""
    crops = [px[y : y + window, x : x + window] for y, x in _view_origins(px, window)]
    crops += [c[:, ::-1] for c in crops]
    return np.stack(crops)


def _decide(probs: np.ndarray) -> tuple[int, np.ndarray]:
    """(argmax, probs), ties to the lowest class; non-finite probs raise."""
    if not np.isfinite(probs).all():
        raise ValueError(PROBS_ERROR)
    return int(np.argmax(probs)), probs


@contextlib.contextmanager
def _finite(error: str):
    """Run numpy with overflow, invalid values and division by zero raising,
    and report them as ValueError(error) instead of a RuntimeWarning: a
    checkpoint whose learning rate blew up holds finite weights that
    overflow in a forward."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError:
        raise ValueError(error) from None


def multicrop_predict(model: ModelState, images: list[GrayImage]) -> list[tuple[int, np.ndarray]]:
    """(label, probs) per image: the softmax averaged over the image's ten
    crop views, one image's views per forward.  Defined for the fusion
    architecture."""
    if model.arch.kind != "fusion":
        raise ValueError("multicrop prediction requires the fusion architecture")
    window, dtype = model.arch.input_size, model_dtype(model)
    probs = []
    with _finite(PROBS_ERROR):
        for img in images:
            views = multicrop_batch(model_input(model, img), window).astype(dtype, copy=False)
            probs.append(softmax(forward(model, views, "eval")[0]).mean(axis=0))
    return [_decide(p) for p in probs]


def _eval_rows(model: ModelState, images: list[GrayImage],
               chunk: int) -> tuple[np.ndarray, np.ndarray]:
    """(logits, features), one row per image, of the eval forward of each
    image's model_input, cropped to the center view (view 4 of
    multicrop_batch) for the fusion CNN; `chunk` images per forward.  Row i
    is the bits of images[i] forwarded alone."""
    dtype = model_dtype(model)
    window = model.arch.input_size if model.arch.kind == "fusion" else None
    logits = np.empty((len(images), model.arch.classes), dtype=dtype)
    features = np.empty((len(images), model.arch.feature_dim), dtype=dtype)
    for start in range(0, len(images), chunk):
        batch = np.stack([model_input(model, img) for img in images[start : start + chunk]])
        if window is not None:  # model_input checked every image's shape
            y, x = _view_origins(batch[0], window)[4]
            batch = batch[:, y : y + window, x : x + window]
        rows = slice(start, start + len(batch))
        logits[rows], features[rows] = forward(model, np.ascontiguousarray(batch, dtype), "eval")[:2]
    return logits, features


def extract_features(model: ModelState, images: list[GrayImage]) -> np.ndarray:
    """(N, F) eval-mode feature vectors of the images, GALLERY_CHUNK per
    forward: the representation the nearest-feature rule compares."""
    with _finite(DISTANCE_ERROR):
        return _eval_rows(model, images, GALLERY_CHUNK)[1]


def nearest_feature_predict(
    model: ModelState, images: list[GrayImage], gallery: tuple[np.ndarray, np.ndarray]
) -> list[tuple[int, float]]:
    """(label, distance) per image.  The gallery is (extract_features of the
    gallery images, one label per row); the row L2-closest to the image's
    features gives the label, and ties break to the lowest gallery index.
    A non-finite distance raises ValueError."""
    gallery_features, gallery_labels = gallery
    if len(gallery_features) == 0:
        raise ValueError("empty gallery")
    if gallery_features.shape[1:] != (model.arch.feature_dim,):
        raise ValueError("gallery feature dimension mismatch")
    if np.shape(gallery_labels) != (len(gallery_features),):
        raise ValueError("need one gallery label per gallery row")
    chunk = FUSION_QUERY_CHUNK if model.arch.kind == "fusion" else GALLERY_CHUNK
    predictions = []
    with _finite(DISTANCE_ERROR):
        for feat in _eval_rows(model, images, chunk)[1]:
            # The same reduction as np.linalg.norm of one row, bit for bit.
            diff = feat - gallery_features
            dists = np.sqrt(np.vecdot(diff, diff))
            if not np.isfinite(dists).all():
                raise ValueError(DISTANCE_ERROR)
            best = int(np.argmin(dists))
            predictions.append((int(gallery_labels[best]), float(dists[best])))
    return predictions


def single_predict(model: ModelState, images: list[GrayImage]) -> list[tuple[int, np.ndarray]]:
    """Plain eval-mode softmax prediction, (label, probs) per image:
    multicrop_predict for the fusion CNN; descriptor models have no crop
    geometry and go GALLERY_CHUNK images per forward."""
    if model.arch.kind == "fusion":
        return multicrop_predict(model, images)
    with _finite(PROBS_ERROR):
        logits, _ = _eval_rows(model, images, GALLERY_CHUNK)
        # Softmax row by row, each the (1, classes) softmax of a one-image call.
        probs = [softmax(row[None])[0] for row in logits]
    return [_decide(p) for p in probs]


# ---------------------------------------------------------------------------
# Reports


def report_to_json(report: MetricsReport, protocol: dict[str, object]) -> str:
    """metrics.json: the report's fields in order, then the protocol."""
    return json.dumps({**asdict(report), "protocol": protocol}, indent=2) + "\n"


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
