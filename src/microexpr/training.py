"""Training recipe: augmentation, joint cross-entropy + center loss, SGD with
momentum and a plateau learning-rate schedule, over every tensor of the model.

train is the one entry for both architectures, over train_on_rows for fixed
rows.  Optimizer velocity starts at zero in each call; no checkpoint holds it.

Determinism: shuffling, per-sample augmentation and dropout each draw from
named substreams of the run seed.  A sample's augmentation stream is keyed by
epoch * dataset_size + original index, so batch order cannot change results.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import GrayImage, LabeledSample
from .features import image_descriptor, require_croppable
from .network import ModelState, backward, forward, model_dtype, save_checkpoint, softmax
from .preprocess import (
    PREPARED_SIZE,
    _bilinear_sample,
    apply_pixel_stats,
    normalize_per_image,
    require_finite_fields,
    require_prepared,
    rotate_bilinear,
)
from .rng import STREAM_AUGMENT, STREAM_DROPOUT, STREAM_SHUFFLE, substream

AUGMENT_MAX_ANGLE = 45.0

# A plateau means no absolute improvement of at least this much over the best
# epoch loss; the learning rate is dropped at most MAX_LR_DROPS times.
PLATEAU_MIN_IMPROVEMENT = 1e-4
MAX_LR_DROPS = 5

# sgd_momentum_step's block: 256 KB of float32, so a block of velocity,
# gradient and parameters stays in cache across the operations on it.
SGD_BLOCK = 1 << 16


class NonFiniteLossError(RuntimeError):
    """Training hit a non-finite loss or gradient, or a floating-point overflow,
    invalid value or division by zero; the model was rolled back to the last
    completed epoch."""


@dataclass(frozen=True)
class TrainConfig:
    # lambda_center default: the center term is a batch sum while the cross
    # entropy is a batch mean, so weights much above ~1e-4 let the center
    # pull dominate at batch size 256 and collapse the features to zero.
    batch_size: int = 256
    momentum: float = 0.9
    lr: float = 0.01
    lr_drop_factor: float = 10.0
    plateau_patience: int = 10
    max_epochs: int = 1400
    lambda_center: float = 1e-4
    alpha_center: float = 0.5
    loss_epsilon: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        require_finite_fields(self)
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0,1)")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.lr_drop_factor <= 1.0:
            raise ValueError("lr_drop_factor must exceed 1")
        if self.plateau_patience < 1:
            raise ValueError("plateau_patience must be at least 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be non-negative")
        if self.lambda_center < 0:
            raise ValueError("lambda_center must be non-negative")
        if not 0.0 < self.alpha_center <= 1.0:
            raise ValueError("alpha_center must lie in (0,1]")
        if self.loss_epsilon <= 0:
            raise ValueError("loss_epsilon must be positive")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    loss: float
    ce: float
    center: float
    lr: float
    seconds: float


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)

    def losses(self) -> list[float]:
        return [r.loss for r in self.records]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "loss", "ce", "center", "lr", "seconds"])
            for r in self.records:
                writer.writerow([r.epoch, repr(r.loss), repr(r.ce), repr(r.center), repr(r.lr), f"{r.seconds:.3f}"])


# ---------------------------------------------------------------------------
# Augmentation


@dataclass(frozen=True)
class AugmentParams:
    mirror: bool
    angle_deg: float
    size: int
    crop_y: int
    crop_x: int


def draw_augment_params(rng, window: int) -> AugmentParams:
    """Sample the transform chain: mirror coin, rotation angle, rescale size
    in [window, 2 * PREPARED_SIZE - window], then the crop offsets (whose
    range depends on the size)."""
    mirror = bool(rng.random() < 0.5)
    angle = float(rng.uniform(-AUGMENT_MAX_ANGLE, AUGMENT_MAX_ANGLE))
    size = int(rng.integers(window, 2 * PREPARED_SIZE - window + 1))
    max_off = size - window
    crop_y = int(rng.integers(0, max_off + 1))
    crop_x = int(rng.integers(0, max_off + 1))
    return AugmentParams(mirror, angle, size, crop_y, crop_x)


def _resize_sources(size: int, start: int, window: int):
    """(coordinates, source range) of output positions start .. start+window-1
    of bilinear_resize from PREPARED_SIZE to size: the clamped coordinates it
    samples at, relative to the first source row or column its taps read."""
    src = (np.arange(start, start + window, dtype=np.float64) + 0.5) \
        * (PREPARED_SIZE / size) - 0.5
    src = np.clip(src, 0.0, PREPARED_SIZE - 1.0)
    lo, hi = int(src[0]), min(int(src[-1]) + 1, PREPARED_SIZE - 1)
    return src - lo, range(lo, hi + 1)  # exact: lo is an integer at or below each one


def apply_augment(img: GrayImage, p: AugmentParams, window: int) -> GrayImage:
    """Mirror, rotate (bilinear, edge fill), rescale to size x size (bilinear),
    crop to the window x window network input, in that order.

    Only the crop is computed: the rotation covers the source rows and
    columns the crop's resize taps read, and the same bilinear sampling
    reads them, so every pixel is the same bits as the whole chain's."""
    require_prepared(img.pixels.shape, "image")
    px = img.pixels[:, ::-1] if p.mirror else img.pixels
    rows = range(p.crop_y, p.crop_y + window)
    cols = range(p.crop_x, p.crop_x + window)
    if p.size == PREPARED_SIZE:  # bilinear_resize copies at its own size
        return GrayImage(rotate_bilinear(px, p.angle_deg, rows, cols))
    ys, rows = _resize_sources(p.size, p.crop_y, window)
    xs, cols = _resize_sources(p.size, p.crop_x, window)
    rotated = rotate_bilinear(px, p.angle_deg, rows, cols)
    return GrayImage(_bilinear_sample(rotated, ys[:, None], xs[None, :]))


# ---------------------------------------------------------------------------
# Losses and updates


def cross_entropy(probs: np.ndarray, onehot: np.ndarray) -> float:
    """Mean negative log-likelihood; log is clamped at 1e-12."""
    if probs.shape != onehot.shape:
        raise ValueError(f"probs shape {probs.shape} != labels shape {onehot.shape}")
    clamped = np.maximum(probs, 1e-12)
    return float(-(onehot * np.log(clamped)).sum() / probs.shape[0])


def cross_entropy_grad_logits(probs: np.ndarray, onehot: np.ndarray) -> np.ndarray:
    """Gradient of the mean cross entropy w.r.t. logits, softmax fused."""
    return (probs - onehot) / probs.shape[0]


def center_loss(
    features: np.ndarray, labels: np.ndarray, centers: np.ndarray
) -> tuple[float, np.ndarray]:
    """Half the summed squared distance of each feature to its class center;
    also returns d(loss)/d(features)."""
    if features.shape[1] != centers.shape[1]:
        raise ValueError("feature width does not match centers")
    if labels.max(initial=-1) >= centers.shape[0]:
        raise ValueError("label out of range for centers")
    diffs = features - centers[labels]
    return 0.5 * float((diffs * diffs).sum()), diffs


def update_centers(
    centers: np.ndarray, features: np.ndarray, labels: np.ndarray, alpha: float
) -> np.ndarray:
    """Move each class center toward its batch members:
    c_j <- c_j - alpha * sum(c_j - x_i) / (1 + n_j).  Absent classes keep."""
    out = centers.copy()
    for j in np.unique(labels):
        members = features[labels == j]
        delta = (out[j] - members).sum(axis=0) / (1.0 + len(members))
        out[j] = out[j] - alpha * delta
    return out


def sgd_momentum_step(
    params: dict[str, np.ndarray],
    velocity: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr: float,
    mu: float,
) -> None:
    """Heavy-ball update in place: v <- mu*v + g; p <- p - lr*v.

    Updates every tensor in grads, each C-contiguous, in SGD_BLOCK-element
    blocks through one block-sized scratch array, and leaves grads untouched.
    A block is checked finite before it is applied, so the raise can leave
    the named tensor partly updated; the epoch rollback in train restores it."""
    for name, grad in grads.items():
        p, v, g = params[name].reshape(-1), velocity[name].reshape(-1), grad.reshape(-1)
        scratch = np.empty(min(v.size, SGD_BLOCK), dtype=v.dtype)
        for start in range(0, v.size, SGD_BLOCK):
            g_blk, v_blk = g[start : start + SGD_BLOCK], v[start : start + SGD_BLOCK]
            if not np.isfinite(g_blk).all():
                raise NonFiniteLossError(f"non-finite gradient in {name}")
            v_blk *= mu
            v_blk += g_blk
            p[start : start + SGD_BLOCK] -= np.multiply(v_blk, lr, out=scratch[: v_blk.size])


def lr_schedule(log: TrainLog, cfg: TrainConfig) -> float:
    """Replay the plateau rule over the logged losses: after plateau_patience
    consecutive epochs without improving the best loss by at least 1e-4, the
    rate divides by lr_drop_factor, at most MAX_LR_DROPS times."""
    lr = cfg.lr
    best = float("inf")
    stall = 0
    drops = 0
    for loss in log.losses():
        if loss < best - PLATEAU_MIN_IMPROVEMENT:
            best = loss
            stall = 0
        else:
            stall += 1
            if stall >= cfg.plateau_patience and drops < MAX_LR_DROPS:
                lr /= cfg.lr_drop_factor
                drops += 1
                stall = 0
    return lr


# ---------------------------------------------------------------------------
# Training driver


def require_model_image(kind: str, shape) -> None:
    """The images an architecture kind takes: the fusion CNN a prepared
    image, the descriptor MLP any image of at least 3x3."""
    if kind == "fusion":
        require_prepared(shape, "image")
    else:
        require_croppable(shape)


def model_input(model: ModelState, img: GrayImage) -> np.ndarray:
    """What the network is fed for one image, in training and at inference.
    The descriptor MLP takes the descriptor of the image as loaded (pixel
    statistics do not apply to it).  The fusion CNN takes a prepared image,
    normalized per image, then by the model's stored per-pixel statistics
    when present."""
    require_model_image(model.arch.kind, img.pixels.shape)
    if model.arch.kind != "fusion":
        return image_descriptor(img)
    out = normalize_per_image(img)
    if model.pixel_stats is not None:
        out = apply_pixel_stats(out, model.pixel_stats)
    return out.pixels


def _run_epochs(model, make_batch, labels, cfg,
                checkpoint_every=0, checkpoint_dir=None) -> TrainLog:
    """Shared epoch loop: shuffle, batch, joint loss, SGD step, center update.
    make_batch(epoch, indices) produces the network input for those samples.
    With checkpoint_every > 0, an epoch-tagged checkpoint lands in
    checkpoint_dir, created when the first one is written, every that many
    epochs."""
    n = len(labels)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= model.arch.classes:
        raise ValueError("label out of range for model classes")
    eye = np.eye(model.arch.classes, dtype=model_dtype(model))
    log = TrainLog()
    # The rollback snapshot reuses its buffers every epoch.
    velocity = {k: np.zeros_like(p) for k, p in model.params.items()}
    saved = {k: np.empty_like(p) for k, p in model.params.items()}
    saved_centers = np.empty_like(model.centers)

    for epoch in range(1, cfg.max_epochs + 1):
        started = time.perf_counter()
        for k, buf in saved.items():
            np.copyto(buf, model.params[k])
        np.copyto(saved_centers, model.centers)
        lr = lr_schedule(log, cfg)
        order = substream(cfg.seed, STREAM_SHUFFLE, epoch).permutation(n)

        loss_sum = 0.0
        ce_sum = 0.0
        center_sum = 0.0
        try:
            # The first overflow, invalid value or division by zero raises, not warns.
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                for start in range(0, n, cfg.batch_size):
                    idx = order[start : start + cfg.batch_size]
                    batch = make_batch(epoch, idx)
                    drop_rng = substream(cfg.seed, STREAM_DROPOUT, epoch, start)
                    logits, feats, cache = forward(model, batch, "train", drop_rng)
                    probs = softmax(logits)
                    onehot = eye[labels[idx]]
                    ce = cross_entropy(probs, onehot)
                    c_loss, dfeat = center_loss(feats, labels[idx], model.centers)
                    batch_loss = ce + cfg.lambda_center * c_loss
                    if not np.isfinite(batch_loss):
                        raise NonFiniteLossError(f"non-finite loss in epoch {epoch}")
                    grads = backward(
                        model, cache, cross_entropy_grad_logits(probs, onehot),
                        cfg.lambda_center * dfeat,
                    )
                    sgd_momentum_step(model.params, velocity, grads, lr, cfg.momentum)
                    model.centers = update_centers(
                        model.centers, feats, labels[idx], cfg.alpha_center
                    )
                    loss_sum += batch_loss * len(idx)
                    ce_sum += ce * len(idx)
                    center_sum += c_loss * len(idx)
        except (NonFiniteLossError, FloatingPointError) as err:
            for k, buf in saved.items():
                np.copyto(model.params[k], buf)
            model.centers = saved_centers
            if isinstance(err, FloatingPointError):
                err = NonFiniteLossError(f"non-finite value in epoch {epoch}: {err}")
            err.log = log
            raise err from None

        epoch_loss = loss_sum / n
        log.records.append(
            EpochRecord(epoch, epoch_loss, ce_sum / n, center_sum / n, lr,
                        time.perf_counter() - started)
        )
        if checkpoint_every > 0 and checkpoint_dir is not None and epoch % checkpoint_every == 0:
            os.makedirs(checkpoint_dir, exist_ok=True)
            save_checkpoint(f"{checkpoint_dir}/model_epoch{epoch}.ckpt", model)
        if epoch_loss < cfg.loss_epsilon:
            break
    return log


def train(
    model: ModelState,
    samples: list[LabeledSample],
    cfg: TrainConfig,
    checkpoint_every: int = 0,
    checkpoint_dir=None,
) -> tuple[ModelState, TrainLog]:
    """Minimize CE + lambda * center loss with shuffled mini-batches until the
    mean epoch loss falls below loss_epsilon or max_epochs is reached.

    Each sample becomes its model_input once: a descriptor model trains on
    those rows through train_on_rows, the fusion CNN on 48x48 images that it
    re-augments every epoch, short final batch included.  On a non-finite loss
    or a floating-point error the last completed epoch is restored and NonFiniteLossError raised with
    the log so far attached.
    """
    if not samples:
        raise ValueError("empty training set")
    prepared = np.stack([model_input(model, s.image) for s in samples])
    labels = np.array([s.label for s in samples], dtype=np.int64)
    if model.arch.kind != "fusion":
        return train_on_rows(model, prepared, labels, cfg, checkpoint_every, checkpoint_dir)
    n = len(samples)
    dtype = model_dtype(model)
    window = model.arch.input_size

    def make_batch(epoch, idx):
        return np.stack(
            [
                apply_augment(
                    GrayImage(prepared[i]),
                    draw_augment_params(
                        substream(cfg.seed, STREAM_AUGMENT, epoch * n + int(i)), window
                    ),
                    window,
                ).pixels
                for i in idx
            ]
        ).astype(dtype, copy=False)

    log = _run_epochs(model, make_batch, labels, cfg, checkpoint_every, checkpoint_dir)
    return model, log


def train_on_rows(
    model: ModelState,
    rows: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
    checkpoint_every: int = 0,
    checkpoint_dir=None,
) -> tuple[ModelState, TrainLog]:
    """The layer under train: the same recipe over fixed (n, d) input rows,
    such as descriptors, which the augmentation chain does not apply to."""
    if rows.ndim != 2 or len(rows) != len(labels) or not len(rows):
        raise ValueError("rows must be a nonempty (n, d) array matching labels")
    labels = np.asarray(labels, dtype=np.int64)
    rows = rows.astype(model_dtype(model), copy=False)

    def make_batch(epoch, idx):
        return rows[idx]

    log = _run_epochs(model, make_batch, labels, cfg, checkpoint_every, checkpoint_dir)
    return model, log

