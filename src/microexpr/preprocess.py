"""Image conditioning: adaptive homomorphic filtering, histogram equalization,
per-image and per-pixel normalization, plus shared bilinear geometry helpers.

Pipeline order is fixed: homomorphic filter, then histogram equalization;
at training time, per-image normalization followed by per-pixel statistics
fitted on the training split only.  Test images must reuse the training
PixelStats, never refit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .dataset import GrayImage

# Side of every prepared image: preprocess writes, training augments and
# inference crops PREPARED_SIZE x PREPARED_SIZE images.
PREPARED_SIZE = 48
# Offset added before the log transform so black pixels stay finite.
LOG_DELTA = 1.0 / 255.0
PER_IMAGE_EPSILON = 1e-6


def require_prepared(shape, what: str) -> None:
    """The one prepared-shape rule: `what` (an image, or pixel statistics
    fitted on images) must be PREPARED_SIZE x PREPARED_SIZE."""
    if shape != (PREPARED_SIZE, PREPARED_SIZE):
        raise ValueError(f"{what} of shape {shape}; prepared images are {PREPARED_SIZE}x"
                         f"{PREPARED_SIZE}, as `microexpr preprocess` writes them")


def require_finite_fields(config) -> None:
    """Refuse NaN and infinite float fields, which slip past every `x < 0`
    style range check."""
    for f in fields(config):
        if f.type in ("float", float) and not math.isfinite(getattr(config, f.name)):
            raise ValueError(f"{f.name} must be finite")


@dataclass(frozen=True)
class HomomorphicParams:
    """Gains for the illumination (low) and reflectance (high) log-domain
    bands; sigma_frac sets the Gaussian split radius as a fraction of the
    shorter image side, which is what makes the filter adapt to image size."""

    gamma_low: float = 0.5
    gamma_high: float = 1.5
    sigma_frac: float = 0.125

    def __post_init__(self):
        require_finite_fields(self)
        if self.gamma_low < 0 or self.gamma_high < 0:
            raise ValueError("gains must be non-negative")
        if not 0.0 < self.sigma_frac < 1.0:
            raise ValueError("sigma_frac must lie in (0,1)")


@dataclass(frozen=True, eq=False)
class PixelStats:
    """Per-pixel mean/std images fitted over a training set."""

    mean: np.ndarray
    std: np.ndarray
    epsilon: float

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        if mean.shape != std.shape:
            raise ValueError(f"mean shape {mean.shape} != std shape {std.shape}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std)) and np.all(std >= 0)):
            raise ValueError("mean and std must be finite and std non-negative")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


def _gaussian_kernel(sigma: float) -> np.ndarray:
    radius = max(1, int(math.ceil(3.0 * sigma)))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (xs / sigma) ** 2)
    return k / k.sum()


@functools.lru_cache(maxsize=16)
def _blur_matrix(n: int, sigma: float) -> np.ndarray:
    """(n, n) band matrix of the 1-D Gaussian with edge replication folded in,
    M[i, clip(i + t - r, 0, n - 1)] += k[t], so the radius may pass both ends.
    Cached, boundedly as each holds n*n floats, so the array is read-only."""
    k = _gaussian_kernel(sigma)
    r = len(k) // 2
    rows = np.arange(n)[:, None]
    m = np.zeros((n, n))
    np.add.at(m, (rows, np.clip(rows + np.arange(len(k)) - r, 0, n - 1)), k)
    m.flags.writeable = False
    return m


def gaussian_blur(px: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with edge replication (no dark halos at borders)."""
    if sigma <= 0:
        return px.copy()
    h, w = px.shape
    return _blur_matrix(h, sigma) @ px @ _blur_matrix(w, sigma).T


def _require_unit_range(px: np.ndarray, op: str) -> None:
    if px.min() < 0.0 or px.max() > 1.0:
        raise ValueError(f"{op} expects pixels in [0,1]")


def homomorphic_filter(img: GrayImage, params: HomomorphicParams) -> GrayImage:
    """Log-domain band split with independent gains, then rescale to [0,1].

    low = blur(log(img + delta)); out = exp(gl*low + gh*(log - low)), affinely
    rescaled so min maps to 0 and max to 1.  Constant images pass through.
    """
    px = img.pixels
    _require_unit_range(px, "homomorphic_filter")
    if px.min() == px.max():  # else the rescale stretches the blur's rounding
        return img
    log_img = np.log(px + LOG_DELTA)
    sigma = params.sigma_frac * min(img.width, img.height)
    low = gaussian_blur(log_img, sigma)
    out = np.exp(params.gamma_low * low + params.gamma_high * (log_img - low))
    lo, hi = float(out.min()), float(out.max())
    if hi - lo <= 0.0:
        return img
    return GrayImage((out - lo) / (hi - lo))


def hist_equalize(img: GrayImage) -> GrayImage:
    """256-bin histogram equalization via the cumulative distribution.

    out = (cdf(bin) - cdf_min) / (1 - cdf_min); single-bin images (cdf_min = 1)
    are returned unchanged.
    """
    px = img.pixels
    _require_unit_range(px, "hist_equalize")
    bins = np.minimum((px * 256.0).astype(np.int64), 255)
    counts = np.bincount(bins.ravel(), minlength=256)
    cdf = np.cumsum(counts) / px.size
    cdf_min = float(cdf[np.nonzero(counts)[0][0]])
    if cdf_min >= 1.0:
        return img
    return GrayImage((cdf[bins] - cdf_min) / (1.0 - cdf_min))


def normalize_per_image(img: GrayImage) -> GrayImage:
    """Zero-mean, unit-std per image (population std, epsilon-guarded);
    constant images map to all zeros."""
    px = img.pixels
    if px.size < 2:
        raise ValueError("need at least 2 pixels")
    mu = float(px.mean())
    sd = float(px.std())
    return GrayImage((px - mu) / max(sd, PER_IMAGE_EPSILON))


def fit_pixel_stats(train: list[GrayImage], epsilon: float = PER_IMAGE_EPSILON) -> PixelStats:
    """Per-pixel mean and population std over a same-shape training set."""
    if len(train) < 2:
        raise ValueError("need at least 2 images")
    shape = train[0].pixels.shape
    for i, img in enumerate(train):
        if img.pixels.shape != shape:
            raise ValueError(f"image {i} has shape {img.pixels.shape}, expected {shape}")
    stack = np.stack([img.pixels for img in train])
    return PixelStats(stack.mean(axis=0), stack.std(axis=0), epsilon)


def apply_pixel_stats(img: GrayImage, stats: PixelStats) -> GrayImage:
    """out[p] = (img[p] - mean[p]) / max(std[p], epsilon)."""
    if img.pixels.shape != stats.mean.shape:
        raise ValueError(f"image shape {img.pixels.shape} != stats shape {stats.mean.shape}")
    return GrayImage((img.pixels - stats.mean) / np.maximum(stats.std, stats.epsilon))


def _bilinear_sample(px: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sample each image of the (k, h, w) stack px at fractional (ys, xs),
    arrays that broadcast to (k, n, m) with one plane per image; returns
    (k, n, m).  Coordinates clamp to the border, which doubles as
    edge-replicated fill for out-of-range points."""
    k, h, w = px.shape
    # One edge-replicated row and column past the border: a tap at y0 + 1
    # or x0 + 1 there reads what the clamp to the border reads.
    padded = np.empty((k, h + 1, w + 1), px.dtype)
    padded[:, :h, :w] = px
    padded[:, h, :w] = px[:, h - 1]
    padded[:, :, w] = padded[:, :, w - 1]
    return _bilinear_taps(padded, np.clip(ys, 0.0, h - 1.0), np.clip(xs, 0.0, w - 1.0))


def _bilinear_taps(px: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Bilinear blend of each image of the (k, h, w) stack px at (ys, xs),
    arrays that broadcast to (k, n, m), with 0 <= ys <= h - 2 and
    0 <= xs <= w - 2, so that all four taps lie in the image; returns
    (k, n, m)."""
    k, h, w = px.shape
    y0 = ys.astype(np.int64)  # truncation is floor at or above 0
    x0 = xs.astype(np.int64)
    fy = ys - y0
    fx = xs - x0
    gy = 1 - fy
    gx = 1 - fx
    # Flat index of each top-left tap: image base plus y0 * w + x0.  The
    # other three taps are the flat stack shifted by 1, w and w + 1.
    at = y0 * w + np.arange(0, k * h * w, h * w).reshape(k, 1, 1) + x0
    flat = px.reshape(-1)
    return (
        flat.take(at) * gy * gx
        + flat[1:].take(at) * gy * fx
        + flat[w:].take(at) * fy * gx
        + flat[w + 1:].take(at) * fy * fx
    )


def bilinear_resize(px: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Center-aligned bilinear resize: src = (dst + 0.5) * scale - 0.5."""
    h, w = px.shape
    if out_h == h and out_w == w:
        return px.copy()
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    return _bilinear_sample(px[None], ys[:, None], xs[None, :])[0]


def rotate_bilinear(px: np.ndarray, angle_deg, rows, cols) -> np.ndarray:
    """Rotate each image of the (k, h, w) stack px about its center by its
    own angle in angle_deg, bilinear sampling, edge-replicated fill.  rows
    and cols, of shape (k, n) and (k, m), select each image's output
    pixels; returns (k, n, m), each pixel the same bits as in the whole
    rotated image."""
    k, h, w = px.shape
    turns = [math.radians(a) for a in angle_deg]
    c = np.array([math.cos(t) for t in turns]).reshape(k, 1, 1)
    s = np.array([math.sin(t) for t in turns]).reshape(k, 1, 1)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy = np.asarray(rows, dtype=np.float64)[:, :, None] - cy
    xx = np.asarray(cols, dtype=np.float64)[:, None, :] - cx
    return _bilinear_sample(px, c * yy - s * xx + cy, s * yy + c * xx + cx)
