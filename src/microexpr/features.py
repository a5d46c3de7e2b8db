"""Facial region extraction and handcrafted descriptors (LBP and HOG).

Region profile: eyes and mouth are the top and bottom floor(h/3) rows pooled
to 140x40, the whole face pooled to 200x200.  Descriptors concatenate in the
fixed order eyes, face, mouth with LBP before HOG per region.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import GrayImage

EYES_SIZE = (140, 40)  # width, height
FACE_SIZE = (200, 200)
MOUTH_SIZE = (140, 40)

# LBP neighbor order: start at the east neighbor, proceed counter-clockwise.
# (row, col) offsets within a 3x3 window whose center is (1,1).
LBP_OFFSETS = ((1, 2), (0, 2), (0, 1), (0, 0), (1, 0), (2, 0), (2, 1), (2, 2))

HOG_BLOCK_EPSILON = 1e-6


@dataclass(frozen=True, eq=False)
class RegionSet:
    eyes: GrayImage
    face: GrayImage
    mouth: GrayImage

    def __post_init__(self):
        for region, (w, h) in (
            (self.eyes, EYES_SIZE),
            (self.face, FACE_SIZE),
            (self.mouth, MOUTH_SIZE),
        ):
            if (region.width, region.height) != (w, h):
                raise ValueError(
                    f"region is {region.width}x{region.height}, expected {w}x{h}"
                )


@dataclass(frozen=True, eq=False)
class FeatureDescriptor:
    """Flat vector with a named segment layout: (name, offset, length) triples
    that are contiguous, non-overlapping and cover the whole vector."""

    values: np.ndarray
    layout: tuple[tuple[str, int, int], ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64).ravel()
        object.__setattr__(self, "values", values)
        expected = 0
        for name, offset, length in self.layout:
            if offset != expected or length < 0:
                raise ValueError(f"segment {name!r} breaks contiguous layout")
            expected += length
        if expected != values.size:
            raise ValueError(f"layout covers {expected} values, vector has {values.size}")

    def segment(self, name: str) -> np.ndarray:
        for seg_name, offset, length in self.layout:
            if seg_name == name:
                return self.values[offset : offset + length]
        raise KeyError(name)


@dataclass(frozen=True)
class FeatureConfig:
    """Grid/cell settings for the handcrafted descriptor.  Region order is
    fixed (eyes, face, mouth) and is not configurable."""

    eyes_lbp_grid: tuple[int, int] = (4, 2)  # cells across, cells down
    face_lbp_grid: tuple[int, int] = (5, 5)
    mouth_lbp_grid: tuple[int, int] = (4, 2)
    hog_cell: int = 10
    hog_bins: int = 9


def _descriptor_length(cfg: FeatureConfig) -> int:
    """Per region, 256 LBP bins per grid cell plus hog_bins for each of the
    four cells of every overlapping 2x2 block of HOG cells."""
    grids = ((EYES_SIZE, cfg.eyes_lbp_grid), (FACE_SIZE, cfg.face_lbp_grid),
             (MOUTH_SIZE, cfg.mouth_lbp_grid))
    return sum(256 * gw * gh + 4 * cfg.hog_bins * (w // cfg.hog_cell - 1) * (h // cfg.hog_cell - 1)
               for (w, h), (gw, gh) in grids)


# The width of every image_descriptor row: the mlp-handcrafted input size.
IMAGE_DESCRIPTOR_LENGTH = _descriptor_length(FeatureConfig())


@functools.lru_cache(maxsize=None)
def _area_weights(n_in: int, n_out: int) -> np.ndarray:
    """Row-stochastic matrix mapping n_in samples to n_out area-averaged bins;
    W[i, y] is the fractional coverage of input cell y by output bin i.
    Cached per size pair, so the array is read-only."""
    scale = n_in / n_out
    weights = np.zeros((n_out, n_in))
    for i in range(n_out):
        lo = i * scale
        hi = (i + 1) * scale
        y0 = int(math.floor(lo))
        y1 = min(int(math.ceil(hi)), n_in)
        for y in range(y0, y1):
            weights[i, y] = min(hi, y + 1.0) - max(lo, float(y))
        weights[i] /= scale
    weights.flags.writeable = False
    return weights


def avg_pool_resize(img: GrayImage, out_w: int, out_h: int) -> GrayImage:
    """Exact area-weighted average pooling; preserves the global mean."""
    if out_w < 1 or out_h < 1:
        raise ValueError("output dimensions must be positive")
    if (out_w, out_h) == (img.width, img.height):
        return GrayImage(img.pixels.copy())
    rows = _area_weights(img.height, out_h)
    cols = _area_weights(img.width, out_w)
    return GrayImage(rows @ img.pixels @ cols.T)


def crop_regions(face: GrayImage) -> RegionSet:
    """Top third to eyes, bottom third to mouth, whole image to face, each
    pooled to its profile size."""
    if face.height < 3 or face.width < 3:
        raise ValueError(f"face image {face.width}x{face.height} too small to crop")
    third = face.height // 3
    eyes = GrayImage(face.pixels[:third])
    mouth = GrayImage(face.pixels[face.height - third :])
    return RegionSet(
        eyes=avg_pool_resize(eyes, *EYES_SIZE),
        face=avg_pool_resize(face, *FACE_SIZE),
        mouth=avg_pool_resize(mouth, *MOUTH_SIZE),
    )


def lbp_code(window: np.ndarray) -> int:
    """8-bit code of a 3x3 window: bit i set when neighbor i >= center."""
    w = np.asarray(window, dtype=np.float64).reshape(3, 3)
    if not np.all(np.isfinite(w)):
        raise ValueError("window contains non-finite values")
    center = w[1, 1]
    code = 0
    for i, (r, c) in enumerate(LBP_OFFSETS):
        if w[r, c] >= center:
            code |= 1 << i
    return code


def _lbp_codes(px: np.ndarray) -> np.ndarray:
    """Vectorized lbp_code over every interior pixel; shape (h-2, w-2)."""
    h, w = px.shape
    center = px[1:-1, 1:-1]
    codes = np.zeros((h - 2, w - 2), dtype=np.int64)
    for i, (r, c) in enumerate(LBP_OFFSETS):
        codes |= (px[r : r + h - 2, c : c + w - 2] >= center).astype(np.int64) << i
    return codes


def _cell_sizes(extent: int, cells: int) -> np.ndarray:
    # Equal split; the remainder goes to the last cell.
    sizes = np.full(cells, extent // cells)
    sizes[-1] += extent % cells
    return sizes


def lbp_histogram(img: GrayImage, grid_w: int, grid_h: int) -> FeatureDescriptor:
    """Per-cell 256-bin histograms of LBP codes over the image interior,
    each normalized to sum 1 (empty cells stay all-zero), concatenated
    row-major."""
    if img.height < 3 or img.width < 3:
        raise ValueError("image must be at least 3x3")
    if grid_w < 1 or grid_h < 1:
        raise ValueError("grid must be at least 1x1")
    codes = _lbp_codes(img.pixels)
    rows, cols = _cell_sizes(codes.shape[0], grid_h), _cell_sizes(codes.shape[1], grid_w)
    # Each code is keyed by its row-major cell index and its value.
    cell = np.repeat(np.arange(grid_h), rows)[:, None] * grid_w + np.repeat(np.arange(grid_w), cols)
    counts = np.bincount((cell * 256 + codes).ravel(), minlength=grid_h * grid_w * 256)
    # An empty cell has no counts, so dividing it by 1 leaves it all-zero.
    hists = counts.reshape(-1, 256) / np.maximum(np.outer(rows, cols).reshape(-1, 1), 1)
    layout = tuple((f"cell{k // grid_w}_{k % grid_w}", 256 * k, 256)
                   for k in range(grid_h * grid_w))
    return FeatureDescriptor(hists, layout)


def gradients(img: GrayImage) -> tuple[np.ndarray, np.ndarray]:
    """Central differences with edge replication:
    gx = img(x+1,y) - img(x-1,y), gy = img(x,y+1) - img(x,y-1)."""
    if img.height < 3 or img.width < 3:
        raise ValueError("image must be at least 3x3")
    px = img.pixels
    padded_x = np.pad(px, ((0, 0), (1, 1)), mode="edge")
    padded_y = np.pad(px, ((1, 1), (0, 0)), mode="edge")
    gx = padded_x[:, 2:] - padded_x[:, :-2]
    gy = padded_y[2:, :] - padded_y[:-2, :]
    return gx, gy


def gradient_polar(gx: np.ndarray, gy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude q = sqrt(gx^2+gy^2) and unsigned direction theta in [0, pi);
    zero-gradient pixels get theta 0 (their magnitude contributes nothing)."""
    q = np.hypot(gx, gy)
    theta = np.mod(np.arctan2(gy, gx), np.pi)
    theta = np.where(theta >= np.pi, 0.0, theta)
    return q, np.where(q > 0, theta, 0.0)


def hog_descriptor(img: GrayImage, cell: int, bins: int) -> FeatureDescriptor:
    """Orientation histograms of gradient magnitude over cell x cell pixels
    (partial cells dropped), magnitudes linearly interpolated between the two
    nearest bin centers, 2x2-cell blocks L2-normalized with overlap stride 1.
    """
    if bins < 2:
        raise ValueError("need at least 2 orientation bins")
    if img.height < cell or img.width < cell:
        raise ValueError(f"image {img.width}x{img.height} smaller than one {cell}px cell")
    gx, gy = gradients(img)
    q, theta = gradient_polar(gx, gy)
    cells_y, cells_x = img.height // cell, img.width // cell
    q, theta = q[: cells_y * cell, : cells_x * cell], theta[: cells_y * cell, : cells_x * cell]

    bin_width = np.pi / bins
    t = theta / bin_width - 0.5
    lower = np.floor(t).astype(np.int64)
    frac = t - lower

    # One vote pass per neighbour bin, keyed by (cell, bin).  bincount adds a
    # key's votes in row-major pixel order, the order of a cell-by-cell pass,
    # so every sum is the same to the bit.
    n = cells_y * cells_x * bins
    key = np.arange(0, n, bins).reshape(cells_y, cells_x).repeat(cell, 0).repeat(cell, 1)
    votes_lo = np.bincount((key + np.mod(lower, bins)).ravel(), (q * (1 - frac)).ravel(), n)
    votes_hi = np.bincount((key + np.mod(lower + 1, bins)).ravel(), (q * frac).ravel(), n)
    hists = (votes_lo + votes_hi).reshape(cells_y, cells_x, bins)

    # Each 2x2 block concatenates its cells (0,0), (0,1), (1,0), (1,1);
    # vecdot sums a block as `v @ v` does, bit for bit.
    blocks = np.concatenate((hists[:-1, :-1], hists[:-1, 1:], hists[1:, :-1], hists[1:, 1:]), -1)
    norms = np.sqrt(np.vecdot(blocks, blocks) + HOG_BLOCK_EPSILON**2)
    flat = (blocks / norms[..., None]).ravel()
    return FeatureDescriptor(flat, (("hog", 0, flat.size),))


def handcrafted_descriptor(regions: RegionSet, cfg: FeatureConfig) -> FeatureDescriptor:
    """LBP + HOG over eyes, face, mouth, concatenated in that fixed order."""
    parts: list[np.ndarray] = []
    layout: list[tuple[str, int, int]] = []
    offset = 0
    for name, region, grid in (
        ("eyes", regions.eyes, cfg.eyes_lbp_grid),
        ("face", regions.face, cfg.face_lbp_grid),
        ("mouth", regions.mouth, cfg.mouth_lbp_grid),
    ):
        lbp = lbp_histogram(region, *grid)
        hog = hog_descriptor(region, cfg.hog_cell, cfg.hog_bins)
        for kind, values in (("lbp", lbp.values), ("hog", hog.values)):
            parts.append(values)
            layout.append((f"{name}.{kind}", offset, values.size))
            offset += values.size
    return FeatureDescriptor(np.concatenate(parts), tuple(layout))


def image_descriptor(face: GrayImage) -> FeatureDescriptor:
    """The default-config descriptor of a face image as loaded: the row the
    `features` subcommand writes and the `mlp-handcrafted` network input."""
    return handcrafted_descriptor(crop_regions(face), FeatureConfig())


def write_descriptor_csv(
    path, descriptors: list[FeatureDescriptor], labels: list[str]
) -> None:
    """One row per sample; columns named segment.index plus a final label."""
    if len(descriptors) != len(labels):
        raise ValueError("descriptor/label count mismatch")
    if not descriptors:
        raise ValueError("nothing to write")
    layout = descriptors[0].layout
    header = [
        f"{name}.{i}" for name, _, length in layout for i in range(length)
    ] + ["label"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for desc, label in zip(descriptors, labels):
            if desc.layout != layout:
                raise ValueError("descriptors have differing layouts")
            # Float reprs need no quoting; the writer adds the label field.
            fh.write(",".join(map(repr, desc.values.tolist())))
            writer.writerow(("", label))
