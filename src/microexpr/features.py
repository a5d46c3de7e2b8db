"""Facial region extraction and handcrafted descriptors (LBP and HOG).

Region profile: eyes and mouth are the top and bottom floor(h/3) rows, face
the whole image, each pooled to its REGIONS size.  Descriptors concatenate in
the fixed REGIONS order eyes, face, mouth with LBP before HOG per region.
"""

from __future__ import annotations

import csv
import functools
import math

import numpy as np

from .dataset import GrayImage

# (name, pooled (width, height), LBP grid (cells across, cells down)) in
# descriptor order; every region also gets HOG over HOG_CELL-pixel cells.
REGIONS = (("eyes", (140, 40), (4, 2)), ("face", (200, 200), (5, 5)), ("mouth", (140, 40), (4, 2)))
HOG_CELL = 10
HOG_BINS = 9

# LBP neighbor order: start at the east neighbor, proceed counter-clockwise.
# (row, col) offsets within a 3x3 window whose center is (1,1).
LBP_OFFSETS = ((1, 2), (0, 2), (0, 1), (0, 0), (1, 0), (2, 0), (2, 1), (2, 2))

HOG_BLOCK_EPSILON = 1e-6

# (CSV column prefix, width) of each descriptor segment in row order: per
# region, 256 LBP bins per grid cell, then HOG_BINS for each of the four cells
# of every overlapping 2x2 block of HOG cells.
DESCRIPTOR_SEGMENTS = tuple(
    segment
    for name, (w, h), (gw, gh) in REGIONS
    for segment in ((f"{name}.lbp", 256 * gw * gh),
                    (f"{name}.hog", 4 * HOG_BINS * (w // HOG_CELL - 1) * (h // HOG_CELL - 1)))
)
# The width of every image_descriptor row, the mlp-handcrafted input size.
IMAGE_DESCRIPTOR_LENGTH = sum(width for _, width in DESCRIPTOR_SEGMENTS)


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


def crop_regions(face: GrayImage) -> dict[str, GrayImage]:
    """Top third to eyes, bottom third to mouth, whole image to face, each
    pooled to its REGIONS size; keyed by region name in REGIONS order."""
    if face.height < 3 or face.width < 3:
        raise ValueError(f"face image {face.width}x{face.height} too small to crop")
    third = face.height // 3
    source = {"eyes": face.pixels[:third], "face": face.pixels,
              "mouth": face.pixels[face.height - third :]}
    return {name: avg_pool_resize(GrayImage(source[name]), *size) for name, size, _ in REGIONS}


def _lbp_codes(px: np.ndarray) -> np.ndarray:
    """8-bit LBP code of every interior pixel, bit i set when neighbor i >= the
    center; uint8, shape (h-2, w-2)."""
    h, w = px.shape
    center = px[1:-1, 1:-1]
    codes = np.zeros((h - 2, w - 2), dtype=np.uint8)
    # One comparison buffer and one bit buffer serve all eight neighbors.
    above, bit = np.empty(codes.shape, dtype=bool), np.empty(codes.shape, dtype=np.uint8)
    for i, (r, c) in enumerate(LBP_OFFSETS):
        np.greater_equal(px[r : r + h - 2, c : c + w - 2], center, out=above)
        codes |= np.left_shift(above.view(np.uint8), i, out=bit)
    return codes


def _cell_sizes(extent: int, cells: int) -> np.ndarray:
    # Equal split; the remainder goes to the last cell.
    sizes = np.full(cells, extent // cells)
    sizes[-1] += extent % cells
    return sizes


@functools.lru_cache(maxsize=None)
def _cell_keys(h: int, w: int, grid_h: int, grid_w: int, stride: int) -> np.ndarray:
    """Each element of an (h, w) array on the grid keyed by its row-major cell
    index times stride.  Cached per shape, so the array is read-only."""
    rows, cols = _cell_sizes(h, grid_h), _cell_sizes(w, grid_w)
    keys = np.repeat(np.arange(grid_h), rows)[:, None] * grid_w + np.repeat(np.arange(grid_w), cols)
    keys *= stride
    keys.flags.writeable = False
    return keys


def lbp_histogram(img: GrayImage, grid_w: int, grid_h: int) -> np.ndarray:
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
    keys = _cell_keys(*codes.shape, grid_h, grid_w, 256)
    counts = np.bincount((keys + codes).ravel(), minlength=grid_h * grid_w * 256)
    # An empty cell has no counts, so dividing it by 1 leaves it all-zero.
    hists = counts.reshape(-1, 256) / np.maximum(np.outer(rows, cols).reshape(-1, 1), 1)
    return hists.ravel()


def gradients(img: GrayImage) -> tuple[np.ndarray, np.ndarray]:
    """Central differences with edge replication:
    gx = img(x+1,y) - img(x-1,y), gy = img(x,y+1) - img(x,y-1)."""
    if img.height < 3 or img.width < 3:
        raise ValueError("image must be at least 3x3")
    px = img.pixels
    gx, gy = np.empty_like(px), np.empty_like(px)
    np.subtract(px[:, 2:], px[:, :-2], out=gx[:, 1:-1])
    np.subtract(px[:, 1], px[:, 0], out=gx[:, 0])
    np.subtract(px[:, -1], px[:, -2], out=gx[:, -1])
    np.subtract(px[2:], px[:-2], out=gy[1:-1])
    np.subtract(px[1], px[0], out=gy[0])
    np.subtract(px[-1], px[-2], out=gy[-1])
    return gx, gy


def gradient_polar(gx: np.ndarray, gy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude q = sqrt(gx^2+gy^2) and unsigned direction theta in [0, pi);
    zero-gradient pixels get theta 0 (their magnitude contributes nothing)."""
    q = np.hypot(gx, gy)
    theta = np.arctan2(gy, gx)
    theta += np.pi * (theta < 0)  # np.mod(theta, pi) to the bit (-0.0 to +0.0) at 1/5 the cost
    theta[(theta >= np.pi) | (q == 0)] = 0.0
    return q, theta


def hog_descriptor(img: GrayImage, cell: int, bins: int) -> np.ndarray:
    """Orientation histograms of gradient magnitude over cell x cell pixels
    (partial cells dropped), magnitudes linearly interpolated between the two
    nearest bin centers, 2x2-cell blocks L2-normalized with overlap stride 1.
    """
    if bins < 2:
        raise ValueError("need at least 2 orientation bins")
    if img.height < cell or img.width < cell:
        raise ValueError(f"image {img.width}x{img.height} smaller than one {cell}px cell")
    cells_y, cells_x = img.height // cell, img.width // cell
    h, w = cells_y * cell, cells_x * cell
    gx, gy = gradients(img)
    gx, gy = gx[:h, :w], gy[:h, :w]

    # gradient_polar's q and theta, computed in the gradients' buffers and
    # without its q == 0 fix-up: q is 0 only where gx and gy are both +-0,
    # and those angles wrap to +-0, which give the t of theta 0.
    q = np.hypot(gx, gy)
    theta = np.arctan2(gy, gx, out=gy)
    np.add(theta, np.pi, out=theta, where=theta < 0)
    theta[theta >= np.pi] = 0.0
    t = np.divide(theta, np.pi / bins, out=theta)
    t -= 0.5
    lower = np.floor(t, out=gx)
    frac = np.subtract(t, lower, out=t)
    # theta lies in [0, pi), so floor(t) + 1 lies in [0, bins]: it indexes
    # the wrapped bins below and above t.
    index = lower.astype(np.intp)
    index += 1
    bin_below, bin_above = np.arange(-1, bins) % bins, np.arange(bins + 1) % bins

    # One vote pass per neighbour bin, keyed by (cell, bin).  bincount adds a
    # key's votes in row-major pixel order, the order of a cell-by-cell pass,
    # so every sum is the same to the bit.
    n = cells_y * cells_x * bins
    key = _cell_keys(h, w, cells_y, cells_x, bins)
    weight = np.subtract(1, frac, out=lower)
    weight *= q
    votes_lo = np.bincount((key + bin_below[index]).ravel(), weight.ravel(), n)
    frac *= q
    votes_hi = np.bincount((key + bin_above[index]).ravel(), frac.ravel(), n)
    hists = (votes_lo + votes_hi).reshape(cells_y, cells_x, bins)

    # Each 2x2 block concatenates its cells (0,0), (0,1), (1,0), (1,1);
    # vecdot sums a block as `v @ v` does, bit for bit.
    blocks = np.concatenate((hists[:-1, :-1], hists[:-1, 1:], hists[1:, :-1], hists[1:, 1:]), -1)
    norms = np.sqrt(np.vecdot(blocks, blocks) + HOG_BLOCK_EPSILON**2)
    return (blocks / norms[..., None]).ravel()


def handcrafted_descriptor(regions: dict[str, GrayImage]) -> np.ndarray:
    """LBP + HOG over the REGIONS, concatenated in DESCRIPTOR_SEGMENTS order;
    a region whose size differs from its table entry raises ValueError."""
    parts: list[np.ndarray] = []
    for name, (w, h), grid in REGIONS:
        region = regions[name]
        if (region.width, region.height) != (w, h):
            raise ValueError(f"{name} region is {region.width}x{region.height}, expected {w}x{h}")
        parts += (lbp_histogram(region, *grid), hog_descriptor(region, HOG_CELL, HOG_BINS))
    return np.concatenate(parts)


def image_descriptor(face: GrayImage) -> np.ndarray:
    """The descriptor of a face image as loaded: the row the `features`
    subcommand writes and the `mlp-handcrafted` network input."""
    return handcrafted_descriptor(crop_regions(face))


def write_descriptor_csv(path, rows: list[np.ndarray], labels: list[str]) -> None:
    """One image_descriptor row per sample under the DESCRIPTOR_SEGMENTS
    columns, named prefix.index, plus a final label column."""
    if len(rows) != len(labels):
        raise ValueError("descriptor/label count mismatch")
    if not rows:
        raise ValueError("nothing to write")
    for row in rows:
        if np.shape(row) != (IMAGE_DESCRIPTOR_LENGTH,):
            raise ValueError(f"descriptor row has shape {np.shape(row)}, "
                             f"expected ({IMAGE_DESCRIPTOR_LENGTH},)")
    header = [f"{prefix}.{i}" for prefix, width in DESCRIPTOR_SEGMENTS for i in range(width)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header + ["label"])
        for row, label in zip(rows, labels):
            # Float reprs need no quoting; the writer adds the label field.
            fh.write(",".join(map(repr, row.tolist())))
            writer.writerow(("", label))
