import csv
import math

import numpy as np
import pytest

from microexpr.dataset import GrayImage, generate_synthetic
from microexpr.features import (
    DESCRIPTOR_SEGMENTS,
    HOG_BLOCK_EPSILON,
    IMAGE_DESCRIPTOR_LENGTH,
    REGIONS,
    _area_weights,
    _lbp_codes,
    avg_pool_resize,
    crop_regions,
    gradients,
    handcrafted_descriptor,
    hog_descriptor,
    image_descriptor,
    lbp_histogram,
    write_descriptor_csv,
)
from microexpr.preprocess import (
    HomomorphicParams,
    hist_equalize,
    homomorphic_filter,
    prepare,
)


def gradient_polar(gx, gy):
    """Reference magnitude q = sqrt(gx^2+gy^2) and unsigned direction theta
    in [0, pi); zero-gradient pixels get theta 0 (their magnitude contributes
    nothing).  hog_descriptor computes the same in the gradients' buffers."""
    q = np.hypot(gx, gy)
    theta = np.arctan2(gy, gx)
    theta += np.pi * (theta < 0)  # np.mod(theta, pi) to the bit (-0.0 to +0.0)
    theta[(theta >= np.pi) | (q == 0)] = 0.0
    return q, theta


def oracle_lbp(window):
    """Independent bit loop; restates the neighbor order (east, then
    counter-clockwise) rather than importing it."""
    w = np.asarray(window, dtype=float)
    order = [(1, 2), (0, 2), (0, 1), (0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]
    total = 0
    for i, (r, c) in enumerate(order):
        if w[r, c] - w[1, 1] >= 0:
            total += 2**i
    return total


def segment(desc, name):
    """The values of the named DESCRIPTOR_SEGMENTS segment of a descriptor row."""
    offset = 0
    for prefix, width in DESCRIPTOR_SEGMENTS:
        if prefix == name:
            return desc[offset : offset + width]
        offset += width
    raise KeyError(name)


def oracle_area_resize(px, out_w, out_h):
    """Direct per-output-pixel area integration over fractional coverage."""
    h, w = px.shape
    out = np.zeros((out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            y0, y1 = i * h / out_h, (i + 1) * h / out_h
            x0, x1 = j * w / out_w, (j + 1) * w / out_w
            acc = 0.0
            for y in range(int(y0), min(int(math.ceil(y1)), h)):
                wy = min(y1, y + 1) - max(y0, y)
                for x in range(int(x0), min(int(math.ceil(x1)), w)):
                    wx = min(x1, x + 1) - max(x0, x)
                    acc += wy * wx * px[y, x]
            out[i, j] = acc / ((y1 - y0) * (x1 - x0))
    return out


class TestAvgPoolResize:
    def test_integer_ratio_block_means(self):
        px = np.arange(16, dtype=float).reshape(4, 4)
        out = avg_pool_resize(GrayImage(px), 2, 2)
        expected = [[px[:2, :2].mean(), px[:2, 2:].mean()],
                    [px[2:, :2].mean(), px[2:, 2:].mean()]]
        assert np.allclose(out.pixels, expected, atol=1e-12)

    def test_identity(self):
        rng = np.random.default_rng(0)
        px = rng.random((5, 3))
        assert np.array_equal(avg_pool_resize(GrayImage(px), 3, 5).pixels, px)

    def test_fractional_matches_oracle(self):
        rng = np.random.default_rng(1)
        for in_shape, out_shape in (((3, 3), (2, 2)), ((7, 5), (4, 3)), ((4, 6), (5, 2))):
            px = rng.random(in_shape)
            out = avg_pool_resize(GrayImage(px), out_shape[1], out_shape[0])
            oracle = oracle_area_resize(px, out_shape[1], out_shape[0])
            assert np.abs(out.pixels - oracle).max() < 1e-12

    def test_global_mean_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            h, w = rng.integers(3, 30, size=2)
            oh, ow = rng.integers(1, 30, size=2)
            px = rng.random((h, w))
            out = avg_pool_resize(GrayImage(px), int(ow), int(oh))
            assert abs(out.pixels.mean() - px.mean()) < 1e-12


class TestCropRegions:
    def test_48x48_shapes(self):
        regions = crop_regions(GrayImage(np.random.default_rng(3).random((48, 48))))
        assert (regions["eyes"].width, regions["eyes"].height) == (140, 40)
        assert (regions["face"].width, regions["face"].height) == (200, 200)
        assert (regions["mouth"].width, regions["mouth"].height) == (140, 40)

    def test_row_bands(self):
        # Mark the top and bottom thirds; eyes/mouth must average to the marks.
        px = np.zeros((48, 48))
        px[:16] = 1.0
        px[32:] = 0.5
        regions = crop_regions(GrayImage(px))
        assert np.allclose(regions["eyes"].pixels, 1.0, atol=1e-12)
        assert np.allclose(regions["mouth"].pixels, 0.5, atol=1e-12)

    def test_constant_preserved(self):
        regions = crop_regions(GrayImage(np.full((30, 20), 0.7)))
        for region in (regions["eyes"], regions["face"], regions["mouth"]):
            assert np.allclose(region.pixels, 0.7, atol=1e-12)

    def test_any_input_same_output_shapes(self):
        regions = crop_regions(GrayImage(np.random.default_rng(4).random((300, 300))))
        assert regions["eyes"].pixels.shape == (40, 140)
        assert regions["face"].pixels.shape == (200, 200)

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(5)
        px = rng.random((24, 24))
        sym = (px + px[:, ::-1]) / 2.0
        regions = crop_regions(GrayImage(sym))
        flipped = crop_regions(GrayImage(sym[:, ::-1]))
        assert np.allclose(regions["eyes"].pixels, flipped["eyes"].pixels[:, ::-1], atol=1e-12)
        assert np.allclose(regions["mouth"].pixels, flipped["mouth"].pixels[:, ::-1], atol=1e-12)

    def test_degenerate_input_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            crop_regions(GrayImage(np.zeros((2, 8))))


class TestLbpCode:
    def test_worked_example(self):
        # Center 5, neighbors (east, counter-clockwise) 6,4,5,3,7,2,8,1.
        window = np.array([[3.0, 5.0, 4.0], [7.0, 5.0, 6.0], [2.0, 8.0, 1.0]])
        assert _lbp_codes(window)[0, 0] == 85
        assert oracle_lbp(window) == 85

    def test_all_equal_gives_255(self):
        assert _lbp_codes(np.full((3, 3), 0.3))[0, 0] == 255

    def test_all_below_center_gives_0(self):
        window = np.zeros((3, 3))
        window[1, 1] = 1.0
        assert _lbp_codes(window)[0, 0] == 0

    def test_matches_oracle_on_random_windows(self):
        rng = np.random.default_rng(6)
        for _ in range(10_000):
            window = rng.random((3, 3))
            assert _lbp_codes(window)[0, 0] == oracle_lbp(window)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            window = rng.random((3, 3))
            transformed = np.exp(2.0 * window) + 1.0  # strictly increasing
            assert _lbp_codes(window)[0, 0] == _lbp_codes(transformed)[0, 0]


class TestLbpHistogram:
    def test_constant_image_all_codes_255(self):
        desc = lbp_histogram(GrayImage(np.full((6, 6), 0.5)), 1, 1)
        expected = np.zeros(256)
        expected[255] = 1.0
        assert np.array_equal(desc, expected)

    def test_grid_shape_contract(self):
        desc = lbp_histogram(GrayImage(np.random.default_rng(8).random((10, 10))), 2, 2)
        assert desc.shape == (4 * 256,)

    def test_matches_brute_force_counting(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            px = rng.random((5, 5))
            desc = lbp_histogram(GrayImage(px), 1, 1)
            counts = np.zeros(256)
            for y in range(1, 4):
                for x in range(1, 4):
                    counts[oracle_lbp(px[y - 1 : y + 2, x - 1 : x + 2])] += 1
            assert np.array_equal(desc, counts / 9.0)

    def test_cells_sum_to_one_or_zero(self):
        rng = np.random.default_rng(10)
        desc = lbp_histogram(GrayImage(rng.random((9, 11))), 3, 2)
        for total in desc.reshape(-1, 256).sum(axis=1):
            assert abs(total - 1.0) < 1e-12 or total == 0.0
        assert np.all(desc >= 0)

    def test_empty_cells_allowed(self):
        # 3-pixel interior split over 4 columns: first cells empty, rest used.
        desc = lbp_histogram(GrayImage(np.random.default_rng(11).random((5, 5))), 4, 1)
        sums = desc.reshape(-1, 256).sum(axis=1).tolist()
        assert 0.0 in sums and any(abs(s - 1.0) < 1e-12 for s in sums)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="3x3"):
            lbp_histogram(GrayImage(np.zeros((2, 5))), 1, 1)


class TestGradients:
    def test_constant_zero(self):
        gx, gy = gradients(GrayImage(np.full((5, 5), 0.2)))
        assert np.array_equal(gx, np.zeros((5, 5)))
        assert np.array_equal(gy, np.zeros((5, 5)))

    def test_ramp_central_difference(self):
        xx = np.tile(np.arange(6, dtype=float), (4, 1))
        gx, gy = gradients(GrayImage(xx))
        assert np.array_equal(gx[:, 1:-1], np.full((4, 4), 2.0))
        assert np.array_equal(gx[:, 0], np.ones(4))  # replicated edge halves it
        assert np.array_equal(gy, np.zeros((4, 6)))

    def test_transpose_swaps_axes(self):
        rng = np.random.default_rng(12)
        px = rng.random((7, 7))
        gx, gy = gradients(GrayImage(px))
        gx_t, gy_t = gradients(GrayImage(px.T))
        assert np.array_equal(gx_t, gy.T)
        assert np.array_equal(gy_t, gx.T)


class TestHog:
    def test_polar_worked_example(self):
        q, theta = gradient_polar(np.array([[3.0]]), np.array([[4.0]]))
        assert q[0, 0] == 5.0
        assert abs(theta[0, 0] - 0.9273) < 1e-4

    def test_vertical_gradient_angle(self):
        _, theta = gradient_polar(np.array([[0.0]]), np.array([[2.0]]))
        assert abs(theta[0, 0] - np.pi / 2) < 1e-12
        _, theta = gradient_polar(np.array([[0.0]]), np.array([[-2.0]]))
        assert abs(theta[0, 0] - np.pi / 2) < 1e-12

    def test_constant_image_zero_descriptor(self):
        desc = hog_descriptor(GrayImage(np.full((16, 16), 0.4)), cell=8, bins=9)
        assert np.array_equal(desc, np.zeros(36))

    def test_shape_formula(self):
        desc = hog_descriptor(GrayImage(np.random.default_rng(13).random((30, 40))), 10, 9)
        cells_x, cells_y = 4, 3
        assert desc.shape == ((cells_x - 1) * (cells_y - 1) * 4 * 9,)

    def test_brightness_shift_invariance_exact(self):
        rng = np.random.default_rng(14)
        px = rng.integers(0, 256, size=(20, 20)) / 256.0  # dyadic grid
        shifted = px + 32 / 256.0  # exact in binary floating point
        a = hog_descriptor(GrayImage(px), 5, 9)
        b = hog_descriptor(GrayImage(shifted), 5, 9)
        assert np.array_equal(a, b)

    def test_scale_invariance_of_block_normalized_output(self):
        rng = np.random.default_rng(15)
        px = rng.random((20, 20))
        base = hog_descriptor(GrayImage(px), 5, 9)
        for k in (0.5, 2.0):
            scaled = hog_descriptor(GrayImage(px * k), 5, 9)
            assert np.abs(scaled - base).max() < 1e-6

    def test_image_smaller_than_cell_rejected(self):
        with pytest.raises(ValueError, match="smaller than one"):
            hog_descriptor(GrayImage(np.zeros((4, 20))), 5, 9)


# The region table restated: (pooled width, height) and LBP grid per region
# in descriptor order, HOG over 10-pixel cells with 9 bins.
REGION_GRIDS = (((140, 40), (4, 2)), ((200, 200), (5, 5)), ((140, 40), (4, 2)))


SEGMENT_PREFIXES = ("eyes.lbp", "eyes.hog", "face.lbp", "face.hog", "mouth.lbp", "mouth.hog")


def expected_segment_widths():
    """Independent evaluation of the segment-width formulas, in row order."""
    widths = []
    for (w, h), (gw, gh) in REGION_GRIDS:
        cx, cy = w // 10, h // 10
        widths += [gw * gh * 256, (cx - 1) * (cy - 1) * 4 * 9]
    return widths


def expected_descriptor_length():
    return sum(expected_segment_widths())


class TestHandcraftedDescriptor:
    @pytest.mark.parametrize("size", [48, 256])
    def test_image_descriptor_length_known_up_front(self, size):
        img = GrayImage(np.random.default_rng(size).random((size, size)))
        assert image_descriptor(img).shape == (IMAGE_DESCRIPTOR_LENGTH,)
        assert IMAGE_DESCRIPTOR_LENGTH == expected_descriptor_length() == 26300

    def test_default_length_and_fixed_layout(self):
        regions = crop_regions(GrayImage(np.random.default_rng(16).random((48, 48))))
        desc = handcrafted_descriptor(regions)
        assert desc.dtype == np.float64
        assert desc.shape == (expected_descriptor_length(),)
        assert DESCRIPTOR_SEGMENTS == tuple(zip(SEGMENT_PREFIXES, expected_segment_widths()))

    def test_deterministic(self):
        px = np.random.default_rng(17).random((48, 48))
        a = handcrafted_descriptor(crop_regions(GrayImage(px)))
        b = handcrafted_descriptor(crop_regions(GrayImage(px)))
        assert np.array_equal(a, b)

    def test_constant_regions(self):
        regions = {
            "eyes": GrayImage(np.full((40, 140), 0.3)),
            "face": GrayImage(np.full((200, 200), 0.3)),
            "mouth": GrayImage(np.full((40, 140), 0.3)),
        }
        desc = handcrafted_descriptor(regions)
        for region in ("eyes", "face", "mouth"):
            lbp = segment(desc, f"{region}.lbp").reshape(-1, 256)
            assert np.array_equal(lbp[:, 255], np.ones(len(lbp)))
            assert lbp.sum() == len(lbp)
            assert np.array_equal(segment(desc, f"{region}.hog"),
                                  np.zeros_like(segment(desc, f"{region}.hog")))


    def test_regions_keyed_in_table_order(self):
        regions = crop_regions(GrayImage(np.random.default_rng(18).random((48, 48))))
        assert list(regions) == ["eyes", "face", "mouth"]

    @pytest.mark.parametrize("name", ["eyes", "face", "mouth"])
    def test_wrong_size_region_refused(self, name):
        regions = crop_regions(GrayImage(np.random.default_rng(19).random((48, 48))))
        regions[name] = GrayImage(regions[name].pixels[:-1])
        with pytest.raises(ValueError, match=f"{name} region is"):
            handcrafted_descriptor(regions)


def reference_lbp_histogram(px, grid_w, grid_h):
    """Cell-by-cell LBP histograms: one bincount per cell, the remainder rows
    and columns in the last cell."""
    codes = _lbp_codes(px)

    def bounds(extent, cells):
        base = extent // cells
        bounds = [(k * base, (k + 1) * base) for k in range(cells - 1)]
        return bounds + [((cells - 1) * base, extent)]

    parts = []
    for r0, r1 in bounds(codes.shape[0], grid_h):
        for c0, c1 in bounds(codes.shape[1], grid_w):
            cell = codes[r0:r1, c0:c1]
            hist = np.bincount(cell.ravel(), minlength=256).astype(np.float64)
            if cell.size:
                hist /= cell.size
            parts.append(hist)
    return np.concatenate(parts)


def reference_hog(px, cell, bins):
    """Cell-by-cell HOG: two bincounts per cell, then one 2x2 block at a time
    normalized with `v @ v`."""
    q, theta = gradient_polar(*gradients(GrayImage(px)))
    t = theta / (np.pi / bins) - 0.5
    lower = np.floor(t).astype(np.int64)
    frac = t - lower
    lower_bin, upper_bin = np.mod(lower, bins), np.mod(lower + 1, bins)
    cells_y, cells_x = px.shape[0] // cell, px.shape[1] // cell
    hists = np.zeros((cells_y, cells_x, bins))
    for cy in range(cells_y):
        for cx in range(cells_x):
            sl = (slice(cy * cell, (cy + 1) * cell), slice(cx * cell, (cx + 1) * cell))
            votes_lo = np.bincount(lower_bin[sl].ravel(), weights=(q[sl] * (1 - frac[sl])).ravel(),
                                   minlength=bins)
            votes_hi = np.bincount(upper_bin[sl].ravel(), weights=(q[sl] * frac[sl]).ravel(),
                                   minlength=bins)
            hists[cy, cx] = votes_lo + votes_hi
    blocks = []
    for by in range(cells_y - 1):
        for bx in range(cells_x - 1):
            v = hists[by : by + 2, bx : bx + 2].ravel()
            blocks.append(v / math.sqrt(float(v @ v) + HOG_BLOCK_EPSILON**2))
    return np.concatenate(blocks) if blocks else np.zeros(0)


def reference_image_descriptor(px):
    regions = crop_regions(GrayImage(px))
    parts = []
    for name, (_, grid) in zip(("eyes", "face", "mouth"), REGION_GRIDS):
        parts.append(reference_lbp_histogram(regions[name].pixels, *grid))
        parts.append(reference_hog(regions[name].pixels, 10, 9))
    return np.concatenate(parts)


class TestHistogramParity:
    """The whole-image histograms equal the cell-by-cell ones bit for bit."""

    def test_hog_all_cells_and_bins_odd_sizes(self):
        rng = np.random.default_rng(30)
        for cell in range(3, 11):
            for bins in range(2, 13):
                # Sizes leave partial cells in most cases; at least 2x2 cells.
                h, w = rng.integers(2 * cell, 5 * cell + 1, size=2)
                px = rng.random((int(h), int(w)))
                got = hog_descriptor(GrayImage(px), cell, bins)
                assert np.array_equal(got, reference_hog(px, cell, bins)), (cell, bins, px.shape)

    def test_hog_quantized_pixels(self):
        # 8-bit pixels give repeated angles and zero gradients, as loaded images do.
        rng = np.random.default_rng(31)
        for cell, bins in ((5, 9), (10, 9), (4, 6)):
            px = rng.integers(0, 4, size=(43, 37)) / 3.0
            got = hog_descriptor(GrayImage(px), cell, bins)
            assert np.array_equal(got, reference_hog(px, cell, bins))

    def test_hog_one_cell_high_gives_no_blocks(self):
        px = np.random.default_rng(32).random((7, 30))
        got = hog_descriptor(GrayImage(px), 5, 9)
        assert got.shape == (0,)
        assert np.array_equal(got, reference_hog(px, 5, 9))

    def test_lbp_grids_with_empty_and_partial_cells(self):
        rng = np.random.default_rng(33)
        for shape, grid in (((5, 5), (4, 1)), ((5, 5), (1, 4)), ((6, 9), (8, 5)),
                            ((9, 11), (3, 2)), ((40, 140), (4, 2)), ((23, 17), (6, 7)),
                            ((3, 3), (2, 2)), ((200, 200), (5, 5))):
            px = rng.random(shape)
            got = lbp_histogram(GrayImage(px), grid[0], grid[1])
            assert np.array_equal(got, reference_lbp_histogram(px, *grid)), (shape, grid)

    def test_image_descriptor_48x48(self):
        rng = np.random.default_rng(34)
        for _ in range(3):
            px = rng.random((48, 48))
            assert np.array_equal(image_descriptor(GrayImage(px)), reference_image_descriptor(px))

    def test_image_descriptor_preprocessed_256x256(self):
        # JAFFE-sized synthetic faces after the homomorphic filter and
        # equalization, and prepared as preprocess writes them.
        for sample in generate_synthetic(classes=2, per_class=2, size=256, seed=35)[::2]:
            equalized = hist_equalize(homomorphic_filter(sample.image, HomomorphicParams()))
            prepared = prepare(sample.image, HomomorphicParams()).pixels
            for px in (equalized.pixels, prepared):
                assert np.array_equal(image_descriptor(GrayImage(px)),
                                      reference_image_descriptor(px))

    def test_cached_area_weights_are_read_only(self):
        weights = _area_weights(48, 200)
        assert weights is _area_weights(48, 200)
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0, 0] = 1.0


def edge_images():
    """(name, pixels) of inputs at the edges of the HOG angle and LBP code
    arithmetic."""
    rng = np.random.default_rng(39)
    signed_zeros = rng.random((40, 50))
    signed_zeros[rng.random(signed_zeros.shape) < 0.4] = -0.0
    signed_zeros[rng.random(signed_zeros.shape) < 0.2] = 0.0
    lines = rng.random((40, 50))
    lines[7], lines[:, 11], lines[20:30, 30:45] = 0.5, 0.25, 0.75
    # Falling rows between rows of +0.0 and -0.0: gx < 0 with gy = +0
    # (theta = pi) or gy = -0.0 (theta = -pi).
    falling = np.tile(np.linspace(1.0, 0.0, 50), (40, 1))
    falling[0::4], falling[2::4] = 0.0, -0.0
    ramp = np.add.outer(np.arange(40), 3 * np.arange(50)) % 256 / 255.0
    images = [("signed zeros", signed_zeros), ("constant lines", lines), ("theta = +-pi", falling),
              ("8-bit ramp", ramp), ("8-bit ramp transposed", ramp.T.copy()),
              ("all -0.0", np.full((30, 30), -0.0))]
    for k in range(2):
        face = GrayImage(np.rint(rng.random((48, 48)) * 255.0) / 255.0)
        images += [(f"48x48 #{k} {name}", region.pixels)
                   for name, region in crop_regions(face).items()]
    return images


class TestEdgeParity:
    """The fused HOG angle arithmetic and the buffered LBP bits against the
    cell-by-cell references, byte for byte."""

    @pytest.mark.parametrize("name,px", edge_images(), ids=[n for n, _ in edge_images()])
    def test_hog_and_lbp_match_references(self, name, px):
        for cell, bins in ((10, 9), (5, 9), (4, 6), (10, 25)):
            got = hog_descriptor(GrayImage(px), cell, bins)
            assert got.tobytes() == reference_hog(px, cell, bins).tobytes(), (cell, bins)
        assert np.array_equal(_lbp_codes(px), formula_lbp_codes(px))
        for grid in ((4, 2), (5, 5), (3, 7)):
            got = lbp_histogram(GrayImage(px), *grid)
            assert got.tobytes() == reference_lbp_histogram(px, *grid).tobytes(), grid

    def test_edge_images_reach_the_edges(self):
        images = dict(edge_images())
        gx, gy = gradients(GrayImage(images["theta = +-pi"]))
        assert ((gx < 0) & (gy == 0) & ~np.signbit(gy)).sum() > 100
        assert ((gx < 0) & (gy == 0) & np.signbit(gy)).sum() > 100
        gx, gy = gradients(GrayImage(images["signed zeros"]))
        assert (np.signbit(gx) & (gx == 0)).any() and (np.signbit(gy) & (gy == 0)).any()
        gx, gy = gradients(GrayImage(images["constant lines"]))
        assert ((gx == 0) & (gy == 0)).sum() > 50


def formula_polar(px):
    """gx, gy, q and theta as gradients and gradient_polar had them: edge
    padding and np.mod."""
    padded_x = np.pad(px, ((0, 0), (1, 1)), mode="edge")
    padded_y = np.pad(px, ((1, 1), (0, 0)), mode="edge")
    gx, gy = padded_x[:, 2:] - padded_x[:, :-2], padded_y[2:, :] - padded_y[:-2, :]
    q = np.hypot(gx, gy)
    theta = np.mod(np.arctan2(gy, gx), np.pi)
    theta = np.where(theta >= np.pi, 0.0, theta)
    return gx, gy, q, np.where(q > 0, theta, 0.0)


def formula_lbp_codes(px):
    """int64 LBP codes, one shifted comparison per neighbor."""
    h, w = px.shape
    codes = np.zeros((h - 2, w - 2), dtype=np.int64)
    for i, (dy, dx) in enumerate(((1, 2), (0, 2), (0, 1), (0, 0), (1, 0), (2, 0), (2, 1), (2, 2))):
        codes |= (px[dy : dy + h - 2, dx : dx + w - 2] >= px[1:-1, 1:-1]).astype(np.int64) << i
    return codes


def formula_reference_descriptor(px):
    """image_descriptor from the formulas it had before its speed-ups:
    formula_polar, np.mod for the bin wrap, int64 LBP codes and the cell keys
    built on every call."""
    parts = []
    for (_, (w, h), (gw, gh)), region in zip(REGIONS, crop_regions(GrayImage(px)).values()):
        r = region.pixels
        codes = formula_lbp_codes(r)
        rows = np.full(gh, (h - 2) // gh)
        rows[-1] += (h - 2) % gh
        cols = np.full(gw, (w - 2) // gw)
        cols[-1] += (w - 2) % gw
        cell = np.repeat(np.arange(gh), rows)[:, None] * gw + np.repeat(np.arange(gw), cols)
        counts = np.bincount((cell * 256 + codes).ravel(), minlength=gh * gw * 256)
        parts.append(counts.reshape(-1, 256) / np.maximum(np.outer(rows, cols).reshape(-1, 1), 1))

        _, _, q, theta = formula_polar(r)
        cy, cx = h // 10, w // 10
        q, theta = q[: cy * 10, : cx * 10], theta[: cy * 10, : cx * 10]
        t = theta / (np.pi / 9) - 0.5
        lower = np.floor(t).astype(np.int64)
        frac = t - lower
        n = cy * cx * 9
        key = np.arange(0, n, 9).reshape(cy, cx).repeat(10, 0).repeat(10, 1)
        votes_lo = np.bincount((key + np.mod(lower, 9)).ravel(), (q * (1 - frac)).ravel(), n)
        votes_hi = np.bincount((key + np.mod(lower + 1, 9)).ravel(), (q * frac).ravel(), n)
        hists = (votes_lo + votes_hi).reshape(cy, cx, 9)
        blocks = np.concatenate((hists[:-1, :-1], hists[:-1, 1:], hists[1:, :-1], hists[1:, 1:]), -1)
        norms = np.sqrt(np.vecdot(blocks, blocks) + HOG_BLOCK_EPSILON**2)
        parts.append(blocks / norms[..., None])
    return np.concatenate([p.ravel() for p in parts])


class TestDescriptorFormulas:
    def test_image_descriptor_bytes_match_formula_reference(self):
        rng = np.random.default_rng(37)
        # At 200x200 the face region is the image itself, so its gradients
        # are exact: a falling ramp has gy = 0 and gx < 0 (theta = pi) at
        # every pixel, and a flat block has zero gradients.
        ramp = np.tile(np.linspace(1.0, 0.0, 200), (200, 1))
        flat_block = rng.random((200, 200))
        flat_block[40:120, 60:160] = 0.5
        for px, kind in ((ramp, "theta = pi"), (flat_block, "zero gradient")):
            gx, gy = gradients(GrayImage(px))
            hits = (gy == 0) & (gx < 0) if kind == "theta = pi" else (gx == 0) & (gy == 0)
            assert hits.sum() > 1000, kind
        images = [ramp, flat_block, np.full((48, 48), 0.3), rng.random((48, 48)),
                  rng.integers(0, 4, size=(48, 48)) / 3.0, rng.integers(0, 256, size=(61, 53)) / 255.0]
        images += [s.image.pixels for s in generate_synthetic(classes=2, per_class=2, size=128, seed=38)[::2]]
        for k, px in enumerate(images):
            gx, gy = gradients(GrayImage(px))
            for got, want in zip((gx, gy, *gradient_polar(gx, gy)), formula_polar(px)):
                assert got.tobytes() == want.tobytes(), k
            got = image_descriptor(GrayImage(px))
            assert got.tobytes() == formula_reference_descriptor(px).tobytes(), k


class TestDescriptorCsv:
    def test_bytes_match_csv_writer_rows(self, tmp_path):
        rng = np.random.default_rng(36)
        n = IMAGE_DESCRIPTOR_LENGTH
        rows = [rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, size=n) for _ in range(3)]
        specials = [0.0, -0.0, 1e-300, 1.0 / 3.0, 123456789.0, np.inf, -np.inf, np.nan, 5e-324,
                    2.0, 0.5, 0.25, 0.125, 1.5]
        for k in range(3):
            row = rng.random(n)
            row[rng.choice(n, size=len(specials), replace=False)] = specials
            rows.append(row)
        labels = ["plain", 'a"b', "überrascht", "x,y", " padded ", ""]
        path = tmp_path / "descriptors.csv"
        write_descriptor_csv(path, rows, labels)

        # The header restated: 256 LBP bins per grid cell and 36 HOG values
        # per 2x2 block of 10-pixel cells, per region.
        header = []
        for prefix, width in zip(SEGMENT_PREFIXES, expected_segment_widths()):
            header += [f"{prefix}.{i}" for i in range(width)]
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header + ["label"])
            for values, label in zip(rows, labels):
                writer.writerow([repr(float(v)) for v in values] + [label])
        data = path.read_bytes()
        assert data == expected.read_bytes()
        assert data.startswith(b"eyes.lbp.0,eyes.lbp.1,")
        assert b",mouth.hog.1403,label\r\n" in data and b'"a""b"' in data

    @pytest.mark.parametrize("shape", [(IMAGE_DESCRIPTOR_LENGTH - 1,), (IMAGE_DESCRIPTOR_LENGTH + 1,),
                                       (1, IMAGE_DESCRIPTOR_LENGTH), ()])
    def test_wrong_width_row_refused(self, tmp_path, shape):
        rows = [np.zeros(IMAGE_DESCRIPTOR_LENGTH), np.zeros(shape)]
        path = tmp_path / "descriptors.csv"
        with pytest.raises(ValueError, match="descriptor row has shape"):
            write_descriptor_csv(path, rows, ["a", "b"])
        assert not path.exists()
