import csv
import math

import numpy as np
import pytest

from microexpr.dataset import GrayImage, generate_synthetic
from microexpr.features import (
    HOG_BLOCK_EPSILON,
    IMAGE_DESCRIPTOR_LENGTH,
    FeatureConfig,
    FeatureDescriptor,
    _area_weights,
    _lbp_codes,
    avg_pool_resize,
    crop_regions,
    gradient_polar,
    gradients,
    handcrafted_descriptor,
    hog_descriptor,
    image_descriptor,
    lbp_code,
    lbp_histogram,
    write_descriptor_csv,
)
from microexpr.preprocess import (
    HomomorphicParams,
    bilinear_resize,
    hist_equalize,
    homomorphic_filter,
)


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
        assert (regions.eyes.width, regions.eyes.height) == (140, 40)
        assert (regions.face.width, regions.face.height) == (200, 200)
        assert (regions.mouth.width, regions.mouth.height) == (140, 40)

    def test_row_bands(self):
        # Mark the top and bottom thirds; eyes/mouth must average to the marks.
        px = np.zeros((48, 48))
        px[:16] = 1.0
        px[32:] = 0.5
        regions = crop_regions(GrayImage(px))
        assert np.allclose(regions.eyes.pixels, 1.0, atol=1e-12)
        assert np.allclose(regions.mouth.pixels, 0.5, atol=1e-12)

    def test_constant_preserved(self):
        regions = crop_regions(GrayImage(np.full((30, 20), 0.7)))
        for region in (regions.eyes, regions.face, regions.mouth):
            assert np.allclose(region.pixels, 0.7, atol=1e-12)

    def test_any_input_same_output_shapes(self):
        regions = crop_regions(GrayImage(np.random.default_rng(4).random((300, 300))))
        assert regions.eyes.pixels.shape == (40, 140)
        assert regions.face.pixels.shape == (200, 200)

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(5)
        px = rng.random((24, 24))
        sym = (px + px[:, ::-1]) / 2.0
        regions = crop_regions(GrayImage(sym))
        flipped = crop_regions(GrayImage(sym[:, ::-1]))
        assert np.allclose(regions.eyes.pixels, flipped.eyes.pixels[:, ::-1], atol=1e-12)
        assert np.allclose(regions.mouth.pixels, flipped.mouth.pixels[:, ::-1], atol=1e-12)

    def test_degenerate_input_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            crop_regions(GrayImage(np.zeros((2, 8))))


class TestLbpCode:
    def test_worked_example(self):
        # Center 5, neighbors (east, counter-clockwise) 6,4,5,3,7,2,8,1.
        window = np.array([[3.0, 5.0, 4.0], [7.0, 5.0, 6.0], [2.0, 8.0, 1.0]])
        assert lbp_code(window) == 85
        assert oracle_lbp(window) == 85

    def test_all_equal_gives_255(self):
        assert lbp_code(np.full((3, 3), 0.3)) == 255

    def test_all_below_center_gives_0(self):
        window = np.zeros((3, 3))
        window[1, 1] = 1.0
        assert lbp_code(window) == 0

    def test_matches_oracle_on_random_windows(self):
        rng = np.random.default_rng(6)
        for _ in range(10_000):
            window = rng.random((3, 3))
            assert lbp_code(window) == oracle_lbp(window)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            window = rng.random((3, 3))
            transformed = np.exp(2.0 * window) + 1.0  # strictly increasing
            assert lbp_code(window) == lbp_code(transformed)


class TestLbpHistogram:
    def test_constant_image_all_codes_255(self):
        desc = lbp_histogram(GrayImage(np.full((6, 6), 0.5)), 1, 1)
        expected = np.zeros(256)
        expected[255] = 1.0
        assert np.array_equal(desc.values, expected)

    def test_grid_shape_contract(self):
        desc = lbp_histogram(GrayImage(np.random.default_rng(8).random((10, 10))), 2, 2)
        assert desc.values.size == 4 * 256
        assert [name for name, _, _ in desc.layout] == [
            "cell0_0", "cell0_1", "cell1_0", "cell1_1"
        ]

    def test_matches_brute_force_counting(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            px = rng.random((5, 5))
            desc = lbp_histogram(GrayImage(px), 1, 1)
            counts = np.zeros(256)
            for y in range(1, 4):
                for x in range(1, 4):
                    counts[oracle_lbp(px[y - 1 : y + 2, x - 1 : x + 2])] += 1
            assert np.array_equal(desc.values, counts / 9.0)

    def test_cells_sum_to_one_or_zero(self):
        rng = np.random.default_rng(10)
        desc = lbp_histogram(GrayImage(rng.random((9, 11))), 3, 2)
        for name, offset, length in desc.layout:
            total = desc.values[offset : offset + length].sum()
            assert abs(total - 1.0) < 1e-12 or total == 0.0
        assert np.all(desc.values >= 0)

    def test_empty_cells_allowed(self):
        # 3-pixel interior split over 4 columns: first cells empty, rest used.
        desc = lbp_histogram(GrayImage(np.random.default_rng(11).random((5, 5))), 4, 1)
        sums = [desc.values[o : o + n].sum() for _, o, n in desc.layout]
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
        assert desc.values.size == 36
        assert np.array_equal(desc.values, np.zeros(36))

    def test_shape_formula(self):
        desc = hog_descriptor(GrayImage(np.random.default_rng(13).random((30, 40))), 10, 9)
        cells_x, cells_y = 4, 3
        assert desc.values.size == (cells_x - 1) * (cells_y - 1) * 4 * 9

    def test_brightness_shift_invariance_exact(self):
        rng = np.random.default_rng(14)
        px = rng.integers(0, 256, size=(20, 20)) / 256.0  # dyadic grid
        shifted = px + 32 / 256.0  # exact in binary floating point
        a = hog_descriptor(GrayImage(px), 5, 9)
        b = hog_descriptor(GrayImage(shifted), 5, 9)
        assert np.array_equal(a.values, b.values)

    def test_scale_invariance_of_block_normalized_output(self):
        rng = np.random.default_rng(15)
        px = rng.random((20, 20))
        base = hog_descriptor(GrayImage(px), 5, 9)
        for k in (0.5, 2.0):
            scaled = hog_descriptor(GrayImage(px * k), 5, 9)
            assert np.abs(scaled.values - base.values).max() < 1e-6

    def test_image_smaller_than_cell_rejected(self):
        with pytest.raises(ValueError, match="smaller than one"):
            hog_descriptor(GrayImage(np.zeros((4, 20))), 5, 9)


def expected_descriptor_length(cfg):
    """Independent evaluation of the segment-length formulas."""
    total = 0
    for (w, h), (gw, gh) in (((140, 40), cfg.eyes_lbp_grid),
                             ((200, 200), cfg.face_lbp_grid),
                             ((140, 40), cfg.mouth_lbp_grid)):
        total += gw * gh * 256
        cx, cy = w // cfg.hog_cell, h // cfg.hog_cell
        total += (cx - 1) * (cy - 1) * 4 * cfg.hog_bins
    return total


class TestHandcraftedDescriptor:
    @pytest.mark.parametrize("size", [48, 256])
    def test_image_descriptor_length_known_up_front(self, size):
        img = GrayImage(np.random.default_rng(size).random((size, size)))
        assert IMAGE_DESCRIPTOR_LENGTH == image_descriptor(img).values.size
        assert IMAGE_DESCRIPTOR_LENGTH == expected_descriptor_length(FeatureConfig())

    def test_default_length_and_fixed_layout(self):
        regions = crop_regions(GrayImage(np.random.default_rng(16).random((48, 48))))
        desc = handcrafted_descriptor(regions, FeatureConfig())
        assert desc.values.size == expected_descriptor_length(FeatureConfig())
        assert [name for name, _, _ in desc.layout] == [
            "eyes.lbp", "eyes.hog", "face.lbp", "face.hog", "mouth.lbp", "mouth.hog"
        ]

    def test_deterministic(self):
        px = np.random.default_rng(17).random((48, 48))
        a = handcrafted_descriptor(crop_regions(GrayImage(px)), FeatureConfig())
        b = handcrafted_descriptor(crop_regions(GrayImage(px)), FeatureConfig())
        assert np.array_equal(a.values, b.values)

    def test_constant_regions(self):
        from microexpr.features import RegionSet

        regions = RegionSet(
            eyes=GrayImage(np.full((40, 140), 0.3)),
            face=GrayImage(np.full((200, 200), 0.3)),
            mouth=GrayImage(np.full((40, 140), 0.3)),
        )
        desc = handcrafted_descriptor(regions, FeatureConfig())
        for region in ("eyes", "face", "mouth"):
            lbp = desc.segment(f"{region}.lbp").reshape(-1, 256)
            assert np.array_equal(lbp[:, 255], np.ones(len(lbp)))
            assert lbp.sum() == len(lbp)
            assert np.array_equal(desc.segment(f"{region}.hog"),
                                  np.zeros_like(desc.segment(f"{region}.hog")))


class TestFeatureDescriptor:
    def test_layout_must_be_contiguous(self):
        with pytest.raises(ValueError, match="contiguous"):
            FeatureDescriptor(np.zeros(4), (("a", 0, 2), ("b", 3, 1)))

    def test_layout_must_cover_vector(self):
        with pytest.raises(ValueError, match="covers"):
            FeatureDescriptor(np.zeros(4), (("a", 0, 2),))

    def test_segment_lookup(self):
        desc = FeatureDescriptor(np.arange(5.0), (("a", 0, 2), ("b", 2, 3)))
        assert desc.segment("b").tolist() == [2.0, 3.0, 4.0]
        with pytest.raises(KeyError):
            desc.segment("c")


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
    cfg = FeatureConfig()
    parts = []
    for region, grid in ((regions.eyes, cfg.eyes_lbp_grid), (regions.face, cfg.face_lbp_grid),
                         (regions.mouth, cfg.mouth_lbp_grid)):
        parts.append(reference_lbp_histogram(region.pixels, *grid))
        parts.append(reference_hog(region.pixels, cfg.hog_cell, cfg.hog_bins))
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
                got = hog_descriptor(GrayImage(px), cell, bins).values
                assert np.array_equal(got, reference_hog(px, cell, bins)), (cell, bins, px.shape)

    def test_hog_quantized_pixels(self):
        # 8-bit pixels give repeated angles and zero gradients, as loaded images do.
        rng = np.random.default_rng(31)
        for cell, bins in ((5, 9), (10, 9), (4, 6)):
            px = rng.integers(0, 4, size=(43, 37)) / 3.0
            got = hog_descriptor(GrayImage(px), cell, bins).values
            assert np.array_equal(got, reference_hog(px, cell, bins))

    def test_hog_one_cell_high_gives_no_blocks(self):
        px = np.random.default_rng(32).random((7, 30))
        got = hog_descriptor(GrayImage(px), 5, 9)
        assert got.values.size == 0
        assert got.layout == (("hog", 0, 0),)
        assert np.array_equal(got.values, reference_hog(px, 5, 9))

    def test_lbp_grids_with_empty_and_partial_cells(self):
        rng = np.random.default_rng(33)
        for shape, grid in (((5, 5), (4, 1)), ((5, 5), (1, 4)), ((6, 9), (8, 5)),
                            ((9, 11), (3, 2)), ((40, 140), (4, 2)), ((23, 17), (6, 7)),
                            ((3, 3), (2, 2)), ((200, 200), (5, 5))):
            px = rng.random(shape)
            got = lbp_histogram(GrayImage(px), grid[0], grid[1])
            assert np.array_equal(got.values, reference_lbp_histogram(px, *grid)), (shape, grid)
            assert [name for name, _, _ in got.layout] == [
                f"cell{r}_{c}" for r in range(grid[1]) for c in range(grid[0])
            ]

    def test_image_descriptor_48x48(self):
        rng = np.random.default_rng(34)
        for _ in range(3):
            px = rng.random((48, 48))
            assert np.array_equal(image_descriptor(GrayImage(px)).values,
                                  reference_image_descriptor(px))

    def test_image_descriptor_preprocessed_256x256(self):
        # JAFFE-sized synthetic faces after the homomorphic filter and
        # equalization, as they are before and after the final 48x48 resize.
        for sample in generate_synthetic(classes=2, per_class=2, size=256, seed=35)[::2]:
            equalized = hist_equalize(homomorphic_filter(sample.image, HomomorphicParams()))
            resized = bilinear_resize(equalized.pixels, 48, 48)
            prepared = np.rint(np.clip(resized, 0.0, 1.0) * 255.0) / 255.0
            for px in (equalized.pixels, prepared):
                assert np.array_equal(image_descriptor(GrayImage(px)).values,
                                      reference_image_descriptor(px))

    def test_cached_area_weights_are_read_only(self):
        weights = _area_weights(48, 200)
        assert weights is _area_weights(48, 200)
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0, 0] = 1.0


class TestDescriptorCsv:
    def test_bytes_match_csv_writer_rows(self, tmp_path):
        rng = np.random.default_rng(36)
        layout = (("a", 0, 3), ("b", 3, 2))
        rows = [rng.normal(size=5) * 10.0 ** rng.integers(-8, 8, size=5) for _ in range(3)]
        rows.append(np.array([0.0, -0.0, 1e-300, 1.0 / 3.0, 123456789.0]))
        rows.append(np.array([np.inf, -np.inf, np.nan, 5e-324, 1.0]))
        rows.append(np.array([2.0, 0.5, 0.25, 0.125, 1.5]))
        labels = ["plain", 'a"b', "überrascht", "x,y", " padded ", ""]
        descs = [FeatureDescriptor(v, layout) for v in rows]
        path = tmp_path / "descriptors.csv"
        write_descriptor_csv(path, descs, labels)

        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a.0", "a.1", "a.2", "b.0", "b.1", "label"])
            for values, label in zip(rows, labels):
                writer.writerow([repr(float(v)) for v in values] + [label])
        assert path.read_bytes() == expected.read_bytes()
        assert b'"a""b"' in path.read_bytes() and b"\r\n" in path.read_bytes()
