import numpy as np
import pytest

from microexpr.dataset import GrayImage
from microexpr.preprocess import (
    HomomorphicParams,
    PixelStats,
    apply_pixel_stats,
    bilinear_resize,
    fit_pixel_stats,
    gaussian_blur,
    hist_equalize,
    homomorphic_filter,
    normalize_per_image,
    rotate_bilinear,
    _blur_matrix,
    _gaussian_kernel,
)


def brute_force_blur(px, sigma):
    """Oracle: full 2-D kernel (outer product of the 1-D taps), explicit
    accumulation over every kernel offset, edge replication."""
    k1 = _gaussian_kernel(sigma)
    k2 = np.outer(k1, k1)
    r = len(k1) // 2
    padded = np.pad(px, r, mode="edge")
    out = np.zeros_like(px)
    for i in range(k2.shape[0]):
        for j in range(k2.shape[1]):
            out += k2[i, j] * padded[i : i + px.shape[0], j : j + px.shape[1]]
    return out


class TestGaussianBlur:
    def test_separable_matches_2d_oracle(self):
        rng = np.random.default_rng(11)
        for sigma in (0.6, 1.3, 2.5):
            px = rng.random((16, 16))
            assert np.abs(gaussian_blur(px, sigma) - brute_force_blur(px, sigma)).max() < 1e-10

    def test_constant_is_fixed_point(self):
        px = np.full((9, 9), 0.37)
        assert np.allclose(gaussian_blur(px, 2.0), px, atol=1e-12)

    @pytest.mark.parametrize("shape, sigma", [
        ((17, 40), 2.125), ((40, 17), 2.125), ((5, 7), 3.0), ((1, 9), 1.3), ((9, 1), 1.3),
    ], ids=["wide", "tall", "radius-past-side", "one-row", "one-column"])
    def test_band_matrices_match_2d_oracle(self, shape, sigma):
        # Unequal sides give different row and column matrices, and a radius
        # at or above the side folds several taps onto the same edge pixel.
        px = np.random.default_rng(12).random(shape)
        assert np.abs(gaussian_blur(px, sigma) - brute_force_blur(px, sigma)).max() < 1e-10

    def test_band_matrix_is_cached_and_read_only(self):
        m = _blur_matrix(17, 2.125)
        assert _blur_matrix(17, 2.125) is m
        assert not m.flags.writeable


class TestHomomorphicFilter:
    def test_unity_gains_identity_on_full_range_image(self):
        # With both gains 1 the map is img + delta, and the rescale undoes the
        # affine shift exactly when the input already spans [0,1].
        rng = np.random.default_rng(0)
        px = rng.random((8, 8))
        px[0, 0], px[-1, -1] = 0.0, 1.0
        out = homomorphic_filter(GrayImage(px), HomomorphicParams(1.0, 1.0, 0.125))
        assert np.abs(out.pixels - px).max() < 1e-9

    def test_constant_image_passes_through(self):
        img = GrayImage(np.full((6, 6), 0.5))
        out = homomorphic_filter(img, HomomorphicParams())
        assert np.array_equal(out.pixels, img.pixels)

    def test_output_in_unit_range(self):
        rng = np.random.default_rng(1)
        img = GrayImage(rng.random((12, 17)))
        out = homomorphic_filter(img, HomomorphicParams(0.4, 1.8, 0.2))
        assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0

    def test_boosts_detail_band_relative_to_illumination(self):
        # Smooth gradient times checkerboard; with gamma_low < 1 < gamma_high
        # the checkerboard (high band) must gain energy relative to the
        # gradient (low band).  Band split by an independent reference blur.
        yy, xx = np.mgrid[0:8, 0:8].astype(float)
        gradient = 0.35 + 0.3 * (xx + yy) / 14.0
        checker = 1.0 + 0.25 * ((-1.0) ** (xx + yy))
        px = gradient * checker
        img = GrayImage(px / px.max() * 0.95)

        def band_ratio(p):
            low = brute_force_blur(p, sigma=2.0)
            high = p - low
            return np.sqrt((high**2).mean()) / np.sqrt((low**2).mean())

        out = homomorphic_filter(img, HomomorphicParams(0.5, 1.5, 0.25))
        assert band_ratio(out.pixels) > band_ratio(img.pixels)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            homomorphic_filter(GrayImage(np.full((4, 4), 1.5)), HomomorphicParams())

    def test_param_invariants(self):
        with pytest.raises(ValueError):
            HomomorphicParams(gamma_low=-0.1)
        with pytest.raises(ValueError):
            HomomorphicParams(sigma_frac=1.0)


def cdf_map_oracle(values):
    """Hand evaluation of the 256-bin cdf mapping for a flat pixel list."""
    bins = [min(int(v * 256), 255) for v in values]
    counts = [0] * 256
    for b in bins:
        counts[b] += 1
    cdf = []
    running = 0
    for c in counts:
        running += c
        cdf.append(running / len(values))
    cdf_min = min(cdf[b] for b in set(bins))
    return [(cdf[b] - cdf_min) / (1 - cdf_min) for b in bins]


class TestHistEqualize:
    def test_constant_unchanged(self):
        img = GrayImage(np.full((5, 5), 0.25))
        assert np.array_equal(hist_equalize(img).pixels, img.pixels)

    def test_extremes_are_fixed_points(self):
        out = hist_equalize(GrayImage(np.array([[0.0, 1.0]])))
        assert out.pixels.tolist() == [[0.0, 1.0]]

    def test_matches_hand_evaluated_cdf(self):
        values = [0.25, 0.25, 0.5, 1.0]
        out = hist_equalize(GrayImage(np.array([values])))
        expected = cdf_map_oracle(values)
        assert expected == [0.0, 0.0, 0.5, 1.0]  # frozen hand computation
        assert np.allclose(out.pixels[0], expected, atol=1e-12)

    def test_random_images_match_oracle_and_stay_in_range(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            px = rng.integers(0, 256, size=(7, 9)) / 255.0
            out = hist_equalize(GrayImage(px))
            assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0
            expected = np.array(cdf_map_oracle(list(px.ravel()))).reshape(px.shape)
            assert np.allclose(out.pixels, expected, atol=1e-12)


class TestNormalizePerImage:
    def test_constant_maps_to_zeros(self):
        out = normalize_per_image(GrayImage(np.ones((2, 2))))
        assert np.array_equal(out.pixels, np.zeros((2, 2)))

    def test_two_pixel_case(self):
        out = normalize_per_image(GrayImage(np.array([[0.0, 2.0]])))
        assert np.allclose(out.pixels, [[-1.0, 1.0]])

    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(3)
        out = normalize_per_image(GrayImage(rng.random((10, 10))))
        assert abs(out.pixels.mean()) < 1e-9
        assert abs(out.pixels.std() - 1.0) < 1e-6


class TestPixelStats:
    def test_two_image_formula(self):
        stats = fit_pixel_stats([GrayImage(np.array([[0.0]])), GrayImage(np.array([[2.0]]))])
        assert stats.mean.tolist() == [[1.0]]
        assert stats.std.tolist() == [[1.0]]

    def test_identical_images_zero_std(self):
        img = GrayImage(np.full((3, 3), 0.5))  # dyadic, so the mean is exact
        stats = fit_pixel_stats([img, img, img])
        assert np.array_equal(stats.std, np.zeros((3, 3)))
        rough = GrayImage(np.full((3, 3), 0.4))
        assert fit_pixel_stats([rough, rough, rough]).std.max() < 1e-15

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            fit_pixel_stats([GrayImage(np.zeros((2, 2))), GrayImage(np.zeros((3, 2)))])

    def test_apply_centering(self):
        stats = PixelStats(np.full((2, 2), 0.3), np.ones((2, 2)), 1e-6)
        out = apply_pixel_stats(GrayImage(np.full((2, 2), 0.3)), stats)
        assert np.array_equal(out.pixels, np.zeros((2, 2)))

    def test_apply_epsilon_guard(self):
        stats = PixelStats(np.zeros((1, 2)), np.zeros((1, 2)), 1e-6)
        out = apply_pixel_stats(GrayImage(np.array([[1e-3, -1e-3]])), stats)
        assert np.all(np.isfinite(out.pixels))
        assert np.allclose(out.pixels, [[1e3, -1e3]])

    def test_apply_direct_formula(self):
        stats = PixelStats(np.array([[1.0]]), np.array([[2.0]]), 1e-6)
        out = apply_pixel_stats(GrayImage(np.array([[3.0]])), stats)
        assert out.pixels.tolist() == [[1.0]]

    def test_post_normalization_std_is_one(self):
        rng = np.random.default_rng(8)
        images = [GrayImage(rng.random((6, 6))) for _ in range(20)]
        stats = fit_pixel_stats(images)
        normalized = np.stack([apply_pixel_stats(img, stats).pixels for img in images])
        stds = normalized.std(axis=0)
        live = stats.std > stats.epsilon
        assert np.all(np.abs(stds[live] - 1.0) < 1e-4)

    def test_swapping_stats_changes_outputs(self):
        rng = np.random.default_rng(9)
        set_a = [GrayImage(rng.random((4, 4))) for _ in range(5)]
        set_b = [GrayImage(rng.random((4, 4)) + 0.5) for _ in range(5)]
        stats_a, stats_b = fit_pixel_stats(set_a), fit_pixel_stats(set_b)
        img = set_a[0]
        with_a = apply_pixel_stats(img, stats_a).pixels
        with_b = apply_pixel_stats(img, stats_b).pixels
        assert not np.allclose(with_a, with_b)


class TestGeometry:
    def test_bilinear_identity(self):
        rng = np.random.default_rng(2)
        px = rng.random((5, 7))
        assert np.array_equal(bilinear_resize(px, 5, 7), px)

    def test_bilinear_constant_preserved(self):
        px = np.full((48, 48), 0.6)
        out = bilinear_resize(px, 42, 42)
        assert np.allclose(out, 0.6, atol=1e-12)

    def test_rotate_zero_is_identity(self):
        rng = np.random.default_rng(4)
        px = rng.random((48, 48))
        every = [np.arange(48)]
        assert np.allclose(rotate_bilinear(px[None], [0.0], every, every)[0], px, atol=1e-12)

    def test_rotate_180_flips_both_axes(self):
        rng = np.random.default_rng(6)
        px = rng.random((9, 9))
        every = [np.arange(9)]
        assert np.allclose(rotate_bilinear(px[None], [180.0], every, every)[0], px[::-1, ::-1],
                           atol=1e-9)
