import math
import tracemalloc

import numpy as np
import pytest

from microexpr.network import (
    CONV_CHUNK,
    FusionArch,
    MlpArch,
    PAYLOAD_ALIGN,
    _arch_from_description,
    _describe_arch,
    backward,
    concat_backward,
    concat_forward,
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    dropout_backward,
    dropout_forward,
    flatten_backward,
    flatten_forward,
    forward,
    he_std,
    init_model,
    load_checkpoint,
    load_pixel_stats,
    maxpool2_backward,
    maxpool2_forward,
    relu_backward,
    relu_forward,
    save_checkpoint,
    save_pixel_stats,
    softmax,
)
from microexpr import network
from microexpr.dataset import generate_synthetic
from microexpr.evaluation import multicrop_batch
from microexpr.preprocess import PixelStats, fit_pixel_stats, normalize_per_image
from microexpr.rng import substream
from microexpr.training import TrainConfig, train

# Small fusion model whose every stage still runs: 16x16 input, 10-row crops.
TINY = dict(classes=3, input_size=16, crop_rows=10, conv1_channels=2,
            conv2_channels=3, branch_units=8, fusion_units=6)
CLASS3 = ("a", "b", "c")

FD_H = 1e-3
FD_TOL = 1e-4


def numeric_grad(f, x, h=FD_H):
    """Central finite differences of scalar f at array x."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f()
        flat[i] = orig - h
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * h)
    return grad


def assert_close_rel(analytic, numeric, tol=FD_TOL):
    """Per-component relative error with the denominator floored at a small
    fraction of the gradient's scale: components far below the scale are held
    to a proportionate absolute tolerance, since FD truncation (O(h^2)) would
    otherwise dominate their relative error."""
    a = np.asarray(analytic, dtype=float).ravel()
    n = np.asarray(numeric, dtype=float).ravel()
    scale = max(np.abs(a).max(initial=0.0), np.abs(n).max(initial=0.0), 1e-8)
    for ai, ni in zip(a, n):
        rel = abs(ai - ni) / max(abs(ai), abs(ni), 1e-3 * scale)
        assert rel < tol, f"analytic {ai} vs numeric {ni} (rel {rel}, scale {scale})"


class TestHeStd:
    def test_fan_in_two(self):
        assert he_std(2) == 1.0

    def test_fan_in_800(self):
        assert abs(he_std(800) - 0.05) < 1e-15

    def test_conv_fan_in_formula(self):
        assert he_std(3 * 3 * 16) == math.sqrt(2.0 / 144.0)

    def test_zero_fan_in_rejected(self):
        with pytest.raises(ValueError):
            he_std(0)


class TestInitModel:
    def test_biases_exactly_zero(self):
        model = init_model(FusionArch(**TINY), CLASS3, seed=0)
        for name, tensor in model.params.items():
            if name.endswith(".b"):
                assert np.array_equal(tensor, np.zeros_like(tensor))

    def test_weight_std_matches_he(self):
        arch = MlpArch(classes=7, input_dim=800, hidden_units=16)
        model = init_model(arch, tuple("abcdefg"), seed=3)
        w = model.params["hidden.w"]
        assert w.size >= 10_000
        assert abs(w.std() - 0.05) / 0.05 < 0.05
        assert abs(w.mean()) < 0.005

    def test_same_seed_bit_identical(self):
        a = init_model(FusionArch(**TINY), CLASS3, seed=11)
        b = init_model(FusionArch(**TINY), CLASS3, seed=11)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])
        assert np.array_equal(a.centers, b.centers)

    def test_momentum_and_centers_zero(self):
        model = init_model(FusionArch(**TINY), CLASS3, seed=1)
        # Optimizer state lives only inside one training call.
        assert not hasattr(model, "momentum")
        assert np.array_equal(model.centers, np.zeros((3, 6)))


class TestSoftmax:
    def test_equal_logits_uniform(self):
        probs = softmax(np.zeros((2, 7)))
        assert np.allclose(probs, 1.0 / 7.0, atol=1e-15)

    def test_closed_form_two_class(self):
        probs = softmax(np.array([[0.0, math.log(3.0)]]))
        assert np.allclose(probs, [[0.25, 0.75]], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(4, 5))
        assert np.allclose(softmax(z), softmax(z + 123.0), atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        probs = softmax(rng.normal(scale=10, size=(20, 9)))
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12
        assert probs.min() > 0.0 and probs.max() < 1.0


class TestForwardContract:
    def test_shapes(self):
        arch = FusionArch(**TINY)
        model = init_model(arch, CLASS3, seed=2)
        batch = np.random.default_rng(3).normal(size=(5, 16, 16))
        logits, features, _ = forward(model, batch, "eval")
        assert logits.shape == (5, 3)
        assert features.shape == (5, 6)

    def test_dropout_zero_train_equals_eval(self):
        """Without dropout, the eval forward of a batch is, row for row, the
        train forward of that row alone: a batch-1 gemm is the row-wise product."""
        arch = FusionArch(**TINY, dropout_p=0.0)
        model = init_model(arch, CLASS3, seed=4)
        batch = np.random.default_rng(5).normal(size=(3, 16, 16))
        eval_logits, eval_features, _ = forward(model, batch, "eval")
        for i in range(3):
            logits, features, _ = forward(model, batch[i : i + 1], "train", substream(0, 99))
            assert np.array_equal(logits[0], eval_logits[i])
            assert np.array_equal(features[0], eval_features[i])

    def test_zero_everything_gives_uniform(self):
        model = init_model(FusionArch(**TINY), CLASS3, seed=6)
        for name in model.params:
            model.params[name][...] = 0.0
        logits, _, _ = forward(model, np.zeros((2, 16, 16)), "eval")
        assert np.array_equal(logits, np.zeros((2, 3)))
        assert np.allclose(softmax(logits), 1.0 / 3.0)

    def test_eval_deterministic(self):
        model = init_model(FusionArch(**TINY), CLASS3, seed=7)
        batch = np.random.default_rng(8).normal(size=(4, 16, 16))
        a, fa, _ = forward(model, batch, "eval")
        b, fb, _ = forward(model, batch, "eval")
        assert np.array_equal(a, b) and np.array_equal(fa, fb)

    def test_shape_mismatch_rejected(self):
        model = init_model(FusionArch(**TINY), CLASS3, seed=9)
        with pytest.raises(ValueError, match="batch shape"):
            forward(model, np.zeros((2, 12, 12)), "eval")

    @pytest.mark.parametrize("kind", ["fusion", "mlp"])
    def test_eval_cache_serves_no_backward(self, kind):
        rng = np.random.default_rng(10)
        if kind == "fusion":
            model = init_model(FusionArch(**TINY), CLASS3, seed=11)
            batch = rng.normal(size=(2, 16, 16))
        else:
            model = init_model(MlpArch(classes=3, input_dim=5, hidden_units=4), CLASS3, seed=11)
            batch = rng.normal(size=(2, 5))
        logits, features, cache = forward(model, batch, "train", substream(0, 1))
        assert cache["mode"] == "train"
        assert set(backward(model, cache, np.ones_like(logits), np.ones_like(features))) \
            == set(model.params)
        logits, features, cache = forward(model, batch, "eval")
        assert cache["mode"] == "eval"
        with pytest.raises(ValueError, match="backward needs a train-mode cache"):
            backward(model, cache, np.ones_like(logits), np.ones_like(features))
        # The former row-wise eval mode is plain eval now, and its name is
        # refused (split, so that a search for the old name finds no use).
        with pytest.raises(ValueError, match="unknown mode"):
            forward(model, batch, "eval-" "rowwise")

    def test_window_larger_than_prepared_image_refused(self):
        assert FusionArch(classes=3, input_size=48).input_size == 48
        with pytest.raises(ValueError, match="input_size must be at most 48"):
            FusionArch(classes=3, input_size=49)


class TestRowwiseEval:
    """An eval forward runs its dense layers row by row, so it gives each
    item the bits of its batch-1 eval forward."""

    @pytest.mark.parametrize("kind", ["fusion", "mlp", "multicrop"])
    def test_batch_of_seven_equals_seven_batch_one_forwards(self, kind):
        rng = np.random.default_rng(43)
        if kind == "fusion":
            arch = FusionArch(classes=7)
            batch = rng.random((7, 42, 42)).astype(np.float32)
        elif kind == "mlp":
            arch = MlpArch(classes=7, input_dim=3000, hidden_units=64)
            batch = rng.random((7, 3000)).astype(np.float32)
        else:  # the ten test views of one prepared image
            arch = FusionArch(classes=7)
            batch = multicrop_batch(rng.random((48, 48)).astype(np.float32), 42)
        model = init_model(arch, tuple("abcdefg"), seed=44, dtype=np.float32)
        for name in model.params:
            if name.endswith(".b"):
                model.params[name] += rng.normal(0.0, 0.05, size=model.params[name].shape)
        logits, features, _ = forward(model, batch, "eval")
        singles = [forward(model, batch[i : i + 1], "eval") for i in range(len(batch))]
        assert logits.dtype == features.dtype == np.float32
        assert np.array_equal(logits, np.concatenate([one[0] for one in singles]))
        assert np.array_equal(features, np.concatenate([one[1] for one in singles]))
        assert np.abs(features).max() > 0.0

    def test_rowwise_dense_rows_equal_single_row_products(self):
        rng = np.random.default_rng(45)
        x = rng.normal(size=(9, 300)).astype(np.float32)
        w = rng.normal(size=(300, 40)).astype(np.float32)
        b = rng.normal(size=40).astype(np.float32)
        out, _ = dense_forward(x, w, b, rowwise=True)
        assert np.array_equal(out, np.concatenate([dense_forward(x[i : i + 1], w, b)[0]
                                                   for i in range(9)]))


class TestPackedRowwise:
    """A rowwise dense_forward over a large weight packs its column blocks
    (_packed_rowwise) and still gives each row the bits of its one-row
    product.  BLAS kernels differ between builds, so every CI numpy runs it."""

    @pytest.fixture(scope="class")
    def hidden(self):
        # The descriptor MLP's hidden layer: float32 26300x256, 27 MB.
        rng = np.random.default_rng(46)
        w = rng.normal(size=(26300, 256)).astype(np.float32)
        return w, rng.normal(size=256).astype(np.float32)

    @staticmethod
    def check_rows(x, w, b, monkeypatch):
        """Checks every row; returns whether the product was packed."""
        calls = []
        pack = network._packed_rowwise

        def counted(*args):
            calls.append(args)
            return pack(*args)

        monkeypatch.setattr(network, "_packed_rowwise", counted)
        out, _ = dense_forward(x, w, b, rowwise=True)
        for i in range(len(x)):
            assert out[i : i + 1].tobytes() == (x[i : i + 1] @ w + b).tobytes(), i
        return bool(calls)

    @pytest.mark.parametrize("rows", [1, 2, 15, 16, 17, 21, 64])
    def test_mlp_hidden_rows_equal_one_row_products(self, hidden, rows, monkeypatch):
        w, b = hidden
        x = np.random.default_rng(rows).normal(size=(rows, len(w))).astype(np.float32)
        assert self.check_rows(x, w, b, monkeypatch) == (rows >= network.PACK_MIN_ROWS)

    @pytest.mark.parametrize("shape", [(26300, 263), (256, 7), (3000, 64)],
                             ids=["width-not-a-multiple", "mlp-head", "under-size-threshold"])
    def test_other_weights_keep_the_plain_product(self, shape, monkeypatch):
        rng = np.random.default_rng(47)
        w = rng.normal(size=shape).astype(np.float32)
        x = rng.normal(size=(21, shape[0])).astype(np.float32)
        assert not self.check_rows(x, w, rng.normal(size=shape[1]).astype(np.float32),
                                   monkeypatch)


class TestLayerGradients:
    """Analytic vs central finite differences, 20 random instances per kind."""

    def test_dense(self):
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            x = rng.normal(size=(3, 5))
            w = rng.normal(size=(5, 4))
            b = rng.normal(size=4)
            up = rng.normal(size=(3, 4))

            def loss():
                return float((dense_forward(x, w, b)[0] * up).sum())

            _, cache = dense_forward(x, w, b)
            dx, dw, db = dense_backward(up, cache)
            assert_close_rel(dx, numeric_grad(loss, x))
            assert_close_rel(dw, numeric_grad(loss, w))
            assert_close_rel(db, numeric_grad(loss, b))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dense_without_input_grad(self, dtype):
        rng = np.random.default_rng(150)
        x, w = rng.normal(size=(6, 9)).astype(dtype), rng.normal(size=(9, 4)).astype(dtype)
        up = rng.normal(size=(6, 4)).astype(dtype)
        _, cache = dense_forward(x, w, np.zeros(4, dtype=dtype))
        _, dw, db = dense_backward(up, cache)
        dx, dw_only, db_only = dense_backward(up, cache, input_grad=False)
        assert dx is None
        assert dw_only.dtype == dw.dtype and dw_only.tobytes() == dw.tobytes()
        assert db_only.dtype == db.dtype and db_only.tobytes() == db.tobytes()

    def test_conv2d(self):
        for trial in range(20):
            rng = np.random.default_rng(200 + trial)
            x = rng.normal(size=(2, 2, 6, 7))
            w = rng.normal(size=(3, 2, 3, 3))
            b = rng.normal(size=3)
            up = rng.normal(size=(2, 3, 4, 5))

            def loss():
                return float((conv2d_forward(x, w, b)[0] * up).sum())

            _, cache = conv2d_forward(x, w, b)
            dx, dw, db = conv2d_backward(up, cache)
            assert_close_rel(dx, numeric_grad(loss, x))
            assert_close_rel(dw, numeric_grad(loss, w))
            assert_close_rel(db, numeric_grad(loss, b))

    def test_relu(self):
        for trial in range(20):
            rng = np.random.default_rng(300 + trial)
            x = rng.normal(size=(4, 6))
            x[np.abs(x) < 0.05] += 0.1  # keep FD away from the kink
            up = rng.normal(size=(4, 6))

            def loss():
                return float((relu_forward(x)[0] * up).sum())

            _, mask = relu_forward(x)
            assert_close_rel(relu_backward(up, mask), numeric_grad(loss, x))

    def test_maxpool2(self):
        for trial in range(20):
            rng = np.random.default_rng(400 + trial)
            # Globally distinct values with gaps well above the FD stencil, so
            # the argmax cannot switch inside +/- h.
            x = rng.permutation(np.linspace(-1.0, 1.0, 144)).reshape(2, 2, 6, 6)
            up = rng.normal(size=(2, 2, 3, 3))

            def loss():
                return float((maxpool2_forward(x)[0] * up).sum())

            _, cache = maxpool2_forward(x)
            assert_close_rel(maxpool2_backward(up, cache), numeric_grad(loss, x))

    def test_dropout_fixed_mask(self):
        for trial in range(20):
            rng = np.random.default_rng(500 + trial)
            x = rng.normal(size=(3, 8))
            up = rng.normal(size=(3, 8))
            _, cache = dropout_forward(x, 0.5, substream(trial, 1))
            mask = cache[0]

            def loss():
                return float((x * mask / 0.5 * up).sum())

            assert_close_rel(dropout_backward(up, cache), numeric_grad(loss, x))

    def test_flatten(self):
        for trial in range(20):
            rng = np.random.default_rng(600 + trial)
            x = rng.normal(size=(2, 3, 4, 2))
            up = rng.normal(size=(2, 24))

            def loss():
                return float((flatten_forward(x)[0] * up).sum())

            _, shape = flatten_forward(x)
            assert_close_rel(flatten_backward(up, shape), numeric_grad(loss, x))

    def test_concat(self):
        for trial in range(20):
            rng = np.random.default_rng(700 + trial)
            a = rng.normal(size=(3, 4))
            b = rng.normal(size=(3, 6))
            up = rng.normal(size=(3, 10))

            def loss():
                return float((concat_forward(a, b)[0] * up).sum())

            _, split = concat_forward(a, b)
            da, db = concat_backward(up, split)
            assert_close_rel(da, numeric_grad(loss, a))
            assert_close_rel(db, numeric_grad(loss, b))


class TestMaxPoolTieRouting:
    """A tied tile routes its gradient to the first maximum in tile order
    (0,0), (0,1), (1,0), (1,1); rows and columns past the last full tile get
    none.  The branch pools before its relu, which relies on the last test."""

    @staticmethod
    def pool_grad(x, dout=None):
        out, cache = maxpool2_forward(x)
        if dout is None:
            dout = np.ones_like(out)
        return out, maxpool2_backward(dout, cache)

    def test_all_equal_tile_routes_to_top_left(self):
        for value in (-1.5, 0.0, 2.0):
            out, dx = self.pool_grad(np.full((1, 1, 2, 2), value))
            assert out[0, 0, 0, 0] == value
            assert np.array_equal(dx[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_tie_between_top_right_and_bottom_left(self):
        out, dx = self.pool_grad(np.array([[[[0.5, 3.0], [3.0, -1.0]]]]))
        assert out[0, 0, 0, 0] == 3.0
        assert np.array_equal(dx[0, 0], [[0.0, 1.0], [0.0, 0.0]])

    def test_trailing_odd_row_and_column_get_no_gradient(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(2, 3, 5, 7))
        dout = rng.normal(size=(2, 3, 2, 3)) + 5.0  # nonzero everywhere
        out, dx = self.pool_grad(x, dout)
        assert out.shape == dout.shape
        assert dx.shape == x.shape
        assert not dx[:, :, 4, :].any()
        assert not dx[:, :, :, 6].any()
        tiles = dx[:, :, :4, :6].reshape(2, 3, 2, 2, 3, 2)
        assert np.array_equal((tiles != 0).sum(axis=(3, 5)), np.ones((2, 3, 2, 3)))
        assert np.array_equal(tiles.sum(axis=(3, 5)), dout)

    @pytest.mark.parametrize("shape", [(2, 3, 5, 7), (1, 2, 6, 9), (3, 1, 7, 4), (1, 1, 2, 2)])
    def test_output_without_routes_is_the_same_bits(self, shape):
        rng = np.random.default_rng(47)
        # Few distinct values, so most tiles hold ties; signed zeros tie too.
        x = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], size=shape)
        x[0, 0, :2, :2] = 1.0
        for dtype in (np.float64, np.float32):
            xd = x.astype(dtype)
            out, cache = maxpool2_forward(xd, routes=False)
            with_routes, route_cache = maxpool2_forward(xd)
            assert cache is None and route_cache[0] == xd.shape
            assert out.dtype == dtype
            assert out.tobytes() == with_routes.tobytes()
            assert np.array_equal(out, reference_pool(xd)[0])

    def test_relu_and_pool_commute_on_negative_and_tied_tiles(self):
        rng = np.random.default_rng(43)
        # Values from a small set, so most tiles hold ties, many are all
        # negative and some mix zeros with negatives.
        x = rng.choice([-2.0, -1.0, -0.5, 0.0, 1.0, 2.0], size=(3, 4, 8, 9))
        x[:, :, :4, :4] = -rng.random((3, 4, 4, 4)) - 0.1
        x[:, :, 4:, 4:6] = 1.0
        dout = rng.normal(size=(3, 4, 4, 4))

        r, mask = relu_forward(x)
        relu_first, pool_cache = maxpool2_forward(r)
        grad_relu_first = relu_backward(maxpool2_backward(dout, pool_cache), mask)

        p, pool_cache = maxpool2_forward(x)
        pool_first, mask = relu_forward(p)
        grad_pool_first = maxpool2_backward(relu_backward(dout, mask), pool_cache)

        assert np.array_equal(relu_first, pool_first)
        assert np.array_equal(grad_relu_first, grad_pool_first)


def joint_loss(model, batch, labels, lam, drop_seed):
    """CE + lam * center loss with a dropout mask pinned by drop_seed."""
    from microexpr.training import center_loss, cross_entropy

    logits, feats, cache = forward(model, batch, "train", substream(drop_seed, 0))
    probs = softmax(logits)
    onehot = np.eye(model.arch.classes)[labels]
    c_loss, dfeat = center_loss(feats, labels, model.centers)
    ce = cross_entropy(probs, onehot)
    dlogits = (probs - onehot) / len(labels)
    grads = backward(model, cache, dlogits, lam * dfeat)
    return ce + lam * c_loss, grads


def fd_probe(eval_loss, flat, i, h):
    orig = flat[i]
    flat[i] = orig + h
    hi = eval_loss()
    flat[i] = orig - h
    lo = eval_loss()
    flat[i] = orig
    return (hi - lo) / (2 * h)


class TestFusedJointLossGradient:
    def test_matches_finite_differences(self):
        # 20 instances; per instance a random sample of components from every
        # parameter tensor is probed.  FD is a valid oracle only when the net
        # is smooth across the stencil, so probes where FD at h and h/2
        # disagree are skipped (ReLU/pool switch inside the stencil), and
        # micro-kinks closer than the stencil can still bias a stray probe by
        # ~1e-4..1e-3: at least 99% of probes must meet the 1e-4 tolerance and
        # every probe must stay under 1e-3, which any real backward bug
        # (wrong scale, missing term, bad routing) exceeds on most probes.
        lam = 0.01
        checked = 0
        skipped = 0
        rels = []
        for trial in range(20):
            arch = FusionArch(**TINY, dropout_p=0.3)
            # Saturated softmax (exact float 0/1) flattens the clamped loss and
            # invalidates FD; saturated draws are rebuilt deterministically.
            for attempt in range(10):
                model = init_model(arch, CLASS3, seed=1000 + trial + 1000 * attempt)
                rng = np.random.default_rng(2000 + trial + 1000 * attempt)
                model.centers = rng.normal(size=model.centers.shape)
                for name in model.params:  # generic point: no unit parked at a kink
                    if name.endswith(".b"):
                        model.params[name] += rng.normal(0.0, 0.05, size=model.params[name].shape)
                batch = rng.normal(size=(2, 16, 16))
                labels = rng.integers(0, 3, size=2)
                logits0, _, _ = forward(model, batch, "train", substream(trial, 0))
                probe = softmax(logits0)
                if probe.min() > 1e-9 and probe.max() < 1.0 - 1e-9:
                    break
            else:
                pytest.fail("could not draw a non-saturated instance")

            _, grads = joint_loss(model, batch, labels, lam, drop_seed=trial)

            def eval_loss():
                return joint_loss(model, batch, labels, lam, drop_seed=trial)[0]

            for name, tensor in model.params.items():
                gscale = max(float(np.abs(grads[name]).max()), 1e-8)
                flat = tensor.ravel()
                picks = rng.choice(flat.size, size=min(3, flat.size), replace=False)
                for i in picks:
                    numeric = fd_probe(eval_loss, flat, i, FD_H)
                    confirm = fd_probe(eval_loss, flat, i, FD_H / 2)
                    if abs(numeric - confirm) > FD_TOL * max(abs(numeric), abs(confirm), 1e-3 * gscale):
                        skipped += 1
                        continue
                    checked += 1
                    analytic = grads[name].ravel()[i]
                    rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3 * gscale)
                    rels.append(rel)
                    assert rel < 1e-3, f"{name}[{i}]: {analytic} vs {numeric} (rel {rel})"
        assert checked >= 20 * 16 * 3 * 0.9  # at least 90% of probes were valid
        assert skipped <= checked * 0.1
        within_tol = sum(1 for r in rels if r < FD_TOL)
        assert within_tol >= 0.99 * checked, f"{checked - within_tol} probes above {FD_TOL}"

    def test_mlp_arch_matches_finite_differences(self):
        lam = 0.05
        for trial in range(5):
            arch = MlpArch(classes=3, input_dim=7, hidden_units=5, dropout_p=0.4)
            model = init_model(arch, CLASS3, seed=3000 + trial)
            rng = np.random.default_rng(4000 + trial)
            model.centers = rng.normal(size=model.centers.shape)
            batch = rng.normal(size=(3, 7))
            labels = rng.integers(0, 3, size=3)
            _, grads = joint_loss(model, batch, labels, lam, drop_seed=trial)
            for name, tensor in model.params.items():
                flat = tensor.ravel()
                for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                    orig = flat[i]
                    flat[i] = orig + FD_H
                    hi, _ = joint_loss(model, batch, labels, lam, drop_seed=trial)
                    flat[i] = orig - FD_H
                    lo, _ = joint_loss(model, batch, labels, lam, drop_seed=trial)
                    flat[i] = orig
                    assert_close_rel(
                        np.array([grads[name].ravel()[i]]),
                        np.array([(hi - lo) / (2 * FD_H)]),
                    )

    def test_zero_upstream_zero_gradients(self):
        model = init_model(FusionArch(**TINY), CLASS3, seed=5)
        batch = np.random.default_rng(6).normal(size=(2, 16, 16))
        _, feats, cache = forward(model, batch, "train", substream(1, 2))
        grads = backward(model, cache, np.zeros((2, 3)), np.zeros_like(feats))
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.values())

    def test_batch_gradient_is_mean_of_per_sample(self):
        # Linearity, run both ways: CE gradient on a 2-batch equals the mean
        # of single-sample gradients (dropout off so caches agree).
        arch = FusionArch(**TINY, dropout_p=0.0)
        model = init_model(arch, CLASS3, seed=8)
        rng = np.random.default_rng(9)
        batch = rng.normal(size=(2, 16, 16))
        labels = np.array([0, 2])

        def ce_grads(b, y):
            logits, _, cache = forward(model, b, "train", substream(0, 0))
            probs = softmax(logits)
            onehot = np.eye(3)[y]
            return backward(model, cache, (probs - onehot) / len(y),
                            np.zeros((len(y), 6)))

        full = ce_grads(batch, labels)
        first = ce_grads(batch[:1], labels[:1])
        second = ce_grads(batch[1:], labels[1:])
        for name in full:
            merged = (first[name] + second[name]) / 2.0
            assert np.allclose(full[name], merged, atol=1e-12)


def reference_conv(x, w, b):
    """Direct sum over the filter taps, in float64."""
    kh, kw = w.shape[2:]
    oh, ow = x.shape[2] - kh + 1, x.shape[3] - kw + 1
    out = np.zeros((x.shape[0], w.shape[0], oh, ow)) + b[:, None, None]
    for i in range(kh):
        for j in range(kw):
            out += np.einsum("fc,bcyx->bfyx", w[:, :, i, j], x[:, :, i : i + oh, j : j + ow])
    return out


def reference_conv_grads(dout, x, w):
    kh, kw = w.shape[2:]
    oh, ow = dout.shape[2:]
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i : i + oh, j : j + ow] += np.einsum("fc,bfyx->bcyx", w[:, :, i, j], dout)
            dw[:, :, i, j] = np.einsum("bfyx,bcyx->fc", dout, x[:, :, i : i + oh, j : j + ow])
    return dx, dw, dout.sum(axis=(0, 2, 3))


def reference_pool(x):
    """Per-tile argmax; returns the pooled map and each tile's argmax 0..3."""
    batch, ch, h, w = x.shape
    out = np.empty((batch, ch, h // 2, w // 2))
    arg = np.empty(out.shape, dtype=int)
    for ty in range(h // 2):
        for tx in range(w // 2):
            tile = x[:, :, 2 * ty : 2 * ty + 2, 2 * tx : 2 * tx + 2].reshape(batch, ch, 4)
            arg[:, :, ty, tx] = tile.argmax(axis=-1)
            out[:, :, ty, tx] = tile.max(axis=-1)
    return out, arg


def reference_unpool(dout, arg, shape):
    dx = np.zeros(shape)
    bi, ci = np.indices(arg.shape[:2])
    for ty in range(arg.shape[2]):
        for tx in range(arg.shape[3]):
            k = arg[:, :, ty, tx]
            dx[bi, ci, 2 * ty + k // 2, 2 * tx + k % 2] = dout[:, :, ty, tx]
    return dx


def reference_branch_forward(x2d, params, prefix, mode):
    """conv -> relu -> pool twice, then fc -> relu, from the reference kernels.
    The fc is one product in every mode: the row-by-row dense of an eval
    forward changes only its rounding."""
    x = x2d[:, None, :, :]
    h1 = reference_conv(x, params[f"{prefix}.conv1.w"], params[f"{prefix}.conv1.b"])
    p1, arg1 = reference_pool(np.maximum(h1, 0.0))
    h2 = reference_conv(p1, params[f"{prefix}.conv2.w"], params[f"{prefix}.conv2.b"])
    p2, arg2 = reference_pool(np.maximum(h2, 0.0))
    flat = p2.reshape(len(x), -1)
    d = flat @ params[f"{prefix}.fc.w"] + params[f"{prefix}.fc.b"]
    return np.maximum(d, 0.0), (x, h1, arg1, p1, h2, arg2, flat, d, params)


def reference_branch_backward(dact, cache, grads, prefix):
    x, h1, arg1, p1, h2, arg2, flat, d, params = cache
    dd = dact * (d > 0)
    grads[f"{prefix}.fc.w"], grads[f"{prefix}.fc.b"] = flat.T @ dd, dd.sum(axis=0)
    dp2 = (dd @ params[f"{prefix}.fc.w"].T).reshape(arg2.shape)
    dh2 = reference_unpool(dp2, arg2, h2.shape) * (h2 > 0)
    dp1, grads[f"{prefix}.conv2.w"], grads[f"{prefix}.conv2.b"] = reference_conv_grads(
        dh2, p1, params[f"{prefix}.conv2.w"])
    dh1 = reference_unpool(dp1, arg1, h1.shape) * (h1 > 0)
    _, grads[f"{prefix}.conv1.w"], grads[f"{prefix}.conv1.b"] = reference_conv_grads(
        dh1, x, params[f"{prefix}.conv1.w"])


class TestRealShapeParity:
    """The default arch (42x42 face, 14x42 eye and mouth crops) in float64
    against branches built from a direct-sum conv and a per-tile argmax pool
    in the conv -> relu -> pool order."""

    def test_forward_and_backward_match_reference(self, monkeypatch):
        from microexpr import network

        arch = FusionArch(classes=7)
        model = init_model(arch, tuple("abcdefg"), seed=31)
        rng = np.random.default_rng(32)
        for name in model.params:
            if name.endswith(".b"):
                model.params[name] += rng.normal(0.0, 0.05, size=model.params[name].shape)
        batch = rng.normal(size=(3, 42, 42))
        dlogits = rng.normal(size=(3, 7))
        dfeatures = rng.normal(size=(3, arch.feature_dim))

        def run():
            eval_logits, eval_features, _ = forward(model, batch, "eval")
            logits, features, cache = forward(model, batch, "train", substream(33, 0))
            grads = backward(model, cache, dlogits, dfeatures)
            return {"eval_logits": eval_logits, "eval_features": eval_features,
                    "logits": logits, "features": features, **grads}

        got = run()
        monkeypatch.setattr(network, "_branch_forward", reference_branch_forward)
        monkeypatch.setattr(network, "_branch_backward", reference_branch_backward)
        want = run()

        assert set(got) == set(want) == {"eval_logits", "eval_features", "logits",
                                         "features", *model.params}
        for name, ref in want.items():
            assert got[name].shape == ref.shape, name
            assert np.abs(ref).max() > 0.0, name
            err = np.abs(got[name] - ref).max() / np.abs(ref).max()
            assert err < 1e-10, f"{name}: relative error {err}"


def unchunked_conv_forward(x, w, b):
    """conv2d_forward as one im2col matrix over the whole batch, kept in the
    cache: the form the CONV_CHUNK blocks must reproduce bit for bit."""
    batch, in_c, h, width = x.shape
    filters, _, kh, kw = w.shape
    oh, ow = h - kh + 1, width - kw + 1
    cols = np.empty((batch, in_c, kh * kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i * kw + j] = x[:, :, i : i + oh, j : j + ow]
    cols = cols.reshape(batch, in_c * kh * kw, oh * ow)
    out = w.reshape(filters, -1) @ cols
    out += b[:, None]
    return out.reshape(batch, filters, oh, ow), (x.shape, w, cols)


def unchunked_conv_backward(dout, cache, input_grad=True):
    x_shape, w, cols = cache
    batch, in_c, h, width = x_shape
    filters, _, kh, kw = w.shape
    oh, ow = h - kh + 1, width - kw + 1
    dflat = dout.reshape(batch, filters, oh * ow)
    dw = (dflat @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    db = dflat.sum(axis=(0, 2))
    if not input_grad:
        return None, dw, db
    dcols = (w.reshape(filters, -1).T @ dflat).reshape(batch, in_c, kh * kw, oh, ow)
    dx = np.zeros(x_shape, dtype=dout.dtype)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i : i + oh, j : j + ow] += dcols[:, :, i * kw + j]
    return dx, dw, db


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestConvChunks:
    """conv2d_forward and conv2d_backward walk the batch CONV_CHUNK items at a
    time and keep no im2col matrix; their results are the unchunked ones."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunk_straddling_batches_match_unchunked_bytes(self, dtype):
        for batch in (1, CONV_CHUNK - 1, CONV_CHUNK, CONV_CHUNK + 1, 2 * CONV_CHUNK + 3):
            rng = np.random.default_rng(batch)
            x = rng.normal(size=(batch, 3, 9, 8)).astype(dtype)
            w = rng.normal(size=(4, 3, 3, 3)).astype(dtype)
            b = rng.normal(size=4).astype(dtype)
            up = rng.normal(size=(batch, 4, 7, 6)).astype(dtype)
            out, cache = conv2d_forward(x, w, b)
            ref_out, ref_cache = unchunked_conv_forward(x, w, b)
            assert same_bytes(out, ref_out), batch
            for input_grad in (True, False):
                got = conv2d_backward(up, cache, input_grad)
                want = unchunked_conv_backward(up, ref_cache, input_grad)
                again = conv2d_backward(up, cache, input_grad)
                if not input_grad:
                    assert got[0] is None and again[0] is None
                    got, want, again = got[1:], want[1:], again[1:]
                for g, r, a in zip(got, want, again):
                    assert same_bytes(g, r), (batch, input_grad)
                    assert same_bytes(a, g), (batch, input_grad)

    def test_fusion_step_peak_memory(self):
        # A batch-256 float32 step peaked at 175.5 MiB with the whole batch's
        # im2col matrix cached, 97.2 MiB with blocks.  numpy reports its array
        # allocations to tracemalloc, so the figure does not depend on malloc.
        model = init_model(FusionArch(classes=7), tuple("abcdefg"), seed=1, dtype=np.float32)
        batch = np.random.default_rng(2).random((256, 42, 42), dtype=np.float32)
        tracemalloc.start()
        try:
            logits, features, cache = forward(model, batch, "train", substream(3, 0))
            backward(model, cache, np.ones_like(logits), np.ones_like(features))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 120 * 2**20, f"step peaked at {peak / 2**20:.1f} MiB"


class TestDropout:
    def test_inverted_scaling_preserves_expectation(self):
        rng = substream(42, 7)
        x = np.ones((100, 1000))  # 10^5 mask draws in one shot
        out, _ = dropout_forward(x, 0.5, rng)
        assert abs(out.mean() - 1.0) < 0.01

    def test_eval_path_identity(self):
        x = np.random.default_rng(1).normal(size=(4, 4))
        assert np.array_equal(dropout_backward(x, None), x)

    def test_zero_probability_identity(self):
        x = np.random.default_rng(2).normal(size=(3, 3))
        out, cache = dropout_forward(x, 0.0, None)
        assert np.array_equal(out, x) and cache is None


class TestCheckpoint:
    def _model(self, with_stats=True):
        model = init_model(FusionArch(**TINY, dropout_p=0.25), CLASS3, seed=21)
        rng = np.random.default_rng(22)
        model.centers = rng.normal(size=model.centers.shape)
        if with_stats:
            model.pixel_stats = PixelStats(rng.random((48, 48)), rng.random((48, 48)) + 0.1, 1e-6)
        return model

    def test_round_trip_preserves_everything_to_f32(self, tmp_path):
        model = self._model()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.arch == model.arch
        assert loaded.class_names == model.class_names
        for name in model.params:
            assert np.array_equal(loaded.params[name],
                                  model.params[name].astype(np.float32))
        assert np.array_equal(loaded.centers, model.centers.astype(np.float32))
        assert loaded.pixel_stats is not None

    def test_save_is_deterministic(self, tmp_path):
        model = self._model()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, model)
        save_checkpoint(b, model)
        assert a.read_bytes() == b.read_bytes()

    def test_double_round_trip_is_stable(self, tmp_path):
        model = self._model()
        first = tmp_path / "first.ckpt"
        second = tmp_path / "second.ckpt"
        save_checkpoint(first, model)
        save_checkpoint(second, load_checkpoint(first))
        assert first.read_bytes() == second.read_bytes()

    def test_trained_checkpoint_holds_no_optimizer_state(self, tmp_path):
        samples = generate_synthetic(3, 4, 48, 13)
        model = init_model(FusionArch(**TINY, dropout_p=0.25), CLASS3, seed=2, dtype=np.float32)
        model.pixel_stats = fit_pixel_stats([normalize_per_image(s.image) for s in samples])
        model, _ = train(model, samples, TrainConfig(batch_size=5, max_epochs=3, seed=2))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)

        data = path.read_bytes()
        header = data[: data.index(b"\nend\n") + len(b"\nend\n")]
        assert b"momentum:" not in header
        elements = (sum(p.size for p in model.params.values()) + model.centers.size
                    + model.pixel_stats.mean.size + model.pixel_stats.std.size + 1)
        assert len(data) == len(header) + 4 * elements
        assert not hasattr(load_checkpoint(path), "momentum")

    @pytest.mark.parametrize("tensor,value", [("fuse2.b", np.nan), ("head.w", -np.inf),
                                              ("centers", np.inf)])
    def test_non_finite_tensor_refused(self, tmp_path, tensor, value):
        model = self._model()
        target = model.centers if tensor == "centers" else model.params[tensor]
        target.flat[target.size // 2] = value
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, model)
        name = tensor if tensor == "centers" else f"param:{tensor}"
        with pytest.raises(ValueError, match=f"tensor {name} holds non-finite values"):
            load_checkpoint(path)

    def test_non_ascii_class_name_writes_no_file(self, tmp_path):
        arch = MlpArch(classes=2, input_dim=3, hidden_units=2)
        model = init_model(arch, ("happy", "überrascht"), seed=0)
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError):
            save_checkpoint(path, model)
        assert not path.exists()

    def test_magic_enforced(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"WRONG\n")
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(bad)

    def test_no_stats_round_trip(self, tmp_path):
        model = self._model(with_stats=False)
        path = tmp_path / "nostat.ckpt"
        save_checkpoint(path, model)
        assert load_checkpoint(path).pixel_stats is None

    @pytest.mark.parametrize("arch,line", [
        (FusionArch(classes=7),
         "arch fusion classes=7 input_size=42 crop_rows=14 conv1_channels=16 conv2_channels=32 "
         "branch_units=128 fusion_units=128 dropout_p=0.5"),
        (MlpArch(classes=7, input_dim=26300),
         "arch mlp classes=7 input_dim=26300 hidden_units=256 dropout_p=0.5"),
    ], ids=["fusion", "mlp"])
    def test_arch_header_text(self, tmp_path, arch, line):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_model(arch, tuple(f"C{k}" for k in range(7)), seed=0))
        header = path.read_bytes().split(b"\n")[:3]
        assert header == [b"MFETENSOR1", line.encode(), b"classes C0,C1,C2,C3,C4,C5,C6"]

    @pytest.mark.parametrize("arch", [
        FusionArch(**TINY, dropout_p=0.25),
        MlpArch(classes=4, input_dim=11, hidden_units=5, dropout_p=0.125),
    ], ids=["fusion", "mlp"])
    def test_arch_line_round_trips_non_default_fields(self, arch):
        assert _arch_from_description(_describe_arch(arch)) == arch

    def test_forward_agrees_after_round_trip(self, tmp_path):
        model = self._model(with_stats=False)
        path = tmp_path / "fw.ckpt"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        batch = np.random.default_rng(23).normal(size=(2, 16, 16))
        a, _, _ = forward(model, batch, "eval")
        b, _, _ = forward(loaded, batch, "eval")
        assert np.abs(a - b).max() < 1e-4  # float32 storage quantization

    @staticmethod
    def _header_len(data: bytes) -> int:
        return data.index(b"\nend\n") + len(b"\nend\n")

    @staticmethod
    def _tensors(model):
        stats = model.pixel_stats
        return {**model.params, "centers": model.centers,
                **({} if stats is None else {"mean": stats.mean, "std": stats.std})}

    def _assert_same_tensors(self, loaded, model):
        expected = self._tensors(model)
        got = self._tensors(loaded)
        assert got.keys() == expected.keys()
        for name, tensor in expected.items():
            assert np.array_equal(got[name], tensor.astype(np.float32)), name

    def test_payloads_start_on_the_alignment_boundary(self, tmp_path):
        model = self._model()
        ckpt, stats = tmp_path / "model.ckpt", tmp_path / "pixel_stats.bin"
        save_checkpoint(ckpt, model)
        save_pixel_stats(stats, model.pixel_stats)
        for path in (ckpt, stats):
            assert self._header_len(path.read_bytes()) % PAYLOAD_ALIGN == 0
        self._assert_same_tensors(load_checkpoint(ckpt), model)
        loaded = load_pixel_stats(stats)
        assert np.array_equal(loaded.mean, model.pixel_stats.mean.astype(np.float32))
        assert np.array_equal(loaded.std, model.pixel_stats.std.astype(np.float32))

    def test_loaded_tensors_are_aligned_writable_and_private(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self._model())
        before = path.read_bytes()
        loaded = load_checkpoint(path)
        for name, tensor in self._tensors(loaded).items():
            assert tensor.flags.aligned and tensor.flags.writeable, name
        loaded.params["head.w"][...] = 7.0
        loaded.centers += 1.0
        assert path.read_bytes() == before

    def test_file_without_padding_loads_the_same_tensors(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        data = path.read_bytes()
        header_len = self._header_len(data)
        unpadded = b"\n".join(line.rstrip(b" ") for line in data[:header_len].split(b"\n"))
        assert len(unpadded) % 4  # every payload is misaligned in the mapped file
        path.write_bytes(unpadded + data[header_len:])
        loaded = load_checkpoint(path)
        self._assert_same_tensors(loaded, model)
        assert all(t.flags.aligned for t in self._tensors(loaded).values())

    def test_save_over_a_mapped_checkpoint(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self._model())
        mapped = load_checkpoint(path)
        kept = {name: t.copy() for name, t in self._tensors(mapped).items()}
        replacement = init_model(FusionArch(**TINY, dropout_p=0.25), CLASS3, seed=99)
        save_checkpoint(path, replacement)
        for name, tensor in self._tensors(mapped).items():
            assert np.array_equal(tensor, kept[name]), name
        self._assert_same_tensors(load_checkpoint(path), replacement)

    def test_failed_write_leaves_the_old_file_whole(self, tmp_path):
        path = tmp_path / "model.ckpt"
        model = self._model()
        save_checkpoint(path, model)
        before = path.read_bytes()
        # head.b follows every other parameter, so its payload fails partway through.
        model.params["head.b"] = np.full(model.params["head.b"].shape, "x")
        with pytest.raises(ValueError):
            save_checkpoint(path, model)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_write_keeps_a_symlink_and_a_plain_file_mode(self, tmp_path):
        real, link, plain = tmp_path / "real.ckpt", tmp_path / "link.ckpt", tmp_path / "plain"
        link.symlink_to(real)
        save_checkpoint(link, self._model())
        with open(plain, "wb"):
            pass
        assert link.is_symlink() and real.is_file()
        assert real.stat().st_mode == plain.stat().st_mode


class TestTensorFileFuzz:
    """Truncated files and header byte flips: the loaders return or raise
    ValueError, which the CLI maps to exit 1, and never raise anything else."""

    @pytest.mark.parametrize("kind", ["checkpoint", "stats"])
    def test_truncations_and_header_flips(self, tmp_path, kind):
        rng = np.random.default_rng(41)
        stats = PixelStats(rng.random((16, 16)), rng.random((16, 16)) + 0.1, 1e-6)
        path = tmp_path / kind
        if kind == "checkpoint":
            model = init_model(FusionArch(**TINY), CLASS3, seed=40)
            model.pixel_stats = stats
            save_checkpoint(path, model)
            load = load_checkpoint
        else:
            save_pixel_stats(path, stats)
            load = load_pixel_stats
        data = path.read_bytes()
        header_len = data.index(b"\nend\n") + len(b"\nend\n")
        alphabet = list(b"\n ,:.=019aenst\xff")
        for case in range(20):
            if case % 2:
                bad = data[: rng.integers(0, header_len if case % 4 == 1 else len(data))]
            else:
                flipped = bytearray(data)
                for i in rng.integers(0, header_len, size=rng.integers(1, 4)):
                    flipped[i] = rng.choice(alphabet)
                bad = bytes(flipped)
            path.write_bytes(bad)
            try:
                load(path)
            except ValueError:
                pass
