import math

import numpy as np
import pytest

from microexpr.dataset import GrayImage, LabeledSample, generate_synthetic
from microexpr.features import IMAGE_DESCRIPTOR_LENGTH, image_descriptor
from microexpr.network import (
    FusionArch,
    MlpArch,
    backward,
    dense_backward,
    dense_forward,
    dropout_backward,
    dropout_forward,
    forward,
    init_model,
    relu_backward,
    relu_forward,
    softmax,
)
from microexpr.preprocess import bilinear_resize, rotate_bilinear
from microexpr.rng import STREAM_DROPOUT, STREAM_SHUFFLE, substream
from microexpr.training import (
    SGD_BLOCK,
    AugmentParams,
    NonFiniteLossError,
    TrainConfig,
    TrainLog,
    EpochRecord,
    apply_augment,
    center_loss,
    cross_entropy,
    cross_entropy_grad_logits,
    draw_augment_params,
    lr_schedule,
    model_input,
    sgd_momentum_step,
    train,
    train_on_rows,
    update_centers,
)

CLASS3 = ("a", "b", "c")

# Small-but-real trainer arch at the default 42x42 window.
SMALL_ARCH = dict(classes=3, conv1_channels=4, conv2_channels=8,
                  branch_units=32, fusion_units=32)


def small_corpus(per_class=8, classes=3, seed=13):
    return generate_synthetic(classes, per_class, 48, seed)


class TestAugment:
    def test_output_always_42x42(self):
        rng = substream(0, 1)
        img = GrayImage(np.random.default_rng(0).random((48, 48)))
        for _ in range(200):
            out = apply_augment(img, draw_augment_params(rng, 42), 42)
            assert (out.height, out.width) == (42, 42)

    def test_identity_path_is_pure_downscale(self):
        px = np.random.default_rng(1).random((48, 48))
        out = apply_augment(
            GrayImage(px), AugmentParams(False, 0.0, 42, 0, 0), 42
        )
        assert np.array_equal(out.pixels, bilinear_resize(px, 42, 42))

    def test_draw_statistics(self):
        rng = substream(7, 2)
        params = [draw_augment_params(rng, 42) for _ in range(10_000)]
        mirror_rate = np.mean([p.mirror for p in params])
        assert 0.48 <= mirror_rate <= 0.52
        angles = np.array([p.angle_deg for p in params])
        assert angles.min() >= -45.0 and angles.max() <= 45.0
        assert (angles > 40.0).any() and (angles < -40.0).any()
        sizes = {p.size for p in params}
        assert 42 in sizes and 54 in sizes
        assert sizes <= set(range(42, 55))

    def test_crop_offsets_within_bounds(self):
        rng = substream(3, 3)
        for _ in range(2000):
            p = draw_augment_params(rng, 42)
            assert 0 <= p.crop_y <= p.size - 42
            assert 0 <= p.crop_x <= p.size - 42

    def test_draw_and_crop_follow_the_window(self):
        rng = substream(3, 4)
        img = GrayImage(np.random.default_rng(4).random((48, 48)))
        sizes = set()
        for _ in range(5000):
            p = draw_augment_params(rng, 16)
            sizes.add(p.size)
            assert 0 <= p.crop_y <= p.size - 16
            assert 0 <= p.crop_x <= p.size - 16
        assert min(sizes) == 16 and max(sizes) == 80
        for _ in range(20):
            out = apply_augment(img, draw_augment_params(rng, 16), 16)
            assert (out.height, out.width) == (16, 16)

    def test_wrong_input_size_rejected(self):
        with pytest.raises(ValueError, match="48x48"):
            apply_augment(GrayImage(np.zeros((42, 42))),
                          draw_augment_params(substream(0, 0), 42), 42)

    @staticmethod
    def two_stage_augment(px, p, window):
        """The chain as written: whole rotation, whole resize, then the crop."""
        if p.mirror:
            px = px[:, ::-1]
        full = bilinear_resize(rotate_bilinear(px, p.angle_deg), p.size, p.size)
        return full[p.crop_y : p.crop_y + window, p.crop_x : p.crop_x + window]

    @pytest.mark.parametrize("window", [42, 16])
    def test_window_only_chain_is_the_same_bits(self, window):
        rng = np.random.default_rng(window)
        draws = substream(5, 6, window)
        top = 2 * 48 - window
        for k in range(260):
            px = rng.normal(size=(48, 48))
            if k % 4:
                p = draw_augment_params(draws, window)
            else:  # the extremes: every size bound, 48, both edge crops, +-45 degrees
                size = (window, 48, top, int(rng.integers(window, top + 1)))[k // 4 % 4]
                off = (0, size - window)
                p = AugmentParams(bool(k % 8), (-45.0, 45.0, 0.0)[k % 3], size,
                                  off[k // 16 % 2], off[k // 32 % 2])
            got = apply_augment(GrayImage(px), p, window).pixels
            want = self.two_stage_augment(px, p, window)
            assert got.shape == want.shape == (window, window)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), p

    def test_mirror_only_flips(self):
        px = np.random.default_rng(2).random((48, 48))
        out = apply_augment(GrayImage(px), AugmentParams(True, 0.0, 42, 0, 0), 42)
        ref = apply_augment(GrayImage(px[:, ::-1]), AugmentParams(False, 0.0, 42, 0, 0), 42)
        assert np.array_equal(out.pixels, ref.pixels)


class TestCrossEntropy:
    def test_perfect_prediction(self):
        onehot = np.eye(4)[[1, 3]]
        assert cross_entropy(onehot, onehot) <= 1e-9

    def test_uniform_seven_classes(self):
        probs = np.full((3, 7), 1.0 / 7.0)
        onehot = np.eye(7)[[0, 4, 6]]
        assert abs(cross_entropy(probs, onehot) - math.log(7.0)) < 1e-9

    def test_half_confidence(self):
        probs = np.array([[0.5, 0.5]])
        onehot = np.array([[1.0, 0.0]])
        assert abs(cross_entropy(probs, onehot) - math.log(2.0)) < 1e-12

    def test_fused_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(3, 5))
        onehot = np.eye(5)[rng.integers(0, 5, size=3)]
        analytic = cross_entropy_grad_logits(softmax(logits), onehot)
        h = 1e-6
        for i in range(logits.size):
            flat = logits.ravel()
            orig = flat[i]
            flat[i] = orig + h
            hi = cross_entropy(softmax(logits), onehot)
            flat[i] = orig - h
            lo = cross_entropy(softmax(logits), onehot)
            flat[i] = orig
            numeric = (hi - lo) / (2 * h)
            assert abs(analytic.ravel()[i] - numeric) < 1e-6


class TestCenterLoss:
    def test_zero_at_centers(self):
        centers = np.random.default_rng(5).normal(size=(3, 4))
        labels = np.array([0, 2, 1])
        loss, dfeat = center_loss(centers[labels], labels, centers)
        assert loss == 0.0
        assert np.array_equal(dfeat, np.zeros((3, 4)))

    def test_worked_example(self):
        loss, dfeat = center_loss(
            np.array([[1.0, 0.0]]), np.array([0]), np.zeros((2, 2))
        )
        assert loss == 0.5
        assert dfeat.tolist() == [[1.0, 0.0]]

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        features = rng.normal(size=(4, 3))
        labels = rng.integers(0, 2, size=4)
        centers = rng.normal(size=(2, 3))
        _, dfeat = center_loss(features, labels, centers)
        h = 1e-6
        flat = features.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi, _ = center_loss(features, labels, centers)
            flat[i] = orig - h
            lo, _ = center_loss(features, labels, centers)
            flat[i] = orig
            numeric = (hi - lo) / (2 * h)
            rel = abs(dfeat.ravel()[i] - numeric) / max(abs(numeric), 1e-9)
            assert rel < 1e-6

    def test_joint_gradient_additivity(self):
        # grad(CE + lam*Lc) computed jointly equals grad(CE) + lam*grad(Lc).
        arch = FusionArch(classes=3, input_size=16, crop_rows=10,
                          conv1_channels=2, conv2_channels=3,
                          branch_units=8, fusion_units=6, dropout_p=0.0)
        model = init_model(arch, CLASS3, seed=7)
        rng = np.random.default_rng(8)
        model.centers = rng.normal(size=model.centers.shape)
        batch = rng.normal(size=(2, 16, 16))
        labels = np.array([0, 2])
        lam = 0.05

        logits, feats, cache = forward(model, batch, "train", substream(0, 0))
        probs = softmax(logits)
        onehot = np.eye(3)[labels]
        dlogits = cross_entropy_grad_logits(probs, onehot)
        _, dfeat = center_loss(feats, labels, model.centers)

        joint = backward(model, cache, dlogits, lam * dfeat)
        ce_only = backward(model, cache, dlogits, np.zeros_like(dfeat))
        center_only = backward(model, cache, np.zeros_like(dlogits), dfeat)
        for name in joint:
            assert np.allclose(
                joint[name], ce_only[name] + lam * center_only[name], atol=1e-12
            )


class TestUpdateCenters:
    def test_absent_class_unchanged(self):
        centers = np.array([[1.0, 1.0], [5.0, 5.0]])
        out = update_centers(centers, np.array([[0.0, 0.0]]), np.array([0]), 0.5)
        assert np.array_equal(out[1], centers[1])
        assert not np.array_equal(out[0], centers[0])

    def test_single_sample_alpha_one_moves_halfway(self):
        centers = np.array([[4.0, 2.0]])
        out = update_centers(centers, np.array([[0.0, 0.0]]), np.array([0]), 1.0)
        assert np.allclose(out, [[2.0, 1.0]])

    def test_features_at_centers_fixed_point(self):
        centers = np.random.default_rng(9).normal(size=(3, 4))
        labels = np.array([0, 1, 2, 0])
        out = update_centers(centers, centers[labels], labels, 0.7)
        assert np.allclose(out, centers, atol=1e-15)

    def test_contraction_toward_class_mean(self):
        rng = np.random.default_rng(10)
        centers = rng.normal(size=(2, 5))
        features = rng.normal(size=(6, 5))
        labels = rng.integers(0, 2, size=6)
        for alpha in (0.1, 0.5, 1.0):
            out = update_centers(centers, features, labels, alpha)
            for j in range(2):
                members = features[labels == j]
                if len(members) == 0:
                    continue
                before = np.linalg.norm(centers[j] - members.mean(axis=0))
                after = np.linalg.norm(out[j] - members.mean(axis=0))
                assert after <= before + 1e-12


class TestSgdMomentum:
    def test_zero_momentum_plain_sgd(self):
        params = {"w": np.array([1.0])}
        buf = {"w": np.zeros(1)}
        sgd_momentum_step(params, buf, {"w": np.array([2.0])}, lr=0.1, mu=0.0)
        assert np.allclose(params["w"], [0.8])

    def test_zero_gradient_zero_velocity_fixed_point(self):
        params = {"w": np.array([3.0])}
        buf = {"w": np.zeros(1)}
        sgd_momentum_step(params, buf, {"w": np.zeros(1)}, lr=0.1, mu=0.9)
        assert params["w"][0] == 3.0

    def test_two_step_heavy_ball(self):
        params = {"w": np.array([0.0])}
        buf = {"w": np.zeros(1)}
        for _ in range(2):
            sgd_momentum_step(params, buf, {"w": np.array([1.0])}, lr=0.1, mu=0.9)
        assert abs(params["w"][0] - (-0.29)) < 1e-12

    def test_non_finite_gradient_raises(self):
        params = {"w": np.array([0.0])}
        buf = {"w": np.zeros(1)}
        with pytest.raises(NonFiniteLossError, match="w"):
            sgd_momentum_step(params, buf, {"w": np.array([np.nan])}, 0.1, 0.9)

    def test_nan_in_last_block_names_the_tensor(self):
        n = 2 * SGD_BLOCK + 5
        params = {"a": np.zeros(3), "w": np.zeros(n)}
        buf = {name: np.zeros_like(p) for name, p in params.items()}
        grad = np.ones(n)
        grad[-1] = np.nan
        with pytest.raises(NonFiniteLossError, match="non-finite gradient in w$"):
            sgd_momentum_step(params, buf, {"a": np.ones(3), "w": grad}, 0.1, 0.9)


def log_of(losses, lr=0.01):
    return TrainLog([EpochRecord(i + 1, loss, loss, 0.0, lr, 0.0)
                     for i, loss in enumerate(losses)])


class TestLrSchedule:
    CFG = TrainConfig(plateau_patience=3, seed=0)

    def test_improving_loss_keeps_rate(self):
        losses = [1.0, 0.9, 0.8, 0.7, 0.6]
        assert lr_schedule(log_of(losses), self.CFG) == 0.01

    def test_plateau_drops_tenfold(self):
        losses = [1.0] + [1.0] * 3
        assert lr_schedule(log_of(losses), self.CFG) == pytest.approx(0.001)

    def test_patience_resets_after_drop(self):
        losses = [1.0] + [1.0] * 3 + [1.0] * 2
        assert lr_schedule(log_of(losses), self.CFG) == pytest.approx(0.001)
        losses = [1.0] + [1.0] * 3 + [1.0] * 3
        assert lr_schedule(log_of(losses), self.CFG) == pytest.approx(0.0001)

    def test_tiny_improvement_still_counts_as_plateau(self):
        losses = [1.0, 1.0 - 5e-5, 1.0 - 6e-5, 1.0 - 7e-5]
        assert lr_schedule(log_of(losses), self.CFG) == pytest.approx(0.001)

    def test_at_most_five_drops(self):
        losses = [1.0] + [1.0] * (3 * 7)
        assert lr_schedule(log_of(losses), self.CFG) == pytest.approx(0.01 / 10**5)


class TestTrainConfig:
    def test_defaults_match_recipe(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 256
        assert cfg.momentum == 0.9
        assert FusionArch(classes=3).dropout_p == 0.5
        assert cfg.max_epochs == 1400
        assert cfg.lr == 0.01
        assert cfg.lr_drop_factor == 10.0

    def test_invariants(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(alpha_center=0.0)
        with pytest.raises(ValueError):
            TrainConfig(lr_drop_factor=1.0)


class TestShuffle:
    def test_epoch_shuffle_is_permutation(self):
        n = 37
        seen = set()
        for epoch in (1, 2, 3):
            order = substream(5, STREAM_SHUFFLE, epoch).permutation(n)
            assert sorted(order.tolist()) == list(range(n))
            seen.add(tuple(order.tolist()))
        assert len(seen) == 3  # epochs get different orders


def rows_problem():
    """A descriptor MLP whose rows are wider than one SGD block and not a
    multiple of it, so hidden.w ends in a partial block, with 10 rows."""
    arch = MlpArch(classes=3, input_dim=SGD_BLOCK + 37, hidden_units=4, dropout_p=0.25)
    rows = np.random.default_rng(31).normal(size=(10, arch.input_dim))
    return arch, rows, np.arange(10) % 3


def descriptor_mlp(seed):
    """A small MLP over the image descriptor, the mlp-handcrafted input."""
    arch = MlpArch(classes=3, input_dim=IMAGE_DESCRIPTOR_LENGTH, hidden_units=4, dropout_p=0.25)
    return init_model(arch, CLASS3, seed=seed, dtype=np.float32)


def quick_cfg(**kw):
    base = dict(batch_size=24, lr=0.02, max_epochs=20, seed=1,
                lambda_center=1e-4, loss_epsilon=1e-4)
    base.update(kw)
    return TrainConfig(**base)


def eval_accuracy(model, samples):
    from microexpr.evaluation import multicrop_predict

    hits = sum(
        1 for s in samples if multicrop_predict(model, [s.image])[0][0] == s.label
    )
    return hits / len(samples)


class TestTrainLoop:
    def _fresh(self, seed=1, **cfg_kw):
        cfg = quick_cfg(seed=seed, **cfg_kw)
        arch = FusionArch(dropout_p=0.25, **SMALL_ARCH)
        model = init_model(arch, CLASS3, seed=cfg.seed)
        return model, cfg

    def test_determinism_same_seed_same_losses(self):
        samples = small_corpus()
        model_a, cfg = self._fresh()
        _, log_a = train(model_a, samples, quick_cfg(max_epochs=4))
        model_b, _ = self._fresh()
        _, log_b = train(model_b, samples, quick_cfg(max_epochs=4))
        assert log_a.losses() == log_b.losses()
        for name in model_a.params:
            assert np.array_equal(model_a.params[name], model_b.params[name])

    def test_lambda_zero_equals_pure_cross_entropy_loop(self):
        samples = small_corpus()
        model, cfg = self._fresh(lambda_center=0.0, max_epochs=3)
        trained, log = train(model, samples, cfg)

        # Independent reference: the same loop with no center-loss machinery.
        from microexpr.rng import STREAM_AUGMENT, STREAM_DROPOUT

        ref, _ = self._fresh(lambda_center=0.0, max_epochs=3)
        prepared = np.stack([model_input(ref, s.image) for s in samples])
        labels = np.array([s.label for s in samples])
        n = len(samples)
        velocity = {k: np.zeros_like(v) for k, v in ref.params.items()}
        ref_losses = []
        for epoch in range(1, cfg.max_epochs + 1):
            lr = lr_schedule(log_of(ref_losses, cfg.lr), cfg)
            order = substream(cfg.seed, STREAM_SHUFFLE, epoch).permutation(n)
            total = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                batch = np.stack([
                    apply_augment(
                        GrayImage(prepared[i]),
                        draw_augment_params(substream(cfg.seed, STREAM_AUGMENT, epoch * n + int(i)), 42),
                        42,
                    ).pixels
                    for i in idx
                ])
                logits, feats, cache = forward(
                    ref, batch, "train", substream(cfg.seed, STREAM_DROPOUT, epoch, start)
                )
                probs = softmax(logits)
                onehot = np.eye(3)[labels[idx]]
                ce = cross_entropy(probs, onehot)
                grads = backward(ref, cache, cross_entropy_grad_logits(probs, onehot),
                                 np.zeros_like(feats))
                sgd_momentum_step(ref.params, velocity, grads, lr, cfg.momentum)
                total += ce * len(idx)
            ref_losses.append(total / n)

        assert log.losses() == ref_losses
        for name in trained.params:
            assert np.array_equal(trained.params[name], ref.params[name])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_training_equals_textbook_loop(self, dtype):
        arch, rows, labels = rows_problem()
        cfg = quick_cfg(batch_size=4, max_epochs=3, lambda_center=0.01)
        trained, log = train_on_rows(init_model(arch, CLASS3, seed=cfg.seed, dtype=dtype),
                                     rows, labels, cfg)

        # Independent reference: whole-tensor heavy ball, the full dense_backward.
        ref = init_model(arch, CLASS3, seed=cfg.seed, dtype=dtype)
        params, centers = ref.params, ref.centers
        x = rows.astype(dtype)
        eye = np.eye(arch.classes, dtype=dtype)
        velocity = {k: np.zeros_like(v) for k, v in params.items()}
        n = len(x)
        ref_losses = []
        for epoch in range(1, cfg.max_epochs + 1):
            lr = lr_schedule(log_of(ref_losses, cfg.lr), cfg)
            order = substream(cfg.seed, STREAM_SHUFFLE, epoch).permutation(n)
            total = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                h, h_cache = dense_forward(x[idx], params["hidden.w"], params["hidden.b"])
                feats, h_mask = relu_forward(h)
                dropped, drop_cache = dropout_forward(
                    feats, arch.dropout_p, substream(cfg.seed, STREAM_DROPOUT, epoch, start))
                logits, head_cache = dense_forward(dropped, params["head.w"], params["head.b"])
                probs = softmax(logits)
                onehot = eye[labels[idx]]
                ce = cross_entropy(probs, onehot)
                c_loss, dfeat = center_loss(feats, labels[idx], centers)
                grads = {}
                ddrop, grads["head.w"], grads["head.b"] = dense_backward(
                    cross_entropy_grad_logits(probs, onehot), head_cache)
                dh = relu_backward(dropout_backward(ddrop, drop_cache)
                                   + cfg.lambda_center * dfeat, h_mask)
                _, grads["hidden.w"], grads["hidden.b"] = dense_backward(dh, h_cache)
                for k, g in grads.items():
                    velocity[k] = cfg.momentum * velocity[k] + g
                    params[k] = params[k] - lr * velocity[k]
                centers = update_centers(centers, feats, labels[idx], cfg.alpha_center)
                total += (ce + cfg.lambda_center * c_loss) * len(idx)
            ref_losses.append(total / n)

        assert log.losses() == ref_losses
        for name in params:
            assert trained.params[name].dtype == dtype
            assert trained.params[name].tobytes() == params[name].tobytes(), name
        assert trained.centers.tobytes() == centers.tobytes()

    def test_rollback_equals_clean_run_of_completed_epochs(self, monkeypatch):
        arch, rows, labels = rows_problem()
        cfg = quick_cfg(batch_size=4, max_epochs=6, lambda_center=0.01)
        blow_up = 3
        clean, _ = train_on_rows(init_model(arch, CLASS3, seed=cfg.seed), rows, labels,
                                 quick_cfg(batch_size=4, max_epochs=blow_up - 1,
                                           lambda_center=0.01))

        # An infinite rate in epoch blow_up makes its second batch's loss NaN.
        schedule = lr_schedule
        monkeypatch.setattr("microexpr.training.lr_schedule", lambda log, c: (
            math.inf if len(log.records) == blow_up - 1 else schedule(log, c)))
        model = init_model(arch, CLASS3, seed=cfg.seed)
        with pytest.raises(NonFiniteLossError, match=f"epoch {blow_up}") as info:
            train_on_rows(model, rows, labels, cfg)
        assert len(info.value.log.records) == blow_up - 1
        for name in clean.params:
            assert model.params[name].tobytes() == clean.params[name].tobytes(), name
        assert model.centers.tobytes() == clean.centers.tobytes()

    def test_mlp_samples_train_like_their_descriptor_rows(self):
        samples = small_corpus(per_class=4)
        cfg = quick_cfg(batch_size=5, max_epochs=3, lambda_center=0.01)
        model, log = train(descriptor_mlp(cfg.seed), samples, cfg)
        rows = np.stack([image_descriptor(s.image) for s in samples])
        labels = np.array([s.label for s in samples])
        ref, ref_log = train_on_rows(descriptor_mlp(cfg.seed), rows, labels, cfg)
        assert ([(r.loss, r.ce, r.center) for r in log.records]
                == [(r.loss, r.ce, r.center) for r in ref_log.records])
        for name in ref.params:
            assert model.params[name].tobytes() == ref.params[name].tobytes(), name
        assert model.centers.tobytes() == ref.centers.tobytes()
        assert model.pixel_stats is None

    @pytest.mark.parametrize("bad", [-1, 3], ids=["negative", "classes"])
    def test_label_out_of_range_rejected_by_both_entries(self, bad):
        samples = small_corpus(per_class=2)
        samples[1] = LabeledSample(samples[1].image, bad, samples[1].subject)
        model, cfg = self._fresh(max_epochs=1)
        with pytest.raises(ValueError, match="^label out of range for model classes$"):
            train(model, samples, cfg)
        arch, rows, labels = rows_problem()
        labels[4] = bad
        with pytest.raises(ValueError, match="^label out of range for model classes$"):
            train_on_rows(init_model(arch, CLASS3, seed=1), rows, labels, cfg)

    def test_smoke_training_fits_small_corpus(self):
        samples = small_corpus(per_class=8)
        model, cfg = self._fresh(max_epochs=25)
        trained, log = train(model, samples, cfg)
        assert len(log.records) >= 1
        assert log.records[-1].loss < log.records[0].loss
        assert eval_accuracy(trained, samples) >= 0.9

    def test_non_finite_loss_rolls_back_and_raises(self):
        samples = small_corpus(per_class=4)
        model, _ = self._fresh()
        cfg = quick_cfg(lr=1e18, max_epochs=10)
        before = {k: v.copy() for k, v in model.params.items()}
        with pytest.raises(NonFiniteLossError):
            train(model, samples, cfg)
        # State equals some completed-epoch snapshot: all tensors finite.
        for name, tensor in model.params.items():
            assert np.all(np.isfinite(tensor)), name

    def test_empty_training_set_rejected(self):
        model, cfg = self._fresh()
        with pytest.raises(ValueError, match="empty"):
            train(model, [], cfg)

    def test_wrong_image_size_rejected(self):
        model, cfg = self._fresh()
        bad = [LabeledSample(GrayImage(np.random.default_rng(0).random((42, 42))), 0, "s")]
        with pytest.raises(ValueError, match="48x48"):
            train(model, bad, cfg)

