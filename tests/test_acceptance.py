"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream.
The held-out real-data criterion needs MICROEXPR_JAFFE_DIR pointing at a
directory of JAFFE-named PGM files and is skipped otherwise.
"""

import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from microexpr.dataset import (
    JAFFE_CLASS_NAMES,
    GrayImage,
    LabeledSample,
    generate_synthetic,
    parse_jaffe_name,
    split,
    to_8bit,
)
from microexpr.evaluation import (
    ConfusionMatrix,
    extract_features,
    metrics,
    multicrop_predict,
    nearest_feature_predict,
)
from microexpr.features import (
    _lbp_codes,
    hog_descriptor,
    lbp_histogram,
)
from microexpr.network import (
    FusionArch,
    MlpArch,
    backward,
    forward,
    he_std,
    init_model,
    softmax,
)
from microexpr.preprocess import (
    HomomorphicParams,
    bilinear_resize,
    fit_pixel_stats,
    normalize_per_image,
    prepare,
)
from microexpr.rng import substream
from microexpr.training import (
    TrainConfig,
    apply_augment,
    center_loss,
    cross_entropy,
    cross_entropy_grad_logits,
    draw_augment_params,
    train,
)
from test_evaluation import mae
from test_features import gradient_polar


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


# ---------------------------------------------------------------------------


def _fd(loss, flat, i, h):
    orig = flat[i]
    flat[i] = orig + h
    hi = loss()
    flat[i] = orig - h
    lo = loss()
    flat[i] = orig
    return (hi - lo) / (2 * h)


def test_gradient_oracle():
    """Every layer kind and the fused joint loss vs central differences
    (h = 1e-3, float64, relative error < 1e-4, >= 20 instances each)."""
    from microexpr.network import (
        concat_backward, concat_forward, conv2d_backward, conv2d_forward,
        dense_backward, dense_forward, dropout_backward, dropout_forward,
        flatten_backward, flatten_forward, maxpool2_backward, maxpool2_forward,
        relu_backward, relu_forward,
    )

    h = 1e-3
    tol = 1e-4
    started = time.perf_counter()

    def check(analytic, numeric, scale):
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3 * scale)
        assert rel < tol, f"{analytic} vs {numeric}"

    def check_layer(x_list, fwd, bwd, up, trial):
        out, cache = fwd(*x_list)
        ds = bwd(up, cache)
        if not isinstance(ds, tuple):
            ds = (ds,)
        for x, d in zip(x_list, ds):
            scale = max(float(np.abs(d).max()), 1e-8)
            flat = x.ravel()
            rng = np.random.default_rng(trial)
            for i in rng.choice(flat.size, size=min(6, flat.size), replace=False):
                check(d.ravel()[i], _fd(lambda: float((fwd(*x_list)[0] * up).sum()), flat, i, h), scale)

    with criterion("gradient-oracle"):
        for trial in range(20):
            rng = np.random.default_rng(9000 + trial)
            # dense
            x, w, b = rng.normal(size=(3, 5)), rng.normal(size=(5, 4)), rng.normal(size=4)
            up = rng.normal(size=(3, 4))
            check_layer([x, w, b], dense_forward, lambda d, c: dense_backward(d, c), up, trial)
            # conv2d
            x = rng.normal(size=(2, 2, 6, 6))
            w = rng.normal(size=(2, 2, 3, 3))
            b = rng.normal(size=2)
            up = rng.normal(size=(2, 2, 4, 4))
            check_layer([x, w, b], conv2d_forward, lambda d, c: conv2d_backward(d, c), up, trial)
            # relu (inputs held off the kink)
            x = rng.normal(size=(4, 5))
            x[np.abs(x) < 0.05] += 0.1
            up = rng.normal(size=(4, 5))
            check_layer([x], lambda a: relu_forward(a), lambda d, c: relu_backward(d, c), up, trial)
            # maxpool2 (distinct values, gaps above the stencil)
            x = rng.permutation(np.linspace(-1, 1, 64)).reshape(1, 1, 8, 8)
            up = rng.normal(size=(1, 1, 4, 4))
            check_layer([x], lambda a: maxpool2_forward(a), lambda d, c: maxpool2_backward(d, c), up, trial)
            # dropout with pinned mask
            x = rng.normal(size=(3, 6))
            up = rng.normal(size=(3, 6))
            _, cache = dropout_forward(x, 0.5, substream(trial, 5))
            mask = cache[0]
            d = dropout_backward(up, cache)
            scale = max(float(np.abs(d).max()), 1e-8)
            flat = x.ravel()
            for i in range(0, flat.size, 3):
                check(d.ravel()[i],
                      _fd(lambda: float((x * mask / 0.5 * up).sum()), flat, i, h), scale)
            # flatten
            x = rng.normal(size=(2, 3, 2, 2))
            up = rng.normal(size=(2, 12))
            check_layer([x], lambda a: flatten_forward(a), lambda d, c: flatten_backward(d, c), up, trial)
            # concat
            a_in = rng.normal(size=(2, 3))
            b_in = rng.normal(size=(2, 4))
            up = rng.normal(size=(2, 7))
            out, split_at = concat_forward(a_in, b_in)
            da, db = concat_backward(up, split_at)
            for x_arr, d in ((a_in, da), (b_in, db)):
                scale = max(float(np.abs(d).max()), 1e-8)
                flat = x_arr.ravel()
                for i in range(flat.size):
                    check(d.ravel()[i],
                          _fd(lambda: float((concat_forward(a_in, b_in)[0] * up).sum()),
                              flat, i, h), scale)

        # fused joint loss on a small three-branch model
        lam = 0.01
        bad = 0
        total = 0
        for trial in range(20):
            arch = FusionArch(classes=3, input_size=16, crop_rows=10,
                              conv1_channels=2, conv2_channels=3,
                              branch_units=8, fusion_units=6, dropout_p=0.3)
            # A saturated softmax (exact float 0/1) flattens the clamped loss
            # surface and invalidates FD, so saturated draws are rebuilt.
            for attempt in range(10):
                model = init_model(arch, ("x", "y", "z"), seed=500 + trial + 1000 * attempt)
                rng = np.random.default_rng(700 + trial + 1000 * attempt)
                model.centers = rng.normal(size=model.centers.shape)
                for name in model.params:
                    if name.endswith(".b"):
                        model.params[name] += rng.normal(0.0, 0.05, size=model.params[name].shape)
                batch = rng.normal(size=(2, 16, 16))
                labels = rng.integers(0, 3, size=2)
                probe_logits, _, _ = forward(model, batch, "train", substream(trial, 8))
                probe = softmax(probe_logits)
                if probe.min() > 1e-9 and probe.max() < 1.0 - 1e-9:
                    break
            else:
                pytest.fail("could not draw a non-saturated instance")

            def joint():
                logits, feats, cache = forward(model, batch, "train", substream(trial, 8))
                probs = softmax(logits)
                onehot = np.eye(3)[labels]
                c_loss, dfeat = center_loss(feats, labels, model.centers)
                grads = backward(model, cache, cross_entropy_grad_logits(probs, onehot),
                                 lam * dfeat)
                return cross_entropy(probs, onehot) + lam * c_loss, grads

            _, grads = joint()
            for name, tensor in model.params.items():
                gscale = max(float(np.abs(grads[name]).max()), 1e-8)
                flat = tensor.ravel()
                for i in rng.choice(flat.size, size=min(2, flat.size), replace=False):
                    numeric = _fd(lambda: joint()[0], flat, i, h)
                    confirm = _fd(lambda: joint()[0], flat, i, h / 2)
                    if abs(numeric - confirm) > tol * max(abs(numeric), abs(confirm), 1e-3 * gscale):
                        continue  # kink inside the stencil; FD not a valid oracle
                    total += 1
                    analytic = grads[name].ravel()[i]
                    rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3 * gscale)
                    if rel >= tol:
                        bad += 1
                        assert rel < 1e-3, f"{name}: {analytic} vs {numeric}"
        assert total >= 500
        assert bad <= 0.01 * total
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"gradient oracle took {elapsed:.1f}s"


def test_loss_analytics():
    with criterion("loss-analytics"):
        probs = np.full((4, 7), 1.0 / 7.0)
        onehot = np.eye(7)[[0, 2, 4, 6]]
        assert abs(cross_entropy(probs, onehot) - math.log(7.0)) < 1e-9
        assert abs(cross_entropy(probs, onehot) - 1.9459101490553132) < 1e-9

        perfect = np.eye(7)[[1, 3]]
        assert cross_entropy(perfect, perfect) <= 1e-9

        centers = np.random.default_rng(0).normal(size=(3, 5))
        labels = np.array([2, 0, 1])
        at_centers, dfeat = center_loss(centers[labels], labels, centers)
        assert at_centers == 0.0
        assert np.array_equal(dfeat, np.zeros((3, 5)))

        loss, _ = center_loss(np.array([[1.0, 0.0]]), np.array([0]), np.zeros((1, 2)))
        assert loss == 0.5


def test_lbp_oracle():
    def reference(window):
        order = [(1, 2), (0, 2), (0, 1), (0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]
        return sum(
            2**i for i, (r, c) in enumerate(order) if window[r][c] - window[1][1] >= 0
        )

    with criterion("lbp-oracle"):
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            window = rng.random((3, 3))
            assert _lbp_codes(window)[0, 0] == reference(window.tolist())

        for _ in range(50):
            px = rng.random((5, 5))
            desc = lbp_histogram(GrayImage(px), 1, 1)
            counts = np.zeros(256)
            for y in range(1, 4):
                for x in range(1, 4):
                    counts[reference(px[y - 1 : y + 2, x - 1 : x + 2].tolist())] += 1
            assert np.array_equal(desc, counts / 9.0)

        worked = np.array([[3.0, 5.0, 4.0], [7.0, 5.0, 6.0], [2.0, 8.0, 1.0]])
        assert _lbp_codes(worked)[0, 0] == 85


def test_hog_identities():
    with criterion("hog-identities"):
        const = hog_descriptor(GrayImage(np.full((16, 16), 0.3)), cell=8, bins=9)
        assert np.array_equal(const, np.zeros(36))

        q, theta = gradient_polar(np.array([[3.0]]), np.array([[4.0]]))
        assert q[0, 0] == 5.0
        assert abs(theta[0, 0] - 0.9273) < 1e-4

        rng = np.random.default_rng(1)
        px = rng.integers(0, 256, size=(20, 20)) / 256.0
        shifted = hog_descriptor(GrayImage(px + 32 / 256.0), 5, 9)
        assert np.array_equal(hog_descriptor(GrayImage(px), 5, 9), shifted)

        base = hog_descriptor(GrayImage(px), 5, 9)
        for k in (0.5, 2.0):
            scaled = hog_descriptor(GrayImage(px * k), 5, 9)
            assert np.abs(scaled - base).max() < 1e-6


def test_metric_identities():
    with criterion("metric-identities"):
        rng = np.random.default_rng(2)
        for _ in range(30):
            cm = ConfusionMatrix(rng.integers(0, 25, size=(5, 5)))
            report = metrics(cm)
            for m in report.per_class:
                assert m.recall == m.sensitivity
        for _ in range(10):
            sym = rng.integers(0, 20, size=(4, 4))
            report = metrics(ConfusionMatrix(sym + sym.T))
            for m in report.per_class:
                assert m.precision == pytest.approx(m.recall, abs=1e-12)
                assert m.f_measure == pytest.approx(m.precision, abs=1e-12)

        diagonal = metrics(ConfusionMatrix(np.diag([4, 2, 9])))
        for m in diagonal.per_class:
            assert (m.precision, m.recall, m.f_measure, m.sensitivity, m.specificity) == (
                1.0, 1.0, 1.0, 1.0, 1.0,
            )
        assert diagonal.accuracy_trace == 1.0

        assert mae([3, 1, 4, 1, 5], [3, 1, 4, 1, 5]) == 0.0


def _preprocess_corpus(samples):
    params = HomomorphicParams()
    return [LabeledSample(prepare(s.image, params), s.label, s.subject) for s in samples]


def test_synthetic_end_to_end():
    """Seven synthetic classes, 40/10 per class, seed 1: at least 95% train
    and 90% test accuracy within 200 epochs, inside 10 minutes."""
    with criterion("synthetic-end-to-end"):
        started = time.perf_counter()
        corpus = _preprocess_corpus(generate_synthetic(7, 50, 48, seed=1))
        train_set, test_set = split(corpus, 0.2, seed=1)
        assert len(train_set) == 280 and len(test_set) == 70

        arch = FusionArch(classes=7)
        model = init_model(arch, JAFFE_CLASS_NAMES, seed=1, dtype=np.float32)
        model.pixel_stats = fit_pixel_stats(
            [normalize_per_image(s.image) for s in train_set]
        )
        cfg = TrainConfig(max_epochs=200, seed=1)
        model, log = train(model, train_set, cfg)
        assert len(log.records) <= 200

        def accuracy(samples):
            hits = sum(
                1 for s in samples if multicrop_predict(model, [s.image])[0][0] == s.label
            )
            return hits / len(samples)

        train_acc = accuracy(train_set)
        test_acc = accuracy(test_set)
        elapsed = time.perf_counter() - started
        print(f"  [synthetic] epochs={len(log.records)} train={train_acc:.3f} "
              f"test={test_acc:.3f} elapsed={elapsed:.0f}s")
        assert train_acc >= 0.95
        assert test_acc >= 0.90
        assert elapsed < 600.0


def _lit(samples, seed):
    """Each image under its own multiplicative illumination ramp,
    exp(6 (x cos t + y sin t)) over x, y in [0, 1], with t drawn per image in
    corpus order; rescaled to a maximum of 1 and quantized to 8 bits."""
    rng = np.random.default_rng(seed)
    lit = []
    for s in samples:
        h, w = s.image.pixels.shape
        t = rng.uniform(0.0, 2.0 * math.pi)
        x = np.arange(w)[None, :] / (w - 1)
        y = np.arange(h)[:, None] / (h - 1)
        px = s.image.pixels * np.exp(6.0 * (x * math.cos(t) + y * math.sin(t)))
        lit.append(LabeledSample(GrayImage(to_8bit(px / px.max()) / 255.0), s.label, s.subject))
    return lit


def _nearest_neighbour_accuracy(train_set, test_set, chain):
    """1-NN by Euclidean distance on per-image-normalized chain(image)
    pixels; a tie goes to the lowest train index."""
    def rows(samples):
        return np.stack([normalize_per_image(chain(s.image)).pixels.ravel() for s in samples])

    gallery = rows(train_set)
    labels = np.array([s.label for s in train_set])
    hits = sum(labels[np.argmin(((gallery - row) ** 2).sum(axis=1))] == s.label
               for row, s in zip(rows(test_set), test_set))
    return hits / len(test_set)


def test_illumination_nuisance():
    """The homomorphic filter is what removes illumination: on synthetic
    faces under per-image ramps, 1-NN on prepared pixels beats the same
    chain with unit gains (no filter) and the plain resize (raw) by 0.05
    on every seed."""
    chains = {
        "raw": lambda img: GrayImage(to_8bit(bilinear_resize(img.pixels, 48, 48)) / 255.0),
        "no-filter": lambda img: prepare(img, HomomorphicParams(1.0, 1.0, 0.125)),
        "full": lambda img: prepare(img, HomomorphicParams()),
    }
    with criterion("illumination-nuisance"):
        for seed in (4, 5, 6):
            corpus = _lit(generate_synthetic(7, 30, 128, seed), seed)
            train_set, test_set = split(corpus, 60 / 210, seed)
            assert len(train_set) == 147 and len(test_set) == 63
            acc = {name: _nearest_neighbour_accuracy(train_set, test_set, chain)
                   for name, chain in chains.items()}
            print(f"  [illumination] seed={seed} " + " ".join(
                f"{name}={value:.3f}" for name, value in acc.items()))
            assert acc["full"] >= max(acc["raw"], acc["no-filter"]) + 0.05, acc


def test_full_run_determinism(tmp_path):
    """Two complete CLI train+eval runs with one config produce byte-identical
    checkpoints and metric reports."""
    from microexpr.cli import main

    def one_run(root):
        data, work, run = root / "data", root / "work", root / "run"
        assert main(["synth", "--classes", "3", "--per-class", "6", "--seed", "11",
                     "--out", str(data)]) == 0
        assert main(["preprocess", "--manifest", str(data / "manifest.csv"),
                     "--split-fraction", "0.25", "--seed", "11", "--out", str(work)]) == 0
        assert main(["train", "--train-manifest", str(work / "train.csv"),
                     "--stats", str(work / "pixel_stats.bin"),
                     "--batch-size", "8", "--max-epochs", "4", "--seed", "11",
                     "--out", str(run)]) == 0
        assert main(["eval", "--test-manifest", str(work / "test.csv"),
                     "--checkpoint", str(run / "model.ckpt"), "--seed", "11",
                     "--out", str(run)]) == 0
        return run

    with criterion("full-run-determinism"):
        run_a = one_run(tmp_path / "a")
        run_b = one_run(tmp_path / "b")
        assert (run_a / "model.ckpt").read_bytes() == (run_b / "model.ckpt").read_bytes()
        assert (run_a / "metrics.json").read_bytes() == (run_b / "metrics.json").read_bytes()


def test_jaffe_holdout():
    """Real-data check (optional): stratified 80/20 split, default config,
    held-out trace accuracy >= 0.60.  Requires MICROEXPR_JAFFE_DIR with PGM
    conversions of the corpus; reported numbers elsewhere are not treated as
    reproduction targets since the original protocol is underspecified."""
    jaffe_dir = os.environ.get("MICROEXPR_JAFFE_DIR")
    if not jaffe_dir:
        pytest.skip("MICROEXPR_JAFFE_DIR not set; real-data criterion skipped")
    from microexpr.dataset import decode_pgm
    from microexpr.evaluation import confusion

    with criterion("jaffe-holdout"):
        samples = []
        for path in sorted(Path(jaffe_dir).glob("*.pgm")):
            label, subject = parse_jaffe_name(path.name, JAFFE_CLASS_NAMES)
            samples.append(LabeledSample(decode_pgm(path.read_bytes()), label, subject))
        assert samples, f"no PGM files under {jaffe_dir}"

        train_set, test_set = split(_preprocess_corpus(samples), 0.2, seed=1)
        model = init_model(FusionArch(classes=7), JAFFE_CLASS_NAMES, seed=1,
                           dtype=np.float32)
        model.pixel_stats = fit_pixel_stats(
            [normalize_per_image(s.image) for s in train_set]
        )
        model, _ = train(model, train_set, TrainConfig(seed=1))
        true = [s.label for s in test_set]
        pred = [multicrop_predict(model, [s.image])[0][0] for s in test_set]
        report = metrics(confusion(true, pred, len(JAFFE_CLASS_NAMES)), JAFFE_CLASS_NAMES)
        print(f"  [jaffe] protocol: stratified 80/20 seed 1, multicrop; "
              f"trace accuracy {report.accuracy_trace:.3f}")
        assert report.accuracy_trace >= 0.60


def test_augmentation_contract():
    with criterion("augmentation-contract"):
        rng = substream(123, 9)
        img = GrayImage(np.random.default_rng(3).random((48, 48)))
        mirrors = 0
        angles = []
        sizes = set()
        for _ in range(10_000):
            p = draw_augment_params(rng, 42)
            mirrors += p.mirror
            angles.append(p.angle_deg)
            sizes.add(p.size)
        out = apply_augment(img.pixels[None], [draw_augment_params(rng, 42)], 42)
        assert out.shape == (1, 42, 42)
        for _ in range(100):
            view = apply_augment(img.pixels[None], [draw_augment_params(rng, 42)], 42)
            assert view.shape == (1, 42, 42)
        rate = mirrors / 10_000
        assert 0.48 <= rate <= 0.52, rate
        angles = np.array(angles)
        assert (angles > 40.0).any() and (angles < -40.0).any()
        assert angles.min() >= -45.0 and angles.max() <= 45.0
        assert 42 in sizes and 54 in sizes


def test_he_initialization():
    with criterion("he-initialization"):
        assert abs(he_std(800) - 0.05) < 1e-15
        arch = MlpArch(classes=7, input_dim=800, hidden_units=16)
        model = init_model(arch, JAFFE_CLASS_NAMES, seed=5)
        weights = model.params["hidden.w"]
        assert weights.size >= 10_000
        assert abs(float(weights.std()) - 0.05) / 0.05 < 0.05
        for name, tensor in model.params.items():
            if name.endswith(".b"):
                assert np.array_equal(tensor, np.zeros_like(tensor))


def test_nearest_feature_mode():
    with criterion("nearest-feature-mode"):
        arch = FusionArch(classes=3, conv1_channels=2, conv2_channels=3,
                          branch_units=8, fusion_units=8)
        model = init_model(arch, ("p", "q", "r"), seed=6)
        rng = np.random.default_rng(7)
        gallery_labels = [int(rng.integers(0, 3)) for _ in range(8)]
        gallery = (
            extract_features(model, [GrayImage(rng.random((48, 48))) for _ in gallery_labels]),
            np.array(gallery_labels, dtype=np.int64),
        )
        for _ in range(100):
            probe = GrayImage(rng.random((48, 48)))
            [feat] = extract_features(model, [probe])
            scan = [float(np.sqrt(((feat - g) ** 2).sum())) for g in gallery[0]]
            expected = gallery_labels[int(np.argmin(scan))]
            [(got, dist)] = nearest_feature_predict(model, [probe], gallery)
            assert got == expected
            assert dist == pytest.approx(min(scan))
