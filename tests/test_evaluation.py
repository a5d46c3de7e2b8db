import json

import numpy as np
import pytest

from microexpr.dataset import GrayImage, Manifest, ManifestError, generate_synthetic
from microexpr.evaluation import (
    GALLERY_CHUNK,
    ConfusionMatrix,
    confusion,
    confusion_to_csv,
    evaluate_external_predictions,
    extract_features,
    mae,
    metrics,
    multicrop_batch,
    multicrop_predict,
    nearest_feature_predict,
    report_to_json,
    single_predict,
)
from microexpr.network import (
    FusionArch,
    MlpArch,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
    softmax,
)
from microexpr.training import TrainConfig, train

CLASS3 = ("a", "b", "c")


def fusion_model(seed=0, classes=3, zero=False):
    arch = FusionArch(classes=classes, conv1_channels=2, conv2_channels=3,
                      branch_units=8, fusion_units=8)
    model = init_model(arch, tuple(f"c{k}" for k in range(classes)), seed)
    if zero:
        for name in model.params:
            model.params[name][...] = 0.0
    return model


class TestConfusion:
    def test_perfect_predictions_diagonal(self):
        cm = confusion([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert np.array_equal(cm.counts, np.diag([1, 2, 1]))

    def test_hand_counted(self):
        cm = confusion([0, 0, 1], [0, 1, 1], 2)
        assert cm.counts.tolist() == [[1, 1], [0, 1]]

    def test_empty_is_zero_matrix(self):
        cm = confusion([], [], 3)
        assert np.array_equal(cm.counts, np.zeros((3, 3), dtype=np.int64))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            confusion([0, 3], [0, 0], 3)

    def test_total_matches_samples(self):
        rng = np.random.default_rng(0)
        true = rng.integers(0, 4, size=50)
        pred = rng.integers(0, 4, size=50)
        assert confusion(true, pred, 4).total == 50


class TestMetrics:
    def test_binary_style_worked_example(self):
        # One-vs-rest tallies TP=93, FP=7, FN=7, TN=893 for class 0.
        counts = np.zeros((2, 2), dtype=np.int64)
        counts[0, 0] = 93
        counts[0, 1] = 7
        counts[1, 0] = 7
        counts[1, 1] = 893
        report = metrics(ConfusionMatrix(counts))
        c0 = report.per_class[0]
        assert c0.precision == pytest.approx(0.93)
        assert c0.recall == pytest.approx(0.93)
        assert c0.f_measure == pytest.approx(0.93)
        assert c0.sensitivity == pytest.approx(0.93)
        assert c0.specificity == pytest.approx(893 / 900)

    def test_diagonal_matrix_all_ones(self):
        report = metrics(ConfusionMatrix(np.diag([5, 3, 2])))
        for m in report.per_class:
            assert (m.precision, m.recall, m.f_measure, m.sensitivity, m.specificity) == (
                1.0, 1.0, 1.0, 1.0, 1.0,
            )
        assert report.accuracy_trace == 1.0
        assert report.accuracy_ovr_macro == 1.0

    def test_absent_class_zero_over_zero_rule(self):
        counts = np.zeros((3, 3), dtype=np.int64)
        counts[0, 0] = 4
        counts[1, 1] = 4
        report = metrics(ConfusionMatrix(counts))
        ghost = report.per_class[2]
        assert ghost.precision == 0.0 and ghost.recall == 0.0
        assert ghost.f_measure == 0.0
        assert ghost.specificity == 1.0

    def test_recall_equals_sensitivity_everywhere(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            counts = rng.integers(0, 30, size=(4, 4))
            report = metrics(ConfusionMatrix(counts))
            for m in report.per_class:
                assert m.recall == m.sensitivity

    def test_f_measure_fixed_point_when_precision_equals_recall(self):
        # Symmetric confusion matrices give precision == recall per class.
        rng = np.random.default_rng(2)
        for _ in range(10):
            counts = rng.integers(0, 20, size=(3, 3))
            counts = counts + counts.T
            report = metrics(ConfusionMatrix(counts))
            for m in report.per_class:
                assert m.precision == pytest.approx(m.recall)
                assert m.f_measure == pytest.approx(m.precision)

    def test_order_invariance(self):
        rng = np.random.default_rng(3)
        true = rng.integers(0, 3, size=60)
        pred = rng.integers(0, 3, size=60)
        perm = rng.permutation(60)
        a = metrics(confusion(true, pred, 3))
        b = metrics(confusion(true[perm], pred[perm], 3))
        assert a == b

    def test_values_bounded(self):
        rng = np.random.default_rng(4)
        counts = rng.integers(0, 50, size=(5, 5))
        report = metrics(ConfusionMatrix(counts))
        for m in report.per_class:
            for v in (m.precision, m.recall, m.f_measure, m.sensitivity, m.specificity):
                assert 0.0 <= v <= 1.0
        assert 0.0 <= report.accuracy_trace <= 1.0
        assert 0.0 <= report.accuracy_ovr_macro <= 1.0


class TestMae:
    def test_identical_vectors_zero(self):
        assert mae([1, 2, 3], [1, 2, 3]) == 0.0

    def test_hand_computed(self):
        assert mae([2, 0, 1], [1, 1, 1]) == pytest.approx(2 / 3)

    def test_maximum_index_gap(self):
        assert mae([0], [6]) == 6.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mae([1, 2], [1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mae([], [])

    def test_report_mae_from_counts_is_the_vector_mean(self):
        """metrics() sums |true - predicted| over the confusion counts; the
        figure is the bits of mae() over the label vectors."""
        rng = np.random.default_rng(26)
        for _ in range(300):
            k = int(rng.integers(2, 9))
            n = int(rng.integers(1, 401))
            true, pred = rng.integers(0, k, size=n), rng.integers(0, k, size=n)
            names = tuple(f"c{j}" for j in range(k))
            assert metrics(confusion(true, pred, k), names).mae == mae(true, pred)


class TestMulticrop:
    def test_batch_layout(self):
        px = np.arange(48 * 48, dtype=float).reshape(48, 48)
        views = multicrop_batch(px, 42)
        assert views.shape == (10, 42, 42)
        assert np.array_equal(views[0], px[0:42, 0:42])
        assert np.array_equal(views[1], px[0:42, 6:48])
        assert np.array_equal(views[4], px[3:45, 3:45])
        for k in range(5):
            assert np.array_equal(views[5 + k], views[k][:, ::-1])

    def test_views_follow_the_window(self):
        px = np.arange(48 * 48, dtype=float).reshape(48, 48)
        views = multicrop_batch(px, 16)
        assert views.shape == (10, 16, 16)
        for k, (y, x) in enumerate([(0, 0), (0, 32), (32, 0), (32, 32), (16, 16)]):
            assert np.array_equal(views[k], px[y : y + 16, x : x + 16])
            assert np.array_equal(views[5 + k], views[k][:, ::-1])

    def test_symmetric_input_mirror_partners_agree(self):
        rng = np.random.default_rng(5)
        half = rng.random((48, 24))
        sym = np.concatenate([half, half[:, ::-1]], axis=1)
        model = fusion_model(seed=6)
        views = multicrop_batch(sym, 42)
        logits, _, _ = forward(model, views, "eval")
        probs = softmax(logits)
        # mirror of crop (y,x) equals the plain crop at the opposite x.
        partners = {5: 1, 6: 0, 7: 3, 8: 2, 9: 4}
        for mirrored, plain in partners.items():
            assert np.abs(probs[mirrored] - probs[plain]).max() < 1e-6

    def test_zero_model_uniform_and_lowest_tie(self):
        model = fusion_model(zero=True)
        img = GrayImage(np.random.default_rng(7).random((48, 48)))
        [(label, probs)] = multicrop_predict(model, [img])
        assert label == 0
        assert np.allclose(probs, 1.0 / 3.0, atol=1e-12)

    def test_probs_sum_to_one(self):
        model = fusion_model(seed=8)
        img = GrayImage(np.random.default_rng(9).random((48, 48)))
        [(_, probs)] = multicrop_predict(model, [img])
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_image_list_is_one_image_calls_and_single_predict(self):
        model = fusion_model(seed=28)
        rng = np.random.default_rng(29)
        imgs = [GrayImage(rng.random((48, 48))) for _ in range(3)]
        alone = [multicrop_predict(model, [img])[0] for img in imgs]
        for predictions in (multicrop_predict(model, imgs), single_predict(model, imgs)):
            assert len(predictions) == 3
            for (label, probs), (want_label, want_probs) in zip(predictions, alone):
                assert label == want_label
                assert probs.dtype == want_probs.dtype
                assert probs.tobytes() == want_probs.tobytes()

    def test_wrong_size_rejected(self):
        model = fusion_model()
        with pytest.raises(ValueError, match="48x48"):
            multicrop_predict(model, [GrayImage(np.zeros((42, 42)))])

    def test_requires_fusion_arch(self):
        arch = MlpArch(classes=3, input_dim=10)
        model = init_model(arch, CLASS3, seed=0)
        with pytest.raises(ValueError, match="fusion"):
            multicrop_predict(model, [GrayImage(np.zeros((48, 48)))])


class TestNearestFeature:
    def test_exact_match_wins_with_zero_distance(self):
        model = fusion_model(seed=10)
        rng = np.random.default_rng(11)
        imgs = [GrayImage(rng.random((48, 48))) for _ in range(4)]
        gallery = (extract_features(model, imgs), np.arange(4))
        [(label, dist)] = nearest_feature_predict(model, [imgs[2]], gallery)
        assert label == 2
        assert dist == 0.0

    def test_single_entry_gallery(self):
        model = fusion_model(seed=12)
        rng = np.random.default_rng(13)
        gallery = (extract_features(model, [GrayImage(rng.random((48, 48)))]), np.array([5]))
        [(label, _)] = nearest_feature_predict(model, [GrayImage(rng.random((48, 48)))], gallery)
        assert label == 5

    def test_matches_brute_force_scan(self):
        model = fusion_model(seed=14)
        rng = np.random.default_rng(15)
        gallery_imgs = [GrayImage(rng.random((48, 48))) for _ in range(5)]
        labels = [int(rng.integers(0, 3)) for _ in range(5)]
        gallery = (extract_features(model, gallery_imgs), np.array(labels))
        for _ in range(30):
            probe = GrayImage(rng.random((48, 48)))
            [feat] = extract_features(model, [probe])
            dists = [float(np.sqrt(((feat - g) ** 2).sum())) for g in gallery[0]]
            expected = labels[int(np.argmin(dists))]
            [(got, _)] = nearest_feature_predict(model, [probe], gallery)
            assert got == expected

    def test_empty_gallery_rejected(self):
        model = fusion_model()
        with pytest.raises(ValueError, match="empty"):
            nearest_feature_predict(model, [GrayImage(np.zeros((48, 48)))],
                                    (extract_features(model, []), np.array([], dtype=np.int64)))

    def test_dimension_mismatch_rejected(self):
        model = fusion_model(seed=16)
        bad_gallery = (np.zeros((1, 5)), np.array([0]))
        with pytest.raises(ValueError, match="dimension"):
            nearest_feature_predict(model, [GrayImage(np.zeros((48, 48)))], bad_gallery)


class TestGallery:
    """extract_features' matrix against per-image calls, and the distances
    nearest_feature_predict takes from it."""

    @pytest.mark.parametrize("n", [1, GALLERY_CHUNK - 1, GALLERY_CHUNK, GALLERY_CHUNK + 1,
                                   2 * GALLERY_CHUNK + 3])
    def test_matrix_is_stacked_extract_features(self, n):
        model = init_model(FusionArch(classes=3), CLASS3, seed=20, dtype=np.float32)
        rng = np.random.default_rng(21)
        imgs = [GrayImage(rng.random((48, 48))) for _ in range(n)]
        features = extract_features(model, imgs)
        assert features.shape == (n, model.arch.feature_dim)
        assert np.array_equal(features, np.stack([extract_features(model, [img])[0] for img in imgs]))

    def test_descriptor_model_matrix_is_stacked_extract_features(self):
        from microexpr.features import image_descriptor

        rng = np.random.default_rng(22)
        imgs = [GrayImage(rng.random((48, 48))) for _ in range(GALLERY_CHUNK + 1)]
        arch = MlpArch(classes=3, input_dim=image_descriptor(imgs[0]).size,
                       hidden_units=16)
        model = init_model(arch, CLASS3, seed=23, dtype=np.float32)
        features = extract_features(model, imgs)
        assert np.array_equal(features, np.stack([extract_features(model, [img])[0] for img in imgs]))

    def test_label_count_must_match(self):
        model = fusion_model(seed=24)
        img = GrayImage(np.zeros((48, 48)))
        with pytest.raises(ValueError, match="one gallery label per"):
            nearest_feature_predict(model, [img], (extract_features(model, [img]), [0, 1]))

    def test_distance_is_linalg_norm_and_duplicates_tie_to_lowest_index(self):
        model = init_model(FusionArch(classes=3), CLASS3, seed=25, dtype=np.float32)
        rng = np.random.default_rng(26)
        imgs = [GrayImage(rng.random((48, 48))) for _ in range(6)]
        features, labels = extract_features(model, imgs), np.array([0, 1, 2, 0, 1, 2])
        # Rows 6-11 repeat rows 0-5 under other labels; the first copy wins.
        gallery = (np.concatenate([features, features]),
                   np.concatenate([labels, (labels + 1) % 3]))
        probes = imgs + [GrayImage(rng.random((48, 48))) for _ in range(10)]
        for probe in probes:
            [feat] = extract_features(model, [probe])
            norms = [float(np.linalg.norm(feat - g)) for g in gallery[0]]
            [(label, dist)] = nearest_feature_predict(model, [probe], gallery)
            assert dist == min(norms)
            assert label == gallery[1][norms.index(min(norms))]
            assert norms.index(min(norms)) < 6
            for k, g in enumerate(gallery[0]):
                [(_, single)] = nearest_feature_predict(model, [probe], (g[None], labels[:1]))
                assert single == norms[k]
        for k, img in enumerate(imgs):
            assert nearest_feature_predict(model, [img], gallery) == [(labels[k], 0.0)]

    def test_non_finite_distance_raises(self):
        model = fusion_model(seed=27)
        features = extract_features(model, [GrayImage(np.zeros((48, 48)))] * 2)
        labels = np.array([0, 1])
        features[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            nearest_feature_predict(model, [GrayImage(np.zeros((48, 48)))], (features, labels))


class TestArchWindow:
    def test_small_window_trains_serves_and_round_trips(self, tmp_path):
        """A 16x16-window arch trains on and serves 48x48 images, and its
        reloaded checkpoint predicts the same."""
        arch = FusionArch(classes=3, input_size=16, crop_rows=10, conv1_channels=2,
                          conv2_channels=3, branch_units=8, fusion_units=6)
        model = init_model(arch, CLASS3, seed=1, dtype=np.float32)
        samples = generate_synthetic(3, 4, 48, 5)
        model, log = train(model, samples, TrainConfig(batch_size=8, max_epochs=3, seed=2))
        assert len(log.records) == 3
        images = [s.image for s in samples]

        def serve(m):
            gallery = (extract_features(m, images), np.array([s.label for s in samples]))
            return ([single_predict(m, [img])[0] for img in images],
                    [nearest_feature_predict(m, [img], gallery)[0] for img in images])

        softmax_preds, nearest = serve(model)
        # The gallery and the query crop the same view of each image.
        assert [d for _, d in nearest] == [0.0] * len(images)
        save_checkpoint(tmp_path / "tiny.ckpt", model)
        reloaded_softmax, reloaded_nearest = serve(load_checkpoint(tmp_path / "tiny.ckpt"))
        assert reloaded_nearest == nearest
        for (label, probs), (again, again_probs) in zip(softmax_preds, reloaded_softmax):
            assert label == again and np.array_equal(probs, again_probs)


class TestSinglePredictMlp:
    def test_descriptor_model_prediction_shape(self):
        from microexpr.features import crop_regions, handcrafted_descriptor

        rng = np.random.default_rng(17)
        img = GrayImage(rng.random((48, 48)))
        probe_desc = handcrafted_descriptor(crop_regions(img))
        arch = MlpArch(classes=3, input_dim=probe_desc.size, hidden_units=16)
        model = init_model(arch, CLASS3, seed=18)
        [(label, probs)] = single_predict(model, [img])
        assert 0 <= label < 3
        assert abs(probs.sum() - 1.0) < 1e-9


class TestReports:
    def test_json_schema(self):
        report = metrics(confusion([0, 1, 2, 1], [0, 1, 1, 1], 3), CLASS3)
        payload = json.loads(report_to_json(report, {"split_mode": "stratified",
                                                     "seed": 1,
                                                     "inference_mode": "multicrop"}))
        assert list(payload) == [
            "accuracy_trace", "accuracy_ovr_macro", "mae", "per_class", "macro", "protocol"
        ]
        assert [c["name"] for c in payload["per_class"]] == list(CLASS3)
        assert set(payload["per_class"][0]) == {
            "name", "precision", "recall", "f_measure", "sensitivity", "specificity"
        }
        assert set(payload["macro"]) == {
            "precision", "recall", "f_measure", "sensitivity", "specificity"
        }
        assert payload["protocol"]["inference_mode"] == "multicrop"
        assert payload["accuracy_trace"] == pytest.approx(0.75)
        assert payload["mae"] == pytest.approx(0.25)

    def test_confusion_csv_layout(self):
        cm = confusion([0, 1, 1], [0, 0, 1], 2)
        text = confusion_to_csv(cm, ("AN", "HA"))
        lines = text.strip().splitlines()
        assert lines[0] == "true,AN,HA"
        assert lines[1] == "AN,1,0"
        assert lines[2] == "HA,1,1"

    def test_external_predictions_evaluation(self):
        manifest = Manifest(
            (("x.pgm", "AN", "s1"), ("y.pgm", "HA", "s1"), ("z.pgm", "HA", "s2")),
            ("AN", "HA"),
        )
        true, pred = evaluate_external_predictions(
            manifest, {"x.pgm": "AN", "y.pgm": "AN", "z.pgm": "HA"}
        )
        assert true.tolist() == [0, 1, 1]
        assert pred.tolist() == [0, 0, 1]

    def test_external_predictions_missing_path(self):
        manifest = Manifest((("x.pgm", "AN", "s1"),), ("AN",))
        with pytest.raises(ManifestError, match="no prediction"):
            evaluate_external_predictions(manifest, {})

    def test_external_predictions_unknown_label(self):
        manifest = Manifest((("x.pgm", "AN", "s1"),), ("AN",))
        with pytest.raises(ManifestError, match="not in manifest"):
            evaluate_external_predictions(manifest, {"x.pgm": "ZZ"})


def test_readme_library_names_import_from_the_package():
    """Every name the README's "Library use" example imports, and every
    function its inference paragraph names, imports from `microexpr`."""
    import re
    from pathlib import Path

    import microexpr

    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Library use\n", 1)[1].split("\n## ", 1)[0]
    example = re.search(r"from microexpr import \(([^)]*)\)", section).group(1)
    paragraph = section[section.index("Every inference function"):].split("\n\n", 1)[0]
    names = {n.strip() for n in example.split(",")} | set(re.findall(r"`([a-z_]\w*)[`(]", paragraph))
    assert {"train", "multicrop_predict", "single_predict", "extract_features",
            "nearest_feature_predict"} <= names
    missing = sorted(n for n in names if not hasattr(microexpr, n))
    assert not missing, f"README names these, but `from microexpr import` fails: {missing}"
