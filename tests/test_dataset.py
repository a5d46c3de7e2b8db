import numpy as np
import pytest

from microexpr.dataset import (
    JAFFE_CLASS_NAMES,
    GrayImage,
    LabeledSample,
    Manifest,
    ManifestError,
    PgmError,
    decode_pgm,
    encode_pgm,
    generate_synthetic,
    load_manifest,
    parse_jaffe_name,
    split,
    write_manifest,
)


def make_pgm(width, height, payload, maxval=255):
    return f"P5\n{width} {height}\n{maxval}\n".encode() + bytes(payload)


class TestDecodePgm:
    def test_single_max_pixel(self):
        img = decode_pgm(make_pgm(1, 1, [255]))
        assert (img.width, img.height) == (1, 1)
        assert img.pixels[0, 0] == 1.0

    def test_values_scaled_by_255(self):
        img = decode_pgm(make_pgm(2, 1, [0, 128]))
        assert img.pixels.tolist() == [[0.0, 128 / 255]]

    def test_rejects_wrong_maxval(self):
        with pytest.raises(PgmError) as exc:
            decode_pgm(b"P5\n2 2\n65535\n" + bytes(8))
        assert exc.value.reason == "maxval"
        assert exc.value.offset == 7  # position of "65535"

    def test_rejects_bad_magic(self):
        with pytest.raises(PgmError) as exc:
            decode_pgm(b"P2\n1 1\n255\n0")
        assert exc.value.reason == "magic"
        assert exc.value.offset == 0

    def test_rejects_malformed_header(self):
        with pytest.raises(PgmError) as exc:
            decode_pgm(b"P5\nxx 1\n255\n\x00")
        assert exc.value.reason == "header"
        assert exc.value.offset == 3

    def test_rejects_truncated_payload(self):
        with pytest.raises(PgmError) as exc:
            decode_pgm(make_pgm(4, 4, [7] * 10))
        assert exc.value.reason == "truncated"
        assert exc.value.offset == len(b"P5\n4 4\n255\n") + 10
        assert "16" in str(exc.value)

    def test_comments_in_header_are_skipped(self):
        img = decode_pgm(b"P5\n# a comment\n2 1\n255\n\x10\x20")
        assert img.width == 2

    def test_roundtrip_through_writer(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            h, w = rng.integers(1, 30, size=2)
            raw = rng.integers(0, 256, size=(h, w))
            img = GrayImage(raw / 255.0)
            again = decode_pgm(encode_pgm(img))
            assert np.array_equal(again.pixels, img.pixels)


class TestParseJaffeName:
    def test_anger_sample(self):
        assert parse_jaffe_name("KA.AN1.39.pgm", JAFFE_CLASS_NAMES) == (0, "KA")

    def test_happy_sample(self):
        assert parse_jaffe_name("YM.HA3.54.pgm", JAFFE_CLASS_NAMES) == (3, "YM")

    def test_unknown_code(self):
        with pytest.raises(ValueError, match="unknown expression code"):
            parse_jaffe_name("KA.XX1.39.pgm", JAFFE_CLASS_NAMES)

    def test_unmatched_pattern(self):
        with pytest.raises(ValueError, match="does not match"):
            parse_jaffe_name("garbage.pgm", JAFFE_CLASS_NAMES)

    def test_all_seven_codes_parse_everything_else_rejected(self):
        for i, code in enumerate(JAFFE_CLASS_NAMES):
            assert parse_jaffe_name(f"TM.{code}2.11.pgm", JAFFE_CLASS_NAMES)[0] == i
        for bad in ("aa", "ZZ", "A1", "ANX"):
            with pytest.raises(ValueError):
                parse_jaffe_name(f"TM.{bad}2.11.pgm", JAFFE_CLASS_NAMES)


class TestLoadManifest:
    def test_class_names_default_to_sorted_labels(self):
        m = load_manifest("path,label,subject\na.pgm,HA,S1\nb.pgm,AN,S1\nc.pgm,HA,S2\n")
        assert m.class_names == ("AN", "HA")
        assert len(m.entries) == 3

    def test_jaffe_protocol_shape(self):
        # 213 images over 7 expressions and 10 subjects, like the real corpus.
        rows = ["# classes: " + ",".join(JAFFE_CLASS_NAMES), "path,label,subject"]
        for i in range(213):
            label = JAFFE_CLASS_NAMES[i % 7]
            rows.append(f"img{i}.pgm,{label},SUBJ{i % 10}")
        m = load_manifest("\n".join(rows))
        assert len(m.entries) == 213
        assert m.class_names == JAFFE_CLASS_NAMES
        assert len({subject for _, _, subject in m.entries}) == 10

    def test_missing_column(self):
        with pytest.raises(ManifestError, match="expected path,label,subject"):
            load_manifest("path,label,subject\nimg.pgm,HA\n")

    def test_label_not_in_declared_classes(self):
        with pytest.raises(ManifestError, match="not in declared classes"):
            load_manifest("# classes: AN,HA\npath,label,subject\nimg.pgm,SU,S1\n")

    def test_header_required(self):
        with pytest.raises(ManifestError, match="header"):
            load_manifest("img.pgm,HA,S1\n")

    def test_written_manifest_reads_back_any_path(self, tmp_path):
        entries = (("jaffe,v2/KA.AN1.39.pgm", "AN", "KA"), ('say "cheese".pgm', "HA", "S1"),
                   ("two\nlines.pgm", "AN", ""), ("plain.pgm", "HA", "S2"))
        path = tmp_path / "manifest.csv"
        write_manifest(path, entries, ("AN", "HA"))
        assert load_manifest(path.read_text()) == Manifest(entries, ("AN", "HA"))
        # A row without a comma, quote or newline is written as plain text.
        assert path.read_text().endswith("\nplain.pgm,HA,S2\n")


def _corpus(per_class, classes=7):
    samples = []
    img = GrayImage(np.zeros((4, 4)))
    for label in range(classes):
        for i in range(per_class):
            samples.append(LabeledSample(img, label, f"S{i % 5}"))
    return samples


class TestSplit:
    def test_stratified_counts(self):
        train, test = split(_corpus(10), 0.2, seed=1)
        assert (len(train), len(test)) == (56, 14)
        for label in range(7):
            assert sum(1 for s in test if s.label == label) == 2

    def test_deterministic(self):
        samples = _corpus(10)
        a = split(samples, 0.3, seed=5)
        b = split(samples, 0.3, seed=5)
        assert [id(s) for s in a[0]] == [id(s) for s in b[0]]
        assert [id(s) for s in a[1]] == [id(s) for s in b[1]]

    def test_partition(self):
        samples = _corpus(9)
        train, test = split(samples, 0.25, seed=3)
        assert len(train) + len(test) == len(samples)
        assert {id(s) for s in train} | {id(s) for s in test} == {id(s) for s in samples}
        assert not {id(s) for s in train} & {id(s) for s in test}

    def test_singleton_class_rejected(self):
        samples = _corpus(3)[:-2]  # last class keeps one sample
        with pytest.raises(ValueError, match="at least 2"):
            split(samples, 0.2, seed=0)

    def test_subject_mode_keeps_subjects_whole(self):
        samples = _corpus(10)
        train, test = split(samples, 0.4, seed=2, by_subject=True)
        assert test and train
        assert not {s.subject for s in train} & {s.subject for s in test}

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            split(_corpus(4), 1.0, seed=0)


class TestGenerateSynthetic:
    def test_counts_and_shape(self):
        samples = generate_synthetic(7, 10, 48, seed=1)
        assert len(samples) == 70
        assert all((s.image.height, s.image.width) == (48, 48) for s in samples)
        assert sorted({s.label for s in samples}) == list(range(7))

    def test_same_seed_bit_identical(self):
        a = generate_synthetic(3, 4, 32, seed=9)
        b = generate_synthetic(3, 4, 32, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x.image.pixels, y.image.pixels)
            assert (x.label, x.subject) == (y.label, y.subject)

    def test_different_seeds_differ(self):
        a = generate_synthetic(7, 10, 48, seed=1)
        b = generate_synthetic(7, 10, 48, seed=2)
        assert any(
            not np.array_equal(x.image.pixels, y.image.pixels) for x, y in zip(a, b)
        )

    def test_pixels_on_8bit_grid_in_unit_range(self):
        for s in generate_synthetic(2, 3, 16, seed=4):
            px = s.image.pixels
            assert px.min() >= 0.0 and px.max() <= 1.0
            assert np.array_equal(px, np.rint(px * 255) / 255)

    def test_precondition_violations(self):
        with pytest.raises(ValueError):
            generate_synthetic(1, 5, 48, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(3, 1, 48, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(3, 5, 8, seed=0)

    def test_classes_separable_under_gradient_histograms(self):
        # Nearest class centroid in HOG space must classify the clean corpus
        # perfectly; that is the separability contract the trainer relies on.
        from microexpr.features import hog_descriptor

        samples = generate_synthetic(7, 6, 48, seed=3)
        feats = np.stack(
            [hog_descriptor(s.image, cell=8, bins=9) for s in samples]
        )
        labels = np.array([s.label for s in samples])
        centroids = np.stack([feats[labels == k].mean(axis=0) for k in range(7)])
        predicted = np.argmin(
            ((feats[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2), axis=1
        )
        assert np.array_equal(predicted, labels)
