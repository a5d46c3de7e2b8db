import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import microexpr
from microexpr import evaluation, features, network, training
from microexpr.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    ConfigError,
    build_parser,
    load_pixel_stats,
    main,
    parse_config_file,
    resolve_settings,
    save_pixel_stats,
)
from microexpr.dataset import GrayImage, decode_pgm, encode_pgm, load_manifest, write_manifest
from microexpr.network import FusionArch, init_model, load_checkpoint, save_checkpoint
from microexpr.preprocess import HomomorphicParams, PixelStats, prepare


def untrained_model(root):
    """A freshly initialized two-class fusion checkpoint and a 48x48 image."""
    ckpt, image = root / "model.ckpt", root / "face.pgm"
    save_checkpoint(ckpt, init_model(FusionArch(classes=2), ("C0", "C1"), seed=0,
                                     dtype=np.float32))
    image.write_bytes(encode_pgm(GrayImage(np.random.default_rng(0).random((48, 48)))))
    return ckpt, image


def run_pipeline(root, seed=3, classes=3, per_class=8, epochs=3, extra_train=()):
    """synth -> preprocess -> train -> eval, returning the run directory."""
    data = root / "data"
    work = root / "work"
    run = root / "run"
    assert main(["synth", "--classes", str(classes), "--per-class", str(per_class),
                 "--seed", str(seed), "--out", str(data)]) == EXIT_OK
    assert main(["preprocess", "--manifest", str(data / "manifest.csv"),
                 "--split-fraction", "0.25", "--seed", str(seed),
                 "--out", str(work)]) == EXIT_OK
    assert main(["train", "--train-manifest", str(work / "train.csv"),
                 "--stats", str(work / "pixel_stats.bin"),
                 "--batch-size", "16", "--max-epochs", str(epochs),
                 "--seed", str(seed), "--out", str(run), *extra_train]) == EXIT_OK
    assert main(["eval", "--test-manifest", str(work / "test.csv"),
                 "--checkpoint", str(run / "model.ckpt"),
                 "--seed", str(seed), "--out", str(run)]) == EXIT_OK
    return run


class TestConfigFile:
    def test_parse_flat_keys(self):
        text = "# a comment\nlr = 0.5\nbatch_size = 32  # trailing\n\nseed=9\n"
        assert parse_config_file(text) == {"lr": 0.5, "batch_size": 32, "seed": 9}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file("just words\n")

    def test_precedence_flag_beats_file_beats_default(self, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text("lr = 0.5\nbatch_size = 32\nsplit_mode = subject\n")

        def resolved(*flags):
            args = build_parser().parse_args(["train", "--train-manifest", "m.csv",
                                              "--config", str(config), *flags])
            resolve_settings(args)
            return args

        assert resolved("--lr", "0.9").train_config.lr == 0.9
        assert resolved().lr == resolved().train_config.lr == 0.5
        assert resolved().momentum == 0.9
        assert resolved().train_config.batch_size == 32
        assert resolved("--batch-size", "8").train_config.batch_size == 8
        assert resolved().split_mode == "subject"

    def test_config_file_drives_training_options(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_epochs = 2\nbatch_size = 16\n")
        data = tmp_path / "data"
        work = tmp_path / "work"
        run = tmp_path / "run"
        assert main(["synth", "--classes", "2", "--per-class", "6", "--seed", "1",
                     "--out", str(data)]) == EXIT_OK
        assert main(["preprocess", "--manifest", str(data / "manifest.csv"),
                     "--seed", "1", "--out", str(work)]) == EXIT_OK
        assert main(["train", "--train-manifest", str(work / "train.csv"),
                     "--config", str(cfg), "--seed", "1", "--out", str(run)]) == EXIT_OK
        log = (run / "train_log.csv").read_text().strip().splitlines()
        assert len(log) == 1 + 2  # header + exactly the configured two epochs

    def test_file_value_outside_choices_refused(self):
        with pytest.raises(ConfigError, match="config key split_mode: 'subjetc' is not one of"):
            parse_config_file("split_mode = subjetc\n")

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_option = 1\n")
        rc = main(["synth", "--classes", "2", "--per-class", "4",
                   "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert rc == EXIT_VALIDATION


class TestPixelStatsFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        stats = PixelStats(rng.random((5, 4)), rng.random((5, 4)) + 0.1, 1e-6)
        path = tmp_path / "stats.bin"
        save_pixel_stats(path, stats)
        loaded = load_pixel_stats(path)
        assert np.allclose(loaded.mean, stats.mean, atol=1e-7)
        assert np.allclose(loaded.std, stats.std, atol=1e-7)
        assert loaded.epsilon == pytest.approx(1e-6)

    def test_determinism(self, tmp_path):
        stats = PixelStats(np.ones((2, 2)), np.ones((2, 2)), 1e-6)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_pixel_stats(a, stats)
        save_pixel_stats(b, stats)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("edit", [lambda d: d[:-4], lambda d: d + b"\0\0\0\0"],
                             ids=["short", "trailing"])
    def test_payload_length_checked(self, tmp_path, edit):
        path = tmp_path / "stats.bin"
        save_pixel_stats(path, PixelStats(np.ones((2, 2)), np.ones((2, 2)), 1e-6))
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError, match="payload"):
            load_pixel_stats(path)

    def test_old_format_refused(self, tmp_path):
        path = tmp_path / "stats.bin"
        path.write_bytes(b"MFESTATS1\nshape 2,2\nend\n" + np.ones(9, dtype="<f4").tobytes())
        with pytest.raises(ValueError, match="microexpr preprocess"):
            load_pixel_stats(path)

    @pytest.mark.parametrize("header, message", [
        (b"tensor pixel_stats.mean\ntensor pixel_stats.std 2,2\n"
         b"tensor pixel_stats.epsilon 1\nend\n", "malformed tensor line"),
        (b"tensor pixel_stats.mean 2,x\ntensor pixel_stats.std 2,2\n"
         b"tensor pixel_stats.epsilon 1\nend\n", "malformed tensor line"),
        (b"tensor pixel_stats.mean 2,2\ntensor pixel_stats.std 2,2\n"
         b"tensor pixel_stats.epsilon 1\n", "no end line"),
    ], ids=["missing-dims", "non-integer-dims", "no-end-line"])
    def test_malformed_header_is_validation_error(self, tmp_path, capsys, header, message):
        data, work = tmp_path / "data", tmp_path / "work"
        assert main(["synth", "--classes", "2", "--per-class", "4", "--seed", "1",
                     "--out", str(data)]) == EXIT_OK
        assert main(["preprocess", "--manifest", str(data / "manifest.csv"),
                     "--seed", "1", "--out", str(work)]) == EXIT_OK
        stats = tmp_path / "stats.bin"
        stats.write_bytes(network.TENSOR_MAGIC + header + np.ones(9, dtype="<f4").tobytes())
        rc = main(["train", "--train-manifest", str(work / "train.csv"),
                   "--stats", str(stats), "--out", str(tmp_path / "run")])
        assert rc == EXIT_VALIDATION
        assert message in capsys.readouterr().err


    @pytest.mark.parametrize("tensor", ["mean", "std"])
    def test_nan_payload_is_validation_error(self, tmp_path, capsys, tensor):
        data, work = tmp_path / "data", tmp_path / "work"
        assert main(["synth", "--classes", "2", "--per-class", "4", "--seed", "1",
                     "--out", str(data)]) == EXIT_OK
        assert main(["preprocess", "--manifest", str(data / "manifest.csv"),
                     "--seed", "1", "--out", str(work)]) == EXIT_OK
        stats = load_pixel_stats(work / "pixel_stats.bin")
        # Payloads follow the header in the order mean, std, epsilon.
        data_bytes = (work / "pixel_stats.bin").read_bytes()
        start = data_bytes.index(b"\nend\n") + len(b"\nend\n")
        if tensor == "std":
            start += 4 * stats.mean.size
        nan = np.full(stats.mean.size, np.nan, dtype="<f4").tobytes()
        bad = tmp_path / "nan_stats.bin"
        bad.write_bytes(data_bytes[:start] + nan + data_bytes[start + len(nan):])
        with pytest.raises(ValueError, match="must be finite"):
            load_pixel_stats(bad)
        capsys.readouterr()
        rc = main(["train", "--train-manifest", str(work / "train.csv"),
                   "--stats", str(bad), "--max-epochs", "1", "--out", str(tmp_path / "run")])
        assert rc == EXIT_VALIDATION
        assert "mean and std must be finite" in capsys.readouterr().err
        assert not (tmp_path / "run" / "model.ckpt").exists()


class TestPipeline:
    def test_end_to_end_artifacts(self, tmp_path, capsys):
        run = run_pipeline(tmp_path)
        metrics = json.loads((run / "metrics.json").read_text())
        assert set(metrics) == {
            "accuracy_trace", "accuracy_ovr_macro", "mae", "per_class", "macro", "protocol"
        }
        confusion = (run / "confusion.csv").read_text().splitlines()
        assert confusion[0].startswith("true,")
        assert (run / "model.ckpt").exists()
        out = capsys.readouterr().out
        assert "macro accuracy" in out
        assert "protocol" in out

    def test_synth_plus_preprocess_counts(self, tmp_path):
        data = tmp_path / "data"
        work = tmp_path / "work"
        assert main(["synth", "--classes", "3", "--per-class", "8", "--seed", "2",
                     "--out", str(data)]) == EXIT_OK
        assert len(list((data / "images").glob("*.pgm"))) == 24
        assert main(["preprocess", "--manifest", str(data / "manifest.csv"),
                     "--split-fraction", "0.25", "--seed", "2",
                     "--out", str(work)]) == EXIT_OK
        assert len(list((work / "images").glob("*.pgm"))) == 24
        train_rows = (work / "train.csv").read_text().strip().splitlines()
        test_rows = (work / "test.csv").read_text().strip().splitlines()
        assert len(train_rows) - 3 == 18  # classes, split and header lines
        assert len(test_rows) - 3 == 6
        assert (work / "pixel_stats.bin").exists()

    @pytest.mark.parametrize("resized", ["pipeline", "edge values"])
    def test_prepared_image_is_what_its_pgm_reloads(self, monkeypatch, resized):
        """preprocess fits the pixel statistics on prepare's output,
        and training reads its PGM: the two must be the same bits.  "edge
        values" hands the quantization values outside [0, 1] and exact
        half-steps of the 8-bit grid in place of the resized image."""
        rng = np.random.default_rng(28)
        if resized == "edge values":
            values = rng.uniform(-0.5, 1.5, size=48 * 48)
            half = (np.arange(255) + 0.5) / 255.0
            half = half[half * 255.0 == np.arange(255) + 0.5]  # exact x.5 once scaled
            values[: len(half)] = half
            values = values.reshape(48, 48)
            monkeypatch.setattr(microexpr.preprocess, "bilinear_resize", lambda px, h, w: values)
            assert len(half) > 100 and values.min() < 0.0 and values.max() > 1.0
        prepared = prepare(GrayImage(rng.random((64, 64))), HomomorphicParams())
        reloaded = decode_pgm(encode_pgm(prepared))
        assert prepared.pixels.tobytes() == reloaded.pixels.tobytes()

    def test_determinism_byte_identical_artifacts(self, tmp_path):
        run_a = run_pipeline(tmp_path / "a", seed=7)
        run_b = run_pipeline(tmp_path / "b", seed=7)
        assert (run_a / "model.ckpt").read_bytes() == (run_b / "model.ckpt").read_bytes()
        assert (run_a / "metrics.json").read_bytes() == (run_b / "metrics.json").read_bytes()
        assert (run_a / "confusion.csv").read_bytes() == (run_b / "confusion.csv").read_bytes()

    def test_worker_count_never_changes_outputs(self, tmp_path):
        data = tmp_path / "data"
        assert main(["synth", "--classes", "2", "--per-class", "5", "--seed", "6",
                     "--out", str(data)]) == EXIT_OK
        outs = []
        for workers in ("1", "4"):
            work = tmp_path / f"w{workers}"
            assert main(["preprocess", "--manifest", str(data / "manifest.csv"),
                         "--workers", workers, "--seed", "6", "--out", str(work)]) == EXIT_OK
            outs.append(
                {p.name: p.read_bytes() for p in sorted((work / "images").glob("*.pgm"))}
                | {"stats": (work / "pixel_stats.bin").read_bytes(),
                   "train": (work / "train.csv").read_bytes()}
            )
        assert outs[0] == outs[1]

    def test_periodic_checkpoints(self, tmp_path):
        data = tmp_path / "data"
        work = tmp_path / "work"
        run = tmp_path / "run"
        assert main(["synth", "--classes", "2", "--per-class", "6", "--seed", "8",
                     "--out", str(data)]) == EXIT_OK
        assert main(["preprocess", "--manifest", str(data / "manifest.csv"),
                     "--seed", "8", "--out", str(work)]) == EXIT_OK
        assert main(["train", "--train-manifest", str(work / "train.csv"),
                     "--max-epochs", "5", "--checkpoint-every", "2", "--seed", "8",
                     "--out", str(run)]) == EXIT_OK
        assert (run / "model_epoch2.ckpt").exists()
        assert (run / "model_epoch4.ckpt").exists()
        assert not (run / "model_epoch5.ckpt").exists()
        mid = load_checkpoint(run / "model_epoch2.ckpt")
        assert mid.arch.classes == 2

    def test_predict_multicrop(self, tmp_path, capsys):
        run = run_pipeline(tmp_path)
        work = tmp_path / "work"
        image = next((work / "images").glob("*.pgm"))
        capsys.readouterr()  # drop pipeline chatter
        assert main(["predict", str(image), "--checkpoint", str(run / "model.ckpt")]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        label, prob = out.split()
        assert label in ("C0", "C1", "C2")
        assert 1 / 3 - 1e-9 <= float(prob) <= 1.0

    def test_predict_nearest_feature_self_gallery(self, tmp_path, capsys):
        run = run_pipeline(tmp_path)
        work = tmp_path / "work"
        first_row = load_manifest((work / "train.csv").read_text()).entries[0]
        image = work / first_row[0]
        capsys.readouterr()  # drop pipeline chatter
        assert main(["predict", str(image), "--checkpoint", str(run / "model.ckpt"),
                     "--inference-mode", "nearest-feature",
                     "--gallery-manifest", str(work / "train.csv")]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        label, dist = out.split()
        assert label == first_row[1]
        assert float(dist) == 0.0

    def test_predict_nearest_feature_past_first_gallery_chunk(self, tmp_path, capsys):
        ckpt, _ = untrained_model(tmp_path)
        rng = np.random.default_rng(5)
        n = evaluation.GALLERY_CHUNK + 8
        rows = []
        for i in range(n):
            (tmp_path / f"g{i}.pgm").write_bytes(encode_pgm(GrayImage(rng.random((48, 48)))))
            rows.append(f"g{i}.pgm,C{i % 2},s{i}")
        gallery = tmp_path / "gallery.csv"
        gallery.write_text("# classes: C0,C1\npath,label,subject\n" + "\n".join(rows) + "\n")
        k = evaluation.GALLERY_CHUNK + 5
        assert main(["predict", str(tmp_path / f"g{k}.pgm"), "--checkpoint", str(ckpt),
                     "--inference-mode", "nearest-feature",
                     "--gallery-manifest", str(gallery)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == f"C{k % 2} 0.000000"

    def test_eval_nearest_feature_mode(self, tmp_path):
        run = run_pipeline(tmp_path)
        work = tmp_path / "work"
        assert main(["eval", "--test-manifest", str(work / "test.csv"),
                     "--checkpoint", str(run / "model.ckpt"),
                     "--inference-mode", "nearest-feature",
                     "--gallery-manifest", str(work / "train.csv"),
                     "--out", str(run)]) == EXIT_OK
        metrics = json.loads((run / "metrics.json").read_text())
        assert metrics["protocol"]["inference_mode"] == "nearest-feature"

    def test_eval_external_predictions_same_schema(self, tmp_path):
        data = tmp_path / "data"
        out = tmp_path / "out"
        assert main(["synth", "--classes", "2", "--per-class", "4", "--seed", "5",
                     "--out", str(data)]) == EXIT_OK
        manifest_lines = (data / "manifest.csv").read_text().strip().splitlines()
        rows = [line.split(",") for line in manifest_lines[2:]]
        pred_csv = tmp_path / "preds.csv"
        pred_csv.write_text(
            "path,predicted_label\n" + "\n".join(f"{r[0]},{r[1]}" for r in rows) + "\n"
        )
        assert main(["eval", "--test-manifest", str(data / "manifest.csv"),
                     "--predictions", str(pred_csv), "--out", str(out)]) == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["accuracy_trace"] == 1.0
        assert metrics["protocol"]["inference_mode"] == "external"

    @pytest.mark.parametrize("profile,mode", [("cnn-fusion", "multicrop"),
                                              ("cnn-fusion", "nearest-feature"),
                                              ("mlp-handcrafted", "multicrop")])
    def test_external_predictions_score_like_the_checkpoint(self, tmp_path, capsys, profile,
                                                             mode):
        """eval --predictions of the labels predict gives with a checkpoint
        writes the confusion.csv and metrics.json that the checkpoint's own
        eval writes, but for the protocol's inference mode."""
        data, work, run = tmp_path / "data", tmp_path / "work", tmp_path / "run"
        assert main(["synth", "--classes", "3", "--per-class", "6", "--seed", "6",
                     "--out", str(data)]) == EXIT_OK
        assert main(["preprocess", "--manifest", str(data / "manifest.csv"),
                     "--split-fraction", "0.25", "--seed", "6", "--out", str(work)]) == EXIT_OK
        assert main(["train", "--train-manifest", str(work / "train.csv"),
                     "--stats", str(work / "pixel_stats.bin"), "--profile", profile,
                     "--max-epochs", "1", "--seed", "6", "--out", str(run)]) == EXIT_OK
        ckpt, test = str(run / "model.ckpt"), work / "test.csv"
        flags = ["--inference-mode", mode]
        if mode == "nearest-feature":
            flags += ["--gallery-manifest", str(work / "train.csv")]
        checkpoint_eval, external_eval = tmp_path / "checkpoint-eval", tmp_path / "external-eval"
        assert main(["eval", "--test-manifest", str(test), "--checkpoint", ckpt, *flags,
                     "--out", str(checkpoint_eval)]) == EXIT_OK
        rows = ["path,predicted_label"]
        for path, _, _ in load_manifest(test.read_text()).entries:
            capsys.readouterr()
            assert main(["predict", str(work / path), "--checkpoint", ckpt, *flags]) == EXIT_OK
            rows.append(f"{path},{capsys.readouterr().out.split()[0]}")
        predictions = tmp_path / "predictions.csv"
        predictions.write_text("\n".join(rows) + "\n")
        assert main(["eval", "--test-manifest", str(test), "--predictions", str(predictions),
                     "--out", str(external_eval)]) == EXIT_OK
        assert ((external_eval / "confusion.csv").read_bytes()
                == (checkpoint_eval / "confusion.csv").read_bytes())
        external = (external_eval / "metrics.json").read_text()
        assert external.count('"inference_mode": "external"') == 1
        assert (external.replace('"inference_mode": "external"', f'"inference_mode": "{mode}"')
                == (checkpoint_eval / "metrics.json").read_text())

    def test_protocol_is_the_split_the_test_manifest_records(self, tmp_path):
        """eval reports the split preprocess recorded in test.csv, from a
        checkpoint and from --predictions, without a split flag; a manifest
        with no record reports null for each split key."""
        data, work, run = tmp_path / "data", tmp_path / "work", tmp_path / "run"
        assert main(["synth", "--classes", "2", "--per-class", "4", "--seed", "1",
                     "--out", str(data)]) == EXIT_OK
        assert main(["preprocess", "--manifest", str(data / "manifest.csv"), "--split-mode",
                     "subject", "--seed", "5", "--split-fraction", "0.25",
                     "--out", str(work)]) == EXIT_OK
        assert main(["train", "--train-manifest", str(work / "train.csv"), "--max-epochs", "1",
                     "--out", str(run)]) == EXIT_OK
        test, checkpoint = work / "test.csv", ["--checkpoint", str(run / "model.ckpt")]
        predictions = tmp_path / "predictions.csv"
        predictions.write_text("path,predicted_label\n" + "".join(
            f"{path},{label}\n" for path, label, _ in load_manifest(test.read_text()).entries))
        recorded = {"split_mode": "subject", "seed": 5, "split_fraction": 0.25}
        unrecorded = dict.fromkeys(recorded)
        for i, (manifest, source, split, mode) in enumerate([
                (test, checkpoint, recorded, "multicrop"),
                (test, ["--predictions", str(predictions)], recorded, "external"),
                (work / "manifest.csv", checkpoint, unrecorded, "multicrop"),
                (data / "manifest.csv", checkpoint, unrecorded, "multicrop")]):
            out = tmp_path / f"eval{i}"
            assert main(["eval", "--test-manifest", str(manifest), *source,
                         "--out", str(out)]) == EXIT_OK
            protocol = json.loads((out / "metrics.json").read_text())["protocol"]
            assert list(protocol.items()) == [*split.items(), ("inference_mode", mode)]

    def test_prediction_path_with_a_newline_reads_back(self, tmp_path):
        """A predictions CSV is read by the rules of a manifest, so a quoted
        path keeps its line break in both."""
        manifest, predictions, out = tmp_path / "m.csv", tmp_path / "p.csv", tmp_path / "out"
        manifest.write_text('# classes: C0,C1\npath,label,subject\n"a\nb.pgm",C0,s0\nc.pgm,C1,s1\n')
        predictions.write_text('path,predicted_label\n"a\nb.pgm",C0\nc.pgm,C0\n')
        assert main(["eval", "--test-manifest", str(manifest), "--predictions", str(predictions),
                     "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "metrics.json").read_text())["accuracy_trace"] == 0.5

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                      "\u2028", "\u2029"])
    def test_prediction_path_with_a_character_csv_does_not_quote_reads_back(self, tmp_path,
                                                                             char):
        manifest, predictions, out = tmp_path / "m.csv", tmp_path / "p.csv", tmp_path / "out"
        write_manifest(manifest, [(f"a{char}b.pgm", "C0", "s0"), ("c.pgm", "C1", "s1")],
                       ("C0", "C1"), None)
        predictions.write_text(f"path,predicted_label\na{char}b.pgm,C0\nc.pgm,C0\n",
                               encoding="utf-8")
        assert main(["eval", "--test-manifest", str(manifest), "--predictions", str(predictions),
                     "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "metrics.json").read_text())["accuracy_trace"] == 0.5

    def test_blank_prediction_row_skipped(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,subject\nx.pgm,A,s0\ny.pgm,B,s1\n")
        written = []
        for name, text in [("plain", "path,predicted_label\nx.pgm,A\ny.pgm,B\n"),
                           ("blank", "path,predicted_label\nx.pgm,A\n\ny.pgm,B\n")]:
            predictions, out = tmp_path / f"{name}.csv", tmp_path / name
            predictions.write_text(text)
            assert main(["eval", "--test-manifest", str(manifest), "--predictions",
                         str(predictions), "--out", str(out)]) == EXIT_OK
            written.append([(out / f).read_bytes() for f in ("metrics.json", "confusion.csv")])
        assert written[0] == written[1]

    @pytest.mark.parametrize("profile", ["cnn-fusion", "mlp-handcrafted"])
    def test_train_eval_and_predict_feed_the_same_input(self, tmp_path, monkeypatch, profile):
        """Per image, the network input train fits is the one eval and
        predict forward.  Augmentation is swapped for the center crop, so a
        fusion training row is the view nearest-feature eval forwards."""
        data, work, run = tmp_path / "data", tmp_path / "work", tmp_path / "run"
        assert main(["synth", "--classes", "2", "--per-class", "4", "--seed", "2",
                     "--out", str(data)]) == EXIT_OK
        assert main(["preprocess", "--manifest", str(data / "manifest.csv"),
                     "--split-fraction", "0.25", "--seed", "2", "--out", str(work)]) == EXIT_OK
        fed = []

        def recording_forward(model, batch, mode, rng=None):
            fed.extend(row.tobytes() for row in batch)
            return network.forward(model, batch, mode, rng)

        monkeypatch.setattr(training, "forward", recording_forward)
        monkeypatch.setattr(evaluation, "forward", recording_forward)
        monkeypatch.setattr(training, "apply_augment",
                            lambda pixels, params, window: pixels[:, 3:45, 3:45])
        assert main(["train", "--train-manifest", str(work / "train.csv"),
                     "--stats", str(work / "pixel_stats.bin"), "--profile", profile,
                     "--max-epochs", "1", "--seed", "2", "--out", str(run)]) == EXIT_OK
        trained = set(fed)
        assert len(trained) == 6
        ckpt = run / "model.ckpt"

        fed.clear()
        assert main(["eval", "--test-manifest", str(work / "train.csv"), "--checkpoint", str(ckpt),
                     "--inference-mode", "nearest-feature",
                     "--gallery-manifest", str(work / "train.csv"), "--out", str(run)]) == EXIT_OK
        assert set(fed) == trained

        predicted = set()
        for path, _, _ in load_manifest((work / "train.csv").read_text()).entries:
            fed.clear()
            assert main(["predict", str(work / path), "--checkpoint", str(ckpt)]) == EXIT_OK
            [row] = trained.intersection(fed)
            predicted.add(row)
        assert predicted == trained
        assert (load_checkpoint(ckpt).pixel_stats is None) == (profile == "mlp-handcrafted")

    @pytest.mark.parametrize("profile", ["cnn-fusion", "mlp-handcrafted"])
    def test_eval_chunks_change_no_output(self, tmp_path, capsys, monkeypatch, profile):
        """Softmax and nearest-feature eval and predict print and write the
        same bytes with one image per forward as with the default chunks,
        which pack the descriptor MLP's hidden weight."""
        data, work, run = tmp_path / "data", tmp_path / "work", tmp_path / "run"
        assert main(["synth", "--classes", "2", "--per-class", "12", "--seed", "4",
                     "--out", str(data)]) == EXIT_OK
        assert main(["preprocess", "--manifest", str(data / "manifest.csv"),
                     "--split-fraction", "0.25", "--seed", "4", "--out", str(work)]) == EXIT_OK
        assert main(["train", "--train-manifest", str(work / "train.csv"),
                     "--stats", str(work / "pixel_stats.bin"), "--profile", profile,
                     "--max-epochs", "1", "--seed", "4", "--out", str(run)]) == EXIT_OK
        ckpt = str(run / "model.ckpt")
        # All 24 images, so a default chunk holds more than PACK_MIN_ROWS rows.
        images = str(work / "manifest.csv")
        nearest = ["--inference-mode", "nearest-feature", "--gallery-manifest", images]
        image = str(work / load_manifest((work / "test.csv").read_text()).entries[0][0])
        calls = {"eval": ["eval", "--test-manifest", images, "--checkpoint", ckpt],
                 "eval-nearest": ["eval", "--test-manifest", images, "--checkpoint", ckpt,
                                  *nearest],
                 "predict": ["predict", image, "--checkpoint", ckpt],
                 "predict-nearest": ["predict", image, "--checkpoint", ckpt, *nearest]}
        packed = []
        pack = network._packed_rowwise

        def counted(*args):
            packed.append(args)
            return pack(*args)

        monkeypatch.setattr(network, "_packed_rowwise", counted)

        def outputs(tag):
            capsys.readouterr()
            got = {}
            for name, argv in calls.items():
                out = tmp_path / f"{tag}-{name}"
                extra = ["--out", str(out)] if argv[0] == "eval" else []
                assert main(argv + extra) == EXIT_OK
                got[name] = capsys.readouterr().out
                if extra:
                    got[name] += (out / "metrics.json").read_text()
            return got

        default = outputs("default")
        assert bool(packed) == (profile == "mlp-handcrafted")
        monkeypatch.setattr(evaluation, "GALLERY_CHUNK", 1)
        assert outputs("one") == default

    def test_mlp_profile_trains_and_evaluates(self, tmp_path):
        run = run_pipeline(tmp_path, classes=2, per_class=6, epochs=2,
                           extra_train=["--profile", "mlp-handcrafted"])
        metrics = json.loads((run / "metrics.json").read_text())
        assert "accuracy_trace" in metrics

    def test_ingest_jaffe_names(self, tmp_path, capsys):
        src = tmp_path / "raw"
        src.mkdir()
        rng = np.random.default_rng(1)
        for name in ("KA.AN1.39.pgm", "KA.HA2.40.pgm", "YM.SU3.41.pgm"):
            (src / name).write_bytes(encode_pgm(GrayImage(rng.random((16, 16)))))
        out = tmp_path / "out"
        assert main(["ingest", str(src), "--out", str(out)]) == EXIT_OK
        text = (out / "manifest.csv").read_text()
        assert text.startswith("# classes: AN,DI,FE,HA,NE,SA,SU\n")
        assert "KA.AN1.39.pgm,AN,KA" in text

    @pytest.mark.parametrize("name", ["C1,x", "C1\nx"], ids=["comma", "newline"])
    def test_preprocess_refuses_unwritable_class_name(self, tmp_path, capsys, name):
        """Without a classes line the class names are the labels as written;
        one that the written manifests' classes line cannot hold exits 1,
        naming it, before anything is written."""
        data, out = tmp_path / "data", tmp_path / "prep"
        assert main(["synth", "--classes", "2", "--per-class", "4", "--seed", "1",
                     "--out", str(data)]) == EXIT_OK
        rows = (data / "manifest.csv").read_text().splitlines()[1:]
        quoted = '"' + name + '"'
        manifest = data / "renamed.csv"
        manifest.write_text("\n".join(r.replace(",C1,", f",{quoted},") for r in rows) + "\n")
        rc = main(["preprocess", "--manifest", str(manifest), "--seed", "1", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: ") and repr(name) in err
        assert not out.exists()

    def test_manifest_paths_holding_commas_read_back(self, tmp_path):
        """Every manifest a command writes quotes a path that holds a comma,
        so the next command reads the path back."""
        rng = np.random.default_rng(7)
        src = tmp_path / "jaffe,v2"
        src.mkdir()
        for name in ("KA.AN1.39.pgm", "KA.HA2.40.pgm", "YM.SU3.41.pgm"):
            (src / name).write_bytes(encode_pgm(GrayImage(rng.random((48, 48)))))
        ingested = tmp_path / "ingested"
        assert main(["ingest", str(src), "--out", str(ingested)]) == EXIT_OK
        entries = load_manifest((ingested / "manifest.csv").read_text()).entries
        assert [path for path, _, _ in entries] == [str(p.resolve()) for p in sorted(src.iterdir())]
        assert main(["features", "--manifest", str(ingested / "manifest.csv"),
                     "--out", str(tmp_path / "ingested-features")]) == EXIT_OK

        raw, prep = tmp_path / "raw", tmp_path / "prep"
        (raw / "images").mkdir(parents=True)
        rows = ["path,label,subject"]
        for i in range(8):
            (raw / "images" / f"a,{i}.pgm").write_bytes(
                encode_pgm(GrayImage(rng.random((48, 48)))))
            rows.append(f'"images/a,{i}.pgm",C{i % 2},s{i}')
        (raw / "manifest.csv").write_text("\n".join(rows) + "\n")
        assert main(["preprocess", "--manifest", str(raw / "manifest.csv"),
                     "--out", str(prep)]) == EXIT_OK
        written = [load_manifest((prep / name).read_text()).entries
                   for name in ("manifest.csv", "train.csv", "test.csv")]
        assert [path for path, _, _ in written[0]] == [f"images/a,{i}.pgm" for i in range(8)]
        assert sorted(written[1] + written[2]) == sorted(written[0])
        assert main(["features", "--manifest", str(prep / "manifest.csv"),
                     "--out", str(tmp_path / "prep-features")]) == EXIT_OK

    def test_features_csv(self, tmp_path):
        data = tmp_path / "data"
        out = tmp_path / "feat"
        assert main(["synth", "--classes", "2", "--per-class", "3", "--size", "24",
                     "--seed", "4", "--out", str(data)]) == EXIT_OK
        assert main(["features", "--manifest", str(data / "manifest.csv"),
                     "--out", str(out)]) == EXIT_OK
        lines = (out / "descriptors.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 6
        header = lines[0].split(",")
        assert header[0] == "eyes.lbp.0"
        assert header[-1] == "label"


class TestExitCodes:
    def test_empty_manifest_is_validation_error(self, tmp_path):
        m = tmp_path / "empty.csv"
        m.write_text("path,label,subject\n")
        rc = main(["preprocess", "--manifest", str(m), "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("message", ["Unable to allocate 149. GiB for an array with shape "
                                         "(2, 100000, 100000) and data type float64", ""])
    def test_out_of_memory_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys, message):
        from microexpr import dataset

        def exhausted(*args):
            raise MemoryError(message)

        monkeypatch.setattr(dataset, "generate_synthetic", exhausted)
        rc = main(["synth", "--classes", "2", "--per-class", "2", "--size", "100000",
                   "--out", str(tmp_path / "raw")])
        assert rc == EXIT_RUNTIME
        assert capsys.readouterr().err == "error: out of memory" + (f": {message}" if message else "") + "\n"
        assert not (tmp_path / "raw").exists()

    def test_max_epochs_zero_rejected(self, tmp_path):
        data = tmp_path / "data"
        work = tmp_path / "work"
        assert main(["synth", "--classes", "2", "--per-class", "4", "--seed", "1",
                     "--out", str(data)]) == EXIT_OK
        assert main(["preprocess", "--manifest", str(data / "manifest.csv"),
                     "--seed", "1", "--out", str(work)]) == EXIT_OK
        rc = main(["train", "--train-manifest", str(work / "train.csv"),
                   "--max-epochs", "0", "--out", str(tmp_path / "r")])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("name", ["überrascht", "C1,x", "C1\nx"],
                             ids=["non-ascii", "comma", "newline"])
    def test_unstorable_class_name_refused_before_training(self, tmp_path, capsys, name):
        data, work = tmp_path / "data", tmp_path / "work"
        assert main(["synth", "--classes", "2", "--per-class", "4", "--seed", "1",
                     "--out", str(data)]) == EXIT_OK
        assert main(["preprocess", "--manifest", str(data / "manifest.csv"),
                     "--seed", "1", "--out", str(work)]) == EXIT_OK
        # Without the classes line the class names are the labels as written.
        rows = (work / "train.csv").read_text().splitlines()[1:]
        quoted = '"' + name + '"'
        manifest = work / "renamed.csv"
        manifest.write_text("\n".join(r.replace(",C1,", f",{quoted},") for r in rows) + "\n",
                            encoding="utf-8")
        for profile in ("cnn-fusion", "mlp-handcrafted"):
            run = tmp_path / profile
            rc = main(["train", "--train-manifest", str(manifest), "--profile", profile,
                       "--max-epochs", "1", "--out", str(run)])
            assert rc == EXIT_VALIDATION
            assert "cannot be stored in a checkpoint" in capsys.readouterr().err
            assert not (run / "model.ckpt").exists()
            assert not (run / "train_log.csv").exists()

    def test_malformed_pgm_predict_is_validation_error(self, tmp_path, capsys):
        run = run_pipeline(tmp_path, classes=2, per_class=6, epochs=1)
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n9 9\n255\nshort")
        rc = main(["predict", str(bad), "--checkpoint", str(run / "model.ckpt")])
        assert rc == EXIT_VALIDATION
        assert "byte offset" in capsys.readouterr().err

    def test_predict_refuses_unprepared_image(self, tmp_path, capsys):
        ckpt, _ = untrained_model(tmp_path)
        raw = tmp_path / "raw.pgm"
        raw.write_bytes(encode_pgm(GrayImage(np.random.default_rng(1).random((64, 64)))))
        assert main(["predict", str(raw), "--checkpoint", str(ckpt)]) == EXIT_VALIDATION
        assert "microexpr preprocess" in capsys.readouterr().err

    def test_descriptor_mlp_takes_any_image_size(self, tmp_path, capsys):
        """The descriptor MLP reads 64x64 images in train, eval and predict
        alike, and predict prints the label eval gives the image."""
        data, run, scored = tmp_path / "data", tmp_path / "run", tmp_path / "eval"
        assert main(["synth", "--classes", "2", "--per-class", "3", "--size", "64",
                     "--seed", "4", "--out", str(data)]) == EXIT_OK
        assert main(["train", "--train-manifest", str(data / "manifest.csv"),
                     "--profile", "mlp-handcrafted", "--max-epochs", "2", "--seed", "4",
                     "--out", str(run)]) == EXIT_OK
        lines = (data / "manifest.csv").read_text().splitlines()
        image, label, _ = lines[2].split(",")
        (data / "one.csv").write_text("\n".join(lines[:3]) + "\n")
        assert main(["eval", "--test-manifest", str(data / "one.csv"),
                     "--checkpoint", str(run / "model.ckpt"), "--out", str(scored)]) == EXIT_OK
        header, *rows = [row.split(",") for row in
                         (scored / "confusion.csv").read_text().splitlines()]
        [counts] = [row[1:] for row in rows if row[0] == label]
        capsys.readouterr()
        assert main(["predict", str(data / image), "--checkpoint", str(run / "model.ckpt")]) \
            == EXIT_OK
        assert capsys.readouterr().out.split()[0] == header[1 + counts.index("1")]

    @pytest.mark.parametrize("command", ["predict", "eval", "train", "gallery"])
    def test_descriptor_model_names_an_image_too_small_to_crop(self, tmp_path, capsys,
                                                               command):
        ckpt, face = untrained_model(tmp_path)
        arch = network.MlpArch(classes=2, input_dim=features.IMAGE_DESCRIPTOR_LENGTH,
                               hidden_units=8)
        save_checkpoint(ckpt, init_model(arch, ("C0", "C1"), seed=0, dtype=np.float32))
        tiny = tmp_path / "tiny.pgm"
        tiny.write_bytes(encode_pgm(GrayImage(np.full((2, 2), 0.5))))
        manifest = tmp_path / "tiny.csv"
        manifest.write_text(f"# classes: C0,C1\npath,label,subject\n{tiny.name},C0,s1\n"
                            f"{face.name},C1,s2\n")
        out = tmp_path / "out"
        argv = {
            "predict": ["predict", str(tiny), "--checkpoint", str(ckpt)],
            "eval": ["eval", "--test-manifest", str(manifest), "--checkpoint", str(ckpt)],
            "train": ["train", "--train-manifest", str(manifest), "--profile",
                      "mlp-handcrafted", "--max-epochs", "1"],
            "gallery": ["predict", str(face), "--checkpoint", str(ckpt), "--inference-mode",
                        "nearest-feature", "--gallery-manifest", str(manifest)],
        }[command]
        assert main([*argv, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"error: {tiny}: face image 2x2 too small to crop\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--checkpoint", "--gallery-manifest"])
    def test_eval_predictions_refuses_model_flags_before_any_file(self, tmp_path, capsys,
                                                                  flag):
        # None of these files exists: reading one would exit 2.
        out = tmp_path / "out"
        rc = main(["eval", "--test-manifest", str(tmp_path / "test.csv"),
                   "--predictions", str(tmp_path / "pred.csv"), flag, str(tmp_path / "x"),
                   "--out", str(out)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == "error: --predictions takes no --checkpoint or --gallery-manifest\n"
        assert not out.exists()

    def test_preprocess_without_images_to_fit_names_the_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "man.csv"
        manifest.write_text("path,label,subject\n"
                            + "".join(f"missing{i}.pgm,A,s{i}\n" for i in range(4)))
        out = tmp_path / "out"
        assert main(["preprocess", "--manifest", str(manifest), "--out", str(out)]) \
            == EXIT_VALIDATION
        *skipped, last = capsys.readouterr().err.splitlines()
        assert len(skipped) == 4 and all(line.startswith("warning: skipping image")
                                         for line in skipped)
        assert last == f"error: {manifest}: need at least 2 images"
        assert not out.exists()

    def test_config_key_set_twice_refused(self, tmp_path, capsys):
        config, out = tmp_path / "c.cfg", tmp_path / "data"
        config.write_text("seed = 1\n# seed = 3\nseed = 2\n")
        rc = main(["synth", "--classes", "2", "--config", str(config), "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {config}: config line 3: duplicate key 'seed'\n"
        assert not out.exists()

    def test_second_classes_line_refused(self, tmp_path, capsys):
        manifest, out = tmp_path / "m.csv", tmp_path / "run"
        manifest.write_text("# classes: C0,C1\n# classes: C1,C0\npath,label,subject\n"
                            "f0.pgm,C0,s0\nf1.pgm,C1,s1\n")
        rc = main(["train", "--train-manifest", str(manifest), "--max-epochs", "1",
                   "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {manifest}: line 2: a second '# classes:' line\n")
        assert not out.exists()

    @pytest.mark.parametrize("split_lines", [
        ["split_mode=subject,seed=5,split_fraction=0.25"] * 2,
        ["split_mode=subject,seed=5,split_fraction=0.25,folds=2"],
        ["split_mode=subject,split_fraction=0.25"],
        ["split_mode=subject,seed=5,split_fraction=a quarter"],
    ], ids=["second", "unknown-key", "missing-key", "bad-value"])
    def test_second_or_malformed_split_line_refused(self, tmp_path, capsys, split_lines):
        manifest, predictions = tmp_path / "m.csv", tmp_path / "p.csv"
        manifest.write_text("".join(f"# split: {line}\n" for line in split_lines)
                            + "path,label,subject\nf0.pgm,C0,s0\nf1.pgm,C1,s1\n")
        predictions.write_text("path,predicted_label\nf0.pgm,C0\nf1.pgm,C1\n")
        out = tmp_path / "out"
        rc = main(["eval", "--test-manifest", str(manifest), "--predictions", str(predictions),
                   "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {manifest}: ")
        assert not out.exists()

    def test_eval_takes_no_split_mode(self, tmp_path, capsys):
        data, out = tmp_path / "data", tmp_path / "out"
        assert main(["synth", "--classes", "2", "--per-class", "2", "--out", str(data)]) == EXIT_OK
        ckpt, _ = untrained_model(tmp_path)
        rc = main(["eval", "--test-manifest", str(data / "manifest.csv"), "--checkpoint", str(ckpt),
                   "--split-mode", "subject", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "unrecognized arguments: --split-mode subject" in capsys.readouterr().err
        assert not out.exists()

    def test_max_epochs_zero_in_config_rejected(self, tmp_path, capsys):
        config, out = tmp_path / "c.cfg", tmp_path / "run"
        config.write_text("max_epochs = 0\n")
        rc = main(["train", "--train-manifest", str(tmp_path / "train.csv"), "--config", str(config),
                   "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {config}: max_epochs must be at least 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("again", ["f0.pgm,C1", "f0.pgm,C0"], ids=["conflicting", "same"])
    def test_prediction_path_named_twice_refused(self, tmp_path, capsys, again):
        manifest, predictions = tmp_path / "m.csv", tmp_path / "p.csv"
        manifest.write_text("path,label,subject\nf0.pgm,C0,s0\nf1.pgm,C1,s1\n")
        # A row for a path outside the manifest is allowed.
        predictions.write_text("path,predicted_label\nf0.pgm,C0\nf1.pgm,C1\nf9.pgm,C0\n")
        out = tmp_path / "out"
        argv = ["eval", "--test-manifest", str(manifest), "--predictions", str(predictions),
                "--out", str(out)]
        assert main(argv) == EXIT_OK
        shutil.rmtree(out)
        predictions.write_text(predictions.read_text() + again + "\n")
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {predictions}: more than one prediction for 'f0.pgm'\n")
        assert not out.exists()

    @pytest.mark.parametrize("corrupt", [
        lambda d: d.replace(b"tensor param:head.w ", b"tensor param:head.x "),
        lambda d: d.replace(b"crop_rows=", b"crop_rowz="),
        lambda d: b"\n".join(d.split(b"\n")[:2]) + b"\nend\n",
        lambda d: d + b"junk",
        lambda d: d.replace(b"\nend\n", b"\ntensor foo 1\nend\n", 1) + bytes(4),
        lambda d: d.replace(b"\nend\n", b"\ntensor centers 2,128\nend\n", 1) + bytes(4 * 2 * 128),
        lambda d: d.replace(b"\nend\n", b"\ntensor momentum:head.b 2\nend\n", 1) + bytes(4 * 2),
        lambda d: d.replace(b"classes C0,C1", b"classes C0"),
        lambda d: d.replace(network.TENSOR_MAGIC, b"MFEDRL1\n", 1),
    ], ids=["renamed-tensor", "unknown-arch-key", "arch-line-only", "trailing-bytes",
            "unknown-tensor", "duplicate-tensor", "momentum-tensor", "class-count", "old-format"])
    def test_malformed_checkpoint_is_validation_error(self, tmp_path, capsys, corrupt):
        ckpt, image = untrained_model(tmp_path)
        ckpt.write_bytes(corrupt(ckpt.read_bytes()))
        assert main(["predict", str(image), "--checkpoint", str(ckpt)]) == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err

    def test_window_beyond_prepared_image_is_validation_error(self, tmp_path, capsys):
        ckpt, image = untrained_model(tmp_path)
        ckpt.write_bytes(ckpt.read_bytes().replace(b"input_size=42", b"input_size=60", 1))
        assert main(["predict", str(image), "--checkpoint", str(ckpt)]) == EXIT_VALIDATION
        assert f"error: {ckpt}: input_size must be at most 48" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval-multicrop", "eval-nearest", "predict"])
    def test_non_finite_checkpoint_is_validation_error(self, tmp_path, capsys, command):
        ckpt, image = untrained_model(tmp_path)
        model = load_checkpoint(ckpt)
        model.params["fuse2.b"][3] = np.nan
        save_checkpoint(ckpt, model)
        manifest = tmp_path / "test.csv"
        manifest.write_text("# classes: C0,C1\npath,label,subject\nface.pgm,C0,s1\n")
        out = tmp_path / "out"
        if command == "predict":
            argv = ["predict", str(image), "--checkpoint", str(ckpt)]
        else:
            argv = ["eval", "--test-manifest", str(manifest), "--checkpoint", str(ckpt),
                    "--out", str(out)]
            if command == "eval-nearest":
                argv += ["--inference-mode", "nearest-feature",
                         "--gallery-manifest", str(manifest)]
        assert main(argv) == EXIT_VALIDATION
        assert "tensor param:fuse2.b holds non-finite values" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()

    def test_blown_up_train_keeps_its_model_and_log_and_reports_once(self, tmp_path, capsys):
        """The rolled-back model and the log so far are written, and the
        error is one `error:` line on stderr with exit 2."""
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(["synth", "--classes", "3", "--per-class", "4", "--seed", "1",
                     "--out", str(data)]) == EXIT_OK
        capsys.readouterr()
        assert main(["train", "--train-manifest", str(data / "manifest.csv"),
                     "--profile", "mlp-handcrafted", "--lr", "1e20", "--max-epochs", "6",
                     "--out", str(run)]) == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: non-finite ") and captured.err.count("\n") == 1
        load_checkpoint(run / "model.ckpt")
        assert (run / "train_log.csv").read_text().startswith("epoch,loss,")

    def test_blown_up_checkpoint_serves_no_nan(self, tmp_path, capsys):
        """A run whose rate blows up leaves finite but huge weights, whose
        softmax is NaN: eval and predict refuse it instead of scoring it."""
        data, run, out = tmp_path / "data", tmp_path / "run", tmp_path / "out"
        assert main(["synth", "--classes", "3", "--per-class", "4", "--seed", "1",
                     "--out", str(data)]) == EXIT_OK
        assert main(["train", "--train-manifest", str(data / "manifest.csv"),
                     "--profile", "mlp-handcrafted", "--lr", "1e20", "--max-epochs", "6",
                     "--out", str(run)]) == EXIT_RUNTIME
        ckpt = str(run / "model.ckpt")
        capsys.readouterr()
        assert main(["predict", str(data / "images" / "C0_0000.pgm"),
                     "--checkpoint", ckpt]) == EXIT_VALIDATION
        assert main(["eval", "--test-manifest", str(data / "manifest.csv"), "--checkpoint", ckpt,
                     "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.count("non-finite class probabilities") == 2
        assert not (out / "metrics.json").exists()

    def test_eval_refused_checkpoint_leaves_no_out_directory(self, tmp_path, capsys):
        ckpt, image = untrained_model(tmp_path)
        model = load_checkpoint(ckpt)
        model.params["fuse2.b"][0] = np.nan
        save_checkpoint(ckpt, model)
        manifest = tmp_path / "test.csv"
        manifest.write_text(f"# classes: C0,C1\npath,label,subject\n{image.name},C0,s1\n")
        out = tmp_path / "out"
        assert main(["eval", "--test-manifest", str(manifest), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("gallery_classes", ["C1,C0", "X,Y"], ids=["reordered", "foreign"])
    def test_gallery_classes_must_match_checkpoint(self, tmp_path, capsys, monkeypatch,
                                                   command, gallery_classes):
        ckpt, image = untrained_model(tmp_path)
        test = tmp_path / "test.csv"
        test.write_text(f"# classes: C0,C1\npath,label,subject\n{image.name},C0,s1\n")
        first = gallery_classes.split(",")[0]
        gallery = tmp_path / "gallery.csv"
        gallery.write_text(f"# classes: {gallery_classes}\npath,label,subject\n"
                           f"{image.name},{first},s1\n")

        def forbidden(*args, **kwargs):
            raise AssertionError("a gallery image was forwarded")

        monkeypatch.setattr(evaluation, "extract_features", forbidden)
        out = tmp_path / "out"
        if command == "eval":
            argv = ["eval", "--test-manifest", str(test), "--out", str(out)]
        else:
            argv = ["predict", str(image)]
        argv += ["--checkpoint", str(ckpt), "--inference-mode", "nearest-feature",
                 "--gallery-manifest", str(gallery)]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"error: {gallery}: manifest classes" in err
        assert "!= checkpoint classes ('C0', 'C1')" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1.5", "0", "nan"])
    def test_bad_split_fraction_refused_before_any_image(self, tmp_path, capsys, value):
        # The listed image does not exist: reading it would warn and exit 2.
        manifest = tmp_path / "man.csv"
        manifest.write_text("path,label,subject\nmissing.pgm,A,s1\n")
        out = tmp_path / "out"
        rc = main(["preprocess", "--manifest", str(manifest), "--split-fraction", value,
                   "--out", str(out)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "split_fraction must lie in (0, 1)" in err and "skipping" not in err
        assert not (out / "images").exists()
        assert not (out / "manifest.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--gamma-low", "--gamma-high", "--sigma-frac"])
    def test_non_finite_preprocess_setting_refused(self, tmp_path, capsys, flag, value):
        # The listed image does not exist: reading it would warn and exit 2.
        manifest = tmp_path / "man.csv"
        manifest.write_text("path,label,subject\nmissing.pgm,A,s1\n")
        out = tmp_path / "out"
        rc = main(["preprocess", "--manifest", str(manifest), flag, value, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "skipping" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--lr", "--lr-drop-factor", "--lambda-center",
                                      "--loss-epsilon", "--momentum", "--alpha-center",
                                      "--dropout-p"])
    def test_non_finite_train_setting_refused(self, tmp_path, flag, value):
        rng = np.random.default_rng(4)
        rows = []
        for i in range(4):
            (tmp_path / f"f{i}.pgm").write_bytes(encode_pgm(GrayImage(rng.random((48, 48)))))
            rows.append(f"f{i}.pgm,C{i % 2},s{i}")
        manifest = tmp_path / "train.csv"
        manifest.write_text("path,label,subject\n" + "\n".join(rows) + "\n")
        out = tmp_path / "run"
        rc = main(["train", "--train-manifest", str(manifest), "--max-epochs", "1",
                   flag, value, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()

    def test_refused_train_leaves_no_out_directory(self, tmp_path, capsys, monkeypatch):
        from microexpr import dataset

        data = tmp_path / "data"
        assert main(["synth", "--classes", "2", "--per-class", "2", "--size", "64",
                     "--seed", "1", "--out", str(data)]) == EXIT_OK
        out = tmp_path / "run"
        rc = main(["train", "--train-manifest", str(data / "manifest.csv"), "--max-epochs", "1",
                   "--checkpoint-every", "1", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "prepared images are 48x48" in capsys.readouterr().err
        assert not out.exists()

        def forbidden(*args):
            raise AssertionError("an image was read")

        monkeypatch.setattr(dataset, "decode_pgm", forbidden)
        rc = main(["train", "--train-manifest", str(data / "manifest.csv"), "--max-epochs", "1",
                   "--checkpoint-every", "-3", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "checkpoint_every must be at least 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def small_train_set(root, labels=("C0", "C1", "C0", "C1"), odd_size=None):
        """A manifest of 48x48 images; with odd_size, the third is that size."""
        rng = np.random.default_rng(9)
        rows = []
        for i, label in enumerate(labels):
            size = odd_size if odd_size and i == 2 else 48
            (root / f"f{i}.pgm").write_bytes(encode_pgm(GrayImage(rng.random((size, size)))))
            rows.append(f"f{i}.pgm,{label},s{i}")
        manifest = root / "train.csv"
        manifest.write_text("path,label,subject\n" + "\n".join(rows) + "\n")
        return manifest

    @staticmethod
    def forbid(monkeypatch, module, name):
        def forbidden(*args, **kwargs):
            raise AssertionError(f"{name} was called")

        monkeypatch.setattr(module, name, forbidden)

    def test_training_image_of_another_size_refused(self, tmp_path, capsys, monkeypatch):
        manifest = self.small_train_set(tmp_path, odd_size=40)
        self.forbid(monkeypatch, network, "FusionArch")
        out = tmp_path / "run"
        rc = main(["train", "--train-manifest", str(manifest), "--max-epochs", "1",
                   "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(
            f"error: {tmp_path / 'f2.pgm'}: image of shape (40, 40); prepared images are 48x48")
        assert not out.exists()

    @pytest.mark.parametrize("profile", ["cnn-fusion", "mlp-handcrafted"])
    def test_stats_of_another_shape_refused_before_any_image(self, tmp_path, capsys,
                                                              monkeypatch, profile):
        from microexpr import dataset

        manifest = self.small_train_set(tmp_path)
        stats = tmp_path / "stats.bin"
        save_pixel_stats(stats, PixelStats(np.zeros((96, 24)), np.ones((96, 24)), 1e-6))
        self.forbid(monkeypatch, dataset, "decode_pgm")
        out = tmp_path / "run"
        rc = main(["train", "--train-manifest", str(manifest), "--stats", str(stats),
                   "--profile", profile, "--max-epochs", "1", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(
            f"error: {stats}: pixel statistics of shape (96, 24); prepared images are 48x48")
        assert not out.exists()

    @pytest.mark.parametrize("profile", ["cnn-fusion", "mlp-handcrafted"])
    def test_one_class_manifest_refused_before_any_image(self, tmp_path, capsys, monkeypatch,
                                                         profile):
        from microexpr import dataset

        manifest = self.small_train_set(tmp_path, labels=("A",) * 4)
        self.forbid(monkeypatch, dataset, "decode_pgm")
        out = tmp_path / "run"
        rc = main(["train", "--train-manifest", str(manifest), "--profile", profile,
                   "--max-epochs", "1", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {manifest}: 1 class ['A']; training needs at least 2 classes\n")
        assert not out.exists()

    def test_refused_synth_leaves_no_out_directory(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["synth", "--classes", "1", "--out", str(out)]) == EXIT_VALIDATION
        assert "need at least 2 classes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text,code,message", [
        ("path,label,subject\n", EXIT_VALIDATION, "manifest has no entries"),
        ("path,label,subject\nmissing.pgm,A,s1\n", EXIT_RUNTIME, "missing.pgm"),
        ("", EXIT_VALIDATION, "empty manifest"),
        ("# classes: A\nmissing.pgm,A,s1\n", EXIT_VALIDATION, "'path,label,subject' header"),
        ("path,label\nmissing.pgm,A\n", EXIT_VALIDATION, "'path,label,subject' header"),
    ], ids=["header-only", "missing-image", "zero-byte", "missing-header", "missing-column"])
    def test_refused_features_leaves_no_out_directory(self, tmp_path, capsys, text, code,
                                                      message):
        manifest = tmp_path / "man.csv"
        manifest.write_text(text)
        out = tmp_path / "out"
        assert main(["features", "--manifest", str(manifest), "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_refused_split_leaves_no_out_directory(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        rows = []
        for i, label in enumerate("AAAB"):
            (tmp_path / f"f{i}.pgm").write_bytes(encode_pgm(GrayImage(rng.random((20, 20)))))
            rows.append(f"f{i}.pgm,{label},s{i}")
        manifest = tmp_path / "man.csv"
        manifest.write_text("path,label,subject\n" + "\n".join(rows) + "\n")
        out = tmp_path / "out"
        rc = main(["preprocess", "--manifest", str(manifest), "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "class 1 has 1 sample(s)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,key,typo", [
        ("preprocess", "split_mode", "subjetc"),
        ("train", "profile", "cnn-fuison"),
        ("eval", "inference_mode", "multicorp"),
        ("eval", "split_mode", "stratifeid"),
    ])
    def test_config_typo_in_mode_setting_refused(self, tmp_path, capsys, command, key, typo):
        data = tmp_path / "data"
        assert main(["synth", "--classes", "2", "--per-class", "3", "--seed", "1",
                     "--out", str(data)]) == EXIT_OK
        ckpt, _ = untrained_model(tmp_path)
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(f"{key} = {typo}\n")
        manifest = str(data / "manifest.csv")
        argv = {"preprocess": ["--manifest", manifest],
                "train": ["--train-manifest", manifest, "--max-epochs", "1"],
                "eval": ["--test-manifest", manifest, "--checkpoint", str(ckpt)]}[command]
        out = tmp_path / "out"
        assert main([command, *argv, "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        assert f"config key {key}: {typo!r} is not one of" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_stems_refused_before_any_image(self, tmp_path, capsys, monkeypatch):
        from microexpr import dataset

        rng = np.random.default_rng(6)
        rows = []
        for path, label in [(f"{d}/x{i}.pgm", d.upper()) for d in "ab" for i in range(3)] + [
                ("a/y.pgm", "A")]:
            (tmp_path / path).parent.mkdir(exist_ok=True)
            (tmp_path / path).write_bytes(encode_pgm(GrayImage(rng.random((20, 20)))))
            rows.append(f"{path},{label},s{len(rows)}")
        manifest = tmp_path / "man.csv"
        manifest.write_text("path,label,subject\n" + "\n".join(rows) + "\n")
        decoded = []
        monkeypatch.setattr(dataset, "decode_pgm", lambda data: decoded.append(data))
        out = tmp_path / "out"
        assert main(["preprocess", "--manifest", str(manifest), "--out", str(out)]) == EXIT_VALIDATION
        assert "a/x0.pgm and b/x0.pgm would both be written to images/x0.pgm" in (
            capsys.readouterr().err)
        assert decoded == []
        assert not out.exists()

    @pytest.mark.parametrize("names,message", [
        ((), "no .pgm files"),
        (("KA.AN1.39.pgm", "not-jaffe.pgm"), "does not match"),
    ], ids=["empty", "bad-name"])
    def test_refused_ingest_leaves_no_out_directory(self, tmp_path, capsys, names, message):
        src = tmp_path / "raw"
        src.mkdir()
        for name in names:
            (src / name).write_bytes(encode_pgm(GrayImage(np.zeros((16, 16)))))
        out = tmp_path / "out"
        assert main(["ingest", str(src), "--out", str(out)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--train-manifest", "m.csv", "--profile", "bogus"],
        ["train", "--train-manifest", "m.csv", "--lr", "abc"],
        ["preprocess", "--manifest", "m.csv", "--workers", "two"],
        ["train", "--lr", "0.1"],
        ["synth", "--no-such-flag"],
    ], ids=["bad-choice", "bad-float", "bad-int", "missing-required", "unknown-flag"])
    def test_bad_flag_is_validation_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("line,message", [
        ("lr = abc", "config key lr: could not convert"),
        ("split_mode = subjetc", "config key split_mode: 'subjetc' is not one of"),
        ("lr = -1", "lr must be positive"),
        ("lr = nan", "lr must be finite"),
        ("split_fraction = 5", "split_fraction must lie in (0, 1), got 5.0"),
        ("dropout_p = 3", "dropout_p must lie in [0,1)"),
        ("gamma_low = -2", "gains must be non-negative"),
        ("workers = 0", "workers must be at least 1, got 0"),
    ], ids=["lr", "split_mode", "lr-negative", "lr-nan", "split_fraction", "dropout_p",
            "gamma_low", "workers"])
    def test_config_key_the_command_does_not_read_is_checked(self, tmp_path, capsys, line,
                                                             message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "data"
        assert main(["synth", "--classes", "2", "--per-class", "2", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["lr = -1", "lr = nan", "split_fraction = 5", "dropout_p = 3",
                                      "gamma_low = -2", "batch_size = 0", "workers = 0"])
    @pytest.mark.parametrize("command", ["synth", "preprocess", "features", "train", "eval",
                                         "predict"])
    def test_out_of_range_config_value_stops_every_command(self, tmp_path, capsys, monkeypatch,
                                                           command, line):
        """Refused before any input is read: every named input is missing,
        and reading one would exit 2."""
        from microexpr import cli

        def forbidden(*args):
            raise AssertionError("an input was read")

        monkeypatch.setattr(cli, "_read_manifest_file", forbidden)
        monkeypatch.setattr(cli, "_read_image", forbidden)
        cfg, missing, out = tmp_path / "bad.cfg", str(tmp_path / "missing"), tmp_path / "out"
        cfg.write_text(line + "\n")
        argv = {"synth": ["synth"], "preprocess": ["preprocess", "--manifest", missing],
                "features": ["features", "--manifest", missing],
                "train": ["train", "--train-manifest", missing],
                "eval": ["eval", "--test-manifest", missing, "--checkpoint", missing],
                "predict": ["predict", missing, "--checkpoint", missing]}[command]
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["synth", "--workers", "0"], "workers must be at least 1, got 0"),
        (["preprocess", "--manifest", "m.csv", "--split-fraction", "5"],
         "split_fraction must lie in (0, 1), got 5.0"),
        (["preprocess", "--manifest", "m.csv", "--gamma-low", "-2"], "gains must be non-negative"),
        (["train", "--train-manifest", "m.csv", "--lr", "-1"], "lr must be positive"),
        (["train", "--train-manifest", "m.csv", "--lr", "nan"], "lr must be finite"),
        (["train", "--train-manifest", "m.csv", "--batch-size", "0"],
         "batch_size must be at least 1"),
        (["train", "--train-manifest", "m.csv", "--dropout-p", "3"], "dropout_p must lie in [0,1)"),
    ], ids=["workers", "split_fraction", "gamma_low", "lr", "lr-nan", "batch_size", "dropout_p"])
    def test_out_of_range_flag_refused_by_its_rule(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_bad_dropout_p_refused_before_any_image(self, tmp_path, capsys, monkeypatch):
        from microexpr import cli

        def forbidden(path, kind=None):
            raise AssertionError("an image was decoded")

        monkeypatch.setattr(cli, "_read_image", forbidden)
        # The listed image does not exist: reading it would exit 2.
        manifest, out = tmp_path / "train.csv", tmp_path / "run"
        manifest.write_text("path,label,subject\nmissing0.pgm,A,s1\nmissing1.pgm,B,s2\n")
        rc = main(["train", "--train-manifest", str(manifest), "--dropout-p", "3",
                   "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: dropout_p must lie in [0,1)\n"
        assert not out.exists()

    def test_settings_objects_built_once(self, tmp_path, monkeypatch):
        """preprocess and train run with the objects resolve_settings built."""
        built = []
        for cls in (HomomorphicParams, training.TrainConfig):
            check = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self, check=check: (built.append(type(self)), check(self)))
        data, work, run = tmp_path / "data", tmp_path / "work", tmp_path / "run"
        assert main(["synth", "--classes", "2", "--per-class", "4", "--seed", "1",
                     "--out", str(data)]) == EXIT_OK
        assert built == [HomomorphicParams, training.TrainConfig]
        for argv in (["preprocess", "--manifest", str(data / "manifest.csv"), "--out", str(work)],
                     ["train", "--train-manifest", str(work / "train.csv"), "--max-epochs", "1",
                      "--out", str(run)]):
            built.clear()
            assert main([*argv, "--seed", "1"]) == EXIT_OK
            assert built == [HomomorphicParams, training.TrainConfig]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_refused(self, tmp_path, capsys, workers):
        data = tmp_path / "data"
        assert main(["synth", "--classes", "2", "--per-class", "4", "--seed", "1",
                     "--out", str(data)]) == EXIT_OK
        out = tmp_path / "out"
        assert main(["preprocess", "--manifest", str(data / "manifest.csv"),
                     "--workers", workers, "--out", str(out)]) == EXIT_VALIDATION
        assert f"workers must be at least 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_test_manifest_refused_before_the_checkpoint_loads(self, tmp_path, capsys,
                                                                     monkeypatch):
        from microexpr import cli

        ckpt, _ = untrained_model(tmp_path)
        manifest = tmp_path / "test.csv"
        manifest.write_text("# classes: C0,C1\npath,label,subject\n")

        def forbidden(path):
            raise AssertionError("the checkpoint was loaded")

        monkeypatch.setattr(cli.network, "load_checkpoint", forbidden)
        out = tmp_path / "out"
        assert main(["eval", "--test-manifest", str(manifest), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert f"error: {manifest}: manifest has no entries" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_gallery_manifest_refused(self, tmp_path, capsys):
        ckpt, image = untrained_model(tmp_path)
        gallery = tmp_path / "gallery.csv"
        gallery.write_text("# classes: C0,C1\npath,label,subject\n")
        out = tmp_path / "out"
        assert main(["predict", str(image), "--checkpoint", str(ckpt),
                     "--inference-mode", "nearest-feature", "--gallery-manifest", str(gallery),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert f"error: {gallery}: manifest has no entries" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("gallery", ["no-flag", "missing-file", "header-only"])
    def test_gallery_checked_before_any_work(self, tmp_path, capsys, monkeypatch, command,
                                             gallery):
        from microexpr import dataset

        ckpt, image = untrained_model(tmp_path)
        test = tmp_path / "test.csv"
        test.write_text(f"# classes: C0,C1\npath,label,subject\n{image.name},C0,s1\n")

        def forbidden(*args):
            raise AssertionError("work began before the gallery was checked")

        monkeypatch.setattr(network, "load_checkpoint", forbidden)
        monkeypatch.setattr(dataset, "decode_pgm", forbidden)
        out = tmp_path / "out"
        if command == "eval":
            argv = ["eval", "--test-manifest", str(test), "--out", str(out)]
        else:
            argv = ["predict", str(image)]
        argv += ["--checkpoint", str(ckpt), "--inference-mode", "nearest-feature"]
        path = tmp_path / "gallery.csv"
        if gallery != "no-flag":
            argv += ["--gallery-manifest", str(path)]
        if gallery == "header-only":
            path.write_text("# classes: C0,C1\npath,label,subject\n")
        # An unreadable path is a runtime error; Python's message names it.
        assert main(argv) == (EXIT_RUNTIME if gallery == "missing-file" else EXIT_VALIDATION)
        message = {"no-flag": "nearest-feature mode needs --gallery-manifest",
                   "missing-file": f"No such file or directory: '{path}'",
                   "header-only": f"error: {path}: manifest has no entries"}[gallery]
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_gallery_without_nearest_feature_refused(self, tmp_path, capsys, command):
        ckpt, image = untrained_model(tmp_path)
        test = tmp_path / "test.csv"
        test.write_text(f"# classes: C0,C1\npath,label,subject\n{image.name},C0,s1\n")
        out = tmp_path / "out"
        if command == "eval":
            argv = ["eval", "--test-manifest", str(test), "--out", str(out)]
        else:
            argv = ["predict", str(image)]
        argv += ["--checkpoint", str(ckpt), "--gallery-manifest", str(test)]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "--gallery-manifest needs --inference-mode nearest-feature" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["features", "synth", "eval"])
    def test_non_utf8_file_is_named(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"path,label,subject\n\xff.pgm,A,s1\n")
        if command == "features":
            argv = ["features", "--manifest", str(bad)]
        elif command == "synth":
            argv = ["synth", "--classes", "2", "--config", str(bad)]
        else:
            test = tmp_path / "test.csv"
            test.write_text("# classes: A,B\npath,label,subject\nx.pgm,A,s1\n")
            argv = ["eval", "--test-manifest", str(test), "--predictions", str(bad)]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"error: {bad}: " in err and "can't decode byte 0xff" in err
        assert not out.exists()

    def test_missing_manifest_is_runtime_error(self, tmp_path):
        rc = main(["eval", "--test-manifest", str(tmp_path / "nope.csv"),
                   "--checkpoint", "x", "--out", str(tmp_path)])
        assert rc == EXIT_RUNTIME

    def test_unreadable_entries_skipped_with_runtime_exit(self, tmp_path, capsys):
        d = tmp_path / "imgs"
        d.mkdir()
        rng = np.random.default_rng(2)
        (d / "good1.pgm").write_bytes(encode_pgm(GrayImage(rng.random((20, 20)))))
        (d / "good2.pgm").write_bytes(encode_pgm(GrayImage(rng.random((20, 20)))))
        (d / "good3.pgm").write_bytes(encode_pgm(GrayImage(rng.random((20, 20)))))
        (d / "good4.pgm").write_bytes(encode_pgm(GrayImage(rng.random((20, 20)))))
        (d / "bad.pgm").write_bytes(b"P5\n5 5\n255\nxx")
        m = tmp_path / "man.csv"
        m.write_text(
            "path,label,subject\n"
            + "\n".join(f"imgs/good{i}.pgm,A,s{i % 2}" for i in range(1, 5))
            + "\nimgs/bad.pgm,B,s1\n"
        )
        rc = main(["preprocess", "--manifest", str(m), "--split-fraction", "0.5",
                   "--out", str(tmp_path / "w")])
        assert rc == EXIT_RUNTIME
        assert "skipping" in capsys.readouterr().err
        # The good images were still processed.
        assert len(list((tmp_path / "w" / "images").glob("*.pgm"))) == 4


class TestInputFiles:
    """Every input file is read one way: malformed content exits 1 with
    `error: <its path>: `, and a path that cannot be read exits 2."""

    P6 = b"P6\n48 48\n255\n" + bytes(3 * 48 * 48)
    # Well-formed, but not what a fusion checkpoint takes: a 64x64 image, and
    # 40x40 pixel statistics to append to a checkpoint.
    IMAGE_64 = encode_pgm(GrayImage(np.full((64, 64), 0.5)))
    STATS_40 = (b"\ntensor pixel_stats.mean 40,40\ntensor pixel_stats.std 40,40\n"
                b"tensor pixel_stats.epsilon 1\nend\n",
                np.r_[np.zeros(1600), np.ones(1600), 1e-6].astype("<f4").tobytes())

    def case(self, root, input_class):
        """(argv, the input file, malformed bytes for it) for one input class."""
        ckpt, _ = untrained_model(root)
        rng = np.random.default_rng(7)
        rows = ""
        for i in range(4):
            (root / f"f{i}.pgm").write_bytes(encode_pgm(GrayImage(rng.random((48, 48)))))
            rows += f"f{i}.pgm,C{i % 2},s{i}\n"
        manifest, gallery = root / "m.csv", root / "g.csv"
        manifest.write_text("# classes: C0,C1\npath,label,subject\n" + rows)
        (root / "g4.pgm").write_bytes(encode_pgm(GrayImage(rng.random((48, 48)))))
        gallery.write_text(manifest.read_text() + "g4.pgm,C0,s4\n")
        config, predictions, stats = root / "c.cfg", root / "p.csv", root / "s.bin"
        config.write_text("seed = 1\n")
        predictions.write_text("path,predicted_label\nf0.pgm,C0\nf1.pgm,C1\nf2.pgm,C0\nf3.pgm,C1\n")
        save_pixel_stats(stats, PixelStats(np.zeros((48, 48)), np.ones((48, 48)), 1e-6))
        image = root / "f1.pgm"
        train = ["train", "--train-manifest", str(manifest), "--max-epochs", "1"]
        evaluate = ["eval", "--test-manifest", str(manifest), "--checkpoint", str(ckpt)]
        nearest = [*evaluate, "--inference-mode", "nearest-feature", "--gallery-manifest",
                   str(gallery)]
        return {
            "config": (["synth", "--classes", "2", "--config", str(config)], config,
                       b"lr = abc\n"),
            "train-manifest": (train, manifest, b"path,label\nf0.pgm,C0\n"),
            "test-manifest": (evaluate, manifest, b"# classes: C0,C1\npath,label,subject\n"),
            "gallery-manifest": (nearest, gallery, b"path,label,subject\n\xff.pgm,C0,s1\n"),
            "features-image": (["features", "--manifest", str(manifest)], image, self.P6),
            "train-image": (train, image, self.P6),
            "eval-image": (evaluate, image, self.P6),
            "gallery-image": (nearest, root / "g4.pgm", self.P6),
            "eval-image-64": (evaluate, image, self.IMAGE_64),
            "gallery-image-64": (nearest, root / "g4.pgm", self.IMAGE_64),
            "predict-image": (["predict", str(image), "--checkpoint", str(ckpt)], image, self.P6),
            "predictions": (["eval", "--test-manifest", str(manifest), "--predictions",
                             str(predictions)], predictions, b"path,label\nf0.pgm,C0\n"),
            "checkpoint": (["predict", str(root / "f0.pgm"), "--checkpoint", str(ckpt)], ckpt,
                           ckpt.read_bytes().replace(b"input_size=42", b"input_size=60", 1)),
            "checkpoint-stats-40": (evaluate, ckpt, ckpt.read_bytes().replace(
                b"\nend\n", self.STATS_40[0], 1) + self.STATS_40[1]),
            "stats": ([*train, "--stats", str(stats)], stats, stats.read_bytes()[:-4]),
        }[input_class]

    @pytest.mark.parametrize("input_class, mode", [(input_class, mode) for input_class in [
        "config", "train-manifest", "test-manifest", "gallery-manifest", "features-image",
        "train-image", "eval-image", "gallery-image", "predict-image", "predictions",
        "checkpoint", "stats"] for mode in ("malformed", "missing")] + [
        (input_class, "malformed")
        for input_class in ("eval-image-64", "gallery-image-64", "checkpoint-stats-40")])
    def test_error_names_the_file(self, tmp_path, capsys, input_class, mode):
        argv, path, malformed = self.case(tmp_path, input_class)
        if mode == "malformed":
            path.write_bytes(malformed)
        else:
            path.unlink()
        out = tmp_path / "out"
        rc = main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        if mode == "malformed":
            assert rc == EXIT_VALIDATION and err.startswith(f"error: {path}: "), err
        else:
            # Python's own message names the path.
            assert rc == EXIT_RUNTIME and f"No such file or directory: '{path}'" in err, err
        assert not out.exists()


class TestBlasThreads:
    BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def thread_settings(self, **preset):
        env = {k: v for k, v in os.environ.items() if k not in self.BLAS_ENV}
        env.update(preset)
        env["PYTHONPATH"] = str(Path(microexpr.__file__).parents[1])
        code = ("import os, microexpr; "
                f"print(','.join(os.environ[n] for n in {self.BLAS_ENV!r}))")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        return done.stdout.strip()

    def test_one_thread_by_default(self):
        assert self.thread_settings() == "1,1,1"

    def test_user_setting_wins(self):
        assert self.thread_settings(OPENBLAS_NUM_THREADS="2") == "2,1,1"


class TestParserReuse:
    def test_one_parser_per_process_and_patched_command_runs(self, monkeypatch):
        from microexpr import cli

        assert cli.build_parser() is cli.build_parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_synth", lambda args: seen.append(args) or EXIT_OK)
        assert main(["synth", "--classes", "3", "--seed", "4"]) == EXIT_OK
        assert main(["synth"]) == EXIT_OK
        # Commands see resolved settings; the second parse did not inherit seed=4.
        assert [(a.classes, a.seed) for a in seen] == [(3, 4), (7, 0)]
