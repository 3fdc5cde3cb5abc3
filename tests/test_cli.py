import dataclasses
import gc
import inspect
import json
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from tempseg import cli
from tempseg import data as dt
from tempseg import gradcheck_suite
from tempseg import model as md
from tempseg import train as tr
from tempseg.cli import (_load_splits, load_experiment_config, main,
                         parse_config_file, variant_settings)
from tempseg.data import (SensorSequence, SynthConfig, default_synth_config,
                          load_csv_dataset, write_csv_sequence)
from tempseg.gradcheck_suite import OP_CHECKS
from tempseg.model import ModelConfig, init_params
from tempseg.train import load_checkpoint

SMALL = """\
# compact experiment for tests
synth_classes = 3
synth_dim = 3
total_length = 200
dwell_min = 20
dwell_max = 60
num_train = 3
num_val = 1
num_test = 1

num_stages = 2
layers_per_stage = 2
hidden_channels = 8
projection_dim = 4

epochs = 2
batch_size = 1
k_per_class = 4
temperature = 0.5
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset shared by the command tests."""
    root = tmp_path_factory.mktemp("ws")
    config = root / "small.cfg"
    data = root / "data"
    config.write_text(SMALL + f"data_dir = {data}\n")
    assert main(["generate", "--config", str(config),
                 "--out", str(data)]) == 0
    return root, config, data


@pytest.fixture(scope="module")
def trained(workspace, tmp_path_factory):
    root, config, data = workspace
    out = tmp_path_factory.mktemp("run")
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    return config, data, out


class TestConfigFile:
    def test_defaults_without_file(self):
        cfg = load_experiment_config(None)
        assert cfg.num_stages == 2 and cfg.epochs == 30
        assert cfg.num_classes is None and cfg.normalize is True

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs = 7\ntemperature = 0.25\n")
        cfg = load_experiment_config(path)
        assert cfg.epochs == 7 and cfg.temperature == 0.25
        assert cfg.batch_size == 32

    def test_cli_overrides_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 3\nnum_stages = 4\n")
        cfg = load_experiment_config(path, {"seed": 9})
        assert cfg.seed == 9 and cfg.num_stages == 4

    def test_unknown_key_rejected_with_location(self, tmp_path):
        # split_policy and input_dim were keys: the subject lists decide
        # the split, and the data the channel count
        path = tmp_path / "c.cfg"
        for key, value in (("lerning_rate", "0.1"),
                           ("split_policy", "by-subject"),
                           ("input_dim", "6")):
            path.write_text(f"epochs = 2\n{key} = {value}\n")
            with pytest.raises(ValueError, match=rf"c\.cfg:2.*{key}"):
                parse_config_file(path)

    def test_bad_value_reports_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs = soon\n")
        with pytest.raises(ValueError, match=r"c\.cfg:1.*epochs"):
            parse_config_file(path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("\n# note\nepochs = 1  # trailing\n\n")
        assert parse_config_file(path) == {"epochs": 1}

    def test_shared_keys_take_their_owners_defaults(self):
        keys = {f.name: f.default
                for f in dataclasses.fields(cli.ExperimentConfig)}
        shared = 0
        for owner in (ModelConfig, tr.TrainConfig, SynthConfig):
            for f in dataclasses.fields(owner):
                if f.name in keys and f.default is not dataclasses.MISSING:
                    assert keys[f.name] == f.default, f"{owner.__name__}.{f.name}"
                    shared += 1
        synth = inspect.signature(default_synth_config).parameters
        for key, name in (("synth_classes", "num_classes"), ("synth_dim", "dim"),
                          ("signal_seed", "signal_seed")):
            assert keys[key] == synth[name].default, f"default_synth_config.{name}"
            shared += 1
        assert shared == 24

    def test_booleans_parse(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("include_segments = true\nnormalize = false\n")
        assert parse_config_file(path) == {"include_segments": True,
                                           "normalize": False}

    def test_auto_dims_parse(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("num_classes = auto\nnum_stages = 3\n")
        values = parse_config_file(path)
        assert values == {"num_classes": None, "num_stages": 3}


class TestVariants:
    def test_five_rows_cover_the_design_grid(self):
        assert variant_settings(1) == {"num_stages": 1,
                                       "contrast_weight": 0.0}
        assert variant_settings(2) == {"contrast_weight": 0.0}
        assert variant_settings(3) == {"num_stages": 1}
        assert variant_settings(4) == {"include_segments": False}
        assert variant_settings(5) == {}

    def test_out_of_range_variant(self):
        with pytest.raises(ValueError, match="variant"):
            variant_settings(6)


class TestGenerate:
    def test_round_trip_and_manifest(self, workspace):
        root, config, data = workspace
        train = load_csv_dataset(data / "train")
        assert len(train) == 3
        assert all(s.features.shape == (200, 3) for s in train)
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["splits"]["train"] == ["seq_000.csv", "seq_001.csv",
                                               "seq_002.csv"]
        assert manifest["multiclass_window_rate_24_1"] > 0

    def test_same_seed_is_byte_identical(self, workspace, tmp_path):
        root, config, data = workspace
        again = tmp_path / "data2"
        assert main(["generate", "--config", str(config),
                     "--out", str(again)]) == 0
        for rel in ["train/seq_000.csv", "val/seq_000.csv",
                    "test/seq_000.csv", "manifest.json"]:
            assert (again / rel).read_bytes() == (data / rel).read_bytes()

    def test_different_seed_changes_data(self, workspace, tmp_path):
        root, config, data = workspace
        other = tmp_path / "data3"
        assert main(["generate", "--config", str(config), "--seed", "1",
                     "--out", str(other)]) == 0
        assert ((other / "train/seq_000.csv").read_bytes()
                != (data / "train/seq_000.csv").read_bytes())


    def test_recordings_shorter_than_the_window_add_no_rate(self, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text("total_length = 10\nnum_train = 2\nnum_val = 0\n"
                          "num_test = 0\n")
        out = tmp_path / "data"
        assert main(["generate", "--config", str(config),
                     "--out", str(out)]) == 0
        assert [len(s) for s in load_csv_dataset(out / "train")] == [10, 10]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["splits"]["train"] == ["seq_000.csv", "seq_001.csv"]
        assert "multiclass_window_rate_24_1" not in manifest

    @pytest.mark.parametrize("key,value", [
        ("noise_std", "nan"), ("sample_rate_hz", "inf"),
        ("num_train", "-1"), ("num_val", "-1"), ("num_test", "-2"),
        ("signal_seed", "-1"), ("synth_classes", "-1"),
        ("synth_classes", "0"), ("synth_dim", "-1"), ("synth_dim", "0"),
    ])
    def test_bad_synth_value_exits_1_without_output(self, tmp_path, capsys,
                                                    key, value):
        config = tmp_path / "c.cfg"
        config.write_text(f"total_length = 50\n{key} = {value}\n")
        out = tmp_path / "data"
        assert main(["generate", "--config", str(config),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert key in err[0]
        assert not out.exists()


class TestTrain:
    def test_writes_checkpoint_and_full_log(self, trained):
        config, data, out = trained
        lines = (out / "training_log.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert {"epoch", "classification", "contrast", "total",
                    "optimizer_steps", "skipped_anchors", "sample_examples",
                    "segment_examples", "val_macro_f1",
                    "val_jaccard"} <= set(record)
            assert len(record["classification"]) == 2
            assert len(record["sample_examples"]) == 2
            assert all(n > 0 for n in record["segment_examples"])
            assert record["optimizer_steps"] == 3   # batch 1, 3 recordings
        state = load_checkpoint(out / "model.ckpt")
        fresh = init_params(state.model_config, seed=0)
        assert any(not np.array_equal(got.values, want.values)
                   for (_, got), (_, want) in zip(
                       state.params.named_parameters(),
                       fresh.named_parameters()))

    def test_zero_epochs_checkpoint_is_initialization(self, workspace,
                                                      tmp_path):
        root, config, data = workspace
        out = tmp_path / "zero"
        cfg0 = tmp_path / "zero.cfg"
        cfg0.write_text(config.read_text() + "epochs = 0\nnormalize = false\n")
        assert main(["train", "--config", str(cfg0), "--out", str(out)]) == 0
        assert (out / "training_log.jsonl").read_text() == ""
        state = load_checkpoint(out / "model.ckpt")
        fresh = init_params(state.model_config, seed=0)
        for (name, got), (_, want) in zip(
                state.params.named_parameters(), fresh.named_parameters()):
            np.testing.assert_array_equal(got.values, want.values)

    def test_without_validation_split_no_f1_is_reported(self, workspace,
                                                        tmp_path, capsys):
        root, config, _ = workspace
        data, out = tmp_path / "data", tmp_path / "run"
        cfg = tmp_path / "noval.cfg"
        cfg.write_text(config.read_text()
                       + f"num_val = 0\ndata_dir = {data}\n")
        assert main(["generate", "--config", str(cfg),
                     "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "no validation split" in printed and "F1" not in printed
        metadata = tr._read_header(out / "model.ckpt")[0]["metadata"]
        assert metadata["best_metric"] is None
        assert metadata["best_epoch"] == 1      # the last of two epochs
        log = (out / "training_log.jsonl").read_text().splitlines()
        assert len(log) == 2 and "val_macro_f1" not in json.loads(log[-1])

    def test_num_classes_above_the_data_sizes_the_model(self, workspace,
                                                        tmp_path):
        root, config, data = workspace
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config.read_text() + "num_classes = 5\nepochs = 0\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert load_checkpoint(out / "model.ckpt").model_config.num_classes == 5

    def test_num_classes_below_the_data_exits_1(self, workspace, tmp_path,
                                                capsys):
        root, config, data = workspace
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config.read_text() + "num_classes = 2\n")
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: dataset has 3 classes, config allows 2"]

    @pytest.mark.parametrize("normalize", ["true", "false"])
    def test_recordings_with_different_channel_counts_exit_1(
            self, tmp_path, capsys, monkeypatch, normalize):
        # normalization used to fail in numpy's concatenate, and without
        # it the first step failed after the log was opened
        monkeypatch.setattr(md, "init_params", lambda *a: pytest.fail(
            "init_params ran"))
        rng = np.random.default_rng(0)
        (tmp_path / "data" / "train").mkdir(parents=True)
        for name, dim in (("a.csv", 2), ("b.csv", 3)):
            write_csv_sequence(tmp_path / "data" / "train" / name,
                               SensorSequence(rng.normal(size=(60, dim)),
                                              np.arange(60) // 30))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"data_dir = {tmp_path / 'data'}\n"
                       f"normalize = {normalize}\nepochs = 1\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: recordings differ in channel count: 2 and 3"]
        assert not (out / "training_log.jsonl").exists()

    @staticmethod
    def layout(root, test_dim=2, test_label=1):
        """Config over train/val/test subdirs of 60-sample recordings with
        2 channels and labels 0-1, but the test split's: `test_dim`
        channels, label `test_label` in its last 30 samples."""
        rng = np.random.default_rng(0)
        for split, n, dim, top in (("train", 2, 2, 1), ("val", 1, 2, 1),
                                   ("test", 2, test_dim, test_label)):
            (root / "data" / split).mkdir(parents=True)
            for i in range(n):
                write_csv_sequence(
                    root / "data" / split / f"seq_{i}.csv",
                    SensorSequence(rng.normal(size=(60, dim)),
                                   np.arange(60) // 30 * top))
        config = root / "c.cfg"
        config.write_text(f"data_dir = {root / 'data'}\nepochs = 1\n"
                          "batch_size = 1\nlayers_per_stage = 2\n"
                          "hidden_channels = 8\nprojection_dim = 4\n"
                          "k_per_class = 4\n")
        return config

    def test_a_label_only_in_the_test_split_sizes_the_model(self, tmp_path):
        config = self.layout(tmp_path, test_label=3)
        assert main(["train", "--config", str(config),
                     "--out", str(tmp_path / "run")]) == 0
        state = load_checkpoint(tmp_path / "run" / "model.ckpt")
        assert state.model_config.num_classes == 4

    def test_a_channel_count_only_in_the_test_split_exits_1(self, tmp_path,
                                                           capsys):
        config = self.layout(tmp_path, test_dim=3)
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: recordings differ in channel count: 2 and 3"]
        assert not out.exists()

    @pytest.mark.parametrize("normalize", ["true", "false"])
    def test_fit_neither_sees_nor_holds_the_test_split(
            self, tmp_path, monkeypatch, normalize):
        config = self.layout(tmp_path)
        config.write_text(config.read_text() + f"normalize = {normalize}\n")
        test_dir = tmp_path / "data" / "test"
        loaded, normalized, alive = [], [], []
        load, norm, fit = dt.load_csv_dataset, dt.normalize_features, tr.fit

        def load_spy(path, *args):
            sequences = load(path, *args)
            if Path(path) == test_dir:
                loaded.extend(weakref.ref(s.features) for s in sequences)
            return sequences

        def norm_spy(train, others):
            normalized.append(len(others))
            return norm(train, others)

        def fit_spy(*args, **kwargs):
            gc.collect()
            alive.extend(ref() is not None for ref in loaded)
            return fit(*args, **kwargs)

        monkeypatch.setattr(dt, "load_csv_dataset", load_spy)
        monkeypatch.setattr(dt, "normalize_features", norm_spy)
        monkeypatch.setattr(tr, "fit", fit_spy)
        assert main(["train", "--config", str(config),
                     "--out", str(tmp_path / "run")]) == 0
        assert normalized == ([1] if normalize == "true" else [])
        assert alive == [False, False]

    def test_the_test_split_changes_no_output_byte(self, workspace,
                                                   tmp_path):
        # with the same channels and labels, what the test recordings hold
        # reaches neither the checkpoint nor the log
        root, config, data = workspace
        other = tmp_path / "data"
        shutil.copytree(data, other)
        for path in (other / "test").glob("*.csv"):
            seq = load_csv_dataset(path)[0]
            write_csv_sequence(path, SensorSequence(
                seq.features[::-1] * 3.0, seq.labels[::-1]))
        outs = []
        for name, data_dir in (("a", data), ("b", other)):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(config.read_text() + f"data_dir = {data_dir}\n")
            assert main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / name)]) == 0
            outs.append(tmp_path / name)
        for name in ("model.ckpt", "training_log.jsonl"):
            assert ((outs[0] / name).read_bytes()
                    == (outs[1] / name).read_bytes())

    def test_same_seed_checkpoints_are_byte_identical(self, workspace,
                                                      tmp_path):
        root, config, data = workspace
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--config", str(config),
                         "--out", str(out)]) == 0
            outs.append(out)
        assert ((outs[0] / "model.ckpt").read_bytes()
                == (outs[1] / "model.ckpt").read_bytes())
        assert ((outs[0] / "training_log.jsonl").read_bytes()
                == (outs[1] / "training_log.jsonl").read_bytes())

    def test_variant_flag_controls_architecture(self, workspace, tmp_path):
        root, config, data = workspace
        out = tmp_path / "v1"
        assert main(["train", "--config", str(config), "--variant", "1",
                     "--out", str(out)]) == 0
        state = load_checkpoint(out / "model.ckpt")
        assert state.model_config.num_stages == 1
        log = (out / "training_log.jsonl").read_text().splitlines()
        record = json.loads(log[0])
        assert record["contrast"] == [0.0]


class TestEval:
    def test_artifacts_are_consistent(self, trained, tmp_path):
        config, data, run = trained
        out = tmp_path / "eval"
        assert main(["eval", str(run / "model.ckpt"), str(data / "test"),
                     "--out", str(out)]) == 0

        report = json.loads((out / "metrics.json").read_text())
        assert report["total_samples"] == 200

        rows = (out / "predictions.csv").read_text().splitlines()
        assert rows[0] == "index,truth,pred,prob_0,prob_1,prob_2"
        assert len(rows) - 1 == 200
        body = np.array([r.split(",") for r in rows[1:]], dtype=float)
        np.testing.assert_allclose(body[:, 3:].sum(axis=1), 1.0, atol=1e-9)

        erows = (out / "embeddings.csv").read_text().splitlines()
        assert erows[0] == "index,truth,e_0,e_1,e_2,e_3"
        evals = np.array([r.split(",") for r in erows[1:]], dtype=float)
        norms = np.linalg.norm(evals[:, 2:], axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_scores_as_evaluate_does_recording_by_recording(
            self, trained, tmp_path):
        # eval and train.evaluate are the two scoring sites; over several
        # recordings they must label each one alone and agree to the byte
        config, data, run = trained
        out = tmp_path / "eval"
        assert main(["eval", str(run / "model.ckpt"), str(data / "train"),
                     "--out", str(out)]) == 0
        state = load_checkpoint(run / "model.ckpt")
        sequences = [dataclasses.replace(
                         s, features=state.norm_stats.apply(s.features))
                     for s in load_csv_dataset(data / "train")]
        assert len(sequences) >= 2
        report, per_seq = tr.evaluate(state.params, state.model_config,
                                      sequences)
        assert (out / "metrics.json").read_text() == report.to_json() + "\n"
        rows = (out / "predictions.csv").read_text().splitlines()[1:]
        np.testing.assert_array_equal([int(r.split(",")[2]) for r in rows],
                                      np.concatenate(per_seq))

    def test_all_zero_embeddings_leave_only_the_header(
            self, trained, tmp_path, monkeypatch, capsys):
        config, data, run = trained
        original = tr.final_stage_outputs

        def zeroed(*args, **kwargs):
            return [(probs, np.zeros_like(embeds))
                    for probs, embeds in original(*args, **kwargs)]

        monkeypatch.setattr(tr, "final_stage_outputs", zeroed)
        out = tmp_path / "eval0"
        assert main(["eval", str(run / "model.ckpt"), str(data / "test"),
                     "--out", str(out)]) == 0
        assert ((out / "embeddings.csv").read_text()
                == "index,truth,e_0,e_1,e_2,e_3\n")
        assert ("warning: dropped 200 zero embedding rows\n"
                == capsys.readouterr().err)
        assert len((out / "predictions.csv").read_text().splitlines()) == 201

    def test_dim_mismatch_names_both_dims(self, trained, tmp_path, capsys):
        config, data, run = trained
        wide = tmp_path / "wide"
        wide.mkdir()
        (wide / "seq.csv").write_text(
            "ch_0,ch_1,ch_2,ch_3,label\n1,2,3,4,0\n5,6,7,8,1\n")
        out = tmp_path / "evalbad"
        code = main(["eval", str(run / "model.ckpt"), str(wide),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "3" in err and "4" in err

    def test_label_beyond_the_classes_leaves_no_output(self, trained,
                                                       tmp_path, capsys):
        config, data, run = trained
        source = sorted((data / "test").glob("*.csv"))[0]
        header, first, *rest = source.read_text().splitlines()
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "seq.csv").write_text("\n".join(
            [header, first.rsplit(",", 1)[0] + ",4", *rest]) + "\n")
        out = tmp_path / "evalbad"
        assert main(["eval", str(run / "model.ckpt"), str(bad),
                     "--out", str(out)]) == 1
        assert (capsys.readouterr().err
                == "error: truth labels outside [0, 3)\n")
        assert not out.exists()

    def test_repeat_runs_overwrite_identically(self, trained, tmp_path):
        config, data, run = trained
        out = tmp_path / "eval2"
        for _ in range(2):
            assert main(["eval", str(run / "model.ckpt"),
                         str(data / "test"), "--out", str(out)]) == 0
        blob = (out / "metrics.json").read_bytes()
        assert main(["eval", str(run / "model.ckpt"), str(data / "test"),
                     "--out", str(out)]) == 0
        assert (out / "metrics.json").read_bytes() == blob

    def test_corrupt_checkpoint_is_a_one_line_error(self, trained, tmp_path,
                                                    capsys):
        config, data, run = trained
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes((run / "model.ckpt").read_bytes().replace(
            b'"kernel_size"', b'"bogus_size_"'))
        code = main(["eval", str(bad), str(data / "test"),
                     "--out", str(tmp_path / "evalbad")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


class TestPredict:
    def test_prediction_only_output(self, trained, tmp_path):
        config, data, run = trained
        out = tmp_path / "pred"
        assert main(["predict", str(run / "model.ckpt"), str(data / "test"),
                     "--out", str(out)]) == 0
        rows = (out / "predictions.csv").read_text().splitlines()
        assert rows[0] == "index,pred,prob_0,prob_1,prob_2"
        assert len(rows) - 1 == 200

    def test_file_without_labels_is_a_one_line_error(self, trained,
                                                     tmp_path, capsys):
        # predict reads the dataset schema and ignores the labels; a file
        # without the label column is refused, not labelled
        config, data, run = trained
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "rec.csv").write_text("ch_0,ch_1,ch_2\n1,2,3\n4,5,6\n")
        code = main(["predict", str(run / "model.ckpt"), str(bare),
                     "--out", str(tmp_path / "pred")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "rec.csv: header must be ch_0..ch_(D-1),label[,subject]" in err

    def test_gap_in_recording_is_a_one_line_error(self, trained, tmp_path,
                                                  capsys):
        config, data, run = trained
        src = sorted((data / "test").glob("*.csv"))[0]
        lines = src.read_text().splitlines()
        cells = lines[5].split(",")
        cells[1] = ""
        lines[5] = ",".join(cells)
        gapped = tmp_path / "gapped"
        gapped.mkdir()
        (gapped / "rec.csv").write_text("\n".join(lines) + "\n")
        code = main(["predict", str(run / "model.ckpt"), str(gapped),
                     "--out", str(tmp_path / "pred")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "rec.csv:6: blank or non-finite cell" in err


    @pytest.mark.parametrize("column,cell", [
        ("label", "9223372036854775808"),
        ("subject", "99999999999999999999999"),
    ])
    def test_integer_beyond_int64_is_a_one_line_error(
            self, trained, tmp_path, capsys, column, cell):
        config, data, run = trained
        src = sorted((data / "test").glob("*.csv"))[0]
        lines = [line + ",4" for line in src.read_text().splitlines()]
        lines[0] = lines[0].replace(",4", ",subject")
        cells = lines[5].split(",")
        cells[{"label": -2, "subject": -1}[column]] = cell
        lines[5] = ",".join(cells)
        recordings = tmp_path / "recordings"
        recordings.mkdir()
        (recordings / "rec.csv").write_text("\n".join(lines) + "\n")
        code = main(["predict", str(run / "model.ckpt"), str(recordings),
                     "--out", str(tmp_path / "pred")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"rec.csv:6: {column} '{cell}' does not fit in 64 bits" in err


class TestGradcheck:
    def test_all_ops_pass_and_each_listed_once(self, capsys):
        assert main(["gradcheck"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        names = [line.split()[0] for line in lines]
        assert sorted(names) == sorted(list(OP_CHECKS) + ["full_objective"])
        assert all("PASS" in line for line in lines)

    def test_fault_injection_fails_the_run(self, monkeypatch, capsys):
        monkeypatch.setattr(gradcheck_suite, "OP_CHECKS",
                            {"relu": lambda rng: 1.0})
        assert main(["gradcheck"]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split()[0] == "relu" and lines[0].endswith("FAIL")
        assert lines[1].startswith("full_objective")


class TestAblate:
    def test_untrained_variants_tie_within_matching_structure(
            self, workspace, tmp_path, capsys):
        root, config, data = workspace
        cfg0 = tmp_path / "abl.cfg"
        cfg0.write_text(config.read_text()
                        + "epochs = 0\nablate_seeds = 1\n")
        out = tmp_path / "ablation"
        assert main(["ablate", "--config", str(cfg0), "--out",
                     str(out)]) == 0

        rows = (out / "ablation_runs.csv").read_text().splitlines()
        assert rows[0] == "variant,seed,macro_f1,jaccard"
        assert len(rows) - 1 == 5 * 1
        table = {int(r.split(",")[0]): r.split(",")[1:] for r in rows[1:]}
        # identical untrained params wherever the architecture matches
        assert table[2] == table[4] == table[5]
        assert table[1] == table[3]

        summary = (out / "ablation_summary.csv").read_text().splitlines()
        assert summary[0] == ("variant,macro_f1_mean,macro_f1_std,"
                              "jaccard_mean,jaccard_std")
        assert len(summary) - 1 == 5

    def test_trained_rows_per_seed(self, workspace, tmp_path):
        root, config, data = workspace
        cfg2 = tmp_path / "abl2.cfg"
        cfg2.write_text(config.read_text()
                        + "epochs = 1\nablate_seeds = 2\n")
        out = tmp_path / "ablation2"
        assert main(["ablate", "--config", str(cfg2), "--out",
                     str(out)]) == 0
        rows = (out / "ablation_runs.csv").read_text().splitlines()
        assert len(rows) - 1 == 10
        seeds = [int(r.split(",")[1]) for r in rows[1:]]
        assert seeds == [0, 1] * 5

    def test_each_run_prints_its_scores_in_row_order(self, workspace,
                                                     tmp_path, capsys):
        root, config, data = workspace
        cfg3 = tmp_path / "abl3.cfg"
        cfg3.write_text(config.read_text()
                        + "epochs = 0\nablate_seeds = 2\n")
        out = tmp_path / "ablation3"
        assert main(["ablate", "--config", str(cfg3), "--out",
                     str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [r.split(",") for r in
                (out / "ablation_runs.csv").read_text().splitlines()[1:]]
        assert len(rows) == 10 and len(lines) == 10 + 5
        assert lines[:10] == [f"variant {v} seed {s}: F1 {float(f1):.4f} "
                              f"JI {float(ji):.4f}" for v, s, f1, ji in rows]
        assert [line.split(":")[0] for line in lines[10:]] == [
            f"variant {v}" for v in range(1, 6)]


    def test_empty_test_split_exits_1(self, workspace, tmp_path, capsys):
        root, config, _ = workspace
        data = tmp_path / "data"
        cfg = tmp_path / "notest.cfg"
        cfg.write_text(config.read_text()
                       + f"num_test = 0\ndata_dir = {data}\n")
        assert main(["generate", "--config", str(cfg),
                     "--out", str(data)]) == 0
        assert (data / "test").is_dir() and not any(data.glob("test/*"))
        capsys.readouterr()
        assert main(["ablate", "--config", str(cfg),
                     "--out", str(tmp_path / "abl")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: ablation needs a non-empty test split"]


class TestSubjectSplit:
    @pytest.fixture
    def subject_config(self, tmp_path):
        flat = tmp_path / "flat"
        flat.mkdir()
        rng = np.random.default_rng(0)
        for subject in (1, 2, 3):
            write_csv_sequence(flat / f"s{subject}.csv", SensorSequence(
                features=rng.normal(size=(40, 2)),
                labels=np.arange(40) // 10 % 2, subject_id=subject))
        config = tmp_path / "subjects.cfg"
        config.write_text(f"data_dir = {flat}\nval_subjects = 2\nepochs = 1\n")
        return config

    def test_integer_ids_select_their_subjects(self, subject_config):
        subject_config.write_text(subject_config.read_text()
                                  + "test_subjects = 3\n")
        splits = _load_splits(load_experiment_config(subject_config))
        assert [[s.subject_id for s in split] for split in splits] == [
            [1], [2], [3]]

    def test_unknown_id_exits_1(self, subject_config, tmp_path, capsys):
        subject_config.write_text(subject_config.read_text()
                                  + "test_subjects = 9\n")
        code = main(["train", "--config", str(subject_config),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "9" in err


    def test_subject_lists_decide_the_split_under_default_fractions(
            self, tmp_path):
        # without a separate policy key the lists used to be ignored:
        # train [0, 1, 2, 3], val [], test [4]
        rng = np.random.default_rng(0)
        for subject in range(5):
            write_csv_sequence(tmp_path / f"s{subject}.csv", SensorSequence(
                rng.normal(size=(20, 2)), np.arange(20) // 10,
                subject_id=subject))
        config = tmp_path / "c.cfg"
        config.write_text(f"data_dir = {tmp_path}\nval_subjects = 3\n"
                          "test_subjects = 4\n")
        splits = _load_splits(load_experiment_config(config))
        assert [[s.subject_id for s in split] for split in splits] == [
            [0, 1, 2], [3], [4]]

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_subject_lists_with_a_train_layout_exit_1(
            self, workspace, tmp_path, capsys, command):
        # a train/ subdirectory fixes the split, and the lists used to be
        # ignored
        _, config, data = workspace
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config.read_text() + "val_subjects = 0\n")
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: val_subjects and test_subjects need a flat "
                       f"data_dir, but {data} has a train/ subdir"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_subject_in_both_val_and_test_exits_1(
            self, subject_config, tmp_path, capsys, command):
        subject_config.write_text(subject_config.read_text()
                                  + "test_subjects = 2,3\n")
        assert main([command, "--config", str(subject_config),
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: subject ids in both val_subjects and "
                       "test_subjects: 2"]

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_fractions_outside_unit_interval_exit_1(
            self, subject_config, tmp_path, capsys, command):
        # the fractions used to be read only without subject lists, so
        # this config trained on subjects 1 and 3
        subject_config.write_text(subject_config.read_text()
                                  + "train_fraction = 7\nval_fraction = -3\n")
        out = tmp_path / "run"
        assert main([command, "--config", str(subject_config),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "[0, 1]" in err[0]
        assert not out.exists()


class TestFractionSplit:
    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_fractions_outside_unit_interval_with_a_train_layout_exit_1(
            self, workspace, tmp_path, capsys, command):
        # a train/ subdirectory fixes the split, and the fractions used
        # to go unread, so this config trained and exited 0
        _, config, _ = workspace
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config.read_text() + "train_fraction = 7\n")
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: train_fraction, val_fraction and their sum "
                       "must lie in [0, 1], got 7.0 and 0.1"]
        assert not out.exists()

    def test_shares_above_one_exit_1(self, tmp_path, capsys):
        flat = tmp_path / "flat"
        flat.mkdir()
        rng = np.random.default_rng(0)
        for i in range(10):
            write_csv_sequence(flat / f"r{i}.csv", SensorSequence(
                features=rng.normal(size=(20, 2)),
                labels=np.arange(20) // 10))
        config = tmp_path / "fractions.cfg"
        config.write_text(f"data_dir = {flat}\ntrain_fraction = 0.9\n"
                          "val_fraction = 0.3\nepochs = 1\n")
        code = main(["train", "--config", str(config),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "[0, 1]" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("split", [
        "train_fraction = 0\nval_fraction = 0.5\nnormalize = true\n",
        "train_fraction = 0\nval_fraction = 0.5\nnormalize = false\n",
        "val_subjects = 0,1\ntest_subjects = 2\n",
    ], ids=["fractions-normalized", "fractions-raw", "all-subjects-named"])
    def test_empty_training_split_exits_1_before_output(
            self, tmp_path, capsys, command, split):
        # it used to fail with two different messages, in normalization
        # or in the first epoch after the log was opened
        flat = tmp_path / "flat"
        flat.mkdir()
        rng = np.random.default_rng(0)
        for subject in range(3):
            write_csv_sequence(flat / f"r{subject}.csv", SensorSequence(
                rng.normal(size=(20, 2)), np.arange(20) // 10,
                subject_id=subject))
        config = tmp_path / "c.cfg"
        config.write_text(f"data_dir = {flat}\nepochs = 1\nablate_seeds = 1\n"
                          + split)
        out = tmp_path / "run"
        assert main([command, "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: the training split is empty"]
        assert not out.exists()


def stray_label_config(tmp_path, label):
    """Config over one flat 50-sample recording, all label 0 but one
    `label`, trained on whole for one epoch."""
    flat = tmp_path / "flat"
    flat.mkdir()
    labels = np.zeros(50, dtype=np.int64)
    labels[7] = label
    write_csv_sequence(flat / "rec.csv", SensorSequence(
        features=np.random.default_rng(0).normal(size=(50, 2)),
        labels=labels))
    config = tmp_path / "c.cfg"
    config.write_text(f"data_dir = {flat}\ntrain_fraction = 1.0\n"
                      "val_fraction = 0.0\nepochs = 1\nablate_seeds = 1\n")
    return config


class TestMainPlumbing:
    def test_errors_exit_1_with_message(self, workspace, tmp_path, capsys):
        root, config, data = workspace
        cases = [(tmp_path / "missing.cfg", [], "missing.cfg"),
                 (config, ["--tau", "0"], "temperature"),
                 (config, ["--lambda", "-0.1"], "contrast_weight")]
        for cfg, flags, message in cases:
            code = main(["train", "--config", str(cfg), *flags,
                         "--out", str(tmp_path / "x")])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("flag,value,key", [
        ("--lambda", "nan", "contrast_weight"),
        ("--tau", "inf", "temperature"),
    ])
    def test_non_finite_flag_exits_1_without_output(
            self, workspace, tmp_path, capsys, flag, value, key):
        root, config, data = workspace
        out = tmp_path / "o"
        assert main(["train", "--config", str(config), flag, value,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert key in err[0]
        assert not out.exists()

    def test_out_of_memory_is_a_one_line_error(self, tmp_path, capsys,
                                               monkeypatch):
        # 2**40 classes ask for a 256 TiB classifier, past any address
        # space; where the system does not report its memory, no check
        # runs first and the allocation fails at once
        def unknown(name):
            raise ValueError(f"unrecognized configuration name {name!r}")
        monkeypatch.setattr(os, "sysconf", unknown)
        config = stray_label_config(tmp_path, 2 ** 40)
        assert main(["train", "--config", str(config),
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "allocate" in err[0]

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_model_larger_than_memory_is_rejected_before_allocation(
            self, tmp_path, capsys, monkeypatch, command):
        # a label of 2**30 sizes a default model at 98 * 2**30 parameters,
        # 2352 GiB with Adam's two moments: it must be refused before
        # init_params, not fill memory
        monkeypatch.setattr(md, "init_params", lambda *a: pytest.fail(
            "init_params ran"))
        config = stray_label_config(tmp_path, 2 ** 30)
        assert main([command, "--config", str(config),
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        need = 24 * md.parameter_count(ModelConfig(input_dim=2,
                                                   num_classes=2 ** 30 + 1))
        assert need // 2 ** 30 == 2352
        assert len(err) == 1 and err[0].startswith("error:")
        assert f"largest label {2 ** 30}" in err[0] and str(need) in err[0]

    @pytest.mark.parametrize("command,seed", [
        ("train", -1), ("ablate", -2), ("generate", -3), ("gradcheck", -1)])
    def test_negative_seed_names_the_key_without_output(
            self, tmp_path, capsys, command, seed):
        # rejected while the configs are built, before data or output
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"data_dir = {tmp_path / 'nowhere'}\n")
        out = tmp_path / "o"
        argv = [command, "--seed", str(seed)]
        if command != "gradcheck":
            argv += ["--config", str(cfg), "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "seed" in err[0]
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate", "eval",
                                         "predict"])
    def test_rejected_input_leaves_no_output(self, tmp_path, capsys,
                                             command):
        # the output directory used to be made before the inputs loaded
        rng = np.random.default_rng(0)
        (tmp_path / "data").mkdir()
        for name, dim in (("a.csv", 2), ("b.csv", 3)):
            write_csv_sequence(tmp_path / "data" / name, SensorSequence(
                rng.normal(size=(60, dim)), np.arange(60) // 30))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"data_dir = {tmp_path / 'data'}\n")
        junk = tmp_path / "junk.ckpt"
        junk.write_bytes(b"TSEG")
        out = tmp_path / "out"
        if command in ("train", "ablate"):
            argv = [command, "--config", str(cfg)]
        else:
            argv = [command, str(junk), str(tmp_path / "data" / "a.csv")]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

    def test_missing_dataset_reports_path(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"data_dir = {tmp_path / 'nowhere'}\n")
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / 'o')]) == 1
        assert "nowhere" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", [
        pytest.param("train", "k_per_class", 3, id="train"),
        pytest.param("ablate", "k_per_class", 3, id="ablate"),
        pytest.param("train", "kernel_size", 4, id="train-kernel_size"),
        pytest.param("ablate", "kernel_size", 4, id="ablate-kernel_size"),
        pytest.param("ablate", "ablate_seeds", 0, id="ablate-ablate_seeds"),
    ])
    def test_train_config_is_checked_before_data_or_output(
            self, tmp_path, capsys, command, key, value):
        # a train key and a model key: both are rejected before the missing
        # data_dir is noticed, and before any output is written; model
        # dims stay `auto`
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"data_dir = {tmp_path / 'nowhere'}\n"
                       f"{key} = {value}\n")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert key in err[0]
        assert not out.exists()


class TestColdStart:
    def test_cli_imports_no_scipy(self):
        # scipy.stats alone took most of a second to import; the package
        # must start on numpy alone.  The gradcheck suite, 6-9 ms without
        # cached bytecode, is imported by the gradcheck command alone
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "tempseg.cli",
             "--help"], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        modules = [line.rsplit("|", 1)[1].strip()
                   for line in out.stderr.splitlines()
                   if line.startswith("import time:")]
        assert {"tempseg", "tempseg.train"} <= set(modules)
        assert not [m for m in modules
                    if m == "scipy" or m.startswith("scipy.")]
        assert "tempseg.gradcheck_suite" not in modules
