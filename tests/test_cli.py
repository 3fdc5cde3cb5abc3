import json

import numpy as np
import pytest

from tempseg.cli import (_load_splits, load_experiment_config, main,
                         parse_config_file, variant_settings)
from tempseg.data import SensorSequence, load_csv_dataset, write_csv_sequence
from tempseg.gradcheck_suite import OP_CHECKS
from tempseg.metrics import MetricsReport
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
        assert cfg.input_dim is None and cfg.normalize is True

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
        path = tmp_path / "c.cfg"
        path.write_text("epochs = 2\nlerning_rate = 0.1\n")
        with pytest.raises(ValueError, match=r"c\.cfg:2.*lerning_rate"):
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

    def test_auto_dims_parse(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("input_dim = auto\nnum_classes = 4\n")
        values = parse_config_file(path)
        assert values == {"input_dim": None, "num_classes": 4}


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


class TestTrain:
    def test_writes_checkpoint_and_full_log(self, trained):
        config, data, out = trained
        lines = (out / "training_log.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert {"epoch", "classification", "contrast", "total",
                    "optimizer_steps", "skipped_anchors",
                    "val_macro_f1", "val_jaccard"} <= set(record)
            assert len(record["classification"]) == 2
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

        report = MetricsReport.from_json((out / "metrics.json").read_text())
        assert report.total_samples == 200

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


class TestGradcheck:
    def test_all_ops_pass_and_each_listed_once(self, capsys):
        assert main(["gradcheck"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        names = [line.split()[0] for line in lines]
        assert sorted(names) == sorted(list(OP_CHECKS) + ["full_objective"])
        assert all("PASS" in line for line in lines)

    def test_fault_injection_fails_the_run(self, capsys):
        assert main(["gradcheck", "--inject-fault", "relu"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out


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
        config.write_text(f"data_dir = {flat}\nsplit_policy = by-subject\n"
                          "val_subjects = 2\nepochs = 1\n")
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


class TestMainPlumbing:
    def test_invalid_log_level_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("TEMPSEG_LOG_LEVEL", "chatty")
        assert main(["gradcheck"]) == 2
        assert "TEMPSEG_LOG_LEVEL" in capsys.readouterr().err

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

    def test_missing_dataset_reports_path(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"data_dir = {tmp_path / 'nowhere'}\n")
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / 'o')]) == 1
        assert "nowhere" in capsys.readouterr().err
