import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tempseg.data import NormStats, SensorSequence
from tempseg.model import ModelConfig, init_params
from tempseg.train import (TrainConfig, adam_step, evaluate, fit,
                           init_train_state, load_checkpoint,
                           read_checkpoint_header, save_checkpoint,
                           train_epoch)


def reference_adam(w0, grads, lr, b1, b2, eps):
    """Scalar-loop oracle for the bias-corrected update."""
    w = float(w0)
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        w -= lr * m_hat / (v_hat ** 0.5 + eps)
    return w


def small_config(**overrides):
    base = dict(input_dim=3, num_classes=2, num_stages=1,
                layers_per_stage=2, hidden_channels=6, projection_dim=4)
    base.update(overrides)
    return ModelConfig(**base)


def constant_gradients(state, value):
    return {name: np.full_like(t.values, value)
            for name, t in state.params.named_parameters()}


def blocky_sequence(rng, length=96, num_classes=2, dim=3, run=16):
    """Near-separable toy data: one-hot class signature plus small noise."""
    labels = np.arange(length) // run % num_classes
    features = np.zeros((length, dim))
    features[np.arange(length), labels % dim] = 3.0
    features += rng.normal(scale=0.1, size=(length, dim))
    return SensorSequence(features=features, labels=labels.astype(np.int64))


def make_dataset(n_sequences=4, seed=0, **seq_kwargs):
    rng = np.random.default_rng(seed)
    return [blocky_sequence(rng, **seq_kwargs) for _ in range(n_sequences)]


class TestAdamStep:
    def test_first_step_is_signed_learning_rate(self):
        state = init_train_state(small_config(), seed=0)
        before = {n: t.values.copy()
                  for n, t in state.params.named_parameters()}
        adam_step(state, constant_gradients(state, 2.0), lr=0.001,
                  betas=(0.9, 0.999), eps=1e-8)
        for name, tensor in state.params.named_parameters():
            np.testing.assert_allclose(before[name] - tensor.values,
                                       0.001, atol=1e-9)

    def test_matches_scalar_oracle_over_five_steps(self):
        state = init_train_state(small_config(), seed=3)
        rng = np.random.default_rng(11)
        name0, tensor0 = next(iter(state.params.named_parameters()))
        w0 = tensor0.values.flat[0]
        grad_history = []
        for _ in range(5):
            grads = {n: rng.normal(size=t.values.shape)
                     for n, t in state.params.named_parameters()}
            grad_history.append(grads[name0].flat[0])
            adam_step(state, grads, lr=0.01, betas=(0.9, 0.999), eps=1e-8)
        expected = reference_adam(w0, grad_history, 0.01, 0.9, 0.999, 1e-8)
        assert tensor0.values.flat[0] == pytest.approx(expected, abs=1e-14)

    def test_zero_gradient_leaves_values_unchanged(self):
        state = init_train_state(small_config(), seed=0)
        before = {n: t.values.copy()
                  for n, t in state.params.named_parameters()}
        adam_step(state, constant_gradients(state, 0.0), lr=0.1,
                  betas=(0.9, 0.999), eps=1e-8)
        for name, tensor in state.params.named_parameters():
            np.testing.assert_array_equal(tensor.values, before[name])

    def test_repeated_gradient_step_does_not_grow(self):
        state = init_train_state(small_config(), seed=0)
        grads = constant_gradients(state, -0.7)
        snap = {n: t.values.copy() for n, t in state.params.named_parameters()}
        adam_step(state, grads, lr=0.001, betas=(0.9, 0.999), eps=1e-8)
        mid = {n: t.values.copy() for n, t in state.params.named_parameters()}
        adam_step(state, grads, lr=0.001, betas=(0.9, 0.999), eps=1e-8)
        for name, tensor in state.params.named_parameters():
            first = np.abs(mid[name] - snap[name])
            second = np.abs(tensor.values - mid[name])
            assert np.all(second <= first + 1e-12)

    def test_non_finite_gradient_names_the_parameter(self):
        state = init_train_state(small_config(), seed=0)
        grads = constant_gradients(state, 1.0)
        bad = sorted(grads)[2]
        grads[bad][...] = np.nan
        with pytest.raises(FloatingPointError, match=bad.replace(".", r"\.")):
            adam_step(state, grads, lr=0.001, betas=(0.9, 0.999), eps=1e-8)

    def test_step_counter_advances(self):
        state = init_train_state(small_config(), seed=0)
        assert state.step == 0
        adam_step(state, constant_gradients(state, 1.0), lr=0.001,
                  betas=(0.9, 0.999), eps=1e-8)
        assert state.step == 1


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.001
        assert cfg.batch_size == 32

    @pytest.mark.parametrize("kwargs", [dict(learning_rate=0.0),
                                        dict(epochs=-1),
                                        dict(batch_size=0),
                                        dict(temperature=0.0),
                                        dict(contrast_weight=-0.1)])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestTrainEpoch:
    def test_lambda_zero_total_is_classification_only(self):
        state = init_train_state(small_config(), seed=1)
        cfg = TrainConfig(epochs=1, contrast_weight=0.0, batch_size=2)
        stats = train_epoch(state, make_dataset(3), cfg,
                            np.random.default_rng(0))
        assert stats.contrast == [0.0]
        assert stats.total == stats.classification[0]

    def test_optimizer_step_count_includes_remainder(self):
        state = init_train_state(small_config(), seed=1)
        cfg = TrainConfig(contrast_weight=0.0, batch_size=2)
        stats = train_epoch(state, make_dataset(5), cfg,
                            np.random.default_rng(0))
        assert stats.optimizer_steps == 3

    def test_large_batch_is_single_step(self):
        state = init_train_state(small_config(), seed=1)
        cfg = TrainConfig(contrast_weight=0.0, batch_size=32)
        stats = train_epoch(state, make_dataset(4), cfg,
                            np.random.default_rng(0))
        assert stats.optimizer_steps == 1

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            state = init_train_state(small_config(num_stages=2), seed=5)
            cfg = TrainConfig(batch_size=2, temperature=0.5, k_per_class=4)
            rng = np.random.default_rng(9)
            stats = [train_epoch(state, make_dataset(3), cfg, rng)
                     for _ in range(2)]
            values = [(s.classification, s.contrast, s.total) for s in stats]
            params = {n: t.values.copy()
                      for n, t in state.params.named_parameters()}
            results.append((values, params))
        assert results[0][0] == results[1][0]
        for name in results[0][1]:
            np.testing.assert_array_equal(results[0][1][name],
                                          results[1][1][name])

    def test_loss_decreases_on_separable_data(self):
        state = init_train_state(small_config(), seed=2)
        cfg = TrainConfig(learning_rate=0.01, batch_size=1,
                          contrast_weight=0.0)
        rng = np.random.default_rng(0)
        data = make_dataset(2)
        history = [train_epoch(state, data, cfg, rng).total
                   for _ in range(6)]
        assert history[-1] < history[0]

    def test_sample_only_contrast_differs_from_full(self):
        def one_epoch(include_segments):
            state = init_train_state(small_config(), seed=3)
            cfg = TrainConfig(batch_size=2, temperature=0.5, k_per_class=4,
                              include_segments=include_segments)
            return train_epoch(state, make_dataset(2), cfg,
                               np.random.default_rng(4))

        full = one_epoch(True)
        sample_only = one_epoch(False)
        assert sample_only.contrast[0] > 0
        assert sample_only.contrast != full.contrast

    def test_non_finite_loss_names_the_sequence(self):
        state = init_train_state(small_config(), seed=1)
        first = next(iter(state.params.named_parameters()))[1]
        first.values[...] = np.nan
        cfg = TrainConfig(contrast_weight=0.0)
        with pytest.raises(FloatingPointError, match=r"sequence \d"):
            train_epoch(state, make_dataset(2), cfg,
                        np.random.default_rng(0))

    def test_empty_dataset_rejected(self):
        state = init_train_state(small_config(), seed=1)
        with pytest.raises(ValueError, match="one training sequence"):
            train_epoch(state, [], TrainConfig(), np.random.default_rng(0))


class TestEvaluate:
    def test_does_not_mutate_parameters(self):
        state = init_train_state(small_config(), seed=4)
        before = {n: t.values.copy()
                  for n, t in state.params.named_parameters()}
        evaluate(state.params, state.model_config, make_dataset(2))
        for name, tensor in state.params.named_parameters():
            np.testing.assert_array_equal(tensor.values, before[name])

    def test_counts_and_shapes(self):
        state = init_train_state(small_config(), seed=4)
        data = make_dataset(3, length=64)
        report, per_seq = evaluate(state.params, state.model_config, data)
        assert report.total_samples == 3 * 64
        assert [len(p) for p in per_seq] == [64, 64, 64]

    def test_repeat_evaluation_is_identical(self):
        state = init_train_state(small_config(), seed=4)
        data = make_dataset(2)
        a, _ = evaluate(state.params, state.model_config, data)
        b, _ = evaluate(state.params, state.model_config, data)
        assert a.to_json() == b.to_json()

    def test_forward_is_graph_free_only_inside_the_loop(self, monkeypatch):
        from tempseg import autodiff as ad
        from tempseg import model as md
        from tempseg.train import final_stage_outputs
        outputs = []
        original = md.mstcn_forward

        def spy(*args, **kwargs):
            result = original(*args, **kwargs)
            outputs.extend(result)
            return result

        monkeypatch.setattr(md, "mstcn_forward", spy)
        state = init_train_state(small_config(), seed=4)
        loop = final_stage_outputs(state.params, state.model_config,
                                   make_dataset(2))
        next(loop)
        assert outputs and all(out.probs._parents == () for out in outputs)
        # suspended at a yield, the caller records again
        assert ad.relu(ad.Tensor([1.0]))._vjp is not None
        loop.close()


class TestFit:
    def test_zero_epochs_keeps_initial_parameters(self):
        state = init_train_state(small_config(), seed=6)
        init = {n: t.values.copy()
                for n, t in state.params.named_parameters()}
        history = fit(state, make_dataset(2), [], TrainConfig(epochs=0))
        assert history == []
        best = dict(state.best_params.named_parameters())
        for name, tensor in state.params.named_parameters():
            np.testing.assert_array_equal(tensor.values, init[name])
            np.testing.assert_array_equal(best[name].values, init[name])

    def test_one_log_record_per_epoch(self):
        state = init_train_state(small_config(), seed=6)
        seen = []
        cfg = TrainConfig(epochs=3, contrast_weight=0.0, batch_size=1)
        history = fit(state, make_dataset(2), make_dataset(1, seed=9), cfg,
                      log_fn=seen.append)
        assert len(history) == 3 and seen == history
        for record in history:
            assert {"epoch", "classification", "contrast", "total",
                    "optimizer_steps", "skipped_anchors",
                    "val_macro_f1", "val_jaccard"} <= set(record)
            assert record["optimizer_steps"] == 2
            assert record["skipped_anchors"] == 0   # no contrast term

    def test_skipped_anchors_are_summed_over_the_epoch(self, monkeypatch):
        from tempseg import train as tr
        per_sequence = []
        original = tr.total_objective

        def spy(*args, **kwargs):
            loss, breakdown = original(*args, **kwargs)
            per_sequence.append(breakdown.skipped_anchors)
            return loss, breakdown

        monkeypatch.setattr(tr, "total_objective", spy)
        state = init_train_state(small_config(), seed=6)
        cfg = TrainConfig(epochs=2, batch_size=2, k_per_class=2)
        # a single-class sequence: its anchors have no negative
        data = make_dataset(2) + make_dataset(1, run=96)
        history = fit(state, data, [], cfg)
        assert [r["skipped_anchors"] for r in history] == [
            sum(per_sequence[:3]), sum(per_sequence[3:])]
        assert history[0]["skipped_anchors"] > 0
        assert [r["optimizer_steps"] for r in history] == [2, 2]

    def test_validation_leaves_training_differentiable(self, monkeypatch):
        # validation runs graph-free; the epoch after it must still
        # produce gradients for every parameter the first epoch reached
        from tempseg import train as tr
        nonzero = []
        original = tr.adam_step

        def spy(state, gradients, *args, **kwargs):
            nonzero.append({n for n, g in gradients.items() if np.any(g)})
            return original(state, gradients, *args, **kwargs)

        monkeypatch.setattr(tr, "adam_step", spy)
        state = init_train_state(small_config(), seed=6)
        cfg = TrainConfig(epochs=2, batch_size=2, contrast_weight=0.5)
        fit(state, make_dataset(2), make_dataset(1, seed=9), cfg)
        assert len(nonzero) == 2
        assert nonzero[0] and nonzero[1] == nonzero[0]

    def test_best_snapshot_reproduces_logged_metric(self):
        state = init_train_state(small_config(), seed=6)
        cfg = TrainConfig(epochs=4, learning_rate=0.01, batch_size=1,
                          contrast_weight=0.0)
        val = make_dataset(1, seed=9)
        history = fit(state, make_dataset(2), val, cfg)
        best = max(history, key=lambda r: r["val_macro_f1"])
        assert state.best_metric == best["val_macro_f1"]
        assert state.best_epoch == best["epoch"]
        report, _ = evaluate(state.best_params, state.model_config, val)
        assert report.macro_f1 == best["val_macro_f1"]


class TestCheckpoint:
    def trained_state(self, tmp_path, epochs=2):
        state = init_train_state(small_config(num_stages=2), seed=7)
        state.norm_stats = NormStats(mean=np.array([0.1, -0.2, 0.3]),
                                     std=np.array([1.0, 2.0, 0.5]))
        cfg = TrainConfig(epochs=epochs, batch_size=1, k_per_class=4,
                          temperature=0.5)
        fit(state, make_dataset(2), [], cfg)
        return state

    def test_round_trip_is_bitwise(self, tmp_path):
        state = self.trained_state(tmp_path)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path, metadata={"seed": 7})
        loaded = load_checkpoint(path)
        assert loaded.model_config == state.model_config
        assert loaded.step == 0
        for name, tensor in state.params.named_parameters():
            restored = dict(loaded.params.named_parameters())[name]
            np.testing.assert_array_equal(restored.values, tensor.values)
            assert not loaded.m[name].any() and not loaded.v[name].any()
        np.testing.assert_array_equal(loaded.norm_stats.mean,
                                      state.norm_stats.mean)
        np.testing.assert_array_equal(loaded.norm_stats.std,
                                      state.norm_stats.std)

    def test_save_after_load_is_byte_identical(self, tmp_path):
        state = self.trained_state(tmp_path)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(state, first, metadata={"seed": 7})
        save_checkpoint(load_checkpoint(first), second, metadata={"seed": 7})
        assert first.read_bytes() == second.read_bytes()

    def test_evaluation_survives_round_trip_exactly(self, tmp_path):
        state = self.trained_state(tmp_path)
        data = make_dataset(2, seed=21)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        before, _ = evaluate(state.params, state.model_config, data)
        loaded = load_checkpoint(path)
        after, _ = evaluate(loaded.params, loaded.model_config, data)
        assert before.to_json() == after.to_json()

    def test_header_metadata_round_trips(self, tmp_path):
        state = self.trained_state(tmp_path)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path, metadata={"seed": 7, "note": "abc"})
        header = read_checkpoint_header(path)
        assert header["metadata"] == {"seed": 7, "note": "abc"}
        assert set(header) == {"model_config", "norm_mean", "norm_std",
                               "metadata"}

    def test_truncated_file_is_a_format_error(self, tmp_path):
        state = self.trained_state(tmp_path)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-17])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_future_version_rejected(self, tmp_path):
        state = self.trained_state(tmp_path)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version 99"):
            load_checkpoint(path)

    def test_unknown_tensor_name_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.trained_state(tmp_path), path)
        path.write_bytes(path.read_bytes().replace(b"stage0.classifier.w",
                                                   b"stage0.classifieR.w"))
        with pytest.raises(ValueError, match="tensor names"):
            load_checkpoint(path)

    def test_non_finite_parameter_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.trained_state(tmp_path), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8] + struct.pack("<d", float("nan")))
        with pytest.raises(ValueError, match="not finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("keys, value", [
        (("model_config", "bogus"), 1),
        (("model_config", "kernel_size"), None),
        (("model_config", "num_stages"), "2"),
        (("model_config", "hidden_channels"), 6.0),
        (("model_config", "hidden_channels"), 10 ** 5),
        (("model_config",), [1]),
        (("norm_mean",), [0.0]),
        (("norm_std",), [1.0, float("nan"), 1.0]),
        ((), [{}]),
    ])
    def test_malformed_header_is_a_format_error(self, tmp_path, keys, value):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.trained_state(tmp_path, epochs=0), path)
        blob = path.read_bytes()
        (length,) = struct.unpack("<Q", blob[12:20])
        header = json.loads(blob[20:20 + length])
        if keys:
            target = header
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value
        else:
            header = value
        encoded = json.dumps(header).encode("utf-8")
        path.write_bytes(blob[:12] + struct.pack("<Q", len(encoded))
                         + encoded + blob[20 + length:])
        with pytest.raises(ValueError):
            load_checkpoint(path)


V1_FIXTURE = Path(__file__).parent / "data" / "v1_tiny.ckpt"


def test_v1_checkpoint_still_loads(tmp_path):
    """A format 1 file (with Adam moments and a step count) written from
    init_train_state(config, seed=3) before format 2 existed."""
    config = ModelConfig(input_dim=3, num_classes=3, num_stages=2,
                         layers_per_stage=1, hidden_channels=4,
                         projection_dim=2, kernel_size=3)
    loaded = load_checkpoint(V1_FIXTURE)
    assert loaded.model_config == config and loaded.step == 0
    for (name, got), (_, want) in zip(
            loaded.params.named_parameters(),
            init_params(config, seed=3).named_parameters()):
        assert got.values.tobytes() == want.values.tobytes(), name
    np.testing.assert_array_equal(loaded.norm_stats.mean, [0.25, -1.5, 3.0])
    np.testing.assert_array_equal(loaded.norm_stats.std, [1.0, 0.5, 2.0])

    metadata = read_checkpoint_header(V1_FIXTURE)["metadata"]
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(loaded, first, metadata=metadata)
    save_checkpoint(load_checkpoint(first), second, metadata=metadata)
    assert first.read_bytes()[8:12] == (2).to_bytes(4, "little")
    assert first.read_bytes() == second.read_bytes()


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    state = init_train_state(small_config(num_stages=2, layers_per_stage=1,
                                          hidden_channels=2,
                                          projection_dim=2), seed=1)
    state.norm_stats = NormStats(mean=np.zeros(3), std=np.ones(3))
    path = tmp_path_factory.mktemp("fuzz") / "tiny.ckpt"
    save_checkpoint(state, path, metadata={"seed": 1})
    return path, path.read_bytes()


class TestCheckpointCorruption:
    """Any damage to a checkpoint either loads or raises ValueError."""

    def test_every_truncation_is_a_format_error(self, tiny_checkpoint):
        path, blob = tiny_checkpoint
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ValueError):
                load_checkpoint(path)

    @settings(max_examples=300, deadline=None)
    @given(flips=st.lists(st.tuples(st.integers(min_value=0),
                                    st.integers(1, 255)),
                          min_size=1, max_size=6))
    def test_byte_flips_load_or_raise_value_error(self, tiny_checkpoint,
                                                  flips):
        path, blob = tiny_checkpoint
        corrupt = bytearray(blob)
        for pos, mask in flips:
            corrupt[pos % len(blob)] ^= mask
        path.write_bytes(bytes(corrupt))
        try:
            load_checkpoint(path)
        except ValueError:
            pass
