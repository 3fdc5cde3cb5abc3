import tracemalloc

import numpy as np
import pytest

from tempseg import autodiff as ad
from tempseg import model as md


def assert_block_backs_every_tensor(params, config):
    """params.block is C-contiguous float64 of parameter_count(config)
    scalars, and every tensor's values view it at the tensor's offset in
    named_parameters() order."""
    block = params.block
    assert block.dtype == np.float64 and block.flags.c_contiguous
    assert block.shape == (md.parameter_count(config),)
    offset = 0
    for name, t in params.named_parameters():
        assert t.values.base is block, name
        assert t.values.ctypes.data == block.ctypes.data + 8 * offset, name
        assert t.values.flags.c_contiguous, name
        offset += t.values.size
    assert offset == block.size


def small_config(**over):
    base = dict(input_dim=3, num_classes=4, num_stages=2, layers_per_stage=2,
                hidden_channels=8, projection_dim=5, kernel_size=3)
    base.update(over)
    return md.ModelConfig(**base)


class TestModelConfig:
    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            small_config(kernel_size=4)

    def test_binary_minimum(self):
        with pytest.raises(ValueError, match="num_classes"):
            small_config(num_classes=1)

    @pytest.mark.parametrize("bad", [
        dict(num_stages=0), dict(layers_per_stage=0), dict(hidden_channels=0),
        dict(projection_dim=0),
    ])
    def test_positivity_checks(self, bad):
        with pytest.raises(ValueError):
            small_config(**bad)


class TestInitParams:
    def test_same_seed_bitwise_identical(self):
        cfg = small_config()
        a = md.init_params(cfg, seed=5)
        b = md.init_params(cfg, seed=5)
        for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            assert ta.values.tobytes() == tb.values.tobytes()

    def test_different_seeds_differ(self):
        cfg = small_config()
        a = md.init_params(cfg, seed=5)
        b = md.init_params(cfg, seed=6)
        assert any(not np.array_equal(ta.values, tb.values)
                   for (_, ta), (_, tb) in zip(a.named_parameters(),
                                               b.named_parameters()))

    def test_fan_in_bound_and_zero_biases(self):
        cfg = small_config()
        params = md.init_params(cfg, seed=0)
        for name, t in params.named_parameters():
            if name.endswith(".b"):
                np.testing.assert_array_equal(t.values, 0.0)
            else:
                c_out, c_in, k = t.shape
                assert np.max(np.abs(t.values)) <= np.sqrt(6.0 / (c_in * k))

    def test_stage_one_adapter_reads_raw_channels(self):
        cfg = small_config()
        params = md.init_params(cfg, seed=0)
        assert params.stages[0].adapter_w.shape[1] == cfg.input_dim
        assert params.stages[1].adapter_w.shape[1] == cfg.num_classes

    def test_named_parameter_count(self):
        cfg = small_config()
        params = md.init_params(cfg, seed=0)
        # per stage: adapter(2) + 2 blocks * 4 + classifier(2) + projection(4)
        assert len(list(params.named_parameters())) == cfg.num_stages * 16

    @pytest.mark.parametrize("over", [
        dict(), dict(num_stages=1), dict(num_stages=3, layers_per_stage=4),
        dict(kernel_size=5, projection_dim=2, input_dim=7),
    ])
    def test_parameter_count_matches_allocation(self, over):
        cfg = small_config(**over)
        params = md.init_params(cfg, seed=0)
        assert md.parameter_count(cfg) == sum(t.values.size
                                              for t in params.tensors())
        assert_block_backs_every_tensor(params, cfg)

    @pytest.mark.parametrize("values", [
        np.arange(md.parameter_count(small_config()), dtype=np.float32),
        np.arange(2 * md.parameter_count(small_config()))[::2],
    ])
    def test_build_params_binds_a_float64_copy(self, values):
        cfg = small_config()
        params = md.build_params(cfg, values)
        assert_block_backs_every_tensor(params, cfg)
        assert not np.shares_memory(params.block, values)
        np.testing.assert_array_equal(params.block, values)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_build_params_needs_the_configs_size(self, extra):
        cfg = small_config()
        with pytest.raises(ValueError):
            md.build_params(cfg, np.zeros(md.parameter_count(cfg) + extra))

    def test_draws_follow_the_documented_order(self):
        cfg = small_config(kernel_size=5)
        rng = np.random.default_rng(3)

        def draw(c_out, c_in, k):
            bound = np.sqrt(6.0 / (c_in * k))
            return rng.uniform(-bound, bound, size=(c_out, c_in, k))

        # one generator: per stage, each block's dilated then mix weight,
        # then the adapter, classifier and projection weights
        f, c, p = cfg.hidden_channels, cfg.num_classes, cfg.projection_dim
        want = {}
        for s in range(cfg.num_stages):
            for l in range(cfg.layers_per_stage):
                want[f"stage{s}.block{l}.dilated.w"] = draw(f, f, 5)
                want[f"stage{s}.block{l}.mix.w"] = draw(f, f, 1)
            want[f"stage{s}.adapter.w"] = draw(f, cfg.input_dim if s == 0
                                               else c, 1)
            want[f"stage{s}.classifier.w"] = draw(c, f, 1)
            want[f"stage{s}.proj_hidden.w"] = draw(f, f, 1)
            want[f"stage{s}.proj_out.w"] = draw(p, f, 1)
        got = {name: t.values for name, t
               in md.init_params(cfg, seed=3).named_parameters()
               if name.endswith(".w")}
        assert got.keys() == want.keys()
        for name, values in want.items():
            assert got[name].tobytes() == values.tobytes(), name

    def test_checkpoint_names_of_a_one_block_model(self):
        params = md.init_params(small_config(num_stages=1,
                                             layers_per_stage=1), seed=0)
        assert [(name, t.shape) for name, t in params.named_parameters()] == [
            ("stage0.adapter.w", (8, 3, 1)), ("stage0.adapter.b", (8,)),
            ("stage0.block0.dilated.w", (8, 8, 3)),
            ("stage0.block0.dilated.b", (8,)),
            ("stage0.block0.mix.w", (8, 8, 1)), ("stage0.block0.mix.b", (8,)),
            ("stage0.classifier.w", (4, 8, 1)), ("stage0.classifier.b", (4,)),
            ("stage0.proj_hidden.w", (8, 8, 1)),
            ("stage0.proj_hidden.b", (8,)),
            ("stage0.proj_out.w", (5, 8, 1)), ("stage0.proj_out.b", (5,))]


class TestSstcnForward:
    def test_shape_contract(self):
        cfg = small_config(input_dim=6, hidden_channels=32, layers_per_stage=4,
                           num_stages=1)
        params = md.init_params(cfg, seed=1)
        rng = np.random.default_rng(0)
        out = md.sstcn_forward(ad.Tensor(rng.normal(size=(100, 6))),
                               params.stages[0])
        assert out.shape == (100, 32)

    def test_zero_blocks_reduce_to_adapter(self):
        cfg = small_config(num_stages=1)
        params = md.init_params(cfg, seed=2)
        stage = params.stages[0]
        for blk in stage.blocks:
            blk.mix_w.values[:] = 0.0
            blk.mix_b.values[:] = 0.0
        x = ad.Tensor(np.random.default_rng(3).normal(size=(12, cfg.input_dim)))
        out = md.sstcn_forward(x, stage)
        adapter_only = ad.conv1d_dilated(x, stage.adapter_w, stage.adapter_b, 1)
        np.testing.assert_array_equal(out.values, adapter_only.values)

    def test_single_block_hand_computation(self):
        # one channel everywhere: adapter is identity, the dilated conv is a
        # centered [1,1,1] moving sum, the mix doubles and shifts by 0.5
        cfg = md.ModelConfig(input_dim=1, num_classes=2, num_stages=1,
                             layers_per_stage=1, hidden_channels=1,
                             projection_dim=1, kernel_size=3)
        params = md.init_params(cfg, seed=0)
        stage = params.stages[0]
        stage.adapter_w.values[:] = 1.0
        stage.adapter_b.values[:] = 0.0
        blk = stage.blocks[0]
        blk.dilated_w.values[0, 0] = [1.0, 1.0, 1.0]
        blk.dilated_b.values[:] = 0.0
        blk.mix_w.values[:] = 2.0
        blk.mix_b.values[:] = 0.5
        out = md.sstcn_forward(ad.Tensor([[1.0], [2.0], [3.0], [4.0]]), stage)
        # moving sums [3,6,9,7] -> relu unchanged -> 2x+0.5 -> plus skip path
        np.testing.assert_allclose(out.values[:, 0], [7.5, 14.5, 21.5, 18.5])

    def test_channel_mismatch(self):
        cfg = small_config()
        params = md.init_params(cfg, seed=1)
        with pytest.raises(ValueError, match="channel mismatch"):
            md.sstcn_forward(ad.Tensor(np.zeros((10, cfg.input_dim + 1))),
                             params.stages[0])


    def test_recorded_forward_holds_one_array_per_block(self):
        # default config, T=1126 (a training chunk with its halo): each of
        # the 12 blocks keeps only its output, so with the adapter
        # outputs, logits and softmax the graph holds 14.67 T x F arrays;
        # blocks that kept their relu outputs too held 26.67, four ops
        # per block about 51
        cfg = md.ModelConfig(input_dim=6, num_classes=5)
        params = md.init_params(cfg, seed=0)
        x = np.random.default_rng(0).normal(size=(1126, cfg.input_dim))
        tracemalloc.start()
        try:
            outs = md.mstcn_forward(x, params, cfg)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert outs[-1].probs._parents
        assert held <= 20 * 1126 * cfg.hidden_channels * 8

    def test_recorded_head_holds_only_its_rows(self):
        # default config, T=1126: the head keeps the T x 16 normalized
        # rows and two T x 1 norm columns, 163,736 bytes in all; keeping
        # the T x 32 relu output too held 452,120, and the four ops it
        # fuses also kept both pre-activations, 48 more columns
        cfg = md.ModelConfig(input_dim=6, num_classes=5)
        stage = md.init_params(cfg, seed=0).stages[0]
        t_len = 1126
        h = ad.Tensor(np.random.default_rng(0).normal(
            size=(t_len, cfg.hidden_channels)))
        tracemalloc.start()
        try:
            out = md.project(h, stage)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out._parents
        assert held <= t_len * (cfg.projection_dim + 2) * 8 + 8192


class TestHeads:
    def test_classify_zero_weights(self):
        cfg = small_config(num_stages=1)
        params = md.init_params(cfg, seed=4)
        stage = params.stages[0]
        stage.classifier_w.values[:] = 0.0
        feats = ad.Tensor(np.random.default_rng(1).normal(size=(9, 8)))
        np.testing.assert_array_equal(md.classify(feats, stage).values, 0.0)

    def test_classify_identity(self):
        cfg = small_config(num_stages=1, hidden_channels=4, num_classes=4)
        params = md.init_params(cfg, seed=4)
        stage = params.stages[0]
        stage.classifier_w.values[:] = np.eye(4)[:, :, None]
        stage.classifier_b.values[:] = 0.0
        feats = np.random.default_rng(2).normal(size=(7, 4))
        np.testing.assert_array_equal(md.classify(ad.Tensor(feats), stage).values,
                                      feats)

    def test_classify_matches_matmul_oracle(self):
        cfg = small_config(num_stages=1)
        params = md.init_params(cfg, seed=9)
        stage = params.stages[0]
        feats = np.random.default_rng(3).normal(size=(11, cfg.hidden_channels))
        got = md.classify(ad.Tensor(feats), stage).values
        want = feats @ stage.classifier_w.values[:, :, 0].T + stage.classifier_b.values
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_project_rows_unit_or_zero(self):
        cfg = small_config(num_stages=1)
        params = md.init_params(cfg, seed=11)
        feats = ad.Tensor(np.random.default_rng(4).normal(size=(30, 8)))
        out = md.project(feats, params.stages[0])
        norms = np.linalg.norm(out.values, axis=1)
        assert np.all((np.abs(norms - 1.0) < 1e-9) | (norms == 0.0))

    def test_project_zero_output_layer(self):
        cfg = small_config(num_stages=1)
        params = md.init_params(cfg, seed=11)
        stage = params.stages[0]
        stage.proj_out_w.values[:] = 0.0
        feats = ad.Tensor(np.random.default_rng(4).normal(size=(6, 8)))
        np.testing.assert_array_equal(md.project(feats, stage).values, 0.0)

    def test_project_hand_computation(self):
        cfg = md.ModelConfig(input_dim=1, num_classes=2, num_stages=1,
                             layers_per_stage=1, hidden_channels=2,
                             projection_dim=2, kernel_size=1)
        params = md.init_params(cfg, seed=0)
        stage = params.stages[0]
        stage.proj_hidden_w.values[:] = np.eye(2)[:, :, None]
        stage.proj_hidden_b.values[:] = 0.0
        stage.proj_out_w.values[:] = np.eye(2)[:, :, None]
        stage.proj_out_b.values[:] = 0.0
        out = md.project(ad.Tensor([[3.0, 4.0], [-1.0, 2.0]]), stage)
        # relu kills the -1, leaving [0,2] which normalizes to [0,1]
        np.testing.assert_allclose(out.values, [[0.6, 0.8], [0.0, 1.0]])


class TestMstcnForward:
    def test_single_stage(self):
        cfg = small_config(num_stages=1)
        params = md.init_params(cfg, seed=1)
        outs = md.mstcn_forward(np.zeros((20, 3)), params, cfg)
        assert len(outs) == 1

    def test_two_stage_shapes(self):
        cfg = small_config(num_stages=2, num_classes=5, input_dim=4)
        params = md.init_params(cfg, seed=1)
        x = np.random.default_rng(5).normal(size=(100, 4))
        outs = md.mstcn_forward(x, params, cfg, project=True)
        assert len(outs) == 2
        for out in outs:
            assert out.logits.shape == (100, 5)
            assert out.probs.shape == (100, 5)
            assert out.projected.shape == (100, cfg.projection_dim)
            np.testing.assert_allclose(out.probs.values.sum(axis=1), 1.0,
                                       atol=1e-9)

    def test_stage_isolation(self):
        cfg = small_config()
        x = np.random.default_rng(6).normal(size=(40, 3))
        params = md.init_params(cfg, seed=7)
        before = md.mstcn_forward(x, params, cfg)
        params.stages[1].classifier_w.values[:] += 0.3
        after = md.mstcn_forward(x, params, cfg)
        assert np.array_equal(before[0].logits.values, after[0].logits.values)
        assert not np.array_equal(before[1].logits.values, after[1].logits.values)

    def test_prediction_shift_invariance(self):
        cfg = small_config()
        x = np.random.default_rng(8).normal(size=(25, 3))
        params = md.init_params(cfg, seed=3)
        outs = md.mstcn_forward(x, params, cfg)
        base = md.predict_labels(outs[-1].probs.values)
        params.stages[-1].classifier_b.values[:] += 7.0
        shifted = md.predict_labels(
            md.mstcn_forward(x, params, cfg)[-1].probs.values)
        np.testing.assert_array_equal(base, shifted)

    def test_frozen_forward_deterministic(self):
        cfg = small_config()
        x = np.random.default_rng(9).normal(size=(30, 3))
        params = md.init_params(cfg, seed=2)
        a = md.mstcn_forward(x, params, cfg)
        b = md.mstcn_forward(x, params, cfg)
        for oa, ob in zip(a, b):
            assert oa.probs.values.tobytes() == ob.probs.values.tobytes()

    def test_wrong_input_dim(self):
        cfg = small_config()
        params = md.init_params(cfg, seed=1)
        with pytest.raises(ValueError, match="features"):
            md.mstcn_forward(np.zeros((10, cfg.input_dim + 2)), params, cfg)

    def test_gradient_reaches_first_stage_through_cascade(self):
        cfg = small_config(layers_per_stage=1, hidden_channels=4)
        params = md.init_params(cfg, seed=12)
        x = np.random.default_rng(10).normal(size=(16, 3))
        labels = np.random.default_rng(11).integers(0, cfg.num_classes, size=16)
        outs = md.mstcn_forward(x, params, cfg)
        loss = ad.softmax_cross_entropy(outs[-1].logits, labels)
        grads = ad.backward({loss: 1.0}, [params.stages[0].adapter_w])
        g = grads.get(params.stages[0].adapter_w)
        assert g is not None and np.any(g != 0.0)
