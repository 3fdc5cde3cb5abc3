"""Tests for the reverse-mode tensor core.

The convolution tests check against a naive direct-summation oracle, and
every differentiable op has to survive a central-difference gradient check.
"""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tempseg import autodiff as ad
from tempseg import model as md


def naive_conv1d(x, w, b, dilation):
    """Direct-summation dilated convolution with zero padding (oracle)."""
    t_len, c_in = x.shape
    c_out, _, k = w.shape
    pad = (k - 1) // 2 * dilation
    out = np.zeros((t_len, c_out))
    for t in range(t_len):
        for co in range(c_out):
            acc = b[co]
            for ci in range(c_in):
                for j in range(k):
                    src = t + j * dilation - pad
                    if 0 <= src < t_len:
                        acc += x[src, ci] * w[co, ci, j]
            out[t, co] = acc
    return out


def padded_conv1d(x, w, b, dilation, g):
    """Values and (gx, gw, gb) of a conv through a zero-padded copy of x.

    This is the earlier algorithm, kept as the reference for the one that
    works on shifted slices of x.
    """
    t_len = x.shape[0]
    k = w.shape[2]
    pad = (k - 1) // 2 * dilation
    padded = np.zeros((t_len + 2 * pad, x.shape[1]))
    padded[pad:pad + t_len] = x
    out = np.tile(b, (t_len, 1))
    gw = np.empty_like(w)
    gpad = np.zeros_like(padded)
    for j in range(k):
        sl = slice(j * dilation, j * dilation + t_len)
        out += padded[sl] @ w[:, :, j].T
        gw[:, :, j] = g.T @ padded[sl]
        gpad[sl] += g @ w[:, :, j]
    return out, gpad[pad:pad + t_len], gw, g.sum(axis=0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestConv1dDilated:
    def test_identity_kernel(self, rng):
        x = ad.Tensor(rng.normal(size=(7, 1)))
        w = ad.Tensor(np.ones((1, 1, 1)))
        b = ad.Tensor(np.zeros(1))
        out = ad.conv1d_dilated(x, w, b, dilation=1)
        np.testing.assert_array_equal(out.values, x.values)

    def test_hand_example_matches_oracle(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        w = np.array([[[1.0, 1.0, 1.0]]])
        b = np.zeros(1)
        out = ad.conv1d_dilated(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b), 1)
        np.testing.assert_allclose(out.values[:, 0], [3.0, 6.0, 9.0, 7.0])
        np.testing.assert_allclose(out.values, naive_conv1d(x, w, b, 1))

    def test_bias_only(self, rng):
        x = ad.Tensor(rng.normal(size=(5, 3)))
        w = ad.Tensor(np.zeros((2, 3, 3)))
        b = ad.Tensor(np.array([0.5, -1.5]))
        out = ad.conv1d_dilated(x, w, b, dilation=2)
        np.testing.assert_array_equal(out.values, np.tile([0.5, -1.5], (5, 1)))

    @pytest.mark.parametrize("dilation,k", [(1, 1), (1, 3), (2, 3), (4, 5), (3, 7)])
    def test_matches_oracle_random(self, rng, dilation, k):
        x = rng.normal(size=(11, 4))
        w = rng.normal(size=(3, 4, k))
        b = rng.normal(size=3)
        out = ad.conv1d_dilated(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b), dilation)
        np.testing.assert_allclose(out.values, naive_conv1d(x, w, b, dilation), atol=1e-12)

    @pytest.mark.parametrize("dilation", [1, 2, 8])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_same_length_contract(self, rng, dilation, k):
        x = ad.Tensor(rng.normal(size=(20, 2)))
        w = ad.Tensor(rng.normal(size=(5, 2, k)))
        b = ad.Tensor(np.zeros(5))
        assert ad.conv1d_dilated(x, w, b, dilation).shape == (20, 5)

    def test_linearity_in_input(self, rng):
        w = ad.Tensor(rng.normal(size=(3, 2, 3)))
        b = ad.Tensor(np.zeros(3))
        x = rng.normal(size=(9, 2))
        y = rng.normal(size=(9, 2))
        a_coef, b_coef = 1.7, -0.4
        lhs = ad.conv1d_dilated(ad.Tensor(a_coef * x + b_coef * y), w, b, 2).values
        rhs = (a_coef * ad.conv1d_dilated(ad.Tensor(x), w, b, 2).values
               + b_coef * ad.conv1d_dilated(ad.Tensor(y), w, b, 2).values)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(k=st.sampled_from([1, 3, 5]), t_len=st.integers(1, 40),
           dilation=st.integers(1, 48), c_in=st.integers(1, 4),
           c_out=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_matches_padded_reference_with_gradients(self, k, t_len, dilation,
                                                     c_in, c_out, seed):
        # dilations up to 48 against T <= 40 put whole taps outside
        r = np.random.default_rng(seed)
        x = r.normal(size=(t_len, c_in))
        w = r.normal(size=(c_out, c_in, k))
        b = r.normal(size=c_out)
        g = r.normal(size=(t_len, c_out))
        out = ad.conv1d_dilated(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b),
                                dilation)
        got = (out.values, *out._vjp(g))
        for a, ref in zip(got, padded_conv1d(x, w, b, dilation, g)):
            assert a.shape == ref.shape
            np.testing.assert_allclose(a, ref, rtol=0, atol=1e-12)

    def test_channel_mismatch_raises(self, rng):
        x = ad.Tensor(rng.normal(size=(5, 3)))
        w = ad.Tensor(rng.normal(size=(2, 4, 3)))
        b = ad.Tensor(np.zeros(2))
        with pytest.raises(ValueError, match="channel mismatch"):
            ad.conv1d_dilated(x, w, b, 1)

    def test_even_kernel_rejected(self, rng):
        x = ad.Tensor(rng.normal(size=(5, 1)))
        w = ad.Tensor(rng.normal(size=(1, 1, 2)))
        with pytest.raises(ValueError, match="odd"):
            ad.conv1d_dilated(x, w, ad.Tensor(np.zeros(1)), 1)


class TestElementwiseOps:
    def test_relu(self):
        out = ad.relu(ad.Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.values, [0.0, 0.0, 2.0])

    def test_add_identity(self, rng):
        x = ad.Tensor(rng.normal(size=(4, 3)))
        out = ad.add(x, ad.Tensor(0.0))
        np.testing.assert_array_equal(out.values, x.values)

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError, match="conform"):
            ad.add(ad.Tensor(np.zeros(3)), ad.Tensor(np.zeros(4)))

    def test_l2_normalize_vector(self):
        out = ad.l2_normalize(ad.Tensor([3.0, 4.0]))
        np.testing.assert_allclose(out.values, [0.6, 0.8])

    def test_l2_normalize_zero_vector(self):
        out = ad.l2_normalize(ad.Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(out.values, [0.0, 0.0])

    def test_l2_normalize_matrix_rows(self, rng):
        x = rng.normal(size=(6, 4))
        x[2] = 0.0
        out = ad.l2_normalize(ad.Tensor(x))
        norms = np.linalg.norm(out.values, axis=1)
        np.testing.assert_allclose(norms[[0, 1, 3, 4, 5]], 1.0, atol=1e-12)
        assert norms[2] == 0.0

    def test_log_domain_error(self):
        with pytest.raises(ValueError, match="positive"):
            ad.log(ad.Tensor([1.0, -2.0]))

    def test_dot(self):
        out = ad.dot(ad.Tensor([1.0, 2.0]), ad.Tensor([3.0, 4.0]))
        assert out.item() == 11.0


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        logits = ad.Tensor(np.zeros((5, 4)))
        loss, probs = ad.softmax_cross_entropy(logits, np.zeros(5, dtype=int))
        assert abs(loss.item() - math.log(4)) < 1e-12
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_huge_margin_drives_loss_to_zero(self):
        logits = np.full((3, 4), -500.0)
        labels = np.array([0, 2, 3])
        logits[np.arange(3), labels] = 500.0
        loss, _ = ad.softmax_cross_entropy(ad.Tensor(logits), labels)
        assert loss.item() < 1e-12

    def test_two_class_hand_value(self):
        loss, _ = ad.softmax_cross_entropy(ad.Tensor([[1.0, 0.0]]), np.array([0]))
        assert abs(loss.item() - math.log(1 + math.exp(-1))) < 1e-12

    def test_probability_rows(self, ):
        rng = np.random.default_rng(7)
        logits = ad.Tensor(rng.normal(scale=5.0, size=(40, 6)))
        _, probs = ad.softmax_cross_entropy(logits, rng.integers(0, 6, size=40))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            ad.softmax_cross_entropy(ad.Tensor(np.zeros((3, 2))), np.array([0, 1, 2]))


class TestBackward:
    def test_linear_loss_gradient(self, rng):
        x = rng.normal(size=5)
        w = ad.Tensor(rng.normal(size=5))
        loss = ad.dot(w, ad.Tensor(x))
        loss.backward()
        np.testing.assert_allclose(w.grad, x)

    def test_dead_relu(self):
        w = ad.Tensor([-1.0, -2.0, -0.5])
        loss = ad.mean(ad.relu(w))
        loss.backward()
        np.testing.assert_array_equal(w.grad, np.zeros(3))

    def test_non_scalar_loss_rejected(self, rng):
        t = ad.relu(ad.Tensor(rng.normal(size=4)))
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ad.CompGraph.from_output(t), t)

    def test_unreachable_parameter_keeps_zero_grad(self, rng):
        used = ad.Tensor(rng.normal(size=3))
        unused = ad.Tensor(rng.normal(size=3))
        unused.zero_grad()
        loss = ad.mean(ad.mul(used, used))
        loss.backward()
        np.testing.assert_array_equal(unused.grad, np.zeros(3))
        assert used.grad is not None

    def test_backward_is_linear_over_losses(self, rng):
        w_vals = rng.normal(size=(4, 3))
        x = ad.Tensor(rng.normal(size=(6, 4)))

        def grads_of(build):
            w = ad.Tensor(w_vals.copy())
            build(w).backward()
            return w.grad

        loss_a = lambda w: ad.mean(ad.relu(ad.matmul(x, w)))
        loss_b = lambda w: ad.tsum(ad.mul(ad.matmul(x, w), ad.matmul(x, w)))
        combined = grads_of(lambda w: ad.add(loss_a(w), loss_b(w)))
        np.testing.assert_allclose(combined, grads_of(loss_a) + grads_of(loss_b),
                                   atol=1e-12)

    def test_gradient_accumulates_across_backward_calls(self, rng):
        w = ad.Tensor(rng.normal(size=3))
        x = ad.Tensor(rng.normal(size=3))
        ad.dot(w, x).backward()
        first = w.grad.copy()
        ad.dot(w, x).backward()
        np.testing.assert_allclose(w.grad, 2 * first)

    def test_graph_topologically_ordered(self, rng):
        x = ad.Tensor(rng.normal(size=(5, 2)))
        y = ad.relu(x)
        z = ad.add(ad.mul(y, y), y)
        loss = ad.mean(z)
        graph = ad.CompGraph.from_output(loss)
        pos = {id(n): i for i, n in enumerate(graph.nodes)}
        assert len(pos) == len(graph.nodes)
        for node in graph.nodes:
            for parent in node._parents:
                assert pos[id(parent)] < pos[id(node)]

    def test_three_layer_composite_matches_finite_differences(self, rng):
        x = ad.Tensor(rng.normal(size=(10, 3)))
        labels = rng.integers(0, 2, size=10)
        w1 = ad.Tensor(rng.normal(scale=0.7, size=(4, 3, 3)))
        b1 = ad.Tensor(rng.normal(scale=0.1, size=4))
        w2 = ad.Tensor(rng.normal(scale=0.7, size=(4, 4, 3)))
        b2 = ad.Tensor(rng.normal(scale=0.1, size=4))
        w3 = ad.Tensor(rng.normal(scale=0.7, size=(2, 4, 1)))
        b3 = ad.Tensor(rng.normal(scale=0.1, size=2))

        def f(params):
            p_w1, p_b1, p_w2, p_b2, p_w3, p_b3 = params
            h = ad.relu(ad.conv1d_dilated(x, p_w1, p_b1, 1))
            h = ad.relu(ad.conv1d_dilated(h, p_w2, p_b2, 2))
            logits = ad.conv1d_dilated(h, p_w3, p_b3, 1)
            loss, _ = ad.softmax_cross_entropy(logits, labels)
            return loss

        err = ad.grad_check(f, [w1, b1, w2, b2, w3, b3], eps=1e-3)
        assert err < 1e-4


class TestGradCheck:
    def test_quadratic_is_exact(self, rng):
        w = ad.Tensor(rng.normal(size=6))
        err = ad.grad_check(lambda p: ad.dot(p[0], p[0]), [w], eps=1e-3)
        assert err < 1e-8

    def test_conv_relu_mean_composite(self, rng):
        x = ad.Tensor(rng.normal(size=(8, 2)))
        w = ad.Tensor(rng.normal(size=(3, 2, 3)))
        b = ad.Tensor(rng.normal(size=3))
        err = ad.grad_check(
            lambda p: ad.mean(ad.relu(ad.conv1d_dilated(x, p[0], p[1], 2))),
            [w, b], eps=1e-3)
        assert err < 1e-4

    def test_cross_entropy_wrt_logits(self, rng):
        labels = rng.integers(0, 3, size=12)
        logits = ad.Tensor(rng.normal(size=(12, 3)))
        err = ad.grad_check(
            lambda p: ad.softmax_cross_entropy(p[0], labels)[0], [logits], eps=1e-3)
        assert err < 1e-6

    @pytest.mark.parametrize("name", [
        "relu", "add", "mul", "matmul", "scale", "mean", "tsum", "exp", "log",
        "dot", "l2_normalize", "row", "mean_rows", "stack_rows", "transpose",
        "softmax_rows", "conv1d_dilated", "softmax_cross_entropy",
    ])
    def test_every_op_passes_grad_check(self, name, rng):
        from tempseg.gradcheck_suite import OP_CHECKS
        err = OP_CHECKS[name](np.random.default_rng(99))
        assert err < 1e-4, f"{name}: {err}"

    def test_nonpositive_eps_rejected(self, rng):
        w = ad.Tensor(rng.normal(size=2))
        with pytest.raises(ValueError):
            ad.grad_check(lambda p: ad.dot(p[0], p[0]), [w], eps=0.0)


class TestNoGrad:
    def test_forward_is_bitwise_equal_and_records_nothing(self, rng):
        cfg = md.ModelConfig(input_dim=3, num_classes=4, num_stages=2,
                             layers_per_stage=3, hidden_channels=8,
                             projection_dim=5)
        params = md.init_params(cfg, seed=7)
        x = rng.normal(size=(37, 3))
        recorded = md.mstcn_forward(x, params, cfg)
        with ad.no_grad():
            free = md.mstcn_forward(x, params, cfg)
        for rec, out in zip(recorded, free, strict=True):
            for field in ("features", "logits", "probs", "projected"):
                np.testing.assert_array_equal(getattr(out, field).values,
                                              getattr(rec, field).values)
                assert getattr(out, field)._parents == ()
                assert getattr(out, field)._vjp is None
            assert rec.probs._parents != ()

    def test_recording_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("inside")
        out = ad.relu(ad.Tensor([1.0, -1.0]))
        assert out._vjp is not None and len(out._parents) == 1

    def test_other_threads_keep_recording(self):
        entered, release = threading.Event(), threading.Event()
        seen = {}

        def hold():
            with ad.no_grad():
                entered.set()
                release.wait(timeout=10)
                seen["holder"] = ad.relu(ad.Tensor([1.0]))._vjp

        def other():
            seen["other"] = ad.relu(ad.Tensor([1.0]))._vjp

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert entered.wait(timeout=10)
            worker = threading.Thread(target=other)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
        finally:
            release.set()
            holder.join(timeout=10)
        assert not holder.is_alive()
        assert seen["other"] is not None
        assert seen["holder"] is None
