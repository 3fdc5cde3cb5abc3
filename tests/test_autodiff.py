"""Tests for the reverse-mode tensor core.

The convolution tests check against a naive direct-summation oracle, and
every differentiable op has to survive a central-difference gradient check.
"""

import functools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tempseg import autodiff as ad
from tempseg import model as md
from tempseg.gradcheck_suite import OP_CHECKS

# names in autodiff.__all__ that are not differentiable ops
NOT_OPS = {"Tensor", "CompGraph", "backward", "grad_check", "no_grad"}


# (op, arity) for ops that map n x n matrices to an n x n matrix
SHAPE_KEEPING_OPS = [(ad.relu, 1), (ad.transpose, 1), (ad.softmax_rows, 1),
                     (ad.l2_normalize, 1), (lambda x: ad.scale(x, -1.5), 1),
                     (ad.add, 2), (ad.mul, 2), (ad.matmul, 2)]


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


def gradients(loss, *wrt):
    """The gradients of a scalar loss for the tensors wrt, keyed by tensor."""
    return ad.backward({loss: 1.0}, wrt)


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


def unfused_residual_block(h, wd, bd, wm, bm, dilation):
    """The composition that ad.residual_block fuses (oracle)."""
    pre = ad.relu(ad.conv1d_dilated(h, wd, bd, dilation))
    return ad.add(h, ad.conv1d_dilated(pre, wm, bm, 1))


class TestResidualBlock:
    @settings(max_examples=150, deadline=None)
    @given(k=st.sampled_from([1, 3, 5]), t_len=st.integers(1, 40),
           dilation=st.integers(1, 48), width=st.integers(1, 4),
           mid=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_composition_bitwise(self, k, t_len, dilation, width,
                                             mid, seed):
        r = np.random.default_rng(seed)
        inputs = [ad.Tensor(r.normal(size=shape)) for shape in
                  ((t_len, width), (mid, width, k), (mid,), (width, mid, 1),
                   (width,))]
        g = r.normal(size=(t_len, width))
        fused = ad.residual_block(*inputs, dilation=dilation)
        oracle = unfused_residual_block(*inputs, dilation)
        assert fused._op == "residual_block"
        np.testing.assert_array_equal(fused.values, oracle.values)
        got = ad.backward({fused: g}, inputs)
        want = ad.backward({oracle: g}, inputs)
        for tensor in inputs:
            np.testing.assert_array_equal(got[tensor], want[tensor])

    def test_a_recorded_chain_keeps_one_array_per_block(self, rng):
        # L blocks over a T x F input with M = F: the outputs, each the
        # next block's input, and the first input, L + 1 arrays of T x F
        # and a few hundred bytes of node per block: 7.03 arrays for
        # L = 6; a block that kept its ReLU output held 2L + 1, 13.04
        blocks, t_len, width = 6, 1000, 16
        weights = [[ad.Tensor(rng.normal(size=shape)) for shape in
                    ((width, width, 3), (width,), (width, width, 1),
                     (width,))] for _ in range(blocks)]
        array = t_len * width * 8
        tracemalloc.start()
        try:
            h = ad.Tensor(rng.normal(size=(t_len, width)))
            for i, params in enumerate(weights):
                h = ad.residual_block(h, *params, dilation=2 ** i)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (blocks + 1) * array <= held < (blocks + 1.5) * array

    def test_mix_weight_must_map_back_to_the_input_width(self, rng):
        h = ad.Tensor(rng.normal(size=(5, 3)))
        wd = ad.Tensor(rng.normal(size=(2, 3, 3)))
        bd = ad.Tensor(np.zeros(2))
        with pytest.raises(ValueError, match="mix weight"):
            ad.residual_block(h, wd, bd, ad.Tensor(np.zeros((2, 2, 1))),
                              ad.Tensor(np.zeros(2)), 1)
        with pytest.raises(ValueError, match="channel mismatch"):
            ad.residual_block(h, ad.Tensor(np.zeros((3, 2, 3))),
                              ad.Tensor(np.zeros(3)),
                              ad.Tensor(np.zeros((3, 3, 1))),
                              ad.Tensor(np.zeros(3)), 1)


def unfused_projection_head(h, w1, b1, w2, b2):
    """The composition that ad.projection_head fuses (oracle)."""
    hidden = ad.relu(ad.conv1d_dilated(h, w1, b1, 1))
    return ad.l2_normalize(ad.conv1d_dilated(hidden, w2, b2, 1))


class TestProjectionHead:
    @settings(max_examples=150, deadline=None)
    @given(t_len=st.integers(1, 40), width=st.integers(1, 5),
           mid=st.integers(1, 5), dim=st.integers(1, 4),
           zero_rows=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_composition_bitwise(self, t_len, width, mid, dim,
                                             zero_rows, seed):
        r = np.random.default_rng(seed)
        inputs = [ad.Tensor(r.normal(size=shape)) for shape in
                  ((t_len, width), (mid, width, 1), (mid,), (dim, mid, 1),
                   (dim,))]
        if zero_rows:   # every output row zero: the normalization's guard
            inputs[3].values[:] = 0.0
            inputs[4].values[:] = 0.0
        g = r.normal(size=(t_len, dim))
        fused = ad.projection_head(*inputs)
        oracle = unfused_projection_head(*inputs)
        assert fused._op == "projection_head"
        assert fused.values.tobytes() == oracle.values.tobytes()
        got = ad.backward({fused: g}, inputs)
        want = ad.backward({oracle: g}, inputs)
        for tensor in inputs:
            assert got[tensor].tobytes() == want[tensor].tobytes()

    def test_a_recorded_head_keeps_no_hidden_width_array(self, rng):
        # what the node keeps beside its input: the T x P normalized rows
        # and two T x 1 columns of norms, far less than the T x M ReLU
        # output that its vjp rebuilds: 49,640 bytes; a head that kept
        # the ReLU output held 561,736
        t_len, width, mid, dim = 1000, 4, 64, 4
        h, w1, b1, w2, b2 = (ad.Tensor(rng.normal(size=shape)) for shape in
                             ((t_len, width), (mid, width, 1), (mid,),
                              (dim, mid, 1), (dim,)))
        tracemalloc.start()
        try:
            out = ad.projection_head(h, w1, b1, w2, b2)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.values.nbytes == t_len * dim * 8
        assert held < t_len * (dim + 2) * 8 + 4096 < t_len * mid * 8

    def test_weights_must_be_two_1x1_convs_through_one_width(self, rng):
        h = ad.Tensor(rng.normal(size=(5, 3)))
        w1, b1 = ad.Tensor(np.zeros((4, 3, 1))), ad.Tensor(np.zeros(4))
        w2, b2 = ad.Tensor(np.zeros((2, 4, 1))), ad.Tensor(np.zeros(2))
        assert ad.projection_head(h, w1, b1, w2, b2).shape == (5, 2)
        for bad in ((h, ad.Tensor(np.zeros((4, 3, 3))), b1, w2, b2),
                    (h, w1, b1, ad.Tensor(np.zeros((2, 3, 1))), b2),
                    (h, w1, b1, ad.Tensor(np.zeros((2, 4, 3))), b2),
                    (h, w1, b1, w2, ad.Tensor(np.zeros(3)))):
            with pytest.raises(ValueError, match="projection_head"):
                ad.projection_head(*bad)
        with pytest.raises(ValueError, match="channel mismatch"):
            ad.projection_head(h, ad.Tensor(np.zeros((4, 2, 1))), b1, w2, b2)


class TestElementwiseOps:
    def test_relu(self):
        out = ad.relu(ad.Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.values, [0.0, 0.0, 2.0])

    def test_add_identity(self, rng):
        x = ad.Tensor(rng.normal(size=(4, 3)))
        out = ad.add(x, ad.Tensor(np.zeros((4, 3))))
        np.testing.assert_array_equal(out.values, x.values)

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError, match="conform"):
            ad.add(ad.Tensor(np.zeros(3)), ad.Tensor(np.zeros(4)))

    @pytest.mark.parametrize("op", [ad.add, ad.mul])
    def test_scalar_against_matrix_rejected(self, op):
        # no broadcasting: a scalar operand is a shape mismatch too
        with pytest.raises(ValueError, match="conform"):
            op(ad.Tensor(2.0), ad.Tensor(np.ones((2, 3))))

    def test_l2_normalize_vector(self):
        # a vector is a one-row matrix; a 1-D array is not accepted
        out = ad.l2_normalize(ad.Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.values, [[0.6, 0.8]])
        with pytest.raises(ValueError, match="matrix"):
            ad.l2_normalize(ad.Tensor([3.0, 4.0]))

    def test_l2_normalize_zero_vector(self):
        x = ad.Tensor([[0.0, 0.0]])
        out = ad.l2_normalize(x)
        np.testing.assert_array_equal(out.values, [[0.0, 0.0]])
        grads = gradients(ad.tsum(ad.mul(out, ad.Tensor([[1.0, 2.0]]))), x)
        np.testing.assert_array_equal(grads[x], [[0.0, 0.0]])

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

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ValueError, match="matrices"):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones(3)))


def loop_row(x, idx, g):
    """Values and input gradient of gathering rows idx (oracle)."""
    out = np.zeros((len(idx), x.shape[1]))
    gx = np.zeros_like(x)
    for r, i in enumerate(idx):
        out[r] = x[i]
        gx[i] += g[r]
    return out, gx


def loop_mean_rows(x, starts, ends, g):
    """Values and input gradient of per-range row means (oracle)."""
    out = np.zeros((len(starts), x.shape[1]))
    gx = np.zeros_like(x)
    for r, (a, b) in enumerate(zip(starts, ends)):
        for t in range(a, b):
            out[r] += x[t] / (b - a)
            gx[t] += g[r] / (b - a)
    return out, gx


def loop_stack_rows(parts, g):
    """Values and per-part gradients of stacking matrices (oracle)."""
    rows, grads, offset = [], [], 0
    for part in parts:
        rows.extend(part)
        grads.append(g[offset:offset + len(part)])
        offset += len(part)
    return np.array(rows).reshape(offset, g.shape[1]), grads


def values_and_grads(build, inputs, g):
    """Run op(inputs), backpropagate sum(out * g), return values and grads."""
    tensors = [ad.Tensor(v) for v in inputs]
    out = build(tensors)
    grads = gradients(ad.tsum(ad.mul(out, ad.Tensor(g))), *tensors)
    return out.values, [grads.get(t) for t in tensors]


class TestRowOps:
    """row, mean_rows and stack_rows against plain loops."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_row_matches_loop(self, data):
        t_len, width = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 4))
        idx = data.draw(st.lists(st.integers(0, t_len - 1), max_size=12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        x = rng.normal(size=(t_len, width))
        g = rng.normal(size=(len(idx), width))
        out, (gx,) = values_and_grads(
            lambda t: ad.row(t[0], np.array(idx, dtype=int)), [x], g)
        want_out, want_gx = loop_row(x, idx, g)
        np.testing.assert_array_equal(out, want_out)
        np.testing.assert_allclose(gx, want_gx, rtol=0, atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_mean_rows_matches_loop(self, data):
        t_len, width = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 4))
        ranges = data.draw(st.lists(
            st.integers(0, t_len - 1).flatmap(
                lambda a: st.tuples(st.just(a), st.integers(a + 1, t_len))),
            max_size=6))
        starts = [a for a, _ in ranges]
        ends = [b for _, b in ranges]
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        x = rng.normal(size=(t_len, width))
        g = rng.normal(size=(len(ranges), width))
        out, (gx,) = values_and_grads(
            lambda t: ad.mean_rows(t[0], np.array(starts, dtype=int),
                                   np.array(ends, dtype=int)), [x], g)
        want_out, want_gx = loop_mean_rows(x, starts, ends, g)
        np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gx, want_gx, rtol=0, atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_stack_rows_matches_loop(self, data):
        width = data.draw(st.integers(1, 4))
        heights = data.draw(st.lists(st.integers(0, 4), min_size=1,
                                     max_size=4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        parts = [rng.normal(size=(h, width)) for h in heights]
        g = rng.normal(size=(sum(heights), width))
        out, grads = values_and_grads(ad.stack_rows, parts, g)
        want_out, want_grads = loop_stack_rows(parts, g)
        np.testing.assert_array_equal(out, want_out)
        for got, want in zip(grads, want_grads, strict=True):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("build", [
        lambda x: ad.row(x, [0, 3]),
        lambda x: ad.row(x, [-1]),
        lambda x: ad.row(x, np.array([0.0, 1.0])),
        lambda x: ad.row(x, [[0, 1]]),
        lambda x: ad.row(ad.Tensor(np.ones(3)), [0]),
        lambda x: ad.mean_rows(x, [1], [1]),
        lambda x: ad.mean_rows(x, [0], [4]),
        lambda x: ad.mean_rows(x, [0, 1], [2]),
        lambda x: ad.stack_rows([]),
        lambda x: ad.stack_rows([x, ad.Tensor(np.ones((2, 3)))]),
        lambda x: ad.stack_rows([ad.Tensor(np.ones(2))]),
    ])
    def test_malformed_arguments_rejected(self, build):
        with pytest.raises(ValueError):
            build(ad.Tensor(np.ones((3, 2))))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        logits = ad.Tensor(np.zeros((5, 4)))
        loss = ad.softmax_cross_entropy(logits, np.zeros(5, dtype=int))
        assert abs(loss.item() - math.log(4)) < 1e-12

    def test_huge_margin_drives_loss_to_zero(self):
        logits = np.full((3, 4), -500.0)
        labels = np.array([0, 2, 3])
        logits[np.arange(3), labels] = 500.0
        loss = ad.softmax_cross_entropy(ad.Tensor(logits), labels)
        assert loss.item() < 1e-12

    def test_two_class_hand_value(self):
        loss = ad.softmax_cross_entropy(ad.Tensor([[1.0, 0.0]]), np.array([0]))
        assert abs(loss.item() - math.log(1 + math.exp(-1))) < 1e-12

    def test_probability_rows(self, ):
        # the gradient for the logits is (probs - onehot(labels)) / T
        rng = np.random.default_rng(7)
        logits = ad.Tensor(rng.normal(scale=5.0, size=(40, 6)))
        labels = rng.integers(0, 6, size=40)
        loss = ad.softmax_cross_entropy(logits, labels)
        probs = 40 * gradients(loss, logits)[logits]
        probs[np.arange(40), labels] += 1.0
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            ad.softmax_cross_entropy(ad.Tensor(np.zeros((3, 2))), np.array([0, 1, 2]))


class TestBackward:
    def test_linear_loss_gradient(self, rng):
        x = rng.normal(size=5)
        w = ad.Tensor(rng.normal(size=5))
        loss = ad.tsum(ad.mul(w, ad.Tensor(x)))
        np.testing.assert_allclose(gradients(loss, w)[w], x)

    def test_dead_relu(self):
        w = ad.Tensor([-1.0, -2.0, -0.5])
        loss = ad.tsum(ad.relu(w))
        np.testing.assert_array_equal(gradients(loss, w)[w], np.zeros(3))

    def test_non_scalar_loss_rejected(self, rng):
        # a scalar cotangent seeds only a scalar output
        t = ad.relu(ad.Tensor(rng.normal(size=4)))
        with pytest.raises(ValueError, match=r"shape \(\) .* shape \(4,\)"):
            ad.backward({t: 1.0}, [t])

    def test_cotangent_of_the_wrong_shape_rejected(self, rng):
        t = ad.relu(ad.Tensor(rng.normal(size=(3, 2))))
        with pytest.raises(ValueError, match="cotangent"):
            ad.backward({t: np.ones((2, 3))}, [t])

    def test_no_outputs_give_no_gradients(self):
        assert ad.backward({}, []) == {}
        assert ad.backward({}, [ad.Tensor(np.ones(2))]) == {}

    def test_unreachable_parameter_keeps_zero_grad(self, rng):
        # an unreached tensor has no entry, which callers read as zero
        used = ad.Tensor(rng.normal(size=3))
        unused = ad.Tensor(rng.normal(size=3))
        grads = gradients(ad.tsum(ad.mul(used, used)), used, unused)
        assert unused not in grads
        np.testing.assert_array_equal(grads[used], 2 * used.values)

    def test_backward_is_linear_over_losses(self, rng):
        w_vals = rng.normal(size=(4, 3))
        x = ad.Tensor(rng.normal(size=(6, 4)))

        def grads_of(build):
            w = ad.Tensor(w_vals.copy())
            return gradients(build(w), w)[w]

        loss_a = lambda w: ad.tsum(ad.relu(ad.matmul(x, w)))
        loss_b = lambda w: ad.tsum(ad.mul(ad.matmul(x, w), ad.matmul(x, w)))
        combined = grads_of(lambda w: ad.add(loss_a(w), loss_b(w)))
        np.testing.assert_allclose(combined, grads_of(loss_a) + grads_of(loss_b),
                                   atol=1e-12)

    def test_returns_exactly_the_reached_tensors_of_wrt(self, rng):
        x = ad.Tensor(rng.normal(size=(4, 3)))

        def build():
            hidden = ad.relu(x)
            return hidden, ad.tsum(ad.scale(hidden, 3.0))

        hidden, loss = build()
        unreached = ad.relu(ad.Tensor(rng.normal(size=2)))
        grads = ad.backward({loss: 1.0}, [loss, hidden, x, unreached])
        assert set(map(id, grads)) == {id(loss), id(hidden), id(x)}
        assert grads[loss] == 1.0
        np.testing.assert_array_equal(grads[hidden], np.full((4, 3), 3.0))
        np.testing.assert_array_equal(grads[x], 3.0 * (x.values > 0))
        # every node of the graph, built again since a backward consumes
        # it, is reached, and none is asked for here
        assert ad.backward({build()[1]: 1.0}, []) == {}

    def test_the_walk_frees_each_node_it_has_differentiated(self):
        # a deep chain held only through its output: 40 relus over 100
        # rows that ``row`` gathers from a leaf of 40 x 100 rows.  The
        # gather's vjp, the walk's last, makes a gradient as tall as the
        # leaf; by then every relu is differentiated and freed, so the
        # walk adds a few blocks of 100 rows to what it started with,
        # not the graph's 40
        depth, rows = 40, np.arange(100)
        tall = ad.Tensor(np.ones((depth * len(rows), 500)))
        block = tall.values.nbytes // depth
        tracemalloc.start()
        try:
            h = ad.row(tall, rows)
            for _ in range(depth):
                h = ad.relu(h)
            loss = ad.tsum(h)
            del h
            graph, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            grads = ad.backward({loss: 1.0}, [tall])
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(grads[tall][rows], 1.0)
        assert graph > depth * block
        assert peak - graph < 4 * block
        assert held - grads[tall].nbytes < block    # the graph is gone

    def test_no_interior_gradient_outlives_its_use(self):
        # a deep chain of one array per node: the walk may hold a few
        # gradients at once, not one per node
        depth, x = 40, ad.Tensor(np.ones((200, 500)))
        h = x
        for _ in range(depth):
            h = ad.relu(h)
        loss = ad.tsum(h)
        tracemalloc.start()
        try:
            grads = ad.backward({loss: 1.0}, [x])
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(grads[x], 1.0)
        assert held < 2 * x.values.nbytes
        assert peak < 5 * x.values.nbytes

    def test_shared_gradient_is_never_written(self):
        # add hands one array to both parents; here both parents are x, so
        # the second contribution must make a new array, not grow the one
        # stored for y
        x = ad.Tensor(np.ones((2, 2)))
        y = ad.add(x, x)
        grads = gradients(ad.tsum(y), x, y)
        np.testing.assert_array_equal(grads[y], np.ones((2, 2)))
        np.testing.assert_array_equal(grads[x], np.full((2, 2), 2.0))

    def test_a_graph_is_differentiated_once(self, rng):
        # the walk consumes the graph but writes no tensor: its gradients
        # are fresh arrays, bitwise those of an identical graph built
        # again, and a second walk over it raises, naming the op
        w = ad.Tensor(rng.normal(size=(3, 2)))

        def build():
            product = ad.mul(ad.relu(w), w)
            return product, ad.tsum(product)

        product, loss = build()
        tensors = ad.CompGraph.from_output(loss).nodes
        before = [t.values.copy() for t in tensors]
        first = ad.backward({loss: 1.0}, [w])
        rebuilt = ad.backward({build()[1]: 1.0}, [w])
        assert first[w] is not rebuilt[w]
        assert first[w].tobytes() == rebuilt[w].tobytes()
        assert not any(np.shares_memory(first[w], t.values) for t in tensors)
        for t, values in zip(tensors, before):
            assert t.values.tobytes() == values.tobytes()
        assert w._op == "leaf"
        with pytest.raises(ValueError, match="tsum"):
            ad.backward({loss: 1.0}, [w])
        # a new output over consumed nodes raises at the first of them
        with pytest.raises(ValueError, match="mul"):
            ad.backward({ad.tsum(ad.add(product, w)): 1.0}, [w])

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_cotangents_equal_the_surrogate_loss_bitwise(self, data):
        # random graphs over n x n matrices; the outputs always include
        # the last node and one of its parents, so one output is an
        # ancestor of another, and outputs share the three leaves.  A
        # backward consumes its graph, so the surrogate is differentiated
        # on a second graph built from the same draws
        n = data.draw(st.integers(1, 3))
        seed = data.draw(st.integers(0, 2 ** 16))
        steps = []
        for i in range(data.draw(st.integers(1, 8))):
            op, arity = data.draw(st.sampled_from(SHAPE_KEEPING_OPS))
            steps.append((op, [data.draw(st.integers(0, 2 + i))
                               for _ in range(arity)]))

        def build():
            rng = np.random.default_rng(seed)
            nodes = [ad.Tensor(rng.normal(size=(n, n))) for _ in range(3)]
            for op, args in steps:
                nodes.append(op(*(nodes[a] for a in args)))
            return nodes, rng

        nodes, rng = build()
        picked = data.draw(st.sets(st.integers(0, len(nodes) - 1),
                                   max_size=3))
        picked |= {len(nodes) - 1, nodes.index(nodes[-1]._parents[0])}
        # in the order they were made, as a training chunk's heads are
        seeds = {i: rng.normal(size=(n, n)) for i in sorted(picked)}
        got = ad.backward({nodes[i]: c for i, c in seeds.items()}, nodes)
        twins, _ = build()
        surrogate = functools.reduce(ad.add, [
            ad.tsum(ad.mul(twins[i], ad.Tensor(c)))
            for i, c in seeds.items()])
        want = ad.backward({surrogate: 1.0}, twins)
        assert ([i for i, node in enumerate(nodes) if node in got]
                == [i for i, twin in enumerate(twins) if twin in want])
        for node, twin in zip(nodes, twins):
            if twin in want:
                assert got[node].tobytes() == want[twin].tobytes()

    def test_graph_topologically_ordered(self, rng):
        x = ad.Tensor(rng.normal(size=(5, 2)))
        y = ad.relu(x)
        z = ad.add(ad.mul(y, y), y)
        loss = ad.tsum(z)
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
            return ad.softmax_cross_entropy(logits, labels)

        err = ad.grad_check(f, [w1, b1, w2, b2, w3, b3], eps=1e-3)
        assert err < 1e-4


class TestGradCheck:
    def test_quadratic_is_exact(self, rng):
        w = ad.Tensor(rng.normal(size=6))
        err = ad.grad_check(lambda p: ad.tsum(ad.mul(p[0], p[0])), [w],
                            eps=1e-3)
        assert err < 1e-8

    def test_conv_relu_mean_composite(self, rng):
        x = ad.Tensor(rng.normal(size=(8, 2)))
        w = ad.Tensor(rng.normal(size=(3, 2, 3)))
        b = ad.Tensor(rng.normal(size=3))
        err = ad.grad_check(
            lambda p: ad.scale(
                ad.tsum(ad.relu(ad.conv1d_dilated(x, p[0], p[1], 2))), 1 / 24),
            [w, b], eps=1e-3)
        assert err < 1e-4

    def test_cross_entropy_wrt_logits(self, rng):
        labels = rng.integers(0, 3, size=12)
        logits = ad.Tensor(rng.normal(size=(12, 3)))
        err = ad.grad_check(
            lambda p: ad.softmax_cross_entropy(p[0], labels), [logits], eps=1e-3)
        assert err < 1e-6

    def test_op_checks_cover_exactly_the_ops(self):
        assert set(OP_CHECKS) == set(ad.__all__) - NOT_OPS

    @pytest.mark.parametrize("name", sorted(OP_CHECKS))
    def test_every_op_passes_grad_check(self, name, rng):
        err = OP_CHECKS[name](np.random.default_rng(99))
        assert err < 1e-4, f"{name}: {err}"

    def test_nonpositive_eps_rejected(self, rng):
        w = ad.Tensor(rng.normal(size=2))
        with pytest.raises(ValueError):
            ad.grad_check(lambda p: ad.tsum(ad.mul(p[0], p[0])), [w], eps=0.0)


class TestNoGrad:
    def test_forward_is_bitwise_equal_and_records_nothing(self, rng):
        # every record_from and kept_from of a 3-stage cascade, projected
        # or not, against the all-recorded run; and a caller's no_grad
        # records no stage
        cfg = md.ModelConfig(input_dim=3, num_classes=4, num_stages=3,
                             layers_per_stage=3, hidden_channels=8,
                             projection_dim=5)
        params = md.init_params(cfg, seed=7)
        x = rng.normal(size=(37, 3))
        stages = range(cfg.num_stages)
        for project in (False, True):
            recorded = md.mstcn_forward(x, params, cfg, project=project)
            with ad.no_grad():
                free = md.mstcn_forward(x, params, cfg, project=project)
            runs = [(free, cfg.num_stages, 0)] + [
                (md.mstcn_forward(x, params, cfg, record_from=record_from,
                                  kept_from=kept_from, project=project),
                 record_from, kept_from)
                for record_from in range(cfg.num_stages + 1)
                for kept_from in range(cfg.num_stages + 1)]
            for outs, record_from, kept_from in runs:
                assert len(outs) == cfg.num_stages - kept_from
                for s, out, rec in zip(stages[kept_from:], outs,
                                       recorded[kept_from:], strict=True):
                    assert (out.projected is None) == (not project)
                    for field in ("logits", "probs", "projected"):
                        got, want = getattr(out, field), getattr(rec, field)
                        if got is None:
                            continue
                        assert got.values.tobytes() == want.values.tobytes()
                        assert bool(got._parents) == (s >= record_from)
                        assert (got._vjp is None) == (s < record_from)

    @pytest.mark.parametrize("op", [ad.softmax_rows, ad.l2_normalize,
                                    ad.relu])
    def test_outputs_are_leaves_by_name_too(self, op, rng):
        with ad.no_grad():
            out = op(ad.Tensor(rng.normal(size=(4, 3))))
        assert (out._op, out._parents, out._vjp) == ("leaf", (), None)

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
