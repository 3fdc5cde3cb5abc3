"""Gradient checks shared by the test suite and the gradcheck command.

Two layers of coverage: OP_CHECKS holds one small instance per recorded op,
and check_full_objective differentiates the complete training loss of a toy
two-stage model.  Instances are kept away from non-differentiable kinks
(relu at zero, normalization of near-zero vectors), otherwise the
central-difference reference itself is untrustworthy.  The full-objective
instance is found by rejection: candidate seeds are discarded until every
loss-relevant relu pre-activation and every pooled or selected embedding
has a safe margin, measured on the actual computation graph.
"""

from collections.abc import Callable

import numpy as np

from . import autodiff as ad
from . import losses as ls
from . import model as md
from . import sampling as sp

EPS = 1e-3
# rejection thresholds for the full-objective instance, and its seed budget
_RELU_MARGIN = 8e-3
_NORM_MARGIN = 0.35
_MAX_TRIES = 400


def _away_from_zero(values, margin=0.05):
    # shift anything inside the kink margin outward so relu stays smooth
    # across the finite-difference perturbation
    out = np.asarray(values, dtype=np.float64).copy()
    small = np.abs(out) < margin
    out[small] = margin * np.where(out[small] < 0, -1.0, 1.0)
    return out


def check_relu(rng) -> float:
    x = ad.Tensor(_away_from_zero(rng.normal(size=(5, 3))))
    return ad.grad_check(lambda p: ad.tsum(ad.relu(p[0])), [x], eps=EPS)


def check_add(rng) -> float:
    x = ad.Tensor(rng.normal(size=(4, 3)))
    y = ad.Tensor(rng.normal(size=(4, 3)))
    z = ad.Tensor(rng.normal(size=(4, 3)))
    return ad.grad_check(
        lambda p: ad.tsum(ad.add(ad.add(p[0], p[1]), p[2])), [x, y, z], eps=EPS)


def check_mul(rng) -> float:
    x = ad.Tensor(rng.normal(size=(4, 3)))
    y = ad.Tensor(rng.normal(size=(4, 3)))
    z = ad.Tensor(rng.normal(size=(4, 3)))
    return ad.grad_check(
        lambda p: ad.tsum(ad.mul(ad.mul(p[0], p[1]), p[2])), [x, y, z], eps=EPS)


def check_matmul(rng) -> float:
    a = ad.Tensor(rng.normal(size=(4, 5)))
    b = ad.Tensor(rng.normal(size=(5, 3)))
    c = ad.Tensor(rng.normal(size=(3, 2)))
    return ad.grad_check(
        lambda p: ad.tsum(ad.matmul(ad.matmul(p[0], p[1]), p[2])), [a, b, c], eps=EPS)


def check_scale(rng) -> float:
    x = ad.Tensor(rng.normal(size=(3, 3)))
    return ad.grad_check(lambda p: ad.tsum(ad.scale(p[0], -2.5)), [x], eps=EPS)


def check_tsum(rng) -> float:
    x = ad.Tensor(rng.normal(size=(6, 2)))
    return ad.grad_check(lambda p: ad.tsum(ad.mul(p[0], p[0])), [x], eps=EPS)


def check_exp(rng) -> float:
    x = ad.Tensor(rng.normal(scale=0.5, size=(4, 3)))
    return ad.grad_check(lambda p: ad.tsum(ad.exp(p[0])), [x], eps=EPS)


def check_log(rng) -> float:
    x = ad.Tensor(rng.uniform(0.5, 3.0, size=(4, 3)))
    return ad.grad_check(lambda p: ad.tsum(ad.log(p[0])), [x], eps=EPS)


def check_l2_normalize(rng) -> float:
    x = ad.Tensor(rng.normal(size=(4, 5)) + 0.3)
    t = ad.Tensor(rng.normal(size=(4, 5)))

    def f(p):
        normed = ad.l2_normalize(p[0])
        diff = ad.add(normed, ad.scale(t, -1.0))
        return ad.tsum(ad.mul(diff, diff))

    return ad.grad_check(f, [x], eps=EPS)


def _squared_sum(x: ad.Tensor) -> ad.Tensor:
    return ad.tsum(ad.mul(x, x))


def check_row(rng) -> float:
    # a repeated index: the vjp must sum both copies' gradients
    x = ad.Tensor(rng.normal(size=(5, 4)))
    return ad.grad_check(
        lambda p: _squared_sum(ad.row(p[0], [4, 2, 2, 0])), [x], eps=EPS)


def check_mean_rows(rng) -> float:
    # overlapping ranges: rows 2 and 3 feed two means
    x = ad.Tensor(rng.normal(size=(8, 3)))
    return ad.grad_check(
        lambda p: _squared_sum(ad.mean_rows(p[0], [2, 0, 5], [6, 4, 8])),
        [x], eps=EPS)


def check_stack_rows(rng) -> float:
    a = ad.Tensor(rng.normal(size=(2, 4)))
    b = ad.Tensor(rng.normal(size=(1, 4)))
    c = ad.Tensor(rng.normal(size=(3, 4)))
    return ad.grad_check(lambda p: _squared_sum(ad.stack_rows(p)), [a, b, c],
                         eps=EPS)


def check_transpose(rng) -> float:
    x = ad.Tensor(rng.normal(size=(3, 5)))
    y = ad.Tensor(rng.normal(size=(3, 5)))
    return ad.grad_check(
        lambda p: ad.tsum(ad.matmul(p[0], ad.transpose(p[1]))), [x, y], eps=EPS)


def check_softmax_rows(rng) -> float:
    x = ad.Tensor(rng.normal(size=(5, 4)))
    w = ad.Tensor(rng.normal(size=(5, 4)))
    return ad.grad_check(
        lambda p: ad.tsum(ad.mul(ad.softmax_rows(p[0]), w)), [x], eps=EPS)


def check_conv1d_dilated(rng) -> float:
    # (T, k, dilation): a general case, a 1x1, and a dilation >= T whose
    # outer taps fall wholly outside the sequence
    worst = 0.0
    for t_len, k, dilation in ((9, 3, 2), (6, 1, 1), (4, 3, 5)):
        x = ad.Tensor(rng.normal(size=(t_len, 3)))
        w = ad.Tensor(rng.normal(size=(2, 3, k)))
        b = ad.Tensor(rng.normal(size=2))

        def f(p, dilation=dilation):
            out = ad.conv1d_dilated(p[0], p[1], p[2], dilation=dilation)
            return ad.tsum(ad.mul(out, out))

        worst = max(worst, ad.grad_check(f, [x, w, b], eps=EPS))
    return worst


def check_residual_block(rng) -> float:
    # the conv1d_dilated instances, each redrawn until no relu
    # pre-activation lies within the finite-difference step of its kink
    worst = 0.0
    for t_len, k, dilation in ((9, 3, 2), (6, 1, 1), (4, 3, 5)):
        while True:
            tensors = [ad.Tensor(rng.normal(size=shape)) for shape in
                       ((t_len, 3), (2, 3, k), (2,), (3, 2, 1), (3,))]
            pre = ad.conv1d_dilated(*tensors[:3], dilation=dilation)
            if np.abs(pre.values).min() > 0.05:
                break

        def f(p, dilation=dilation):
            return _squared_sum(ad.residual_block(*p, dilation=dilation))

        worst = max(worst, ad.grad_check(f, tensors, eps=EPS))
    return worst


def check_projection_head(rng) -> float:
    # redrawn until no hidden relu pre-activation lies within the
    # finite-difference step of its kink and every raw row's norm is
    # above 2 (at 1, the truncation error reached 1.6e-4 on one seed of
    # 1000; at 2 it stays below 1.5e-5)
    while True:
        tensors = [ad.Tensor(rng.normal(size=shape)) for shape in
                   ((6, 3), (4, 3, 1), (4,), (2, 4, 1), (2,))]
        hidden, raw = _head_preactivations(*tensors)
        if (np.abs(hidden).min() > 0.05
                and np.linalg.norm(raw, axis=1).min() > 2.0):
            break
    t = ad.Tensor(rng.normal(size=(6, 2)))
    return ad.grad_check(
        lambda p: ad.tsum(ad.mul(ad.projection_head(*p), t)), tensors,
        eps=EPS)


def check_softmax_cross_entropy(rng) -> float:
    labels = rng.integers(0, 3, size=10)
    logits = ad.Tensor(rng.normal(size=(10, 3)))
    return ad.grad_check(
        lambda p: ad.softmax_cross_entropy(p[0], labels), [logits], eps=EPS)


def _head_preactivations(h, w1, b1, w2, b2) -> tuple[np.ndarray, np.ndarray]:
    """A projection head's hidden relu pre-activation and its
    pre-normalization rows, recomputed from the head's inputs."""
    with ad.no_grad():
        hidden = ad.conv1d_dilated(h, w1, b1, 1).values
        raw = ad.conv1d_dilated(np.maximum(hidden, 0.0), w2, b2, 1).values
    return hidden, raw


def _graph_kink_margins(loss: ad.Tensor,
                        params: md.ModelParams) -> tuple[float, float]:
    """Distance of the built graph from its nearest kinks.

    Reads each kink's op and parents, then differentiates the loss graph,
    which the backward pass consumes.  For every relu, entries
    whose output gradient is nonzero must sit away from zero input; for
    every l2 normalization, rows that carry gradient must have a healthy
    pre-normalization norm.  Entries with zero output-gradient cannot move
    the loss, so they are ignored.  A residual block hides its relu, so
    its pre-activation is recomputed from the node's parents, with the
    dilation of the block of `params` that owns the dilated weight.  A
    projection head hides its relu and its normalization; both inputs
    are recomputed (`_head_preactivations`), and the relu output's
    gradient is the head's, passed back through the normalization and
    the output conv.
    """
    dilations = {id(blk.dilated_w): 2 ** i for stage in params.stages
                 for i, blk in enumerate(stage.blocks)}
    kinks = [(node, node._op, node._parents)
             for node in ad.CompGraph.from_output(loss).nodes
             if node._op in ("relu", "residual_block", "projection_head",
                             "l2_normalize")]
    grads = ad.backward({loss: 1.0}, [node for node, _, _ in kinks])
    relus, norms = [], []   # (input, gradient of the output) per kink
    for node, op, parents in kinks:
        g = grads[node]
        if op == "l2_normalize":
            norms.append((parents[0].values, g))
        elif op == "relu":
            relus.append((parents[0].values, g))
        elif op == "residual_block":
            h, wd, bd, wm, _ = parents
            with ad.no_grad():
                pre = ad.conv1d_dilated(h, wd, bd, dilations[id(wd)]).values
            relus.append((pre, g @ wm.values[:, :, 0]))
        else:
            hidden, raw = _head_preactivations(*parents)
            norms.append((raw, g))
            graw = ad.l2_normalize(raw)._vjp(g)[0]
            relus.append((hidden, graw @ parents[3].values[:, :, 0]))
    relu_margin = norm_margin = np.inf
    for pre, g in relus:
        relevant = np.abs(g) > 1e-12
        if relevant.any():
            relu_margin = min(relu_margin, np.abs(pre[relevant]).min())
    for pre, g in norms:
        rows = np.abs(g).max(axis=1) > 1e-12
        if rows.any():
            norm_margin = min(norm_margin,
                              np.linalg.norm(pre[rows], axis=1).min())
    return relu_margin, norm_margin


def _build_objective_loss(cfg, params, x, labels, plans):
    """Assemble the training loss from frozen example plans."""
    outs = md.mstcn_forward(x, params, cfg, project=True)
    sets = [(sp.sample_pool(out.projected, plan),
             sp.segment_pool(out.projected, labels))
            for out, plan in zip(outs, plans)]
    loss, breakdown = ls.total_objective([out.logits for out in outs],
                                         labels, sets,
                                         contrast_weight=0.5, temperature=0.5)
    return loss, breakdown


def build_full_objective_instance(seed_start: int = 0):
    """Search for a toy training instance that is safe to difference.

    Tries at most _MAX_TRIES seeds from `seed_start`, freezing each
    stage's sample plan from the unperturbed forward pass.  A candidate is
    accepted when its realized graph has comfortable kink margins
    (`_graph_kink_margins`) and every stage has a live contrast term.
    The segments give every projection row gradient, so the norm margin
    covers every planned row and every run's mean.
    """
    cfg = md.ModelConfig(input_dim=2, num_classes=3, num_stages=2,
                         layers_per_stage=2, hidden_channels=4,
                         projection_dim=3, kernel_size=3)
    t_len = 32
    for seed in range(seed_start, seed_start + _MAX_TRIES):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(t_len, cfg.input_dim))
        labels = np.repeat(rng.integers(0, cfg.num_classes, size=4),
                           t_len // 4)
        if len(np.unique(labels)) < 2:
            continue
        params = md.init_params(cfg, seed + 1000)
        outs = md.mstcn_forward(x, params, cfg, record_from=cfg.num_stages)
        predictions = md.predict_labels(outs[-1].probs.values)
        plans = [sp.select_hard_examples(predictions, labels, 4, 2,
                                         np.random.default_rng(seed))
                 for _ in outs]
        loss, breakdown = _build_objective_loss(cfg, params, x, labels,
                                                plans)
        if any(c <= 0.0 for c in breakdown.contrast):
            continue
        relu_margin, norm_margin = _graph_kink_margins(loss, params)
        if relu_margin > _RELU_MARGIN and norm_margin > _NORM_MARGIN:
            return dict(cfg=cfg, params=params, x=x, labels=labels,
                        plans=plans, seed=seed)
    raise RuntimeError("no kink-safe gradcheck instance found")


def check_full_objective(seed_start: int = 0) -> float:
    """Worst-coordinate error of the complete loss on a frozen toy instance."""
    inst = build_full_objective_instance(seed_start)

    def f(_):
        loss, _breakdown = _build_objective_loss(
            inst["cfg"], inst["params"], inst["x"], inst["labels"],
            inst["plans"])
        return loss

    return ad.grad_check(f, inst["params"].tensors(), eps=EPS)


OP_CHECKS: dict[str, Callable] = {
    "relu": check_relu,
    "add": check_add,
    "mul": check_mul,
    "matmul": check_matmul,
    "scale": check_scale,
    "tsum": check_tsum,
    "exp": check_exp,
    "log": check_log,
    "l2_normalize": check_l2_normalize,
    "row": check_row,
    "mean_rows": check_mean_rows,
    "stack_rows": check_stack_rows,
    "transpose": check_transpose,
    "softmax_rows": check_softmax_rows,
    "conv1d_dilated": check_conv1d_dilated,
    "residual_block": check_residual_block,
    "projection_head": check_projection_head,
    "softmax_cross_entropy": check_softmax_cross_entropy,
}
