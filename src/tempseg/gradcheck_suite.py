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
# rejection thresholds for the full-objective instance
_RELU_MARGIN = 8e-3
_NORM_MARGIN = 0.3


def _away_from_zero(values, margin=0.05):
    # shift anything inside the kink margin outward so relu stays smooth
    # across the finite-difference perturbation
    out = np.asarray(values, dtype=np.float64).copy()
    small = np.abs(out) < margin
    out[small] = margin * np.where(out[small] < 0, -1.0, 1.0)
    return out


def check_relu(rng) -> float:
    x = ad.Tensor(_away_from_zero(rng.normal(size=(5, 3))))
    return ad.grad_check(lambda p: ad.mean(ad.relu(p[0])), [x], eps=EPS)


def check_add(rng) -> float:
    x = ad.Tensor(rng.normal(size=(4, 3)))
    y = ad.Tensor(rng.normal(size=(4, 3)))
    s = ad.Tensor(rng.normal())
    return ad.grad_check(
        lambda p: ad.mean(ad.add(ad.add(p[0], p[1]), p[2])), [x, y, s], eps=EPS)


def check_mul(rng) -> float:
    x = ad.Tensor(rng.normal(size=(4, 3)))
    y = ad.Tensor(rng.normal(size=(4, 3)))
    s = ad.Tensor(rng.normal())
    return ad.grad_check(
        lambda p: ad.mean(ad.mul(ad.mul(p[0], p[1]), p[2])), [x, y, s], eps=EPS)


def check_matmul(rng) -> float:
    a = ad.Tensor(rng.normal(size=(4, 5)))
    b = ad.Tensor(rng.normal(size=(5, 3)))
    v = ad.Tensor(rng.normal(size=3))
    return ad.grad_check(
        lambda p: ad.tsum(ad.matmul(ad.matmul(p[0], p[1]), p[2])), [a, b, v], eps=EPS)


def check_scale(rng) -> float:
    x = ad.Tensor(rng.normal(size=(3, 3)))
    return ad.grad_check(lambda p: ad.mean(ad.scale(p[0], -2.5)), [x], eps=EPS)


def check_mean(rng) -> float:
    x = ad.Tensor(rng.normal(size=(6, 2)))
    return ad.grad_check(lambda p: ad.mean(p[0]), [x], eps=EPS)


def check_tsum(rng) -> float:
    x = ad.Tensor(rng.normal(size=(6, 2)))
    return ad.grad_check(lambda p: ad.tsum(ad.mul(p[0], p[0])), [x], eps=EPS)


def check_exp(rng) -> float:
    x = ad.Tensor(rng.normal(scale=0.5, size=(4, 3)))
    return ad.grad_check(lambda p: ad.mean(ad.exp(p[0])), [x], eps=EPS)


def check_log(rng) -> float:
    x = ad.Tensor(rng.uniform(0.5, 3.0, size=(4, 3)))
    return ad.grad_check(lambda p: ad.mean(ad.log(p[0])), [x], eps=EPS)


def check_dot(rng) -> float:
    a = ad.Tensor(rng.normal(size=6))
    b = ad.Tensor(rng.normal(size=6))
    return ad.grad_check(lambda p: ad.dot(p[0], p[1]), [a, b], eps=EPS)


def check_l2_normalize(rng) -> float:
    x = ad.Tensor(rng.normal(size=(4, 5)) + 0.3)
    t = ad.Tensor(rng.normal(size=(4, 5)))

    def f(p):
        normed = ad.l2_normalize(p[0])
        diff = ad.add(normed, ad.scale(t, -1.0))
        return ad.tsum(ad.mul(diff, diff))

    return ad.grad_check(f, [x], eps=EPS)


def check_row(rng) -> float:
    x = ad.Tensor(rng.normal(size=(5, 4)))
    return ad.grad_check(
        lambda p: ad.dot(ad.row(p[0], 2), ad.row(p[0], 4)), [x], eps=EPS)


def check_mean_rows(rng) -> float:
    x = ad.Tensor(rng.normal(size=(8, 3)))

    def f(p):
        m = ad.mean_rows(p[0], 2, 6)
        return ad.dot(m, m)

    return ad.grad_check(f, [x], eps=EPS)


def check_stack_rows(rng) -> float:
    a = ad.Tensor(rng.normal(size=4))
    b = ad.Tensor(rng.normal(size=4))
    c = ad.Tensor(rng.normal(size=4))

    def f(p):
        stacked = ad.stack_rows([p[0], p[1], p[2]])
        return ad.tsum(ad.mul(stacked, stacked))

    return ad.grad_check(f, [a, b, c], eps=EPS)


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


def check_softmax_cross_entropy(rng) -> float:
    labels = rng.integers(0, 3, size=10)
    logits = ad.Tensor(rng.normal(size=(10, 3)))
    return ad.grad_check(
        lambda p: ad.softmax_cross_entropy(p[0], labels)[0], [logits], eps=EPS)


def _graph_kink_margins(loss: ad.Tensor) -> tuple[float, float]:
    """Distance of the built graph from its nearest kinks.

    Walks the loss graph after a backward pass.  For every relu, entries
    whose output gradient is nonzero must sit away from zero input; for
    every l2 normalization, rows that carry gradient must have a healthy
    pre-normalization norm.  Entries with zero output-gradient cannot move
    the loss, so they are ignored.
    """
    graph = ad.CompGraph.from_output(loss)
    ad.backward(graph, loss)
    relu_margin = np.inf
    norm_margin = np.inf
    for node in graph.nodes:
        if node.grad is None or not node._parents:
            continue
        if node._op == "relu":
            pre = node._parents[0].values
            relevant = np.abs(node.grad) > 1e-12
            if relevant.any():
                relu_margin = min(relu_margin, np.abs(pre[relevant]).min())
        elif node._op == "l2_normalize":
            pre = np.atleast_2d(node._parents[0].values)
            g = np.atleast_2d(node.grad)
            rows = np.abs(g).max(axis=1) > 1e-12
            if rows.any():
                norm_margin = min(norm_margin,
                                  np.linalg.norm(pre[rows], axis=1).min())
    return relu_margin, norm_margin


def _build_objective_loss(cfg, params, x, labels, plans, run_lists):
    """Assemble the training loss from frozen example plans."""
    outs = md.mstcn_forward(x, params, cfg)
    sets = []
    for out, plan, runs in zip(outs, plans, run_lists):
        samples = sp.materialize_examples(out.projected, plan)
        segments = []
        for run in runs:
            vec = sp.pooled_run_embedding(out.projected, run)
            segments.append(ls.ContrastExample(vec, run.class_label,
                                               ls.LEVEL_SEGMENT))
        sets.append((samples, segments))
    loss, breakdown = ls.total_objective(outs, labels, sets,
                                         contrast_weight=0.5, temperature=0.5)
    return loss, breakdown


def build_full_objective_instance(seed_start: int = 0, max_tries: int = 400):
    """Search for a toy training instance that is safe to difference.

    Freezes the sample plan and the segment run list from the unperturbed
    forward pass, then accepts the candidate only if the realized graph has
    comfortable kink margins and a live contrast term in every stage.
    """
    cfg = md.ModelConfig(input_dim=2, num_classes=3, num_stages=2,
                         layers_per_stage=2, hidden_channels=4,
                         projection_dim=3, kernel_size=3)
    t_len = 32
    for seed in range(seed_start, seed_start + max_tries):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(t_len, cfg.input_dim))
        labels = np.repeat(rng.integers(0, cfg.num_classes, size=4),
                           t_len // 4)
        if len(np.unique(labels)) < 2:
            continue
        params = md.init_params(cfg, seed + 1000)
        outs = md.mstcn_forward(x, params, cfg)
        predictions = md.predict_labels(outs)

        plans, run_lists = [], []
        ok = True
        for stage_idx, out in enumerate(outs):
            raw = md._project_raw(out.features, params.stages[stage_idx])
            row_norms = np.linalg.norm(raw.values, axis=1)
            plan = sp.select_hard_examples(predictions, labels, 4, 2,
                                           np.random.default_rng(seed))
            plan = {c: idx[row_norms[idx] > _NORM_MARGIN]
                    for c, idx in plan.items()}
            runs = sp.labels_to_segments(labels)
            pooled_ok = all(
                np.linalg.norm(np.mean(out.projected.values[r.start:r.end],
                                       axis=0)) > _NORM_MARGIN for r in runs)
            if not pooled_ok:
                ok = False
                break
            plans.append(plan)
            run_lists.append(runs)
        if not ok:
            continue

        loss, breakdown = _build_objective_loss(cfg, params, x, labels,
                                                plans, run_lists)
        if any(c <= 0.0 for c in breakdown.contrast):
            continue
        relu_margin, norm_margin = _graph_kink_margins(loss)
        if relu_margin > _RELU_MARGIN and norm_margin > _NORM_MARGIN:
            return dict(cfg=cfg, params=params, x=x, labels=labels,
                        plans=plans, run_lists=run_lists, seed=seed)
    raise RuntimeError("no kink-safe gradcheck instance found")


def check_full_objective(seed_start: int = 0) -> float:
    """Worst-coordinate error of the complete loss on a frozen toy instance."""
    inst = build_full_objective_instance(seed_start)

    def f(_):
        loss, _breakdown = _build_objective_loss(
            inst["cfg"], inst["params"], inst["x"], inst["labels"],
            inst["plans"], inst["run_lists"])
        return loss

    return ad.grad_check(f, inst["params"].tensors(), eps=EPS)


OP_CHECKS: dict[str, Callable] = {
    "relu": check_relu,
    "add": check_add,
    "mul": check_mul,
    "matmul": check_matmul,
    "scale": check_scale,
    "mean": check_mean,
    "tsum": check_tsum,
    "exp": check_exp,
    "log": check_log,
    "dot": check_dot,
    "l2_normalize": check_l2_normalize,
    "row": check_row,
    "mean_rows": check_mean_rows,
    "stack_rows": check_stack_rows,
    "transpose": check_transpose,
    "softmax_rows": check_softmax_rows,
    "conv1d_dilated": check_conv1d_dilated,
    "softmax_cross_entropy": check_softmax_cross_entropy,
}
