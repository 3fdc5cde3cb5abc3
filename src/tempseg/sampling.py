"""Example selection for the contrastive term.

Hard example sampling is hybrid: per class, half the budget goes to
misclassified samples, short-falls are topped up from samples near activity
boundaries, and whatever is left is filled uniformly from the rest of the
class.  Segment-level examples are built separately by pooling each
contiguous ground-truth run of the projected features.

Selection is split from building the pools on purpose:
`select_hard_examples` works on plain index arrays and owns all
randomness, while `sample_pool` turns a frozen plan into one gathered
matrix (one `row` node) and `segment_pool` turns the label runs into one
pooled, renormalized matrix (one `mean_rows` and one `l2_normalize`
node).  Gradient checks rely on that split to keep the example set fixed
while parameters are perturbed.
"""

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import label_runs
from .losses import ContrastPool


def select_hard_examples(predictions, labels, k_per_class: int,
                         boundary_radius: int, rng) -> dict[int, np.ndarray]:
    """Pick up to k_per_class sample indices per class present in labels.

    Order of precedence: misclassified first (capped at half the budget),
    then boundary-zone samples up to half, then uniform fill.  The boundary
    zone covers boundary_radius samples on each side of every label change.
    Returned index arrays are sorted, which keeps downstream work
    independent of selection order.
    """
    predictions = np.asarray(predictions, dtype=int)
    labels = np.asarray(labels, dtype=int)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must have the same length")
    if k_per_class < 2 or k_per_class % 2 != 0:
        raise ValueError("k_per_class must be an even integer >= 2")

    # [b - radius, b + radius) around every label change b, clipped, as
    # +1 where a zone opens and -1 where it closes
    n = len(labels)
    _, starts, _ = label_runs(labels)
    edges = (np.bincount(np.maximum(starts[1:] - boundary_radius, 0),
                         minlength=n + 1)
             - np.bincount(np.minimum(starts[1:] + boundary_radius, n),
                           minlength=n + 1))
    near_boundary = np.cumsum(edges[:-1]) > 0

    half = k_per_class // 2
    taken = np.zeros(n, dtype=bool)
    plan: dict[int, np.ndarray] = {}
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        wrong = members[predictions[members] != c]
        if len(wrong) > half:
            wrong = rng.choice(wrong, size=half, replace=False)
        taken[wrong] = True
        count = len(wrong)
        # pools in ascending order, as the draws index into them
        for budget, zone in ((half, members[near_boundary[members]]),
                             (k_per_class, members)):
            pool = zone[~taken[zone]]
            take = min(budget - count, len(pool))
            if take > 0:
                taken[rng.choice(pool, size=take, replace=False)] = True
                count += take
        plan[int(c)] = members[taken[members]]
    return plan


def sample_pool(projected: Tensor, plan: dict[int, np.ndarray]) -> ContrastPool:
    """The planned rows of `projected`, class by class, as one pool.

    Zero projection rows carry no direction and are silently excluded.
    """
    idx = np.array([i for c in sorted(plan) for i in plan[c]], dtype=int)
    labels = np.array([c for c in sorted(plan) for _ in plan[c]], dtype=int)
    keep = np.linalg.norm(projected.values[idx], axis=1) > 0
    return ContrastPool(ad.row(projected, idx[keep]), labels[keep])


def segment_pool(projected: Tensor, labels) -> ContrastPool:
    """One renormalized mean of `projected` per ground-truth run.

    Runs whose mean is zero carry no direction and are dropped.
    """
    classes, starts, ends = label_runs(labels)
    pooled = ad.mean_rows(projected, starts, ends)
    keep = np.linalg.norm(pooled.values, axis=1) > 0
    if not keep.all():
        pooled = ad.mean_rows(projected, starts[keep], ends[keep])
    return ContrastPool(ad.l2_normalize(pooled), classes[keep])


def build_example_set(projected: Tensor, predictions, labels, rng, *,
                      k_per_class: int, boundary_radius: int,
                      include_segments: bool,
                      ) -> tuple[ContrastPool, ContrastPool]:
    """Full per-sequence example set: the hard-sample and segment pools.

    Without segments the segment pool is empty and no pooling runs.
    """
    plan = select_hard_examples(predictions, labels, k_per_class,
                                boundary_radius, rng)
    samples = sample_pool(projected, plan)
    if not include_segments:
        return samples, ContrastPool(np.zeros((0, projected.shape[1])), [])
    return samples, segment_pool(projected, labels)
