"""Training objectives.

The per-stage objective combines sample-wise cross entropy with a
contrastive term computed over a curated example set.  Contrast follows the
per-pair form: each anchor/positive pair is scored against the anchor's
full negative set, anchors lacking positives or negatives are skipped, and
the result averages first over an anchor's positives and then over valid
anchors.

Examples come in pools, one per level: a `ContrastPool` is one matrix of
unit-norm embedding rows with one class label per row.  The hard-sample
pool and the segment-summary pool are stacked into a single matrix so
every cross-level pairing contributes.  Its rows are canonically sorted
(class, level, embedding bytes) before any summation, which makes the
loss bitwise invariant to row order; a row's level is the position of
its pool.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class ContrastPool:
    """Unit-norm embedding rows (n x P) and their n class labels."""
    embeddings: Tensor
    labels: np.ndarray

    def __post_init__(self):
        if not isinstance(self.embeddings, Tensor):
            self.embeddings = Tensor(self.embeddings)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.embeddings.ndim != 2:
            raise ValueError("embeddings must be a matrix")
        if self.labels.shape != (self.embeddings.shape[0],):
            raise ValueError("need one class label per embedding row")
        if np.any(self.labels < 0):
            raise ValueError("class labels must be nonnegative")
        norms = np.linalg.norm(self.embeddings.values, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("every embedding row must have norm 1")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class LossBreakdown:
    classification: list[float]
    contrast: list[float]
    contrast_weight: float
    total: float
    sample_examples: list[int]      # pool sizes per stage
    segment_examples: list[int]
    skipped_anchors: int = 0

    def __post_init__(self):
        if len(self.classification) != len(self.contrast):
            raise ValueError("per-stage loss lists must align")
        expected = sum(c + self.contrast_weight * k
                       for c, k in zip(self.classification, self.contrast))
        if abs(self.total - expected) > 1e-12:
            raise ValueError("total does not decompose into its stage terms")


def info_nce(anchor, positive, negatives, temperature: float) -> float:
    """Single-anchor contrastive loss against an explicit negative set."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    negatives = [np.asarray(n, dtype=np.float64) for n in negatives]
    if not negatives:
        raise ValueError("at least one negative is required")
    anchor = np.asarray(anchor, dtype=np.float64)
    pos_sim = float(anchor @ np.asarray(positive, dtype=np.float64)) / temperature
    sims = np.array([pos_sim] + [float(anchor @ n) / temperature
                                 for n in negatives])
    # -log softmax of the positive among {positive} U negatives, shifted by
    # the largest similarity so no exp overflows
    top = sims.max()
    return float(top + np.log(np.exp(sims - top).sum()) - pos_sim)


def supervised_contrast(pools: Sequence[ContrastPool], temperature: float,
                        diagnostics: dict | None = None) -> Tensor:
    """Class-supervised contrast over the rows of every pool together.

    Returns a scalar graph tensor so gradients reach the embeddings.  The
    whole computation is a handful of matrix ops on the n x n similarity
    matrix; per-pair masks are constants and carry no gradient.  Empty
    pools (or empty lists) contribute nothing.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    pools = [p for p in pools if len(p)]
    rows = [r for p in pools for r in p.embeddings.values]
    labels = np.array([c for p in pools for c in p.labels], dtype=int)
    levels = [level for level, p in enumerate(pools) for _ in range(len(p))]
    order = sorted(range(len(rows)), key=lambda i: (labels[i], levels[i],
                                                    rows[i].tobytes()))
    labels = labels[order]
    n = len(labels)

    same = labels[:, None] == labels[None, :]
    pos_mask = same & ~np.eye(n, dtype=bool)
    neg_mask = ~same
    valid = pos_mask.any(axis=1) & neg_mask.any(axis=1)
    n_valid = int(valid.sum())
    if diagnostics is not None:
        diagnostics["anchors"] = n
        diagnostics["skipped_anchors"] = n - n_valid
    if n_valid == 0:
        return Tensor(0.0)

    emb = ad.row(ad.stack_rows([p.embeddings for p in pools]), order)
    sims = ad.scale(ad.matmul(emb, ad.transpose(emb)), 1.0 / temperature)
    exp_sims = ad.exp(sims)
    # row i of this product is constant at sum_{j in N_i} exp(s_ij)
    neg_rowsum = ad.matmul(ad.mul(exp_sims, Tensor(neg_mask.astype(np.float64))),
                           Tensor(np.ones((n, n))))
    denom = ad.add(exp_sims, neg_rowsum)
    # -log(exp(s_ij) / denom_ij) = log(denom_ij) - s_ij
    pair_losses = ad.add(ad.log(denom), ad.scale(sims, -1.0))

    weights = np.zeros((n, n))
    pos_counts = pos_mask.sum(axis=1)
    rows = valid.nonzero()[0]
    weights[rows] = pos_mask[rows] / (pos_counts[rows, None] * n_valid)
    return ad.tsum(ad.mul(pair_losses, Tensor(weights)))


def total_objective(stage_logits: Sequence[Tensor], labels, example_sets,
                    contrast_weight: float,
                    temperature: float) -> tuple[Tensor, LossBreakdown]:
    """Sum per-stage cross entropy plus weighted contrast.

    `stage_logits` holds each stage's T x C logits.  `example_sets`
    supplies one (samples, segments) pair of pools per stage; an empty
    list stands for an empty pool.  With contrast_weight 0 the contrast
    graphs are never built, so the returned loss is exactly the plain
    cross-entropy sum.
    """
    if len(example_sets) != len(stage_logits):
        raise ValueError("need one example set per stage")
    labels = np.asarray(labels, dtype=int)

    ce_values, con_values, n_samples, n_segments = [], [], [], []
    skipped = 0
    total = None
    for logits, (samples, segments) in zip(stage_logits, example_sets):
        n_samples.append(len(samples))
        n_segments.append(len(segments))
        ce = ad.softmax_cross_entropy(logits, labels)
        ce_values.append(ce.item())
        stage_term = ce
        if contrast_weight > 0:
            diag: dict = {}
            con = supervised_contrast((samples, segments), temperature,
                                      diag)
            skipped += diag.get("skipped_anchors", 0)
            con_values.append(con.item())
            stage_term = ad.add(stage_term, ad.scale(con, contrast_weight))
        else:
            con_values.append(0.0)
        total = stage_term if total is None else ad.add(total, stage_term)

    breakdown = LossBreakdown(classification=ce_values, contrast=con_values,
                              contrast_weight=contrast_weight,
                              total=total.item(), sample_examples=n_samples,
                              segment_examples=n_segments,
                              skipped_anchors=skipped)
    return total, breakdown
