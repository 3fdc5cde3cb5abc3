"""Sample-level evaluation: confusion counts, class-average scores, macro
Jaccard, and rank-based one-vs-rest AUC.

Ratio metrics are computed as a single division of integer counts so they
agree bit-for-bit with naive set-arithmetic implementations.  Zero
denominators yield 0; macro averages run over classes actually present in
the ground truth (nonempty union, for Jaccard).
"""

import json
from dataclasses import dataclass

import numpy as np

from .data import label_runs


def confusion_matrix(truth, pred, num_classes: int) -> np.ndarray:
    truth = np.asarray(truth, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    if truth.shape != pred.shape or truth.ndim != 1:
        raise ValueError("truth and pred must be 1-D and equally long")
    for name, arr in (("truth", truth), ("pred", pred)):
        if arr.size and (arr.min() < 0 or arr.max() >= num_classes):
            raise ValueError(f"{name} labels outside [0, {num_classes})")
    counts = np.bincount(truth * num_classes + pred,
                         minlength=num_classes * num_classes)
    return counts.reshape(num_classes, num_classes)


def _safe_div(num, den):
    num = np.asarray(num, dtype=np.float64)
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=np.asarray(den) != 0)
    return out


def _macro(per_class, defined, empty=0.0) -> float:
    """The mean of per_class over the defined classes, as one sum divided
    once by their count; `empty` where no class is defined."""
    if not defined.any():
        return empty
    return float(per_class[defined].sum() / defined.sum())


def precision_recall_f1(confusion: np.ndarray):
    """Per-class arrays plus macro means over classes present in truth."""
    confusion = np.asarray(confusion)
    diag = np.diag(confusion)
    rowsum = confusion.sum(axis=1)
    colsum = confusion.sum(axis=0)
    precision = _safe_div(diag, colsum)
    recall = _safe_div(diag, rowsum)
    # single-division form, bitwise identical to 2|A n B| / (|A| + |B|)
    f1 = _safe_div(2 * diag, rowsum + colsum)
    present = rowsum > 0
    return (precision, recall, f1, _macro(precision, present),
            _macro(recall, present), _macro(f1, present))


def jaccard_index(truth, pred, num_classes: int) -> float:
    """Macro intersection-over-union across classes with nonempty union."""
    return _macro(*_jaccard_from_confusion(
        confusion_matrix(truth, pred, num_classes)))


def _jaccard_from_confusion(confusion):
    diag = np.diag(confusion)
    union = confusion.sum(axis=1) + confusion.sum(axis=0) - diag
    return _safe_div(diag, union), union > 0


def average_ranks(values) -> np.ndarray:
    """1-based ranks of a 1-D array; tied values share the mean of their
    positions.

    A tie group at sorted positions [start, end) gets (start + end + 1) / 2,
    an exact half-integer, so the order of ties within the sort is
    irrelevant.
    """
    values = np.asarray(values)
    order = np.argsort(values)
    _, starts, ends = label_runs(values[order])
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def roc_auc(truth, probs):
    """One-vs-rest rank AUC per class and its macro mean.

    Ties contribute 1/2 via average ranks.  Classes with no positive or no
    negative samples have undefined AUC and are reported as nan and left
    out of the macro.
    """
    truth = np.asarray(truth, dtype=np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] != truth.shape[0]:
        raise ValueError("probs must be T x C aligned with truth")
    if not np.all(np.isfinite(probs)):
        raise ValueError("probabilities must be finite")
    if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-6):
        raise ValueError("probability rows must sum to 1 within 1e-6")

    num_classes = probs.shape[1]
    per_class = np.full(num_classes, np.nan)
    for c in range(num_classes):
        pos = truth == c
        n_pos = int(pos.sum())
        n_neg = len(truth) - n_pos
        if n_pos == 0 or n_neg == 0:
            continue
        ranks = average_ranks(probs[:, c])
        u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
        per_class[c] = u / (n_pos * n_neg)
    return per_class, _macro(per_class, ~np.isnan(per_class), float("nan"))


@dataclass
class MetricsReport:
    confusion: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    jaccard_per_class: np.ndarray
    auc_per_class: np.ndarray
    macro_precision: float
    macro_recall: float
    macro_f1: float
    jaccard: float
    auc_macro: float

    def __post_init__(self):
        for name in ("macro_precision", "macro_recall", "macro_f1", "jaccard"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        if not np.isnan(self.auc_macro) and not 0.0 <= self.auc_macro <= 1.0:
            raise ValueError("auc_macro outside [0, 1]")

    @property
    def total_samples(self) -> int:
        return int(self.confusion.sum())

    def to_json(self) -> str:
        def listify(a):
            return [None if np.isnan(v) else float(v) for v in a]

        doc = {
            "num_classes": int(self.confusion.shape[0]),
            "total_samples": self.total_samples,
            "confusion": self.confusion.astype(int).tolist(),
            "per_class": {
                "precision": listify(self.precision),
                "recall": listify(self.recall),
                "f1": listify(self.f1),
                "jaccard": listify(self.jaccard_per_class),
                "auc": listify(self.auc_per_class),
            },
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "jaccard": self.jaccard,
            "auc_macro": None if np.isnan(self.auc_macro) else self.auc_macro,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def evaluate_predictions(truth, pred, probs, num_classes: int) -> MetricsReport:
    confusion = confusion_matrix(truth, pred, num_classes)
    precision, recall, f1, macro_p, macro_r, macro_f1 = \
        precision_recall_f1(confusion)
    ji_per_class, ji_defined = _jaccard_from_confusion(confusion)
    auc_per_class, auc_macro = roc_auc(truth, probs)
    return MetricsReport(confusion=confusion, precision=precision,
                         recall=recall, f1=f1,
                         jaccard_per_class=ji_per_class,
                         auc_per_class=auc_per_class,
                         macro_precision=macro_p, macro_recall=macro_r,
                         macro_f1=macro_f1,
                         jaccard=_macro(ji_per_class, ji_defined),
                         auc_macro=auc_macro)
