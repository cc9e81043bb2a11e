"""Evaluation metrics: accuracy, ROC AUC, and average precision.

ROC AUC is the Mann-Whitney statistic: the probability a uniformly random
positive outscores a uniformly random negative, counting ties as half.
Average precision sums precision at each distinct score threshold weighted
by the recall it adds, with tied scores grouped into one threshold.
Multi-class scores are handled one-vs-rest and averaged without weighting
(macro).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import UndefinedMetricError


def _scores_labels(scores, labels):
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal length")
    if scores.size == 0:
        raise ValueError("empty inputs")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be binary 0/1")
    return scores, labels.astype(bool)


def _average_ranks(x):
    # 1-based ranks, ties sharing the average of their block
    uniq, inv, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    avg = ends - counts + (counts + 1) / 2.0
    return avg[inv]


def roc_auc(scores, labels):
    """P(score of random positive > score of random negative) + ties / 2."""
    scores, labels = _scores_labels(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("ROC AUC needs both classes present")
    ranks = _average_ranks(scores)
    rank_sum = float(ranks[labels].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def average_precision(scores, labels):
    """Area under the precision-recall curve via threshold sums.

    Thresholds descend through the distinct score values; tied scores enter
    together. With every score identical this degrades to the positive
    rate, the precision of the single all-in threshold.
    """
    scores, labels = _scores_labels(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise UndefinedMetricError("average precision needs a positive sample")
    _, inv, counts = np.unique(scores, return_inverse=True, return_counts=True)
    pos_per = np.bincount(inv, weights=labels.astype(np.float64),
                          minlength=counts.shape[0])
    # unique() sorts ascending; walk thresholds from the top score down
    pos_desc = pos_per[::-1]
    tot_desc = counts[::-1].astype(np.float64)
    tp = np.cumsum(pos_desc)
    precision = tp / np.cumsum(tot_desc)
    return float(np.sum((pos_desc / n_pos) * precision))


def accuracy(scores, y):
    """Fraction of rows whose argmax score hits the true class.

    Ties resolve to the lowest index on both sides. ``y`` may be one-hot
    rows or an integer label vector.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] == 0:
        raise ValueError("scores must be a non-empty (n, k) array")
    y = np.asarray(y)
    truth = np.argmax(y, axis=1) if y.ndim == 2 else y.astype(np.int64)
    if truth.shape[0] != scores.shape[0]:
        raise ValueError("scores and labels disagree on sample count")
    return float(np.mean(np.argmax(scores, axis=1) == truth))


def _one_vs_rest(metric, scores, y):
    """Per-class values, nan where the metric is undefined for a class."""
    scores = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if scores.shape != y.shape or scores.ndim != 2:
        raise ValueError("scores and one-hot y must share an (n, k) shape")

    def per_class(c):
        try:
            return metric(scores[:, c], y[:, c])
        except UndefinedMetricError:
            return float("nan")

    values = [per_class(c) for c in range(scores.shape[1])]
    if all(np.isnan(v) for v in values):
        raise UndefinedMetricError("metric undefined for every class")
    return values


def _macro(values):
    return float(np.nanmean(values))


@dataclass
class MetricReport:
    """Everything a benchmark run reports about one evaluation split."""

    n: int
    seed: int
    accuracy: float
    auc_per_class: list = field(default_factory=list)
    auc_macro: float = float("nan")
    aupr_per_class: list = field(default_factory=list)
    aupr_macro: float = float("nan")

    def to_lines(self):
        lines = [f"n={self.n}", f"seed={self.seed}",
                 f"accuracy={self.accuracy:.6f}",
                 f"auc_macro={self.auc_macro:.6f}",
                 f"aupr_macro={self.aupr_macro:.6f}"]
        for c, v in enumerate(self.auc_per_class):
            lines.append(f"auc_class_{c}={v:.6f}")
        for c, v in enumerate(self.aupr_per_class):
            lines.append(f"aupr_class_{c}={v:.6f}")
        return lines

    @staticmethod
    def csv_header():
        return "n,seed,accuracy,auc_macro,aupr_macro"

    def csv_row(self):
        return (f"{self.n},{self.seed},{self.accuracy:.6f},"
                f"{self.auc_macro:.6f},{self.aupr_macro:.6f}")


def metric_report(scores, y, seed=0):
    """Accuracy plus per-class and macro AUC / average precision."""
    scores = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    acc = accuracy(scores, y)
    auc = _one_vs_rest(roc_auc, scores, y)
    aupr = _one_vs_rest(average_precision, scores, y)
    return MetricReport(n=scores.shape[0], seed=seed, accuracy=acc,
                        auc_per_class=auc, auc_macro=_macro(auc),
                        aupr_per_class=aupr, aupr_macro=_macro(aupr))
