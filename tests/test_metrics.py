from itertools import product

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fpnet.errors import UndefinedMetricError
from fpnet.metrics import (MetricReport, accuracy, average_precision,
                           metric_report, roc_auc)


def _auc_by_pairs(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def _ap_by_thresholds(scores, labels):
    # step integration over distinct descending thresholds, ties grouped
    order = np.argsort(-scores, kind="stable")
    s, l = scores[order], labels[order]
    n_pos = int(labels.sum())
    ap = 0.0
    seen = pos_seen = 0
    i = 0
    while i < len(s):
        j = i
        while j < len(s) and s[j] == s[i]:
            j += 1
        pos_here = int(l[i:j].sum())
        seen = j
        pos_seen += pos_here
        precision = pos_seen / seen
        ap += (pos_here / n_pos) * precision
        i = j
    return ap


class TestAccuracy:
    def test_perfect(self):
        y = np.eye(3)
        assert accuracy(np.eye(3), y) == 1.0

    def test_inverted_two_class(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        scores = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert accuracy(scores, y) == 0.0

    def test_three_of_four(self):
        y = np.eye(4)
        scores = np.eye(4).copy()
        scores[3] = [1.0, 0.0, 0.0, 0.0]
        assert accuracy(scores, y) == 0.75

    def test_tie_goes_to_lowest_index(self):
        scores = np.array([[0.5, 0.5]])
        assert accuracy(scores, np.array([[1.0, 0.0]])) == 1.0
        assert accuracy(scores, np.array([[0.0, 1.0]])) == 0.0

    def test_integer_labels_accepted(self):
        scores = np.array([[0.1, 0.9], [0.9, 0.1]])
        assert accuracy(scores, np.array([1, 0])) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((0, 2)), np.zeros((0, 2)))


class TestRocAuc:
    def test_perfectly_separated(self):
        assert roc_auc(np.array([0.9, 0.8, 0.2, 0.1]),
                       np.array([1, 1, 0, 0])) == 1.0

    def test_all_ties(self):
        assert roc_auc(np.full(6, 0.3), np.array([1, 0, 1, 0, 1, 0])) == 0.5

    def test_three_quarters(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0, 0, 1, 1])
        assert roc_auc(scores, labels) == 0.75

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        scores = rng.standard_normal(40)
        labels = (rng.random(40) < 0.4).astype(int)
        labels[:2] = [0, 1]
        base = roc_auc(scores, labels)
        assert roc_auc(np.exp(scores), labels) == base
        assert roc_auc(2.0 * scores + 7.0, labels) == base

    def test_negation_complement(self):
        rng = np.random.default_rng(5)
        scores = rng.permutation(30).astype(float)  # tie-free
        labels = (rng.random(30) < 0.5).astype(int)
        labels[:2] = [0, 1]
        assert roc_auc(scores, labels) + roc_auc(-scores, labels) == 1.0

    def test_exhaustive_small_inputs(self):
        # every label pattern and every tie pattern from a 3-level grid, n<=5
        levels = np.array([0.0, 0.5, 1.0])
        for n in (2, 3, 4, 5):
            for labels in product((0, 1), repeat=n):
                labels = np.array(labels)
                if labels.min() == labels.max():
                    continue
                for scores in product(levels, repeat=n):
                    scores = np.array(scores)
                    assert roc_auc(scores, labels) == pytest.approx(
                        _auc_by_pairs(scores, labels), abs=0.0)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision(np.array([0.9, 0.8, 0.2, 0.1]),
                                 np.array([1, 1, 0, 0])) == 1.0

    def test_positive_ranked_last(self):
        assert average_precision(np.array([1.0, 0.0]),
                                 np.array([0, 1])) == 0.5

    def test_all_equal_gives_prevalence(self):
        scores = np.full(8, 0.2)
        labels = np.array([1, 0, 0, 1, 0, 0, 1, 0])
        assert average_precision(scores, labels) == pytest.approx(3 / 8)

    def test_no_positives_undefined(self):
        with pytest.raises(UndefinedMetricError):
            average_precision(np.array([0.1, 0.2]), np.array([0, 0]))

    def test_exhaustive_small_inputs(self):
        levels = np.array([0.0, 0.5, 1.0])
        for n in (2, 3, 4):
            for labels in product((0, 1), repeat=n):
                labels = np.array(labels)
                if labels.sum() == 0:
                    continue
                for scores in product(levels, repeat=n):
                    scores = np.array(scores)
                    assert average_precision(scores, labels) == pytest.approx(
                        _ap_by_thresholds(scores, labels), abs=1e-12)


class TestMacroReport:
    def _scores_labels(self):
        rng = np.random.default_rng(9)
        y = np.eye(3)[rng.integers(0, 3, size=60)]
        scores = y * 2.0 + rng.standard_normal((60, 3)) * 0.5
        return scores, y

    def test_report_fields(self):
        scores, y = self._scores_labels()
        rep = metric_report(scores, y, seed=7)
        assert rep.n == 60 and rep.seed == 7
        assert len(rep.auc_per_class) == 3
        assert rep.auc_macro == pytest.approx(float(np.mean(rep.auc_per_class)))
        assert 0.0 <= rep.accuracy <= 1.0

    def test_macro_skips_undefined_class(self):
        # class 2 never appears: its AUC is NaN, macro averages the rest
        y = np.array([[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 1, 0]], float)
        scores = np.array([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0],
                           [0.8, 0.2, 0.0], [0.2, 0.8, 0.0]])
        rep = metric_report(scores, y)
        assert np.isnan(rep.auc_per_class[2])
        assert rep.auc_macro == pytest.approx(
            float(np.nanmean(rep.auc_per_class)))

    def test_all_undefined_raises(self):
        y = np.array([[1, 0], [1, 0]], float)
        scores = np.array([[0.9, 0.1], [0.8, 0.2]])
        with pytest.raises(UndefinedMetricError):
            metric_report(scores, y)

    def test_csv_row_layout(self):
        scores, y = self._scores_labels()
        rep = metric_report(scores, y, seed=3)
        assert MetricReport.csv_header() == "n,seed,accuracy,auc_macro,aupr_macro"
        row = rep.csv_row()
        parts = row.split(",")
        assert parts[0] == "60" and parts[1] == "3"
        assert float(parts[2]) == rep.accuracy


# raises that no other test reaches: (call, exception type, message match)
_METRICS_RAISES = {
    "lengths differ": (lambda: roc_auc([0.1, 0.2], [1]), ValueError,
                       "scores and labels must have equal length"),
    "empty": (lambda: roc_auc([], []), ValueError, "^empty inputs$"),
    "labels not binary": (lambda: average_precision([0.1, 0.2], [0, 2]),
                          ValueError, "labels must be binary 0/1"),
    "sample counts differ": (lambda: accuracy(np.zeros((2, 3)), [0, 1, 2]),
                             ValueError, "disagree on sample count"),
    "classes differ": (lambda: metric_report(np.zeros((2, 3)), np.eye(2)),
                       ValueError, r"one-hot y must share an \(n, k\) shape"),
}


@pytest.mark.parametrize("case", list(_METRICS_RAISES))
def test_bad_arguments_raise(case):
    call, error, match = _METRICS_RAISES[case]
    with pytest.raises(error, match=match):
        call()
