import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tempseg import metrics as mt


def set_arithmetic_metrics(truth, pred, num_classes):
    """Independent per-class metrics from explicit index sets (oracle)."""
    per = {}
    for c in range(num_classes):
        t = {i for i, v in enumerate(truth) if v == c}
        p = {i for i, v in enumerate(pred) if v == c}
        inter = len(t & p)
        union = len(t | p)
        per[c] = dict(
            precision=inter / len(p) if p else 0.0,
            recall=inter / len(t) if t else 0.0,
            f1=2 * inter / (len(t) + len(p)) if union else 0.0,
            jaccard=inter / union if union else 0.0,
            present=bool(t), union_nonempty=bool(union))
    present = [c for c in range(num_classes) if per[c]["present"]]
    unions = [c for c in range(num_classes) if per[c]["union_nonempty"]]

    def macro(key, pool):
        return sum(per[c][key] for c in pool) / len(pool) if pool else 0.0

    return per, dict(precision=macro("precision", present),
                     recall=macro("recall", present),
                     f1=macro("f1", present),
                     jaccard=macro("jaccard", unions))


def trapezoid_auc(scores, is_positive):
    """ROC integration by trapezoids (oracle)."""
    scores = np.asarray(scores, dtype=np.float64)
    is_positive = np.asarray(is_positive, dtype=bool)
    n_pos = is_positive.sum()
    n_neg = len(scores) - n_pos
    points = [(0.0, 0.0)]
    for th in np.unique(scores)[::-1]:
        sel = scores >= th
        points.append((np.sum(sel & ~is_positive) / n_neg,
                       np.sum(sel & is_positive) / n_pos))
    xs, ys = zip(*points)
    return np.trapezoid(ys, xs)


def scores_to_probs(scores):
    scores = np.asarray(scores, dtype=np.float64)
    return np.column_stack([scores, 1.0 - scores])


class TestConfusionMatrix:
    def test_perfect_is_diagonal(self):
        truth = np.array([0, 1, 1, 2, 2, 2])
        got = mt.confusion_matrix(truth, truth, 3)
        np.testing.assert_array_equal(got, np.diag([1, 2, 3]))

    def test_hand_case(self):
        got = mt.confusion_matrix([0, 0, 1], [0, 1, 1], 2)
        np.testing.assert_array_equal(got, [[1, 1], [0, 1]])

    def test_row_sums_count_truth(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 4, size=200)
        pred = rng.integers(0, 4, size=200)
        conf = mt.confusion_matrix(truth, pred, 4)
        counts = Counter(truth.tolist())
        for c in range(4):
            assert conf[c].sum() == counts.get(c, 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="truth"):
            mt.confusion_matrix([0, 3], [0, 1], 3)
        with pytest.raises(ValueError, match="pred"):
            mt.confusion_matrix([0, 1], [0, -1], 3)


class TestPrecisionRecallF1:
    def test_perfect(self):
        conf = np.diag([4, 3, 2])
        p, r, f1, mp, mr, mf = mt.precision_recall_f1(conf)
        np.testing.assert_array_equal(p, 1.0)
        np.testing.assert_array_equal(r, 1.0)
        assert (mp, mr, mf) == (1.0, 1.0, 1.0)

    def test_hand_case(self):
        conf = mt.confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], 2)
        p, r, f1, _, _, mf = mt.precision_recall_f1(conf)
        assert p[0] == 1.0 and r[0] == 0.5
        assert abs(p[1] - 2 / 3) < 1e-12 and r[1] == 1.0
        assert abs(mf - (2 / 3 + 0.8) / 2) < 1e-12

    def test_absent_class_excluded_from_macro(self):
        # class 2 never true and never predicted
        conf = mt.confusion_matrix([0, 0, 1], [0, 1, 1], 3)
        _, _, _, mp, mr, mf = mt.precision_recall_f1(conf)
        per, macros = set_arithmetic_metrics([0, 0, 1], [0, 1, 1], 3)
        assert (mp, mr, mf) == (macros["precision"], macros["recall"],
                                macros["f1"])

    def test_class_predicted_but_never_true(self):
        # predictions hit class 1 though truth never contains it
        p, r, f1, mp, _, _ = mt.precision_recall_f1(
            mt.confusion_matrix([0, 0, 0], [0, 1, 1], 2))
        assert p[1] == 0.0 and r[1] == 0.0 and f1[1] == 0.0
        assert mp == 1.0  # macro over truth-present classes only


class TestJaccard:
    def test_perfect(self):
        truth = [0, 1, 2, 1]
        assert mt.jaccard_index(truth, truth, 3) == 1.0

    def test_hand_case(self):
        got = mt.jaccard_index([0, 0, 1, 1], [0, 1, 1, 1], 2)
        assert abs(got - (0.5 + 2 / 3) / 2) < 1e-12

    def test_fully_disjoint_binary(self):
        assert mt.jaccard_index([0, 0, 1], [1, 1, 0], 2) == 0.0


def random_pairs():
    """200 (truth, pred, num_classes) triples: 2-6 classes, 1-50 samples,
    so classes are often absent from truth or from both vectors."""
    rng = np.random.default_rng(1)
    for _ in range(200):
        c = int(rng.integers(2, 7))
        t = int(rng.integers(1, 51))
        yield rng.integers(0, c, size=t), rng.integers(0, c, size=t), c


class TestAgainstSetArithmetic:
    def test_exact_equality_on_random_pairs(self):
        for truth, pred, c in random_pairs():
            conf = mt.confusion_matrix(truth, pred, c)
            p, r, f1, mp, mr, mf = mt.precision_recall_f1(conf)
            per, macros = set_arithmetic_metrics(truth.tolist(),
                                                 pred.tolist(), c)
            for cls in range(c):
                assert p[cls] == per[cls]["precision"]
                assert r[cls] == per[cls]["recall"]
                assert f1[cls] == per[cls]["f1"]
            assert mp == macros["precision"]
            assert mr == macros["recall"]
            assert mf == macros["f1"]
            assert mt.jaccard_index(truth, pred, c) == macros["jaccard"]

    def test_report_equals_the_oracle_on_random_pairs(self):
        # the report's own averages, not only the functions above
        rng = np.random.default_rng(9)
        undefined_auc = 0
        for truth, pred, c in random_pairs():
            probs = rng.dirichlet(np.ones(c), size=len(truth))
            rep = mt.evaluate_predictions(truth, pred, probs, c)
            per, macros = set_arithmetic_metrics(truth.tolist(),
                                                 pred.tolist(), c)
            for cls in range(c):
                assert rep.precision[cls] == per[cls]["precision"]
                assert rep.recall[cls] == per[cls]["recall"]
                assert rep.f1[cls] == per[cls]["f1"]
                assert rep.jaccard_per_class[cls] == per[cls]["jaccard"]
            assert rep.macro_precision == macros["precision"]
            assert rep.macro_recall == macros["recall"]
            assert rep.macro_f1 == macros["f1"]
            assert rep.jaccard == macros["jaccard"]
            defined = [float(a) for a in rep.auc_per_class if not np.isnan(a)]
            if defined:
                assert rep.auc_macro == sum(defined) / len(defined)
            else:
                assert np.isnan(rep.auc_macro)
                undefined_auc += 1
        assert undefined_auc > 0

    def test_permutation_of_class_ids(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(0, 4, size=120)
        pred = rng.integers(0, 4, size=120)
        perm = np.array([2, 0, 3, 1])
        base = mt.precision_recall_f1(mt.confusion_matrix(truth, pred, 4))
        remapped = mt.precision_recall_f1(
            mt.confusion_matrix(perm[truth], perm[pred], 4))
        # macro sums run in a different class order, so allow rounding slack
        np.testing.assert_allclose(base[3:], remapped[3:], atol=1e-12)
        assert abs(mt.jaccard_index(truth, pred, 4)
                   - mt.jaccard_index(perm[truth], perm[pred], 4)) < 1e-12

    def test_jaccard_bounded_by_precision_and_recall(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            truth = rng.integers(0, 3, size=80)
            pred = rng.integers(0, 3, size=80)
            conf = mt.confusion_matrix(truth, pred, 3)
            p, r, _, _, _, _ = mt.precision_recall_f1(conf)
            ji, defined = mt._jaccard_from_confusion(conf)
            for c in range(3):
                if defined[c]:
                    assert ji[c] <= min(p[c], r[c]) + 1e-15

    def test_f1_equals_harmonic_mean_form(self):
        rng = np.random.default_rng(4)
        truth = rng.integers(0, 5, size=300)
        pred = rng.integers(0, 5, size=300)
        p, r, f1, _, _, _ = mt.precision_recall_f1(
            mt.confusion_matrix(truth, pred, 5))
        for c in range(5):
            if p[c] + r[c] > 0:
                assert abs(f1[c] - 2 * p[c] * r[c] / (p[c] + r[c])) < 1e-12


class TestRocAuc:
    def test_perfect_separation(self):
        truth = np.array([0, 0, 0, 1, 1, 1])
        probs = scores_to_probs([0.9, 0.8, 0.7, 0.2, 0.1, 0.05])
        per, macro = mt.roc_auc(truth, probs)
        assert per[0] == 1.0 and per[1] == 1.0 and macro == 1.0

    def test_all_ties_give_half(self):
        truth = np.array([0, 1, 0, 1])
        probs = np.full((4, 2), 0.5)
        per, macro = mt.roc_auc(truth, probs)
        assert per[0] == 0.5 and per[1] == 0.5 and macro == 0.5

    def test_six_sample_hand_case(self):
        truth = np.array([0, 0, 0, 1, 1, 1])
        scores = np.array([0.9, 0.8, 0.4, 0.6, 0.3, 0.1])
        per, _ = mt.roc_auc(truth, scores_to_probs(scores))
        assert abs(per[0] - 8 / 9) < 1e-12
        want = trapezoid_auc(scores, truth == 0)
        assert abs(per[0] - want) < 1e-9

    def test_tied_scores_hand_case(self):
        truth = np.array([0, 0, 1, 0, 1, 1])
        scores = np.array([0.5, 0.5, 0.8, 0.5, 0.2, 0.5])
        per, _ = mt.roc_auc(truth, scores_to_probs(scores))
        # class 1 positives {0.8, 0.2, 0.5} vs negatives {0.5, 0.5, 0.5}
        assert abs(per[1] - (3 + 0 + 1.5) / 9) < 1e-12

    def test_matches_trapezoid_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            t = int(rng.integers(4, 40))
            truth = rng.integers(0, 2, size=t)
            if len(np.unique(truth)) < 2:
                continue
            scores = np.round(rng.uniform(size=t), 2)  # force some ties
            per, _ = mt.roc_auc(truth, scores_to_probs(scores))
            assert abs(per[0] - trapezoid_auc(scores, truth == 0)) < 1e-9
            assert abs(per[1] - trapezoid_auc(1 - scores, truth == 1)) < 1e-9

    def test_absent_class_is_nan_and_skipped(self):
        truth = np.array([0, 0, 1, 1])
        probs = np.full((4, 3), 1 / 3)
        per, macro = mt.roc_auc(truth, probs)
        assert np.isnan(per[2])
        assert macro == 0.5

    def test_monotone_transform_invariance(self):
        # p -> p^3 / (p^3 + (1-p)^3) is increasing and maps 1-p to one
        # minus its image, so warped rows still sum to 1 and each
        # column keeps its order
        rng = np.random.default_rng(6)
        truth = rng.integers(0, 2, size=30)
        p = rng.uniform(size=30)
        warp = p ** 3 / (p ** 3 + (1 - p) ** 3)
        base, _ = mt.roc_auc(truth, np.column_stack([1 - p, p]))
        warped, _ = mt.roc_auc(truth, np.column_stack([1 - warp, warp]))
        np.testing.assert_allclose(base, warped, atol=1e-12)

    def test_row_sum_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            mt.roc_auc(np.array([0, 1]), np.array([[0.7, 0.7], [0.2, 0.8]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probability_rejected(self, bad):
        # |nan - 1| > 1e-6 is False, so the row-sum check alone lets a nan
        # row through
        probs = np.array([[bad, bad], [0.2, 0.8], [0.5, 0.5]])
        with pytest.raises(ValueError, match="finite"):
            mt.roc_auc(np.array([0, 1, 0]), probs)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_the_rankdata_formula_bitwise(self, data):
        from scipy.stats import rankdata
        t = data.draw(st.integers(1, 60))
        c = data.draw(st.integers(2, 4))
        truth = np.array(data.draw(st.lists(st.integers(0, c - 1),
                                            min_size=t, max_size=t)))
        # few distinct levels, so most columns are full of ties
        levels = data.draw(st.integers(1, 6))
        scores = np.array(data.draw(st.lists(
            st.lists(st.integers(0, levels), min_size=c, max_size=c),
            min_size=t, max_size=t)), dtype=np.float64) + 1.0
        probs = scores / scores.sum(axis=1, keepdims=True)
        want = np.full(c, np.nan)
        for k in range(c):
            pos = truth == k
            n_pos = int(pos.sum())
            n_neg = t - n_pos
            if n_pos and n_neg:
                ranks = rankdata(probs[:, k])
                want[k] = ((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0)
                           / (n_pos * n_neg))
        per, _ = mt.roc_auc(truth, probs)
        assert per.tobytes() == want.tobytes()


class TestAverageRanks:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0, -3.0,
                                     np.inf, -np.inf, 1e-300]),
                    min_size=1, max_size=50)
           | st.lists(st.floats(allow_nan=False), min_size=1, max_size=50))
    def test_equals_scipy_rankdata_bitwise(self, values):
        from scipy.stats import rankdata
        got = mt.average_ranks(np.array(values))
        assert got.tobytes() == rankdata(values).tobytes()

    def test_signed_zeros_tie(self):
        np.testing.assert_array_equal(
            mt.average_ranks(np.array([0.0, -0.0, 1.0, -0.0])),
            [2.0, 2.0, 4.0, 2.0])

    def test_length_one(self):
        assert mt.average_ranks(np.array([7.0])).tolist() == [1.0]

    def test_all_tied_take_the_mean_position(self):
        assert mt.average_ranks(np.full(4, 0.3)).tolist() == [2.5] * 4


class TestEvaluatePredictions:
    def test_perfect_all_ones(self):
        truth = np.array([0, 1, 2, 1, 0])
        probs = np.eye(3)[truth]
        rep = mt.evaluate_predictions(truth, truth, probs, 3)
        assert rep.macro_f1 == 1.0 and rep.jaccard == 1.0
        assert rep.macro_precision == 1.0 and rep.macro_recall == 1.0
        assert rep.auc_macro == 1.0

    def test_uniform_random_five_classes(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            truth = rng.integers(0, 5, size=6000)
            pred = rng.integers(0, 5, size=6000)
            probs = np.full((6000, 5), 0.2)
            rep = mt.evaluate_predictions(truth, pred, probs, 5)
            assert 0.15 < rep.macro_f1 < 0.25

    def test_internally_consistent_with_confusion(self):
        rng = np.random.default_rng(7)
        truth = rng.integers(0, 4, size=150)
        pred = rng.integers(0, 4, size=150)
        probs = rng.dirichlet(np.ones(4), size=150)
        rep = mt.evaluate_predictions(truth, pred, probs, 4)
        assert rep.total_samples == 150
        p, r, f1, mp, mr, mf = mt.precision_recall_f1(rep.confusion)
        np.testing.assert_array_equal(rep.precision, p)
        np.testing.assert_array_equal(rep.f1, f1)
        assert rep.macro_f1 == mf

    def test_json_round_trip_is_exact(self):
        rng = np.random.default_rng(8)
        truth = rng.integers(0, 3, size=90)
        pred = rng.integers(0, 3, size=90)
        probs = rng.dirichlet(np.ones(3), size=90)
        rep = mt.evaluate_predictions(truth, pred, probs, 3)
        back = json.loads(rep.to_json())
        np.testing.assert_array_equal(back["confusion"], rep.confusion)
        np.testing.assert_array_equal(back["per_class"]["precision"],
                                      rep.precision)
        np.testing.assert_array_equal(back["per_class"]["auc"],
                                      rep.auc_per_class)
        assert back["macro_f1"] == rep.macro_f1
        assert back["jaccard"] == rep.jaccard
        assert back["auc_macro"] == rep.auc_macro

    def test_scalar_range_validation(self):
        with pytest.raises(ValueError, match="outside"):
            mt.MetricsReport(confusion=np.eye(2, dtype=int),
                             precision=np.ones(2), recall=np.ones(2),
                             f1=np.ones(2), jaccard_per_class=np.ones(2),
                             auc_per_class=np.ones(2), macro_precision=1.0,
                             macro_recall=1.0, macro_f1=1.2, jaccard=1.0,
                             auc_macro=1.0)
