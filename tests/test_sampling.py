import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tempseg import autodiff as ad
from tempseg import sampling as sp


class TestFindBoundaries:
    """Segment boundaries, as the samplers read them: the run starts after
    the first one."""

    @staticmethod
    def boundaries(labels):
        _, starts, _ = sp.label_runs(np.array(labels))
        return starts[1:].tolist()

    def test_basic(self):
        assert self.boundaries([0, 0, 1, 1, 2]) == [2, 4]

    def test_constant(self):
        assert self.boundaries([3] * 7) == []


class TestLabelsToSegments:
    """Maximal runs of one class, as (classes, starts, ends) arrays."""

    def test_basic(self):
        runs = [a.tolist() for a in sp.label_runs(np.array([0, 0, 1, 1, 2]))]
        assert runs == [[0, 1, 2], [0, 2, 4], [2, 4, 5]]

    def test_single_label(self):
        runs = [a.tolist() for a in sp.label_runs(np.array([4] * 9))]
        assert runs == [[4], [0], [9]]

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=60))
    def test_round_trip(self, labels):
        classes, starts, ends = sp.label_runs(np.array(labels))
        assert np.repeat(classes, ends - starts).tolist() == labels
        assert np.all(classes[1:] != classes[:-1])
        # the runs tile [0, T) without gaps or empty runs
        assert starts[0] == 0 and ends[-1] == len(labels)
        np.testing.assert_array_equal(starts[1:], ends[:-1])
        assert np.all(ends > starts)

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=40))
    def test_boundary_count_matches_segments(self, labels):
        classes, starts, _ = sp.label_runs(np.array(labels))
        changes = [i for i in range(1, len(labels)) if labels[i] != labels[i - 1]]
        assert starts[1:].tolist() == changes
        assert len(changes) == len(classes) - 1


class TestSelectHardExamples:
    def test_all_correct_single_segment(self):
        labels = np.zeros(30, dtype=int)
        plan = sp.select_hard_examples(labels, labels, k_per_class=4,
                                       boundary_radius=2,
                                       rng=np.random.default_rng(0))
        assert set(plan) == {0}
        assert len(plan[0]) == 4
        assert len(np.unique(plan[0])) == 4

    def test_misclassified_plus_boundary_plus_fill(self):
        # 20 samples, two runs, boundary at 10; class 0 misclassified at 1,4,7
        labels = np.array([0] * 10 + [1] * 10)
        predictions = labels.copy()
        predictions[[1, 4, 7]] = 1
        plan = sp.select_hard_examples(predictions, labels, k_per_class=8,
                                       boundary_radius=2,
                                       rng=np.random.default_rng(1))
        chosen = set(plan[0].tolist())
        assert {1, 4, 7} <= chosen
        assert chosen & {8, 9}, "boundary-zone supplement missing"
        assert len(plan[0]) == 8

    def test_class_absent_from_labels(self):
        labels = np.array([0, 0, 2, 2])
        plan = sp.select_hard_examples(labels, labels, 2, 1,
                                       np.random.default_rng(2))
        assert set(plan) == {0, 2}

    def test_odd_budget_rejected(self):
        labels = np.zeros(5, dtype=int)
        with pytest.raises(ValueError, match="even"):
            sp.select_hard_examples(labels, labels, 3, 1,
                                    np.random.default_rng(0))

    def test_small_class_capped_at_population(self):
        labels = np.array([0] * 17 + [1] * 3)
        plan = sp.select_hard_examples(labels, labels, 8, 2,
                                       np.random.default_rng(3))
        assert len(plan[1]) == 3
        assert len(plan[0]) == 8

    def test_misclassified_overflow_subsampled(self):
        labels = np.zeros(40, dtype=int)
        labels[20:] = 1
        predictions = 1 - labels  # everything wrong
        plan = sp.select_hard_examples(predictions, labels, 6, 2,
                                       np.random.default_rng(4))
        for c in (0, 1):
            assert len(plan[c]) == 6
            assert np.all(labels[plan[c]] == c)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 3, size=60)
        predictions = rng.integers(0, 3, size=60)
        a = sp.select_hard_examples(predictions, labels, 8, 2,
                                    np.random.default_rng(42))
        b = sp.select_hard_examples(predictions, labels, 8, 2,
                                    np.random.default_rng(42))
        assert set(a) == set(b)
        for c in a:
            np.testing.assert_array_equal(a[c], b[c])

    @given(st.integers(0, 2 ** 31 - 1))
    def test_selection_well_formed(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(5, 50))
        labels = rng.integers(0, 4, size=t)
        predictions = rng.integers(0, 4, size=t)
        plan = sp.select_hard_examples(predictions, labels, 4, 2, rng)
        half = 2
        for c, idx in plan.items():
            assert len(np.unique(idx)) == len(idx)
            assert np.all(labels[idx] == c)
            assert len(idx) <= 4
            wrong = np.nonzero((labels == c) & (predictions != c))[0]
            if len(wrong) <= half:
                assert set(wrong.tolist()) <= set(idx.tolist())


def setdiff_select_hard_examples(predictions, labels, k_per_class,
                                 boundary_radius, rng):
    """Oracle: the selection as first written, with a loop over the label
    changes for the boundary zone and `np.setdiff1d` for each pool."""
    _, starts, _ = sp.label_runs(labels)
    near_boundary = np.zeros(len(labels), dtype=bool)
    for b in starts[1:]:
        lo = max(0, b - boundary_radius)
        near_boundary[lo:b + boundary_radius] = True

    half = k_per_class // 2
    plan = {}
    for c in np.unique(labels):
        members = np.nonzero(labels == c)[0]
        wrong = members[predictions[members] != c]
        chosen = list(wrong if len(wrong) <= half
                      else rng.choice(wrong, size=half, replace=False))
        if len(chosen) < half:
            pool = np.setdiff1d(members[near_boundary[members]], chosen)
            take = min(half - len(chosen), len(pool))
            if take:
                chosen.extend(rng.choice(pool, size=take, replace=False))
        pool = np.setdiff1d(members, chosen)
        take = min(k_per_class - len(chosen), len(pool))
        if take:
            chosen.extend(rng.choice(pool, size=take, replace=False))
        plan[int(c)] = np.sort(np.asarray(chosen, dtype=int))
    return plan


@st.composite
def selection_cases(draw):
    """(predictions, labels, k_per_class, boundary_radius, seed): label runs
    of up to 4 classes, each class predicted right everywhere, wrong
    everywhere or wrong on a drawn subset; budgets from 2 to 40, so
    boundary pools are often shorter than half of one."""
    runs = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 15)),
                         min_size=1, max_size=12))
    labels = np.repeat([c for c, _ in runs], [n for _, n in runs])
    modes = np.array(draw(st.lists(st.sampled_from(["right", "wrong",
                                                    "some"]),
                                   min_size=4, max_size=4)))[labels]
    flips = np.array(draw(st.lists(st.booleans(), min_size=len(labels),
                                   max_size=len(labels))))
    wrong = (modes == "wrong") | ((modes == "some") & flips)
    predictions = np.where(wrong, (labels + 1) % 4, labels)
    return (predictions, labels, 2 * draw(st.integers(1, 20)),
            draw(st.integers(0, 5)), draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=300, deadline=None)
@given(selection_cases())
@example((np.array([0] * 6 + [0] * 6), np.array([0] * 6 + [1] * 6),
          8, 0, 0))      # radius 0; class 1 all wrong, class 0 all right
def test_selection_equals_the_setdiff_oracle(case):
    predictions, labels, k_per_class, radius, seed = case
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    got = sp.select_hard_examples(predictions, labels, k_per_class, radius,
                                  rngs[0])
    want = setdiff_select_hard_examples(predictions, labels, k_per_class,
                                        radius, rngs[1])
    assert list(got) == list(want)
    for c in want:
        assert got[c].dtype == want[c].dtype
        np.testing.assert_array_equal(got[c], want[c])
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def graph_ops(tensor):
    return [node._op for node in ad.CompGraph.from_output(tensor).nodes]


class TestSegmentFeatures:
    """sp.segment_pool: one renormalized mean per ground-truth run."""

    def test_identical_rows_reproduce_vector(self):
        u = np.array([0.6, 0.8])
        projected = ad.Tensor(np.tile(u, (5, 1)))
        got = sp.segment_pool(projected, np.zeros(5, dtype=int))
        assert len(got) == 1
        assert got.labels.tolist() == [0]
        np.testing.assert_allclose(got.embeddings.values, [u], atol=1e-15)

    def test_orthogonal_pair_averages_and_renormalizes(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        got = sp.segment_pool(ad.Tensor(rows), [2, 2])
        np.testing.assert_allclose(got.embeddings.values,
                                   [[1 / np.sqrt(2), 1 / np.sqrt(2)]])

    def test_zero_mean_run_dropped(self):
        rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        projected = ad.Tensor(rows)
        got = sp.segment_pool(projected, [0, 0, 1])
        assert len(got) == 1
        assert got.labels.tolist() == [1]
        # the dropped run leaves no row in the graph, which is read
        # before the backward consumes it
        assert graph_ops(got.embeddings).count("mean_rows") == 1
        loss = ad.tsum(got.embeddings)
        grads = ad.backward({loss: 1.0}, [projected])
        np.testing.assert_array_equal(grads[projected][:2], 0.0)

    def test_one_output_per_run_and_unit_norms(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(30, 4))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        labels = np.repeat([0, 1, 0, 2], [8, 7, 9, 6])
        got = sp.segment_pool(ad.Tensor(rows), labels)
        assert got.labels.tolist() == [0, 1, 0, 2]
        np.testing.assert_allclose(
            np.linalg.norm(got.embeddings.values, axis=1), 1.0, atol=1e-9)
        assert graph_ops(got.embeddings) == ["leaf", "mean_rows",
                                             "l2_normalize"]


class TestBuildExampleSet:
    def test_empty_plan_materializes_nothing(self):
        projected = ad.Tensor(np.eye(4))
        got = sp.sample_pool(projected, {})
        assert len(got) == 0
        assert got.embeddings.shape == (0, 4)

    def test_zero_rows_excluded(self):
        rows = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        got = sp.sample_pool(ad.Tensor(rows), {0: np.array([0, 1]),
                                               3: np.array([2])})
        assert len(got) == 2
        assert got.labels.tolist() == [0, 3]
        np.testing.assert_array_equal(got.embeddings.values, rows[[0, 2]])
        assert graph_ops(got.embeddings) == ["leaf", "row"]

    def test_sizes_match_procedure_enumeration(self):
        rng = np.random.default_rng(7)
        labels = np.repeat([0, 1, 2, 1, 0], 10)
        predictions = labels.copy()
        predictions[rng.integers(0, 50, size=12)] = rng.integers(0, 3, size=12)
        rows = rng.normal(size=(50, 5))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        samples, segments = sp.build_example_set(
            ad.Tensor(rows), predictions, labels, np.random.default_rng(8),
            k_per_class=6, boundary_radius=2, include_segments=True)
        # no zero rows here, so per class exactly min(k, population) samples
        want = sum(min(6, int(np.sum(labels == c))) for c in np.unique(labels))
        assert len(samples) == want
        assert len(segments) == 5
        assert samples.embeddings.shape == (want, 5)
        assert segments.embeddings.shape == (5, 5)
        assert segments.labels.tolist() == [0, 1, 2, 1, 0]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 3, size=40)
        predictions = rng.integers(0, 3, size=40)
        rows = rng.normal(size=(40, 4))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        kwargs = dict(k_per_class=16, boundary_radius=2,
                      include_segments=True)
        a_s, a_g = sp.build_example_set(ad.Tensor(rows), predictions, labels,
                                        np.random.default_rng(11), **kwargs)
        b_s, b_g = sp.build_example_set(ad.Tensor(rows), predictions, labels,
                                        np.random.default_rng(11), **kwargs)
        for pa, pb in ((a_s, b_s), (a_g, b_g)):
            np.testing.assert_array_equal(pa.labels, pb.labels)
            assert (pa.embeddings.values.tobytes()
                    == pb.embeddings.values.tobytes())
