import math

import numpy as np
import pytest

from tempseg import autodiff as ad
from tempseg import losses as ls
from tempseg import model as md
from test_autodiff import unfused_projection_head


def naive_supervised_contrast(embeddings, labels, tau):
    """Per-pair brute force evaluation (oracle)."""
    n = len(labels)
    anchor_terms = []
    for i in range(n):
        pos = [j for j in range(n) if j != i and labels[j] == labels[i]]
        neg = [j for j in range(n) if labels[j] != labels[i]]
        if not pos or not neg:
            continue
        neg_sum = sum(math.exp(np.dot(embeddings[i], embeddings[j]) / tau)
                      for j in neg)
        pair_terms = []
        for j in pos:
            e = math.exp(np.dot(embeddings[i], embeddings[j]) / tau)
            pair_terms.append(-math.log(e / (e + neg_sum)))
        anchor_terms.append(sum(pair_terms) / len(pos))
    return sum(anchor_terms) / len(anchor_terms) if anchor_terms else 0.0


def unit_rows(rng, n, p):
    m = rng.normal(size=(n, p))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def pool(embeddings, labels):
    return ls.ContrastPool(np.asarray(embeddings, dtype=np.float64), labels)


class TestContrastExample:
    """Every row of a ContrastPool is one example: a unit vector and a label."""

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="norm"):
            pool([[1.0, 0.0], [1.0, 1.0]], [0, 1])

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="norm"):
            pool([[1.0, 0.0], [0.0, 0.0]], [0, 0])

    def test_rejects_misaligned_or_negative_labels(self):
        with pytest.raises(ValueError, match="one class label per"):
            pool([[1.0, 0.0], [0.0, 1.0]], [0])
        with pytest.raises(ValueError, match="nonnegative"):
            pool([[1.0, 0.0]], [-1])
        with pytest.raises(ValueError, match="matrix"):
            pool([1.0, 0.0], [0])

    def test_accepts_array_or_tensor(self):
        a = pool([[0.0, 1.0]], [1])
        b = ls.ContrastPool(ad.Tensor([[0.0, 1.0], [1.0, 0.0]]), [1, 2])
        assert isinstance(a.embeddings, ad.Tensor)
        assert len(a) == 1 and len(b) == 2
        assert len(pool(np.zeros((0, 3)), [])) == 0


class TestInfoNce:
    def test_all_similarities_equal(self):
        e = np.array([1.0, 0.0])
        loss = ls.info_nce(e, e, [e, e, e], temperature=1.0)
        assert abs(loss - math.log(4)) < 1e-12

    def test_orthogonal_negative_small_temperature(self):
        a = np.array([1.0, 0.0])
        n = np.array([0.0, 1.0])
        loss = ls.info_nce(a, a, [n], temperature=0.1)
        assert abs(loss - math.log(1 + math.exp(-10))) < 1e-12

    def test_sharper_temperature_reduces_loss(self):
        a = np.array([1.0, 0.0])
        n = np.array([0.0, 1.0])
        assert ls.info_nce(a, a, [n], 0.1) < ls.info_nce(a, a, [n], 1.0)

    def test_strictly_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            vecs = unit_rows(rng, 4, 6)
            assert ls.info_nce(vecs[0], vecs[1], [vecs[2], vecs[3]], 0.5) > 0

    def test_empty_negatives_rejected(self):
        e = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="negative"):
            ls.info_nce(e, e, [], 1.0)

    def test_nonpositive_temperature_rejected(self):
        e = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="temperature"):
            ls.info_nce(e, e, [e], 0.0)

    def test_extreme_temperature_stays_finite(self):
        a = np.array([1.0, 0.0])
        n = np.array([-1.0, 0.0])
        assert math.isfinite(ls.info_nce(a, n, [a], temperature=1e-3))

    def test_extreme_temperature_equal_similarities(self):
        # every similarity is 1000, where exp overflows unless shifted
        e = np.array([0.0, 1.0])
        loss = ls.info_nce(e, e, [e, e], temperature=1e-3)
        assert abs(loss - math.log(3)) < 1e-12

    def test_matches_the_direct_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n_neg = int(rng.integers(1, 8))
            vecs = unit_rows(rng, n_neg + 2, 5)
            tau = float(rng.uniform(0.1, 2.0))
            sims = [float(vecs[0] @ v) / tau for v in vecs[1:]]
            want = math.log(sum(math.exp(s) for s in sims)) - sims[0]
            got = ls.info_nce(vecs[0], vecs[1], list(vecs[2:]), tau)
            assert abs(got - want) < 1e-12


class TestSupervisedContrast:
    def test_two_identical_vs_one_orthogonal(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        loss = ls.supervised_contrast([pool([u, u, v], [0, 0, 1])],
                                      temperature=1.0)
        assert abs(loss.item() - math.log(1 + math.exp(-1))) < 1e-12

    def test_single_class_returns_zero(self):
        rng = np.random.default_rng(1)
        diag = {}
        loss = ls.supervised_contrast([pool(unit_rows(rng, 5, 4), [2] * 5)],
                                      0.5, diag)
        assert loss.item() == 0.0
        assert diag["skipped_anchors"] == 5

    def test_empty_pool_returns_zero(self):
        assert ls.supervised_contrast([], 1.0).item() == 0.0
        empty = pool(np.zeros((0, 3)), [])
        diag = {}
        assert ls.supervised_contrast([empty, []], 1.0, diag).item() == 0.0
        assert diag == {"anchors": 0, "skipped_anchors": 0}

    def test_matches_bruteforce_on_random_pools(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            n = int(rng.integers(2, 12))
            embeddings = unit_rows(rng, n, 5)
            labels = rng.integers(0, 3, size=n)
            got = ls.supervised_contrast(
                [pool(embeddings, labels)], 0.3).item()
            want = naive_supervised_contrast(embeddings, labels, 0.3)
            assert abs(got - want) < 1e-10, f"trial {trial}"

    def test_permutation_invariant_bitwise(self):
        rng = np.random.default_rng(3)
        embeddings = unit_rows(rng, 8, 4)
        labels = [0, 1, 0, 2, 1, 2, 0, 1]
        base = ls.supervised_contrast([pool(embeddings, labels)], 0.2).item()
        for _ in range(5):
            perm = rng.permutation(8)
            shuffled = pool(embeddings[perm], np.array(labels)[perm])
            assert ls.supervised_contrast([shuffled], 0.2).item() == base

    def test_class_relabeling_invariant(self):
        rng = np.random.default_rng(4)
        embeddings = unit_rows(rng, 7, 4)
        labels = np.array([0, 1, 0, 2, 1, 2, 0])
        base = ls.supervised_contrast([pool(embeddings, labels)], 0.4).item()
        remap = {0: 5, 1: 9, 2: 7}
        relabeled = [remap[int(c)] for c in labels]
        got = ls.supervised_contrast([pool(embeddings, relabeled)], 0.4).item()
        assert abs(got - base) < 1e-12

    def test_anchor_without_positive_skipped(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        w = np.array([-1.0, 0.0])
        diag = {}
        ls.supervised_contrast([pool([u, u, v, w], [0, 0, 1, 2])], 1.0, diag)
        assert diag["skipped_anchors"] == 2

    def test_gradient_flows_to_embeddings(self):
        rng = np.random.default_rng(5)
        raw = ad.Tensor(rng.normal(size=(6, 4)))

        def f(params):
            normed = ad.l2_normalize(params[0])
            return ls.supervised_contrast(
                [ls.ContrastPool(normed, np.arange(6) % 2)], 0.5)

        assert ad.grad_check(f, [raw], eps=1e-3) < 1e-4


class TestMultilevelContrast:
    """supervised_contrast over a sample pool and a segment pool."""

    def test_empty_segments_bitwise_equal(self):
        rng = np.random.default_rng(6)
        samples = pool(unit_rows(rng, 6, 4), [0, 1, 0, 1, 2, 2])
        b = ls.supervised_contrast([samples], 0.3).item()
        assert ls.supervised_contrast((samples, []), 0.3).item() == b
        empty = pool(np.zeros((0, 4)), [])
        assert ls.supervised_contrast((samples, empty), 0.3).item() == b

    def test_row_order_invariant_bitwise_across_levels(self):
        rng = np.random.default_rng(10)
        emb = unit_rows(rng, 9, 4)
        labels = np.array([0, 1, 0, 2, 1, 2, 0, 1, 2])
        base = ls.supervised_contrast((pool(emb[:6], labels[:6]),
                                       pool(emb[6:], labels[6:])), 0.2).item()
        for _ in range(5):
            a, b = rng.permutation(6), 6 + rng.permutation(3)
            got = ls.supervised_contrast((pool(emb[a], labels[a]),
                                          pool(emb[b], labels[b])), 0.2)
            assert got.item() == base

    def test_segment_equal_to_duplicated_sample(self):
        rng = np.random.default_rng(7)
        emb = unit_rows(rng, 4, 4)
        labels = [0, 0, 1, 1]
        as_segment = ls.supervised_contrast(
            (pool(emb, labels), pool(emb[:1], [0])), 0.5)
        as_sample = ls.supervised_contrast(
            [pool(np.vstack([emb, emb[:1]]), labels + [0])], 0.5)
        assert abs(as_segment.item() - as_sample.item()) < 1e-12

    def test_four_example_hand_case(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        loss = ls.supervised_contrast(
            (pool([u, v], [0, 1]), pool([u, v], [0, 1])), temperature=1.0)
        # every anchor: one positive at sim 1, two negatives at sim 0
        want = -math.log(math.e / (math.e + 2.0))
        assert abs(loss.item() - want) < 1e-12

    def test_cross_level_pairs_counted(self):
        rng = np.random.default_rng(8)
        emb = unit_rows(rng, 3, 4)
        got = ls.supervised_contrast((pool(emb[:2], [0, 1]),
                                      pool(emb[2:], [0])), 0.3).item()
        want = naive_supervised_contrast(emb, [0, 1, 0], 0.3)
        assert abs(got - want) < 1e-10


def forward_with_examples(cfg, params, x, labels, rng):
    outs = md.mstcn_forward(x, params, cfg, project=True)
    sets = []
    for out in outs:
        normed = out.projected
        idx = np.array([i for i in range(0, len(labels), 3)
                        if np.linalg.norm(normed.values[i]) > 0.5])
        sets.append((ls.ContrastPool(ad.row(normed, idx), labels[idx]), []))
    return outs, sets


class TestTotalObjective:
    def setup_method(self):
        self.cfg = md.ModelConfig(input_dim=3, num_classes=3, num_stages=2,
                                  layers_per_stage=1, hidden_channels=6,
                                  projection_dim=4, kernel_size=3)
        self.params = md.init_params(self.cfg, seed=0)
        rng = np.random.default_rng(9)
        self.x = rng.normal(size=(18, 3))
        self.labels = rng.integers(0, 3, size=18)

    def test_zero_weight_equals_plain_cross_entropy_sum(self):
        outs, sets = forward_with_examples(self.cfg, self.params, self.x,
                                           self.labels, None)
        loss, breakdown = ls.total_objective([o.logits for o in outs],
                                             self.labels, sets,
                                             contrast_weight=0.0,
                                             temperature=0.1)
        assert loss.item() == sum(breakdown.classification)
        assert breakdown.contrast == [0.0, 0.0]

    def test_breakdown_total_invariant(self):
        outs, sets = forward_with_examples(self.cfg, self.params, self.x,
                                           self.labels, None)
        loss, breakdown = ls.total_objective([o.logits for o in outs],
                                             self.labels, sets,
                                             contrast_weight=0.7,
                                             temperature=0.1)
        want = sum(c + 0.7 * k for c, k in zip(breakdown.classification,
                                               breakdown.contrast))
        assert abs(loss.item() - want) < 1e-12
        assert breakdown.total == loss.item()

    def test_perfect_logits_and_empty_sets_vanish(self):
        labels = np.array([0, 1, 2, 1, 0])
        logits = np.full((5, 3), -300.0)
        logits[np.arange(5), labels] = 300.0
        loss, _ = ls.total_objective([ad.Tensor(logits)], labels,
                                     [([], [])], 1.0, 0.1)
        assert abs(loss.item()) < 1e-6

    def test_stage_count_mismatch(self):
        outs, sets = forward_with_examples(self.cfg, self.params, self.x,
                                           self.labels, None)
        with pytest.raises(ValueError, match="per stage"):
            ls.total_objective([o.logits for o in outs], self.labels,
                               sets[:1], 1.0, 0.1)

    def test_gradient_passes_finite_difference_check(self):
        from tempseg.gradcheck_suite import check_full_objective
        assert check_full_objective() < 1e-4


def unfused_sstcn_forward(x, stage):
    """sstcn_forward with each residual block as four recorded ops."""
    h = ad.conv1d_dilated(x, stage.adapter_w, stage.adapter_b, 1)
    for i, blk in enumerate(stage.blocks):
        pre = ad.relu(ad.conv1d_dilated(h, blk.dilated_w, blk.dilated_b,
                                        2 ** i))
        h = ad.add(h, ad.conv1d_dilated(pre, blk.mix_w, blk.mix_b, 1))
    return h


class TestKinkSearch:
    def test_sees_the_relus_inside_residual_blocks(self, monkeypatch):
        # the block relus hold the smallest margin of this instance; a
        # search blind to them accepts an earlier, kinkier seed
        from tempseg import gradcheck_suite as gs
        inst = gs.build_full_objective_instance(0)
        assert inst["seed"] == 21
        args = (inst["cfg"], inst["params"], inst["x"], inst["labels"],
                inst["plans"])
        fused, _ = gs._build_objective_loss(*args)
        monkeypatch.setattr(md, "sstcn_forward", unfused_sstcn_forward)
        unfused, _ = gs._build_objective_loss(*args)
        assert "residual_block" not in {
            n._op for n in ad.CompGraph.from_output(unfused).nodes}
        assert fused.values == unfused.values
        assert (gs._graph_kink_margins(fused, inst["params"])
                == gs._graph_kink_margins(unfused, inst["params"]))

    def test_sees_the_relus_and_norms_inside_projection_heads(
            self, monkeypatch):
        # a fused head hides a relu and a normalization; recomputed from
        # its parents, they give the margins of the four-op head
        from tempseg import gradcheck_suite as gs
        inst = gs.build_full_objective_instance(0)
        args = (inst["cfg"], inst["params"], inst["x"], inst["labels"],
                inst["plans"])
        fused, _ = gs._build_objective_loss(*args)
        monkeypatch.setattr(md, "project", lambda features, stage:
                            unfused_projection_head(
                                features, stage.proj_hidden_w,
                                stage.proj_hidden_b, stage.proj_out_w,
                                stage.proj_out_b))
        unfused, _ = gs._build_objective_loss(*args)
        assert "projection_head" in {
            n._op for n in ad.CompGraph.from_output(fused).nodes}
        assert "projection_head" not in {
            n._op for n in ad.CompGraph.from_output(unfused).nodes}
        assert fused.values.tobytes() == unfused.values.tobytes()
        assert (gs._graph_kink_margins(fused, inst["params"])
                == gs._graph_kink_margins(unfused, inst["params"]))

    # seed_starts 0..200 accept seeds 21, 57, 110 (from 58 and from 98)
    # and 200
    @pytest.mark.parametrize("seed_start", [0, 22, 58, 98, 111])
    def test_accepted_rows_and_runs_clear_the_norm_margin(self, seed_start):
        # the graph check alone keeps every raw projection row (recomputed
        # inside each head) and every segment mean off the normalization
        # kink
        from tempseg import gradcheck_suite as gs
        inst = gs.build_full_objective_instance(seed_start)
        loss, _ = gs._build_objective_loss(inst["cfg"], inst["params"],
                                           inst["x"], inst["labels"],
                                           inst["plans"])
        nodes = ad.CompGraph.from_output(loss).nodes
        heads = [gs._head_preactivations(*node._parents)[1] for node in nodes
                 if node._op == "projection_head"]
        means = [node._parents[0] for node in nodes
                 if node._op == "l2_normalize"]
        stages = inst["cfg"].num_stages
        assert len(heads) == stages
        assert [m._op for m in means] == ["mean_rows"] * stages
        for raw in heads + [m.values for m in means]:
            assert np.linalg.norm(raw, axis=1).min() > gs._NORM_MARGIN

    # seed 97 (norm margin 0.307) differences with error 6.4e-4, falling
    # as EPS^2, so truncation; a _NORM_MARGIN of 0.35 rejects it
    @pytest.mark.parametrize("seed_start", [0, 22, 58, 98, 111])
    def test_accepted_instances_pass_the_gradcheck(self, seed_start):
        from tempseg import gradcheck_suite as gs
        assert gs.check_full_objective(seed_start) < 1e-4
