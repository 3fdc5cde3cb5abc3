
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tempseg import data as dt
from tempseg.sampling import labels_to_segments


def tiny_sequence(labels):
    labels = np.asarray(labels)
    return dt.SensorSequence(features=np.zeros((len(labels), 2)),
                             labels=labels)


class TestSensorSequence:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            dt.SensorSequence(np.array([[np.nan, 1.0]]), np.array([0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            dt.SensorSequence(np.zeros((3, 2)), np.array([0, 1]))


class TestSynthConfig:
    def test_dwell_order(self):
        with pytest.raises(ValueError, match="dwell"):
            dt.default_synth_config(dwell_min=10, dwell_max=5)

    def test_positive_frequencies(self):
        cfg = dt.default_synth_config(num_classes=2, dim=2)
        with pytest.raises(ValueError, match="frequencies"):
            dt.SynthConfig(num_classes=2, dim=2,
                           frequencies=np.zeros((2, 2)),
                           amplitudes=cfg.amplitudes[:2, :2],
                           offsets=cfg.offsets[:2, :2])

    def test_signal_bank_shapes(self):
        cfg = dt.default_synth_config(num_classes=4, dim=3)
        assert cfg.frequencies.shape == (4, 3)
        assert cfg.amplitudes.shape == (4, 3)
        assert cfg.offsets.shape == (4, 3)

    def test_mismatched_bank_rejected(self):
        with pytest.raises(ValueError, match="num_classes x dim"):
            dt.SynthConfig(num_classes=3, dim=2,
                           frequencies=np.ones((2, 2)),
                           amplitudes=np.ones((2, 2)),
                           offsets=np.ones((2, 2)))


class TestSynthesizeSequence:
    def test_single_class_pure_sinusoid(self):
        cfg = dt.SynthConfig(num_classes=1, dim=2,
                             frequencies=np.array([[1.0, 2.5]]),
                             amplitudes=np.array([[1.5, 0.5]]),
                             offsets=np.array([[0.2, -0.3]]),
                             noise_std=0.0, transition_blur=0,
                             dwell_min=40, dwell_max=60,
                             total_length=200, sample_rate_hz=50.0, seed=3)
        seq = synthesized = dt.synthesize_sequence(cfg)
        t = np.arange(200) / 50.0
        for d in range(2):
            want = (cfg.amplitudes[0, d]
                    * np.sin(2 * np.pi * cfg.frequencies[0, d] * t)
                    + cfg.offsets[0, d])
            np.testing.assert_array_equal(synthesized.features[:, d], want)
        assert np.all(seq.labels == 0)

    def test_fixed_dwell_run_count(self):
        cfg = dt.default_synth_config(num_classes=3, dim=2, dwell_min=50,
                                      dwell_max=50, total_length=500,
                                      noise_std=0.0, transition_blur=0, seed=1)
        seq = dt.synthesize_sequence(cfg)
        assert len(labels_to_segments(seq.labels)) == 10

    def test_deterministic(self):
        cfg = dt.default_synth_config(total_length=400, seed=9)
        a = dt.synthesize_sequence(cfg)
        b = dt.synthesize_sequence(cfg)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_no_self_transitions(self):
        cfg = dt.default_synth_config(num_classes=4, dim=2, dwell_min=5,
                                      dwell_max=15, total_length=600, seed=4)
        runs = labels_to_segments(dt.synthesize_sequence(cfg).labels)
        assert len(runs) > 10
        for a, b in zip(runs[:-1], runs[1:]):
            assert a.class_label != b.class_label

    def test_crossfade_mixes_adjacent_class_signals(self):
        blur = 4
        cfg = dt.default_synth_config(num_classes=3, dim=2, noise_std=0.0,
                                      transition_blur=blur, dwell_min=60,
                                      dwell_max=90, total_length=400, seed=5)
        seq = dt.synthesize_sequence(cfg)
        runs = labels_to_segments(seq.labels)
        b = runs[1].start
        prev_c, next_c = runs[0].class_label, runs[1].class_label
        t = np.arange(400) / cfg.sample_rate_hz

        def signal(c, idx):
            return (cfg.amplitudes[c] * np.sin(2 * np.pi * cfg.frequencies[c]
                                               * t[idx]) + cfg.offsets[c])

        for i in range(b - blur, b + blur):
            alpha = (i - (b - blur) + 0.5) / (2 * blur)
            want = (1 - alpha) * signal(prev_c, i) + alpha * signal(next_c, i)
            np.testing.assert_allclose(seq.features[i], want, atol=1e-12)
        # outside the blur zone the signal is the pure class signal
        np.testing.assert_allclose(seq.features[b - blur - 1],
                                   signal(prev_c, b - blur - 1), atol=1e-12)

    def test_labels_switch_instantly_despite_blur(self):
        cfg = dt.default_synth_config(num_classes=3, dim=2, transition_blur=6,
                                      dwell_min=50, dwell_max=80,
                                      total_length=300, seed=6)
        seq = dt.synthesize_sequence(cfg)
        runs = labels_to_segments(seq.labels)
        b = runs[1].start
        assert seq.labels[b - 1] == runs[0].class_label
        assert seq.labels[b] == runs[1].class_label


class TestCsvRoundTrip:
    def test_write_then_load_is_exact(self, tmp_path):
        cfg = dt.default_synth_config(num_classes=3, dim=4, total_length=150,
                                      seed=11)
        seq = dt.synthesize_sequence(cfg)
        dt.write_csv_sequence(tmp_path / "a.csv", seq)
        loaded = dt.load_csv_dataset(tmp_path / "a.csv")
        assert len(loaded) == 1
        np.testing.assert_array_equal(loaded[0].features, seq.features)
        np.testing.assert_array_equal(loaded[0].labels, seq.labels)

    def test_subject_column_round_trip(self, tmp_path):
        seq = dt.SensorSequence(np.ones((5, 2)), np.zeros(5, dtype=int),
                                subject_id=7)
        dt.write_csv_sequence(tmp_path / "s.csv", seq)
        loaded = dt.load_csv_dataset(tmp_path / "s.csv")
        assert loaded[0].subject_id == 7


class TestLoadCsvDataset:
    def write(self, tmp_path, text, name="d.csv"):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_well_formed(self, tmp_path):
        p = self.write(tmp_path,
                       "ch_0,ch_1,label\n1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,1\n")
        seqs = dt.load_csv_dataset(p)
        assert len(seqs) == 1 and len(seqs[0]) == 3
        np.testing.assert_array_equal(seqs[0].labels, [0, 1, 1])

    # A gap is an error, not a dropped row: dropping it would splice the
    # samples on either side into one stream.
    def test_missing_cell_dropped_and_reported(self, tmp_path):
        for body in ("1.0,0\n,1\n2.0,1\n", "1.0,0\n3.0, \n2.0,1\n"):
            p = self.write(tmp_path, "ch_0,label\n" + body)
            with pytest.raises(ValueError,
                               match=r":3: blank or non-finite cell$"):
                dt.load_csv_dataset(p)

    def test_nonfinite_cell_dropped(self, tmp_path):
        for cell in ("nan", "inf", "-inf"):
            p = self.write(tmp_path, f"ch_0,label\n{cell},0\n2.0,1\n")
            with pytest.raises(ValueError,
                               match=r":2: blank or non-finite cell$"):
                dt.load_csv_dataset(p)

    def test_wrong_cell_count_names_line(self, tmp_path):
        p = self.write(tmp_path, "ch_0,label\n1.0,0\n1.0\n")
        with pytest.raises(ValueError, match=r":3:"):
            dt.load_csv_dataset(p)

    def test_non_numeric_feature_names_line(self, tmp_path):
        p = self.write(tmp_path, "ch_0,label\noops,0\n")
        with pytest.raises(ValueError, match=r":2: non-numeric"):
            dt.load_csv_dataset(p)

    def test_symbolic_label_rejected(self, tmp_path):
        p = self.write(tmp_path, "ch_0,label\n1.0,walking\n")
        with pytest.raises(ValueError, match="not an integer"):
            dt.load_csv_dataset(p)

    def test_bad_header_rejected(self, tmp_path):
        p = self.write(tmp_path, "time,ch_0,label\n0,1.0,0\n")
        with pytest.raises(ValueError, match="header"):
            dt.load_csv_dataset(p)

    def test_subject_column_groups(self, tmp_path):
        p = self.write(tmp_path, "ch_0,label,subject\n"
                       "1.0,0,1\n2.0,0,2\n3.0,1,1\n4.0,1,2\n")
        seqs = dt.load_csv_dataset(p)
        assert [s.subject_id for s in seqs] == [1, 2]
        np.testing.assert_array_equal(seqs[0].features[:, 0], [1.0, 3.0])

    def test_directory_load_sorted(self, tmp_path):
        self.write(tmp_path, "ch_0,label\n2.0,0\n", "b.csv")
        self.write(tmp_path, "ch_0,label\n1.0,0\n", "a.csv")
        seqs = dt.load_csv_dataset(tmp_path)
        assert [s.features[0, 0] for s in seqs] == [1.0, 2.0]

    def test_expected_dim_checked(self, tmp_path):
        p = self.write(tmp_path, "ch_0,ch_1,label\n1.0,2.0,0\n")
        with pytest.raises(ValueError, match="channels"):
            dt.load_csv_dataset(p, expected_dim=3)


class TestNormalizeFeatures:
    def test_z_score_definition(self):
        feats = np.array([[3.0], [5.0], [7.0]])
        train = [dt.SensorSequence(feats, np.zeros(3, dtype=int))]
        other = [dt.SensorSequence(np.array([[7.0]]), np.zeros(1, dtype=int))]
        train_n, other_n, stats = dt.normalize_features(train, other)
        assert stats.mean[0] == 5.0
        # value 7 sits one train std above the train mean
        np.testing.assert_allclose(other_n[0].features[0, 0],
                                   (7.0 - 5.0) / feats.std())

    def test_constant_channel_passthrough(self):
        feats = np.column_stack([np.full(10, 4.2),
                                 np.random.default_rng(0).normal(size=10)])
        train = [dt.SensorSequence(feats, np.zeros(10, dtype=int))]
        train_n, _, _ = dt.normalize_features(train, [])
        np.testing.assert_array_equal(train_n[0].features[:, 0], 4.2)

    def test_train_statistics_after_normalization(self):
        rng = np.random.default_rng(1)
        train = [dt.SensorSequence(rng.normal(5.0, 3.0, size=(400, 4)),
                                   np.zeros(400, dtype=int)) for _ in range(3)]
        train_n, _, _ = dt.normalize_features(train, [])
        stacked = np.concatenate([s.features for s in train_n])
        np.testing.assert_allclose(stacked.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(stacked.std(axis=0), 1.0, atol=1e-9)

    def test_stats_ignore_other_splits(self):
        rng = np.random.default_rng(2)
        train = [dt.SensorSequence(rng.normal(size=(50, 2)),
                                   np.zeros(50, dtype=int))]
        _, _, stats_a = dt.normalize_features(train, [])
        wild = [dt.SensorSequence(rng.normal(100.0, 50.0, size=(50, 2)),
                                  np.zeros(50, dtype=int))]
        _, _, stats_b = dt.normalize_features(train, wild)
        np.testing.assert_array_equal(stats_a.mean, stats_b.mean)
        np.testing.assert_array_equal(stats_a.std, stats_b.std)

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            dt.normalize_features([], [])


class TestSlidingWindows:
    def test_enumerated_example(self):
        seq = tiny_sequence([0, 0, 0, 1, 1])
        windows = dt.sliding_windows(seq, size=3, stride=1)
        assert len(windows) == 3
        assert [w.is_multiclass for w in windows] == [False, True, True]
        assert dt.multiclass_window_rate(seq, 3, 1) == pytest.approx(2 / 3)

    def test_window_inside_one_run(self):
        seq = tiny_sequence([2] * 6 + [1] * 6)
        w = dt.sliding_windows(seq, 4, 1)[0]
        assert not w.is_multiclass and w.label == 2

    def test_full_length_window(self):
        seq = tiny_sequence([0, 1, 0])
        assert len(dt.sliding_windows(seq, 3, 1)) == 1

    def test_oversized_window_rejected(self):
        with pytest.raises(ValueError, match="size"):
            dt.sliding_windows(tiny_sequence([0, 1]), 3, 1)

    def test_tie_goes_to_last_sample(self):
        assert dt.sliding_windows(tiny_sequence([0, 0, 1, 1]), 4, 1)[0].label == 1
        assert dt.sliding_windows(tiny_sequence([1, 1, 0, 0]), 4, 1)[0].label == 0

    def test_tie_without_last_sample_uses_latest_tied(self):
        # counts {0: 2, 1: 2, 2: 1}; the last sample's class is not tied,
        # so the tie resolves to the tied label seen latest (1 at index 3)
        assert dt.sliding_windows(tiny_sequence([0, 0, 1, 1, 2]), 5, 1)[0].label == 1

    def test_majority_beats_recency(self):
        assert dt.sliding_windows(tiny_sequence([0, 0, 0, 1]), 4, 1)[0].label == 0

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=40),
           st.integers(1, 40), st.integers(1, 5))
    def test_window_count_formula(self, labels, size, stride):
        t = len(labels)
        if size > t:
            size = t
        windows = dt.sliding_windows(tiny_sequence(labels), size, stride)
        assert len(windows) == (t - size) // stride + 1


class TestMulticlassWindowRate:
    def test_constant_labels(self):
        assert dt.multiclass_window_rate(tiny_sequence([1] * 10), 4, 1) == 0.0

    def test_alternating_labels(self):
        seq = tiny_sequence([0, 1] * 8)
        assert dt.multiclass_window_rate(seq, 2, 1) == 1.0

    @settings(max_examples=60)
    @given(st.lists(st.integers(0, 2), min_size=3, max_size=30))
    def test_nondecreasing_in_size_at_stride_one(self, labels):
        seq = tiny_sequence(labels)
        rates = [dt.multiclass_window_rate(seq, s, 1)
                 for s in range(1, len(labels) + 1)]
        for a, b in zip(rates[:-1], rates[1:]):
            assert b >= a - 1e-15


class TestSplitSequences:
    def make(self, n, with_subjects=False):
        return [dt.SensorSequence(np.zeros((4, 1)), np.zeros(4, dtype=int),
                                  subject_id=i if with_subjects else None)
                for i in range(n)]

    def test_all_train(self):
        seqs = self.make(5)
        train, val, test = dt.split_sequences(seqs, "fractions",
                                              fractions=(1.0, 0.0, 0.0))
        assert len(train) == 5 and not val and not test

    def test_partition_property(self):
        seqs = self.make(10)
        train, val, test = dt.split_sequences(seqs, "fractions",
                                              fractions=(0.7, 0.15, 0.15))
        assert len(train) + len(val) + len(test) == 10
        assert {id(s) for s in train + val + test} == {id(s) for s in seqs}

    def test_by_subject(self):
        seqs = self.make(8, with_subjects=True)
        train, val, test = dt.split_sequences(seqs, "by-subject",
                                              val_subjects={5},
                                              test_subjects={6})
        assert [s.subject_id for s in val] == [5]
        assert [s.subject_id for s in test] == [6]
        assert all(s.subject_id not in (5, 6) for s in train)

    def test_missing_subject_ids(self):
        with pytest.raises(ValueError, match="subject ids"):
            dt.split_sequences(self.make(3), "by-subject", val_subjects={1})

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            dt.split_sequences(self.make(2), "random")

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            dt.split_sequences(self.make(4), "fractions",
                               fractions=(0.5, 0.2, 0.2))
