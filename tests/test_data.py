
import csv
import re
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tempseg import data as dt


@dataclass(frozen=True)
class Window:
    features: np.ndarray
    label: int
    is_multiclass: bool


def sliding_windows(sequence, size: int, stride: int) -> list[Window]:
    """Fixed-size windows with majority labels, enumerated one by one: the
    oracle of `multiclass_window_rate`.

    Majority ties go to the tied label seen latest in the window, which is
    the last sample's label whenever that label is part of the tie.
    """
    if size < 1 or size > len(sequence):
        raise ValueError(f"window size {size} outside [1, {len(sequence)}]")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    out = []
    for start in range(0, len(sequence) - size + 1, stride):
        window_labels = sequence.labels[start:start + size].tolist()
        counts = Counter(window_labels)
        top = max(counts.values())
        tied = {cls for cls, n in counts.items() if n == top}
        label = next(v for v in reversed(window_labels) if v in tied)
        out.append(Window(features=sequence.features[start:start + size],
                          label=label, is_multiclass=len(counts) > 1))
    return out


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

    @pytest.mark.parametrize("key", ["num_classes", "dim"])
    @pytest.mark.parametrize("value", [-1, 0])
    def test_size_below_one_rejected_before_the_draw(self, key, value):
        # a negative size used to reach numpy's `negative dimensions`
        with pytest.raises(ValueError, match="num_classes and dim must be"):
            dt.default_synth_config(**{key: value})

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
        classes, _, _ = dt.label_runs(seq.labels)
        assert len(classes) == 10

    def test_deterministic(self):
        cfg = dt.default_synth_config(total_length=400, seed=9)
        a = dt.synthesize_sequence(cfg)
        b = dt.synthesize_sequence(cfg)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_no_self_transitions(self):
        cfg = dt.default_synth_config(num_classes=4, dim=2, dwell_min=5,
                                      dwell_max=15, total_length=600, seed=4)
        classes, _, _ = dt.label_runs(dt.synthesize_sequence(cfg).labels)
        assert len(classes) > 10
        assert np.all(classes[1:] != classes[:-1])

    def test_crossfade_mixes_adjacent_class_signals(self):
        blur = 4
        cfg = dt.default_synth_config(num_classes=3, dim=2, noise_std=0.0,
                                      transition_blur=blur, dwell_min=60,
                                      dwell_max=90, total_length=400, seed=5)
        seq = dt.synthesize_sequence(cfg)
        classes, starts, _ = dt.label_runs(seq.labels)
        b = starts[1]
        prev_c, next_c = classes[0], classes[1]
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
        classes, starts, _ = dt.label_runs(seq.labels)
        b = starts[1]
        assert seq.labels[b - 1] == classes[0]
        assert seq.labels[b] == classes[1]


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

    def test_subject_id_beyond_float_precision_is_exact(self, tmp_path):
        sid = 2**60 + 1    # float64 would print it as ...976
        seq = dt.SensorSequence(np.ones((3, 2)), np.zeros(3, dtype=int),
                                subject_id=sid)
        dt.write_csv_sequence(tmp_path / "s.csv", seq)
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[1] == f"1,1,0,{sid}"
        assert dt.load_csv_dataset(tmp_path / "s.csv")[0].subject_id == sid

    def test_crlf_file_loads_the_same_arrays(self, tmp_path):
        cfg = dt.default_synth_config(num_classes=3, dim=2, total_length=50,
                                      seed=4)
        seq = dt.synthesize_sequence(cfg)
        seq.subject_id = 3
        dt.write_csv_sequence(tmp_path / "lf.csv", seq)
        text = (tmp_path / "lf.csv").read_bytes()
        assert b"\r" not in text
        (tmp_path / "crlf.csv").write_bytes(text.replace(b"\n", b"\r\n"))
        lf, crlf = (dt.load_csv_dataset(tmp_path / name)[0]
                    for name in ("lf.csv", "crlf.csv"))
        np.testing.assert_array_equal(crlf.features, lf.features)
        np.testing.assert_array_equal(crlf.labels, lf.labels)
        np.testing.assert_array_equal(crlf.features, seq.features)
        assert crlf.subject_id == lf.subject_id == 3


    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 4), rows=st.integers(1, 12),
           subject=st.none() | st.integers(-2**62, 2**62))
    def test_round_trip_is_bitwise_over_extreme_values(self, data, dim, rows,
                                                       subject):
        value = (st.floats(allow_nan=False, allow_infinity=False)
                 | st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e308, -1e308]))
        features = np.array(data.draw(st.lists(
            st.lists(value, min_size=dim, max_size=dim),
            min_size=rows, max_size=rows)))
        labels = np.array(data.draw(st.lists(
            st.integers(0, 2**63 - 1), min_size=rows, max_size=rows)))
        seq = dt.SensorSequence(features, labels, subject_id=subject)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.csv"
            dt.write_csv_sequence(path, seq)
            [loaded] = dt.load_csv_dataset(path)
        assert loaded.features.shape == features.shape
        np.testing.assert_array_equal(loaded.features.view(np.int64),
                                      features.view(np.int64))
        np.testing.assert_array_equal(loaded.labels, labels)
        assert loaded.labels.dtype == np.int64
        assert loaded.subject_id == subject


class TestWriteTable:
    def test_golden_text(self, tmp_path):
        path = tmp_path / "t.csv"
        dt.write_table(path, ["i", "x", "m_0", "m_1"],
                       [np.array([0, -7, 2**60 + 1]),
                        np.array([-0.0, 1e300, 1 / 3]),
                        np.array([[1 / 3, 2.0], [0.5, -1e-300],
                                  [-0.0, 0.1]])])
        assert path.read_bytes() == (
            b"i,x,m_0,m_1\n"
            b"0,-0,0.33333333333333331,2\n"
            b"-7,1.0000000000000001e+300,0.5,-1e-300\n"
            b"1152921504606846977,0.33333333333333331,-0,"
            b"0.10000000000000001\n")

    def test_zero_rows_write_only_the_header(self, tmp_path):
        path = tmp_path / "t.csv"
        dt.write_table(path, ["index", "e_0", "e_1"],
                       [np.arange(0), np.zeros((0, 2))])
        assert path.read_bytes() == b"index,e_0,e_1\n"

    def assert_matches_reference(self, columns):
        """write_table's bytes equal those of each cell through `%` alone."""
        blocks = [np.asarray(c) for c in columns]
        blocks = [b[:, None] if b.ndim == 1 else b for b in blocks]
        header = [f"c_{i}" for i in range(sum(b.shape[1] for b in blocks))]
        lines = [",".join(header)] + [",".join(
            ("%.17g" if b.dtype.kind == "f" else "%d") % v
            for b in blocks for v in b[i].tolist())
            for i in range(len(blocks[0]))]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            dt.write_table(path, header, columns)
            assert path.read_bytes() == "".join(
                line + "\n" for line in lines).encode()

    @settings(max_examples=200, deadline=None)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1,
                         max_size=80),
           width=st.integers(1, 4))
    def test_raw_float64_bit_patterns_print_as_the_reference(self, bits,
                                                             width):
        x = np.array(bits, np.uint64).view(np.float64)
        x = x[:len(x) - len(x) % width].reshape(-1, width)
        self.assert_matches_reference([x])

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.integers(-2**63, 2**63 - 1), min_size=1,
                           max_size=40),
           thousandths=st.lists(st.integers(-10**9, 10**9), min_size=1,
                                max_size=40))
    def test_integers_and_decimal_fractions_print_as_the_reference(
            self, values, thousandths):
        # about 8% of k / 1000 round a 17th digit 9 up, a carry into the
        # digits before it
        self.assert_matches_reference([np.array(values)])
        self.assert_matches_reference([np.array(thousandths) / 1000])

    @pytest.mark.parametrize("values", [
        # signed zeros, infinities, nan and subnormals
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
         2.2250738585072009e-308, 2.2250738585072014e-308, 1e-310],
        # where %g switches between fixed and exponent notation
        [1e-05, 9.9999999999999991e-05, 1e-4, 9.9999999999999984e+16,
         1e16, 1e17, 0.0001, 0.00011, 1.2345678901234567e16],
        # 17-digit roundings that carry through nines, and exact ties
        [0.1859334321617, 0.99509197286897, 0.1 + 0.2, 1 / 3, 2 / 3,
         1000000000000000.25, 1000000000000000.75, 2.0 ** -25,
         3 * 2.0 ** -25, 4503599627370496.5],
        # powers of ten and their neighbours, near and past the fast range
        [10.0 ** k for k in range(-25, 25)]
        + [1.7976931348623157e308, 1e280, 9.9999999999999997e279, 1e-280,
           1.0000000000000001e-280, 1e300, 1e-300],
    ])
    def test_edge_values_print_as_the_reference(self, values):
        x = np.array(values)
        with np.errstate(over="ignore"):        # past the largest float
            x = np.r_[x, -x, np.nextafter(x, 0), np.nextafter(x, np.inf)]
        self.assert_matches_reference([x])

    @pytest.mark.parametrize("bias", [-1e-9, 1e-9])
    def test_a_log10_that_misses_the_exponent_by_one_changes_no_byte(
            self, monkeypatch, bias):
        # floor(log10) then misses by one next to every power of ten: low,
        # 10**17 rounds to 10**16 one exponent up; high, m < 10**16
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + bias)
        x = np.array([10.0 ** k for k in range(-30, 30)])
        self.assert_matches_reference(
            [np.r_[x, -x, np.nextafter(x, 0), np.nextafter(x, np.inf)]])

    def test_integer_extremes_print_as_the_reference(self):
        self.assert_matches_reference([
            np.array([-2**63, 2**63 - 1, 0, -1, 10**18, -10**18]),
            np.array([2**63, 2**64 - 1, 10**19, 0, 1, 2**63 + 1],
                     np.uint64),
            np.array([2**100, -2**70, 3, 0, -(10**40), 2**64], object),
            np.array([True, False, True, True, False, False])])

    @pytest.mark.parametrize("rows", [0, 1, 7, dt.WRITE_BLOCK_ROWS + 5])
    def test_mixed_columns_across_blocks_print_as_the_reference(self, rows):
        rng = np.random.default_rng(rows)
        self.assert_matches_reference([
            np.arange(rows), rng.standard_normal((rows, 3)),
            rng.integers(0, 5, rows), rng.random(rows) ** 30,
            rng.standard_normal((rows, 2)).astype(np.float32),
            rng.integers(-9, 9, (rows, 2)).astype(np.int8)])

    @pytest.mark.parametrize("columns, message", [
        ([np.arange(3), np.zeros(4)], r"column 1 \('b'\) has 4 rows"),
        ([np.arange(3), np.array(["x", "y", "z"])],
         r"column 1 \('b'\) must hold bools, integers or floats"),
        ([np.arange(3), np.array([1, 2.5, 3], object)],
         r"column 1 \('b'\) must hold bools, integers or floats"),
        ([np.zeros((3, 1, 1))], r"column 0 \('a'\) must be a vector"),
    ])
    def test_bad_column_leaves_an_existing_file_as_it_was(
            self, tmp_path, columns, message):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\n1,2\n")
        with pytest.raises(ValueError, match=message):
            dt.write_table(path, ["a", "b"], columns)
        assert path.read_bytes() == b"a,b\n1,2\n"

    def test_bad_column_creates_no_file(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="column 1"):
            dt.write_table(path, ["a", "b"], [np.arange(3), np.zeros(2)])
        assert not path.exists()


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

    def test_first_of_two_non_finite_lines_is_named(self, tmp_path):
        p = self.write(tmp_path, "ch_0,ch_1,label\n1.0,2.0,0\n3.0,inf,1\n"
                                 "5.0,6.0,1\nnan,7.0,0\n")
        with pytest.raises(ValueError,
                           match=r":3: blank or non-finite cell$"):
            dt.load_csv_dataset(p)

    def test_non_finite_cell_is_named_before_a_later_bad_label(
            self, tmp_path):
        p = self.write(tmp_path, "ch_0,ch_1,label\n1.0,2.0,0\n3.0,inf,1\n"
                                 "5.0,6.0,1\n7.0,8.0,-1\n")
        with pytest.raises(ValueError,
                           match=r":3: blank or non-finite cell$"):
            dt.load_csv_dataset(p)

    def test_finite_cells_whose_sum_overflows_load(self, tmp_path):
        p = self.write(tmp_path, "ch_0,ch_1,label\n1e308,1e308,0\n")
        seqs = dt.load_csv_dataset(p)
        np.testing.assert_array_equal(seqs[0].features, [[1e308, 1e308]])

    def test_wrong_cell_count_names_line(self, tmp_path):
        p = self.write(tmp_path, "ch_0,label\n1.0,0\n1.0\n")
        with pytest.raises(ValueError, match=r":3:"):
            dt.load_csv_dataset(p)

    def test_non_numeric_feature_names_line(self, tmp_path):
        p = self.write(tmp_path, "ch_0,label\noops,0\n")
        with pytest.raises(ValueError, match=r":2: non-numeric"):
            dt.load_csv_dataset(p)

    def test_negative_label_names_line(self, tmp_path):
        p = self.write(tmp_path, "ch_0,label\n1.0,0\n2.0,-1\n")
        with pytest.raises(ValueError, match=r":3: negative label$"):
            dt.load_csv_dataset(p)

    def test_symbolic_label_rejected(self, tmp_path):
        p = self.write(tmp_path, "ch_0,label\n1.0,walking\n")
        with pytest.raises(ValueError, match="not an integer"):
            dt.load_csv_dataset(p)

    def test_bad_header_rejected(self, tmp_path):
        # the columns are read by position, so a header that holds the
        # right names in another order used to load label cells as
        # features and feature cells as labels
        for text in ("time,ch_0,label\n0,1.0,0\n",
                     "label,ch_0,ch_1\n1,0.5,7\n0,0.25,9\n",
                     "ch_0,label,ch_1\n0.5,1,7\n0.25,0,9\n",
                     "ch_0,label,ch_1,subject\n0.5,1,7,0\n0.25,0,9,0\n"):
            p = self.write(tmp_path, text)
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


    def test_blank_line_is_rejected_not_skipped(self, tmp_path):
        p = self.write(tmp_path, "ch_0,label\n1.0,0\n\n2.0,1\n")
        with pytest.raises(ValueError, match=r":3: expected 2 cells, got 0$"):
            dt.load_csv_dataset(p)

    def test_comment_line_is_rejected(self, tmp_path):
        p = self.write(tmp_path, "ch_0,label\n1.0,0\n#2.0,1\n")
        with pytest.raises(ValueError, match=r":3: non-numeric feature cell$"):
            dt.load_csv_dataset(p)

    def test_quoted_and_padded_cells_load(self, tmp_path):
        p = self.write(tmp_path, 'ch_0,ch_1,label,subject\n'
                                 '"1.5", 2.5 ,"0", 7\n 1.5 ,-2,+1 ,"7"\n')
        [seq] = dt.load_csv_dataset(p)
        np.testing.assert_array_equal(seq.features, [[1.5, 2.5], [1.5, -2]])
        np.testing.assert_array_equal(seq.labels, [0, 1])
        assert seq.subject_id == 7

    def test_float_label_is_not_an_integer(self, tmp_path):
        p = self.write(tmp_path, "ch_0,label\n1.0,0\n2.0,1.0\n")
        with pytest.raises(ValueError,
                           match=r":3: label '1.0' is not an integer$"):
            dt.load_csv_dataset(p)

    def test_file_without_final_newline_loads(self, tmp_path):
        p = self.write(tmp_path, "ch_0,label\n1.0,0\n2.0,1")
        [seq] = dt.load_csv_dataset(p)
        np.testing.assert_array_equal(seq.features[:, 0], [1.0, 2.0])

    def test_header_only_file_has_no_usable_rows(self, tmp_path):
        p = self.write(tmp_path, "ch_0,label\n")
        with pytest.raises(ValueError, match=r"d\.csv: no usable rows$"):
            dt.load_csv_dataset(p)

    @pytest.mark.parametrize("column,cell", [
        ("label", "9223372036854775808"),
        ("label", "-9223372036854775809"),
        ("subject", "99999999999999999999999"),
    ])
    def test_integer_beyond_int64_names_line(self, tmp_path, column, cell):
        row = {"label": f"1.0,{cell},3", "subject": f"1.0,0,{cell}"}[column]
        p = self.write(tmp_path, f"ch_0,label,subject\n1.0,0,3\n{row}\n")
        with pytest.raises(ValueError, match=rf":3: {column} '{cell}' does "
                                             "not fit in 64 bits$"):
            dt.load_csv_dataset(p)

    def test_int64_extremes_load(self, tmp_path):
        p = self.write(tmp_path, "ch_0,label,subject\n"
                       f"1.0,{2**63 - 1},{-2**63}\n")
        [seq] = dt.load_csv_dataset(p)
        assert seq.labels[0] == 2**63 - 1 and seq.subject_id == -2**63

    # Python's float and int accept these; the array parser does not, and
    # the error names the same cells it rejects.
    @pytest.mark.parametrize("row,message", [
        ("1_000,0", "non-numeric feature cell"),
        ("\u0661,0", "non-numeric feature cell"),
        ("1.0,1_0", "label '1_0' is not an integer"),
        ("1.0,\u0661", "label '\u0661' is not an integer"),
    ])
    def test_cells_outside_the_array_grammar_are_rejected(self, tmp_path,
                                                          row, message):
        p = self.write(tmp_path, f"ch_0,label\n1.0,0\n{row}\n")
        with pytest.raises(ValueError, match=f":3: {message}$"):
            dt.load_csv_dataset(p)

    def test_quote_open_across_lines_is_rejected(self, tmp_path):
        p = self.write(tmp_path, 'ch_0,label\n1.0,0\n"2.0\n",1\n')
        with pytest.raises(ValueError, match=":3: quoted cell runs past"):
            dt.load_csv_dataset(p)

    @pytest.mark.parametrize("text,lineno", [
        (f"ch_0,label\n1.0,0\n{'x' * 200000},1\n", 3),
        (f"ch_0,label{'x' * 200000}\n1.0,0\n", 1),
    ])
    def test_cell_too_long_for_the_row_reader_names_line(self, tmp_path,
                                                          text, lineno):
        # the header goes through the csv reader's field limit; a data
        # line has none, as in loadtxt, so its long cell is just not a
        # number
        p = self.write(tmp_path, text)
        reason = "field larger" if lineno == 1 else "non-numeric feature"
        with pytest.raises(ValueError, match=rf":{lineno}: {reason}"):
            dt.load_csv_dataset(p)

    def test_long_valid_cell_does_not_hide_a_later_bad_line(self, tmp_path):
        cell = "0." + "0" * 199999 + "1"    # 200002 characters, ~1e-200000
        limit = csv.field_size_limit()
        p = self.write(tmp_path, f"ch_0,label\n{cell},0\nx,0\n")
        with pytest.raises(ValueError, match=r":3: non-numeric feature"):
            dt.load_csv_dataset(p)
        assert csv.field_size_limit() == limit
        p = self.write(tmp_path, f"ch_0,label\n{cell},0\n")
        [seq] = dt.load_csv_dataset(p)
        np.testing.assert_array_equal(seq.features, [[0.0]])

    # Lines built from number characters, separators, quotes and spaces.
    LINE = st.text(alphabet='019.-+e_,"\t x\u0661', max_size=12)

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(LINE, min_size=1, max_size=4))
    def test_every_rejection_names_a_line(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "d.csv"
            p.write_text("ch_0,ch_1,label\n" + "\n".join(lines) + "\n")
            try:
                [seq] = dt.load_csv_dataset(p)
            except ValueError as exc:
                match = re.match(rf"{re.escape(str(p))}:(\d+): ", str(exc))
                assert match, str(exc)
                bad = int(match.group(1)) - 2
            else:
                assert len(seq) == len(lines)
                return
            if any('"' in line for line in lines):
                return      # an open quote joins lines: no per-line oracle
            # the named line is the first that fails on its own
            for i, line in enumerate(lines[:bad + 1]):
                p.write_text("ch_0,ch_1,label\n" + line + "\n")
                try:
                    dt.load_csv_dataset(p)
                    assert i < bad
                except ValueError:
                    assert i == bad


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


class TestLabelRuns:
    @staticmethod
    def runs(labels):
        return [a.tolist() for a in dt.label_runs(labels)]

    def test_alternating(self):
        assert self.runs([0, 1, 0, 1]) == [[0, 1, 0, 1], [0, 1, 2, 3],
                                           [1, 2, 3, 4]]

    def test_empty_has_no_runs(self):
        classes, starts, ends = dt.label_runs(np.array([], dtype=np.int64))
        assert classes.size == starts.size == ends.size == 0
        assert starts.dtype.kind == ends.dtype.kind == "i"

    def test_signed_zeros_are_one_run(self):
        assert self.runs([0.0, -0.0, 0.0, 1.0]) == [[0.0, 1.0], [0, 3],
                                                    [3, 4]]


class TestSlidingWindows:
    def test_enumerated_example(self):
        seq = tiny_sequence([0, 0, 0, 1, 1])
        windows = sliding_windows(seq, size=3, stride=1)
        assert len(windows) == 3
        assert [w.is_multiclass for w in windows] == [False, True, True]
        assert dt.multiclass_window_rate(seq, 3, 1) == pytest.approx(2 / 3)

    def test_window_inside_one_run(self):
        seq = tiny_sequence([2] * 6 + [1] * 6)
        w = sliding_windows(seq, 4, 1)[0]
        assert not w.is_multiclass and w.label == 2

    def test_full_length_window(self):
        seq = tiny_sequence([0, 1, 0])
        assert len(sliding_windows(seq, 3, 1)) == 1

    def test_oversized_window_rejected(self):
        with pytest.raises(ValueError, match="size"):
            sliding_windows(tiny_sequence([0, 1]), 3, 1)

    def test_tie_goes_to_last_sample(self):
        assert sliding_windows(tiny_sequence([0, 0, 1, 1]), 4, 1)[0].label == 1
        assert sliding_windows(tiny_sequence([1, 1, 0, 0]), 4, 1)[0].label == 0

    def test_tie_without_last_sample_uses_latest_tied(self):
        # counts {0: 2, 1: 2, 2: 1}; the last sample's class is not tied,
        # so the tie resolves to the tied label seen latest (1 at index 3)
        assert sliding_windows(tiny_sequence([0, 0, 1, 1, 2]), 5, 1)[0].label == 1

    def test_majority_beats_recency(self):
        assert sliding_windows(tiny_sequence([0, 0, 0, 1]), 4, 1)[0].label == 0

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=40),
           st.integers(1, 40), st.integers(1, 5))
    def test_window_count_formula(self, labels, size, stride):
        t = len(labels)
        if size > t:
            size = t
        windows = sliding_windows(tiny_sequence(labels), size, stride)
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


    @settings(max_examples=200, deadline=None)
    @given(labels=st.lists(st.integers(0, 3), min_size=1, max_size=40),
           size=st.integers(1, 40), stride=st.integers(1, 9))
    def test_equals_the_share_of_multiclass_sliding_windows(
            self, labels, size, stride):
        seq = tiny_sequence(labels)
        size = min(size, len(labels))
        windows = sliding_windows(seq, size, stride)
        assert (dt.multiclass_window_rate(seq, size, stride)
                == sum(w.is_multiclass for w in windows) / len(windows))

    @pytest.mark.parametrize("size,stride", [(0, 1), (3, 1), (1, 0)])
    def test_bad_window_rejected_like_sliding_windows(self, size, stride):
        seq = tiny_sequence([0, 1])
        with pytest.raises(ValueError, match="size|stride"):
            dt.multiclass_window_rate(seq, size, stride)


class TestSplitSequences:
    def make(self, n, with_subjects=False):
        return [dt.SensorSequence(np.zeros((4, 1)), np.zeros(4, dtype=int),
                                  subject_id=i if with_subjects else None)
                for i in range(n)]

    def test_all_train(self):
        seqs = self.make(5)
        train, val, test = dt.split_sequences(seqs, train_fraction=1.0,
                                              val_fraction=0.0)
        assert len(train) == 5 and not val and not test

    def test_partition_property(self):
        seqs = self.make(10)
        train, val, test = dt.split_sequences(seqs, train_fraction=0.7,
                                              val_fraction=0.15)
        assert len(train) + len(val) + len(test) == 10
        assert {id(s) for s in train + val + test} == {id(s) for s in seqs}

    def test_by_subject(self):
        seqs = self.make(8, with_subjects=True)
        train, val, test = dt.split_sequences(seqs, val_subjects={5},
                                              test_subjects={6})
        assert [s.subject_id for s in val] == [5]
        assert [s.subject_id for s in test] == [6]
        assert all(s.subject_id not in (5, 6) for s in train)

    @pytest.mark.parametrize("val,test", [((3,), (4,)), ((3,), ()),
                                          ((), (4,))])
    def test_named_subjects_override_the_fractions(self, val, test):
        # the subject lists used to be ignored unless a separate policy
        # key asked for them, so the named subjects went to training
        train, val_split, test_split = dt.split_sequences(
            self.make(5, with_subjects=True), train_fraction=0.8,
            val_fraction=0.1, val_subjects=val, test_subjects=test)
        assert [[s.subject_id for s in split]
                for split in (val_split, test_split)] == [list(val),
                                                         list(test)]
        assert [s.subject_id for s in train] == [
            i for i in range(5) if i not in val + test]

    def test_empty_subject_lists_split_by_the_fractions(self):
        seqs = self.make(10, with_subjects=True)
        train, val, test = dt.split_sequences(seqs, train_fraction=0.8,
                                              val_fraction=0.1)
        assert (train, val, test) == (seqs[:8], seqs[8:9], seqs[9:])

    def test_subject_in_both_val_and_test_rejected(self):
        # it used to land in both splits, so the checkpoint was picked on
        # the test recordings
        with pytest.raises(ValueError, match=r"both val_subjects and "
                                             r"test_subjects: 2, 3$"):
            dt.split_sequences(self.make(5, with_subjects=True),
                               val_subjects=(3, 1, 2), test_subjects=(2, 3))

    def test_missing_subject_ids(self):
        with pytest.raises(ValueError, match="subject ids"):
            dt.split_sequences(self.make(3), val_subjects={1})

    @pytest.mark.parametrize("fractions", [(0.9, 0.3), (1.2, 0.0),
                                           (-0.1, 0.6)])
    def test_fraction_outside_unit_interval_rejected(self, fractions):
        # (0.9, 0.3) used to give a 9/1/0 split
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            dt.split_sequences(self.make(10), train_fraction=fractions[0],
                               val_fraction=fractions[1])

    def test_fractions_are_checked_in_a_subject_split(self):
        # they used to be read only without subject lists, so this split
        # gave train [0, 2], val [1], test []
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            dt.split_sequences(self.make(3, with_subjects=True),
                               train_fraction=7, val_fraction=-3,
                               val_subjects=(1,))

    def test_rounding_slack_in_a_derived_fraction_is_accepted(self):
        # a test share derived as 1 - 0.9 - 0.1 would be -2.8e-17
        train, val, test = dt.split_sequences(
            self.make(10), train_fraction=0.9, val_fraction=0.1)
        assert (len(train), len(val), len(test)) == (9, 1, 0)
