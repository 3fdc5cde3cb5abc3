"""Dataset ingestion, normalization, windowing, and a synthetic generator.

The canonical on-disk form is one CSV per recording: header
``ch_0,...,ch_{D-1},label[,subject]``, one sample per row at a fixed
implicit rate.  The synthetic generator produces class-conditional
multichannel sinusoids with noisy transitions: labels switch instantly at
segment boundaries while features cross-fade linearly, so windows that
straddle a boundary genuinely mix two activities.
"""

import csv
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np


@dataclass
class SensorSequence:
    features: np.ndarray
    labels: np.ndarray
    subject_id: int | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be T x D")
        if len(self.labels) != len(self.features):
            raise ValueError("labels length must equal feature row count")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")

    def __len__(self):
        return len(self.labels)


@dataclass(frozen=True)
class SynthConfig:
    num_classes: int
    dim: int
    frequencies: np.ndarray   # class x channel, Hz
    amplitudes: np.ndarray
    offsets: np.ndarray
    noise_std: float = 0.3
    dwell_min: int = 100
    dwell_max: int = 300
    transition_blur: int = 5
    total_length: int = 2000
    sample_rate_hz: float = 50.0
    seed: int = 0

    def __post_init__(self):
        for name in ("frequencies", "amplitudes", "offsets"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, arr)
            if arr.shape != (self.num_classes, self.dim):
                raise ValueError(f"{name} must be num_classes x dim")
        if self.num_classes < 1 or self.dim < 1 or self.total_length < 1:
            raise ValueError("num_classes, dim, total_length must be >= 1")
        if not (1 <= self.dwell_min <= self.dwell_max):
            raise ValueError("need 1 <= dwell_min <= dwell_max")
        if np.any(self.frequencies <= 0):
            raise ValueError("frequencies must be positive")
        if self.noise_std < 0 or self.transition_blur < 0:
            raise ValueError("noise_std and transition_blur must be >= 0")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")


def default_synth_config(num_classes: int = 5, dim: int = 6,
                         signal_seed: int = 7, **overrides) -> SynthConfig:
    """Per-class signal banks drawn once from signal_seed.

    Classes differ in frequency, amplitude, and offset per channel, which
    keeps them separable yet overlapping enough that boundaries are hard.
    """
    rng = np.random.default_rng(signal_seed)
    shape = (num_classes, dim)
    return SynthConfig(
        num_classes=num_classes, dim=dim,
        frequencies=rng.uniform(0.5, 5.0, size=shape),
        amplitudes=rng.uniform(0.5, 2.0, size=shape),
        offsets=rng.uniform(-1.5, 1.5, size=shape),
        **overrides)


def synthesize_sequence(config: SynthConfig) -> SensorSequence:
    rng = np.random.default_rng(config.seed)
    t_total = config.total_length
    c = config.num_classes

    # label path: uniform dwell per run, next class never repeats
    run_classes, run_starts = [], []
    t = 0
    current = int(rng.integers(0, c))
    while t < t_total:
        run_classes.append(current)
        run_starts.append(t)
        t += int(rng.integers(config.dwell_min, config.dwell_max + 1))
        if c > 1:
            step = int(rng.integers(1, c))
            current = (current + step) % c
    run_starts.append(t_total)
    labels = np.empty(t_total, dtype=np.int64)
    for cls, a, b in zip(run_classes, run_starts[:-1], run_starts[1:]):
        labels[a:b] = cls

    # class-conditional signals on a shared time grid
    tgrid = np.arange(t_total) / config.sample_rate_hz
    bank = (config.amplitudes[:, :, None]
            * np.sin(2.0 * np.pi * config.frequencies[:, :, None] * tgrid)
            + config.offsets[:, :, None])          # class x channel x time
    features = bank[labels, :, np.arange(t_total)]

    blur = config.transition_blur
    if blur > 0:
        for i in range(1, len(run_classes)):
            b = run_starts[i]
            if b >= t_total:
                break
            lo, hi = max(0, b - blur), min(t_total, b + blur)
            alpha = (np.arange(lo, hi) - (b - blur) + 0.5) / (2.0 * blur)
            prev_c, next_c = run_classes[i - 1], run_classes[i]
            features[lo:hi] = ((1.0 - alpha[:, None]) * bank[prev_c, :, lo:hi].T
                               + alpha[:, None] * bank[next_c, :, lo:hi].T)

    if config.noise_std > 0:
        features = features + rng.normal(0.0, config.noise_std,
                                         size=features.shape)
    return SensorSequence(features=features, labels=labels)


def write_csv_sequence(path, sequence: SensorSequence):
    """Full-precision export in the canonical column schema."""
    path = Path(path)
    d = sequence.features.shape[1]
    header = [f"ch_{i}" for i in range(d)] + ["label"]
    if sequence.subject_id is not None:
        header.append("subject")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row, label in zip(sequence.features, sequence.labels):
            cells = [format(v, ".17g") for v in row] + [str(int(label))]
            if sequence.subject_id is not None:
                cells.append(str(sequence.subject_id))
            writer.writerow(cells)


def _parse_csv_file(path: Path) -> list[SensorSequence]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None

        feature_cols = [h for h in header if h.startswith("ch_")]
        expected = [f"ch_{i}" for i in range(len(feature_cols))]
        rest = [h for h in header if not h.startswith("ch_")]
        if (feature_cols != expected or not feature_cols
                or rest not in (["label"], ["label", "subject"])):
            raise ValueError(f"{path}: header must be ch_0..ch_(D-1),"
                             f"label[,subject], got {header}")
        d = len(feature_cols)
        has_subject = rest == ["label", "subject"]

        rows, labels, subjects = [], [], []
        for lineno, cells in enumerate(reader, start=2):
            if len(cells) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} "
                                 f"cells, got {len(cells)}")
            # Dropping the row would splice its neighbours into one stream
            # and could fake an activity boundary, so the file is rejected.
            if any(cell.strip() == "" for cell in cells):
                raise ValueError(f"{path}:{lineno}: blank or non-finite cell")
            try:
                values = [float(cell) for cell in cells[:d]]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric feature "
                                 "cell") from None
            if not all(np.isfinite(values)):
                raise ValueError(f"{path}:{lineno}: blank or non-finite cell")
            try:
                label = int(cells[d])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: label {cells[d]!r} is "
                                 "not an integer") from None
            if label < 0:
                raise ValueError(f"{path}:{lineno}: negative label")
            if has_subject:
                try:
                    subjects.append(int(cells[d + 1]))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: subject "
                                     f"{cells[d + 1]!r} is not an "
                                     "integer") from None
            rows.append(values)
            labels.append(label)

    if not rows:
        raise ValueError(f"{path}: no usable rows")
    features = np.array(rows)
    labels = np.array(labels, dtype=np.int64)
    if not has_subject:
        return [SensorSequence(features, labels)]
    subjects = np.array(subjects)
    out = []
    for sid in sorted(set(subjects.tolist())):
        mask = subjects == sid
        out.append(SensorSequence(features[mask], labels[mask],
                                  subject_id=sid))
    return out


def load_csv_dataset(path, expected_dim: int | None = None
                     ) -> list[SensorSequence]:
    """Load one CSV file, or every *.csv in a directory (sorted by name)."""
    path = Path(path)
    files = sorted(path.glob("*.csv")) if path.is_dir() else [path]
    if not files:
        raise ValueError(f"{path}: no csv files found")
    sequences = []
    for f in files:
        sequences.extend(_parse_csv_file(f))
    if expected_dim is not None:
        for seq in sequences:
            if seq.features.shape[1] != expected_dim:
                raise ValueError(f"expected {expected_dim} channels, "
                                 f"got {seq.features.shape[1]}")
    return sequences


@dataclass(frozen=True)
class NormStats:
    mean: np.ndarray
    std: np.ndarray

    def apply(self, features: np.ndarray) -> np.ndarray:
        # constant channels pass through untouched
        scale_ok = self.std >= 1e-12
        out = np.where(scale_ok,
                       (features - self.mean) / np.where(scale_ok, self.std, 1.0),
                       features)
        return out


def normalize_features(train: list[SensorSequence],
                       others: list[SensorSequence]
                       ) -> tuple[list[SensorSequence], list[SensorSequence],
                                  NormStats]:
    """Per-channel z-score with statistics from the train split only."""
    if not train:
        raise ValueError("train split must be non-empty")
    stacked = np.concatenate([s.features for s in train])
    stats = NormStats(mean=stacked.mean(axis=0), std=stacked.std(axis=0))

    def transform(seqs):
        return [replace(s, features=stats.apply(s.features)) for s in seqs]

    return transform(train), transform(others), stats


@dataclass(frozen=True)
class Window:
    features: np.ndarray
    label: int
    is_multiclass: bool


def sliding_windows(sequence: SensorSequence, size: int,
                    stride: int) -> list[Window]:
    """Fixed-size windows with majority labels.

    Majority ties go to the tied label seen latest in the window, which is
    the last sample's label whenever that label is part of the tie.
    """
    t_total = len(sequence)
    if size < 1 or size > t_total:
        raise ValueError(f"window size {size} outside [1, {t_total}]")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    out = []
    for start in range(0, t_total - size + 1, stride):
        window_labels = sequence.labels[start:start + size]
        counts = Counter(window_labels.tolist())
        top = max(counts.values())
        tied = {cls for cls, n in counts.items() if n == top}
        label = next(v for v in reversed(window_labels.tolist()) if v in tied)
        out.append(Window(features=sequence.features[start:start + size],
                          label=label, is_multiclass=len(counts) > 1))
    return out


def multiclass_window_rate(sequence: SensorSequence, size: int,
                           stride: int) -> float:
    windows = sliding_windows(sequence, size, stride)
    return sum(w.is_multiclass for w in windows) / len(windows)


def split_sequences(sequences: list[SensorSequence], policy: str,
                    fractions: tuple[float, float, float] | None = None,
                    val_subjects=(), test_subjects=()):
    """Partition into (train, val, test) without breaking sequences apart."""
    if policy == "fractions":
        if fractions is None or abs(sum(fractions) - 1.0) > 1e-9:
            raise ValueError("fractions must be given and sum to 1")
        n = len(sequences)
        e1 = int(round(n * fractions[0]))
        e2 = int(round(n * (fractions[0] + fractions[1])))
        return sequences[:e1], sequences[e1:e2], sequences[e2:]
    if policy == "by-subject":
        if any(s.subject_id is None for s in sequences):
            raise ValueError("by-subject split needs subject ids on every "
                             "sequence")
        val_subjects = set(val_subjects)
        test_subjects = set(test_subjects)
        # an id that names no sequence would leave its split empty
        unknown = (val_subjects | test_subjects) - {
            s.subject_id for s in sequences}
        if unknown:
            raise ValueError("no sequence has subject id "
                             + ", ".join(sorted(map(str, unknown))))
        train = [s for s in sequences if s.subject_id not in val_subjects
                 and s.subject_id not in test_subjects]
        val = [s for s in sequences if s.subject_id in val_subjects]
        test = [s for s in sequences if s.subject_id in test_subjects]
        return train, val, test
    raise ValueError(f"unknown split policy {policy!r}")
