"""Dataset ingestion, normalization, label runs, windowing, and a synthetic
generator.

The canonical on-disk form is one CSV per recording: header exactly
``ch_0,...,ch_{D-1},label[,subject]``, one sample per row at a fixed
implicit rate.  `write_table` writes every CSV the package produces,
datasets and the CLI's exports alike, with LF line endings, formatting
blocks of rows at once.  The loader also reads CRLF files.  It parses
all rows of a file with one `numpy.loadtxt` call into a structured
array and checks the arrays; only a file that fails goes through the
per-line error path, which names the first bad line and why.  Cells
follow loadtxt's number grammar, not Python's: no underscores, ASCII
digits only.  The synthetic generator produces
class-conditional multichannel sinusoids with noisy transitions: labels
switch instantly at segment boundaries while features cross-fade
linearly, so windows that straddle a boundary genuinely mix two
activities.
"""

import csv
import math
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
        # nan passes every comparison below, and inf zeroes the time grid
        if not (math.isfinite(self.noise_std)
                and math.isfinite(self.sample_rate_hz)):
            raise ValueError("noise_std and sample_rate_hz must be finite")
        for name in ("noise_std", "transition_blur", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")


def default_synth_config(*, num_classes: int = 5, dim: int = 6,
                         signal_seed: int = 7, **overrides) -> SynthConfig:
    """Per-class signal banks drawn once from signal_seed.

    Classes differ in frequency, amplitude, and offset per channel, which
    keeps them separable yet overlapping enough that boundaries are hard.
    `num_classes` and `dim` below 1 are rejected before anything is drawn.
    """
    if signal_seed < 0:
        raise ValueError(f"signal_seed must be >= 0, got {signal_seed}")
    if num_classes < 1 or dim < 1:
        raise ValueError(f"num_classes and dim must be >= 1, got "
                         f"{num_classes} and {dim}")
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
            lo, hi = max(0, b - blur), min(t_total, b + blur)
            alpha = (np.arange(lo, hi) - (b - blur) + 0.5) / (2.0 * blur)
            prev_c, next_c = run_classes[i - 1], run_classes[i]
            features[lo:hi] = ((1.0 - alpha[:, None]) * bank[prev_c, :, lo:hi].T
                               + alpha[:, None] * bank[next_c, :, lo:hi].T)

    if config.noise_std > 0:
        features = features + rng.normal(0.0, config.noise_std,
                                         size=features.shape)
    return SensorSequence(features=features, labels=labels)


# Rows per `%` in write_table: a block's text is held at once, the file's never.
WRITE_BLOCK_ROWS = 4096


def write_table(path, header, columns):
    """A CSV file: one header line, then one LF-terminated line per row.

    Each column is a vector, or a matrix that fills several cells per row.
    Float columns print with %.17g, which round-trips float64; any other
    column prints with %d.  The cells go through an object array, so an
    integer prints exactly at any size.  Each block of WRITE_BLOCK_ROWS
    rows is formatted by one `%` over its flattened cells.
    """
    blocks = [np.asarray(c) for c in columns]
    blocks = [b[:, None] if b.ndim == 1 else b for b in blocks]
    row = ",".join("%.17g" if b.dtype.kind == "f" else "%d"
                   for b in blocks for _ in range(b.shape[1])) + "\n"
    rows = len(blocks[0])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, WRITE_BLOCK_ROWS):
            cells = np.hstack([b[start:start + WRITE_BLOCK_ROWS].astype(object)
                               for b in blocks])
            fh.write(row * len(cells) % tuple(cells.ravel()))


def _csv_header(d: int, subject: bool) -> list[str]:
    """The columns of a recording CSV: ch_0..ch_(D-1),label[,subject]."""
    return ([f"ch_{i}" for i in range(d)] + ["label"]
            + (["subject"] if subject else []))


def write_csv_sequence(path, sequence: SensorSequence):
    """Full-precision export in the canonical column schema."""
    columns = [sequence.features, sequence.labels]
    if sequence.subject_id is not None:
        columns.append(np.full(len(sequence), sequence.subject_id))
    write_table(path, _csv_header(sequence.features.shape[1],
                                  sequence.subject_id is not None), columns)


def _parse_rows(lines: list[str], dtype: np.dtype):
    """The rows as one structured array, or None if any row is unusable.

    A usable file has one row per line (loadtxt skips blank lines, and a
    quote left open joins two lines into one row), finite features and
    non-negative labels.
    """
    if not any(lines):      # loadtxt warns on a file without rows
        return None
    try:
        table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                           quotechar='"', ndmin=1)
    except ValueError:
        return None
    if (len(table) != len(lines) or not np.isfinite(table["features"]).all()
            or (table["label"] < 0).any()):
        return None
    return table


def _number_text(cell: str) -> str:
    """A cell's stripped text, if loadtxt's number grammar can accept it.

    Python's `float` and `int` also take underscores and non-ASCII digits;
    loadtxt takes neither.
    """
    text = cell.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a number: {cell!r}")
    return text


def _raise_first_bad_line(path: Path, lines: list[str], columns: list[str],
                          d: int):
    """Name the first line that `_parse_rows` cannot use, and why."""
    width = len(columns)
    reader = csv.reader(lines)
    # loadtxt has no field limit: lift the reader's (131072 by default) to
    # the length of the whole text while it reads
    caller_limit = csv.field_size_limit(sum(map(len, lines)) + len(lines))
    try:
        for lineno, cells in enumerate(reader, start=2):
            if reader.line_num != lineno - 1:
                raise ValueError(f"{path}:{lineno}: quoted cell runs past "
                                 "the end of the line")
            if len(cells) != width:
                raise ValueError(f"{path}:{lineno}: expected {width} "
                                 f"cells, got {len(cells)}")
            # Dropping the row would splice its neighbours into one stream
            # and could fake an activity boundary, so the file is rejected.
            if any(cell.strip() == "" for cell in cells):
                raise ValueError(f"{path}:{lineno}: blank or non-finite cell")
            try:
                values = [float(_number_text(cell)) for cell in cells[:d]]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric feature "
                                 "cell") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}:{lineno}: blank or non-finite cell")
            for name, cell in zip(columns[d:], cells[d:]):
                try:
                    value = int(_number_text(cell))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: {name} {cell!r} is "
                                     "not an integer") from None
                if not -2**63 <= value < 2**63:
                    raise ValueError(f"{path}:{lineno}: {name} {cell!r} does "
                                     "not fit in 64 bits")
                if name == "label" and value < 0:
                    raise ValueError(f"{path}:{lineno}: negative label")
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num + 1}: {exc}") from None
    finally:
        csv.field_size_limit(caller_limit)
    # only a file without data lines gets here: the checks above reject
    # every row that loadtxt or the array checks reject
    raise ValueError(f"{path}: no usable rows")


def _parse_csv_file(path: Path) -> list[SensorSequence]:
    # universal newlines: CRLF and CR files split like LF ones
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError(f"{path}: empty file")
    try:
        header = next(csv.reader(lines[:1]), [])
    except csv.Error as exc:
        raise ValueError(f"{path}:1: {exc}") from None
    # columns are read by position: the header must be the canonical one
    has_subject = header[-1:] == ["subject"]
    d = len(header) - 1 - has_subject
    columns = _csv_header(d, has_subject)
    if d < 1 or header != columns:
        raise ValueError(f"{path}: header must be ch_0..ch_(D-1),"
                         f"label[,subject], got {header}")
    fields = [("features", np.float64, (d,))] + [(name, np.int64)
                                                 for name in columns[d:]]
    table = _parse_rows(lines[1:], np.dtype(fields))
    if table is None:
        _raise_first_bad_line(path, lines[1:], columns, d)

    features = np.ascontiguousarray(table["features"])
    labels = np.ascontiguousarray(table["label"])
    if not has_subject:
        return [SensorSequence(features, labels)]
    subjects = table["subject"]
    out = []
    for sid in np.unique(subjects).tolist():
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


def label_runs(labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The maximal runs of equal values of a 1-D array, in order, as
    (classes, starts, ends) with ends exclusive.  An empty array has no
    runs."""
    labels = np.asarray(labels)
    mask = np.ones(len(labels), dtype=bool)
    mask[1:] = labels[1:] != labels[:-1]
    edges = np.append(np.flatnonzero(mask), len(labels))
    starts, ends = edges[:-1], edges[1:]
    return labels[starts], starts, ends


def multiclass_window_rate(sequence: SensorSequence, size: int,
                           stride: int) -> float:
    """Share of the size-sample windows, one every stride samples, that
    hold more than one label.

    A window holds two labels iff its first and last sample lie in
    different label runs.
    """
    if size < 1 or size > len(sequence):
        raise ValueError(f"window size {size} outside [1, {len(sequence)}]")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    first = np.arange(0, len(sequence) - size + 1, stride)
    _, starts, _ = label_runs(sequence.labels)
    multiclass = (np.searchsorted(starts, first, "right")
                  != np.searchsorted(starts, first + size - 1, "right"))
    return int(np.count_nonzero(multiclass)) / len(first)


def split_sequences(sequences: list[SensorSequence], *,
                    train_fraction: float = 0.8, val_fraction: float = 0.1,
                    val_subjects=(), test_subjects=()):
    """Partition into (train, val, test) without breaking sequences apart.

    By subject if `val_subjects` or `test_subjects` names an id (each id
    naming a sequence, none in both lists); the other subjects train.
    Else in order: the first round(n * train_fraction) sequences train,
    the next ones up to round(n * (train_fraction + val_fraction))
    validate, and the rest test.  In both modes each fraction and their
    sum must lie in [0, 1].
    """
    # 1e-9 slack: a share computed in floating point, such as 0.1 + 0.2,
    # can miss its decimal value by an ulp
    if any(not -1e-9 <= f <= 1.0 + 1e-9 for f in (
            train_fraction, val_fraction, train_fraction + val_fraction)):
        raise ValueError("train_fraction, val_fraction and their sum must "
                         f"lie in [0, 1], got {train_fraction} and "
                         f"{val_fraction}")
    val_subjects = set(val_subjects)
    test_subjects = set(test_subjects)
    if not val_subjects | test_subjects:
        n = len(sequences)
        e1 = int(round(n * train_fraction))
        e2 = int(round(n * (train_fraction + val_fraction)))
        return sequences[:e1], sequences[e1:e2], sequences[e2:]
    if any(s.subject_id is None for s in sequences):
        raise ValueError("a split by subject needs subject ids on every "
                         "sequence")
    # fit would pick its checkpoint on the test recordings
    both = val_subjects & test_subjects
    if both:
        raise ValueError("subject ids in both val_subjects and "
                         "test_subjects: " + ", ".join(map(str, sorted(both))))
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
