"""Optimization loop, evaluation, and checkpointing.

Gradients accumulate across sequences and the optimizer consumes their
mean every batch_size sequences (and at epoch end), so a batch is a group
of whole sequences rather than windows.  All randomness flows through one
caller-owned generator, which makes full runs bitwise reproducible.

Checkpoints are a flat binary container: magic, format version, a JSON
header (model config, normalization statistics, free-form metadata), then
each parameter tensor as name, shape, and little-endian float64 data.  They
hold what inference needs and nothing else: no optimizer state, so a
loaded state starts with zero Adam moments at step 0.  Format 1 files,
which also carried Adam moments and the step count, still load.
"""

import copy
import dataclasses
import io
import json
import math
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import model as md
from .data import NormStats, SensorSequence
from .losses import LossBreakdown, total_objective
from .metrics import MetricsReport, evaluate_predictions
from .model import ModelConfig, ModelParams
from .sampling import build_example_set

_MAGIC = b"TSEGCKPT"
_VERSION = 2

ADAM_BETAS = (0.9, 0.999)
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    learning_rate: float = 0.001
    batch_size: int = 32          # sequences per optimizer step
    seed: int = 0
    contrast_weight: float = 1.0
    temperature: float = 0.1
    k_per_class: int = 16
    boundary_radius: int = 2
    include_segments: bool = True  # drop to sample-level contrast only

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.contrast_weight < 0:
            raise ValueError("contrast_weight must be nonnegative")


@dataclass
class TrainState:
    params: ModelParams
    model_config: ModelConfig
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    norm_stats: NormStats | None = None
    best_params: ModelParams | None = None
    best_metric: float = -1.0
    best_epoch: int = -1

    def snapshot_best(self, metric: float, epoch: int):
        if metric > self.best_metric:
            self.best_metric = metric
            self.best_epoch = epoch
            self.best_params = copy.deepcopy(self.params)


def init_train_state(model_config: ModelConfig, seed: int) -> TrainState:
    params = md.init_params(model_config, seed)
    m = {name: np.zeros_like(t.values) for name, t in params.named_parameters()}
    v = {name: np.zeros_like(t.values) for name, t in params.named_parameters()}
    return TrainState(params=params, model_config=model_config, m=m, v=v)


def adam_step(state: TrainState, gradients: dict[str, np.ndarray],
              lr: float, betas: tuple[float, float], eps: float) -> TrainState:
    """Bias-corrected adaptive-moment update, in place on state.params."""
    b1, b2 = betas
    state.step += 1
    t = state.step
    for name, tensor in state.params.named_parameters():
        g = gradients[name]
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for {name}")
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        m_hat = state.m[name] / (1 - b1 ** t)
        v_hat = state.v[name] / (1 - b2 ** t)
        tensor.values -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return state


@dataclass
class EpochStats:
    classification: list[float]     # per stage, averaged over sequences
    contrast: list[float]
    total: float
    optimizer_steps: int
    skipped_anchors: int    # contrast anchors lacking a positive or negative


def _sequence_loss(state: TrainState, seq: SensorSequence, cfg: TrainConfig,
                   rng) -> tuple[ad.Tensor, LossBreakdown]:
    outs = md.mstcn_forward(seq.features, state.params, state.model_config)
    if cfg.contrast_weight > 0:
        sets = []
        for out in outs:
            stage_preds = np.argmax(out.probs.values, axis=1)
            samples, segments = build_example_set(
                out.projected, stage_preds, seq.labels, rng,
                k_per_class=cfg.k_per_class,
                boundary_radius=cfg.boundary_radius)
            sets.append((samples, segments if cfg.include_segments else []))
    else:
        sets = [([], [])] * len(outs)
    return total_objective(outs, seq.labels, sets, cfg.contrast_weight,
                           cfg.temperature)


def train_epoch(state: TrainState, sequences: list[SensorSequence],
                cfg: TrainConfig, rng) -> EpochStats:
    """One pass over the shuffled sequences with gradient accumulation."""
    if not sequences:
        raise ValueError("need at least one training sequence")
    n_stages = state.model_config.num_stages
    ce_sums = np.zeros(n_stages)
    con_sums = np.zeros(n_stages)
    total_sum = 0.0
    steps = 0
    skipped = 0

    order = rng.permutation(len(sequences))
    state.params.zero_grads()
    accumulated = 0
    for idx in order:
        loss, breakdown = _sequence_loss(state, sequences[int(idx)], cfg, rng)
        if not np.isfinite(breakdown.total):
            raise FloatingPointError(
                f"non-finite loss on sequence {int(idx)}")
        loss.backward()
        accumulated += 1
        ce_sums += breakdown.classification
        con_sums += breakdown.contrast
        total_sum += breakdown.total
        skipped += breakdown.skipped_anchors
        if accumulated == cfg.batch_size:
            _apply_accumulated(state, cfg, accumulated)
            accumulated = 0
            steps += 1
    if accumulated:
        _apply_accumulated(state, cfg, accumulated)
        steps += 1

    n = len(sequences)
    return EpochStats(classification=(ce_sums / n).tolist(),
                      contrast=(con_sums / n).tolist(),
                      total=total_sum / n, optimizer_steps=steps,
                      skipped_anchors=skipped)


def _apply_accumulated(state: TrainState, cfg: TrainConfig, count: int):
    gradients = {name: t.grad / count
                 for name, t in state.params.named_parameters()}
    adam_step(state, gradients, cfg.learning_rate, ADAM_BETAS, ADAM_EPSILON)
    state.params.zero_grads()


def final_stage_outputs(params: ModelParams, model_config: ModelConfig,
                        sequences):
    """Yield the final stage's (probs, projected) values per sequence.

    The forward pass records no graph, so only the arrays it returns
    outlive it.  Recording is off around the forward call alone, never
    while the generator is suspended at a yield.
    """
    for seq in sequences:
        with ad.no_grad():
            out = md.mstcn_forward(seq.features, params, model_config)[-1]
        yield out.probs.values, out.projected.values


def evaluate(params: ModelParams, model_config: ModelConfig,
             sequences: list[SensorSequence]
             ) -> tuple[MetricsReport, list[np.ndarray]]:
    """Frozen-model metrics over a list of sequences, final stage only."""
    probs = [p for p, _ in final_stage_outputs(params, model_config,
                                               sequences)]
    per_seq = [np.argmax(p, axis=1) for p in probs]
    truth = np.concatenate([s.labels for s in sequences])
    report = evaluate_predictions(truth, np.concatenate(per_seq),
                                  np.concatenate(probs),
                                  model_config.num_classes)
    return report, per_seq


def fit(state: TrainState, train_seqs: list[SensorSequence],
        val_seqs: list[SensorSequence], cfg: TrainConfig,
        log_fn=None) -> list[dict]:
    """Run cfg.epochs epochs, snapshotting the best validation F1.

    Returns one JSON-ready record per epoch.  Without validation
    sequences the latest parameters are always the snapshot.
    """
    rng = np.random.default_rng(cfg.seed)
    history = []
    for epoch in range(cfg.epochs):
        stats = train_epoch(state, train_seqs, cfg, rng)
        record = {"epoch": epoch,
                  "classification": stats.classification,
                  "contrast": stats.contrast,
                  "total": stats.total,
                  "optimizer_steps": stats.optimizer_steps,
                  "skipped_anchors": stats.skipped_anchors}
        if val_seqs:
            report, _ = evaluate(state.params, state.model_config, val_seqs)
            record["val_macro_f1"] = report.macro_f1
            record["val_jaccard"] = report.jaccard
            state.snapshot_best(report.macro_f1, epoch)
        else:
            state.snapshot_best(float(epoch), epoch)
        history.append(record)
        if log_fn is not None:
            log_fn(record)
    if state.best_params is None:
        state.snapshot_best(0.0, -1)
    return history


def _write_tensor(fh, name: str, values: np.ndarray):
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<H", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<B", values.ndim))
    for dim in values.shape:
        fh.write(struct.pack("<Q", dim))
    fh.write(values.astype("<f8", copy=False).tobytes())


def save_checkpoint(state: TrainState, path, metadata: dict | None = None):
    """Write the parameters, normalization stats, model config and metadata."""
    header = {
        "model_config": dataclasses.asdict(state.model_config),
        "norm_mean": (None if state.norm_stats is None
                      else state.norm_stats.mean.tolist()),
        "norm_std": (None if state.norm_stats is None
                     else state.norm_stats.std.tolist()),
        "metadata": metadata or {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    named = list(state.params.named_parameters())
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(struct.pack("<I", len(named)))
        for name, tensor in named:
            _write_tensor(fh, name, tensor.values)


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(min(n, sys.maxsize))  # a corrupt shape can exceed it
    if len(data) != n:
        raise ValueError("checkpoint truncated")
    return data


def _read_tensor(fh) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
    name = _read_exact(fh, name_len).decode("utf-8")
    (ndim,) = struct.unpack("<B", _read_exact(fh, 1))
    shape = struct.unpack(f"<{ndim}Q", _read_exact(fh, 8 * ndim))
    data = np.frombuffer(_read_exact(fh, 8 * math.prod(shape)), dtype="<f8")
    return name, data.reshape(shape).astype(np.float64)


def _read_header(path) -> tuple[int, dict, io.BytesIO]:
    """Magic, format version and JSON header; the returned stream is left
    at the tensor count.  The file is read whole first, so no corrupt
    length field can make a read allocate more than the file holds."""
    fh = io.BytesIO(Path(path).read_bytes())
    if _read_exact(fh, len(_MAGIC)) != _MAGIC:
        raise ValueError(f"{path} is not a checkpoint file")
    (version,) = struct.unpack("<I", _read_exact(fh, 4))
    if version not in (1, _VERSION):
        raise ValueError(f"unsupported checkpoint version {version}")
    (header_len,) = struct.unpack("<Q", _read_exact(fh, 8))
    try:
        header = json.loads(_read_exact(fh, header_len).decode("utf-8"))
    except RecursionError:
        header = None
    if not isinstance(header, dict):
        raise ValueError("checkpoint header is not a JSON object")
    return version, header, fh


def read_checkpoint_header(path) -> dict:
    """Parse only the JSON header, not the tensors."""
    return _read_header(path)[1]


def _header_model_config(header: dict, version: int) -> ModelConfig:
    raw = header.get("model_config")
    if version == 1 and isinstance(raw, dict):
        # format 1 also stored the contrastive hyperparameters here
        raw = {k: v for k, v in raw.items()
               if k not in ("temperature", "contrast_weight")}
    names = {f.name for f in dataclasses.fields(ModelConfig)}
    if (not isinstance(raw, dict) or raw.keys() != names
            or any(type(v) is not int for v in raw.values())):
        raise ValueError("checkpoint model_config must hold exactly the "
                         "integers " + ", ".join(sorted(names)))
    return ModelConfig(**raw)


def _header_norm_stats(header: dict, dim: int) -> NormStats | None:
    stats = [header.get("norm_mean"), header.get("norm_std")]
    if stats == [None, None]:
        return None
    if not all(isinstance(values, list) and len(values) == dim
               and all(type(v) in (int, float) and math.isfinite(v)
                       for v in values) for values in stats):
        raise ValueError("checkpoint normalization stats must be "
                         f"{dim} finite numbers each")
    return NormStats(*(np.array(values, dtype=np.float64) for values in stats))


def load_checkpoint(path) -> TrainState:
    """Parameters and normalization stats, with fresh optimizer state.

    Raises ValueError for any file that is not a well-formed checkpoint.
    """
    version, header, fh = _read_header(path)
    model_config = _header_model_config(header, version)
    (n_tensors,) = struct.unpack("<I", _read_exact(fh, 4))
    tensors = dict(_read_tensor(fh) for _ in range(n_tensors))
    if fh.read(1):
        raise ValueError("checkpoint has bytes after its last tensor")
    if version == 1:  # format 1 also stored Adam moments
        tensors = {name: values for name, values in tensors.items()
                   if not name.startswith("adam.")}
    # Checked before init_train_state allocates anything from the header.
    if sum(v.size for v in tensors.values()) != md.parameter_count(
            model_config):
        raise ValueError("checkpoint tensor sizes do not match its "
                         "model_config")

    state = init_train_state(model_config, seed=0)
    named = dict(state.params.named_parameters())
    if tensors.keys() != named.keys():
        raise ValueError("checkpoint tensor names do not match its "
                         "model_config: "
                         + ", ".join(sorted(tensors.keys() ^ named.keys())))
    for name, tensor in named.items():
        if tensors[name].shape != tensor.shape:
            raise ValueError(f"checkpoint tensor {name} has shape "
                             f"{tensors[name].shape}, expected {tensor.shape}")
        if not np.all(np.isfinite(tensors[name])):
            raise ValueError(f"checkpoint tensor {name} is not finite")
        tensor.values = tensors[name]
    state.norm_stats = _header_norm_stats(header, model_config.input_dim)
    return state
