"""Optimization loop, evaluation, and checkpointing.

A training step differentiates one sequence's loss.  The sequence runs
in chunks of at most TRAIN_CHUNK_LENGTH samples that overlap by the
model's receptive radius, on `chunk_runner`'s threads: each chunk's
forward and backward run on a worker, and the loss, which needs the
whole sequence (example selection and segment pooling), runs between
them on leaf copies of the chunks' kept outputs (`_sequence_gradients`).
The forward records only the last stage; the backward re-runs each
earlier stage recorded, so a worker holds one stage's graph at a time.
The gradients equal a whole-sequence graph's up to rounding.
`train_epoch` steps the optimizer once per batch of batch_size whole
sequences, not windows, with the mean of their gradients.  A step's
gradient, that mean, Adam's moments and the best snapshot are flat
arrays laid out as `ModelParams.block`, each made, updated or copied
whole, with zeros for a parameter no graph reached; tensor names serve
only to name a non-finite tensor.  All randomness flows through one
caller-owned generator, on the calling thread.

Inference (`final_stage_outputs`, behind `evaluate`) labels a recording
in the same kind of chunks, longer ones.  Where there is more than one,
their count is even.  A task is one chunk's `md.mstcn_forward`, without
a graph.  All the recordings of a call share one runner.  The result
equals one whole-recording forward's.

While a `chunk_runner` is open, numpy's OpenBLAS runs one thread, and
so does every other BLAS call in the process; the previous count comes
back when the last open runner closes.  Chunk boundaries depend on the
recording's length alone, so full runs are bitwise reproducible whatever
the BLAS thread setting and the CPU count.  With a BLAS other than
numpy's OpenBLAS, nothing is pinned, chunks run on the calling thread,
and bits can depend on that BLAS's threads.

Checkpoints are a flat binary container: magic, format version, a JSON
header (model config, normalization statistics, free-form metadata), then
`ModelParams.block` as little-endian float64.  The header's model
config fixes each tensor's name, shape and place in the block, so the
file states them nowhere else.  They hold what inference needs and
nothing else: no optimizer state, so a loaded state starts with zero
Adam moments at step 0.
"""

import contextlib
import ctypes
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
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
_VERSION = 3

ADAM_BETAS = (0.9, 0.999)
ADAM_EPSILON = 1e-8

CHUNK_LENGTH = 2048         # most output samples one inference forward labels
TRAIN_CHUNK_LENGTH = 1024   # most output samples one training chunk covers


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
        for name in ("learning_rate", "temperature", "contrast_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        for name in ("epochs", "seed", "boundary_radius"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.contrast_weight < 0:
            raise ValueError("contrast_weight must be nonnegative")
        if self.k_per_class < 2 or self.k_per_class % 2 != 0:
            raise ValueError("k_per_class must be an even integer >= 2")


@dataclass
class TrainState:
    params: ModelParams
    model_config: ModelConfig
    step: int = 0
    norm_stats: NormStats | None = None
    best_params: ModelParams | None = None
    best_metric: float | None = None    # None: no validation ran
    best_epoch: int = -1
    m: np.ndarray = dataclasses.field(init=False)   # Adam's moments, laid
    v: np.ndarray = dataclasses.field(init=False)   # out as params.block

    def __post_init__(self):
        self.m = np.zeros_like(self.params.block)
        self.v = np.zeros_like(self.params.block)


def init_train_state(model_config: ModelConfig, seed: int) -> TrainState:
    return TrainState(md.init_params(model_config, seed), model_config)


def adam_step(state: TrainState, gradient: np.ndarray,
              lr: float) -> TrainState:
    """Bias-corrected adaptive-moment update with ADAM_BETAS and
    ADAM_EPSILON, in place on the moments and the block; a non-finite
    gradient changes nothing and raises, naming its first bad tensor."""
    if not np.isfinite(gradient).all():
        raise FloatingPointError("non-finite gradient for "
                                 + state.params.first_non_finite(gradient))
    b1, b2 = ADAM_BETAS
    state.step += 1
    t = state.step
    state.m *= b1
    state.m += (1 - b1) * gradient
    state.v *= b2
    state.v += (1 - b2) * gradient * gradient
    state.params.block -= (lr * (state.m / (1 - b1 ** t))
                           / (np.sqrt(state.v / (1 - b2 ** t)) + ADAM_EPSILON))
    return state


def _sequence_gradients(state: TrainState, seq: SensorSequence,
                        cfg: TrainConfig, rng, chunk_length: int, run=map
                        ) -> tuple[np.ndarray, LossBreakdown]:
    """One recording's gradient, laid out as the block, and loss terms.

    The recording runs in halo chunks of at most `chunk_length` samples,
    mapped over by `run`, such as a thread pool's map, in three phases:

    - each worker runs its chunk's `md.mstcn_forward` with `record_from`
      the last stage and `project` set with contrast on; it saves each
      stage's input and returns every stage's logits, then projections;
    - `_loss_phase`: the kept rows of each head (`_kept`) become leaf
      tensors that cover the whole recording, so example selection,
      segment pooling and the objective see it whole; the small loss
      graph on those leaves is differentiated here, and each head's
      cotangent is built from its rows of the leaf gradient, with zeros
      on its halo;
    - each worker backpropagates its chunk stage by stage from the last:
      the last on its forward graph, every earlier one re-run recorded
      from its saved input and seeded with its heads' cotangents and, at
      its probabilities, the next stage's input gradient.

    A chunk's kept outputs are the same functions of the parameters as in
    a whole-sequence forward, so the gradients equal the whole-sequence
    ones up to rounding.  They are summed in chunk order, and the chunks
    depend on the length and `chunk_length` alone, so the result does not
    depend on `run`.  A parameter no graph reaches gets zeros.  The bits
    are those of one backward over a chunk's whole recorded cascade: each
    parameter is read by one node, a stage's logits take their head's
    cotangent before the softmax's term, and stage features, read by the
    classifier and the projection head, sum two terms in either order.

    Memory: a worker holds one stage's graph of one chunk at a time, and
    the recompute costs one more forward of every stage but the last.
    The last stage's graphs of all the chunks are alive from the forward
    until each chunk's backward walks them, freeing each node as it
    passes (the loss graph's backward does so too), so a step still
    holds one stage's graph over the whole recording, plus the halos.
    While the chunks backpropagate, none of the loss phase's leaves,
    their gradients, the loss graph or the example pools is alive.
    """
    params, config = state.params, state.model_config
    features = md.checked_features(seq.features, params, config)
    chunks = halo_chunks(len(features), chunk_length,
                         md.receptive_radius(config))
    last = config.num_stages - 1
    project = cfg.contrast_weight > 0

    def heads_of(out):
        return [out.logits] + ([out.projected] if project else [])

    def forward(chunk, saved):
        """The chunk's heads, in `_loss_phase`'s order; appends each
        stage's (input, heads) to `saved`."""
        read = features[chunk[1]]
        outs = md.mstcn_forward(read, params, config, record_from=last,
                                project=project)
        inputs = [ad.Tensor(read)] + [out.probs for out in outs[:-1]]
        saved += [(x, heads_of(out)) for x, out in zip(inputs, outs)]
        return [head for kind in zip(*(heads for _, heads in saved))
                for head in kind]

    def stage_backward(s, x, heads, seeds, g):
        """Stage s's parameter gradients and its input's gradient, from
        the cotangents in `seeds` of its forward `heads`, which it pops,
        and `g`, its probabilities' gradient (None for the last stage).
        Its own function so that the stage's graph dies on return."""
        recorded = heads
        if s < last:    # ran graph-free: re-run it recorded
            out = md.stage_forward(x, params.stages[s], project)
            probs, recorded = out.probs, heads_of(out)
        cotangents = {new: seeds.pop(old)
                      for new, old in zip(recorded, heads) if old in seeds}
        if g is not None:
            cotangents[probs] = g
        grads = ad.backward(cotangents, [x, *params.tensors()])
        g_in = grads.pop(x, None)
        return grads, g_in

    def backprop(seeds, saved):
        """The chunk's parameter gradients; empties `seeds` and `saved`
        stage by stage, so no stage's graph outlives its backward."""
        grads, g = {}, None
        while saved:
            part, g = stage_backward(len(saved) - 1, *saved.pop(), seeds, g)
            grads.update(part)
        return grads

    saved = [[] for _ in chunks]    # per chunk, each stage's (input, heads)
    cotangents, breakdown = _loss_phase(list(run(forward, chunks, saved)),
                                        chunks, seq, cfg, rng,
                                        config.num_stages)
    parts = list(run(backprop, cotangents, saved))
    gradient = np.zeros_like(params.block)
    for t, slot in zip(params.tensors(), params.split(gradient)):
        reached = [part[t] for part in parts if t in part]
        if reached:     # a lone part is copied as it is, -0.0s included
            slot[...] = functools.reduce(np.add, reached)
    return gradient, breakdown


def _loss_phase(heads, chunks, seq: SensorSequence, cfg: TrainConfig, rng,
                n_stages: int) -> tuple[list[dict], LossBreakdown]:
    """The middle phase of `_sequence_gradients`: the loss terms of the
    chunks' `heads`, and each chunk's cotangents, {head: array}.

    Its own function so that the leaves, their gradients, the loss graph
    and the example pools are all freed on return, before any chunk
    backpropagates.
    """
    leaves = [ad.Tensor(_kept([h.values for h in same], chunks))
              for same in zip(*heads)]
    if cfg.contrast_weight > 0:
        # hard-example mining, not output labels: each stage's own argmax
        sets = [build_example_set(
                    projected, np.argmax(logits.values, axis=1), seq.labels,
                    rng, k_per_class=cfg.k_per_class,
                    boundary_radius=cfg.boundary_radius,
                    include_segments=cfg.include_segments)
                for logits, projected in zip(leaves[:n_stages],
                                             leaves[n_stages:])]
    else:
        sets = [([], [])] * n_stages
    loss, breakdown = total_objective(leaves[:n_stages], seq.labels, sets,
                                      cfg.contrast_weight, cfg.temperature)
    leaf_grads = ad.backward({loss: 1.0}, leaves)
    cotangents = [{} for _ in chunks]
    for chunk_heads, (rows, _, keep), seeds in zip(heads, chunks, cotangents):
        for head, leaf in zip(chunk_heads, leaves):
            if leaf in leaf_grads:
                seeds[head] = np.zeros_like(head.values)
                seeds[head][keep] = leaf_grads[leaf][rows]
    return cotangents, breakdown


def train_epoch(state: TrainState, sequences: list[SensorSequence],
                cfg: TrainConfig, rng) -> dict:
    """One pass over the shuffled sequences: one Adam step per batch of
    cfg.batch_size of them (the last may be shorter), with the mean of
    their gradients.

    Returns the epoch's training-log record: every `LossBreakdown` field
    but `contrast_weight`, summed over the sequences in sequence order
    (the float fields, the losses, then divided once by the sequence
    count; the integer fields are counts), plus `optimizer_steps`.
    """
    if not sequences:
        raise ValueError("need at least one training sequence")
    order = rng.permutation(len(sequences))
    batches = [order[i:i + cfg.batch_size]
               for i in range(0, len(order), cfg.batch_size)]
    breakdowns = []
    with chunk_runner() as run:
        for batch in batches:
            for i, idx in enumerate(batch):
                gradient, breakdown = _sequence_gradients(
                    state, sequences[int(idx)], cfg, rng, TRAIN_CHUNK_LENGTH,
                    run)
                if not np.isfinite(breakdown.total):
                    raise FloatingPointError(
                        f"non-finite loss on sequence {int(idx)}")
                breakdowns.append(breakdown)
                summed = gradient if i == 0 else summed + gradient
            adam_step(state, summed / len(batch), cfg.learning_rate)

    record = {}
    for field in dataclasses.fields(LossBreakdown):
        if field.name != "contrast_weight":
            epoch_sum = functools.reduce(np.add, (
                np.asarray(getattr(b, field.name)) for b in breakdowns))
            record[field.name] = (epoch_sum / len(sequences)
                                  if epoch_sum.dtype.kind == "f"
                                  else epoch_sum).tolist()
    record["optimizer_steps"] = len(batches)
    return record


@functools.cache
def _openblas_thread_count():
    """(getter, setter) of the thread count of the OpenBLAS in numpy's
    wheel, or None where numpy runs another BLAS."""
    for path in sorted((Path(np.__file__).parent.parent
                        / "numpy.libs").glob("*openblas*")):
        try:    # already loaded by numpy; do not load a second copy
            lib = ctypes.CDLL(str(path), mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",    # numpy >= 2
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            setter = getattr(lib, name.replace("_get_", "_set_"), None)
            if getter is not None and setter is not None:
                return getter, setter
    return None


_pin_lock = threading.Lock()
_pin = {"entries": 0, "threads": None}  # open entries; count before them


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS to one thread, so every product is computed
    the same way whatever its thread setting.  The count from before the
    first of nested or concurrent entries comes back when the last one
    leaves.  Nothing is pinned where no setter is found."""
    controls = _openblas_thread_count()
    if controls is None:
        yield
        return
    get, set_ = controls
    with _pin_lock:
        if _pin["entries"] == 0:
            _pin["threads"] = get()
            set_(1)
        _pin["entries"] += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin["entries"] -= 1
            if _pin["entries"] == 0:
                set_(_pin["threads"])


def chunk_workers() -> int:
    """Threads that run one recording's chunks: the CPUs this process may
    run on where `chunk_runner` can pin numpy's BLAS to one thread, else
    one, as an unpinned BLAS's own threads use the CPUs."""
    if _openblas_thread_count() is None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def chunk_runner():
    """A map over sequences of chunks, with numpy's BLAS held to one
    thread while it is open: on a pool of `chunk_workers()` threads, but
    on the calling thread for a lone chunk or where there is one worker
    (the pool is made by the first map that uses it)."""
    with _one_blas_thread(), contextlib.ExitStack() as stack:
        workers = chunk_workers()
        pool = functools.cache(
            lambda: stack.enter_context(ThreadPoolExecutor(workers)))
        yield lambda fn, *chunks: (pool().map if workers > 1
                                   and len(chunks[0]) > 1 else map)(fn, *chunks)


def halo_chunks(length: int, chunk_length: int, radius: int,
                paired: bool = False) -> list[tuple[slice, slice, slice]]:
    """(rows, read, keep) per chunk, in order.

    `rows` are the recording rows the chunk labels: near-equal spans, none
    longer than chunk_length, that cover range(length) (one empty chunk
    for length 0), as few as fit; with `paired`, a recording longer than
    chunk_length gets the fewest of an even count, so that two workers
    finish together.  `read` are those it reads
    (`radius` more on each side, where the recording has them), and
    `keep` the rows of its output that belong to `rows`.  With the
    model's receptive radius, every kept output sees exactly the inputs
    it sees in a whole-sequence forward.
    """
    count = max(1, -(-length // chunk_length))
    if paired and count > 1:
        count += count % 2
    bounds = [length * i // count for i in range(count + 1)]
    chunks = []
    for start, end in zip(bounds[:-1], bounds[1:]):
        lo, hi = max(0, start - radius), min(length, end + radius)
        chunks.append((slice(start, end), slice(lo, hi),
                       slice(start - lo, end - lo)))
    return chunks


def _kept(per_chunk, chunks: list[tuple[slice, slice, slice]]) -> np.ndarray:
    """One output's `keep` rows of every chunk, concatenated in order."""
    return np.concatenate([values[keep] for values, (_, _, keep)
                           in zip(per_chunk, chunks)])


def final_stage_outputs(params: ModelParams, model_config: ModelConfig,
                        sequences, embed: bool = False) -> list[tuple]:
    """The final stage's (probs, embeddings) values, one pair per sequence.

    Embeddings are the final stage's unit-norm projections when `embed`
    is set, else None; no other stage is projected.

    A recording runs in exact `halo_chunks` of at most CHUNK_LENGTH
    samples, paired: one chunk up to CHUNK_LENGTH, else the least even
    count, so that on two workers no lone last chunk runs while the other
    idles.  A task is one (recording, chunk): its `md.mstcn_forward`
    without a graph, which returns the final stage alone, so a worker
    holds one stage's activations.  All the recordings' chunks go to one
    `chunk_runner()` map, in order; one chunk in all runs on the caller.
    The result does not depend on the worker count.
    """
    radius = md.receptive_radius(model_config)
    stages = model_config.num_stages
    recordings, inputs = [], []
    for seq in sequences:           # all checked before any task runs
        features = md.checked_features(seq.features, params, model_config)
        recordings.append(halo_chunks(len(features), CHUNK_LENGTH, radius,
                                      paired=True))
        inputs += [features[read] for _, read, _ in recordings[-1]]

    def task(x):
        (out,) = md.mstcn_forward(x, params, model_config,
                                  record_from=stages, kept_from=stages - 1,
                                  project=embed)
        return out.probs.values, embed and out.projected.values

    outputs = []
    with chunk_runner() as run:
        finals = run(task, inputs)
        for chunks in recordings:
            probs, embeds = zip(*itertools.islice(finals, len(chunks)))
            outputs.append((_kept(probs, chunks),
                            _kept(embeds, chunks) if embed else None))
    return outputs


def evaluate(params: ModelParams, model_config: ModelConfig,
             sequences: list[SensorSequence]
             ) -> tuple[MetricsReport, list[np.ndarray]]:
    """Frozen-model metrics over a list of sequences, final stage only,
    and each sequence's labels, from `md.predict_labels`."""
    probs = [p for p, _ in final_stage_outputs(params, model_config,
                                               sequences)]
    per_seq = [md.predict_labels(p) for p in probs]
    truth = np.concatenate([s.labels for s in sequences])
    report = evaluate_predictions(truth, np.concatenate(per_seq),
                                  np.concatenate(probs),
                                  model_config.num_classes)
    return report, per_seq


def fit(state: TrainState, train_seqs: list[SensorSequence],
        val_seqs: list[SensorSequence], cfg: TrainConfig,
        log_fn=None) -> list[dict]:
    """Run cfg.epochs epochs, snapshotting the best validation F1.

    Returns the records it logs through `log_fn`, one per epoch:
    `train_epoch`'s record with the `epoch` number and, where there are
    validation sequences, `val_macro_f1` and `val_jaccard`.
    `state.best_params` is a copy of the parameters after the epoch of
    highest validation macro F1 (the first on ties), `best_metric` that
    F1, `best_epoch` that epoch.
    Where no epoch was validated (no validation sequences, or no epochs),
    `best_metric` is None, `best_params` is `state.params` itself (the
    latest parameters) and `best_epoch` the last epoch, -1 for none.
    """
    rng = np.random.default_rng(cfg.seed)
    state.best_params, state.best_metric = state.params, None
    state.best_epoch = cfg.epochs - 1
    history = []
    for epoch in range(cfg.epochs):
        record = {"epoch": epoch, **train_epoch(state, train_seqs, cfg, rng)}
        if val_seqs:
            report, _ = evaluate(state.params, state.model_config, val_seqs)
            record["val_macro_f1"] = report.macro_f1
            record["val_jaccard"] = report.jaccard
            if (state.best_metric is None
                    or report.macro_f1 > state.best_metric):
                state.best_params = md.build_params(    # over a copy
                    state.model_config, state.params.block)
                state.best_metric, state.best_epoch = report.macro_f1, epoch
        history.append(record)
        if log_fn is not None:
            log_fn(record)
    return history


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
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(state.params.block.astype("<f8", copy=False).tobytes())


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(min(n, sys.maxsize))  # a corrupt model_config can exceed it
    if len(data) != n:
        raise ValueError("checkpoint truncated")
    return data


def _read_header(path) -> tuple[dict, io.BytesIO]:
    """Magic, format version and JSON header; the returned stream is left
    at the parameter block.  The file is read whole first, so no corrupt
    length field can make a read allocate more than the file holds."""
    fh = io.BytesIO(Path(path).read_bytes())
    if _read_exact(fh, len(_MAGIC)) != _MAGIC:
        raise ValueError(f"{path} is not a checkpoint file")
    (version,) = struct.unpack("<I", _read_exact(fh, 4))
    if version != _VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (header_len,) = struct.unpack("<Q", _read_exact(fh, 8))
    try:
        header = json.loads(_read_exact(fh, header_len).decode("utf-8"))
    except RecursionError:
        header = None
    if not isinstance(header, dict):
        raise ValueError("checkpoint header is not a JSON object")
    return header, fh


def _header_model_config(header: dict) -> ModelConfig:
    raw = header.get("model_config")
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
    header, fh = _read_header(path)
    model_config = _header_model_config(header)
    # Read before anything is built from the header: a corrupt header can
    # name a model far larger than the file.
    block = np.frombuffer(
        _read_exact(fh, 8 * md.parameter_count(model_config)), dtype="<f8")
    if fh.read(1):
        raise ValueError("checkpoint has bytes after its last tensor")
    params = md.build_params(model_config, block)
    if not np.isfinite(params.block).all():
        name = params.first_non_finite(params.block)
        raise ValueError(f"checkpoint tensor {name} is not finite")
    state = TrainState(params, model_config)
    state.norm_stats = _header_norm_stats(header, model_config.input_dim)
    return state
