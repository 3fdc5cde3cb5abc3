"""The benchmark's workloads.

Each workload builds its inputs from the workload seed in set-up, then
repeats one measured *unit* of work, a closed loop in one process:

- ``train``: ``fit`` at the default model shape on synthetic recordings,
  then ``evaluate`` on held-out ones.
- ``stream``: a frozen model labels long recordings, one ``evaluate``
  call per recording; a unit is one sweep over the recordings.
- ``cli``: ``tempseg.cli.main`` in-process for generate, train, eval,
  and one predict per test recording; a unit is one such pass.

``unit(section)`` runs the measured part of a unit inside the context
manager ``section()`` (a traced root span, a tracemalloc pass, or
nothing), then checks the outputs outside it.
"""

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from spans import after_call, patched
from tempseg import cli, data, metrics
from tempseg import model as md
from tempseg import train as tr

PROB_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Sizes:
    length: int = 2000             # samples per recording, train and cli
    n_train: int = 10
    n_val: int = 2
    n_test: int = 2
    epochs: int = 6
    layers: int = 6                # dilated blocks per stage
    hidden: int = 32
    stream_length: int = 10_000
    stream_recordings: int = 4
    stream_min_labels: int = 100   # so seq_ms.p90 has >= 10 samples beyond
    cli_train: int = 6
    cli_val: int = 2
    cli_test: int = 8
    cli_epochs: int = 3
    setup_repeats: int = 3


FULL = Sizes()
# Seconds per run instead of minutes, for the harness's own smoke test.
TINY = Sizes(length=300, n_train=2, n_val=1, n_test=1, epochs=1, layers=2,
             hidden=8, stream_length=600, stream_recordings=2,
             stream_min_labels=2, cli_train=2, cli_val=1, cli_test=2,
             cli_epochs=1, setup_repeats=1)


@dataclass
class UnitResult:
    wall_s: float           # the measured section
    samples: int            # sequence samples behind samples_per_s
    busy_s: float           # the time those samples took
    latencies_ms: list      # one per recording-level operation
    f1: float
    attempted: int
    failed: int
    items: int              # steps, recordings or passes (per-layer unit)


def _model_config(base: data.SynthConfig, sizes: Sizes) -> md.ModelConfig:
    return md.ModelConfig(input_dim=base.dim, num_classes=base.num_classes,
                          layers_per_stage=sizes.layers,
                          hidden_channels=sizes.hidden)


def _recordings(seed: int, count: int, length: int):
    base = data.default_synth_config(total_length=length)
    return base, [data.synthesize_sequence(replace(base, seed=seed * 1000 + i))
                  for i in range(count)]


def _finite(record: dict) -> bool:
    values = [record["total"], *record["classification"], *record["contrast"]]
    return all(math.isfinite(v) for v in values)


class Train:
    """``fit`` with contrast and segments on, batch_size 1, then evaluate."""

    min_latencies = 0

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes = seed, sizes
        n = sizes.n_train + sizes.n_val + sizes.n_test
        base, seqs = _recordings(seed, n, sizes.length)
        train, rest, _ = data.normalize_features(seqs[:sizes.n_train],
                                                 seqs[sizes.n_train:])
        self.train, self.val = train, rest[:sizes.n_val]
        self.test = rest[sizes.n_val:]
        self.model_config = _model_config(base, sizes)
        self.train_config = tr.TrainConfig(epochs=sizes.epochs, batch_size=1,
                                           seed=seed)
        self.first_f1 = None
        self.probe = (self.train[0].features,
                      md.init_params(self.model_config, seed),
                      self.model_config)

    def warm_up(self):
        state = tr.init_train_state(self.model_config, self.seed)
        tr.fit(state, self.train, self.val, replace(self.train_config,
                                                    epochs=1))
        tr.evaluate(state.params, self.model_config, self.test)

    def unit(self, section) -> UnitResult:
        # Step latency: time from the previous step (or from the end of the
        # previous epoch's validation) to the end of each Adam update; with
        # batch_size 1 that is one recording's forward, loss, backward and
        # update.
        marks, steps = [], []

        def step_done(*_args, **_kwargs):
            now = time.perf_counter()
            steps.append(now - marks[-1])
            marks.append(now)

        with section(), patched(tr, "adam_step", after_call(step_done)):
            start = time.perf_counter()
            state = tr.init_train_state(self.model_config, self.seed)
            marks.append(time.perf_counter())
            history = tr.fit(state, self.train, self.val, self.train_config,
                             log_fn=lambda _r: marks.append(
                                 time.perf_counter()))
            fit_end = time.perf_counter()
            report, _ = tr.evaluate(state.best_params, self.model_config,
                                    self.test)
            end = time.perf_counter()

        if self.first_f1 is None:
            self.first_f1 = report.macro_f1
        ok = (len(history) == self.sizes.epochs
              and all(_finite(r) for r in history)
              and state.best_params is not None and state.best_epoch >= 0
              and len(steps) == self.sizes.epochs * self.sizes.n_train
              and report.macro_f1 == self.first_f1)
        samples = self.sizes.epochs * sum(len(s) for s in self.train)
        return UnitResult(wall_s=end - start, samples=samples,
                          busy_s=fit_end - marks[0],
                          latencies_ms=[1e3 * s for s in steps],
                          f1=report.macro_f1, attempted=1, failed=int(not ok),
                          items=len(steps))


class Stream:
    """A frozen model labels long recordings, one ``evaluate`` each."""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.sizes = sizes
        self.min_latencies = sizes.stream_min_labels
        base, self.recordings = _recordings(seed, sizes.stream_recordings,
                                            sizes.stream_length)
        initial = tr.init_train_state(_model_config(base, sizes), seed)
        path = workdir / "stream.ckpt"
        tr.save_checkpoint(initial, path)
        state = tr.load_checkpoint(path)
        for (name, a), (_, b) in zip(initial.params.named_parameters(),
                                     state.params.named_parameters()):
            if not np.array_equal(a.values, b.values):
                raise RuntimeError(f"checkpoint round trip changed {name}")
        self.params, self.model_config = state.params, state.model_config
        # The reference: a whole-sequence forward per recording.
        self.reference = []
        for seq in self.recordings:
            outs = md.mstcn_forward(seq.features, self.params,
                                    self.model_config)
            probs = outs[-1].probs.values
            self.reference.append((np.argmax(probs, axis=1), probs))
        self.probe = (self.recordings[0].features, self.params,
                      self.model_config)

    def warm_up(self):
        tr.evaluate(self.params, self.model_config, self.recordings[:1])

    def unit(self, section) -> UnitResult:
        captured, outputs, latencies = [], [], []
        keep_probs = after_call(
            lambda _r, _truth, _pred, probs, _n: captured.append(probs))
        with section(), patched(tr, "evaluate_predictions", keep_probs):
            for seq in self.recordings:
                start = time.perf_counter()
                report, per_seq = tr.evaluate(self.params, self.model_config,
                                              [seq])
                latencies.append(time.perf_counter() - start)
                outputs.append((report, per_seq, captured[-1:]))
                captured.clear()

        failed = 0
        labels, ref_labels = [], []
        for seq, (ref, ref_probs), (report, per_seq, probs) in zip(
                self.recordings, self.reference, outputs):
            ok = (report.total_samples == len(seq) and len(per_seq) == 1
                  and np.array_equal(per_seq[0], ref)
                  and len(probs) == 1 and probs[0].shape == ref_probs.shape
                  and np.max(np.abs(probs[0] - ref_probs)) <= PROB_TOLERANCE)
            failed += not ok
            labels.append(per_seq[0])
            ref_labels.append(ref)
        # The labelling scored against the whole-sequence reference: 1
        # unless inference changes its output.
        confusion = metrics.confusion_matrix(
            np.concatenate(ref_labels), np.concatenate(labels),
            self.model_config.num_classes)
        f1 = metrics.precision_recall_f1(confusion)[5]
        wall = sum(latencies)
        return UnitResult(wall_s=wall,
                          samples=sum(len(s) for s in self.recordings),
                          busy_s=wall,
                          latencies_ms=[1e3 * s for s in latencies], f1=f1,
                          attempted=len(self.recordings), failed=failed,
                          items=len(self.recordings))


def _data_rows(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


class Cli:
    """generate, train, eval, then predict per test recording, in-process."""

    min_latencies = 0

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.sizes = sizes
        self.root = workdir / "cli"
        self.root.mkdir(parents=True, exist_ok=True)
        self.config = self.root / "experiment.cfg"
        self.config.write_text(
            f"data_dir = {self.root / 'data'}\nseed = {seed}\n"
            f"total_length = {sizes.length}\nnum_train = {sizes.cli_train}\n"
            f"num_val = {sizes.cli_val}\nnum_test = {sizes.cli_test}\n"
            f"epochs = {sizes.cli_epochs}\nbatch_size = 1\n"
            # A short run that still converges, so held-out F1 differs
            # little between seeds.
            "learning_rate = 0.005\n"
            f"layers_per_stage = {sizes.layers}\n"
            f"hidden_channels = {sizes.hidden}\n")
        self.first_f1 = None
        base, (seq,) = _recordings(seed, 1, sizes.length)
        config = _model_config(base, sizes)
        self.probe = (seq.features, md.init_params(config, seed), config)

    def warm_up(self):
        """None: a CLI user pays the first, cold pass on every run."""

    def unit(self, section) -> UnitResult:
        d = self.root
        ckpt, test_dir = d / "run" / "model.ckpt", d / "data" / "test"
        saved, latencies = [], []
        keep_state = after_call(
            lambda _r, state, *_a, **_k: saved.append(state))
        with section(), patched(tr, "save_checkpoint", keep_state), \
                contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            codes = [cli.main(["generate", "--config", str(self.config),
                               "--out", str(d / "data")]),
                     cli.main(["train", "--config", str(self.config),
                               "--out", str(d / "run")]),
                     cli.main(["eval", str(ckpt), str(test_dir),
                               "--out", str(d / "eval")])]
            recordings = sorted(test_dir.glob("*.csv"))
            for path in recordings:
                op_start = time.perf_counter()
                codes.append(cli.main(["predict", str(ckpt), str(path), "--out",
                                       str(d / "predict" / path.stem)]))
                latencies.append(time.perf_counter() - op_start)
            wall = time.perf_counter() - start

        s = self.sizes
        attempted = 3 + s.cli_test
        if any(codes) or len(codes) != attempted:
            return UnitResult(wall, 0, wall, [], 0.0, attempted,
                              attempted - codes.count(0), 1)
        expected = s.cli_test * s.length
        report = json.loads((d / "eval" / "metrics.json").read_text())
        if self.first_f1 is None:
            self.first_f1 = report["macro_f1"]
        loaded = tr.load_checkpoint(ckpt)
        same_params = len(saved) == 1 and all(
            na == nb and np.array_equal(a.values, b.values)
            for (na, a), (nb, b) in zip(saved[0].params.named_parameters(),
                                        loaded.params.named_parameters()))
        checks = [True, same_params,
                  report["total_samples"] == expected
                  and _data_rows(d / "eval" / "predictions.csv") == expected
                  and report["macro_f1"] == self.first_f1]
        checks += [_data_rows(d / "predict" / path.stem / "predictions.csv")
                   == s.length for path in recordings]
        failed = attempted - sum(checks)
        dataset = (s.cli_train + s.cli_val + s.cli_test) * s.length
        return UnitResult(wall_s=wall, samples=dataset, busy_s=wall,
                          latencies_ms=[1e3 * x for x in latencies],
                          f1=report["macro_f1"], attempted=attempted,
                          failed=failed, items=1)


WORKLOADS = {"train": Train, "stream": Stream, "cli": Cli}
