import functools
import json
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tempseg import autodiff as ad
from tempseg import model as md
from tempseg import train as tr
from tempseg.data import (NormStats, SensorSequence, default_synth_config,
                          synthesize_sequence)
from tempseg.losses import total_objective
from tempseg.model import ModelConfig
from tempseg.sampling import build_example_set
from tempseg.train import (TrainConfig, adam_step, evaluate, fit,
                           init_train_state, load_checkpoint,
                           save_checkpoint, train_epoch)

from test_model import assert_block_backs_every_tensor


def reference_adam(w0, grads, lr, b1, b2, eps):
    """Scalar-loop oracle for the bias-corrected update."""
    w = float(w0)
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        w -= lr * m_hat / (v_hat ** 0.5 + eps)
    return w


def per_tensor_adam_step(values, m, v, gradients, t, lr):
    """The update adam_step made tensor by tensor, on dicts by name, before
    the parameters shared one block: its bitwise oracle."""
    b1, b2 = tr.ADAM_BETAS
    for name in values:
        g = gradients[name]
        m[name] = b1 * m[name] + (1 - b1) * g
        v[name] = b2 * v[name] + (1 - b2) * g * g
        m_hat = m[name] / (1 - b1 ** t)
        v_hat = v[name] / (1 - b2 ** t)
        values[name] -= lr * m_hat / (np.sqrt(v_hat) + tr.ADAM_EPSILON)


def by_name(params, flat):
    """A flat array laid out as params.block, as {name: view}."""
    return {name: part for (name, _), part
            in zip(params.named_parameters(), params.split(flat))}


def small_config(**overrides):
    base = dict(input_dim=3, num_classes=2, num_stages=1,
                layers_per_stage=2, hidden_channels=6, projection_dim=4)
    base.update(overrides)
    return ModelConfig(**base)


def constant_gradients(state, value):
    return np.full_like(state.params.block, value)


def blocky_sequence(rng, length=96, num_classes=2, dim=3, run=16):
    """Near-separable toy data: one-hot class signature plus small noise."""
    labels = np.arange(length) // run % num_classes
    features = np.zeros((length, dim))
    features[np.arange(length), labels % dim] = 3.0
    features += rng.normal(scale=0.1, size=(length, dim))
    return SensorSequence(features=features, labels=labels.astype(np.int64))


def capture_graphs(monkeypatch):
    """The list of every graph built from here on, `backward`'s included,
    each as its nodes' (op, has parents) pairs, read when it is built,
    since a backward consumes the graph it walks."""
    graphs = []
    original = ad.CompGraph.from_output

    def snapshot(_cls, *outputs):
        graph = original(*outputs)
        graphs.append([(n._op, bool(n._parents)) for n in graph.nodes])
        return graph

    monkeypatch.setattr(ad.CompGraph, "from_output", classmethod(snapshot))
    return graphs


def make_dataset(n_sequences=4, seed=0, **seq_kwargs):
    rng = np.random.default_rng(seed)
    return [blocky_sequence(rng, **seq_kwargs) for _ in range(n_sequences)]


class TestAdamStep:
    def test_first_step_is_signed_learning_rate(self):
        state = init_train_state(small_config(), seed=0)
        before = state.params.block.copy()
        adam_step(state, constant_gradients(state, 2.0), lr=0.001)
        np.testing.assert_allclose(before - state.params.block, 0.001,
                                   atol=1e-9)

    def test_matches_scalar_oracle_over_five_steps(self):
        state = init_train_state(small_config(), seed=3)
        rng = np.random.default_rng(11)
        _, tensor0 = next(iter(state.params.named_parameters()))
        w0 = tensor0.values.flat[0]
        grad_history = []
        for _ in range(5):
            gradient = rng.normal(size=state.params.block.shape)
            grad_history.append(gradient[0])
            adam_step(state, gradient, lr=0.01)
        expected = reference_adam(w0, grad_history, 0.01, 0.9, 0.999, 1e-8)
        assert tensor0.values.flat[0] == pytest.approx(expected, abs=1e-14)

    def test_equals_the_per_tensor_update_bitwise(self):
        state = init_train_state(small_config(num_stages=2), seed=4)
        values = {n: t.values.copy()
                  for n, t in state.params.named_parameters()}
        m = {n: np.zeros_like(a) for n, a in values.items()}
        v = {n: np.zeros_like(a) for n, a in values.items()}
        rng = np.random.default_rng(5)
        size = state.params.block.size
        for t in range(1, 7):
            gradient = (rng.normal(size=size)
                        * 10.0 ** rng.integers(-8, 9, size=size))
            gradient[rng.random(size) < 0.1] = 0.0
            gradient[rng.random(size) < 0.1] = -0.0
            gradient[:4] = [1e150, -1e150, 1e-300, -0.0]
            named = by_name(state.params, gradient)
            named["stage0.adapter.b"][...] = -0.0   # a whole tensor
            named["stage1.proj_out.w"][...] = 0.0
            per_tensor_adam_step(values, m, v,
                                 {n: g.copy() for n, g in named.items()},
                                 t, lr=0.01)
            adam_step(state, gradient, lr=0.01)
            for flat, want in ((state.params.block, values), (state.m, m),
                               (state.v, v)):
                assert flat.tobytes() == b"".join(
                    want[name].tobytes() for name in values), t

    def test_zero_gradient_leaves_values_unchanged(self):
        state = init_train_state(small_config(), seed=0)
        before = state.params.block.copy()
        adam_step(state, constant_gradients(state, 0.0), lr=0.1)
        np.testing.assert_array_equal(state.params.block, before)

    def test_repeated_gradient_step_does_not_grow(self):
        state = init_train_state(small_config(), seed=0)
        grads = constant_gradients(state, -0.7)
        snap = state.params.block.copy()
        adam_step(state, grads, lr=0.001)
        mid = state.params.block.copy()
        adam_step(state, grads, lr=0.001)
        first = np.abs(mid - snap)
        second = np.abs(state.params.block - mid)
        assert np.all(second <= first + 1e-12)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_non_finite_gradient_names_the_parameter(self, where):
        state = init_train_state(small_config(), seed=0)
        adam_step(state, constant_gradients(state, 0.5), lr=0.001)
        gradient = constant_gradients(state, 1.0)
        names = list(by_name(state.params, gradient))
        index = {"first": 0, "middle": len(names) // 2,
                 "last": len(names) - 1}[where]
        parts = state.params.split(gradient)
        parts[index].flat[-1] = np.nan
        parts[-1].flat[0] = np.inf if index < len(names) - 1 else np.nan
        before = [a.copy() for a in (state.params.block, state.m, state.v)]
        with pytest.raises(FloatingPointError,
                           match=f"for {re.escape(names[index])}$"):
            adam_step(state, gradient, lr=0.001)
        # nothing of the failed step was applied
        assert state.step == 1
        for got, want in zip((state.params.block, state.m, state.v), before):
            assert got.tobytes() == want.tobytes()

    def test_step_counter_advances(self):
        state = init_train_state(small_config(), seed=0)
        assert state.step == 0
        adam_step(state, constant_gradients(state, 1.0), lr=0.001)
        assert state.step == 1


def test_every_tensor_views_the_parameter_block(tmp_path):
    config = small_config(num_stages=2)
    state = init_train_state(config, seed=3)
    assert_block_backs_every_tensor(state.params, config)
    adam_step(state, constant_gradients(state, 0.5), lr=0.01)
    assert_block_backs_every_tensor(state.params, config)
    save_checkpoint(state, tmp_path / "model.ckpt")
    loaded = load_checkpoint(tmp_path / "model.ckpt")
    assert_block_backs_every_tensor(loaded.params, config)
    assert loaded.params.block.flags.writeable
    fit(state, make_dataset(2), make_dataset(1, seed=9),
        TrainConfig(epochs=2, batch_size=1, contrast_weight=0.0))
    assert state.best_params is not state.params
    assert_block_backs_every_tensor(state.best_params, config)
    assert not np.shares_memory(state.best_params.block, state.params.block)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.001
        assert cfg.batch_size == 32

    @pytest.mark.parametrize("kwargs", [dict(learning_rate=0.0),
                                        dict(epochs=-1),
                                        dict(batch_size=0),
                                        dict(temperature=0.0),
                                        dict(contrast_weight=-0.1),
                                        dict(k_per_class=3),
                                        dict(k_per_class=0),
                                        dict(k_per_class=-2),
                                        dict(boundary_radius=-1),
                                        dict(learning_rate=float("nan")),
                                        dict(learning_rate=float("inf")),
                                        dict(temperature=float("nan")),
                                        dict(temperature=float("inf")),
                                        dict(contrast_weight=float("nan")),
                                        dict(contrast_weight=float("inf"))])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestTrainEpoch:
    def test_lambda_zero_total_is_classification_only(self):
        state = init_train_state(small_config(), seed=1)
        cfg = TrainConfig(epochs=1, contrast_weight=0.0, batch_size=2)
        stats = train_epoch(state, make_dataset(3), cfg,
                            np.random.default_rng(0))
        assert stats["contrast"] == [0.0]
        assert stats["total"] == stats["classification"][0]

    def test_optimizer_step_count_includes_remainder(self):
        state = init_train_state(small_config(), seed=1)
        cfg = TrainConfig(contrast_weight=0.0, batch_size=2)
        stats = train_epoch(state, make_dataset(5), cfg,
                            np.random.default_rng(0))
        assert stats["optimizer_steps"] == 3

    def test_large_batch_is_single_step(self):
        state = init_train_state(small_config(), seed=1)
        cfg = TrainConfig(contrast_weight=0.0, batch_size=32)
        stats = train_epoch(state, make_dataset(4), cfg,
                            np.random.default_rng(0))
        assert stats["optimizer_steps"] == 1

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            state = init_train_state(small_config(num_stages=2), seed=5)
            cfg = TrainConfig(batch_size=2, temperature=0.5, k_per_class=4)
            rng = np.random.default_rng(9)
            stats = [train_epoch(state, make_dataset(3), cfg, rng)
                     for _ in range(2)]
            values = [(s["classification"], s["contrast"], s["total"])
                      for s in stats]
            params = {n: t.values.copy()
                      for n, t in state.params.named_parameters()}
            results.append((values, params))
        assert results[0][0] == results[1][0]
        for name in results[0][1]:
            np.testing.assert_array_equal(results[0][1][name],
                                          results[1][1][name])

    def test_loss_decreases_on_separable_data(self):
        state = init_train_state(small_config(), seed=2)
        cfg = TrainConfig(learning_rate=0.01, batch_size=1,
                          contrast_weight=0.0)
        rng = np.random.default_rng(0)
        data = make_dataset(2)
        history = [train_epoch(state, data, cfg, rng)["total"]
                   for _ in range(6)]
        assert history[-1] < history[0]

    def test_sample_only_contrast_differs_from_full(self):
        def one_epoch(include_segments):
            state = init_train_state(small_config(), seed=3)
            cfg = TrainConfig(batch_size=2, temperature=0.5, k_per_class=4,
                              include_segments=include_segments)
            return train_epoch(state, make_dataset(2), cfg,
                               np.random.default_rng(4))

        full = one_epoch(True)
        sample_only = one_epoch(False)
        assert sample_only["contrast"][0] > 0
        assert sample_only["contrast"] != full["contrast"]

    def test_non_finite_loss_names_the_sequence(self):
        state = init_train_state(small_config(), seed=1)
        first = next(iter(state.params.named_parameters()))[1]
        first.values[...] = np.nan
        cfg = TrainConfig(contrast_weight=0.0)
        with pytest.raises(FloatingPointError, match=r"sequence \d"):
            train_epoch(state, make_dataset(2), cfg,
                        np.random.default_rng(0))

    def test_empty_dataset_rejected(self):
        state = init_train_state(small_config(), seed=1)
        with pytest.raises(ValueError, match="one training sequence"):
            train_epoch(state, [], TrainConfig(), np.random.default_rng(0))

    @pytest.mark.parametrize("contrast_weight", [0.0, 1.0])
    def test_batch_step_gets_the_mean_sequence_gradient(
            self, monkeypatch, contrast_weight):
        monkeypatch.setattr(tr, "TRAIN_CHUNK_LENGTH", 40)
        monkeypatch.setattr(tr, "chunk_workers", lambda: 2)
        cfg = TrainConfig(batch_size=2, temperature=0.5, k_per_class=4,
                          contrast_weight=contrast_weight)
        # two sequences make one batch; three, a pair and then a lone one
        for n_sequences, batches in ((2, [[0, 1]]), (3, [[0, 1], [2]])):
            state = init_train_state(small_config(num_stages=2), seed=5)
            data = make_dataset(n_sequences)
            # the expected gradients replay train_epoch's draws on a twin rng
            rng = np.random.default_rng(8)
            per_sequence = [tr._sequence_gradients(state, data[int(idx)], cfg,
                                                   rng, 40)[0]  # 3 chunks each
                            for idx in rng.permutation(len(data))]
            received = []
            monkeypatch.setattr(tr, "adam_step",
                                lambda _state, g, *args: received.append(g))
            stats = train_epoch(state, data, cfg, np.random.default_rng(8))
            assert stats["optimizer_steps"] == len(received) == len(batches)
            for g, batch in zip(received, batches):
                summed = functools.reduce(
                    np.add, [per_sequence[i] for i in batch])
                assert g.tobytes() == (summed / len(batch)).tobytes()
                for name, mean in by_name(state.params, g).items():
                    if ".proj_" in name:
                        assert np.any(mean != 0.0) == (contrast_weight > 0)

    def test_concurrent_backward_equals_serial(self, monkeypatch):
        # three training steps over the same parameters on three threads
        # at once, each running its chunks on its own workers
        monkeypatch.setattr(tr, "chunk_workers", lambda: 3)
        state = init_train_state(small_config(num_stages=2), seed=7)
        cfg = TrainConfig(temperature=0.5, k_per_class=4)
        data = make_dataset(3, length=256)

        def step_gradients(i, barrier=None):
            with tr.chunk_runner() as run:
                if barrier is not None:     # start every step at once
                    barrier.wait(timeout=10)
                return tr._sequence_gradients(     # 4 chunks each
                    state, data[i], cfg, np.random.default_rng(i), 64,
                    run)[0]

        serial = [step_gradients(i) for i in range(3)]
        barrier = threading.Barrier(3)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # interleave the threads finely
        try:
            with ThreadPoolExecutor(3) as pool:
                rounds = [list(pool.map(lambda i: step_gradients(i, barrier),
                                        range(3))) for _ in range(5)]
        finally:
            sys.setswitchinterval(switch)
        for concurrent in rounds:
            for expected, got in zip(serial, concurrent):
                assert got.tobytes() == expected.tobytes()

    def test_result_does_not_depend_on_worker_count(self, monkeypatch):
        monkeypatch.setattr(tr, "TRAIN_CHUNK_LENGTH", 20)  # 5 each
        results = []
        for workers in (1, 3):
            monkeypatch.setattr(tr, "chunk_workers", lambda: workers)
            state = init_train_state(small_config(num_stages=2), seed=5)
            cfg = TrainConfig(batch_size=2, temperature=0.5, k_per_class=4)
            rng = np.random.default_rng(9)
            stats = [train_epoch(state, make_dataset(3), cfg, rng)
                     for _ in range(2)]
            results.append((stats, {n: t.values.tobytes() for n, t
                                    in state.params.named_parameters()}))
        assert results[0] == results[1]

    @pytest.mark.parametrize("workers, length, on_caller", [
        (1, 60, True),      # one worker: chunks run on the calling thread
        (2, 60, False),
        (2, 20, True),      # lone chunks run on the calling thread, no pool
    ])
    def test_one_pool_per_epoch_and_none_without_parallel_chunks(
            self, monkeypatch, workers, length, on_caller):
        monkeypatch.setattr(tr, "chunk_workers", lambda: workers)
        monkeypatch.setattr(tr, "TRAIN_CHUNK_LENGTH", 20)
        pools, threads = [], set()
        pool, forward = tr.ThreadPoolExecutor, md.stage_forward
        monkeypatch.setattr(tr, "ThreadPoolExecutor",
                            lambda n: pools.append(n) or pool(n))
        monkeypatch.setattr(md, "stage_forward", lambda *args: (
            threads.add(threading.current_thread()) or forward(*args)))
        state = init_train_state(small_config(), seed=5)
        train_epoch(state, make_dataset(3, length=length),
                    TrainConfig(temperature=0.5, k_per_class=4),
                    np.random.default_rng(0))
        assert pools == ([] if on_caller else [workers])
        assert (threads == {threading.current_thread()}) == on_caller


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "GOTO_NUM_THREADS")


def run_python(args, openblas_threads=None):
    """Python on this package with `args`, OPENBLAS_NUM_THREADS set to
    `openblas_threads` (unset for None) and no other BLAS thread setting."""
    env = {name: value for name, value in os.environ.items()
           if name not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(tr.__file__).resolve().parents[1])
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    out = subprocess.run([sys.executable, *args], env=env, timeout=300,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


# Entries of chunk_runner: alone, nested, from two threads at once (the
# first to leave must not restore), and left by an exception.
PIN_SCRIPT = """
import threading
from tempseg import train
get, _ = train._openblas_thread_count()
before = get()
if before == 1:
    print("skip")
    raise SystemExit
with train.chunk_runner():
    assert get() == 1
assert get() == before
with train.chunk_runner():
    with train.chunk_runner():
        assert get() == 1
    assert get() == 1
assert get() == before
start = threading.Barrier(2)
entered = [threading.Event(), threading.Event()]
release = [threading.Event(), threading.Event()]
def hold(i):
    start.wait(10)
    with train.chunk_runner():
        entered[i].set()
        release[i].wait(10)
threads = [threading.Thread(target=hold, args=(i,)) for i in (0, 1)]
for thread in threads:
    thread.start()
assert all(event.wait(10) for event in entered)
release[0].set()
threads[0].join()
assert get() == 1
release[1].set()
threads[1].join()
assert get() == before
try:
    with train.chunk_runner():
        raise KeyError
except KeyError:
    pass
assert get() == before
print("ok")
"""


class TestChunkPlan:
    # blas: the thread count numpy's BLAS reports, None where no setter is
    # found; chunk_runner pins a found BLAS to one thread, so a threaded
    # setting gets the pool too, and only an unpinnable BLAS runs one worker
    @pytest.mark.parametrize("blas, workers", [(1, 5), (2, 5), (None, 1)])
    def test_chunk_threads_only_beside_a_single_threaded_blas(
            self, monkeypatch, blas, workers):
        monkeypatch.setattr(tr, "_openblas_thread_count", lambda: (
            None if blas is None else (lambda: blas, lambda threads: None)))
        monkeypatch.setattr(tr.os, "sched_getaffinity", lambda pid: range(5),
                            raising=False)
        assert tr.chunk_workers() == workers

    def test_one_blas_thread_while_a_runner_is_open(self):
        if tr._openblas_thread_count() is None:
            pytest.skip("numpy's BLAS has no thread setter")
        out = run_python(["-c", PIN_SCRIPT], openblas_threads="2").strip()
        if out == "skip":
            pytest.skip("numpy's BLAS runs one thread at this setting")
        assert out == "ok"

    def test_checkpoint_does_not_depend_on_the_blas_setting(self, tmp_path):
        # default model width, one epoch on two 2000-sample recordings;
        # threaded BLAS used to train one whole graph per recording, and
        # its checkpoint differed from the pinned, chunked one
        if tr._openblas_thread_count() is None:
            pytest.skip("numpy's BLAS has no thread setter")
        config = tmp_path / "c.cfg"
        config.write_text(f"data_dir = {tmp_path / 'data'}\nnum_train = 2\n"
                          "num_val = 0\nnum_test = 0\nepochs = 1\n")
        run_python(["-m", "tempseg.cli", "generate", "--config", str(config),
                    "--out", str(tmp_path / "data")])
        checkpoints = []
        for threads in (None, "1", "2"):
            out = tmp_path / f"run_{threads}"
            run_python(["-m", "tempseg.cli", "train", "--config", str(config),
                        "--out", str(out)], openblas_threads=threads)
            checkpoints.append((out / "model.ckpt").read_bytes())
        assert checkpoints[0] == checkpoints[1] == checkpoints[2]


def whole_sequence_gradients(state, seq, cfg, rng):
    """Oracle: one recorded graph over the whole sequence, from forward
    through example selection and the objective to backward."""
    outs = md.mstcn_forward(seq.features, state.params, state.model_config,
                            project=cfg.contrast_weight > 0)
    if cfg.contrast_weight > 0:
        sets = [build_example_set(
                    out.projected,
                    np.argmax(out.probs.values, axis=1), seq.labels, rng,
                    k_per_class=cfg.k_per_class,
                    boundary_radius=cfg.boundary_radius,
                    include_segments=cfg.include_segments)
                for out in outs]
    else:
        sets = [([], [])] * len(outs)
    loss, breakdown = total_objective([out.logits for out in outs],
                                      seq.labels, sets, cfg.contrast_weight,
                                      cfg.temperature)
    grads = ad.backward({loss: 1.0}, state.params.tensors())
    return {name: grads.get(t, np.zeros_like(t.values))
            for name, t in state.params.named_parameters()}, breakdown


@settings(max_examples=40, deadline=None)
@given(stages=st.integers(1, 3), kernel=st.sampled_from([1, 3, 5]),
       contrast=st.sampled_from([(0.0, True), (1.0, False), (1.0, True)]),
       chunk=st.integers(1, 40), data=st.data())
def test_chunked_step_equals_whole_sequence(stages, kernel, contrast, chunk,
                                            data):
    cfg = small_config(num_classes=3, num_stages=stages, kernel_size=kernel)
    length = data.draw(st.integers(1, 4 * chunk + 5), label="length")
    run = data.draw(st.integers(1, 30), label="run")
    rng = np.random.default_rng(length)
    seq = SensorSequence(features=rng.normal(size=(length, cfg.input_dim)),
                         labels=np.arange(length) // run % cfg.num_classes)
    state = init_train_state(cfg, seed=data.draw(st.integers(0, 99)))
    train_cfg = TrainConfig(contrast_weight=contrast[0], temperature=0.5,
                            k_per_class=4, include_segments=contrast[1])
    want, want_terms = whole_sequence_gradients(state, seq, train_cfg,
                                                np.random.default_rng(0))
    with ThreadPoolExecutor(2) as pool:
        gradient, got_terms = tr._sequence_gradients(
            state, seq, train_cfg, np.random.default_rng(0), chunk, pool.map)
    got = by_name(state.params, gradient)
    assert got.keys() == want.keys()
    for name in want:
        scale = np.max(np.abs(want[name]))
        assert np.max(np.abs(got[name] - want[name])) <= 1e-10 * scale, name
    assert got_terms.sample_examples == want_terms.sample_examples
    assert got_terms.segment_examples == want_terms.segment_examples
    assert got_terms.total == pytest.approx(want_terms.total, rel=1e-12)


def recorded_cascade_gradients(state, seq, cfg, rng, chunk_length, run=map):
    """Oracle: the step with every stage of a chunk recorded in one graph,
    kept through the loss phase and differentiated by one backward per
    chunk; its gradients summed per tensor, then laid out flat."""
    params, config = state.params, state.model_config
    chunks = tr.halo_chunks(len(seq.features), chunk_length,
                            md.receptive_radius(config))

    def forward(chunk):
        _, read, _ = chunk
        outs = md.mstcn_forward(seq.features[read], params, config,
                                project=cfg.contrast_weight > 0)
        heads = [out.logits for out in outs]
        if cfg.contrast_weight > 0:
            heads += [out.projected for out in outs]
        return heads

    cotangents, breakdown = tr._loss_phase(list(run(forward, chunks)),
                                           chunks, seq, cfg, rng,
                                           config.num_stages)
    parts = list(run(lambda seeds: ad.backward(seeds, params.tensors()),
                     cotangents))
    grads = []
    for t in params.tensors():
        reached = [part[t] for part in parts if t in part]
        grads.append(functools.reduce(np.add, reached) if reached
                     else np.zeros_like(t.values))
    return np.concatenate([g.ravel() for g in grads]), breakdown


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("chunk_length", [90, 25])     # 1 chunk, 4 chunks
@pytest.mark.parametrize("contrast_weight, include_segments",
                         [(0.0, True), (1.0, False), (1.0, True)])
@pytest.mark.parametrize("stages", [1, 2, 3])
def test_stagewise_recompute_equals_the_recorded_cascade_bitwise(
        stages, contrast_weight, include_segments, chunk_length, workers):
    cfg = small_config(num_classes=3, num_stages=stages)
    rng = np.random.default_rng(stages)
    seq = SensorSequence(features=rng.normal(size=(90, cfg.input_dim)),
                         labels=np.arange(90) // 7 % cfg.num_classes)
    state = init_train_state(cfg, seed=stages)
    train_cfg = TrainConfig(contrast_weight=contrast_weight, temperature=0.5,
                            k_per_class=4, include_segments=include_segments)
    results = []
    with ThreadPoolExecutor(workers) as pool:
        run = map if workers == 1 else pool.map
        for step in (recorded_cascade_gradients, tr._sequence_gradients):
            step_rng = np.random.default_rng(11)
            grads, terms = step(state, seq, train_cfg, step_rng,
                                chunk_length, run)
            results.append((grads.dtype, grads.tobytes(), terms,
                            step_rng.bit_generator.state))
    assert results[1] == results[0]

@pytest.mark.parametrize("chunk_length", [90, 25])     # 1 chunk, 4 chunks
def test_a_slice_sums_the_parts_that_reached_it_and_keeps_their_zeros(
        monkeypatch, chunk_length):
    # every backward turns its gradients into -0.0s: a tensor's slice must
    # be its chunks' parts summed (-0.0 + -0.0 is -0.0), not added to a
    # zero (0.0 + -0.0 is 0.0); projections, unread without contrast, get
    # 0.0
    backward = ad.backward
    monkeypatch.setattr(ad, "backward", lambda cotangents, wrt: {
        t: np.full(g.shape, -0.0)
        for t, g in backward(cotangents, wrt).items()})
    state = init_train_state(small_config(num_stages=2), seed=1)
    seq = make_dataset(1, length=90)[0]
    gradient, _ = tr._sequence_gradients(
        state, seq, TrainConfig(contrast_weight=0.0), np.random.default_rng(0),
        chunk_length)
    for name, part in by_name(state.params, gradient).items():
        assert np.all(np.signbit(part)) == (".proj_" not in name), name
        assert not np.any(part)


class TestEvaluate:
    def test_does_not_mutate_parameters(self):
        state = init_train_state(small_config(), seed=4)
        before = {n: t.values.copy()
                  for n, t in state.params.named_parameters()}
        evaluate(state.params, state.model_config, make_dataset(2))
        for name, tensor in state.params.named_parameters():
            np.testing.assert_array_equal(tensor.values, before[name])

    def test_counts_and_shapes(self):
        state = init_train_state(small_config(), seed=4)
        data = make_dataset(3, length=64)
        report, per_seq = evaluate(state.params, state.model_config, data)
        assert report.total_samples == 3 * 64
        assert [len(p) for p in per_seq] == [64, 64, 64]

    def test_repeat_evaluation_is_identical(self):
        state = init_train_state(small_config(), seed=4)
        data = make_dataset(2)
        a, _ = evaluate(state.params, state.model_config, data)
        b, _ = evaluate(state.params, state.model_config, data)
        assert a.to_json() == b.to_json()

    def test_forward_is_graph_free_only_inside_the_loop(self, monkeypatch):
        from tempseg import autodiff as ad
        from tempseg import model as md
        from tempseg.train import final_stage_outputs
        calls = []
        original = md.stage_forward

        def spy(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((threading.current_thread(), result))
            return result

        monkeypatch.setattr(md, "stage_forward", spy)
        monkeypatch.setattr(tr, "chunk_workers", lambda: 2)
        state = init_train_state(small_config(num_stages=2), seed=4)
        result = final_stage_outputs(state.params, state.model_config,
                                     make_dataset(2))
        assert len(result) == 2
        assert len(calls) == 2 * 2      # one chunk each, two stages
        for thread, out in calls:
            assert thread is not threading.main_thread()
            assert out.probs._parents == () and out.probs._vjp is None
        # after the call, the caller records again
        assert ad.relu(ad.Tensor([1.0]))._vjp is not None


class TestFit:
    def test_zero_epochs_keeps_initial_parameters(self):
        state = init_train_state(small_config(), seed=6)
        init = {n: t.values.copy()
                for n, t in state.params.named_parameters()}
        history = fit(state, make_dataset(2), [], TrainConfig(epochs=0))
        assert history == []
        best = dict(state.best_params.named_parameters())
        for name, tensor in state.params.named_parameters():
            np.testing.assert_array_equal(tensor.values, init[name])
            np.testing.assert_array_equal(best[name].values, init[name])

    def test_one_log_record_per_epoch(self):
        state = init_train_state(small_config(), seed=6)
        seen = []
        cfg = TrainConfig(epochs=3, contrast_weight=0.0, batch_size=1)
        history = fit(state, make_dataset(2), make_dataset(1, seed=9), cfg,
                      log_fn=seen.append)
        assert len(history) == 3 and seen == history
        for record in history:
            assert {"epoch", "classification", "contrast", "total",
                    "optimizer_steps", "skipped_anchors", "sample_examples",
                    "segment_examples", "val_macro_f1",
                    "val_jaccard"} == set(record)
            assert record["optimizer_steps"] == 2
            assert record["skipped_anchors"] == 0   # no contrast term
            assert record["sample_examples"] == [0]
            assert record["segment_examples"] == [0]

    def test_skipped_anchors_are_summed_over_the_epoch(self, monkeypatch):
        from tempseg import train as tr
        per_sequence = []
        original = tr.total_objective

        def spy(*args, **kwargs):
            loss, breakdown = original(*args, **kwargs)
            per_sequence.append(breakdown)
            return loss, breakdown

        monkeypatch.setattr(tr, "total_objective", spy)
        state = init_train_state(small_config(), seed=6)
        cfg = TrainConfig(epochs=2, batch_size=2, k_per_class=2)
        # a single-class sequence: its anchors have no negative
        data = make_dataset(2) + make_dataset(1, run=96)
        history = fit(state, data, [], cfg)
        epochs = [per_sequence[:3], per_sequence[3:]]
        assert [r["skipped_anchors"] for r in history] == [
            sum(b.skipped_anchors for b in epoch) for epoch in epochs]
        assert history[0]["skipped_anchors"] > 0
        assert [r["optimizer_steps"] for r in history] == [2, 2]
        # the losses are sums in sequence order over n, bitwise
        for record, epoch in zip(history, epochs):
            for key in ("classification", "contrast"):
                assert record[key] == [sum(stage) / 3 for stage in zip(
                    *(getattr(b, key) for b in epoch))]
            assert record["total"] == sum(b.total for b in epoch) / 3

    def test_pool_sizes_are_summed_per_stage(self, monkeypatch):
        from tempseg import train as tr
        per_sequence = []
        original = tr.total_objective

        def spy(logits, labels, example_sets, *args, **kwargs):
            per_sequence.append([(len(s), len(g)) for s, g in example_sets])
            return original(logits, labels, example_sets, *args, **kwargs)

        monkeypatch.setattr(tr, "total_objective", spy)
        state = init_train_state(small_config(num_stages=2), seed=6)
        cfg = TrainConfig(epochs=2, batch_size=2, k_per_class=4)
        # runs of 16 and 24 samples: different segment counts per sequence
        data = make_dataset(2) + make_dataset(1, run=24)
        history = fit(state, data, [], cfg)
        for epoch, record in enumerate(history):
            sizes = np.array(per_sequence[3 * epoch:3 * epoch + 3])
            assert record["sample_examples"] == sizes[:, :, 0].sum(0).tolist()
            assert record["segment_examples"] == sizes[:, :, 1].sum(0).tolist()
        # at most 3 sequences x 2 classes x 4 (zero projection rows drop)
        assert all(0 < n <= 24 for n in history[0]["sample_examples"])
        assert history[0]["segment_examples"] == [16, 16]   # 6 + 6 + 4 runs

        no_segments = TrainConfig(epochs=1, k_per_class=4,
                                  include_segments=False)
        record = fit(init_train_state(small_config(), seed=6), data, [],
                     no_segments)[0]
        assert 0 < record["sample_examples"][0] <= 24
        assert record["segment_examples"] == [0]

    @pytest.mark.parametrize("include_segments", [True, False])
    def test_contrast_graph_size_does_not_grow_with_k(self, monkeypatch,
                                                      include_segments):
        # per stage: one projection head, one gathered sample pool, one
        # pooled segment matrix (only with segments), one stack and one
        # row permutation, counted over every graph a step differentiates
        graphs = capture_graphs(monkeypatch)
        seq = make_dataset(1)[0]
        want = {"row": 2, "stack_rows": 1, "projection_head": 1,
                "mean_rows": int(include_segments),
                "l2_normalize": int(include_segments)}
        for k in (2, 4, 8, 16):
            state = init_train_state(small_config(num_stages=2), seed=1)
            cfg = TrainConfig(k_per_class=k,
                              include_segments=include_segments)
            graphs.clear()
            tr._sequence_gradients(state, seq, cfg, np.random.default_rng(0),
                                   tr.TRAIN_CHUNK_LENGTH)
            ops = [op for graph in graphs for op, _ in graph]
            assert {op: ops.count(op) for op in want} == {
                op: 2 * count for op, count in want.items()}, f"k={k}"

    def test_chunk_graphs_hold_the_forward_and_nothing_else(self,
                                                           monkeypatch):
        # default config, T=2000: two chunks of 1000 samples, each
        # differentiated one stage at a time, the last stage first; a
        # stage graph holds its input, 3 adapter, 6 x 5 block, 3
        # classifier and 5 projection nodes, and the recomputed first
        # stage also the softmax that feeds stage 2: no seeding ops.
        # Stage 2's input is stage 1's graph-free softmax output, a leaf
        # by name too
        graphs = capture_graphs(monkeypatch)
        seq = synthesize_sequence(default_synth_config())
        state = init_train_state(ModelConfig(input_dim=6, num_classes=5), 0)
        tr._sequence_gradients(state, seq, TrainConfig(),
                               np.random.default_rng(0),
                               tr.TRAIN_CHUNK_LENGTH)
        stage_graphs = graphs[1:]   # the first is the loss graph's
        assert [len(g) for g in stage_graphs] == [42, 43, 42, 43]
        for graph, recomputed in zip(stage_graphs, [False, True] * 2):
            assert Counter(op for op, _ in graph) == Counter({
                "leaf": 33, "conv1d_dilated": 2, "residual_block": 6,
                "projection_head": 1, "softmax_rows": recomputed})
            assert all(parented for op, parented in graph if op != "leaf")

    def test_a_step_holds_one_stage_graph_per_worker(self, monkeypatch):
        # default config, T=2000, two chunks on two workers: one stage's
        # graph per chunk is about 20 arrays of 1126 x 32 float64s (a
        # chunk with its halo by the hidden width); keeping every stage
        # recorded through the loss phase peaks at about 73, keeping one
        # chunk's last-stage graph alive through the backward at about
        # 58, and a backward that frees no node until it returns at
        # 43.3-43.7 (10 runs); freeing each node as the walk passes it
        # gives 39.2-41.0.  A first step also imports numpy.ma (through
        # np.unique), so the measured step is the second
        monkeypatch.setattr(tr, "chunk_workers", lambda: 2)
        seq = synthesize_sequence(default_synth_config())
        state = init_train_state(ModelConfig(input_dim=6, num_classes=5), 0)
        tr._sequence_gradients(state, seq, TrainConfig(),
                               np.random.default_rng(0), tr.TRAIN_CHUNK_LENGTH)
        with tr.chunk_runner() as run:
            tracemalloc.start()
            try:
                tr._sequence_gradients(state, seq, TrainConfig(),
                                       np.random.default_rng(0),
                                       tr.TRAIN_CHUNK_LENGTH, run)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 42 * 1126 * 32 * 8

    def test_the_loss_phase_is_freed_before_the_chunks_backpropagate(
            self, monkeypatch):
        # the first backward differentiates the loss graph on the leaves;
        # once the leaves' values are unreachable, so are the leaves, the
        # leaf gradients, the loss graph and the pools built on them
        leaf_values, alive = [], []
        original = ad.backward

        def spy(cotangents, wrt):
            if leaf_values:
                alive.append([ref() is not None for ref in leaf_values])
            else:
                leaf_values.extend(weakref.ref(leaf.values) for leaf in wrt)
            return original(cotangents, wrt)

        monkeypatch.setattr(ad, "backward", spy)
        state = init_train_state(small_config(num_stages=2), seed=1)
        tr._sequence_gradients(state, make_dataset(1)[0], TrainConfig(),
                               np.random.default_rng(0), 40)
        assert len(leaf_values) == 4    # logits and projections per stage
        assert alive == [[False] * 4] * 6   # one backward per chunk and stage

    @pytest.mark.parametrize("contrast_weight, include_segments, want", [
        (0.0, True, {"projection_head": 0, "l2_normalize": 0,
                     "mean_rows": 0}),
        (1.0, False, {"projection_head": 3, "l2_normalize": 0,
                      "mean_rows": 0}),
        (1.0, True, {"projection_head": 3, "l2_normalize": 2,
                     "mean_rows": 2}),
    ])
    def test_step_runs_only_the_heads_and_pools_it_reads(
            self, monkeypatch, contrast_weight, include_segments, want):
        # forward calls, recorded or not: a projection head per stage only
        # with contrast, and once more for the first stage, which the
        # backward re-runs; a segment pool per stage only with segments
        from tempseg import autodiff as ad
        from tempseg import train as tr
        calls = {op: 0 for op in want}
        for op in want:
            def counted(*args, _op=op, _original=getattr(ad, op)):
                calls[_op] += 1
                return _original(*args)
            monkeypatch.setattr(ad, op, counted)
        state = init_train_state(small_config(num_stages=2), seed=1)
        cfg = TrainConfig(contrast_weight=contrast_weight, k_per_class=4,
                          include_segments=include_segments)
        tr._sequence_gradients(state, make_dataset(1)[0], cfg,
                               np.random.default_rng(0), tr.TRAIN_CHUNK_LENGTH)
        assert calls == want

    def test_validation_leaves_training_differentiable(self, monkeypatch):
        # validation runs graph-free; the epoch after it must still
        # produce gradients for every parameter the first epoch reached
        from tempseg import train as tr
        nonzero = []
        original = tr.adam_step

        def spy(state, gradient, *args, **kwargs):
            nonzero.append({n for n, g in by_name(state.params,
                                                  gradient).items()
                            if np.any(g)})
            return original(state, gradient, *args, **kwargs)

        monkeypatch.setattr(tr, "adam_step", spy)
        state = init_train_state(small_config(), seed=6)
        cfg = TrainConfig(epochs=2, batch_size=2, contrast_weight=0.5)
        fit(state, make_dataset(2), make_dataset(1, seed=9), cfg)
        assert len(nonzero) == 2
        assert nonzero[0] and nonzero[1] == nonzero[0]

    def test_without_validation_the_latest_parameters_are_kept(self):
        state = init_train_state(small_config(), seed=6)
        fit(state, make_dataset(2), [], TrainConfig(epochs=3, batch_size=1))
        assert state.best_params is state.params
        assert state.best_metric is None and state.best_epoch == 2

    def test_best_snapshot_reproduces_logged_metric(self):
        state = init_train_state(small_config(), seed=6)
        cfg = TrainConfig(epochs=4, learning_rate=0.01, batch_size=1,
                          contrast_weight=0.0)
        val = make_dataset(1, seed=9)
        history = fit(state, make_dataset(2), val, cfg)
        best = max(history, key=lambda r: r["val_macro_f1"])
        assert state.best_metric == best["val_macro_f1"]
        assert state.best_epoch == best["epoch"]
        report, _ = evaluate(state.best_params, state.model_config, val)
        assert report.macro_f1 == best["val_macro_f1"]


class TestCheckpoint:
    def trained_state(self, tmp_path, epochs=2):
        state = init_train_state(small_config(num_stages=2), seed=7)
        state.norm_stats = NormStats(mean=np.array([0.1, -0.2, 0.3]),
                                     std=np.array([1.0, 2.0, 0.5]))
        cfg = TrainConfig(epochs=epochs, batch_size=1, k_per_class=4,
                          temperature=0.5)
        fit(state, make_dataset(2), [], cfg)
        return state

    def test_round_trip_is_bitwise(self, tmp_path):
        state = self.trained_state(tmp_path)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path, metadata={"seed": 7})
        loaded = load_checkpoint(path)
        assert loaded.model_config == state.model_config
        assert loaded.step == 0
        for name, tensor in state.params.named_parameters():
            restored = dict(loaded.params.named_parameters())[name]
            np.testing.assert_array_equal(restored.values, tensor.values)
        assert loaded.m.shape == loaded.v.shape == loaded.params.block.shape
        assert not loaded.m.any() and not loaded.v.any()
        np.testing.assert_array_equal(loaded.norm_stats.mean,
                                      state.norm_stats.mean)
        np.testing.assert_array_equal(loaded.norm_stats.std,
                                      state.norm_stats.std)

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        state = self.trained_state(tmp_path)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)

        def no_draws(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(md, "init_params", no_draws)
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        loaded = load_checkpoint(path)
        saved = list(state.params.named_parameters())
        restored = list(loaded.params.named_parameters())
        assert [name for name, _ in restored] == [name for name, _ in saved]
        for (name, a), (_, b) in zip(saved, restored):
            assert b.values.dtype == np.float64
            assert b.values.tobytes() == a.values.tobytes(), name
        assert loaded.m.shape == loaded.v.shape == loaded.params.block.shape
        assert not loaded.m.any() and not loaded.v.any()

    def test_save_after_load_is_byte_identical(self, tmp_path):
        state = self.trained_state(tmp_path)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(state, first, metadata={"seed": 7})
        save_checkpoint(load_checkpoint(first), second, metadata={"seed": 7})
        assert first.read_bytes() == second.read_bytes()

    def test_evaluation_survives_round_trip_exactly(self, tmp_path):
        state = self.trained_state(tmp_path)
        data = make_dataset(2, seed=21)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        before, _ = evaluate(state.params, state.model_config, data)
        loaded = load_checkpoint(path)
        after, _ = evaluate(loaded.params, loaded.model_config, data)
        assert before.to_json() == after.to_json()

    def test_header_metadata_round_trips(self, tmp_path):
        state = self.trained_state(tmp_path)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path, metadata={"seed": 7, "note": "abc"})
        header = tr._read_header(path)[0]
        assert header["metadata"] == {"seed": 7, "note": "abc"}
        assert set(header) == {"model_config", "norm_mean", "norm_std",
                               "metadata"}

    def test_truncated_file_is_a_format_error(self, tmp_path):
        state = self.trained_state(tmp_path)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-17])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_future_version_rejected(self, tmp_path):
        state = self.trained_state(tmp_path)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version 99"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_format_rejected(self, tmp_path, version):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.trained_state(tmp_path, epochs=0), path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = version.to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError,
                           match=f"^unsupported checkpoint version {version}$"):
            load_checkpoint(path)

    def test_header_then_one_float64_block(self, tmp_path):
        state = self.trained_state(tmp_path)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        blob = path.read_bytes()
        (length,) = struct.unpack("<Q", blob[12:20])
        count = md.parameter_count(state.model_config)
        assert len(blob) == 20 + length + 8 * count
        assert blob[20 + length:] == b"".join(
            t.values.astype("<f8").tobytes()
            for _, t in state.params.named_parameters())

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_non_finite_parameter_rejected(self, tmp_path, where):
        state = self.trained_state(tmp_path, epochs=0)
        names = [name for name, _ in state.params.named_parameters()]
        index = {"first": 0, "middle": len(names) // 2,
                 "last": len(names) - 1}[where]
        # an inf as the block's last scalar, then a nan as the tensor's last
        end = sum(t.values.size for t in state.params.tensors()[:index + 1])
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        blob = bytearray(path.read_bytes())
        start = len(blob) - 8 * state.params.block.size
        for at, value in ((state.params.block.size, float("inf")),
                          (end, float("nan"))):
            blob[start + 8 * (at - 1):start + 8 * at] = struct.pack("<d",
                                                                    value)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=f"checkpoint tensor "
                           f"{re.escape(names[index])} is not finite$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("keys, value", [
        (("model_config", "bogus"), 1),
        (("model_config", "kernel_size"), None),
        (("model_config", "num_stages"), "2"),
        (("model_config", "hidden_channels"), 6.0),
        (("model_config", "hidden_channels"), 10 ** 5),
        (("model_config",), [1]),
        (("norm_mean",), [0.0]),
        (("norm_std",), [1.0, float("nan"), 1.0]),
        ((), [{}]),
        (("model_config", "hidden_channels"), 1),   # a smaller model
    ])
    def test_malformed_header_is_a_format_error(self, tmp_path, keys, value):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.trained_state(tmp_path, epochs=0), path)
        blob = path.read_bytes()
        (length,) = struct.unpack("<Q", blob[12:20])
        header = json.loads(blob[20:20 + length])
        if keys:
            target = header
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value
        else:
            header = value
        encoded = json.dumps(header).encode("utf-8")
        path.write_bytes(blob[:12] + struct.pack("<Q", len(encoded))
                         + encoded + blob[20 + length:])
        with pytest.raises(ValueError):
            load_checkpoint(path)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    state = init_train_state(small_config(num_stages=2, layers_per_stage=1,
                                          hidden_channels=2,
                                          projection_dim=2), seed=1)
    state.norm_stats = NormStats(mean=np.zeros(3), std=np.ones(3))
    path = tmp_path_factory.mktemp("fuzz") / "tiny.ckpt"
    save_checkpoint(state, path, metadata={"seed": 1})
    return path, path.read_bytes()


class TestCheckpointCorruption:
    """Any damage to a checkpoint either loads or raises ValueError."""

    def test_every_truncation_is_a_format_error(self, tiny_checkpoint):
        path, blob = tiny_checkpoint
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ValueError):
                load_checkpoint(path)

    def test_byte_after_the_last_tensor_is_rejected(self, tiny_checkpoint):
        path, blob = tiny_checkpoint
        path.write_bytes(blob + b"\x00")
        with pytest.raises(ValueError, match="bytes after its last tensor"):
            load_checkpoint(path)

    @settings(max_examples=300, deadline=None)
    @given(flips=st.lists(st.tuples(st.integers(min_value=0),
                                    st.integers(1, 255)),
                          min_size=1, max_size=6))
    def test_byte_flips_load_or_raise_value_error(self, tiny_checkpoint,
                                                  flips):
        path, blob = tiny_checkpoint
        corrupt = bytearray(blob)
        for pos, mask in flips:
            corrupt[pos % len(blob)] ^= mask
        path.write_bytes(bytes(corrupt))
        try:
            load_checkpoint(path)
        except ValueError:
            pass
