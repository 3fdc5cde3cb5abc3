"""Chunked inference: a recording labelled in halo chunks on several
threads equals one whole-sequence forward."""

import contextlib
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tempseg import autodiff as ad
from tempseg import model as md
from tempseg import train as tr
from tempseg.data import SensorSequence


def recording(length, dim, seed=0):
    rng = np.random.default_rng(seed)
    return SensorSequence(features=rng.normal(size=(length, dim)),
                          labels=np.zeros(length, dtype=np.int64))


def whole_sequence(params, cfg, features):
    out = md.mstcn_forward(features, params, cfg, project=True)[-1]
    return out.probs.values, out.projected.values


def chunked(params, cfg, seq, embed=True):
    (result,) = tr.final_stage_outputs(params, cfg, [seq], embed)
    return result


def spans(length, chunk, paired=False):
    """[start, end) of each chunk's labelled rows, in order."""
    return [(rows.start, rows.stop)
            for rows, _, _ in tr.halo_chunks(length, chunk, 0, paired)]


def inference_chunks(length):
    """How many chunks `final_stage_outputs` cuts `length` samples into."""
    return len(spans(length, tr.CHUNK_LENGTH, paired=True))


def test_default_radius():
    cfg = md.ModelConfig(input_dim=6, num_classes=5)
    assert md.receptive_radius(cfg) == 2 * 1 * (2 ** 6 - 1) == 126


@pytest.mark.parametrize("length, chunk, want", [
    (0, 4, [(0, 0)]),
    (1, 4, [(0, 1)]),
    (8, 4, [(0, 4), (4, 8)]),
    (9, 4, [(0, 3), (3, 6), (6, 9)]),
    (10_000, 2048, [(0, 2000), (2000, 4000), (4000, 6000), (6000, 8000),
                    (8000, 10_000)]),
])
def test_chunk_spans(length, chunk, want):
    assert spans(length, chunk) == want


@settings(max_examples=60, deadline=None)
@given(length=st.integers(1, 5000), chunk=st.integers(1, 600))
def test_chunk_spans_cover_in_near_equal_pieces(length, chunk):
    pieces = spans(length, chunk)
    sizes = [end - start for start, end in pieces]
    assert pieces[0][0] == 0 and pieces[-1][1] == length
    assert all(a[1] == b[0] for a, b in zip(pieces, pieces[1:]))
    assert len(pieces) == -(-length // chunk)
    assert max(sizes) <= chunk and max(sizes) - min(sizes) <= 1


@settings(max_examples=100, deadline=None)
@given(length=st.integers(0, 2 * 10 ** 7))
@example(length=0)
@example(length=tr.CHUNK_LENGTH)
@example(length=tr.CHUNK_LENGTH + 1)
@example(length=8_388_609)  # a chunk length of ceil(T / 4098) gives 4097
@example(length=10 ** 7)    # and here 4883 chunks, not 4884
def test_inference_plan_is_the_least_even_count_that_fits(length):
    chunk = tr.CHUNK_LENGTH
    pieces = spans(length, chunk, paired=True)
    count, sizes = len(pieces), [end - start for start, end in pieces]
    assert (count == 1) == (length <= chunk)
    if count > 1:
        assert count % 2 == 0
        assert (count - 2) * chunk < length     # two fewer would not fit
    assert max(sizes) <= chunk and max(sizes) - min(sizes) <= 1
    assert pieces[0][0] == 0 and pieces[-1][1] == length
    assert all(a[1] == b[0] for a, b in zip(pieces, pieces[1:]))


@settings(max_examples=40, deadline=None)
@given(stages=st.integers(1, 3), kernel=st.sampled_from([1, 3, 5]),
       layers=st.integers(1, 4), data=st.data())
def test_chunked_equals_whole_sequence(stages, kernel, layers, data):
    cfg = md.ModelConfig(input_dim=2, num_classes=3, num_stages=stages,
                         layers_per_stage=layers, hidden_channels=4,
                         projection_dim=3, kernel_size=kernel)
    radius = md.receptive_radius(cfg)
    # below, at and above the radius (a radius of 0 has no "below")
    chunk = max(1, radius + data.draw(st.integers(-radius, radius + 8),
                                      label="chunk - radius"))
    length = data.draw(st.integers(1, 3 * chunk + 5), label="length")
    params = md.init_params(cfg, seed=data.draw(st.integers(0, 99)))
    seq = recording(length, cfg.input_dim, seed=length)
    want_probs, want_embeds = whole_sequence(params, cfg, seq.features)
    with mock.patch.object(tr, "CHUNK_LENGTH", chunk):
        probs, embeds = chunked(params, cfg, seq)
    assert probs.shape == want_probs.shape
    assert embeds.shape == want_embeds.shape
    np.testing.assert_allclose(probs, want_probs, rtol=0, atol=1e-12)
    np.testing.assert_allclose(embeds, want_embeds, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(np.argmax(probs, axis=1),
                                  np.argmax(want_probs, axis=1))


@pytest.mark.parametrize("cfg", [
    md.ModelConfig(input_dim=3, num_classes=4),
    md.ModelConfig(input_dim=3, num_classes=4, num_stages=3,
                   layers_per_stage=2, hidden_channels=8, kernel_size=5),
], ids=["defaults", "k5"])
def test_radius_is_tight(cfg):
    radius = md.receptive_radius(cfg)
    params = md.init_params(cfg, seed=3)
    # Only one path reaches t +- radius, through every stage's softmax;
    # halved weights keep the softmaxes from saturating, so its effect
    # stays far above rounding.
    for tensor in params.tensors():
        tensor.values *= 0.5
    x = recording(2 * radius + 61, cfg.input_dim, seed=5).features
    t = radius + 30
    bumped = x.copy()
    bumped[t] += 1.0
    base = md.mstcn_forward(x, params, cfg)[-1].probs.values
    moved = md.mstcn_forward(bumped, params, cfg)[-1].probs.values
    changed = np.nonzero(np.any(base != moved, axis=1))[0]
    assert changed.min() == t - radius and changed.max() == t + radius


def test_every_worker_forward_is_graph_free(monkeypatch):
    calls = []
    original = md.stage_forward

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((threading.current_thread(), result))
        return result

    monkeypatch.setattr(md, "stage_forward", spy)
    monkeypatch.setattr(tr, "CHUNK_LENGTH", 50)
    monkeypatch.setattr(tr, "chunk_workers", lambda: 2)
    cfg = md.ModelConfig(input_dim=3, num_classes=4, num_stages=2,
                         layers_per_stage=3, hidden_channels=6)
    params = md.init_params(cfg, seed=1)
    chunked(params, cfg, recording(230, cfg.input_dim))
    assert len(calls) == inference_chunks(230) * 2      # chunks x stages
    for thread, out in calls:
        assert thread is not threading.main_thread()
        for tensor in (out.logits, out.probs, out.projected):
            assert tensor is None or (tensor._parents == ()
                                      and tensor._vjp is None)
    # the caller's thread records as before
    assert ad.relu(ad.Tensor([[1.0]]))._vjp is not None


def test_a_task_is_one_chunk_whose_stages_run_in_order_on_one_thread(
        monkeypatch):
    mapped, calls = [], []
    runner, forward = tr.chunk_runner, md.stage_forward

    @contextlib.contextmanager
    def counting_runner():
        with runner() as run:
            yield lambda fn, *items: mapped.append(len(items[0])) or run(
                fn, *items)

    def spy(x, stage, project):
        out = forward(x, stage, project)
        calls.append((threading.current_thread(), x, stage, out.probs))
        return out

    monkeypatch.setattr(tr, "chunk_runner", counting_runner)
    monkeypatch.setattr(md, "stage_forward", spy)
    monkeypatch.setattr(tr, "CHUNK_LENGTH", 50)
    monkeypatch.setattr(tr, "chunk_workers", lambda: 2)
    cfg = md.ModelConfig(input_dim=3, num_classes=4, num_stages=2,
                         layers_per_stage=3, hidden_channels=6)
    params = md.init_params(cfg, seed=1)
    chunked(params, cfg, recording(230, cfg.input_dim))
    chunks = inference_chunks(230)
    assert mapped == [chunks]       # one task per chunk, not per stage
    assert len(calls) == chunks * 2
    for thread in {thread for thread, *_ in calls}:
        mine = [call for call in calls if call[0] is thread]
        # each chunk's stages back to back, each on the previous output
        assert [stage for _, _, stage, _ in mine] == (
            params.stages * (len(mine) // 2))
        for (_, _, _, probs), (_, x, _, _) in zip(mine[::2], mine[1::2]):
            assert x is probs


@pytest.mark.parametrize("embed, workers, length, bound", [
    (False, 2, 10_000, 6.4), (False, 1, 10_000, 3.41),
    (True, 1, 4000, 4.15)])
def test_a_worker_holds_one_stage_of_a_chunk(monkeypatch, embed, workers,
                                             length, bound):
    # default model.  The peak is in arrays of 2252 x 32 float64s (the
    # hidden features of a chunk of the odd 5-chunk plan at 10k samples).
    # The mutation guarded against is a cascade that keeps every stage's
    # outputs of a chunk until its task ends, returning only the last.
    # Without embeddings, 10k samples are 6 chunks of at most 1919
    # samples with their halos, 3 on each of 2 workers: the peak is
    # 5.80-6.04 in 10 runs, and 6.07-6.31 with that mutation.  The two
    # workers' interleaving moves both by more than the gap between
    # them, so this case keeps 6.4, which the 5-chunk plan's 6.6-6.9
    # exceeds, and cannot catch the mutation.  The same recording on one
    # worker, in a fixed order, reads 3.34 in 10 of 10 runs, and 3.48
    # with the mutation, also in 10 of 10.  With embeddings, on 2 workers,
    # the interleaving moves the peak by 0.7 between runs, and at 10k
    # samples the chunks' outputs, joined at the end, set it; so 4000
    # samples, 2 chunks, run on one worker, in a fixed order: 4.08 in 10
    # of 10 runs, and 4.23 with the mutation, also in 10 of 10
    monkeypatch.setattr(tr, "chunk_workers", lambda: workers)
    cfg = md.ModelConfig(input_dim=6, num_classes=5)
    params = md.init_params(cfg, seed=0)
    seq = recording(length, cfg.input_dim)
    tr.final_stage_outputs(params, cfg, [seq], embed)     # warm
    tracemalloc.start()
    try:
        tr.final_stage_outputs(params, cfg, [seq], embed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * 2252 * 32 * 8


def test_output_does_not_depend_on_worker_count(monkeypatch):
    cfg = md.ModelConfig(input_dim=3, num_classes=4, num_stages=2,
                         layers_per_stage=4, hidden_channels=8)
    params = md.init_params(cfg, seed=2)
    seq = recording(1000, cfg.input_dim, seed=8)
    monkeypatch.setattr(tr, "CHUNK_LENGTH", 128)
    results = []
    for workers in (1, 3):
        monkeypatch.setattr(tr, "chunk_workers", lambda: workers)
        results.append(chunked(params, cfg, seq))
    (p1, e1), (p3, e3) = results
    assert p1.tobytes() == p3.tobytes() and e1.tobytes() == e3.tobytes()


@pytest.mark.parametrize("embed", [False, True])
def test_only_the_final_stage_is_projected_and_only_on_request(
        monkeypatch, embed):
    calls = []
    original = ad.projection_head
    monkeypatch.setattr(ad, "projection_head",
                        lambda h, *weights: calls.append(h.shape)
                        or original(h, *weights))
    monkeypatch.setattr(tr, "CHUNK_LENGTH", 100)
    cfg = md.ModelConfig(input_dim=3, num_classes=4, num_stages=3,
                         layers_per_stage=2, hidden_channels=6)
    params = md.init_params(cfg, seed=4)
    probs, embeds = chunked(params, cfg, recording(300, cfg.input_dim), embed)
    assert probs.shape == (300, 4)
    if embed:
        assert embeds.shape == (300, cfg.projection_dim)
        # one per chunk, final stage only
        assert len(calls) == inference_chunks(300)
    else:
        assert embeds is None and calls == []


@pytest.mark.parametrize("workers", [1, 3])
def test_one_call_over_recordings_equals_one_call_each(monkeypatch, workers):
    monkeypatch.setattr(tr, "CHUNK_LENGTH", 100)
    monkeypatch.setattr(tr, "chunk_workers", lambda: workers)
    cfg = md.ModelConfig(input_dim=3, num_classes=4, num_stages=2,
                         layers_per_stage=3, hidden_channels=6)
    params = md.init_params(cfg, seed=6)
    seqs = [recording(length, cfg.input_dim, seed=length)
            for length in (90, 200, 450, 60)]     # 1, 2, 6 and 1 chunks
    together = tr.final_stage_outputs(params, cfg, seqs, embed=True)
    assert len(together) == len(seqs)
    for seq, (probs, embeds) in zip(seqs, together):
        want_probs, want_embeds = chunked(params, cfg, seq)
        assert probs.tobytes() == want_probs.tobytes()
        assert embeds.tobytes() == want_embeds.tobytes()


# Chunked inference on a patched chunk length and worker count, in a
# fresh process, so that a task made to wait on another task's result
# fails by timeout: a hung pool cannot be stopped from its own process,
# whose exit would wait for it.
ISOLATED_SCRIPT = """
import sys
import time
import numpy as np
from tempseg import autodiff as ad, model as md, train as tr
from tempseg.data import SensorSequence
case, workers, stages, chunk, lengths = (sys.argv[1], int(sys.argv[2]),
    int(sys.argv[3]), int(sys.argv[4]), sys.argv[5:])
tr.CHUNK_LENGTH = chunk
tr.chunk_workers = lambda: workers
sys.setswitchinterval(1e-6)     # interleave the workers finely
cfg = md.ModelConfig(input_dim=2, num_classes=3, num_stages=stages,
                     layers_per_stage=2, hidden_channels=5)
params = md.init_params(cfg, seed=9)
rng = np.random.default_rng(1)
seqs = [SensorSequence(features=rng.normal(size=(int(n), 2)),
                       labels=np.zeros(int(n), dtype=np.int64))
        for n in lengths]
if case == "late":  # only chunk 0's stage 0 fails, after a pause in
    forward = md.stage_forward   # which the other chunks' tasks run

    def late(x, stage, project):
        if stage is params.stages[0] and x.values[0, 0] == first:
            time.sleep(0.5)
            x = ad.Tensor(x.values[:, :1])      # a channel short
        return forward(x, stage, project)

    first = seqs[0].features[0, 0]
    md.stage_forward = late
    want = lambda: forward(ad.Tensor(seqs[0].features[:, :1]),
                           params.stages[0], False)
elif case.startswith("fail"):  # stage N's adapter reads a channel too many
    adapter = params.stages[int(case[4:])].adapter_w
    adapter.values = np.zeros((adapter.shape[0], adapter.shape[1] + 1, 1))
    want = lambda: md.mstcn_forward(seqs[0].features, params, cfg)
if case != "exact":
    messages = []
    for call in (want, lambda: tr.final_stage_outputs(params, cfg, seqs)):
        try:
            call()
        except ValueError as error:
            messages.append(str(error))
    assert len(messages) == 2 and messages[0] == messages[1], messages
    assert tr._pin["entries"] == 0
else:
    got = tr.final_stage_outputs(params, cfg, seqs, embed=True)
    for seq, (probs, embeds) in zip(seqs, got):
        out = md.mstcn_forward(seq.features, params, cfg, project=True)[-1]
        assert np.max(np.abs(probs - out.probs.values)) <= 1e-12
        assert np.max(np.abs(embeds - out.projected.values)) <= 1e-12
print("ok")
"""


def run_isolated(*args, seconds=30):
    """ISOLATED_SCRIPT with `args` in a new process, killed after
    `seconds`, so a deadlock fails fast instead of hanging the suite."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(tr.__file__).resolve().parents[1]))
    try:
        out = subprocess.run(
            [sys.executable, "-c", ISOLATED_SCRIPT, *map(str, args)],
            env=env, timeout=seconds, capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        pytest.fail(f"no result within {seconds} s: a deadlock")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


@pytest.mark.parametrize("lengths", [(100,), (50, 40)],
                         ids=["one-recording", "two-recordings"])
@pytest.mark.parametrize("workers", [2, 4])
def test_more_stages_than_chunks_finishes_and_is_exact(workers, lengths):
    # 3 stages over 2 chunks in all: each chunk's cascade is one task,
    # so the call finishes whatever the worker count, and is exact
    run_isolated("exact", workers, 3, 60, *lengths)


@pytest.mark.parametrize("case", ["fail0", "fail1", "late"])
@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_task_raises_its_error_and_releases_blas(case, workers):
    # 6 chunks; every chunk's stage 0 or stage 1 raises a channel-count
    # ValueError, or only chunk 0's stage 0, late
    run_isolated(case, workers, 2, 50, 230)


def test_features_are_checked_before_any_task_runs(monkeypatch):
    calls = []
    monkeypatch.setattr(md, "stage_forward",
                        lambda *args: calls.append(args))
    cfg = md.ModelConfig(input_dim=3, num_classes=4)
    params = md.init_params(cfg, seed=3)
    good, bad = recording(10, 3), recording(10, 2)
    with pytest.raises(ValueError, match=r"expected T x 3 features"):
        tr.final_stage_outputs(params, cfg, [good, bad])
    assert calls == [] and tr._pin["entries"] == 0


def test_a_lone_chunk_runs_on_the_caller_without_a_pool(monkeypatch):
    pools, threads = [], set()
    pool, forward = tr.ThreadPoolExecutor, md.stage_forward
    monkeypatch.setattr(tr, "ThreadPoolExecutor",
                        lambda n: pools.append(n) or pool(n))
    monkeypatch.setattr(md, "stage_forward", lambda *args: (
        threads.add(threading.current_thread()) or forward(*args)))
    monkeypatch.setattr(tr, "chunk_workers", lambda: 2)
    cfg = md.ModelConfig(input_dim=3, num_classes=4, num_stages=3,
                         layers_per_stage=2, hidden_channels=6)
    params = md.init_params(cfg, seed=3)
    chunked(params, cfg, recording(2000, cfg.input_dim))
    assert pools == [] and threads == {threading.current_thread()}
