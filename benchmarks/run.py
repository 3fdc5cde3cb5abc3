"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload {train,stream,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
its ``src`` directory.  With ``--trace 0`` the run prints the end-to-end
metrics of BENCHMARK.json, measured with nothing wrapped except a
timestamp or capture probe its checks need.  With ``--trace 1`` it wraps
the program's public functions (see layers.py) and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A record
with the environment, every metric and the sample counts goes to
``.bench_out/``, and a traced run writes its spans there too.

BLAS is pinned to one thread before numpy loads, and each workload is a
closed loop in this one process.
"""

import argparse
import contextlib
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIB = 2.0 ** 20
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3   # glibc mallopt parameters

# name -> (unit, better, what it measures)
END_TO_END = {
    "setup_s": ("s", "lower",
                "process start to the first timed operation: interpreter, "
                "import, inputs, model, reference; median of fresh processes"),
    "wall_s": ("s", "lower",
               "median wall time of one unit: fit + evaluate (train), a "
               "sweep over the recordings (stream), a CLI pass (cli)"),
    "samples_per_s": ("1/s", "higher",
                      "training samples per second of fit incl. validation "
                      "(train), samples labelled per second (stream), "
                      "dataset samples per second of a pass (cli)"),
    "seq_ms.p50": ("ms", "lower",
                   "latency per recording: a training step at batch_size 1 "
                   "(train), one evaluate (stream), one predict (cli)"),
    "seq_ms.p90": ("ms", "lower", "90th percentile of the same latencies"),
    "peak_mib": ("MiB", "lower",
                 "tracemalloc peak of one unit, in its own memory pass"),
    "test_macro_f1": ("ratio", "higher",
                      "held-out macro F1 after the fixed budget (train, cli); "
                      "the labelling scored against the whole-sequence "
                      "reference (stream)"),
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train", "stream", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the harness smoke test's inputs")
    p.add_argument("--setup-only", type=float, metavar="T0",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(allocator: str) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "allocator": allocator, "git_commit": _git_commit(),
            "platform": platform.platform()}


def pin_allocator() -> str:
    """Make glibc malloc keep and reuse freed memory.

    By default glibc serves large arrays with mmap and returns freed heap
    to the kernel, adjusting both thresholds as the process runs, so
    whether a 10k-sample labelling faults its ~220 MiB of activations in
    afresh depends on the process's allocation history: on an x86-64 box
    with 2 shared cores and one OpenBLAS thread it took ~115 ms in some
    processes and ~245 ms in others.  Fixed thresholds make every
    process measure the same thing: compute and memory traffic.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return "default"
    big = 1 << 30
    if (libc.mallopt(_M_MMAP_THRESHOLD, big) == 1
            and libc.mallopt(_M_TRIM_THRESHOLD, big) == 1):
        return "glibc, mmap and trim thresholds 1 GiB"
    return "default"


def _setup_times(args, repeats: int) -> list:
    """Seconds from spawning a fresh interpreter to its set-up being done."""
    times = []
    for _ in range(repeats):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--size", args.size,
               "--setup-only", repr(time.time())]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                             check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


@contextlib.contextmanager
def _memory_pass(peaks: list):
    tracemalloc.start()
    try:
        yield
    finally:
        peaks.append(tracemalloc.get_traced_memory()[1] / MIB)
        tracemalloc.stop()


def _measure_end_to_end(args, wl, setup_times):
    wl.warm_up()
    units, latencies = [], []
    start = time.perf_counter()
    while (not units or time.perf_counter() - start < args.seconds
           or len(latencies) < wl.min_latencies):
        units.append(wl.unit(contextlib.nullcontext))
        latencies += units[-1].latencies_ms
    peaks = []
    memory_unit = wl.unit(lambda: _memory_pass(peaks))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(u.wall_s for u in units),
        "samples_per_s": statistics.median(u.samples / u.busy_s
                                           for u in units),
        "seq_ms.p50": statistics.median(latencies),
        "seq_ms.p90": statistics.quantiles(latencies, n=10,
                                           method="inclusive")[8],
        "peak_mib": peaks[0],
        "test_macro_f1": statistics.median(u.f1 for u in units),
    }
    counts = {"units": len(units), "latencies": len(latencies),
              "setups": len(setup_times)}
    return metrics, units + [memory_unit], counts


def _measure_per_layer(args, wl, tracer):
    import layers
    from tempseg import model as md
    wl.warm_up()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        plain.append(wl.unit(contextlib.nullcontext))
        with tracer.installed():
            traced.append(wl.unit(lambda: tracer.root("unit")))
    features, params, config = wl.probe
    peaks = []
    with _memory_pass(peaks):
        outputs = md.mstcn_forward(features, params, config)
        del outputs
    overhead = (statistics.median(u.wall_s for u in traced)
                - statistics.median(u.wall_s for u in plain))
    metrics = layers.per_layer(tracer.spans, sum(u.items for u in traced),
                               overhead, peaks[0])
    counts = {"units": len(traced), "untraced_units": len(plain),
              "spans": len(tracer.spans)}
    return metrics, plain + traced, counts


def main(argv=None) -> int:
    args = _parse_args(argv)
    allocator = pin_allocator()
    if not (SRC / "tempseg" / "__init__.py").is_file():
        print(f"error: no tempseg sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    # Before numpy loads; the set-up subprocesses inherit it.
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import layers
    import workloads
    from spans import Tracer

    sizes = workloads.FULL if args.size == "full" else workloads.TINY
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        make = workloads.WORKLOADS[args.workload]
        if args.setup_only is not None:
            make(args.seed, sizes, workdir)
            print(time.time() - args.setup_only)
            return 0
        if args.trace:
            tracer = Tracer(layers.sites())
            with tracer.installed(), tracer.root("setup"):
                wl = make(args.seed, sizes, workdir)
            metrics, units, counts = _measure_per_layer(args, wl, tracer)
            table = {k: v[:2] for k, v in layers.METRICS.items()}
        else:
            setup_times = _setup_times(args, sizes.setup_repeats)
            wl = make(args.seed, sizes, workdir)
            metrics, units, counts = _measure_end_to_end(args, wl,
                                                         setup_times)
            table = {k: v[:2] for k, v in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    env = environment(allocator)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "size": args.size, "env": env, "counts": counts,
              "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted, "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.dump(OUT / f"{stem}.spans.jsonl")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{json.dumps(counts)}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {table[name][0]}")
    print(f"  {'error_rate':<40} {failed / attempted:>14.6g} "
          f"({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": table[name][0]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
