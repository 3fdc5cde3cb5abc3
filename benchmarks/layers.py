"""Per-layer metrics: where the traced run wraps the program, and how
its spans become the numbers named in BENCHMARK.json.

Each site is wrapped at the name its caller resolves.  The model,
losses and sampling modules call autodiff ops as ``ad.<op>``; ``fit``
calls ``build_example_set``, ``total_objective``, ``train_epoch``,
``adam_step``, ``evaluate`` and ``evaluate_predictions`` through
``tempseg.train``'s globals; the CLI calls its ``cmd_*`` functions
through ``tempseg.cli``'s globals and the data, model and train modules
through ``dt.``, ``md.`` and ``tr.``.

A traced run records set-up under a root span named ``setup`` and each
measured unit under a root span named ``unit``.  Times per call (``_ms``)
are medians over every recorded call, set-up included.  Totals and calls
"per item" are summed over unit spans and divided by the items those
units processed: training steps on ``train``, recordings on ``stream``,
CLI passes on ``cli``.  A layer a workload never calls reads 0.
"""

import statistics
from collections import Counter
from pathlib import Path

from tempseg import autodiff as ad
from tempseg import cli, data, model, sampling
from tempseg import train as tr

# The autodiff ops a training step or a labelling calls.
OPS = ("conv1d_dilated", "relu", "add", "mul", "matmul", "scale", "tsum",
       "exp", "log", "l2_normalize", "row", "mean_rows", "stack_rows",
       "transpose", "softmax_rows", "softmax_cross_entropy")
NODE_KINDS = ("leaf",) + OPS
COMMANDS = ("generate", "train", "eval", "predict")

_TRAIN_SPEED = "train samples_per_s"
_CLI_WALL = "cli wall_s"

# name -> (unit, better, the end-to-end metric and workload it should move)
METRICS = {
    "autodiff.graph_nodes": ("count", "lower",
                             "train samples_per_s, train peak_mib"),
    **{f"autodiff.nodes.{kind}": ("count", "lower",
                                  "train samples_per_s, train peak_mib")
       for kind in NODE_KINDS},
    "autodiff.toposort_ms": ("ms", "lower", _TRAIN_SPEED),
    "autodiff.backward_ms": ("ms", "lower", _TRAIN_SPEED),
    **{f"autodiff.fwd_ms.{op}": (
        "ms", "lower", "train samples_per_s, stream seq_ms.p50, "
        "stream samples_per_s") for op in OPS},
    **{f"autodiff.fwd_calls.{op}": (
        "count", "lower", "train samples_per_s, stream seq_ms.p50, "
        "stream samples_per_s") for op in OPS},
    "model.forward_ms": ("ms", "lower",
                         "train samples_per_s, stream samples_per_s; "
                         "barely cli wall_s"),
    "model.forward_peak_mib": ("MiB", "lower", "stream peak_mib"),
    "sampling.select_ms": ("ms", "lower", _TRAIN_SPEED),
    "sampling.sample_examples": ("count", "lower", _TRAIN_SPEED),
    "sampling.segment_examples": ("count", "lower", _TRAIN_SPEED),
    "losses.objective_ms": ("ms", "lower", _TRAIN_SPEED),
    "losses.anchors": ("count", "lower", _TRAIN_SPEED),
    "losses.skipped_anchors": ("count", "lower", _TRAIN_SPEED),
    "losses.valid_anchor_ratio": ("ratio", "higher",
                                  "train test_macro_f1 (quality, not speed)"),
    "train.adam_ms": ("ms", "lower", _TRAIN_SPEED),
    "train.optimizer_steps": ("count", "higher", _TRAIN_SPEED),
    "train.validate_ms": ("ms", "lower", _TRAIN_SPEED),
    "train.epoch_self_pct": ("%", "lower",
                             "none: time in train_epoch no child span covers"),
    "train.ckpt_save_ms": ("ms", "lower", _CLI_WALL),
    "train.ckpt_load_ms": ("ms", "lower", _CLI_WALL),
    "train.ckpt_bytes": ("B", "lower", _CLI_WALL),
    "metrics.evaluate_ms": ("ms", "lower", "stream seq_ms.p50, cli wall_s"),
    "data.synth_ms": ("ms", "lower", "setup_s on all, cli wall_s"),
    "data.csv_write_ms": ("ms", "lower", _CLI_WALL),
    "data.csv_load_ms": ("ms", "lower", _CLI_WALL),
    "data.csv_bytes": ("B", "lower", _CLI_WALL),
    **{f"cli.{cmd}{part}_ms": ("ms", "lower", _CLI_WALL)
       for cmd in COMMANDS for part in ("", "_self")},
    "trace.overhead_s": ("s", "lower",
                         "none: traced wall_s minus untraced wall_s"),
}


def _graph_counts(graph, *_args, **_kwargs):
    return {"nodes": len(graph.nodes),
            "kinds": dict(Counter(node._op for node in graph.nodes))}


def _example_counts(result, *_args, **_kwargs):
    samples, segments = result
    return {"samples": len(samples), "segments": len(segments)}


def _anchor_counts(result, _outputs, _labels, example_sets, *_a, **_k):
    anchors = sum(len(s) + len(g) for s, g in example_sets)
    return {"anchors": anchors, "skipped": result[1].skipped_anchors}


def _bytes_at(path):
    return {"bytes": Path(path).stat().st_size}


def sites():
    """(owner, attribute, span name, count) for every wrapped call site."""
    out = [(ad, op, f"autodiff.{op}", None) for op in OPS]
    out += [
        (ad.CompGraph, "from_output", "autodiff.toposort", _graph_counts),
        (ad, "backward", "autodiff.backward", None),
        (model, "mstcn_forward", "model.forward", None),
        (tr, "build_example_set", "sampling.build_example_set",
         _example_counts),
        (sampling, "select_hard_examples", "sampling.select", None),
        (tr, "total_objective", "losses.objective", _anchor_counts),
        (tr, "fit", "train.fit", None),
        (tr, "train_epoch", "train.epoch", None),
        (tr, "adam_step", "train.adam", None),
        (tr, "evaluate", "train.evaluate", None),
        (tr, "save_checkpoint", "train.ckpt_save",
         lambda _r, _state, path, *a, **k: _bytes_at(path)),
        (tr, "load_checkpoint", "train.ckpt_load", None),
        (tr, "evaluate_predictions", "metrics.evaluate", None),
        (cli, "evaluate_predictions", "metrics.evaluate", None),
        (data, "synthesize_sequence", "data.synth", None),
        (data, "write_csv_sequence", "data.csv_write",
         lambda _r, path, *a, **k: _bytes_at(path)),
        (data, "load_csv_dataset", "data.csv_load",
         lambda result, *a, **k: {"recordings": len(result)}),
    ]
    out += [(cli, f"cmd_{cmd}", f"cli.{cmd}", None) for cmd in COMMANDS]
    return out


def _median_ms(spans, attr="duration"):
    values = [getattr(s, attr) for s in spans]
    return 1e3 * statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(spans, items: int, overhead_s: float,
              forward_peak_mib: float) -> dict:
    """Every metric in METRICS from one traced run's spans."""
    by_name: dict[str, list] = {}
    in_units: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        if span.root().name == "unit":
            in_units.setdefault(span.name, []).append(span)

    def calls(name):
        return by_name.get(name, [])

    def unit_calls(name):
        return in_units.get(name, [])

    def attr_sum(spans_, key):
        return sum(s.attrs[key] for s in spans_)

    graphs = unit_calls("autodiff.toposort")
    kinds = Counter()
    for g in graphs:
        kinds.update(g.attrs["kinds"])
    out = {"autodiff.graph_nodes": _ratio(attr_sum(graphs, "nodes"),
                                          len(graphs))}
    for kind in NODE_KINDS:
        out[f"autodiff.nodes.{kind}"] = _ratio(kinds[kind], len(graphs))
    out["autodiff.toposort_ms"] = _median_ms(calls("autodiff.toposort"))
    out["autodiff.backward_ms"] = _median_ms(calls("autodiff.backward"))
    for op in OPS:
        op_spans = unit_calls(f"autodiff.{op}")
        out[f"autodiff.fwd_ms.{op}"] = _ratio(
            1e3 * sum(s.duration for s in op_spans), items)
        out[f"autodiff.fwd_calls.{op}"] = _ratio(len(op_spans), items)

    out["model.forward_ms"] = _median_ms(calls("model.forward"))
    out["model.forward_peak_mib"] = forward_peak_mib

    example_sets = calls("sampling.build_example_set")
    out["sampling.select_ms"] = _median_ms(calls("sampling.select"))
    out["sampling.sample_examples"] = _ratio(
        attr_sum(example_sets, "samples"), len(example_sets))
    out["sampling.segment_examples"] = _ratio(
        attr_sum(example_sets, "segments"), len(example_sets))

    objectives = calls("losses.objective")
    anchors = attr_sum(objectives, "anchors")
    skipped = attr_sum(objectives, "skipped")
    out["losses.objective_ms"] = _median_ms(objectives)
    out["losses.anchors"] = _ratio(anchors, len(objectives))
    out["losses.skipped_anchors"] = _ratio(skipped, len(objectives))
    out["losses.valid_anchor_ratio"] = _ratio(anchors - skipped, anchors)

    epochs = calls("train.epoch")
    out["train.adam_ms"] = _median_ms(calls("train.adam"))
    out["train.optimizer_steps"] = _ratio(len(unit_calls("train.adam")),
                                          len(unit_calls("train.fit")))
    out["train.validate_ms"] = _median_ms(
        [s for s in calls("train.evaluate")
         if s.parent is not None and s.parent.name == "train.fit"])
    out["train.epoch_self_pct"] = 100 * _ratio(
        sum(s.self_s for s in epochs), sum(s.duration for s in epochs))
    saves = calls("train.ckpt_save")
    out["train.ckpt_save_ms"] = _median_ms(saves)
    out["train.ckpt_load_ms"] = _median_ms(calls("train.ckpt_load"))
    out["train.ckpt_bytes"] = _ratio(attr_sum(saves, "bytes"), len(saves))

    out["metrics.evaluate_ms"] = _median_ms(calls("metrics.evaluate"))

    loads = calls("data.csv_load")
    out["data.synth_ms"] = _median_ms(calls("data.synth"))
    out["data.csv_write_ms"] = _median_ms(calls("data.csv_write"))
    out["data.csv_load_ms"] = 1e3 * _ratio(
        sum(s.duration for s in loads), attr_sum(loads, "recordings"))
    out["data.csv_bytes"] = _ratio(
        attr_sum(unit_calls("data.csv_write"), "bytes"), items)

    for cmd in COMMANDS:
        out[f"cli.{cmd}_ms"] = _median_ms(calls(f"cli.{cmd}"))
        out[f"cli.{cmd}_self_ms"] = _median_ms(calls(f"cli.{cmd}"), "self_s")
    out["trace.overhead_s"] = overhead_s
    return out
