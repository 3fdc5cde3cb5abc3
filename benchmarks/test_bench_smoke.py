"""Smoke test of the benchmark harness: every workload at a tiny size.

Runs ``run.py`` as the benchmark command would, twice untraced and twice
traced per workload, and checks the output contract, not the timings.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _declared(kind: str) -> dict:
    return {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[kind]}


def test_benchmark_json_matches_the_harness_tables():
    assert _declared("end_to_end") == {
        name: spec[:2] for name, spec in run.END_TO_END.items()}
    assert _declared("per_layer") == {
        name: spec[:2] for name, spec in layers.METRICS.items()}
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["train", "stream",
                                                           "cli"]


@pytest.mark.parametrize("workload", ["train", "stream", "cli"])
def test_workload_is_complete_correct_and_repeatable(workload):
    untraced = [_run(workload, 0) for _ in range(2)]
    traced = [_run(workload, 1) for _ in range(2)]
    for result, kind in zip(untraced + traced, ["end_to_end"] * 2
                            + ["per_layer"] * 2):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {name: m["unit"] for name, m in result["metrics"].items()} \
            == {name: unit for name, (unit, _) in _declared(kind).items()}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1

    f1 = [r["metrics"]["test_macro_f1"]["value"] for r in untraced]
    assert f1[0] == f1[1]
    counts = [{name: m["value"] for name, m in r["metrics"].items()
               if m["unit"] in ("count", "B")} for r in traced]
    assert counts[0] == counts[1]
    if workload == "train":
        assert counts[0]["autodiff.graph_nodes"] > 0
