"""Smoke tests of the benchmark at its tiny size.

    python3 -m pytest bench -q

Every workload runs end to end through bench/run.py, untraced and traced,
and every output check must pass.  Not part of the tier-1 suite.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from spans import TARGETS, Tracer  # noqa: E402


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 2
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_passes_its_checks_and_reports_end_to_end_metrics(workload):
    metrics = run(workload, 0)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_counts_and_fit_inside_the_wall_time(workload):
    first, second = run(workload, 1), run(workload, 1)
    assert sorted(first) == sorted(m["name"] for m in SPEC["per_layer"])
    calls = sorted(name for name in first if name.endswith(".calls"))
    assert [first[c] for c in calls] == [second[c] for c in calls]
    for metrics in (first, second):
        self_s = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
        assert self_s <= metrics["trace.wall_s"]
    if workload in ("poc", "window-sweep"):
        assert first["sha256sim.compress.calls"] == 0
    else:
        assert first["sha256sim.compress.calls"] > 0


def test_tracer_wraps_every_binding_and_restores_it():
    from voltlab import cli, orchestrator, processor, victims  # noqa: F401

    original = processor.draw_flip_pattern
    tracer = Tracer(TARGETS + (("gone", "voltlab.victims", "no_such_function"),))
    tracer.install()
    try:
        wrapped = processor.draw_flip_pattern
        assert wrapped is not original
        assert victims.draw_flip_pattern is wrapped
        assert orchestrator.draw_flip_pattern is wrapped
    finally:
        tracer.restore()
    assert victims.draw_flip_pattern is original
    assert orchestrator.draw_flip_pattern is original
    assert tracer.absent == ["voltlab.victims.no_such_function"]
