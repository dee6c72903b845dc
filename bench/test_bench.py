"""Self-test of the benchmark: tiny runs of every workload, and failure counting."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(workload, trace):
    record = run.run_benchmark(workload, seed=7, seconds=0.0, trace=trace, tiny=True)
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, record["failures"]
    want = _units("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_derivatives_count_as_failures(monkeypatch):
    import dynderiv.identify as identify

    real = identify.fit_harmonic

    def skewed(*args, **kwargs):
        fit = real(*args, **kwargs)
        return identify.HarmonicFit(fit.mean, fit.in_phase, fit.out_phase * 1.01, fit.residual_rms,
                                    fit.condition_indicator, fit.n_samples, fit.n_periods)

    monkeypatch.setattr(identify, "fit_harmonic", skewed)
    for workload in ("sweep-linear", "series-io"):
        record = run.run_benchmark(workload, seed=7, seconds=0.0, trace=False, tiny=True)
        result = record["result"]
        assert not result["correct"]
        assert result["failed"] >= 1 and record["error_rate"] > 0.0


def test_changed_bytes_on_repeat_count_as_failures(monkeypatch):
    import dynderiv.cli as cli

    real = cli.write_derivative_table
    calls = {"n": 0}

    def drifting(dset):
        calls["n"] += 1
        return real(dset) + "\n" * (calls["n"] - 1)

    monkeypatch.setattr(cli, "write_derivative_table", drifting)
    record = run.run_benchmark("series-io", seed=7, seconds=0.0, trace=False, tiny=True)
    assert any("differ" in f for f in record["failures"]), record["failures"]
    assert record["result"]["failed"] >= 1


def test_nearest_rank_tail_keeps_ten_beyond():
    times = [float(i) for i in range(40)]
    tail = run._nearest_rank(times, 75)
    assert sum(1 for t in times if t > tail) == 10


def test_self_time_subtracts_children():
    import tracing

    spans = [tracing.Span("cli.main", 0.0, -1, 0), tracing.Span("plants.simulate", 1.0, 0, 0),
             tracing.Span("io.write_series", 5.0, 0, 0)]
    for span, end in zip(spans, (10.0, 4.0, 6.0)):
        span.end = end
    assert tracing.self_times(spans) == [6.0, 3.0, 1.0]
    metrics = tracing.per_layer_metrics(spans, passes=1, commands=1, scale={0: 0.5})
    assert metrics["plants.self_ms_per_op"] == 1500.0 and metrics["cli.main.self_ms"] == 3000.0
