"""Smoke test of the benchmark itself, on a tiny version of each workload.

    python -m pytest bench/test_bench.py -q
"""

import json
from pathlib import Path

import pytest

import run  # puts the ctgs sources on the path
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def tiny(name, trace=0):
    return run.run(name, seed=3, seconds=0.2, trace=trace, shapes=WORKLOADS[name].shapes[:1],
                   setup_repeats=1, cold_ops=1)


def assert_metrics(result, lines, spec):
    for metric in spec:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert any(line.startswith(f"{metric['name']} = ") and line.endswith(f" {metric['unit']}")
                   for line in lines), metric["name"]
    assert set(result["metrics"]) == {m["name"] for m in spec}


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload_prints_every_metric(name):
    result, lines = tiny(name)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result, lines, SPEC["end_to_end"])
    assert any(line.startswith("failed_frac = 0.0") for line in lines)

    result, lines = tiny(name, trace=1)
    assert result["correct"]
    assert_metrics(result, lines, SPEC["per_layer"])


def test_traced_counts_repeat():
    counts = []
    for _ in range(2):
        result, _ = tiny("plan-enum", trace=1)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if k.endswith((".svd", ".solve", ".calls"))})
    assert counts[0] == counts[1]
    assert counts[0]["planner.build_filtration.svd"] > 0


def test_perturbed_recovery_is_caught(monkeypatch):
    from ctgs import cli

    original = cli.recover

    def perturbed(*args, **kwargs):
        result = original(*args, **kwargs)
        result.recovered.coeffs[0, 0] += 1e-3
        return result

    monkeypatch.setattr(cli, "recover", perturbed)
    result, lines = tiny("sim-periodic")
    assert not result["correct"] and result["failed"] > 0
    assert any("max_relative_error" in line for line in lines)


def test_changed_report_bytes_are_caught(monkeypatch):
    from ctgs import reports

    original = reports.emit_json
    calls = []

    def drifting(report):
        calls.append(None)
        return original(report) + " " * len(calls)   # still valid JSON

    monkeypatch.setattr(reports, "emit_json", drifting)
    result, _ = tiny("plan-enum")
    assert not result["correct"] and result["failed"] > 0
