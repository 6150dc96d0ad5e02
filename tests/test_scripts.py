"""The walkthrough and scale scripts run to completion on the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [["run_worked_example.py"], ["scale_table.py", "--nmax", "20"]])
def test_script_exits_zero(argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _bench_pairs():
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import bench_pairs
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    return bench_pairs


@pytest.mark.parametrize("change, met", [
    ([0.8, 0.81, 0.79, 0.8, 0.82, 0.78, 0.8, 0.79, 0.81, 1.2], True),   # wins 9 of 10
    ([0.8, 0.81, 0.79, 0.8, 0.82, 0.78, 0.8, 0.79, 1.2, 1.2], False),   # wins 8 of 10
    ([1.0, 1.02, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5], False),       # two ties win nothing
    ([0.99] * 10, False),                                               # gap within the IQR
], ids=["met", "eight-wins", "tie", "inside-iqr"])
def test_summarize_records_the_claim_verdict(change, met):
    """``claim_met`` asks for nine tenths of the pairs won, ties counting for
    neither side, and a median gap wider than the parent's quartile spread."""
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.0]
    pairs = [{"parent": {"op_s.p90": p, "ops_per_s": 1 / p},
              "change": {"op_s.p90": c, "ops_per_s": 1 / c}} for p, c in zip(parent, change)]
    metrics = [{"name": "op_s.p90", "better": "lower", "bound": 0.25},
               {"name": "ops_per_s", "better": "higher", "bound": 0.25}]
    summary = _bench_pairs().summarize(pairs, metrics, "op_s.p90")
    assert summary["op_s.p90"]["claim_met"] is met
    assert "claim_met" not in summary["ops_per_s"]
