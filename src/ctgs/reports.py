"""Report assembly and emission (json / csv / plotdata).

Human-facing reports use 1-based vertex/frequency labels; file payloads
(sample sets, observations) stay 0-based. Rational values are emitted as
ints or exact "p/q" strings, infinities as "inf", so reports re-parse to
equal values.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from itertools import repeat

import numpy as np

from .numerics import INF, is_inf
from .signals import eval_pair


def jsonify(value):
    """Convert report values to JSON-safe equivalents (exact where possible)."""
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        if is_inf(value):
            return "inf"
        return value
    if isinstance(value, (np.floating, np.integer)):
        return jsonify(value.item())
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    return value


def dejsonify(value):
    """Inverse of :func:`jsonify` for the string encodings it introduces."""
    if isinstance(value, dict):
        return {k: dejsonify(v) for k, v in value.items()}
    if isinstance(value, list):
        return [dejsonify(v) for v in value]
    if isinstance(value, str):
        if value == "inf":
            return INF
        if "/" in value:
            num, _, den = value.partition("/")
            try:
                return Fraction(int(num), int(den))
            except ValueError:
                return value
        return value
    return value


def emit_json(report: dict) -> str:
    return json.dumps(jsonify(report), indent=2)


def parse_report(text: str) -> dict:
    return dejsonify(json.loads(text))


def _vlabel(graph, v: int) -> str:
    return graph.vertex_labels[v]


def freq_label(f: int) -> str:
    return f"lambda{f + 1}"


_flabel = freq_label


def spectrum_summary(graph, spectrum) -> dict:
    return {
        "eigenvalues": [float(x) for x in spectrum.eigenvalues],
        "has_repeated_eigenvalues": spectrum.has_repeated_eigenvalues,
        "multiplicity_groups": [[_flabel(f) for f in g] for g in spectrum.multiplicity_groups],
    }


def uniformity_summary(graph, cert) -> dict:
    return {
        "is_uniform": cert.is_uniform,
        "v_infinity": [_vlabel(graph, v) for v in cert.v_infinity],
        "witness_freqs": None if cert.witness_freqs is None
        else [_flabel(f) for f in cert.witness_freqs],
        "bound": cert.bound,
    }


def tightness_summary(graph, report) -> dict:
    return {
        "tight": report.tight,
        "violations": [
            {"vertex": _vlabel(graph, v), "dependent_on": [_vlabel(graph, w) for w in prefix],
             "max_allowed": limit}
            for v, prefix, limit in report.violations
        ],
    }


def filtration_summary(graph, filtration) -> dict:
    return {
        "k": filtration.depth,
        "lambda_star_order": [_flabel(f) for f in filtration.lambda_star_order],
        "b_sequence": list(filtration.quotient_bandwidths),
        "terminal_C": list(filtration.levels[0].freq_bw),
    }


def sequence_summary(graph, seq) -> dict:
    return {
        "sets": [[_vlabel(graph, v) for v in vs] for vs in seq.v_sets],
        "added": [_vlabel(graph, v) for v in seq.added],
        "base_rate": seq.base_rate,
        "quotient_rates": list(seq.quotient_rates),
    }


def plan_summary(graph, plan) -> dict:
    return {
        "base_set": [_vlabel(graph, v) for v in plan.base_vertices],
        "per_vertex_rates": {_vlabel(graph, v): r for v, r in sorted(plan.per_vertex_rates.items())},
        "grids": [
            {"id": g.grid_id, "vertex": _vlabel(graph, g.vertex), "rate": g.rate, "phase": g.phase}
            for g in plan.grids
        ],
        "recovery_stages": [
            {"unknowns": [f"{kind}:{_vlabel(graph, key) if kind == 'base' else key}"
                          for kind, key in st.unknowns],
             "grids": list(st.grid_ids)}
            for st in plan.stages
        ],
        "total_rate": plan.total_rate,
        "notes": list(plan.notes),
    }


def sample_set_csv(sample_set) -> str:
    """0-based vertex,time rows, one per sample point."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["vertex", "time"])
    for grid in sample_set.grids:
        writer.writerows(zip(repeat(grid.vertex), grid.float_times.tolist()))
    return buf.getvalue()


def observation_csv(observation) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["vertex", "time", "value"])
    for grid, values in zip(observation.grids, observation.values):
        writer.writerows(zip(repeat(grid.vertex), grid.float_times.tolist(),
                             map(repr, values.tolist())))
    return buf.getvalue()


def plotdata_csv(truth, recovered, n: int, t0: float, t1: float, points: int = 512) -> str:
    """Per-vertex (time, truth, recovered) series for plotting."""
    times = np.linspace(t0, t1, points)
    truth_vals, recovered_vals = eval_pair(truth, recovered, times)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["vertex", "time", "truth", "recovered"])
    for v in range(n):
        for t, a, b in zip(times, truth_vals[v], recovered_vals[v]):
            writer.writerow([v, float(t), repr(float(a)), repr(float(b))])
    return buf.getvalue()
