"""Problem files: parsing and validation.

A problem is a single JSON document with the graph, the shift-operator
choice, the bandwidth profile and optional run options::

    {
      "n": 5,
      "edges": [[0, 1], [0, 3], [0, 4], [1, 2], [1, 3], [2, 3], [2, 4]],
      "labels": ["v1", "v2", "v3", "v4", "v5"],
      "shift": "laplacian",
      "B": [5, 5, 1, 4, 4],
      "C": [9, 2, 5, "inf", "inf"],
      "options": {"mode": "periodic", "period": 1, "seed": 0}
    }

Vertex and frequency indices are 0-based in files; reports render 1-based
labels. Validation failures carry a JSON-pointer path to the offending
field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .bandwidth import BandwidthProfile
from .errors import ProblemFormatError
from .numerics import as_time
from .spectral import GraphModel, ShiftOperator, build_shift_operator


@dataclass(frozen=True)
class RunOptions:
    mode: str = "periodic"
    period: Optional[Fraction] = None
    window: Optional[tuple] = None
    seed: int = 0
    tolerance: float = 1e-10
    v_star: Optional[tuple] = None


@dataclass(frozen=True, eq=False)
class Problem:
    graph: GraphModel
    shift: ShiftOperator
    profile: BandwidthProfile
    options: RunOptions


def _require(doc: dict, key: str, kind, pointer: str):
    if key not in doc:
        raise ProblemFormatError(f"missing required field", f"{pointer}/{key}")
    value = doc[key]
    if kind is not None and (isinstance(value, bool) or not isinstance(value, kind)):
        raise ProblemFormatError(f"expected {kind.__name__}", f"{pointer}/{key}")
    return value


# Run options come from the file's "options" object or from CLI flags; both
# go through these checks, each failure pointing at the field or flag.

def parse_period(value, pointer: str) -> Fraction:
    period = as_time(value, pointer)
    if period <= 0:
        raise ProblemFormatError("period must be positive", pointer)
    return period


def parse_window(ends, end_pointers, pointer: str) -> tuple:
    window = tuple(as_time(t, p) for t, p in zip(ends, end_pointers))
    if window[1] <= window[0]:
        raise ProblemFormatError("window must satisfy t0 < t1", pointer)
    return window


def check_seed(seed, pointer: str) -> int:
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ProblemFormatError("seed must be a non-negative integer", pointer)
    return seed


def check_tolerance(tolerance, pointer: str) -> float:
    if (isinstance(tolerance, bool) or not isinstance(tolerance, (int, float))
            or not 0 < tolerance < math.inf):
        raise ProblemFormatError("tolerance must be a positive finite number", pointer)
    return float(tolerance)


def parse_problem(text: str) -> Problem:
    """Parse and fully validate a problem document."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # the decoder recurses once per nesting level of arrays and objects
        raise ProblemFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem document must be a JSON object")

    n = _require(doc, "n", int, "")
    edges = _require(doc, "edges", list, "")
    labels = doc.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise ProblemFormatError("labels must be a list of strings", "/labels")
    # B and C are checked against n before any n-sized object is built
    b_raw = _require(doc, "B", list, "")
    c_raw = _require(doc, "C", list, "")
    if len(b_raw) != n:
        raise ProblemFormatError(f"B must list {n} vertex bandwidths", "/B")
    if len(c_raw) != n:
        raise ProblemFormatError(f"C must list {n} frequency bandwidths", "/C")
    graph = GraphModel.create(n, edges, labels)

    shift_field = doc.get("shift", "laplacian")
    if isinstance(shift_field, str):
        shift = build_shift_operator(graph, shift_field)
    elif isinstance(shift_field, dict) and "matrix" in shift_field:
        try:
            matrix = np.asarray(shift_field["matrix"], dtype=float)
        except (TypeError, ValueError):
            raise ProblemFormatError("shift matrix must be a square list of number lists",
                                     "/shift/matrix") from None
        if not np.isfinite(matrix).all():
            raise ProblemFormatError("shift matrix entries must be finite", "/shift/matrix")
        shift = build_shift_operator(graph, "custom", custom_matrix=matrix)
    else:
        raise ProblemFormatError('shift must be "laplacian", "adjacency" or {"matrix": ...}', "/shift")

    profile = BandwidthProfile.create(b_raw, c_raw)

    opts = doc.get("options", {})
    if not isinstance(opts, dict):
        raise ProblemFormatError("options must be an object", "/options")
    mode = opts.get("mode", "periodic")
    if mode not in ("periodic", "sinc"):
        raise ProblemFormatError('mode must be "periodic" or "sinc"', "/options/mode")
    period = opts.get("period")
    if period is not None:
        period = parse_period(period, "/options/period")
    window = opts.get("window")
    if window is not None:
        if not (isinstance(window, list) and len(window) == 2):
            raise ProblemFormatError("window must be [t0, t1]", "/options/window")
        window = parse_window(window, ("/options/window/0", "/options/window/1"),
                              "/options/window")
    seed = check_seed(opts.get("seed", 0), "/options/seed")
    tolerance = check_tolerance(opts.get("tolerance", 1e-10), "/options/tolerance")
    v_star = opts.get("v_star")
    if v_star is not None:
        if not (isinstance(v_star, list)
                and all(isinstance(v, int) and not isinstance(v, bool) for v in v_star)):
            raise ProblemFormatError("v_star must be a list of vertex indices", "/options/v_star")
        for i, v in enumerate(v_star):
            if not 0 <= v < n:
                raise ProblemFormatError("vertex index out of range", f"/options/v_star/{i}")
        v_star = tuple(sorted(set(v_star)))

    options = RunOptions(mode=mode, period=period, window=window, seed=seed,
                         tolerance=tolerance, v_star=v_star)
    return Problem(graph=graph, shift=shift, profile=profile, options=options)


def load_problem(path: str) -> Problem:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem(handle.read())
