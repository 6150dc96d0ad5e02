"""Seeded problem generator for the benchmark workloads.

Every instance is drawn from its own generator, seeded by the run seed and
the instance's slot in the workload, so the same seed always yields the
same files. An instance has a fixed *shape*: vertex count, number of zero
frequency bounds (|Lambda0|, which sets how many C(n, n - |Lambda0|)
candidate sets the planner enumerates), number of finite positive
frequency bounds (the filtration depth) and number of infinite vertex
bounds (which makes ``check_uniform`` search). The finite bound values are
spaced evenly over fixed pools, so that instances of one shape cost about
the same; the seed picks the graph, its weights, and which vertex or
frequency gets which bound. Only instances that plan are kept; a slot that
draws an infeasible problem draws again.

Bounds are written as JSON numbers only: 0.5, 1.5 and 2.5 are exact binary
floats, and ``parse_problem`` does not accept "p/q" strings in B or C.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

import ctgs

B_POOL = (0.5, 1, 1.5, 2, 2.5, 3, 4, 5)
C_POOL = (1, 1.5, 2, 3, 4, 6)
MAX_DRAWS = 64


@dataclass(frozen=True)
class Shape:
    n: int
    zero_c: int
    finite_c: int
    inf_b: int
    max_bw: float = float("inf")   # cap on the finite bounds drawn


@dataclass(eq=False)
class Instance:
    """A problem document together with the in-process plan it must have."""

    doc: dict
    text: str
    spectrum: ctgs.Spectrum
    finite: ctgs.BandwidthProfile
    filtration: ctgs.Filtration
    sequence: ctgs.AdmissibleSequence
    plan: ctgs.SamplingPlan

    @property
    def n(self) -> int:
        return self.doc["n"]


def random_edges(rng, n: int) -> list:
    """Random spanning tree plus extra edges, weights in [0.5, 2)."""
    edges = [[int(rng.integers(0, v)), v, float(rng.uniform(0.5, 2.0))] for v in range(1, n)]
    present = {(u, v) for u, v, _ in edges}
    for _ in range(int(rng.integers(0, n))):
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        if (u, v) not in present:
            present.add((u, v))
            edges.append([u, v, float(rng.uniform(0.5, 2.0))])
    return edges


def spread_over(pool, count: int, cap) -> list:
    """``count`` values spaced evenly over the pool entries not above ``cap``."""
    pool = [v for v in pool if v <= cap]
    return [pool[(i * len(pool)) // count] for i in range(count)]


def _shuffled(rng, values: list) -> list:
    return [values[i] for i in rng.permutation(len(values))]


def problem_doc(rng, shape: Shape, signal_seed: int) -> dict:
    n = shape.n
    c = ([0] * shape.zero_c + spread_over(C_POOL, shape.finite_c, shape.max_bw)
         + ["inf"] * (n - shape.zero_c - shape.finite_c))
    b = ["inf"] * shape.inf_b + spread_over(B_POOL, n - shape.inf_b, shape.max_bw)
    return {
        "n": n,
        "edges": random_edges(rng, n),
        "B": _shuffled(rng, b),
        "C": _shuffled(rng, c),
        "options": {"seed": signal_seed},
    }


def plannable_instance(seed: int, slot: int, shape: Shape) -> Instance:
    """First draw of this slot's generator that admits a plan."""
    rng = np.random.default_rng([seed, slot])
    for _ in range(MAX_DRAWS):
        doc = problem_doc(rng, shape, signal_seed=int(rng.integers(0, 2**31)))
        text = json.dumps(doc)
        problem = ctgs.parse_problem(text)
        spectrum = ctgs.eigendecompose(problem.shift)
        try:
            _, finite, filtration, seq, plan = ctgs.plan_problem(spectrum, problem.profile)
        except ctgs.InfeasibleProblemError:
            continue
        return Instance(doc, text, spectrum, finite, filtration, seq, plan)
    raise RuntimeError(f"no plannable instance of {shape} in {MAX_DRAWS} draws (seed {seed}, slot {slot})")
