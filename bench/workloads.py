"""The three benchmark workloads: their instances, their CLI ops and the
checks every op's output must pass.

An op is one ``ctgs`` CLI command on one generated problem file. The
checks run on each op's warm-up output, outside any timed region; every
later run of the op must reproduce that output byte for byte.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction

import ctgs
from ctgs import reports
from ctgs.numerics import least_period
from ctgs.planner import validate_spread_set

from generate import Instance, Shape, plannable_instance

PERIODIC_TOL = 1e-8   # simulate --mode periodic, and the plan round trip
SINC_TOL = 1e-2       # simulate --mode sinc (acceptance criterion 12's bound)
EXIT_OK = 0
EXIT_VALIDATION = 2


@dataclass(frozen=True)
class Op:
    command: str
    instance: int
    args: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    shapes: tuple
    ops_for: object   # (slot, Instance) -> [Op]


def _plan_enum_ops(slot, inst):
    return [Op("analyze", slot), Op("plan", slot)]


PERIOD_MULTIPLES = (4, 8, 16, 32)


def _sim_periodic_ops(slot, inst):
    lp = least_period([g.rate for g in inst.plan.grids])
    ops = [Op("simulate", slot, ("--mode", "periodic", "--period", str(m * lp)))
           for m in PERIOD_MULTIPLES]
    return ops + [Op("redistribute", slot, ("--vstar", ",".join(map(str, spread_set(inst)))))]


SINC_HALF_WIDTHS = (3, 5, 7)


def _sim_sinc_ops(slot, inst):
    return [Op("simulate", slot, ("--mode", "sinc", f"--window=-{w},{w}"))
            for w in SINC_HALF_WIDTHS]


def _shapes(ns, zeros, finite, inf_b, copies=1, max_bw=float("inf")):
    return tuple(Shape(n, z, finite, inf_b(n), max_bw)
                 for _ in range(copies) for n in ns for z in zeros)


# Why each workload exists is recorded in BENCHMARK.json. In short:
# plan-enum spends its time enumerating uniqueness sets (n stops at 12, the
# tightness guard); sim-periodic in exact recovery and the spread
# transforms; sim-sinc in recovery_error's quadrature over the same signal
# and recovery layers, with bounds capped at 1.5 so that a run holds 100 ops.
# About 15% of vertex bounds are infinite throughout.
WORKLOADS = {
    w.name: w for w in (
        Workload("plan-enum",
                 _shapes((10, 11, 12), (1, 2, 3), 4, lambda n: 1 if n == 10 else 2),
                 _plan_enum_ops),
        Workload("sim-periodic", _shapes((5, 6, 7, 8), (1,), 2, lambda n: 1, copies=4),
                 _sim_periodic_ops),
        Workload("sim-sinc", _shapes((5, 6, 7), (1,), 2, lambda n: 1, copies=4, max_bw=1.5),
                 _sim_sinc_ops),
    )
}


def spread_set(inst: Instance) -> tuple:
    """V0 plus, in index order, every vertex that keeps the spread set valid."""
    plan = inst.plan
    v_star = list(plan.base_vertices)
    for v in range(inst.n):
        if v in v_star:
            continue
        try:
            validate_spread_set(inst.spectrum, plan.base_lambda0,
                                plan.base_vertices, v_star + [v])
        except ctgs.ProblemFormatError:
            continue
        v_star.append(v)
    return tuple(sorted(v_star))


@dataclass(eq=False)
class Pool:
    """The generated files of one workload and the ops to run on them."""

    workload: Workload
    instances: list
    paths: list
    ops: list = field(default_factory=list)

    def argv(self, op: Op) -> list:
        return [op.command, "--input", self.paths[op.instance], *op.args]

    def first_of_each_command(self) -> list:
        seen = {}
        for op in self.ops:
            seen.setdefault(op.command, op)
        return list(seen.values())


def build_pool(workload: Workload, seed: int, directory: str, shapes=None) -> Pool:
    """Generate, keep the plannable draws, and write one file per instance."""
    os.makedirs(directory, exist_ok=True)
    shapes = workload.shapes if shapes is None else shapes
    instances = [plannable_instance(seed, slot, shape) for slot, shape in enumerate(shapes)]
    paths = []
    for slot, inst in enumerate(instances):
        path = os.path.join(directory, f"{workload.name}-{slot:02d}-n{inst.n}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(inst.text)
        paths.append(path)
    pool = Pool(workload, instances, paths)
    for slot, inst in enumerate(instances):
        pool.ops.extend(workload.ops_for(slot, inst))
    return pool


# --- output checks -----------------------------------------------------------

def _index(label: str) -> int:
    return int(label[1:]) - 1   # default labels are v1..vn


def _check_analyze(inst, report):
    problems = []
    if report["uniformity"]["is_uniform"] is not True:
        problems.append("analyze: not uniform")
    if report["finitized_B"] != list(inst.finite.vertex_bw):
        problems.append("analyze: finitized_B differs from the in-process finitization")
    if "tightened_B" not in report:
        problems.append("analyze: no tightness result")
    return problems


def plan_roundtrip_error(inst: Instance, plan) -> float:
    """Worst relative error of a periodic round trip at the least period."""
    period = least_period([g.rate for g in plan.grids])
    sset = ctgs.build_sample_set(plan, "periodic", period)
    truth = ctgs.synthesize_signal(inst.spectrum, inst.finite, 0, "periodic", period,
                                   plan=plan, filtration=inst.filtration)
    result = ctgs.recover(ctgs.sample_signal(truth, sset), plan, inst.spectrum, sset)
    errors = ctgs.recovery_error(truth, result.recovered, "periodic", period, plan.n)
    return max((e["error"] for e in errors.values() if e["relative"]), default=0.0)


def _check_plan(inst, report):
    filtration = report["filtration"]
    if filtration["b_sequence"] != list(inst.filtration.quotient_bandwidths):
        return ["plan: quotient bandwidths differ from the in-process filtration"]
    summary = report["admissible_sequence"]
    seq = ctgs.AdmissibleSequence(
        v_sets=tuple(tuple(_index(v) for v in vs) for vs in summary["sets"]),
        added=tuple(_index(v) for v in summary["added"]),
        base_rate=summary["base_rate"],
        quotient_rates=tuple(summary["quotient_rates"]))
    problems = [f"plan: {p}" for p in ctgs.verify_admissible_sequence(
        inst.spectrum, inst.finite, inst.filtration, seq)]
    if problems:
        return problems
    plan = ctgs.make_plan(inst.spectrum, inst.finite, inst.filtration, seq)
    if plan.total_rate != report["total_rate"]:
        problems.append("plan: total rate disagrees with the reported sequence")
    error = plan_roundtrip_error(inst, plan)
    if not error <= PERIODIC_TOL:
        problems.append(f"plan: periodic round trip error {error:.3e}")
    return problems


def _check_simulate(inst, report):
    bound_ok = {"periodic": lambda e: e <= PERIODIC_TOL, "sinc": lambda e: e < SINC_TOL}
    error = report["max_relative_error"]
    problems = []
    if not bound_ok[report["mode"]](error):
        problems.append(f"simulate: {report['mode']} max_relative_error {error:.3e}")
    if report["total_rate"] != inst.plan.total_rate:
        problems.append("simulate: total rate differs from the in-process plan")
    return problems


def _check_redistribute(inst, report):
    problems = []
    if report["after"]["rate"] != report["before"]["rate"]:
        problems.append("redistribute: spreading changed the base rate")
    if sum(report["full_plan_rates"].values(), Fraction(0)) != inst.plan.total_rate:
        problems.append("redistribute: spreading changed the total rate")
    return problems


_CHECKS = {
    "analyze": _check_analyze,
    "plan": _check_plan,
    "simulate": _check_simulate,
    "redistribute": _check_redistribute,
}


def check_output(pool: Pool, op: Op, code, out: str, err: str) -> list:
    """Problems with one op's output; an empty list means it is correct.

    ``redistribute`` may reject a spread set with exit code 2; that counts
    as an answer. Every other op must exit 0 and pass its command's check.
    """
    try:
        if op.command == "redistribute" and code == EXIT_VALIDATION:
            kind = json.loads(err)["error"]["kind"]
            return [] if kind == "validation" else [f"redistribute: rejection of kind {kind}"]
        if code != EXIT_OK:
            return [f"{op.command}: exit code {code}: {err.strip()[:200]}"]
        return _CHECKS[op.command](pool.instances[op.instance], reports.parse_report(out))
    except (KeyError, TypeError, ValueError, ctgs.CtgsError) as exc:
        return [f"{op.command}: unreadable or inconsistent output: {exc!r}"]

