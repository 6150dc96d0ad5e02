"""Command-line interface: analyze / plan / simulate / redistribute."""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import reports
from .bandwidth import TIGHTEN_GUARD, check_uniform, finitize, is_tight, tighten
from .errors import CtgsError, InfeasibleProblemError, ProblemFormatError
from .numerics import json_to_number, least_period
from .planner import choose_spread, plan_problem, redistribute_plan
from .problems import load_problem
from .sampling import (
    build_sample_set,
    eccentricity,
    prop_bound_eccentricity,
    recover,
    recovery_error,
    redistribute,
    sample_rate,
    sample_signal,
)
from .signals import synthesize_signal
from .spectral import eigendecompose

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctgs",
        description="Minimal-rate sampling planner and recovery simulator "
                    "for bandlimited continuous-time graph signals.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("analyze", "uniformity, finitization and tightness report"),
        ("plan", "filtration, admissible sequence and sampling plan"),
        ("simulate", "synthesize, sample and recover; report errors"),
        ("redistribute", "spread the base sampling load to reduce eccentricity"),
    ):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--input", required=True, help="problem JSON file")
        cmd.add_argument("--output", help="directory for artifact files")
        cmd.add_argument("--format", default="json", choices=["json", "csv", "plotdata"])
        cmd.add_argument("--mode", choices=["periodic", "sinc"])
        cmd.add_argument("--period", help="period T for periodic mode")
        cmd.add_argument("--window", help="sinc window as 't0,t1'")
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--tolerance", type=float)
        if name == "redistribute":
            cmd.add_argument("--vstar", help="comma-separated vertex labels or 0-based indices")
    return parser


def _resolve_options(problem, args):
    opts = problem.options
    mode = args.mode or opts.mode
    seed = args.seed if args.seed is not None else opts.seed
    tolerance = args.tolerance if args.tolerance is not None else opts.tolerance
    period = opts.period
    if args.period is not None:
        period = Fraction(json_to_number(args.period, "--period"))
    window = opts.window
    if args.window is not None:
        parts = args.window.split(",")
        if len(parts) != 2:
            raise ProblemFormatError("window must be 't0,t1'", "--window")
        window = (Fraction(json_to_number(parts[0].strip(), "--window")),
                  Fraction(json_to_number(parts[1].strip(), "--window")))
    return mode, period, window, seed, tolerance


def _parse_vstar(problem, raw):
    if raw is None:
        if problem.options.v_star is None:
            raise ProblemFormatError("redistribute needs --vstar or options.v_star")
        return problem.options.v_star
    labels = list(problem.graph.vertex_labels)
    out = []
    for token in raw.split(","):
        token = token.strip()
        if token in labels:
            out.append(labels.index(token))
        else:
            try:
                idx = int(token)
            except ValueError:
                raise ProblemFormatError(f"unknown vertex {token!r}", "--vstar") from None
            if not 0 <= idx < problem.graph.n_vertices:
                raise ProblemFormatError(f"vertex index {idx} out of range", "--vstar")
            out.append(idx)
    return tuple(sorted(set(out)))


def _write_artifact(output_dir, name, payload):
    os.makedirs(output_dir, exist_ok=True)
    path = os.path.join(output_dir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)
    return path


def _cmd_analyze(problem, args):
    _, _, _, _, tolerance = _resolve_options(problem, args)
    spectrum = eigendecompose(problem.shift, tol=tolerance)
    cert = check_uniform(spectrum, problem.profile)
    report = {
        "command": "analyze",
        "n": problem.graph.n_vertices,
        "labels": list(problem.graph.vertex_labels),
        "spectrum": reports.spectrum_summary(problem.graph, spectrum),
        "profile": problem.profile.to_json(),
        "uniformity": reports.uniformity_summary(problem.graph, cert),
    }
    if cert.is_uniform:
        finite = finitize(spectrum, problem.profile, cert)
        report["finitized_B"] = list(finite.vertex_bw)
        report["lambda0"] = [reports.freq_label(f) for f in finite.lambda0()]
        if spectrum.n <= TIGHTEN_GUARD:
            verdict = is_tight(spectrum, finite)
            report["tightness"] = reports.tightness_summary(problem.graph, verdict)
            report["tightened_B"] = list(tighten(spectrum, finite).vertex_bw)
    return report, {}


def _plan_bundle(problem, tolerance):
    spectrum = eigendecompose(problem.shift, tol=tolerance)
    cert, finite, filtration, seq, plan = plan_problem(spectrum, problem.profile)
    return spectrum, cert, finite, filtration, seq, plan


def _cmd_plan(problem, args):
    mode, period, window, _, tolerance = _resolve_options(problem, args)
    spectrum, cert, finite, filtration, seq, plan = _plan_bundle(problem, tolerance)
    report = {
        "command": "plan",
        "n": problem.graph.n_vertices,
        "labels": list(problem.graph.vertex_labels),
        "spectrum": reports.spectrum_summary(problem.graph, spectrum),
        "profile": problem.profile.to_json(),
        "uniformity": reports.uniformity_summary(problem.graph, cert),
        "finitized_B": list(finite.vertex_bw),
        "filtration": reports.filtration_summary(problem.graph, filtration),
        "admissible_sequence": reports.sequence_summary(problem.graph, seq),
        "plan": reports.plan_summary(problem.graph, plan),
        "total_rate": plan.total_rate,
    }
    artifacts = {}
    if args.format == "csv" or args.output:
        if mode == "periodic":
            per = period if period is not None else least_period([g.rate for g in plan.grids])
            sset = build_sample_set(plan, "periodic", per)
            report["period"] = per
        else:
            win = window if window is not None else (Fraction(-20), Fraction(20))
            sset = build_sample_set(plan, "sinc", win)
        artifacts["sample_set.csv"] = reports.sample_set_csv(sset)
    return report, artifacts


def _cmd_simulate(problem, args):
    mode, period, window, seed, tolerance = _resolve_options(problem, args)
    spectrum, cert, finite, filtration, seq, plan = _plan_bundle(problem, tolerance)
    if mode == "periodic":
        per = period if period is not None else least_period([g.rate for g in plan.grids])
        domain = per
        domain_desc = {"period": per}
    else:
        domain = window if window is not None else (Fraction(-20), Fraction(20))
        domain_desc = {"window": [domain[0], domain[1]]}
    sset = build_sample_set(plan, mode, domain)
    truth = synthesize_signal(spectrum, finite, seed, mode, domain,
                              plan=plan, filtration=filtration, sequence=seq)
    obs = sample_signal(truth, sset)
    result = recover(obs, plan, spectrum, sset)
    errors = recovery_error(truth, result.recovered, mode, domain, plan.n)
    labels = problem.graph.vertex_labels
    rel = [e["error"] for e in errors.values() if e["relative"]]
    report = {
        "command": "simulate",
        "n": problem.graph.n_vertices,
        "labels": list(labels),
        "mode": mode,
        **domain_desc,
        "seed": seed,
        "total_rate": plan.total_rate,
        "filtration": reports.filtration_summary(problem.graph, filtration),
        "admissible_sequence": reports.sequence_summary(problem.graph, seq),
        "plan": reports.plan_summary(problem.graph, plan),
        "sample_points": sset.n_points(),
        "errors": {labels[v]: e for v, e in sorted(errors.items())},
        "max_relative_error": max(rel) if rel else 0.0,
        "recovery_diagnostics": result.diagnostics,
    }
    artifacts = {
        "sample_set.csv": reports.sample_set_csv(sset),
        "observations.csv": reports.observation_csv(obs),
    }
    if args.format == "plotdata" or args.output:
        if mode == "periodic":
            t0, t1 = 0.0, float(domain)
        else:
            t0, t1 = float(domain[0]), float(domain[1])
        artifacts["plotdata.csv"] = reports.plotdata_csv(truth, result.recovered,
                                                         plan.n, t0, t1)
    return report, artifacts


def _cmd_redistribute(problem, args):
    mode, period, window, _, tolerance = _resolve_options(problem, args)
    v_star = _parse_vstar(problem, getattr(args, "vstar", None))
    spectrum, cert, finite, filtration, seq, plan = _plan_bundle(problem, tolerance)
    labels = problem.graph.vertex_labels
    lam00 = plan.base_lambda0
    spread_grids, _ = choose_spread(spectrum, lam00, finite.vertex_bw,
                                    plan.base_vertices, v_star)
    if mode == "periodic":
        per = period if period is not None else least_period(
            [2 * Fraction(finite.vertex_bw[v]) for v in plan.base_vertices]
            + [g.rate for g in spread_grids])
        domain = per
    else:
        domain = window if window is not None else (Fraction(-20), Fraction(20))
    base_set = build_sample_set(plan, mode, domain)
    base_only = type(base_set)(n=base_set.n, mode=base_set.mode, period=base_set.period,
                               window=base_set.window,
                               grids=tuple(g for g in base_set.grids if g.grid_id.startswith("base")))
    spread = redistribute(spectrum, lam00, finite.vertex_bw, plan.base_vertices, v_star, base_only)
    sorted_bw = sorted(Fraction(finite.vertex_bw[v]) for v in plan.base_vertices)
    bound = prop_bound_eccentricity(plan.n, sorted_bw, len(v_star), sample_rate(base_only))
    spread_plan = redistribute_plan(plan, spectrum, v_star)
    report = {
        "command": "redistribute",
        "labels": list(labels),
        "v_star": [labels[v] for v in v_star],
        "base_set": [labels[v] for v in plan.base_vertices],
        "before": {
            "rates": {labels[v]: r for v, r in sorted(base_only.per_vertex_rates().items())},
            "rate": sample_rate(base_only),
            "eccentricity": eccentricity(base_only),
        },
        "after": {
            "rates": {labels[v]: r for v, r in sorted(spread.per_vertex_rates().items())},
            "rate": sample_rate(spread),
            "eccentricity": eccentricity(spread),
        },
        "eccentricity_bound": bound,
        "full_plan_rates": {labels[v]: r for v, r in sorted(spread_plan.per_vertex_rates.items())},
    }
    artifacts = {"redistributed_sample_set.csv": reports.sample_set_csv(spread)}
    return report, artifacts


_COMMANDS = {
    "analyze": _cmd_analyze,
    "plan": _cmd_plan,
    "simulate": _cmd_simulate,
    "redistribute": _cmd_redistribute,
}


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            problem = load_problem(args.input)
        except OSError as exc:
            raise ProblemFormatError(f"cannot read input: {exc}") from exc
        report, artifacts = _COMMANDS[args.command](problem, args)
    except ProblemFormatError as exc:
        _emit_error("validation", exc)
        return EXIT_VALIDATION
    except InfeasibleProblemError as exc:
        _emit_error("infeasible", exc)
        return EXIT_INFEASIBLE
    except CtgsError as exc:
        _emit_error("internal", exc)
        return EXIT_INTERNAL
    except OSError as exc:
        _emit_error("io", exc)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive
        _emit_error("internal", exc)
        return EXIT_INTERNAL

    if args.format == "json" or args.command == "analyze":
        sys.stdout.write(reports.emit_json(report) + "\n")
    else:
        wanted = {"csv": "sample_set.csv", "plotdata": "plotdata.csv"}[args.format]
        payload = artifacts.get(wanted)
        if payload is None:
            _emit_error("validation", ProblemFormatError(
                f"format {args.format!r} is not available for {args.command}"))
            return EXIT_VALIDATION
        sys.stdout.write(payload)
    if args.output:
        _write_artifact(args.output, f"{args.command}_report.json", reports.emit_json(report) + "\n")
        for name, payload in artifacts.items():
            _write_artifact(args.output, name, payload)
    return EXIT_OK


def _emit_error(kind: str, exc: Exception) -> None:
    payload = {"error": {"kind": kind, "type": type(exc).__name__, "message": str(exc)}}
    pointer = getattr(exc, "pointer", "")
    if pointer:
        payload["error"]["pointer"] = pointer
    sys.stderr.write(json.dumps(payload) + "\n")


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # reader went away (e.g. piped into head); exit quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
