"""Command-line interface: analyze / plan / simulate / redistribute."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

from . import reports
from .bandwidth import TIGHTEN_GUARD, check_uniform, finitize, is_tight, tighten
from .errors import CtgsError, InfeasibleProblemError, ProblemFormatError
from .numerics import least_period
from .planner import plan_problem, redistribute_plan
from .problems import check_seed, check_tolerance, load_problem, parse_period, parse_window
from .sampling import (
    build_sample_set,
    eccentricity,
    prop_bound_eccentricity,
    recover,
    recovery_error,
    sample_rate,
    sample_signal,
)
from .signals import synthesize_signal
from .spectral import eigendecompose

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each parse fills a
    fresh namespace, so no option carries from one ``run`` to the next."""
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
    seed = opts.seed if args.seed is None else check_seed(args.seed, "--seed")
    tolerance = (opts.tolerance if args.tolerance is None
                 else check_tolerance(args.tolerance, "--tolerance"))
    period = opts.period if args.period is None else parse_period(args.period, "--period")
    window = opts.window
    if args.window is not None:
        parts = args.window.split(",")
        if len(parts) != 2:
            raise ProblemFormatError("window must be 't0,t1'", "--window")
        window = parse_window(parts, ("--window", "--window"), "--window")
    return mode, period, window, seed, tolerance


def _domain(mode, period, window, grids):
    """The period in periodic mode, by default the least period of
    ``grids``; the window in sinc mode, by default (-20, 20)."""
    if mode == "periodic":
        return period if period is not None else least_period([g.rate for g in grids])
    return window if window is not None else (Fraction(-20), Fraction(20))


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


def _eigendecompose(problem, tolerance):
    """The problem's spectrum. C must be constant on each multiplicity
    group: the solver picks a group's eigenvectors arbitrarily, so bounds
    that differ inside it would make the signal space depend on that pick."""
    spectrum = eigendecompose(problem.shift, tol=tolerance)
    freq_bw = problem.profile.freq_bw
    for group in spectrum.multiplicity_groups:
        differing = [f for f in group if freq_bw[f] != freq_bw[group[0]]]
        if differing:
            names = ", ".join(map(reports.freq_label, group))
            raise ProblemFormatError(
                f"C must be constant on the multiplicity group ({names}) of eigenvalue "
                f"{float(spectrum.eigenvalues[group[0]]):.6g}", f"/C/{differing[0]}")
    return spectrum


def _report_head(command, problem, spectrum, cert) -> dict:
    """The six keys that open the analyze and plan reports."""
    graph, profile = problem.graph, problem.profile
    return {"command": command, "n": graph.n_vertices, "labels": list(graph.vertex_labels),
            "spectrum": reports.spectrum_summary(graph, spectrum),
            "profile": {"B": list(profile.vertex_bw), "C": list(profile.freq_bw)},
            "uniformity": reports.uniformity_summary(graph, cert)}


def _cmd_analyze(problem, args):
    _, _, _, _, tolerance = _resolve_options(problem, args)
    spectrum = _eigendecompose(problem, tolerance)
    cert = check_uniform(spectrum, problem.profile)
    report = _report_head("analyze", problem, spectrum, cert)
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
    spectrum = _eigendecompose(problem, tolerance)
    cert, finite, filtration, seq, plan = plan_problem(spectrum, problem.profile)
    return spectrum, cert, finite, filtration, seq, plan


def _cmd_plan(problem, args):
    mode, period, window, _, tolerance = _resolve_options(problem, args)
    spectrum, cert, finite, filtration, seq, plan = _plan_bundle(problem, tolerance)
    report = {
        **_report_head("plan", problem, spectrum, cert),
        "finitized_B": list(finite.vertex_bw),
        "filtration": reports.filtration_summary(problem.graph, filtration),
        "admissible_sequence": reports.sequence_summary(problem.graph, seq),
        "plan": reports.plan_summary(problem.graph, plan),
        "total_rate": plan.total_rate,
    }
    artifacts = {}
    if args.format == "csv" or args.output:
        domain = _domain(mode, period, window, plan.grids)
        if mode == "periodic":
            report["period"] = domain
        artifacts["sample_set.csv"] = reports.sample_set_csv(build_sample_set(plan, mode, domain))
    return report, artifacts


def _cmd_simulate(problem, args):
    mode, period, window, seed, tolerance = _resolve_options(problem, args)
    spectrum, cert, finite, filtration, seq, plan = _plan_bundle(problem, tolerance)
    domain = _domain(mode, period, window, plan.grids)
    domain_desc = {"period": domain} if mode == "periodic" else {"window": list(domain)}
    sset = build_sample_set(plan, mode, domain)
    truth = synthesize_signal(spectrum, finite, seed, mode, domain, plan=plan)
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
    # artifacts are built only when --format or --output asks for them
    artifacts = {}
    if args.format == "csv" or args.output:
        artifacts["sample_set.csv"] = reports.sample_set_csv(sset)
    if args.output:
        artifacts["observations.csv"] = reports.observation_csv(obs)
    if args.format == "plotdata" or args.output:
        if mode == "periodic":
            t0, t1 = 0.0, float(domain)
        else:
            t0, t1 = float(domain[0]), float(domain[1])
        artifacts["plotdata.csv"] = reports.plotdata_csv(truth, result.recovered,
                                                         plan.n, t0, t1)
    return report, artifacts


def _base_sample_set(plan, mode, domain):
    """The plan's base grids alone, realized on ``domain``."""
    base = tuple(g for g in plan.grids if g.grid_id.startswith("base"))
    return build_sample_set(replace(plan, grids=base), mode, domain)


def _cmd_redistribute(problem, args):
    mode, period, window, _, tolerance = _resolve_options(problem, args)
    v_star = _parse_vstar(problem, getattr(args, "vstar", None))
    spectrum, cert, finite, filtration, seq, plan = _plan_bundle(problem, tolerance)
    labels = problem.graph.vertex_labels
    # ``after`` describes the base grids of the plan returned, whichever
    # spread construction passed the recoverability certificate
    spread_plan = redistribute_plan(plan, v_star)
    domain = _domain(mode, period, window, [g for g in plan.grids + spread_plan.grids
                                            if g.grid_id.startswith("base")])
    base_only = _base_sample_set(plan, mode, domain)
    spread = _base_sample_set(spread_plan, mode, domain)
    sorted_bw = sorted(Fraction(finite.vertex_bw[v]) for v in plan.base_vertices)
    bound = prop_bound_eccentricity(plan.n, sorted_bw, len(v_star), sample_rate(base_only))
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
    # the bound holds for spread B and for a spread A that ranks first, not
    # always for a spread A returned because spread B failed the certificate
    spread_eccentricity = report["after"]["eccentricity"]
    if spread_eccentricity > bound:
        report["warnings"] = [
            f"spread eccentricity {spread_eccentricity} exceeds eccentricity_bound {bound}"]
    artifacts = {}
    if args.output:
        artifacts["redistributed_sample_set.csv"] = reports.sample_set_csv(spread)
    return report, artifacts


_COMMANDS = {
    "analyze": _cmd_analyze,
    "plan": _cmd_plan,
    "simulate": _cmd_simulate,
    "redistribute": _cmd_redistribute,
}


def _bind_window(argv) -> list:
    """``argv`` with each ``--window`` joined to the token after it, which
    argparse would otherwise read as an option when t0 is negative."""
    tokens = list(argv)
    while "--window" in tokens[:-1]:
        i = tokens.index("--window")
        tokens[i:i + 2] = [f"--window={tokens[i + 1]}"]
    return tokens


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_bind_window(sys.argv[1:] if argv is None else argv))
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
