import json
import time
from fractions import Fraction

import numpy as np
import pytest

import ctgs
from ctgs import cli, reports

from conftest import WORKED_B, WORKED_C, WORKED_EDGES
from helpers import (plannable_problems, problem_document, random_connected_graph,
                     random_profile, spread_set)


def _run(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_plan_reports_total_rate(worked_problem_file, capsys):
    code, out, _ = _run(capsys, ["plan", "--input", worked_problem_file])
    assert code == 0
    report = reports.parse_report(out)
    assert report["total_rate"] == 32
    assert report["filtration"]["lambda_star_order"] == ["lambda2", "lambda3", "lambda1"]
    assert report["filtration"]["b_sequence"] == [4, 5, 2]
    assert report["admissible_sequence"]["sets"][0] == ["v3", "v4"]
    assert report["plan"]["per_vertex_rates"]["v3"] == 2


def test_plan_csv_rows(worked_problem_file, capsys):
    code, out, _ = _run(capsys, ["plan", "--input", worked_problem_file, "--format", "csv"])
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert lines[0] == "vertex,time"
    assert len(lines) == 1 + 32


def test_simulate_periodic_exact(worked_problem_file, capsys):
    code, out, _ = _run(capsys, ["simulate", "--input", worked_problem_file,
                                 "--mode", "periodic", "--seed", "1"])
    assert code == 0
    report = reports.parse_report(out)
    assert report["max_relative_error"] < 1e-9
    assert report["sample_points"] == 32


@pytest.mark.parametrize("period", ["1", "32"])
def test_simulate_periodic_builds_no_fraction_times(worked_problem_file, capsys, monkeypatch,
                                                    period):
    """A periodic simulate samples and recovers from the grids' lattices
    alone: no sample time is built as a Fraction."""
    def built(self):
        raise AssertionError("Fraction sample times were built")

    monkeypatch.setattr(ctgs.sampling.RealizedGrid, "times", property(built))
    code, out, err = _run(capsys, ["simulate", "--input", worked_problem_file,
                                   "--mode", "periodic", "--period", period, "--seed", "1"])
    assert code == 0, err
    report = reports.parse_report(out)
    assert report["max_relative_error"] < 1e-9
    assert report["sample_points"] == 32 * int(period)


def test_simulate_deterministic_bytes(worked_problem_file, capsys):
    _, first, _ = _run(capsys, ["simulate", "--input", worked_problem_file, "--seed", "3"])
    _, second, _ = _run(capsys, ["simulate", "--input", worked_problem_file, "--seed", "3"])
    assert first == second


def test_analyze_two_path(tmp_path, capsys):
    doc = {"n": 2, "edges": [[0, 1]], "B": [3, 5], "C": [0, "inf"]}
    path = tmp_path / "twopath.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, ["analyze", "--input", str(path)])
    assert code == 0
    report = reports.parse_report(out)
    assert report["tightness"]["tight"] is False
    assert report["tightness"]["violations"][0]["vertex"] == "v2"
    assert report["tightened_B"] == [3, 3]
    assert report["uniformity"]["is_uniform"] is True


def test_analyze_n200_reports_tightened_bounds(tmp_path, capsys):
    """Past the tightness guard, analyze still reports the tightened profile
    and leaves out only the tightness verdict."""
    rng = np.random.default_rng(200)
    graph = random_connected_graph(rng, 200)
    profile = random_profile(rng, 200)
    path = tmp_path / "n200.json"
    path.write_text(json.dumps(problem_document(graph, profile)))
    code, out, _ = _run(capsys, ["analyze", "--input", str(path)])
    assert code == 0
    report = reports.parse_report(out)
    assert "tightness" not in report
    spectrum = ctgs.eigendecompose(ctgs.build_shift_operator(graph, "laplacian"))
    assert report["tightened_B"] == list(ctgs.tighten(spectrum, profile).vertex_bw)
    assert report["tightened_B"] != report["finitized_B"]


def test_redistribute_command(worked_problem_file, capsys):
    code, out, _ = _run(capsys, ["redistribute", "--input", worked_problem_file,
                                 "--vstar", "v2,v3,v4"])
    assert code == 0
    report = reports.parse_report(out)
    assert report["before"]["rates"] == {"v3": 2, "v4": 8}
    assert report["before"]["eccentricity"] == 4
    assert report["after"]["rates"] == {"v2": 4, "v3": 2, "v4": 4}
    assert report["after"]["eccentricity"] == 2
    assert report["after"]["rate"] == 10


def test_redistribute_computes_one_spread(worked_problem_file, capsys, monkeypatch):
    calls = []
    original = ctgs.planner.choose_spread

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ctgs.planner, "choose_spread", counted)
    code, _, _ = _run(capsys, ["redistribute", "--input", worked_problem_file,
                               "--vstar", "v2,v3,v4"])
    assert code == 0
    assert len(calls) == 1


def test_redistribute_validates_spread_set_once(worked_problem_file, capsys, monkeypatch):
    calls = []
    original = ctgs.planner.validate_spread_set

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ctgs.planner, "validate_spread_set", counted)
    code, _, _ = _run(capsys, ["redistribute", "--input", worked_problem_file,
                               "--vstar", "v2,v3,v4"])
    assert code == 0
    assert len(calls) == 1


def test_redistribute_rejects_empty_base_set(tmp_path, capsys):
    """Every vertex of this plan is dependent on the empty set, so there is
    no base load to spread."""
    path = tmp_path / "empty_base.json"
    path.write_text(json.dumps({"n": 2, "edges": [[0, 1]], "B": [5, 1.5], "C": [0, 1.5]}))
    code, _, err = _run(capsys, ["redistribute", "--input", str(path), "--vstar", "0,1"])
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "validation"


def test_redistribute_reports_the_spread_the_plan_uses(tmp_path, capsys):
    """On this path graph the best spread fails its round trip and the
    runner-up is returned; ``after`` describes the returned plan's base
    grids."""
    path = tmp_path / "fallback.json"
    path.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]],
                                "B": [1, 4, 2, 4], "C": ["inf", 6, "inf", "inf"]}))
    v_star = (0, 1, 2, 3)
    code, out, _ = _run(capsys, ["redistribute", "--input", str(path), "--vstar", "0,1,2,3"])
    assert code == 0
    problem = ctgs.load_problem(str(path))
    spectrum = ctgs.eigendecompose(problem.shift, tol=problem.options.tolerance)
    plan = ctgs.plan_problem(spectrum, problem.profile)[4]
    best = ctgs.planner.choose_spread(plan.base, plan.vertex_bw, v_star)[0]
    returned = ctgs.redistribute_plan(plan, v_star)
    assert returned.grids != ctgs.planner._spread_plan(plan, best, v_star).grids
    base_rates = ctgs.planner.rates_by_vertex(
        g for g in returned.grids if g.grid_id.startswith("base"))
    labels = problem.graph.vertex_labels
    report = reports.parse_report(out)
    assert report["after"]["rates"] == {labels[v]: r for v, r in sorted(base_rates.items())}
    assert report["after"]["eccentricity"] \
        == len(labels) * max(base_rates.values()) / report["after"]["rate"]


def test_redistribute_refuses_oversized_spread_set(tmp_path, capsys, monkeypatch):
    """C(16, 8) = 12,870 subsets exceed the 3,432 the uniqueness-set
    enumeration checks at its guard; none is checked."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": 16, "edges": [[i, i + 1] for i in range(15)],
                                "B": [1] * 16, "C": [0] * 8 + ["inf"] * 8}))
    plan_out = _run(capsys, ["plan", "--input", str(path)])[1]
    assert len(reports.parse_report(plan_out)["admissible_sequence"]["sets"][0]) == 8
    enumerated = []
    monkeypatch.setattr(ctgs.planner, "combinations",
                        lambda *args: enumerated.append(args) or iter(()))
    code, _, err = _run(capsys, ["redistribute", "--input", str(path),
                                 "--vstar", ",".join(map(str, range(16)))])
    assert code == 2
    payload = json.loads(err)["error"]
    assert payload["kind"] == "validation"
    assert "12870 subsets" in payload["message"]
    assert not enumerated


def test_redistribute_warns_when_spread_exceeds_eccentricity_bound(tmp_path, capsys):
    """A spread A returned because spread B failed the certificate can
    exceed the bound; the report then says so, and only then."""
    warned = []
    for index, (graph, spectrum, profile, bundle) in enumerate(plannable_problems(11, 60)):
        plan = bundle[4]
        if not plan.base_vertices:
            continue
        path = tmp_path / f"instance{index}.json"
        path.write_text(json.dumps(problem_document(graph, profile)))
        v_star = spread_set(spectrum, plan)
        code, out, _ = _run(capsys, ["redistribute", "--input", str(path),
                                     "--vstar", ",".join(map(str, v_star))])
        if code != 0:
            continue
        report = reports.parse_report(out)
        exceeds = report["after"]["eccentricity"] > report["eccentricity_bound"]
        assert ("warnings" in report) == exceeds, index
        if exceeds:
            warned.append((index, report["after"]["eccentricity"], report["eccentricity_bound"]))
            assert report["warnings"] == [
                f"spread eccentricity {report['after']['eccentricity']} exceeds "
                f"eccentricity_bound {report['eccentricity_bound']}"]
    # n = 5, V* = (0, ..., 4), V0 = (1, 3)
    assert warned == [(59, Fraction(15, 7), Fraction(5, 4))]


def test_in_process_runs_carry_no_options(worked_problem_file, capsys):
    """The parser is built once per process; a call's options never reach
    the next call, in either order."""
    seeded = ["simulate", "--input", worked_problem_file, "--seed", "5"]
    sinc = seeded + ["--mode", "sinc", "--window=-3,3", "--format", "plotdata"]
    plain = ["simulate", "--input", worked_problem_file]
    alone = {}
    for argv in (seeded, sinc, plain):
        cli._build_parser.cache_clear()
        alone[tuple(argv)] = _run(capsys, argv)
    assert len({out for _, out, _ in alone.values()}) == 3
    for order in ((seeded, plain), (plain, seeded), (sinc, plain), (plain, sinc)):
        cli._build_parser.cache_clear()
        for argv in order:
            assert _run(capsys, argv) == alone[tuple(argv)]
        assert cli._build_parser.cache_info().misses == 1


def test_simulate_builds_csv_artifacts_on_demand(worked_problem_file, capsys, monkeypatch,
                                                 tmp_path):
    built = []

    def counting(name, original):
        def wrapper(*args):
            built.append(name)
            return original(*args)
        return wrapper

    for name in ("sample_set_csv", "observation_csv"):
        monkeypatch.setattr(reports, name, counting(name, getattr(reports, name)))
    code, _, _ = _run(capsys, ["simulate", "--input", worked_problem_file])
    assert code == 0
    assert built == []
    out_dir = tmp_path / "artifacts"
    code, out, _ = _run(capsys, ["simulate", "--input", worked_problem_file,
                                 "--output", str(out_dir)])
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "observations.csv", "plotdata.csv", "sample_set.csv", "simulate_report.json"]
    assert (out_dir / "simulate_report.json").read_text() == out
    rows = (out_dir / "observations.csv").read_text().splitlines()
    assert rows[0] == "vertex,time,value" and len(rows) == 1 + 32
    assert (out_dir / "sample_set.csv").read_text().splitlines()[1:] == [
        row.rsplit(",", 1)[0] for row in rows[1:]]


def test_plan_n40_problem(tmp_path, capsys):
    rng = np.random.default_rng(40)
    edges = [[int(rng.integers(0, v)), v, float(rng.uniform(0.5, 2.0))] for v in range(1, 40)]
    b_pool, c_pool = (0.5, 1, 1.5, 2, 3), (0, 1, 2, 3, "inf", "inf")
    doc = {"n": 40, "edges": edges,
           "B": [b_pool[int(rng.integers(0, len(b_pool)))] for _ in range(40)],
           "C": [c_pool[int(rng.integers(0, len(c_pool)))] for _ in range(40)]}
    path = tmp_path / "n40.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["plan", "--input", str(path)])
    assert code == 0, err
    assert reports.parse_report(out)["filtration"]["k"] > 0


def test_validation_exit_code(tmp_path, capsys):
    doc = {"n": 2, "edges": [[0, 1]], "B": [3, 5]}
    path = tmp_path / "missing_c.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["plan", "--input", str(path)])
    assert code == 2
    payload = json.loads(err)
    assert payload["error"]["pointer"] == "/C"


def test_negative_bandwidth_rejected(tmp_path, capsys):
    doc = {"n": 2, "edges": [[0, 1]], "B": [-3, 5], "C": [0, "inf"]}
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["plan", "--input", str(path)])
    assert code == 2


def test_fraction_string_bandwidth_plans_like_float(tmp_path, capsys):
    outs = []
    for half in ("1/2", 0.5):
        path = tmp_path / "half.json"
        path.write_text(json.dumps({"n": 2, "edges": [[0, 1]], "B": [half, 3], "C": [0, "inf"]}))
        code, out, _ = _run(capsys, ["plan", "--input", str(path)])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert reports.parse_report(outs[0])["profile"]["B"][0] == Fraction(1, 2)


@pytest.mark.parametrize("bad", ["1/0", "-1/2", "abc"])
def test_bad_bandwidth_string_rejected(tmp_path, capsys, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "edges": [[0, 1]], "B": [3, bad], "C": [0, "inf"]}))
    code, _, err = _run(capsys, ["plan", "--input", str(path)])
    assert code == 2
    assert json.loads(err)["error"]["pointer"] == "/B/1"


def test_infeasible_exit_code(tmp_path, capsys):
    doc = {"n": 2, "edges": [[0, 1]], "B": ["inf", "inf"], "C": [0, "inf"]}
    path = tmp_path / "nonuniform.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["plan", "--input", str(path)])
    assert code == 3
    payload = json.loads(err)
    assert payload["error"]["kind"] == "infeasible"


def test_sample_set_past_the_guard_exits_validation(tmp_path, capsys, monkeypatch):
    """One point past ``MAX_SAMPLE_POINTS`` is refused before any sample
    time is built."""
    path = tmp_path / "one_vertex.json"
    path.write_text(json.dumps({"n": 1, "edges": [], "B": ["1/2"], "C": ["inf"]}))
    period = ctgs.sampling.MAX_SAMPLE_POINTS + 1   # one grid of rate 1

    def built(*args):
        raise AssertionError("sample times were built")

    monkeypatch.setattr(ctgs.sampling, "_grid_times", built)
    code, out, err = _run(capsys, ["plan", "--input", str(path), "--format", "csv",
                                   "--period", str(period)])
    assert (code, out) == (2, "")
    payload = json.loads(err)["error"]
    assert payload["kind"] == "validation"
    assert "about 10^6 points" in payload["message"]


UNREALIZABLE = {"n": 3, "edges": [[0, 1], [1, 2]],
                "B": ["1/999999937", "1/999999929", "1/999999893"], "C": [0, "inf", "inf"]}


@pytest.mark.parametrize("doc, argv", [
    (UNREALIZABLE, ["plan", "--format", "csv"]),
    (UNREALIZABLE, ["simulate"]),
    (UNREALIZABLE, ["redistribute", "--vstar", "0,1,2"]),
    ({"n": 1, "edges": [], "B": ["1/2"], "C": ["inf"], "options": {"period": 1e300}},
     ["simulate"]),
], ids=["plan-csv", "simulate", "redistribute", "simulate-period-1e300"])
def test_unrealizable_sample_set_exits_validation_at_once(tmp_path, capsys, doc, argv):
    """Bounds whose grids share no short period, or a huge period, ask for
    billions of sample times or more: refused within a second, not built."""
    path = tmp_path / "unrealizable.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _, err = _run(capsys, [argv[0], "--input", str(path), *argv[1:]])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "a sample set may hold" in json.loads(err)["error"]["message"]


CYCLE4 = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]], "B": [4, 4, 1, "5/2"]}


@pytest.mark.parametrize("command", ["analyze", "plan"])
def test_c_varying_inside_multiplicity_group_exits_validation(tmp_path, capsys, command):
    """The 4-cycle's eigenvalue 2 is double (lambda2, lambda3). Bounding its
    two eigenvectors differently makes the space depend on the basis the
    solver returns (rate 5 with one basis, 2 with rotations of it)."""
    path = tmp_path / "cycle4.json"
    path.write_text(json.dumps({**CYCLE4, "C": [0, 0, "inf", 0]}))
    code, out, err = _run(capsys, [command, "--input", str(path)])
    assert (code, out) == (2, "")
    payload = json.loads(err)["error"]
    assert payload["pointer"] == "/C/2"
    assert "(lambda2, lambda3)" in payload["message"]


@pytest.mark.parametrize("freq_bw, rate", [([0, "inf", "inf", 0], 7), ([0, 1, 1, "inf"], 6)])
def test_c_constant_on_multiplicity_groups_plans(tmp_path, capsys, freq_bw, rate):
    path = tmp_path / "cycle4.json"
    path.write_text(json.dumps({**CYCLE4, "C": freq_bw}))
    code, out, err = _run(capsys, ["plan", "--input", str(path)])
    assert code == 0, err
    assert reports.parse_report(out)["total_rate"] == rate


def test_inadmissible_greedy_chain_exits_infeasible(worked_problem_file, capsys, monkeypatch):
    """A verifier failure on the greedy chain (only a numerical breakdown can
    cause one) exits 3 and names the failing level."""
    monkeypatch.setattr(ctgs.planner, "verify_admissible_sequence",
                        lambda *args: ["level 2: not a uniqueness set"])
    code, _, err = _run(capsys, ["plan", "--input", worked_problem_file])
    assert code == 3
    payload = json.loads(err)["error"]
    assert payload["kind"] == "infeasible"
    assert "level 2" in payload["message"]


def _worked_text(**fields):
    return json.dumps({"n": 5, "edges": WORKED_EDGES, "B": WORKED_B, "C": WORKED_C, **fields})


@pytest.mark.parametrize("text, flags, pointer", [
    (_worked_text(shift={"matrix": "abc"}), [], "/shift/matrix"),
    (_worked_text(shift={"matrix": [[1, 2], [3]]}), [], "/shift/matrix"),
    (_worked_text(), ["--period", "inf"], "--period"),
    (_worked_text(options={"period": "inf"}), [], "/options/period"),
    (_worked_text()[:-1] + ', "options": {"period": Infinity}}', [], "/options/period"),
    (_worked_text(), ["--mode", "sinc", "--window=-1,inf"], "--window"),
    (_worked_text(options={"seed": -1}), [], "/options/seed"),
    (_worked_text(), ["--seed", "-1"], "--seed"),
    (_worked_text(), ["--tolerance", "nan"], "--tolerance"),
    (_worked_text(), ["--tolerance", "0"], "--tolerance"),
    (_worked_text(), ["--tolerance", "-1"], "--tolerance"),
    (_worked_text()[:-1] + ', "options": {"tolerance": NaN}}', [], "/options/tolerance"),
    (_worked_text(edges=[[0, 1, "x"]] + WORKED_EDGES[1:]), [], "/edges/0"),
    (_worked_text(edges=[[0, 1, [1]]] + WORKED_EDGES[1:]), [], "/edges/0"),
    (_worked_text(edges=[[0, 1, float("inf")]] + WORKED_EDGES[1:]), [], "/edges/0"),
    (_worked_text(edges=[[0, 1, float("nan")]] + WORKED_EDGES[1:]), [], "/edges/0"),
    (_worked_text(edges=[[0, 1, True]] + WORKED_EDGES[1:]), [], "/edges/0"),
    (_worked_text(options={"seed": True}), [], "/options/seed"),
    (_worked_text(options={"tolerance": True}), [], "/options/tolerance"),
    (json.dumps({"n": True, "edges": [], "B": [1], "C": [1]}), [], "/n"),
    (_worked_text(options={"v_star": [True, 2, 3]}), [], "/options/v_star"),
    (_worked_text(edges=[[True, 2]] + WORKED_EDGES[1:]), [], "/edges/0"),
    (_worked_text(edges=[5] + WORKED_EDGES[1:]), [], "/edges/0"),
], ids=["shift-string", "shift-ragged", "period-flag-inf", "period-option-inf",
        "period-option-float-inf", "window-flag-inf", "seed-option-negative", "seed-flag-negative", "tolerance-flag-nan",
        "tolerance-flag-zero", "tolerance-flag-negative", "tolerance-option-nan",
        "weight-string", "weight-list", "weight-inf", "weight-nan", "weight-bool", "seed-option-bool",
        "tolerance-option-bool", "n-bool", "vstar-bool", "endpoint-bool",
        "edge-number"])
def test_bad_option_exits_validation(tmp_path, capsys, text, flags, pointer):
    path = tmp_path / "bad_option.json"
    path.write_text(text)
    code, _, err = _run(capsys, ["simulate", "--input", str(path)] + flags)
    assert code == 2
    payload = json.loads(err)["error"]
    assert payload["kind"] == "validation"
    assert payload["pointer"] == pointer


def test_numeric_window_reports_like_string_window(tmp_path, capsys):
    outs = []
    for window in ([-5, 5], ["-5", "5"]):
        path = tmp_path / "window.json"
        path.write_text(_worked_text(options={"mode": "sinc", "window": window}))
        code, out, err = _run(capsys, ["simulate", "--input", str(path)])
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    assert reports.parse_report(outs[0])["window"] == [-5, 5]


def test_window_flag_takes_a_negative_start_in_either_spelling(worked_problem_file, capsys):
    outs = []
    for flags in (["--window", "-3,3"], ["--window=-3,3"]):
        code, out, err = _run(capsys, ["simulate", "--input", worked_problem_file,
                                       "--mode", "sinc", *flags])
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    assert reports.parse_report(outs[0])["window"] == [-3, 3]


@pytest.mark.parametrize("command", ["analyze", "plan", "simulate", "redistribute"])
def test_oversize_n_exits_validation_before_building_the_graph(tmp_path, capsys, command):
    # an n x n shift at this n would need terabytes
    path = tmp_path / "oversize.json"
    path.write_text(json.dumps({"n": 1000000, "edges": [[0, 1]], "B": [1, 1, 1],
                                "C": [0, "inf", "inf"]}))
    start = time.perf_counter()
    flags = ["--vstar", "v1,v2"] if command == "redistribute" else []
    code, _, err = _run(capsys, [command, "--input", str(path), *flags])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    payload = json.loads(err)["error"]
    assert payload["kind"] == "validation"
    assert payload["pointer"] == "/B"


@pytest.mark.parametrize("command", ["analyze", "plan", "simulate", "redistribute"])
def test_deeply_nested_document_exits_validation(tmp_path, capsys, command):
    # 10 KB of brackets nest deeper than the JSON decoder can recurse
    path = tmp_path / "nested.json"
    path.write_text('{"n": 1, "edges": [], "B": [1], "C": [1], "options": {"x": '
                    + "[" * 5000 + "]" * 5000 + "}}")
    flags = ["--vstar", "0"] if command == "redistribute" else []
    code, out, err = _run(capsys, [command, "--input", str(path), *flags])
    assert (code, out) == (2, "")
    payload = json.loads(err)["error"]
    assert payload["kind"] == "validation"
    assert payload["message"].startswith("invalid JSON")


def test_output_directory_artifacts(worked_problem_file, tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code, _, _ = _run(capsys, ["simulate", "--input", worked_problem_file,
                               "--output", str(out_dir)])
    assert code == 0
    names = {p.name for p in out_dir.iterdir()}
    assert {"simulate_report.json", "sample_set.csv",
            "observations.csv", "plotdata.csv"} <= names
    obs_lines = (out_dir / "observations.csv").read_text().splitlines()
    assert obs_lines[0] == "vertex,time,value"
    assert len(obs_lines) == 1 + 32


def test_parse_problem_golden(worked_problem_file):
    problem = ctgs.load_problem(worked_problem_file)
    assert problem.graph.n_vertices == 5
    assert problem.profile.vertex_bw == (5, 5, 1, 4, 4)
    assert problem.profile.freq_bw[:3] == (9, 2, 5)
    assert problem.profile.freq_bw[3] == ctgs.INF


def test_report_roundtrip():
    from fractions import Fraction

    report = {"a": ctgs.INF, "b": [1, {"c": 2.5}], "rate": 32, "half": Fraction(5, 2)}
    text = reports.emit_json(report)
    assert reports.parse_report(text) == report


def test_empty_report_is_valid_json():
    assert json.loads(reports.emit_json({})) == {}
