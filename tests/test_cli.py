import json
from fractions import Fraction

import pytest

import ctgs
from ctgs import cli, reports


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
