import json

import pytest

from bacforge.cli import run
from bacforge.model import code_to_json, load_code


def test_construct_then_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "c2.json"
    assert run(["construct", "cyclic", "--n", "4", "--k", "4", "--m", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["verify", str(out), "--k", "4", "--mode", "linear", "--jobs", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"status": "pass", "checked": 35, "failures": []}


def test_construct_output_is_byte_stable(tmp_path):
    out = tmp_path / "code.json"
    assert run(["construct", "goodvec", "--t", "2", "--out", str(out)]) == 0
    text = out.read_text().rstrip("\n")
    code, prov = load_code(str(out))
    assert code_to_json(code, prov) == text
    assert prov == {"family": "goodvec", "t": 2, "v": [1, 1, 2, 0, 2]}


def test_verify_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "c2.json"
    run(["construct", "cyclic", "--n", "4", "--k", "4", "--m", "5", "--out", str(out)])
    data = json.loads(out.read_text())
    data["buckets"] = data["buckets"][:4]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["verify", str(bad), "--k", "4", "--jobs", "1"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail"
    assert report["failures"][0]["request"] == [1, 1, 1, 1]


def test_verify_pir_only(tmp_path, capsys):
    out = tmp_path / "g.json"
    run(["construct", "goodvec", "--v", "2,3,2,4,3,1,1,4", "--out", str(out)])
    capsys.readouterr()
    assert run(["verify", str(out), "--k", "7", "--pir-only", "--jobs", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["checked"] == 17


def test_precondition_errors_exit_2(tmp_path, capsys):
    assert run(["construct", "cyclic", "--n", "5", "--k", "4", "--m", "5"]) == 2
    assert run(["construct", "cyclic", "--n", "4", "--k", "4"]) == 2
    assert run(["verify", str(tmp_path / "missing.json"), "--k", "1"]) == 2
    out = tmp_path / "c2.json"
    run(["construct", "cyclic", "--n", "4", "--k", "4", "--m", "5", "--out", str(out)])
    capsys.readouterr()
    assert run(["verify", str(out), "--k", "9", "--jobs", "1"]) == 2


VALID_CODE = {"format": "bacforge-code-v1", "p": 2, "n": 1, "buckets": [[[1]]]}


@pytest.mark.parametrize(
    "change",
    [
        {"n": None},  # missing key
        {"buckets": 5},
        {"buckets": [[1]]},  # a column that is not a list
        {"p": 2.9},
        {"n": 1.7},
        {"buckets": [[[True]]]},
    ],
    ids=["missing-n", "buckets-int", "column-int", "p-float", "n-float", "bool-entry"],
)
def test_malformed_code_json_exits_2(tmp_path, capsys, change):
    data = {**VALID_CODE, **change}
    data = {key: value for key, value in data.items() if value is not None}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["verify", str(path), "--k", "1", "--jobs", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_unknown_flags_rejected(capsys):
    assert run(["construct", "cyclic", "--n", "4", "--k", "4", "--m", "5", "--frobnicate"]) == 2
    assert run(["nonsense"]) == 2


def test_bounds_single_and_table(tmp_path, capsys):
    assert run(["bounds", "--n", "5", "--k", "3", "--m", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lb_ceil"] == 10 and report["ub"] == 10 and report["optimal"] is True

    csv_path = tmp_path / "table.csv"
    assert (
        run(
            [
                "bounds",
                "table",
                "--n-range",
                "4..6",
                "--k-range",
                "2..3",
                "--m-rule",
                "k+1",
                "--csv",
                str(csv_path),
            ]
        )
        == 0
    )
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 6
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("n,k,m,lb_num")
    assert len(lines) == 7


def test_goodvec_commands(capsys):
    assert run(["goodvec", "--t", "2", "--enumerate", "--len", "4"]) == 0
    assert json.loads(capsys.readouterr().out) == []
    assert run(["goodvec", "--t", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["v"] == [3, 1, 1, 3, 4, 2, 0, 2, 4]
    assert run(["goodvec", "--t", "2", "--enumerate", "--len", "7"]) == 2


def test_compose_commands(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["construct", "parity", "--m", "3", "--out", str(a)])
    run(["construct", "parity", "--m", "3", "--out", str(b)])
    out = tmp_path / "c.json"
    assert run(["compose", "concat", str(a), str(b), "--out", str(out)]) == 0
    code, prov = load_code(str(out))
    assert code.n == 4 and code.m == 6
    assert prov["family"] == "compose-concat"

    rep = tmp_path / "r.json"
    assert run(["compose", "repeat", str(a), "--count", "3", "--out", str(rep)]) == 0
    code, _ = load_code(str(rep))
    assert code.n == 6 and code.m == 3

    assert run(["compose", "repeat", str(a), str(b), "--count", "2"]) == 2
    assert run(["compose", "parallel", str(a)]) == 2


def test_simulate_command(tmp_path, capsys):
    out = tmp_path / "c2.json"
    run(["construct", "cyclic", "--n", "4", "--k", "4", "--m", "5", "--out", str(out)])
    capsys.readouterr()
    assert (
        run(
            [
                "simulate",
                str(out),
                "--data",
                "1,0,1,1",
                "--request",
                "1,1,1,1",
                "--mode",
                "linear",
                "--planner",
                "exhaustive",
            ]
        )
        == 0
    )
    rep = json.loads(capsys.readouterr().out)
    assert rep["recovered"] == [1, 1, 1, 1]
    assert rep["node_responses"] == [1, 1, 1, 0, 1]


def test_simulate_certified_planner(tmp_path, capsys):
    out = tmp_path / "c2.json"
    run(["construct", "cyclic", "--n", "4", "--k", "4", "--m", "5", "--out", str(out)])
    capsys.readouterr()
    assert (
        run(
            [
                "simulate",
                str(out),
                "--data",
                "1,1,0,0",
                "--request",
                "1,2,3,4",
                "--planner",
                "certified",
            ]
        )
        == 0
    )
    rep = json.loads(capsys.readouterr().out)
    assert rep["recovered"] == [1, 1, 0, 0]


def test_random_trials_command(tmp_path, capsys):
    out = tmp_path / "affine.json"
    assert (
        run(
            [
                "construct",
                "affine",
                "--q",
                "5",
                "--s",
                "1",
                "--p1",
                "1.0",
                "--p2",
                "1.0",
                "--seed",
                "42",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    capsys.readouterr()
    code = run(["random-trials", str(out), "--k", "1", "--trials", "25", "--seed", "7"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["successes"] == 25

    # non-affine input is a precondition error
    c2 = tmp_path / "c2.json"
    run(["construct", "cyclic", "--n", "4", "--k", "4", "--m", "5", "--out", str(c2)])
    assert run(["random-trials", str(c2), "--k", "1", "--trials", "5", "--seed", "7"]) == 2


def test_random_trials_failures_exit_1(tmp_path, capsys):
    # at p2 = 1 every sampled line covers all information buckets, so
    # duplicate-bucket requests have no greedy plan and the run reports fail
    out = tmp_path / "dense.json"
    run(
        [
            "construct",
            "affine",
            "--q",
            "13",
            "--s",
            "2",
            "--p1",
            "1.0",
            "--p2",
            "1.0",
            "--seed",
            "424242",
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    assert run(["random-trials", str(out), "--k", "2", "--trials", "50", "--seed", "3"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["successes"] == 43 and len(rep["failures"]) == 7


def test_construct_affine_prints_seed(tmp_path, capsys):
    out = tmp_path / "affine.json"
    assert (
        run(
            ["construct", "affine", "--q", "3", "--s", "1", "--p1", "0.5", "--p2", "0.5", "--out", str(out)]
        )
        == 0
    )
    err = capsys.readouterr().err
    assert "generated seed" in err
    _, prov = load_code(str(out))
    assert prov["seed"] >= 0
