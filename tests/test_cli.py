import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bacforge.cli import run
from bacforge.construct import (
    cyclic_shift_code,
    good_vector_2t1,
    parity_code_k2,
    single_request_code,
    trivial_replication,
    uniform_code,
)
from bacforge.model import code_to_json, load_code


def test_construct_then_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "c2.json"
    assert run(["construct", "cyclic", "--n", "4", "--k", "4", "--m", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["verify", str(out), "--k", "4", "--mode", "linear"]) == 0
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
    assert run(["verify", str(bad), "--k", "4"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail"
    assert report["failures"][0]["request"] == [1, 1, 1, 1]


def test_verify_pir_only(tmp_path, capsys):
    out = tmp_path / "g.json"
    run(["construct", "goodvec", "--v", "2,3,2,4,3,1,1,4", "--out", str(out)])
    capsys.readouterr()
    assert run(["verify", str(out), "--k", "7", "--pir-only"]) == 0
    assert json.loads(capsys.readouterr().out)["checked"] == 17


def test_precondition_errors_exit_2(tmp_path, capsys):
    assert run(["construct", "cyclic", "--n", "5", "--k", "4", "--m", "5"]) == 2
    assert run(["construct", "cyclic", "--n", "4", "--k", "4"]) == 2
    assert run(["verify", str(tmp_path / "missing.json"), "--k", "1"]) == 2
    out = tmp_path / "c2.json"
    run(["construct", "cyclic", "--n", "4", "--k", "4", "--m", "5", "--out", str(out)])
    capsys.readouterr()
    assert run(["verify", str(out), "--k", "9"]) == 2
    capsys.readouterr()
    argv = ["bounds", "table", "--n-range", "5..4", "--k-range", "2..3", "--m-rule", "k+1"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: empty range '5..4': its end is below its start\n"


def test_an_empty_bounds_table_exits_2(tmp_path, capsys):
    """`--m-max` below every k leaves no row: refused like an empty range,
    and no CSV is written; a table with some rows left is served."""
    csv_path = tmp_path / "table.csv"
    argv = ["bounds", "table", "--n-range", "1..2", "--k-range", "1..2", "--m-rule", "all"]
    assert run(argv + ["--m-max", "0", "--csv", str(csv_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: empty table: --m-max 0 is below every k in '1..2'\n"
    assert not csv_path.exists()
    assert run(argv + ["--m-max", "1"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 2


def _verify_with_jobs_exits_2(tmp_path, capsys, jobs):
    # sweeps run in one process: there is no --jobs flag, whatever its value
    out = tmp_path / "c2.json"
    run(["construct", "cyclic", "--n", "4", "--k", "4", "--m", "5", "--out", str(out)])
    capsys.readouterr()
    assert run(["verify", str(out), "--k", "4", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: --jobs {jobs}" in captured.err


def test_verify_jobs_flag_exits_2(tmp_path, capsys):
    _verify_with_jobs_exits_2(tmp_path, capsys, "2")


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_jobs_below_one_exits_2(tmp_path, capsys, jobs):
    _verify_with_jobs_exits_2(tmp_path, capsys, jobs)


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
    assert run(["verify", str(path), "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("entry", [1.5, True, "1"], ids=["float", "bool", "string"])
def test_bad_entry_message_names_the_first_one(tmp_path, capsys, entry):
    data = {**VALID_CODE, "buckets": [[[1]], [[0], [entry], [2.5]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(["verify", str(path), "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: an entry of bucket 2 must be an integer, got {entry!r}\n"


DEEP = "[" * 200000 + "]" * 200000


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize(
    "text",
    [DEEP, json.dumps(VALID_CODE)[:-1] + ', "provenance": ' + DEEP + "}"],
    ids=["whole-file", "provenance"],
)
def test_deeply_nested_code_json_exits_2(tmp_path, capsys, command, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    argv = ["--k", "1"] if command == "verify" else ["--data", "1", "--request", "1"]
    assert run([command, str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: code JSON is nested too deeply\n"


@pytest.mark.parametrize(
    "argv, verdict",
    [
        (["--k", "1100"], None),
        (["--k", "2", "--mode", "projection"], {"status": "pass", "checked": 1, "failures": []}),
        (["--data", "1", "--request", "1,1", "--mode", "projection"], None),
    ],
    ids=["verify-deep-search", "verify-projection-solve", "simulate-projection-solve"],
)
def test_recursion_past_the_interpreter_limit_exits_2(tmp_path, capsys, argv, verdict):
    """1,100 requests make the plan search, and 1,100 buckets the projection
    solve of a plan's last part, recurse deeper than the interpreter allows.
    A sweep solves no last part: it serves (1, 1) by the minimal sets its
    leftovers hold, one bucket each, and passes."""
    path = tmp_path / "r.json"
    assert run(["construct", "replication", "--n", "1", "--k", "1100", "--out", str(path)]) == 0
    capsys.readouterr()
    command = "simulate" if "--data" in argv else "verify"
    if verdict is not None:
        assert run([command, str(path), *argv]) == 0
        assert json.loads(capsys.readouterr().out) == verdict
        return
    assert run([command, str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: too many requests or buckets for the recursive plan search\n"


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


def test_goodvec_large_t_within_budget(capsys):
    # the vector is checked in one pass; a check that rescans it once per
    # value is O(t^2) and takes tens of seconds at this t
    start = time.perf_counter()
    assert run(["goodvec", "--t", "20000"]) == 0
    elapsed = time.perf_counter() - start
    data = json.loads(capsys.readouterr().out)
    assert len(data["v"]) == 40001 and len(data["last_occurrence"]) == 20000
    assert elapsed < 5.0, f"goodvec --t 20000 took {elapsed:.2f}s"


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


def test_simulate_certified_planner_names_the_families_that_have_one(tmp_path, capsys):
    # the uniform code is served by the exhaustive planner only
    out = tmp_path / "u.json"
    assert run(["construct", "uniform", "--n", "20", "--k", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    argv = ["simulate", str(out), "--data", ",".join(["1"] * 20), "--request", "3,3,9,20"]
    assert run([*argv, "--planner", "certified"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: no certified planner for family 'uniform'; "
        "the families with one are cyclic, goodvec, affine\n"
    )
    assert run([*argv, "--planner", "exhaustive"]) == 0


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


GV1 = {"family": "goodvec", "t": 1, "v": [1, 1]}
CYCLIC_4 = {"family": "cyclic", "n": 4, "k": 4, "m": 5}


@pytest.mark.parametrize(
    "command, provenance, message",
    [
        ("simulate", {"family": "goodvec", "v": [1, 1]}, "missing keys in goodvec provenance: ['t']"),
        ("simulate", {"family": "cyclic", "n": 4}, "missing keys in cyclic provenance: ['k', 'm']"),
        ("simulate", [1], "provenance must be an object, got [1]"),
        ("simulate", {**GV1, "t": 1.9}, '"t" must be an integer, got 1.9'),
        ("simulate", {**GV1, "v": [1, True]}, 'an entry of "v" must be an integer, got True'),
        ("simulate", {**CYCLIC_4, "note": 1}, "unexpected keys in cyclic provenance: ['note']"),
        ("random-trials", {"family": "affine", "rng": "numpy-pcg64-seedseq-v1", "q": 13},
         "missing keys in affine provenance: ['p1', 'p2', 's', 'seed']"),
        ("random-trials", [1], "random-trials needs a code with affine provenance"),
        # a size that cannot match the code is refused before anything is built
        ("simulate", {**CYCLIC_4, "n": 8, "k": 3}, "code does not match the cyclic construction"
         " for these parameters"),
        ("random-trials", {"family": "affine", "q": 7, "s": 0, "p1": 1.0, "p2": 1.0, "seed": 1,
                           "rng": "numpy-pcg64-seedseq-v1"}, "code does not match its affine provenance"),
    ],
    ids=["goodvec-no-t", "cyclic-no-k", "list", "t-float", "v-bool", "extra-key",
         "affine-no-s", "trials-list", "cyclic-size", "affine-size"],
)
def test_malformed_provenance_exits_2(tmp_path, capsys, command, provenance, message):
    from bacforge import cyclic_shift_code, good_vector, good_vector_code, random_bac

    if command == "random-trials":
        code = random_bac(5, 1, 1.0, 1.0, 42).code
        argv = ["--k", "1", "--trials", "5", "--seed", "7"]
    elif provenance == [1] or provenance["family"] == "goodvec":
        code = good_vector_code(good_vector((1, 1)))
        argv = ["--data", "1,0,1,1,0", "--request", "1,1,1", "--planner", "certified"]
    else:
        code = cyclic_shift_code(4, 4, 5)
        argv = ["--data", "1,0,1,1", "--request", "1,2,3,4", "--planner", "certified"]
    path = tmp_path / "code.json"
    path.write_text(code_to_json(code, provenance))
    assert run([command, str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


def test_construct_affine_rejects_k_zero(capsys):
    assert run(["construct", "affine", "--q", "5", "--s", "2", "--k", "0", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k and s must be positive\n"


@pytest.mark.parametrize(
    "family, builder, flags",
    [
        ("replication", trivial_replication, {"n": 3, "k": 2}),
        ("single", single_request_code, {"n": 5, "m": 2}),
        ("parity", parity_code_k2, {"m": 4}),
        ("cyclic", cyclic_shift_code, {"n": 4, "k": 4, "m": 5}),
        ("uniform", uniform_code, {"n": 20, "k": 4}),
    ],
)
def test_construct_integer_flag_families(capsys, family, builder, flags):
    argv = [arg for flag, value in flags.items() for arg in (f"--{flag}", str(value))]
    assert run(["construct", family, *argv]) == 0
    expected = code_to_json(builder(*flags.values()), {"family": family, **flags})
    assert capsys.readouterr().out == expected + "\n"


_CORE = {"bacforge.field", "bacforge.model", "bacforge.verify"}

_AFFINE_FLAGS = ["--q", "5", "--s", "1", "--k", "2", "--p1", "0.8", "--p2", "0.6", "--seed", "3"]

# `python -m bacforge.cli ARGV` in a fresh interpreter (`import bacforge.cli`
# for no ARGV): prints the exit code, the bacforge submodules loaded and
# whether numpy and dataclasses are
_RUN_CLI = """
import json, runpy, sys
argv = json.loads(sys.argv[1])
sys.argv = ["bacforge.cli", *argv]
code = None
if argv:
    try:
        runpy.run_module("bacforge.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    import bacforge.cli
loaded = sorted(m for m in sys.modules if m.startswith("bacforge."))
print(json.dumps([code, loaded, "numpy" in sys.modules, "dataclasses" in sys.modules]))
"""


def _src_env() -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}


def test_cli_import_leaves_numpy_out(tmp_path):
    """Each command loads only the modules it runs, and none of them numpy
    or dataclasses: the commands that build, bound or compose codes load no
    `verify`.  The commands are those of the benchmark's cli-readme
    workload, in its order, each run in a fresh interpreter in `tmp_path`,
    with smaller sizes."""
    env = _src_env()
    construct = {"bacforge.field", "bacforge.model", "bacforge.construct"}
    bounds = construct | {"bacforge.bounds"}
    affine = {"bacforge.field", "bacforge.model", "bacforge.affine"}
    sim = _CORE | {"bacforge.sim"}
    t4 = ",".join(map(str, good_vector_2t1(4).entries))
    cases = [
        ([], {"bacforge.cli"}),
        (["construct", "cyclic", "--n", "4", "--k", "4", "--m", "5", "--out", "c2.json"], construct),
        (["verify", "c2.json", "--k", "4", "--mode", "linear"], _CORE),
        (["construct", "goodvec", "--v", t4, "--out", "g.json"], construct),
        (["verify", "g.json", "--k", "7", "--pir-only"], _CORE),
        (["bounds", "--n", "5", "--k", "3", "--m", "5"], bounds),
        (["bounds", "table", "--n-range", "4..6", "--k-range", "2..3", "--m-rule", "k+1", "--csv", "t.csv"], bounds),
        (["goodvec", "--t", "4"], construct),
        (["goodvec", "--t", "2", "--enumerate", "--len", "4"], construct),
        (["compose", "parallel", "c2.json", "c2.json", "--out", "big.json"], construct),
        (["compose", "repeat", "g.json", "--count", "2", "--out", "rep.json"], construct),
        (["simulate", "c2.json", "--data", "1,0,1,1", "--request", "1,1,1,1", "--planner", "exhaustive"], sim),
        (["construct", "affine", *_AFFINE_FLAGS, "--out", "a.json"], affine),
        (["random-trials", "a.json", "--k", "1", "--trials", "20", "--seed", "5"], sim | affine),
        (["construct", "uniform", "--n", "6", "--k", "2", "--out", "u.json"], construct),
        (["verify", "u.json", "--k", "2"], _CORE),
        (["simulate", "a.json", "--data", ",".join("1" * 25), "--request", "1,2", "--planner", "certified"],
         sim | affine),
        (["simulate", "g.json", "--data", ",".join("1" * 18), "--request", "1,2", "--planner", "certified"],
         sim | construct),
    ]
    for argv, modules in cases:
        out = subprocess.run(
            [sys.executable, "-c", _RUN_CLI, json.dumps(argv)],
            env=env,
            cwd=tmp_path,
            capture_output=True,
            text=True,
            check=True,
        )
        code, loaded, numpy_loaded, dataclasses_loaded = json.loads(out.stdout.splitlines()[-1])
        assert code in (None, 0), (argv, out.stderr)
        assert (set(loaded), numpy_loaded, dataclasses_loaded) == (modules, False, False), argv


# `python -m bacforge.cli ARGV` where importing numpy raises ImportError
_RUN_CLI_WITHOUT_NUMPY = """
import runpy, sys
sys.modules["numpy"] = None
sys.argv = ["bacforge.cli", *sys.argv[1:]]
runpy.run_module("bacforge.cli", run_name="__main__", alter_sys=True)
"""


def test_affine_commands_run_without_numpy(tmp_path):
    """The affine commands print and write the same bytes where numpy
    cannot be imported."""
    env = _src_env()
    runs = {}
    for label, prefix in (("plain", ["-m", "bacforge.cli"]), ("no-numpy", ["-c", _RUN_CLI_WITHOUT_NUMPY])):
        out = tmp_path / f"{label}.json"
        results = []
        for argv in (
            ["construct", "affine", *_AFFINE_FLAGS, "--out", str(out)],
            ["random-trials", str(out), "--k", "2", "--trials", "50", "--seed", "5"],
        ):
            proc = subprocess.run(
                [sys.executable, *prefix, *argv], env=env, cwd=tmp_path, capture_output=True, text=True
            )
            assert proc.returncode in (0, 1), proc.stderr
            results.append((proc.returncode, proc.stdout))
        runs[label] = (results, out.read_bytes())
    assert runs["plain"] == runs["no-numpy"]
    results, _ = runs["plain"]
    assert json.loads(results[1][1])["trials"] == 50


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "affine", "--q", "5", "--s", "1", "--p1", "1.0", "--p2", "1.0"],
        ["random-trials", "AFFINE", "--k", "1", "--trials", "5"],
    ],
    ids=["construct", "random-trials"],
)
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    from bacforge import random_bac

    a = tmp_path / "a.json"
    apc = random_bac(5, 1, 1.0, 1.0, 3)
    a.write_text(code_to_json(apc.code, apc.provenance()))
    argv = [str(a) if arg == "AFFINE" else arg for arg in argv]
    assert run([*argv, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be a non-negative integer, got -1\n"


def _verify_text(text: str, k: int, mode: str):
    """Run `verify` on a code file with the given text: (exit code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "code.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run(["verify", str(path), "--k", str(k), "--mode", mode])
    return rc, err.getvalue()


def _assert_clean_exit(rc: int, err: str) -> None:
    assert rc in (0, 1, 2)
    if rc == 2:
        assert err.startswith("error: ")
    assert "Traceback" not in err


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=16,
)
fuzz_settings = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@given(json_values, st.integers(1, 2), st.sampled_from(["linear", "projection"]))
@fuzz_settings
def test_verify_survives_arbitrary_json(value, k, mode):
    _assert_clean_exit(*_verify_text(json.dumps(value), k, mode))


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for idx, child in enumerate(value):
            yield from _paths(child, prefix + (idx,))


SMALL_CODE = {
    "format": "bacforge-code-v1",
    "p": 3,
    "n": 2,
    "buckets": [[[1, 0], [0, 1]], [[1, 1]], [[1, 2]]],
    "provenance": {"family": "hand"},
}


@given(st.data(), st.integers(1, 3), st.sampled_from(["linear", "projection"]))
@fuzz_settings
def test_verify_survives_mutated_code_json(data, k, mode):
    doc = copy.deepcopy(SMALL_CODE)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        action = data.draw(st.sampled_from(["replace", "delete", "append"]))
        if not path:
            doc = data.draw(json_values)
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if action == "replace":
            parent[path[-1]] = data.draw(json_values)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent[path[-1]], list):
            parent[path[-1]].append(data.draw(json_values))
    _assert_clean_exit(*_verify_text(json.dumps(doc), k, mode))


def test_verify_huge_modulus_exits_promptly():
    code = {**SMALL_CODE, "p": 2**61 - 1}  # prime: decided without trial division
    assert _verify_text(json.dumps(code), 1, "linear")[0] in (0, 1)
    code["p"] = 2**89 - 1
    rc, err = _verify_text(json.dumps(code), 1, "linear")
    assert rc == 2 and "too large" in err
