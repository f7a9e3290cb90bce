"""The three workloads: their inputs, made from a seed, the operation each
one times, and the check applied to every result.

Every workload is a closed loop from one client: the next operation starts
only after the previous one has returned.  A run does a fixed amount of work
that depends on ``--seconds`` and never on the speed of the host, so sample
counts, percentiles, trace counters and memory repeat exactly between runs;
the unit sizes below are set so that a run lasts about ``--seconds`` on a
2-core x86-64 host with Python 3.11.

Module-level imports stay free of ``bacforge``: the worker times that import
itself before loading this module.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Callable, Optional

DEFAULT_SEED = 11

# wall seconds of one unit of work (checks included) on the reference host;
# a run does max(1, round(seconds / unit)) units
UNIT_SECONDS = {"verify-sweep": 12.5, "plan-serve": 0.05, "cli-readme": 8.0}


def units_for(workload: str, seconds: float, smoke: bool) -> int:
    if smoke:
        return 1 if workload != "plan-serve" else 4
    return max(1, round(seconds / UNIT_SECONDS[workload]))


def _rng(seed: int, segment: int) -> random.Random:
    """The input stream of one segment of a run; segments differ."""
    return random.Random(f"{seed}:{segment}")


def _shuffled(items: list, rng: random.Random) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# verify-sweep: one op is one request multiset decided inside a verify call


def projection_code_c1():
    """The (4,14,4,5) projection-only batch code: the (4,13,4,5) cyclic code
    with a parity bucket that stores x1+x4 and x2+x3."""
    import bacforge as bf

    def col(*symbols):
        return tuple(1 if i + 1 in symbols else 0 for i in range(4))

    return bf.CodeSpec(
        bf.GF2,
        4,
        (
            (col(1), col(2), col(3)),
            (col(1), col(2), col(4)),
            (col(1), col(3), col(4)),
            (col(2), col(3), col(4)),
            (col(1, 4), col(2, 3)),
        ),
    )


T4_VECTOR = (2, 3, 2, 4, 3, 1, 1, 4)


@dataclass(frozen=True)
class Sweep:
    """One exhaustive verify call and the outcome pinned for it.

    ``failures`` is the pinned witness count, or None where it depends on the
    seed.  ``random_q`` is the plane order of a ``random_bac(q, 2, 1.0, 1.0,
    seed)`` code, whose failures are cross-checked against the greedy planner.
    """

    name: str
    build: Callable  # seed -> CodeSpec
    kind: str  # "bac" or "pir"
    k: int
    mode: str
    status: str
    checked: int
    failures: Optional[int]
    random_q: Optional[int] = None


def _sweeps(seed: int, smoke: bool) -> list:
    import bacforge as bf
    from bacforge.field import PrimeField

    f3 = PrimeField(3)
    pinned = seed == DEFAULT_SEED
    if smoke:
        return [
            Sweep("cyclic-4-13", lambda s: bf.cyclic_shift_code(4, 4, 5), "bac", 4, "linear", "pass", 35, 0),
            Sweep("c1-projection", lambda s: projection_code_c1(), "bac", 4, "projection", "pass", 35, 0),
            Sweep("goodvec-5-10-pir", lambda s: bf.good_vector_code(bf.good_vector((1, 1))), "pir", 3, "linear", "pass", 5, 0),
            Sweep("random-5", lambda s: bf.random_bac(5, 2, 1.0, 1.0, s).code, "bac", 2, "linear", "fail", 325,
                  110 if pinned else None, 5),
        ]
    return [
        Sweep("uniform-20-65", lambda s: bf.uniform_code(20, 4), "bac", 4, "linear", "pass", 8855, 0),
        Sweep("goodvec-17-85", lambda s: bf.good_vector_code(bf.good_vector(T4_VECTOR)), "bac", 4, "linear", "pass", 4845, 0),
        Sweep("goodvec-17-85-pir", lambda s: bf.good_vector_code(bf.good_vector(T4_VECTOR)), "pir", 7, "linear", "pass", 17, 0),
        Sweep("cyclic-12-56-f3", lambda s: bf.cyclic_shift_code(12, 6, 8, f3), "bac", 6, "linear", "pass", 12376, 0),
        Sweep("c1x5-projection", lambda s: bf.compose_repeat(projection_code_c1(), 5), "bac", 4, "projection", "pass", 8855, 0),
        Sweep("uniform-20-65-projection", lambda s: bf.uniform_code(20, 4), "bac", 4, "projection", "fail", 8855, 50),
        Sweep("random-7", lambda s: bf.random_bac(7, 2, 1.0, 1.0, s).code, "bac", 2, "linear", "fail", 1225,
              315 if pinned else None, 7),
    ]


def _check_sweep(sweep: Sweep, report, seed: int) -> list:
    """Problems with one verify report; empty when it is correct."""
    problems = []
    got = (report.status, report.checked)
    if got != (sweep.status, sweep.checked):
        problems.append(f"{sweep.name}: status/checked {got} != {(sweep.status, sweep.checked)}")
    if sweep.failures is not None and len(report.failures) != sweep.failures:
        problems.append(f"{sweep.name}: {len(report.failures)} failures, pinned {sweep.failures}")
    if sweep.random_q is not None:
        problems += _cross_check_random(sweep, report, seed)
    return problems


def _cross_check_random(sweep: Sweep, report, seed: int) -> list:
    """Soundness: no request the greedy planner serves may be a failure."""
    import bacforge as bf

    apc = bf.random_bac(sweep.random_q, 2, 1.0, 1.0, seed)
    failed = {tuple(req) for req, _ in report.failures}
    problems = []
    for req in combinations_with_replacement(range(1, apc.code.n + 1), sweep.k):
        if req in failed and bf.greedy_plan(apc, req) is not None:
            problems.append(f"{sweep.name}: greedy serves {req}, verify called it a failure")
    return problems


class VerifySweep:
    name = "verify-sweep"

    def __init__(self, seed: int, segment: int = 0, smoke: bool = False):
        self.seed = seed
        # a fixed order: sweeps left behind state (per-code caches that are
        # never freed), so the order changes every later sweep's time
        self.sweeps = _sweeps(seed, smoke)

    def setup(self) -> None:
        """Construct every code once, as a run's set-up does."""
        for sweep in self.sweeps:
            sweep.build(self.seed)

    def run(self, units: int, pause, resume) -> dict:
        import bacforge as bf

        starts, latencies, weights, ops, failed, problems = [], [], [], 0, 0, []
        for _ in range(units):
            for sweep in self.sweeps:
                # a fresh CodeSpec per call, so per-code caches start cold
                code = sweep.build(self.seed)
                fn = bf.verify_bac if sweep.kind == "bac" else bf.verify_pir
                resume()
                t0 = time.perf_counter()
                try:
                    report = fn(code, sweep.k, sweep.mode)
                except Exception as exc:  # a crash is a failed op, not a benchmark crash
                    report = None
                    crash = f"{sweep.name}: {type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                pause()
                # the call's multisets are ops of its mean time per multiset
                starts.append(t0)
                latencies.append(dt / sweep.checked)
                weights.append(sweep.checked)
                if report is None:
                    ops += sweep.checked
                    failed += sweep.checked
                    problems.append(crash)
                    continue
                ops += report.checked
                bad = _check_sweep(sweep, report, self.seed)
                if bad:
                    failed += report.checked
                    problems += bad
        return {"ops": ops, "failed": failed, "starts": starts, "latencies_s": latencies, "weights": weights,
                "problems": problems, "names": [sweep.name for _ in range(units) for sweep in self.sweeps]}


# ---------------------------------------------------------------------------
# plan-serve: one op is one batch served end to end by sim.serve_batch


@dataclass
class Family:
    name: str
    code: object
    provenance: Optional[dict]
    k: int
    planner: str
    weights: list  # Zipf-like symbol weights, in symbol order
    check_plan: Callable  # request -> the plan serve_batch used (planners are deterministic)


# Per-batch cost on the reference host: cyclic 0.36 ms, goodvec 0.6 ms,
# uniform 0.9 ms, affine 17 ms (the code is rebuilt from provenance each
# time).  A cycle of 50 ops splits its time roughly as goodvec 39 %, affine
# 37 %, uniform 17 %, cyclic 8 %.  Cyclic ops are the fastest and fewer than
# half, so the median op falls inside the good-vector family, not on a
# boundary between two families.
CYCLE = (("goodvec", 30), ("cyclic", 10), ("affine", 1), ("uniform", 9))
ZIPF_EXPONENT = 1.5


def _zipf_weights(n: int, rng: random.Random) -> list:
    ranks = _shuffled(range(1, n + 1), rng)
    return [1.0 / r**ZIPF_EXPONENT for r in ranks]


class PlanServe:
    name = "plan-serve"

    def __init__(self, seed: int, segment: int = 0, smoke: bool = False):
        self.seed = seed
        self.rng = _rng(seed, segment)
        self.families: dict = {}

    def setup(self) -> None:
        import bacforge as bf
        from bacforge.field import PrimeField

        v = bf.good_vector(T4_VECTOR)
        gv = bf.good_vector_code(v)
        params = bf.cyclic_params(12, 6, 8)
        cyc = bf.cyclic_shift_code(12, 6, 8, PrimeField(3))
        apc = bf.random_bac(13, 2, 1.0, 1.0, self.seed)
        uni = bf.uniform_code(20, 4)
        rng = self.rng
        specs = {
            "goodvec": (gv, {"family": "goodvec", "t": v.t, "v": list(v.entries)}, 7, "certified",
                        lambda req: bf.goodvec_certified_plan(v, gv, req)),
            "cyclic": (cyc, {"family": "cyclic", "n": 12, "k": 6, "m": 8}, 6, "certified",
                       lambda req: bf.cyclic_certified_plan(params, cyc, req)),
            "affine": (apc.code, apc.provenance(), 2, "certified", lambda req: bf.greedy_plan(apc, req)),
            "uniform": (uni, None, 4, "exhaustive", lambda req: bf.find_plan(uni, req)),
        }
        for name, (code, prov, k, planner, check_plan) in specs.items():
            self.families[name] = Family(name, code, prov, k, planner, _zipf_weights(code.n, rng), check_plan)

    def _request(self, fam: Family) -> tuple:
        """Half uniform multisets, half skewed toward a few hot symbols."""
        n = fam.code.n
        if self.rng.random() < 0.5:
            return tuple(self.rng.randrange(1, n + 1) for _ in range(fam.k))
        return tuple(self.rng.choices(range(1, n + 1), weights=fam.weights, k=fam.k))

    def run(self, units: int, pause, resume) -> dict:
        from bacforge.sim import serve_batch
        from bacforge import certify_plan

        cycle = [name for name, count in CYCLE for _ in range(count)]
        starts, latencies, failed, problems = [], [], 0, []
        no_plan = 0
        for _ in range(units):
            for name in _shuffled(cycle, self.rng):
                fam = self.families[name]
                req = self._request(fam)
                p = fam.code.field.p
                data = [self.rng.randrange(p) for _ in range(fam.code.n)]
                resume()
                t0 = time.perf_counter()
                error = report = None
                try:
                    report = serve_batch(fam.code, data, req, planner=fam.planner, provenance=fam.provenance)
                except Exception as exc:  # judged by the check below
                    error = exc
                dt = time.perf_counter() - t0
                pause()
                starts.append(t0)
                latencies.append(dt)
                problem = self._check(fam, req, data, report, error, certify_plan)
                if problem == "no-plan":
                    no_plan += 1
                elif problem:
                    failed += 1
                    if len(problems) < 20:
                        problems.append(f"{name} {req}: {problem}")
        return {"ops": len(latencies), "failed": failed, "starts": starts, "latencies_s": latencies,
                "problems": problems, "affine_no_plan": no_plan}

    @staticmethod
    def _check(fam: Family, req, data, report, error, certify_plan) -> Optional[str]:
        plan = fam.check_plan(tuple(sorted(req)))
        if error is not None:
            # the greedy affine planner may find no plan: the construction's
            # expected outcome, confirmed here by the planner itself
            if fam.name == "affine" and isinstance(error, ValueError) and plan is None:
                return "no-plan"
            return f"{type(error).__name__}: {error}"
        if plan is None or not certify_plan(fam.code, req, plan):
            return "plan does not certify"
        if report.recovered != tuple(data[i - 1] for i in report.request):
            return "recovered values differ from the data"
        if report.response_counts != (1,) * fam.code.m:
            return "a node answered other than once"
        return None


# ---------------------------------------------------------------------------
# cli-readme: one op is one CLI command run as a fresh process


@dataclass(frozen=True)
class Command:
    argv: tuple
    check: Callable  # (returncode, stdout, workdir) -> problem or None


def _json_check(expect_rc: int, test: Callable):
    def check(rc, out, workdir):
        if rc != expect_rc:
            return f"exit code {rc}, expected {expect_rc}"
        try:
            data = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        return None if test(data, workdir) else f"unexpected output {out[:200]!r}"

    return check


def _file_check(name: str, test: Callable):
    def check(rc, out, workdir):
        if rc != 0:
            return f"exit code {rc}, expected 0"
        path = Path(workdir) / name
        if not path.exists():
            return f"{name} was not written"
        return None if test(json.loads(path.read_text())) else f"{name} has unexpected content"

    return check


def _random_trials_check(make_code: Callable):
    def check(rc, out, workdir):
        import bacforge as bf

        try:
            data = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        fails = data["failures"]
        want_rc = 1 if fails else 0
        if rc != want_rc:
            return f"exit code {rc}, expected {want_rc}"
        if data["successes"] + len(fails) != data["trials"]:
            return "successes and failures do not add up to trials"
        apc = make_code()
        if any(bf.greedy_plan(apc, f["request"]) is not None for f in fails):
            return "a reported greedy failure is served by greedy_plan"
        return None

    return check


class CliReadme:
    name = "cli-readme"

    def __init__(self, seed: int, segment: int = 0, smoke: bool = False):
        self.seed = seed
        self.rng = _rng(seed, segment)
        self.smoke = smoke
        self.workdir: Optional[Path] = None
        self.commands: list = []

    def setup(self) -> None:
        """Construct and serialise the input code of the large verify."""
        import bacforge as bf

        self.u_json = bf.code_to_json(bf.uniform_code(20, 4), {"family": "uniform", "n": 20, "k": 4})

    def prepare(self, workdir: Path) -> None:
        """Write the input file and make the command list."""
        self.workdir = workdir
        (workdir / "u.json").write_text(self.u_json + "\n")
        self.commands = self._commands()

    def _commands(self) -> list:
        import bacforge as bf

        rng = self.rng
        data = [rng.randrange(2) for _ in range(4)]
        request = sorted(rng.randrange(1, 5) for _ in range(4))
        affine_seed = rng.randrange(2**32)
        trials_seed = rng.randrange(2**32)
        t4 = bf.good_vector_2t1(4)
        table = [r.to_json_dict() for r in bf.bound_table(range(4, 21), range(2, 9), "k+1")]

        def affine_code():
            return bf.random_bac(13, 2, 1.0, 1.0, affine_seed)

        csl = lambda xs: ",".join(str(x) for x in xs)  # noqa: E731
        cmds = [
            Command(("construct", "cyclic", "--n", "4", "--k", "4", "--m", "5", "--out", "c2.json"),
                    _file_check("c2.json", lambda d: d["n"] == 4 and len(d["buckets"]) == 5)),
            Command(("verify", "c2.json", "--k", "4", "--mode", "linear"),
                    _json_check(0, lambda d, w: (d["status"], d["checked"]) == ("pass", 35))),
            Command(("construct", "goodvec", "--v", csl(T4_VECTOR), "--out", "g.json"),
                    _file_check("g.json", lambda d: d["n"] == 17 and len(d["buckets"]) == 17)),
            Command(("verify", "g.json", "--k", "7", "--pir-only"),
                    _json_check(0, lambda d, w: (d["status"], d["checked"]) == ("pass", 17))),
            Command(("bounds", "--n", "5", "--k", "3", "--m", "5"),
                    _json_check(0, lambda d, w: (d["lb_ceil"], d["ub"], d["optimal"]) == (10, 10, True))),
            Command(("bounds", "table", "--n-range", "4..20", "--k-range", "2..8", "--m-rule", "k+1",
                     "--csv", "table.csv"),
                    _json_check(0, lambda d, w: d == table
                                and len((Path(w) / "table.csv").read_text().splitlines()) == len(table) + 1)),
            Command(("goodvec", "--t", "4"), _json_check(0, lambda d, w: d["v"] == list(t4.entries))),
            Command(("goodvec", "--t", "2", "--enumerate", "--len", "4"), _json_check(0, lambda d, w: d == [])),
            Command(("compose", "parallel", "c2.json", "c2.json", "--out", "big.json"),
                    _file_check("big.json", lambda d: d["n"] == 4 and len(d["buckets"]) == 10)),
            Command(("compose", "repeat", "g.json", "--count", "2", "--out", "rep.json"),
                    _file_check("rep.json", lambda d: d["n"] == 34 and len(d["buckets"]) == 17)),
            Command(("simulate", "c2.json", "--data", csl(data), "--request", csl(request),
                     "--planner", "exhaustive"),
                    _json_check(0, lambda d, w: d["recovered"] == [data[i - 1] for i in request])),
            Command(("construct", "affine", "--q", "13", "--s", "2", "--k", "2", "--p1", "1.0", "--p2", "1.0",
                     "--seed", str(affine_seed), "--out", "a.json"),
                    _file_check("a.json", lambda d: d["n"] == 169 and d["provenance"]["seed"] == affine_seed)),
            Command(("random-trials", "a.json", "--k", "2", "--trials", "1000", "--seed", str(trials_seed)),
                    _random_trials_check(affine_code)),
        ]
        if not self.smoke:
            # the one large command: default --jobs, so the pool pays off here
            cmds.append(Command(("verify", "u.json", "--k", "4"),
                                _json_check(0, lambda d, w: (d["status"], d["checked"]) == ("pass", 8855))))
        return cmds

    def run(self, units: int, launcher: Callable) -> dict:
        """``launcher(argv, workdir)`` runs one command in a fresh process and
        returns (returncode, stdout, wall seconds, seconds at the reference
        speed)."""
        raw, latencies, failed, problems = [], [], 0, []
        for _ in range(units):
            for cmd in self.commands:
                rc, out, dt, scaled = launcher(cmd.argv, self.workdir)
                raw.append(dt)
                latencies.append(scaled)
                try:
                    problem = cmd.check(rc, out, self.workdir)
                except (KeyError, TypeError, ValueError, OSError) as exc:
                    problem = f"{type(exc).__name__}: {exc}"
                if problem:
                    failed += 1
                    problems.append(f"{' '.join(cmd.argv)}: {problem}")
        return {"ops": len(latencies), "failed": failed, "raw_latencies_s": raw, "latencies_s": latencies,
                "problems": problems}


WORKLOADS = {cls.name: cls for cls in (VerifySweep, PlanServe, CliReadme)}
