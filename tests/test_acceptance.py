"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line and enforcing its stated time budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from bacforge import (
    CodeSpec,
    GF2,
    ResponseModel,
    bound_report,
    bound_table,
    cap_and_reduce,
    certify_plan,
    check_subset_spanning,
    codes_equal,
    compare_models,
    compose_parallel,
    compose_repeat,
    cyclic_shift_code,
    enumerate_good_vectors,
    find_plan,
    good_vector,
    good_vector_2t1,
    good_vector_code,
    goodvec_certified_plan,
    is_good_vector,
    lb_midrange,
    parity_code_k2,
    serve_batch,
    single_request_code,
    total_length,
    trivial_replication,
    uniform_code,
    verify_bac,
    verify_pir,
)
from bacforge.affine import affine_plane, random_bac, trial_verify
from bacforge.bounds import best_lower_bound
from bacforge.verify import all_batch_requests
from conftest import col

LIN = ResponseModel.LINEAR
PROJ = ResponseModel.PROJECTION


@contextmanager
def criterion(num, name, budget_s):
    start = time.monotonic()
    ok = False
    try:
        yield
        elapsed = time.monotonic() - start
        assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"
        ok = True
    finally:
        elapsed = time.monotonic() - start
        print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")


def _delete_symbol(code, bucket0, col0):
    buckets = list(code.buckets)
    bucket = list(buckets[bucket0])
    del bucket[col0]
    buckets[bucket0] = tuple(bucket)
    return CodeSpec(code.field, code.n, tuple(buckets))


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "bacforge.cli", *args],
        capture_output=True,
        text=True,
    )


def test_criterion_01_example_reproduction(c2_code, c2_table, c1_code, tmp_path):
    with criterion(1, "reference codes reproduction", 30):
        from bacforge.model import load_code

        out = tmp_path / "c2.json"
        assert _cli("construct", "cyclic", "--n", "4", "--k", "4", "--m", "5", "--out", str(out)).returncode == 0
        built, _ = load_code(str(out))
        assert codes_equal(built, c2_table)
        assert total_length(built) == 13

        proc = _cli("verify", str(out), "--k", "4", "--mode", "linear")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["checked"] == 35
        report = verify_bac(c2_code, 4, LIN)
        assert report.passed and report.checked == 35
        assert report.elapsed_s < 1.0

        assert total_length(c1_code) == 14
        assert verify_bac(c1_code, 4, PROJ).passed
        # dropping any single stored symbol breaks the projection property
        for bucket0 in range(c1_code.m):
            for col0 in range(len(c1_code.buckets[bucket0])):
                damaged = _delete_symbol(c1_code, bucket0, col0)
                assert not verify_bac(damaged, 4, PROJ).passed


def test_criterion_02_optimality_5_3_5(gv1_code):
    with criterion(2, "optimality at (5,3,5)", 10):
        start = time.monotonic()
        report = verify_bac(gv1_code, 3, LIN)
        assert report.passed and report.checked == 35
        bounds = bound_report(5, 3, 5)
        assert bounds.lower == Fraction(155, 17)
        assert bounds.lower_ceil == 10
        assert bounds.upper == 10
        assert bounds.optimal
        assert time.monotonic() - start < 1.0
        proc = _cli("bounds", "--n", "5", "--k", "3", "--m", "5")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert (data["lb_ceil"], data["ub"], data["optimal"]) == (10, 10, True)


def test_criterion_03_m_equals_k_plus_1_tightness():
    with criterion(3, "m=k+1 tightness", 30):
        cases = [
            (4, 4, cyclic_shift_code(4, 4, 5)),
            (6, 3, cyclic_shift_code(6, 3, 4)),
            (6, 2, cyclic_shift_code(6, 2, 3)),
            (20, 4, uniform_code(20, 4)),
        ]
        for n, k, code in cases:
            expected = math.ceil((k - 1 + Fraction(1, k)) * n)
            assert total_length(code) == expected
            assert lb_midrange(n, k, k + 1) == (k - 1 + Fraction(1, k)) * n
            assert verify_bac(code, k, LIN).passed


def _reference_uniform_table():
    """The published 5x5 uniform table: row j covers symbols 4j-3..4j; cells
    are identity triples or the block sum."""
    n = 20
    rows = [
        # (bucket1, ..., bucket5); "S" marks the block-sum cell
        ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), "S"),
        ("S", (5, 6, 7), (5, 6, 8), (5, 7, 8), (6, 7, 8)),
        ((10, 11, 12), "S", (9, 10, 11), (9, 10, 12), (9, 11, 12)),
        ((13, 15, 16), (14, 15, 16), "S", (13, 14, 15), (13, 14, 16)),
        ((17, 18, 20), (17, 19, 20), (18, 19, 20), "S", (17, 18, 19)),
    ]
    buckets = [[] for _ in range(5)]
    for j, row in enumerate(rows, start=1):
        block = list(range(4 * j - 3, 4 * j + 1))
        for ell, cell in enumerate(row):
            if cell == "S":
                buckets[ell].append(col(*block, n=n))
            else:
                for sym in cell:
                    buckets[ell].append(col(sym, n=n))
    return CodeSpec(GF2, n, tuple(tuple(b) for b in buckets))


def test_criterion_04_uniform_table():
    with criterion(4, "uniform (20,65,4,5) table", 120):
        code = uniform_code(20, 4)
        assert code.buckets == _reference_uniform_table().buckets
        assert code.bucket_sizes == (13,) * 5
        assert total_length(code) == 65

        report = verify_bac(code, 4, LIN)
        assert report.passed and report.checked == 8855

        # every node's local computation touches at most k-1 = 3 symbols
        for req in all_batch_requests(20, 4):
            plan = find_plan(code, req, LIN)
            for resp in plan.responses:
                assert sum(1 for v in resp if v) <= 3


def test_criterion_05_good_vector_suite():
    with criterion(5, "good-vector suite", 10):
        assert enumerate_good_vectors(1, 2) == [(1, 1)]
        assert enumerate_good_vectors(2, 4) == []
        assert enumerate_good_vectors(3, 6) == []
        for t in range(1, 201):
            v = good_vector_2t1(t)
            assert is_good_vector(v.entries, t)
        v4 = good_vector((2, 3, 2, 4, 3, 1, 1, 4))
        assert v4.last_occurrence == {1: 7, 2: 3, 3: 5, 4: 8}


def test_criterion_06_17_85_7_17(t4_vector, t4_code):
    with criterion(6, "(17,85,7,17) sweep", 600):
        report = verify_pir(t4_code, 7, LIN)
        assert report.passed and report.checked == 17

        count = 0
        for req in itertools.combinations_with_replacement(range(1, 18), 7):
            plan = goodvec_certified_plan(t4_vector, t4_code, req)
            assert certify_plan(t4_code, req, plan, LIN)
            count += 1
        assert count == math.comb(23, 7) == 245157

        rng = np.random.Generator(np.random.PCG64(20240817))
        for _ in range(1000):
            req = tuple(sorted(int(x) for x in rng.integers(1, 18, size=7)))
            assert find_plan(t4_code, req, LIN) is not None


def test_criterion_07_compositions(c2_code, gv1_code):
    with criterion(7, "gadget compositions", 60):
        doubled = compose_parallel(c2_code, c2_code)
        assert (doubled.n, total_length(doubled), doubled.m) == (4, 26, 10)
        report = verify_bac(doubled, 8, LIN)
        assert report.passed and report.checked == 165

        repeated = compose_repeat(gv1_code, 2)
        assert (repeated.n, total_length(repeated), repeated.m) == (10, 20, 5)
        report = verify_bac(repeated, 3, LIN)
        assert report.passed and report.checked == 220


def _verified_corpus(c2_code, c1_code, gv1_code, t4_code):
    """Codes verified in criteria 1-7 with the k they were verified at."""
    return [
        (c2_code, 4, 5),
        (c1_code, 4, 5),
        (gv1_code, 3, 5),
        (cyclic_shift_code(6, 3, 4), 3, 4),
        (cyclic_shift_code(6, 2, 3), 2, 3),
        (uniform_code(20, 4), 4, 5),
        (t4_code, 7, 17),
        (compose_parallel(c2_code, c2_code), 8, 10),
        (compose_repeat(gv1_code, 2), 3, 5),
        (parity_code_k2(5), 2, 5),
        (trivial_replication(3, 2), 2, 2),
        (single_request_code(5, 2), 1, 2),
    ]


def test_criterion_08_bounds_consistency(c2_code, c1_code, gv1_code, t4_code):
    with criterion(8, "bounds consistency", 10):
        for k in range(3, 101):
            assert Fraction(4 * k + 16, 3 * k * k + k + 4) >= Fraction(
                1, math.comb(k + 1, 3)
            )
        for code, k, m in _verified_corpus(c2_code, c1_code, gv1_code, t4_code):
            lower, _ = best_lower_bound(code.n, k, m)
            assert total_length(code) >= math.ceil(lower)
        for report in bound_table(range(1, 21), range(1, 9), "all", m_max=16):
            if report.upper is not None:
                assert report.upper >= report.lower


def test_criterion_09_subset_spanning_and_reduction(
    c2_code, c1_code, gv1_code, t4_code
):
    with criterion(9, "subset spanning + reduction", 60):
        for code, k, _ in _verified_corpus(c2_code, c1_code, gv1_code, t4_code):
            assert check_subset_spanning(code, k)

        # pad three redundant columns into the 13-symbol code
        padded_buckets = list(c2_code.buckets)
        padded_buckets[0] = padded_buckets[0] + (col(1, 2, n=4),)
        padded_buckets[1] = padded_buckets[1] + (col(2, 4, n=4),)
        padded_buckets[2] = padded_buckets[2] + (col(1, 3, 4, n=4),)
        padded = CodeSpec(GF2, 4, tuple(padded_buckets))
        assert total_length(padded) == 16

        reduced = cap_and_reduce(padded)
        assert total_length(reduced) == 13
        assert codes_equal(reduced, c2_code)
        for code in (padded, reduced):
            report = verify_bac(code, 4, LIN)
            assert report.passed and report.checked == 35


def test_criterion_10_random_construction_properties():
    with criterion(10, "random construction properties", 300):
        # plane invariants, exhaustively
        for q in (2, 3, 5, 7, 11, 13):
            plane = affine_plane(q)
            all_lines = [frozenset(line.points) for line in plane.lines] + [
                frozenset(v) for v in plane.verticals
            ]
            assert len(all_lines) == q * q + q
            assert all(len(pts) == q for pts in all_lines)
            pair_count = {}
            for pts in all_lines:
                for a, b in itertools.combinations(sorted(pts), 2):
                    pair_count[(a, b)] = pair_count.get((a, b), 0) + 1
            assert len(pair_count) == math.comb(q * q, 2)
            assert set(pair_count.values()) == {1}
            for x, y in itertools.combinations(all_lines, 2):
                assert len(x & y) <= 1

        # systematic invariant + bit-for-bit determinism over 50 seeds
        n = 169
        identity = sorted(tuple(1 if d == i else 0 for d in range(n)) for i in range(n))
        for seed in range(50):
            apc = random_bac(13, 2, 0.4, 0.1, seed=seed)
            again = random_bac(13, 2, 0.4, 0.1, seed=seed)
            assert apc.code == again.code and apc.point_sets == again.point_sets
            info_cols = [c for b in apc.code.buckets[: apc.info_buckets] for c in b]
            assert sorted(info_cols) == identity

        # every greedy plan over 10k sampled requests certifies (the planner
        # re-checks each plan; success rate is recorded, not asserted)
        apc = random_bac(13, 2, 1.0, 1.0, seed=424242)
        report = trial_verify(apc, 2, 10000, seed=99)
        assert report.successes + len(report.failures) == 10000
        assert report.successes > 0

        # line-family concentration over 200 seeds at p1 = 0.3
        q, p1 = 13, 0.3
        sizes = [len(random_bac(q, 2, p1, 0.05, seed=s).selected) for s in range(200)]
        mean = sum(sizes) / len(sizes)
        assert abs(mean - p1 * q * q) <= 0.10 * p1 * q * q


def test_criterion_11_simulator_exactness(c2_code, c1_code):
    with criterion(11, "simulator exactness", 30):
        requests = list(all_batch_requests(4, 4))
        plans = {req: find_plan(c2_code, req, LIN) for req in requests}
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(100):
            data = tuple(int(v) for v in rng.integers(0, 2, size=4))
            for req in requests:
                rep = serve_batch(c2_code, data, req, plan=plans[req])
                assert rep.recovered == tuple(data[i - 1] for i in req)
                assert rep.response_counts == (1,) * c2_code.m

        table = compare_models(c2_code, c1_code, requests)
        assert table.total_length_linear == 13
        assert table.total_length_projection == 14
        assert all(proj <= 1 for _, _, proj in table.rows)
