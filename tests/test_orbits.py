"""Orbit-reduced sweeps: the symbol shift a sweep detects, the orbit
representatives it decides, and the claim that one plan per orbit stands for
every member.  Every sweep is compared with the full sweep of all
C(n+k-1, k) multisets (`_failures` over `all_batch_requests`)."""

import itertools
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from bacforge import (
    CodeSpec,
    GF2,
    ResponseModel,
    certify_plan,
    cyclic_shift_code,
    find_plan,
    good_vector,
    good_vector_code,
    random_bac,
    uniform_code,
    verify_bac,
    verify_pir,
)
from bacforge.cli import run
from bacforge.field import PrimeField
from bacforge.model import code_to_json
from bacforge.verify import (
    RecoveryPlan,
    _failures,
    all_batch_requests,
    orbit,
    orbit_representatives,
    symbol_shift,
)

LIN = ResponseModel.LINEAR
PROJ = ResponseModel.PROJECTION


def rotate(col, s):
    """A column with coordinate j moved to j + s (mod n)."""
    n = len(col)
    return tuple(col[(j - s) % n] for j in range(n))


def shifted(req, s, n):
    """A request with symbol i moved to i + s (mod n), sorted."""
    return tuple(sorted((i - 1 + s) % n + 1 for i in req))


def full_sweep(code, k, model):
    """The failures of the sweep of every multiset, on a fresh code."""
    fresh = CodeSpec(code.field, code.n, code.buckets)
    return sorted(_failures(fresh, model, list(all_batch_requests(code.n, k))))


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


# ---------------------------------------------------------------------------
# the symbol shift


def test_symbol_shift_of_the_constructions():
    assert symbol_shift(cyclic_shift_code(4, 4, 5)) == 1
    assert symbol_shift(good_vector_code(good_vector((2, 3, 2, 4, 3, 1, 1, 4)))) == 1
    assert symbol_shift(uniform_code(20, 4)) == 4
    assert symbol_shift(cyclic_shift_code(12, 6, 8, PrimeField(3))) == 2
    assert symbol_shift(random_bac(7, 2, 1.0, 1.0, 11).code) == 49  # none: the identity


def test_symbol_shift_is_the_least_verified_shift():
    # closed under the shift by 2 of n = 6 but not by 1 or 3
    n = 6
    base = ((1, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0))
    buckets = tuple(tuple(rotate(col, s) for col in base) for s in (0, 2, 4))
    code = CodeSpec(GF2, n, buckets)
    assert symbol_shift(code) == 2
    # over F_3 the same pattern with a 2 in it
    column = (2, 1, 0, 0, 0, 0)
    code3 = CodeSpec(PrimeField(3), n, tuple((rotate(column, s),) for s in (0, 3)))
    assert symbol_shift(code3) == 3


def test_a_broken_symmetry_is_not_detected():
    """The (4,13,4,5) code with bucket 1's last column dropped: no shift maps
    it onto itself, so the sweep decides all 35 requests."""
    base = cyclic_shift_code(4, 4, 5)
    code = CodeSpec(GF2, 4, (base.buckets[0][:-1],) + base.buckets[1:])
    assert symbol_shift(code) == 4
    report = verify_bac(code, 4, LIN)
    expected = [
        ((3, 3, 3, 3), "no-partition"),
        ((3, 3, 3, 4), "no-partition"),
        ((3, 3, 4, 4), "no-partition"),
        ((3, 4, 4, 4), "no-partition"),
        ((4, 4, 4, 4), "no-partition"),
    ]
    assert list(report.failures) == expected == full_sweep(code, 4, LIN)
    assert (report.shift, report.representatives, report.checked) == (4, 35, 35)


# ---------------------------------------------------------------------------
# the enumeration of orbit representatives


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("k", range(1, 7))
def test_representatives_are_the_brute_force_lex_minima(n, k):
    requests = list(itertools.combinations_with_replacement(range(1, n + 1), k))
    for d in divisors(n):
        members = {req: [shifted(req, s, n) for s in range(0, n, d)] for req in requests}
        expected = sorted({min(images) for images in members.values()})
        got = list(orbit_representatives(n, k, d))
        assert got == expected, (n, k, d)
        assert all(orbit(rep, n, d) == set(members[rep]) for rep in got)
        assert sum(len(orbit(rep, n, d)) for rep in got) == math.comb(n + k - 1, k)


@pytest.mark.parametrize("n, k, d", [(22, 4, 1), (20, 4, 4), (12, 6, 2), (12, 6, 3)])
def test_representative_count_is_burnsides(n, k, d):
    """The orbits under the shifts by d: the mean number of multisets a shift
    fixes.  The shift by s has gcd(s, n) cycles of length n / gcd(s, n), and
    a multiset it fixes is constant on each cycle."""
    fixed = 0
    for s in range(0, n, d):
        cycles = math.gcd(s, n)
        length = n // cycles
        if k % length == 0:
            fixed += math.comb(cycles + k // length - 1, k // length)
    assert sum(1 for _ in orbit_representatives(n, k, d)) == fixed // (n // d)


# ---------------------------------------------------------------------------
# orbit sweeps against the full sweep


@st.composite
def shift_closed_code(draw):
    """Random buckets plus their images under the shift by d, over F_2, F_3
    or F_5: closed under that shift by construction."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 6))
    d = draw(st.sampled_from([d for d in divisors(n) if n // d <= 3]))
    column = st.tuples(*[st.integers(0, p - 1)] * n)
    base = draw(
        st.lists(st.lists(column, min_size=1, max_size=2), min_size=1, max_size=6 // (n // d))
    )
    buckets = tuple(
        tuple(rotate(col, s) for col in bucket) for bucket in base for s in range(0, n, d)
    )
    return CodeSpec(PrimeField(p), n, buckets), d


@given(shift_closed_code(), st.integers(1, 3))
@example((CodeSpec(GF2, 2, (((1, 0),), ((0, 1),))), 1), 2)  # fails on (1, 1) and (2, 2)
@example((CodeSpec(PrimeField(3), 3, (((1, 2, 0),), ((0, 1, 2),), ((2, 0, 1),))), 1), 2)
@settings(max_examples=80, deadline=None)
def test_orbit_sweep_equals_the_full_sweep(code_and_d, k):
    code, d = code_and_d
    k = min(k, code.m)
    assert d % symbol_shift(code) == 0
    for model in (LIN, PROJ):
        report = verify_bac(code, k, model)
        assert list(report.failures) == full_sweep(code, k, model), model
        assert report.checked == math.comb(code.n + k - 1, k)
        fresh = CodeSpec(code.field, code.n, code.buckets)
        pir = verify_pir(fresh, k, model)
        expected = [f for f in full_sweep(code, k, model) if len(set(f[0])) == 1]
        assert list(pir.failures) == expected and pir.checked == code.n


def test_orbit_counts_stay_out_of_the_json():
    report = verify_bac(uniform_code(20, 4), 4, PROJ)
    assert (report.shift, report.representatives, report.checked) == (4, 1771, 8855)
    assert len(report.failures) == 50
    assert set(report.to_json_dict()) == {"status", "checked", "failures"}
    pir = verify_pir(uniform_code(20, 4), 4, LIN)
    assert (pir.shift, pir.representatives, pir.checked) == (4, 4, 20)


# ---------------------------------------------------------------------------
# plans carried along an orbit


def bucket_map(code, s):
    """(pi, tau): bucket ell's columns rotated by s are bucket pi[ell]'s, with
    column t of bucket pi[ell] the rotation of column tau[ell][t] of ell."""
    free = list(range(code.m))
    pi, tau = [], []
    for bucket in code.buckets:
        moved = [rotate(col, s) for col in bucket]
        image = next(e for e in free if sorted(code.buckets[e]) == sorted(moved))
        free.remove(image)
        left = list(range(len(moved)))
        match = []
        for col in code.buckets[image]:
            t = next(t for t in left if moved[t] == col)
            left.remove(t)
            match.append(t)
        pi.append(image)
        tau.append(match)
    return pi, tau


def map_plan(code, plan, s, pi, tau):
    """The plan moved by the symbol shift s and its bucket permutation."""
    n = code.n
    responses = [None] * code.m
    for ell0, resp in enumerate(plan.responses):
        responses[pi[ell0]] = tuple(resp[t] for t in tau[ell0])
    parts = sorted(
        (
            (i - 1 + s) % n + 1,
            frozenset(pi[ell - 1] + 1 for ell in part),
            tuple((pi[ell - 1] + 1, c) for ell, c in combo),
        )
        for i, part, combo in zip(plan.request, plan.sets, plan.combos)
    )
    return RecoveryPlan(
        request=tuple(i for i, _, _ in parts),
        sets=tuple(part for _, part, _ in parts),
        responses=tuple(responses),
        combos=tuple(combo for _, _, combo in parts),
    )


@pytest.mark.parametrize(
    "build, k, model",
    [
        (lambda: cyclic_shift_code(4, 4, 5), 4, LIN),
        (lambda: cyclic_shift_code(12, 6, 8, PrimeField(3)), 3, LIN),
        (lambda: uniform_code(20, 4), 4, PROJ),
    ],
    ids=["c2-k4", "cyclic-12-f3-k3", "uniform-20-projection"],
)
def test_representative_plans_carry_over_their_orbits(build, k, model):
    code = build()
    n, d = code.n, symbol_shift(code)
    assert d < n
    maps = {s: bucket_map(code, s) for s in range(0, n, d)}
    failing = {req for req, _ in verify_bac(code, k, model).failures}
    reps = list(orbit_representatives(n, k, d))
    if model is PROJ:  # the failing orbits, and as many passing ones
        bad = [rep for rep in reps if rep in failing]
        assert bad
        reps = bad + [rep for rep in reps if rep not in failing][: len(bad)]
    for rep in reps:
        plan = find_plan(code, rep, model)
        for s, (pi, tau) in maps.items():
            req = shifted(rep, s, n)
            if plan is None:
                assert req in failing and find_plan(code, req, model) is None, (rep, s)
                continue
            mapped = map_plan(code, plan, s, pi, tau)
            assert mapped.request == req
            assert certify_plan(code, req, mapped, model), (rep, s)


# ---------------------------------------------------------------------------
# the CLI


def test_cli_states_the_orbit_counts(tmp_path, capsys):
    path = tmp_path / "u.json"
    path.write_text(code_to_json(uniform_code(20, 4), None) + "\n")
    assert run(["verify", str(path), "--k", "4"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"status": "pass", "checked": 8855, "failures": []}
    assert "8855 requests, 1771 orbit representatives under shift 4" in captured.err
