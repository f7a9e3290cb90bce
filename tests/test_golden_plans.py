"""Byte-level pin of the plans every planner returns.

Each `GOLDEN` case hashes the plans (sets, responses, combos) that
`find_plan` returns for fixed or seeded requests on one code.  The digests
were recorded from the earlier implementation that re-solved every part by
augmented elimination; any change to the search order, to the choice of
solution or to plan assembly shows up here.  Each `GOLDEN_CONSTRUCT` case
does the same for a construction planner (cyclic, good-vector, greedy
affine) on seeded requests, with each combo sorted by bucket inside the
hash; those digests were recorded before the planners were moved onto
`plan_from_parts`, when the good-vector planner still emitted its combos
out of bucket order.  Each `GOLDEN_SWEEP` case hashes the JSON report of
one exhaustive `verify_bac` sweep (verdict, count and every witness in
order); those digests were recorded while every sweep still assembled and
certified each request's whole plan through `find_plan`.  The projection
cases of the F_3 cyclic and the q=7 affine code were recorded while the
search still pruned by exact projection recovery and the projection DFS
rebuilt its joint basis at every node.
"""

import hashlib
import json
import random

import pytest

from bacforge import (
    CodeSpec,
    GF2,
    ResponseModel,
    certify_plan,
    cyclic_certified_plan,
    cyclic_params,
    cyclic_shift_code,
    find_plan,
    good_vector,
    good_vector_2t1,
    good_vector_code,
    goodvec_certified_plan,
    greedy_plan,
    max_batch_k,
    random_bac,
    uniform_code,
    verify_bac,
)
from bacforge.field import PrimeField
from bacforge.verify import all_batch_requests, bucket_indices, plan_from_parts
from bacforge import affine as affine_module, construct as construct_module, verify as verify_module
from conftest import col

LIN = ResponseModel.LINEAR
PROJ = ResponseModel.PROJECTION

GOLDEN = {
    "c2-linear": "51710fa51e7c1cdf2facd21a358ad3c5134826b6a7ed77aae05b8ca7b510c96f",
    "c1-projection": "1c6cc1561dd5baa96433307db40728bcb7a3971ea09379d255e108f93cbc6ee0",
    "t4-linear": "14007edb9a339f547351bf01558b4f683510796144dbc00e8e270bfa995ec09f",
    "cyclic-12-56-f3-linear": "ef820a2a08d5cc7b2af0cfe2b751913a1581ab6b4572fdc0703b715885a42f81",
    "cyclic-12-56-f3-projection": "5e2c8bd2d0b1b2368de3a3f370dad173c56e4aea7b800814ac0a9b8a7a9f8bb9",
    "affine-q7-projection": "2f6bfad04c7536d534a0d3f73ded75c0e68b09b591ebc678874788e051b375f4",
}


def _c1_code():
    """The (4, 14, 4, 5) projection-only code (see conftest.c1_code)."""
    n = 4
    return CodeSpec(
        GF2,
        n,
        (
            (col(1, n=n), col(2, n=n), col(3, n=n)),
            (col(1, n=n), col(2, n=n), col(4, n=n)),
            (col(1, n=n), col(3, n=n), col(4, n=n)),
            (col(2, n=n), col(3, n=n), col(4, n=n)),
            (col(1, 4, n=n), col(2, 3, n=n)),
        ),
    )


def _seeded(n: int, k: int, count: int, seed: int) -> list:
    rng = random.Random(seed)
    return [tuple(sorted(rng.randrange(1, n + 1) for _ in range(k))) for _ in range(count)]


CASES = {
    "c2-linear": (lambda: cyclic_shift_code(4, 4, 5), LIN, lambda: all_batch_requests(4, 4)),
    "c1-projection": (_c1_code, PROJ, lambda: all_batch_requests(4, 4)),
    "t4-linear": (
        lambda: good_vector_code(good_vector((2, 3, 2, 4, 3, 1, 1, 4))),
        LIN,
        lambda: _seeded(17, 4, 200, 1) + _seeded(17, 7, 30, 2),
    ),
    "cyclic-12-56-f3-linear": (
        lambda: cyclic_shift_code(12, 6, 8, PrimeField(3)),
        LIN,
        lambda: _seeded(12, 6, 200, 3),
    ),
    # 199 of the 200 requests are served
    "cyclic-12-56-f3-projection": (
        lambda: cyclic_shift_code(12, 6, 8, PrimeField(3)),
        PROJ,
        lambda: _seeded(12, 6, 200, 3),
    ),
    # 149 of the 200 requests are served
    "affine-q7-projection": (
        lambda: random_bac(7, 2, 1.0, 1.0, 7).code,
        PROJ,
        lambda: _seeded(49, 2, 200, 4),
    ),
}


def plan_digest(code, requests, model) -> str:
    rows = []
    for req in requests:
        plan = find_plan(code, req, model)
        if plan is None:
            rows.append([list(req), None])
            continue
        assert certify_plan(code, req, plan, model)
        rows.append(
            [
                list(req),
                [sorted(part) for part in plan.sets],
                [list(r) for r in plan.responses],
                [[list(term) for term in combo] for combo in plan.combos],
            ]
        )
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_plan_digest(name):
    build, model, requests = CASES[name]
    assert plan_digest(build(), requests(), model) == GOLDEN[name]


# ---------------------------------------------------------------------------
# the construction planners: cyclic, good-vector and greedy affine plans

GOLDEN_CONSTRUCT = {
    "cyclic-12-56-f3": "8a4f938a33ef3c98ab26dac089ad623afafaca28a2dcb10a643ac1391b876c7f",
    "cyclic-8-4-6": "65330ea261ea9333495482f0f451040c1f87d2e80d800b19305ce0c377484a65",
    "goodvec-t4": "fb157418aaf2ef7bb212e67db7628003778fe3a1e0bef61e229f94efb92910b1",
    "goodvec-2t1-1": "5cbe102836009e0fd3b85d608f46a33eb11d22409d443899778810dd5e46db33",
    "greedy-q13": "c77d0b6e23c10adceeff12539a04f80c68923c11595f1ede82508ec8b367338c",
    "greedy-q7": "5a5fac3ece8a3bd2e7f94b5bb3e04512fe68c677b4cc760eb4ccf2cc49b2b0aa",
    "greedy-q7-strict": "67ad1378437908b746b935218bec2fa45df11fe88515b49b0d84ae8233509828",
}


def _cyclic_case(n, k, m, field):
    params = cyclic_params(n, k, m)
    code = cyclic_shift_code(n, k, m, field)
    return code, lambda req: cyclic_certified_plan(params, code, req), [(k, 150, 11)]


def _goodvec_case(v):
    code = good_vector_code(v)
    bound = max_batch_k(v.t).exact
    return code, lambda req: goodvec_certified_plan(v, code, req), [
        (k, 40, 20 + k) for k in range(1, bound + 1)
    ]


def _greedy_case(q, p2, seed, strict):
    apc = random_bac(q, 2, 1.0, p2, seed)
    return apc.code, lambda req: greedy_plan(apc, req, strict_appendix=strict), [
        (k, 60, 40 + k) for k in (1, 2, 3, 4)
    ]


CONSTRUCT_CASES = {
    "cyclic-12-56-f3": lambda: _cyclic_case(12, 6, 8, PrimeField(3)),
    "cyclic-8-4-6": lambda: _cyclic_case(8, 4, 6, GF2),
    "goodvec-t4": lambda: _goodvec_case(good_vector((2, 3, 2, 4, 3, 1, 1, 4))),
    "goodvec-2t1-1": lambda: _goodvec_case(good_vector_2t1(1)),
    "greedy-q13": lambda: _greedy_case(13, 1.0, 11, False),
    "greedy-q7": lambda: _greedy_case(7, 0.7, 5, False),
    "greedy-q7-strict": lambda: _greedy_case(7, 0.7, 5, True),
}


def _construct_plans(name):
    code, planner, batches = CONSTRUCT_CASES[name]()
    for k, count, seed in batches:
        for req in _seeded(code.n, k, count, seed):
            yield code, req, planner(req)


def construct_digest(name) -> str:
    """SHA-256 over a case's plans, each combo sorted by bucket."""
    rows = []
    for _, req, plan in _construct_plans(name):
        if plan is None:
            rows.append([list(req), None])
            continue
        rows.append(
            [
                list(req),
                [sorted(part) for part in plan.sets],
                [list(r) for r in plan.responses],
                [sorted(list(term) for term in combo) for combo in plan.combos],
            ]
        )
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_CONSTRUCT))
def test_golden_construct_digest(name):
    assert construct_digest(name) == GOLDEN_CONSTRUCT[name]


def _all_plans():
    for name in sorted(GOLDEN):
        build, model, requests = CASES[name]
        code = build()
        for req in requests():
            yield code, req, find_plan(code, req, model), model
    for name in sorted(GOLDEN_CONSTRUCT):
        for code, req, plan in _construct_plans(name):
            yield code, req, plan, LIN


def test_every_planner_emits_certified_ascending_combos(monkeypatch):
    """Each plan certifies, and each part it was assembled from is in
    `make_part`'s form: responses for nonzero answers only, in ascending
    bucket order, and a combo over exactly the bucket set, ascending."""
    handed_over = []

    def spy(code, req, parts):
        handed_over.append(parts)
        return plan_from_parts(code, req, parts)

    for module in (verify_module, construct_module, affine_module):
        monkeypatch.setattr(module, "plan_from_parts", spy)
    served, regimes = 0, set()
    for code, req, plan, model in _all_plans():
        if plan is None:
            continue
        served += 1
        regimes.add(model)
        assert certify_plan(code, req, plan, model)
        for combo in plan.combos:
            buckets = [ell for ell, _ in combo]
            assert buckets == sorted(set(buckets)), (req, combo)
        parts = handed_over.pop()
        assert not handed_over and len(parts) == len(req)
        for bucket_set, answers, combo in parts:
            # the search's bitmask: bit ell - 1 for bucket ell
            assert type(bucket_set) is int and 0 < bucket_set <= (1 << code.m) - 1, (req, parts)
            buckets = [ell0 + 1 for ell0 in bucket_indices(bucket_set)]
            answered = [ell0 + 1 for ell0, _ in answers]
            assert answered == sorted(set(answered)) and set(answered) <= set(buckets), (req, parts)
            assert all(any(v % code.field.p for v in vector) for _, vector in answers), (req, parts)
            assert [ell for ell, _ in combo] == buckets, (req, parts)
    assert served > 1000
    assert regimes == {LIN, PROJ}  # the engine's parts in both regimes


# ---------------------------------------------------------------------------
# exhaustive sweeps: verdicts and witness lists

GOLDEN_SWEEP = {
    "c2-k4-linear": "b352a456490def2caad1b9d3a823ff607228cce0df4cb880332d0ee263333235",
    "c1-k4-projection": "b352a456490def2caad1b9d3a823ff607228cce0df4cb880332d0ee263333235",
    "uniform-20-4-k4-projection": "3c56e54bd11e9cef08a90d7c8a5ca09be77d64752b73a523e5629a13a4762ec9",
    "cyclic-12-6-8-f3-k6-linear": "e8ec75c33fedbf18481583304392b2c7e16194eab07084005a9dadddc513be67",
    "affine-q7-k2-linear": "b2c702e38bd5deb1ac439f2653427fcdaf669f05cd6d0ef6f142ad3f8c19ad0d",
    "affine-q7-k2-projection": "8073674183c01e7695e6d6d7a88a5a8d528197c7cffe0d5020e79e51e7d9d700",
    "affine-q11-k2-linear": "cf531db5c13de022be231d7956bafd7c9ffd4e8545cfc66e41798fd5999b3e8f",
}

# name -> (code, k, model, number of failing requests)
SWEEP_CASES = {
    "c2-k4-linear": (lambda: cyclic_shift_code(4, 4, 5), 4, LIN, 0),
    "c1-k4-projection": (_c1_code, 4, PROJ, 0),
    "uniform-20-4-k4-projection": (lambda: uniform_code(20, 4), 4, PROJ, 50),
    "cyclic-12-6-8-f3-k6-linear": (lambda: cyclic_shift_code(12, 6, 8, PrimeField(3)), 6, LIN, 0),
    "affine-q7-k2-linear": (lambda: random_bac(7, 2, 1.0, 1.0, 11).code, 2, LIN, 315),
    "affine-q7-k2-projection": (lambda: random_bac(7, 2, 1.0, 1.0, 7).code, 2, PROJ, 343),
    "affine-q11-k2-linear": (lambda: random_bac(11, 2, 1.0, 1.0, 11).code, 2, LIN, 1265),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEP))
def test_golden_sweep_digest(name):
    build, k, model, failures = SWEEP_CASES[name]
    report = verify_bac(build(), k, model)
    assert len(report.failures) == failures
    text = json.dumps(report.to_json_dict(), separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SWEEP[name]
