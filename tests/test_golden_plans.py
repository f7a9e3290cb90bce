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
out of bucket order.
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
)
from bacforge.field import PrimeField
from bacforge.verify import all_batch_requests
from conftest import col

LIN = ResponseModel.LINEAR
PROJ = ResponseModel.PROJECTION

GOLDEN = {
    "c2-linear": "51710fa51e7c1cdf2facd21a358ad3c5134826b6a7ed77aae05b8ca7b510c96f",
    "c1-projection": "1c6cc1561dd5baa96433307db40728bcb7a3971ea09379d255e108f93cbc6ee0",
    "t4-linear": "14007edb9a339f547351bf01558b4f683510796144dbc00e8e270bfa995ec09f",
    "cyclic-12-56-f3-linear": "ef820a2a08d5cc7b2af0cfe2b751913a1581ab6b4572fdc0703b715885a42f81",
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


def test_every_planner_emits_certified_ascending_combos():
    served = 0
    for code, req, plan, model in _all_plans():
        if plan is None:
            continue
        served += 1
        assert certify_plan(code, req, plan, model)
        for combo in plan.combos:
            buckets = [ell for ell, _ in combo]
            assert buckets == sorted(set(buckets)), (req, combo)
    assert served > 1000
