"""Byte-level pin of `find_plan` output.

Each case hashes the plans (sets, responses, combos) that `find_plan` returns
for fixed or seeded requests on one code.  The digests were recorded from the
earlier implementation that re-solved every part by augmented elimination;
any change to the search order, to the choice of solution or to plan
assembly shows up here.
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
    cyclic_shift_code,
    find_plan,
    good_vector,
    good_vector_code,
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
