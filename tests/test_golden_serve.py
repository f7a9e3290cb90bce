"""Byte-level pin of `serve_batch` output.

One SHA-256 over the `SimReport.to_json_dict()` of a seeded stream of
batches on the four code families the plan-serve benchmark serves: the
good-vector (17,85,7,17) code, the cyclic (12,56,6,8) code over F_3, random
affine codes on the planes of order 13 and 7 and the uniform (20,65,4,5)
code, through the certified planner where the code has one and through the
exhaustive planner on all but the order-13 affine code.  A batch that raises ValueError (the greedy
affine planner may find no plan) is recorded by its message.  Each family
serves its whole stream from one code object, so the per-code caches are
warm from the second batch on.  The digest was recorded from the
implementation that rebuilt every planner's state per batch.

A second SHA-256, `GOLDEN_SERVE_REGIMES`, pins the projection regime and
explicit plans: certified and exhaustive batches in the projection regime,
and batches with a `plan=` found by `find_plan` in either regime (its
responses shifted by -p, 0 or +p, and one in ten found for another request),
served in either regime, over F_2, F_3 and F_5.  It was recorded from the
implementation that assembled a `RecoveryPlan` per batch and walked its
responses column by column.
"""

import dataclasses
import hashlib
import json
import random

from bacforge import (
    CodeSpec,
    ResponseModel,
    compose_repeat,
    cyclic_shift_code,
    find_plan,
    good_vector,
    good_vector_code,
    random_bac,
    serve_batch,
    uniform_code,
)
from bacforge.field import PrimeField

GOLDEN_SERVE = "64a00f2a5de861034cbbfd76242afcc210799ecac8a0085f985a6f2d21966e15"
GOLDEN_SERVE_REGIMES = "ca6939fdd23fc1aca2d08824d38b4819f72127de7553829a4ab816351d74f5b2"

T4 = (2, 3, 2, 4, 3, 1, 1, 4)


def _families() -> list:
    """(name, code, provenance or None, k, batches per planner).  The
    exhaustive planner's first request on the affine code of order 13
    (n = 169) builds minimal recovery sets for about half a minute, so the
    exhaustive affine batches run on a plane of order 7."""
    v = good_vector(T4)
    apc = random_bac(13, 2, 1.0, 1.0, 11)
    apc7 = random_bac(7, 2, 1.0, 1.0, 11)
    return [
        ("goodvec", good_vector_code(v), {"family": "goodvec", "t": v.t, "v": list(v.entries)}, 7,
         {"certified": 40, "exhaustive": 40}),
        ("cyclic", cyclic_shift_code(12, 6, 8, PrimeField(3)), {"family": "cyclic", "n": 12, "k": 6, "m": 8}, 6,
         {"certified": 40, "exhaustive": 40}),
        ("affine", apc.code, apc.provenance(), 2, {"certified": 40}),
        ("affine-7", apc7.code, apc7.provenance(), 2, {"certified": 20, "exhaustive": 20}),
        ("uniform", uniform_code(20, 4), None, 4, {"exhaustive": 20}),
    ]


def _request(rng: random.Random, n: int, k: int) -> tuple:
    """Half uniform multisets, half drawn from three hot symbols."""
    if rng.random() < 0.5:
        return tuple(rng.randrange(1, n + 1) for _ in range(k))
    hot = rng.sample(range(1, n + 1), 3)
    return tuple(rng.choice(hot) for _ in range(k))


def serve_digest(seed: int = 5) -> str:
    rng = random.Random(seed)
    rows = []
    for name, code, prov, k, counts in _families():
        p = code.field.p
        for planner, count in counts.items():
            for _ in range(count):
                req = _request(rng, code.n, k)
                # unreduced and negative entries: serve_batch reduces them
                data = [rng.randrange(-p, 2 * p) for _ in range(code.n)]
                try:
                    out = serve_batch(code, data, req, planner=planner, provenance=prov).to_json_dict()
                except ValueError as exc:
                    out = {"error": str(exc)}
                rows.append([name, planner, list(req), out])
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_serve_digest():
    assert serve_digest() == GOLDEN_SERVE


LIN, PROJ = ResponseModel.LINEAR, ResponseModel.PROJECTION


def _c1_code() -> CodeSpec:
    """The (4, 14, 4, 5) projection-only code: the (4, 13, 4, 5) cyclic code
    with a parity bucket that stores x1+x4 and x2+x3."""

    def col(*symbols):
        return tuple(int(i + 1 in symbols) for i in range(4))

    buckets = ((col(1), col(2), col(3)), (col(1), col(2), col(4)), (col(1), col(3), col(4)),
               (col(2), col(3), col(4)), (col(1, 4), col(2, 3)))
    return CodeSpec(PrimeField(2), 4, buckets)


def _regime_families() -> list:
    """(name, code, provenance or None, k, batches per planner) over F_2, F_3
    and F_5; "explicit" batches pass a plan."""
    v, v1 = good_vector(T4), good_vector((1, 1))
    apc7 = random_bac(7, 2, 1.0, 1.0, 11)

    def goodvec(vector):
        return {"family": "goodvec", "t": vector.t, "v": list(vector.entries)}

    def cyclic(n, k, m):
        return {"family": "cyclic", "n": n, "k": k, "m": m}

    return [
        ("goodvec", good_vector_code(v), goodvec(v), 7, {"certified": 20, "exhaustive": 10, "explicit": 10}),
        ("goodvec-f5", good_vector_code(v1, PrimeField(5)), goodvec(v1), 3,
         {"certified": 20, "exhaustive": 20, "explicit": 20}),
        ("cyclic-f3", cyclic_shift_code(12, 6, 8, PrimeField(3)), cyclic(12, 6, 8), 6,
         {"certified": 20, "exhaustive": 20, "explicit": 20}),
        ("cyclic-f5", cyclic_shift_code(4, 4, 5, PrimeField(5)), cyclic(4, 4, 5), 4,
         {"certified": 20, "exhaustive": 20, "explicit": 20}),
        ("affine-7", apc7.code, apc7.provenance(), 2, {"certified": 20, "exhaustive": 10, "explicit": 10}),
        ("c1-x5", compose_repeat(_c1_code(), 5), None, 4, {"exhaustive": 20, "explicit": 20}),
        ("uniform", uniform_code(20, 4), None, 4, {"exhaustive": 10, "explicit": 10}),
    ]


def regimes_digest(seed: int = 7) -> str:
    """Certified and exhaustive batches in the projection regime; explicit
    batches in a drawn regime, each with the plan `find_plan` finds in a
    drawn regime (None when there is none, which the exhaustive planner then
    serves), its responses shifted by multiples of p."""
    rng = random.Random(seed)
    rows = []
    for name, code, prov, k, counts in _regime_families():
        p = code.field.p
        for planner, count in counts.items():
            for _ in range(count):
                req = _request(rng, code.n, k)
                data = [rng.randrange(-p, 2 * p) for _ in range(code.n)]
                if planner == "explicit":
                    model, found = rng.choice([LIN, PROJ]), rng.choice([LIN, PROJ])
                    asked = req if rng.random() < 0.9 else _request(rng, code.n, k)
                    plan = find_plan(code, asked, found)
                    if plan is not None:
                        responses = tuple(
                            tuple(r + p * rng.randrange(-1, 2) for r in resp) for resp in plan.responses
                        )
                        plan = dataclasses.replace(plan, responses=responses)
                    args, extra = {"plan": plan}, [model.value, found.value, list(asked)]
                else:
                    model, args, extra = PROJ, {"planner": planner, "provenance": prov}, []
                try:
                    out = serve_batch(code, data, req, model=model, **args).to_json_dict()
                except ValueError as exc:
                    out = {"error": str(exc)}
                rows.append([name, planner, list(req), *extra, out])
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_serve_regimes_digest():
    assert regimes_digest() == GOLDEN_SERVE_REGIMES
