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
"""

import hashlib
import json
import random

from bacforge import (
    cyclic_shift_code,
    good_vector,
    good_vector_code,
    random_bac,
    serve_batch,
    uniform_code,
)
from bacforge.field import PrimeField

GOLDEN_SERVE = "64a00f2a5de861034cbbfd76242afcc210799ecac8a0085f985a6f2d21966e15"

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
