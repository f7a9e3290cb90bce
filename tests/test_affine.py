import dataclasses
import hashlib
import itertools
import json
import random

import pytest

import bacforge.affine as aff
from bacforge import (
    affine_plane,
    certify_plan,
    default_params,
    greedy_plan,
    random_bac,
    redundancy_bound,
    total_length,
    trial_verify,
)
from bacforge.model import code_from_json, code_to_json
from bacforge.sim import planner_context


@pytest.mark.parametrize("q", [2, 3, 5])
def test_plane_invariants(q):
    plane = affine_plane(q)
    assert len(plane.lines) + len(plane.verticals) == q * q + q
    all_lines = [line.points for line in plane.lines] + list(plane.verticals)
    assert all(len(pts) == q for pts in all_lines)
    for a, b in itertools.combinations(all_lines, 2):
        assert len(set(a) & set(b)) <= 1
    for p1, p2 in itertools.combinations(range(1, q * q + 1), 2):
        containing = [pts for pts in all_lines if p1 in set(pts) and p2 in set(pts)]
        assert len(containing) == 1


def test_each_point_on_q_plus_1_lines():
    q = 5
    plane = affine_plane(q)
    for pt in range(1, q * q + 1):
        nonvertical = len(plane.through[pt - 1])
        vertical_hits = sum(1 for v in plane.verticals if pt in v)
        assert nonvertical + vertical_hits == q + 1


def test_affine_plane_requires_prime():
    with pytest.raises(ValueError):
        affine_plane(4)


def test_degenerate_draw_q3():
    apc = random_bac(3, 1, 1.0, 1.0, seed=5)
    assert apc.m == 6
    assert total_length(apc.code) == 18
    # every parity column is a full-line indicator
    for bucket in apc.code.buckets[3:]:
        for colv in bucket:
            assert sum(colv) == 3
    assert random_bac(3, 3, 1.0, 1.0, seed=5).m == 2


def test_systematic_invariant():
    apc = random_bac(5, 2, 0.7, 0.4, seed=11)
    n = apc.code.n
    identity_cols = []
    for bucket in apc.code.buckets[: apc.info_buckets]:
        identity_cols.extend(bucket)
    assert sorted(identity_cols) == sorted(
        tuple(1 if d == i else 0 for d in range(n)) for i in range(n)
    )
    for bucket in apc.code.buckets[: apc.info_buckets]:
        for colv in bucket:
            assert sum(colv) == 1


def test_seed_determinism():
    a = random_bac(5, 2, 0.5, 0.3, seed=77)
    b = random_bac(5, 2, 0.5, 0.3, seed=77)
    assert a.code == b.code and a.selected == b.selected and a.point_sets == b.point_sets
    c = random_bac(5, 2, 0.5, 0.3, seed=78)
    assert c.code != a.code or c.selected != a.selected


def test_short_final_buckets_when_s_does_not_divide_q():
    apc = random_bac(5, 3, 1.0, 1.0, seed=1)
    assert apc.m == 4  # 2 * ceil(5/3)
    # last info bucket holds the remaining 2 verticals
    assert len(apc.code.buckets[0]) == 15 and len(apc.code.buckets[1]) == 10


def test_parameter_validation():
    with pytest.raises(ValueError):
        random_bac(4, 1, 0.5, 0.5, seed=0)  # not prime
    with pytest.raises(ValueError):
        random_bac(5, 6, 0.5, 0.5, seed=0)  # s > q
    with pytest.raises(ValueError):
        random_bac(5, 2, 0.0, 0.5, seed=0)
    with pytest.raises(ValueError):
        random_bac(5, 2, 0.5, 1.5, seed=0)


@pytest.mark.parametrize("seed", [1.7, "3", None])
def test_seed_must_be_an_integer(seed):
    apc = random_bac(5, 1, 1.0, 1.0, seed=21)
    with pytest.raises(TypeError):
        random_bac(5, 2, 0.5, 0.5, seed=seed)
    with pytest.raises(TypeError):
        trial_verify(apc, 1, 5, seed=seed)


def test_seed_range():
    apc = random_bac(5, 1, 1.0, 1.0, seed=21)
    message = "seed must be a non-negative integer, got -1"
    with pytest.raises(ValueError, match=message):
        random_bac(5, 2, 0.5, 0.5, seed=-1)
    with pytest.raises(ValueError, match=message):
        trial_verify(apc, 1, 5, seed=-1)
    with pytest.raises(ValueError, match="seed must fit in 64 bits"):
        random_bac(5, 2, 0.5, 0.5, seed=2**64)
    assert random_bac(5, 2, 0.5, 0.5, seed=2**64 - 1).seed == 2**64 - 1


_STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 99999999999999999999999] + [
    random.Random(2019).getrandbits(64) for _ in range(200)
]
# 2**31 + 1 and 3 * 2**30 + 1 reject about half and a quarter of the draws
_RANGES = [1, 2, 17, 169, 2**31, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1]


def test_streams_match_numpy():
    """Each child stream draws numpy's doubles and bounded integers, with
    the buffered 32-bit half-draws carried across calls."""
    np = pytest.importorskip("numpy")
    for seed in _STREAM_SEEDS:
        for child, ss in enumerate(np.random.SeedSequence(seed).spawn(3)):
            ours, theirs = aff._PCG64(seed, child), np.random.Generator(np.random.PCG64(ss))
            assert [ours.random() for _ in range(4)] == theirs.random(4).tolist(), seed
            for n in _RANGES:
                assert ours.integers(n, 3) == theirs.integers(1, n + 1, size=3).tolist(), (seed, n)
            assert ours.random() == theirs.random(), seed
    with pytest.raises(ValueError):
        aff._PCG64(0, 0).integers(2**32, 1)


# sha256 of `code_to_json(code, provenance)` and of a `TrialReport`'s JSON,
# taken from the numpy-drawn streams, so they hold where numpy is absent
_CODE_DIGESTS = {
    (5, 2, 0.5, 0.3, 77): "e67343e2db3e612cd64c8eff4f327f52ea4bd165a75fe40696a8c12c53a6da7e",
    (7, 2, 0.6, 0.5, 17): "9fa1f80602ab0c698f027b7cb460c43fbbeb22d2b63195ecc6aca04129e08ab4",
    (13, 3, 0.4, 0.1, 2**64 - 1): "2638e54d97f64198197852300835286470c4803223b06897466db72e4cfaf72b",
}
_TRIAL_DIGEST = "947ec1f7ede5e36266bfcb2284b9af133ba34e8a711db756829540d2d158438d"


@pytest.mark.parametrize("params", list(_CODE_DIGESTS))
def test_random_bac_golden(params):
    apc = random_bac(*params)
    text = code_to_json(apc.code, apc.provenance())
    assert hashlib.sha256(text.encode()).hexdigest() == _CODE_DIGESTS[params]


def test_trial_verify_golden():
    rep = trial_verify(random_bac(7, 2, 1.0, 0.5, 7), 3, 100, seed=99999999999999999999999)
    assert (rep.successes, len(rep.failures)) == (58, 42)
    assert hashlib.sha256(json.dumps(rep.to_json_dict()).encode()).hexdigest() == _TRIAL_DIGEST


def test_default_params_clamping():
    d = default_params(5, 2, 2)
    assert d.p1 == 1.0 and d.p1_clamped
    assert abs(d.p1_raw - 368.5) < 1.0
    assert abs(d.p2 - 0.1118) < 1e-3 and not d.p2_clamped
    assert not d.in_theory_regime


def test_redundancy_bound_values_and_monotonicity():
    import math

    n = 101 * 101
    expected = n + 64 * 8 * n**0.75 * math.log(n)
    assert abs(redundancy_bound(101, 2, 2) - expected) < 1e-6
    assert redundancy_bound(101, 3, 2) > redundancy_bound(101, 2, 2)
    assert redundancy_bound(101, 2, 3) > redundancy_bound(101, 2, 2)


def test_greedy_singleton_uses_info_bucket():
    apc = random_bac(5, 2, 0.5, 0.3, seed=4)
    for point in (1, 7, 25):
        plan = greedy_plan(apc, (point,))
        assert plan is not None
        assert certify_plan(apc.code, (point,), plan)
        assert apc.info_bucket_of(point) in plan.sets[0]


def test_greedy_duplicate_pair_q3():
    apc = random_bac(3, 1, 1.0, 1.0, seed=9)
    plan = greedy_plan(apc, (5, 5))
    assert plan is not None and certify_plan(apc.code, (5, 5), plan)
    first, second = plan.sets
    assert apc.info_bucket_of(5) in first
    assert len(first) == 1
    # the second copy reads a full line: two other info buckets + slope bucket
    assert any(b > apc.info_buckets for b in second)


def test_greedy_absent_case_exists_q3():
    apc = random_bac(3, 1, 1.0, 1.0, seed=9)
    stuck = None
    for k in range(2, apc.m + 1):
        for req in itertools.combinations_with_replacement(range(1, 10), k):
            if greedy_plan(apc, req) is None:
                stuck = req
                break
        if stuck:
            break
    assert stuck is not None
    assert greedy_plan(apc, stuck) is None


def test_strict_appendix_mode():
    apc = random_bac(3, 1, 1.0, 1.0, seed=9)
    # without the direct-bucket shortcut even a single request must use a line
    plan = greedy_plan(apc, (1,), strict_appendix=True)
    assert plan is not None
    assert any(b > apc.info_buckets for b in plan.sets[0])
    assert certify_plan(apc.code, (1,), plan)


def test_trial_verify_reports():
    apc = random_bac(5, 1, 1.0, 1.0, seed=21)
    rep = trial_verify(apc, 1, 50, seed=3)
    assert rep.successes == 50 and rep.success_rate == 1.0
    rep2 = trial_verify(apc, 1, 50, seed=3)
    assert rep.to_json_dict() == rep2.to_json_dict()
    rep3 = trial_verify(apc, 2, 200, seed=3)
    assert rep3.successes + len(rep3.failures) == 200


def test_trial_verify_certifies_greedy_plans(monkeypatch):
    apc = random_bac(5, 1, 1.0, 1.0, seed=21)
    real_greedy_plan = aff.greedy_plan

    def corrupted(apc, req, strict_appendix=False):
        plan = real_greedy_plan(apc, req, strict_appendix=strict_appendix)
        responses = list(plan.responses)
        ell0 = next(ell0 for ell0, resp in enumerate(responses) if any(resp))
        responses[ell0] = (0,) * len(responses[ell0])  # drop an answer the plan needs
        return dataclasses.replace(plan, responses=tuple(responses))

    monkeypatch.setattr(aff, "greedy_plan", corrupted)
    with pytest.raises(AssertionError, match="failed certification"):
        trial_verify(apc, 1, 5, seed=3)


def test_parity_slots_locate_each_parity_column():
    apc = random_bac(7, 2, 0.6, 0.5, seed=17)
    slots = [slot for slot in apc.parity_slots if slot is not None]
    parity_columns = [
        (bucket, pos)
        for bucket in range(apc.info_buckets + 1, apc.m + 1)
        for pos in range(len(apc.code.buckets[bucket - 1]))
    ]
    assert sorted(slots) == parity_columns
    for idx, slot in enumerate(apc.parity_slots):
        pts = apc.point_sets[idx]
        assert (slot is not None) == (idx in apc.selected and bool(pts))
        if slot is not None:
            bucket, pos = slot
            column = apc.code.buckets[bucket - 1][pos]
            assert {i + 1 for i, v in enumerate(column) if v} == pts


def test_provenance_round_trip():
    apc = random_bac(5, 2, 0.5, 0.25, seed=123)
    prov = apc.provenance()
    assert prov["family"] == "affine" and prov["rng"] == aff.RNG_ID
    code, _ = code_from_json(code_to_json(apc.code))  # as loaded from a file
    rebuilt = planner_context(code, prov)
    assert rebuilt.code == apc.code and rebuilt.provenance() == prov
    for bad in ({"q": 5.9}, {"seed": "7"}, {"rng": "other-rng"}):
        with pytest.raises(ValueError):
            planner_context(code, {**prov, **bad})


def test_selection_concentration_smoke():
    q, p1 = 13, 0.3
    n = q * q
    sizes = [len(random_bac(q, 2, p1, 0.2, seed=s).selected) for s in range(40)]
    mean = sum(sizes) / len(sizes)
    assert abs(mean - p1 * n) / (p1 * n) < 0.15
