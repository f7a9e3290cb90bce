import functools
import gc
import hashlib
import itertools
import json
import operator
import os
import pickle
import random
import resource
import sys
import time
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bacforge import (
    CodeSpec,
    GF2,
    RecoveryPlan,
    ResponseModel,
    certify_plan,
    check_subset_spanning,
    compose_repeat,
    cyclic_certified_plan,
    cyclic_params,
    cyclic_shift_code,
    find_plan,
    good_vector_2t1,
    good_vector_code,
    goodvec_certified_plan,
    greedy_plan,
    parity_code_k2,
    random_bac,
    serve_batch,
    verify_bac,
    verify_pir,
)
from bacforge import verify
from bacforge.field import Echelon, PrimeField
from bacforge.verify import (
    SpanEngine,
    _failures,
    _Frontier,
    all_batch_requests,
    bucket_indices,
    engine_for,
    normalize_request,
)
from conftest import col
from oracles import (
    naive_has_plan,
    naive_recovered,
    naive_recovers,
    naive_span,
    reference_certify_plan,
    reference_find_plan,
    reference_linear_part,
    reference_projection_part,
)

LIN = ResponseModel.LINEAR
PROJ = ResponseModel.PROJECTION


def reference_plan_1111():
    """The documented plan for request <1,1,1,1> on the 13-symbol code:
    three nodes return x1, node 4 computes x2+x3+x4, node 5 the full sum."""
    return RecoveryPlan(
        request=(1, 1, 1, 1),
        sets=(frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4, 5})),
        responses=((1, 0, 0), (1, 0, 0), (1, 0, 0), (1, 1, 1), (1,)),
        combos=(((1, 1),), ((2, 1),), ((3, 1),), ((4, 1), (5, 1))),
    )


def test_certify_reference_plan(c2_code):
    assert certify_plan(c2_code, (1, 1, 1, 1), reference_plan_1111(), LIN)


def test_certify_rejects_non_partition(c2_code):
    plan = reference_plan_1111()
    bad = RecoveryPlan(
        request=plan.request,
        sets=(frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4})),
        responses=plan.responses,
        combos=plan.combos[:3] + (((4, 1),),),
    )
    assert not certify_plan(c2_code, (1, 1, 1, 1), bad, LIN)  # bucket 5 uncovered


def test_certify_projection_plan(c1_code):
    # node 4 returns its stored x4, node 5 its stored x1+x4
    plan = RecoveryPlan(
        request=(1, 1, 1, 1),
        sets=(frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4, 5})),
        responses=((1, 0, 0), (1, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0)),
        combos=(((1, 1),), ((2, 1),), ((3, 1),), ((4, 1), (5, 1))),
    )
    assert certify_plan(c1_code, (1, 1, 1, 1), plan, PROJ)
    assert certify_plan(c1_code, (1, 1, 1, 1), plan, LIN)


def test_certify_projection_rejects_wide_response(c2_code):
    plan = reference_plan_1111()
    assert not certify_plan(c2_code, (1, 1, 1, 1), plan, PROJ)


def test_certify_shape_errors(c2_code):
    plan = reference_plan_1111()
    with pytest.raises(ValueError):
        certify_plan(
            c2_code,
            (1, 1, 1, 1),
            RecoveryPlan(plan.request, plan.sets, plan.responses[:4], plan.combos),
            LIN,
        )
    with pytest.raises(ValueError):
        certify_plan(
            c2_code,
            (1, 1, 1, 1),
            RecoveryPlan(
                plan.request,
                plan.sets,
                ((1, 0), (1, 0, 0), (1, 0, 0), (1, 1, 1), (1,)),
                plan.combos,
            ),
            LIN,
        )
    with pytest.raises(ValueError):  # combo outside its set
        certify_plan(
            c2_code,
            (1, 1, 1, 1),
            RecoveryPlan(plan.request, plan.sets, plan.responses, (((5, 1),),) + plan.combos[1:]),
            LIN,
        )


def test_find_plan_examples(c2_code, gv1_code):
    plan = find_plan(gv1_code, (1, 1, 1))
    assert set(plan.sets) == {frozenset({1}), frozenset({2, 4}), frozenset({3, 5})}

    plan = find_plan(c2_code, (1, 2, 3, 4))
    assert set(plan.sets) == {
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
        frozenset({4, 5}),
    }

    zero_bucket = CodeSpec(GF2, 2, (((0, 0),),))
    assert find_plan(zero_bucket, (1,)) is None


def test_find_plan_reproduces_published_narrative(c2_code):
    plan = find_plan(c2_code, (1, 1, 1, 1))
    assert plan.sets == reference_plan_1111().sets
    assert plan.responses == reference_plan_1111().responses


def test_find_plan_preconditions(c2_code):
    with pytest.raises(ValueError):
        find_plan(c2_code, (1,) * 6)  # k > m
    with pytest.raises(ValueError):
        find_plan(c2_code, (0,))
    with pytest.raises(ValueError):
        find_plan(c2_code, ())


def test_verify_bac_pass(c2_code, c1_code):
    report = verify_bac(c2_code, 4, LIN)
    assert report.passed and report.checked == 35
    report = verify_bac(c1_code, 4, PROJ)
    assert report.passed and report.checked == 35


def test_verify_bac_failure_witness(c2_code):
    truncated = CodeSpec(GF2, 4, c2_code.buckets[:4])
    report = verify_bac(truncated, 4, LIN)
    assert not report.passed
    assert report.failures[0] == ((1, 1, 1, 1), "no-partition")
    # oracle: with 4 buckets and 4 parts only singletons exist, and no
    # single bucket of the truncated code spans e1 four times over
    assert not naive_has_plan(truncated, (1, 1, 1, 1))
    # every witness, in lexicographic order
    failing = [req for req in all_batch_requests(4, 4) if not naive_has_plan(truncated, req)]
    assert len(failing) > 1
    assert report.failures == tuple((req, "no-partition") for req in failing)


def test_verify_bac_rejects_empty_buckets():
    code = CodeSpec(GF2, 2, (((1, 0), (0, 1)), ()))
    with pytest.raises(ValueError):
        verify_bac(code, 1, LIN)


def test_find_plan_tolerates_empty_buckets():
    # empty buckets arise transiently in composition; the search folds them
    # into a part with a zero response
    code = CodeSpec(GF2, 2, (((1, 0), (0, 1)), ()))
    plan = find_plan(code, (1,), LIN)
    assert plan is not None
    assert plan.sets == (frozenset({1, 2}),)
    assert certify_plan(code, (1,), plan, LIN)


def test_verify_pir(c2_code, t4_code):
    assert verify_pir(c2_code, 4, LIN).passed
    report = verify_pir(t4_code, 7, LIN)
    assert report.passed and report.checked == 17
    assert verify_pir(parity_code_k2(5), 2, LIN).passed


def test_verify_bac_implies_pir(c2_code):
    assert verify_bac(c2_code, 4, LIN).passed
    assert verify_pir(c2_code, 4, LIN).passed


def test_verify_report_json(c2_code):
    data = verify_bac(c2_code, 4, LIN).to_json_dict()
    assert data == {"status": "pass", "checked": 35, "failures": []}


def test_serial_k7_sweep_of_the_t4_code_within_budget(t4_vector):
    code = good_vector_code(t4_vector)  # a cold engine
    start = time.perf_counter()
    report = verify_bac(code, 7, LIN)
    elapsed = time.perf_counter() - start
    engine = code.cache["span-engines"][LIN]
    bases = len(engine._bases)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:  # a CI job's summary page shows the sweep's cost and memo growth
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        with open(summary, "a", encoding="utf-8") as fh:
            print(
                f"serial t=4 k=7 sweep: {report.status}, {elapsed:.2f} s, "
                f"test process peak RSS {rss:.1f} MB, {bases} cached bases, "
                f"{len(engine._reaches)} reaches, {len(engine._parts)} parts",
                file=fh,
            )
    assert report.passed and report.checked == 245157
    assert elapsed < 20.0, f"serial k=7 sweep took {elapsed:.1f} s"
    # only prefixes are cached, and only up to the first that spans a symbol
    assert bases < 2000


# sha256 of `json.dumps(report.to_json_dict())` for the k=8 sweep of the
# n=14 code of `good_vector_2t1(3)`, recorded with the depth-first search
# that the shared frontier replaced (it took about 85 s there)
_T3_K8_DIGEST = "6ffcf11a5e3d84ab76bc5ef1a6c091d50eff9b3fd4efe51e4bf2a4066fbca0a2"


def test_k8_sweep_of_the_t3_code_golden_within_budget():
    """A sweep that fails on many mixed requests: the frontier refutes them
    without searching the same leftover twice."""
    code = good_vector_code(good_vector_2t1(3))
    start = time.perf_counter()
    report = verify_bac(code, 8, LIN)
    elapsed = time.perf_counter() - start
    assert (report.status, report.checked, report.representatives, len(report.failures)) == (
        "fail",
        203490,
        14550,
        1477,
    )
    text = json.dumps(report.to_json_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == _T3_K8_DIGEST
    assert elapsed < 15.0, f"t=3 k=8 sweep took {elapsed:.1f} s"
    # `_reach` is asked of parts, not of every leftover the frontier makes
    assert len(code.cache["span-engines"][LIN]._reaches) < 10_000


def test_projection_sweep_keeps_no_prefix_basis(c1_code):
    """The projection regime decides parts by `part`: its engine keeps the
    empty basis and no `_reach` memo."""
    code = compose_repeat(c1_code, 5)
    assert verify_bac(code, 4, PROJ).passed
    engine = code.cache["span-engines"][PROJ]
    assert list(engine._bases) == [0] and not engine._reaches


def _wrong_solve(monkeypatch):
    """Make `Echelon.solve` drop the first nonzero coefficient it returns."""
    solve = Echelon.solve

    def wrong(self, vec):
        coeffs = solve(self, vec)
        if coeffs is None or not any(coeffs):
            return coeffs
        first = next(j for j, c in enumerate(coeffs) if c)
        return coeffs[:first] + (0,) + coeffs[first + 1 :]

    monkeypatch.setattr(Echelon, "solve", wrong)


@pytest.mark.parametrize("model", [LIN, PROJ])
def test_sweep_refuses_a_wrong_solve(monkeypatch, model):
    code = cyclic_shift_code(4, 4, 5)  # a fresh code: nothing certified yet
    _wrong_solve(monkeypatch)
    with pytest.raises(AssertionError, match="internal"):
        verify_bac(code, 4, model)


@pytest.mark.parametrize("model", [LIN, PROJ])
def test_engine_refuses_a_wrong_solve_where_it_is_made(monkeypatch, model):
    engine = SpanEngine(cyclic_shift_code(4, 4, 5), model)
    _wrong_solve(monkeypatch)
    with pytest.raises(AssertionError, match="internal"):
        engine.part(0b1, 0)


class _Credulous:
    """A span engine, as the search sees it, that takes every part to
    recover its symbol."""

    def __init__(self, engine):
        self.engine = engine

    def __getattr__(self, name):
        return getattr(self.engine, name)

    def recovers(self, mask, i0):
        return True


@pytest.mark.parametrize("model", [LIN, PROJ])
def test_sweep_refuses_a_last_part_that_does_not_recover(monkeypatch, c2_code, model):
    """A search that takes every part to recover its symbol claims a plan
    for (1, 1, 1, 1) whose last part, bucket 4, stores no x1; the sweep
    certifies the plan by the engine itself and refuses it."""
    truncated = CodeSpec(GF2, 4, c2_code.buckets[:4])  # fails on (1, 1, 1, 1)
    frontier = _Frontier.__init__
    monkeypatch.setattr(_Frontier, "__init__", lambda self, engine, m: frontier(self, _Credulous(engine), m))
    with pytest.raises(AssertionError, match="internal"):
        verify_bac(truncated, 4, model)


@pytest.mark.parametrize("model", [LIN, PROJ])
def test_search_refuses_a_frontier_part_that_does_not_recover(monkeypatch, model):
    """Bucket 3 stores x2 only, yet is offered first as a part for every
    symbol: the frontier must refuse it for x1 when it makes the entry, as
    the sweep certifies only the last part of a plan itself."""

    def build():
        return CodeSpec(GF2, 2, (((1, 0),), ((1, 0),), ((0, 1),)))

    minimal_sets = SpanEngine.minimal_sets
    monkeypatch.setattr(
        SpanEngine,
        "minimal_sets",
        lambda self, i0, size: (0b100,) * (size == 1) + minimal_sets(self, i0, size),
    )
    with pytest.raises(AssertionError, match="internal"):
        verify_bac(build(), 2, model)
    with pytest.raises(AssertionError, match="internal"):
        find_plan(build(), (1, 1), model)


def test_check_subset_spanning(c2_code):
    assert check_subset_spanning(c2_code, 4)
    full = CodeSpec(GF2, 3, ((col(1, n=3), col(2, n=3), col(3, n=3)),))
    assert check_subset_spanning(full, 1)
    split = CodeSpec(GF2, 2, ((col(1, n=2),), (col(2, n=2),)))
    assert not check_subset_spanning(split, 2)
    for k in (0, -3):  # no subset has more than m buckets
        with pytest.raises(ValueError, match="k must be >= 1"):
            check_subset_spanning(c2_code, k)
    # oracle for the pair checks on the 13-symbol code
    for pair in itertools.combinations(range(1, 6), 2):
        for i in range(1, 5):
            assert naive_recovers(c2_code, pair, i)


def test_pir_pass_implies_subset_spanning(c2_code, gv1_code, t4_code):
    for code, k in ((c2_code, 4), (gv1_code, 3), (t4_code, 7)):
        assert verify_pir(code, k, LIN).passed
        assert check_subset_spanning(code, k)


def test_normalize_request(c2_code):
    assert normalize_request((3, 1, 2, 1), 4) == (1, 1, 2, 3)
    assert normalize_request((np.int64(3), np.uint8(1)), 4) == (1, 3)
    with pytest.raises(ValueError):
        normalize_request((5,), 4)
    # indices are integers, as in Python indexing: nothing is truncated or parsed
    plan = find_plan(c2_code, (1, 2, 3, 4))
    for request in ((1.9, 2.2, "3", 4), (1.7, 2, 3, 4), (1, 2, 3, "4")):
        with pytest.raises(TypeError):
            find_plan(c2_code, request)
        with pytest.raises(TypeError):
            certify_plan(c2_code, request, plan)
        with pytest.raises(TypeError):
            serve_batch(c2_code, (0,) * c2_code.n, request, plan=plan)


def test_all_batch_requests_count():
    reqs = list(all_batch_requests(4, 4))
    assert len(reqs) == 35  # C(7, 4)
    assert reqs[0] == (1, 1, 1, 1) and reqs[-1] == (4, 4, 4, 4)


@st.composite
def tiny_code(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    buckets = []
    for _ in range(m):
        cols = draw(st.integers(0, 2))
        buckets.append(
            tuple(
                tuple(draw(st.integers(0, p - 1)) for _ in range(n)) for _ in range(cols)
            )
        )
    return CodeSpec(PrimeField(p), n, tuple(buckets))


@given(tiny_code(), st.data())
@settings(max_examples=60, deadline=None)
def test_find_plan_sound_and_complete(code, data):
    k = data.draw(st.integers(1, code.m))
    request = tuple(
        sorted(data.draw(st.integers(1, code.n)) for _ in range(k))
    )
    # warm the code's engine with other requests first
    for other in all_batch_requests(code.n, k):
        find_plan(code, other, LIN)
        find_plan(code, other, PROJ)
    fresh = CodeSpec(code.field, code.n, code.buckets)
    for model, projection in ((LIN, False), (PROJ, True)):
        plan = find_plan(code, request, model)
        assert (plan is not None) == naive_has_plan(code, request, projection)
        if plan is not None:
            assert certify_plan(code, request, plan, model)
        # a warm engine hands out the same plan as a cold one
        assert plan == find_plan(fresh, request, model)


@given(tiny_code(), st.data())
@settings(max_examples=40, deadline=None)
def test_projection_success_implies_linear(code, data):
    k = data.draw(st.integers(1, code.m))
    request = tuple(sorted(data.draw(st.integers(1, code.n)) for _ in range(k)))
    if find_plan(code, request, PROJ) is not None:
        assert find_plan(code, request, LIN) is not None


def test_code_cache_is_not_part_of_the_value(c2_code):
    code = CodeSpec(GF2, c2_code.n, c2_code.buckets)
    before = (pickle.dumps(code), hash(code), repr(code))
    assert verify_bac(code, 4, LIN).passed
    assert code.cache  # the engine is kept on the code
    assert (pickle.dumps(code), hash(code), repr(code)) == before
    assert code == c2_code
    assert pickle.loads(pickle.dumps(code)).cache == {}


def test_code_is_freed_after_use(t4_vector):
    def used_codes():
        cyclic = cyclic_shift_code(4, 4, 5)
        assert verify_bac(cyclic, 4, LIN).passed
        assert find_plan(cyclic, (1, 2, 3, 4), PROJ) is not None
        assert check_subset_spanning(cyclic, 4)
        cyclic_certified_plan(cyclic_params(4, 4, 5), cyclic, (1, 1, 2, 3))
        goodvec = good_vector_code(t4_vector)
        goodvec_certified_plan(t4_vector, goodvec, (1, 1, 2, 3, 5, 8, 13))
        assert verify_pir(goodvec, 7, LIN).passed
        apc = random_bac(5, 2, 1.0, 1.0, 7)
        greedy_plan(apc, (1, 2))
        # serving caches planner contexts and tables on the codes as well
        served = [
            (cyclic_shift_code(4, 4, 5), {"family": "cyclic", "n": 4, "k": 4, "m": 5}, (1, 1, 2, 3)),
            (good_vector_code(t4_vector), {"family": "goodvec", "t": 4, "v": list(t4_vector.entries)},
             (1, 1, 2, 3, 5, 8, 13)),
            (random_bac(5, 2, 1.0, 1.0, 7).code, apc.provenance(), (1, 25)),
        ]
        for code, prov, req in served:
            data = (1,) * code.n
            for _ in range(2):
                rep = serve_batch(code, data, req, planner="certified", provenance=prov)
                assert rep.recovered == (1,) * len(req)
            assert "planner-provenance" in code.cache
        codes = [cyclic, goodvec, apc.code] + [code for code, _, _ in served]
        return [weakref.ref(code) for code in codes]

    # with the cyclic collector off, a code kept alive by a reference cycle
    # stays alive, so the test does not depend on when a collection runs
    enabled = gc.isenabled()
    gc.disable()
    try:
        refs = used_codes()
        assert [ref() for ref in refs] == [None] * 6
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize(
    "use, model",
    [(use, model) for use in ("find_plan", "verify_bac", "serve_batch") for model in (LIN, PROJ)]
    + [("check_subset_spanning", LIN)],
)
def test_engine_is_freed_with_its_code(use, model):
    """No reference cycle holds a span engine: with the cyclic collector off
    it goes when its code goes, after each entry that searches with it."""
    calls = {
        "find_plan": lambda code: find_plan(code, (1, 1, 2, 3), model),
        "verify_bac": lambda code: verify_bac(code, 4, model),
        "serve_batch": lambda code: serve_batch(code, (1, 0, 1, 1), (1, 2, 3, 4), model=model),
        "check_subset_spanning": lambda code: check_subset_spanning(code, 4),
    }

    def used_engine():
        code = cyclic_shift_code(4, 4, 5)
        assert calls[use](code)
        return weakref.ref(code.cache["span-engines"][model]), weakref.ref(code)

    enabled = gc.isenabled()
    gc.disable()
    try:
        engine, code = used_engine()
        assert code() is None and engine() is None
    finally:
        if enabled:
            gc.enable()


@st.composite
def small_code(draw):
    """Codes with 4..7 buckets of 0..2 columns over F_2, F_3 or F_5, n <= 4."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(4, 7))
    column = st.tuples(*[st.integers(0, p - 1)] * n)
    buckets = draw(st.lists(st.lists(column, max_size=2).map(tuple), min_size=m, max_size=m))
    return CodeSpec(PrimeField(p), n, tuple(buckets))


@given(small_code(), st.data())
@settings(max_examples=60, deadline=None)
def test_find_plan_matches_reference_search(code, data):
    k = data.draw(st.integers(1, min(code.m, 4)))
    request = tuple(sorted(data.draw(st.integers(1, code.n)) for _ in range(k)))
    for model, projection in ((LIN, False), (PROJ, True)):
        plan = find_plan(code, request, model)
        # the same plan, not just the same decision, as trying every subset
        assert plan == reference_find_plan(code, request, model)
        assert (plan is not None) == naive_has_plan(code, request, projection)


@given(small_code(), st.data())
@settings(max_examples=80, deadline=None)
def test_linear_answers_match_the_whole_mask_reference(code, data):
    """In the linear regime `recovers` and `part` read the basis
    of the shortest prefix of the mask that spans the symbol; each answer
    equals the one of the solve over all of the mask's columns, whatever the
    engine was asked before."""
    engine = SpanEngine(code, LIN)
    query = st.tuples(st.integers(0, (1 << code.m) - 1), st.integers(0, code.n - 1))
    for mask, i0 in data.draw(st.lists(query, min_size=1, max_size=30)):
        expected = reference_linear_part(code, mask, i0)
        spans = naive_recovers(code, [ell0 + 1 for ell0 in bucket_indices(mask)], i0 + 1)
        assert engine.recovers(mask, i0) == (expected is not None) == spans
        assert engine.part(mask, i0) == expected, (mask, i0)


@given(small_code(), st.data())
@settings(max_examples=60, deadline=None)
def test_projection_answers_match_the_earlier_dfs(code, data):
    """In the projection regime one warm engine, asked in any order, hands
    out the part of the earlier DFS that rebuilt its joint basis at every
    node, and `recovers` is brute-force projection recovery."""
    engine = SpanEngine(code, PROJ)
    query = st.tuples(st.integers(0, (1 << code.m) - 1), st.integers(0, code.n - 1))
    for mask, i0 in data.draw(st.lists(query, min_size=1, max_size=30)):
        expected = reference_projection_part(code, mask, i0)
        buckets = [ell0 + 1 for ell0 in bucket_indices(mask)]
        assert engine.part(mask, i0) == expected, (mask, i0)
        assert engine.recovers(mask, i0) == naive_recovers(code, buckets, i0 + 1, projection=True)


@st.composite
def stored_code(draw):
    """Codes with 2..5 buckets of 1..2 columns over F_2, F_3 or F_5, n <= 3:
    no empty buckets, as the sweeps require."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(2, 5))
    column = st.tuples(*[st.integers(0, p - 1)] * n)
    buckets = draw(
        st.lists(st.lists(column, min_size=1, max_size=2).map(tuple), min_size=m, max_size=m)
    )
    return CodeSpec(PrimeField(p), n, tuple(buckets))


@given(stored_code(), st.integers(1, 3), st.randoms(use_true_random=False))
@example(CodeSpec(GF2, 2, (((1, 0),), ((1, 0),), ((0, 1),))), 2, random.Random(0))  # fails on (2, 2)
@settings(max_examples=60, deadline=None)
def test_sweep_verdicts_match_find_plan_and_the_oracle(code, k, rng):
    """Verdicts agree with `find_plan` and the oracle.  One frontier run
    over the requests in a drawn order, so that the prefix a request shares
    with the one before it breaks at every depth, finds the failures of the
    lexicographic order; another, over the requests of every size up to k
    in a drawn order, finds the plans of `find_plan`'s fresh frontiers."""
    k = min(k, code.m)
    requests = list(all_batch_requests(code.n, k))
    shuffled = rng.sample(requests, len(requests))
    mixed = [req for size in range(1, k + 1) for req in all_batch_requests(code.n, size)]
    rng.shuffle(mixed)
    for model, projection in ((LIN, False), (PROJ, True)):
        failed = {req for req, _ in verify_bac(code, k, model).failures}
        fresh = CodeSpec(code.field, code.n, code.buckets)
        for req in requests:
            assert (req in failed) == (find_plan(fresh, req, model) is None), (req, model)
            assert (req in failed) != naive_has_plan(code, req, projection), (req, model)
        reordered = CodeSpec(code.field, code.n, code.buckets)
        assert sorted(_failures(reordered, model, shuffled)) == sorted(
            _failures(CodeSpec(code.field, code.n, code.buckets), model, requests)
        )
        frontier = _Frontier(engine_for(reordered, model), code.m)
        for req in mixed:
            masks, plan = frontier.first_plan(req), find_plan(fresh, req, model)
            parts = masks and tuple(frozenset(ell0 + 1 for ell0 in bucket_indices(mask)) for mask in masks)
            assert parts == (plan and plan.sets), (req, model)


@given(small_code(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_minimal_sets_are_the_brute_force_antichain(code, descending):
    m = code.m
    subsets = [s for size in range(1, m + 1) for s in itertools.combinations(range(1, m + 1), size)]
    for model, projection in ((LIN, False), (PROJ, True)):
        engine = SpanEngine(code, model)
        recovered = {s: naive_recovered(code, s, projection) for s in subsets}
        symbols = range(1, code.n + 1)
        # the levels are built lazily; the order of the queries must not matter
        for i in reversed(symbols) if descending else symbols:
            recovering = [set(s) for s in subsets if i in recovered[s]]
            for size in sorted(range(m + 2), reverse=descending):
                expected = [
                    s
                    for s in itertools.combinations(range(1, m + 1), size)
                    if set(s) in recovering and not any(r < set(s) for r in recovering)
                ]
                got = [
                    tuple(ell0 + 1 for ell0 in bucket_indices(mask))
                    for mask in engine.minimal_sets(i - 1, size)
                ]
                assert got == expected, (i, size, model)


@given(small_code(), st.data())
@settings(max_examples=60, deadline=None)
def test_subset_spanning_matches_the_brute_force_span(code, data):
    """`check_subset_spanning` holds iff every (m-k+1)-subset's columns
    span all of F_p^n, counted by enumerating the span (the combinations of
    `naive_rank` would number up to 5^14 here)."""
    k = data.draw(st.integers(1, code.m))
    p, n = code.field.p, code.n
    expected = all(
        len(naive_span([c for ell in subset for c in code.buckets[ell]], p, n)) == p**n
        for subset in itertools.combinations(range(code.m), code.m - k + 1)
    )
    assert check_subset_spanning(code, k) == expected


@pytest.mark.parametrize(
    "name, model",
    # the projection levels of the (17,85) code take seconds to build, so
    # that code runs in the linear regime only
    [("affine-7", LIN), ("affine-7", PROJ), ("goodvec-17", LIN)],
)
def test_levels_make_one_basis_per_subset_whose_smaller_subsets_miss_a_symbol(name, model, t4_code, monkeypatch):
    """Level s makes one annihilator basis (`field.annihilator`, one call
    per child) per s-subset whose every (s-1)-subset is recorded (misses a
    symbol that some (s-1)-subset misses) and whose (s-1)-subsets together
    miss such a symbol, and no other; once every symbol is closed no basis
    is held.  The brute force takes every subset's spanned symbols from its
    own `Echelon` and, in the projection regime, its served ones from
    another engine's parts."""
    code = random_bac(7, 2, 1.0, 1.0, 11).code if name == "affine-7" else t4_code
    engine, m, everything = SpanEngine(code, model), code.m, (1 << code.n) - 1
    made = [0] * (m + 1)
    annihilator = verify.annihilator

    def spy(*args):
        if sys._getframe(1).f_code is SpanEngine._grow.__code__:
            made[len(engine._levels)] += 1
        return annihilator(*args)

    monkeypatch.setattr(verify, "annihilator", spy)
    for size in range(m + 1):
        for i0 in range(code.n):
            engine.minimal_sets(i0, size)
    assert engine._open == 0 and not engine._level_bases

    other = SpanEngine(code, model)
    expected, below = [0], {0: (0, Echelon(code.field, code.n))}
    for size in range(1, m + 1):
        open_ = functools.reduce(operator.or_, (everything & ~served for served, _ in below.values()))
        level = [sum(1 << ell0 for ell0 in s) for s in itertools.combinations(range(m), size)]

        def made_at_level(mask):
            served = [below[mask ^ 1 << ell0][0] for ell0 in bucket_indices(mask)]
            together = functools.reduce(operator.or_, served)
            return all(s & open_ != open_ for s in served) and together & open_ != open_

        expected.append(sum(map(made_at_level, level)))
        if not open_:
            break
        grown = {}
        for mask in level:
            top = mask.bit_length() - 1
            ech = below[mask ^ 1 << top][1].copy()
            ech.extend(code.buckets[top])
            served = sum(1 << i0 for i0 in range(code.n) if ech.contains_unit(i0))
            if model is PROJ:
                # serving is monotone: only what no smaller subset serves is asked
                known = functools.reduce(operator.or_, (below[mask ^ 1 << b][0] for b in bucket_indices(mask)))
                new = [i0 for i0 in bucket_indices(served & ~known) if other.part(mask, i0) is not None]
                served = known | sum(1 << i0 for i0 in new)
            grown[mask] = (served, ech)
        below = grown
    assert made == expected + [0] * (m + 1 - len(expected))


def _code_c1(p):
    """The (4, 14, 4, 5) projection code over F_p (see conftest.c1_code)."""
    n = 4
    return CodeSpec(
        PrimeField(p),
        n,
        (
            (col(1, n=n), col(2, n=n), col(3, n=n)),
            (col(1, n=n), col(2, n=n), col(4, n=n)),
            (col(1, n=n), col(3, n=n), col(4, n=n)),
            (col(2, n=n), col(3, n=n), col(4, n=n)),
            (col(1, 4, n=n), col(2, 3, n=n)),
        ),
    )


def _with(plan, sets=None, responses=None, combos=None):
    return RecoveryPlan(
        plan.request,
        plan.sets if sets is None else tuple(sets),
        plan.responses if responses is None else tuple(responses),
        plan.combos if combos is None else tuple(combos),
    )


@pytest.mark.parametrize("p", [2, 3])
def test_certify_negative_cases(p):
    code = _code_c1(p)
    req = (1, 1, 1, 1)
    plan = find_plan(code, req, PROJ)
    assert plan.sets[-1] == frozenset({4, 5})  # x1 = (x1 + x4) - x4
    assert certify_plan(code, req, plan, PROJ) and certify_plan(code, req, plan, LIN)
    sets, combos, responses = list(plan.sets), list(plan.combos), list(plan.responses)

    for bad in (6, 0):
        with pytest.raises(ValueError, match="out of range"):
            certify_plan(code, req, _with(plan, sets=[sets[0] | {bad}] + sets[1:]), LIN)
    # bucket 5 in two parts
    assert not certify_plan(code, req, _with(plan, sets=[sets[0] | {5}] + sets[1:]), LIN)
    # bucket 5 in none
    uncovered = _with(plan, sets=sets[:3] + [frozenset({4})], combos=combos[:3] + [((4, 1),)])
    assert not certify_plan(code, req, uncovered, LIN)
    # a set given as a list that names bucket 1 twice is no set
    assert not certify_plan(code, req, _with(plan, sets=[[1, 1]] + sets[1:]), LIN)
    # bucket 1 in two parts and bucket 2 in none: the sizes add up to m
    # and bucket 1 serves x1 each time, so only the union tells
    shared = _with(plan, sets=[sets[0], sets[0]] + sets[2:], combos=[combos[0], combos[0]] + combos[2:])
    assert sets[0] == frozenset({1}) and not certify_plan(code, req, shared, LIN)
    # an empty part, its buckets merged into another
    empty = _with(
        plan,
        sets=[frozenset(), sets[1] | sets[0]] + sets[2:],
        combos=[(), combos[1] + combos[0]] + combos[2:],
    )
    assert not certify_plan(code, req, empty, LIN)
    # a non-unit response on a bucket of a part but outside its combo
    served = find_plan(code, (1, 2), PROJ)
    *first, last = served.combos
    assert last[-1] == (5, 1) and not any(served.responses[4])
    outside = _with(
        served, responses=served.responses[:4] + ((1, 1),), combos=first + [last[:-1]]
    )
    assert certify_plan(code, (1, 2), outside, LIN) and not certify_plan(code, (1, 2), outside, PROJ)
    # one part too few or too many
    assert not certify_plan(code, req + (2,), plan, LIN)
    merged = _with(plan, sets=[sets[0] | sets[1]] + sets[2:], combos=[combos[0] + combos[1]] + combos[2:])
    assert not certify_plan(code, req, merged, LIN)
    # each response entry flipped in turn
    for ell0, resp in enumerate(responses):
        for s in range(len(resp)):
            flipped = list(resp)
            flipped[s] = (flipped[s] + 1) % p
            changed = responses[:ell0] + [tuple(flipped)] + responses[ell0 + 1 :]
            assert not certify_plan(code, req, _with(plan, responses=changed), LIN)
    # non-unit projection responses: two stored symbols at once, and (over
    # F_3) twice a stored symbol in a plan that is valid in the linear regime
    wide = responses[:4] + [(1, 1)]
    assert not certify_plan(code, req, _with(plan, responses=wide), PROJ)
    if p == 3:
        scaled = responses[:3] + [(0, 0, 2), (2, 0)]  # 2 * the valid plan's last part
        half = [combos[0], combos[1], combos[2], ((4, combos[3][0][1] * 2 % 3), (5, 2))]
        doubled = _with(plan, responses=scaled, combos=half)
        assert certify_plan(code, req, doubled, LIN)
        assert not certify_plan(code, req, doubled, PROJ)


def _mutant(plan, code, draw):
    """One drawn change to a plan: a response entry flipped, a combo
    coefficient changed, a bucket moved to another set, one bucket in two
    sets and another in none, sets merged, emptied or dropped, a bucket
    that leaves its combo but not its set answering a drawn vector, a bucket
    index out of range, a response of the wrong length; or none."""
    p, m, k = code.field.p, code.m, len(plan.sets)
    sets, combos, responses = list(plan.sets), list(plan.combos), list(plan.responses)
    kind = draw(st.sampled_from(
        ["none", "flip", "coefficient", "move", "swap", "merge", "empty", "drop", "outside", "range", "length"]
    ))
    stored = [ell0 for ell0, r in enumerate(responses) if r]
    if kind == "flip" and stored:
        ell0 = draw(st.sampled_from(stored))
        s = draw(st.integers(0, len(responses[ell0]) - 1))
        flipped = list(responses[ell0])
        flipped[s] = (flipped[s] + draw(st.integers(1, p - 1))) % p
        responses[ell0] = tuple(flipped)
    elif kind == "coefficient":
        j = draw(st.integers(0, k - 1))
        if combos[j]:
            idx = draw(st.integers(0, len(combos[j]) - 1))
            ell, c = combos[j][idx]
            changed = (ell, (c + draw(st.integers(1, p))) % p)
            combos[j] = combos[j][:idx] + (changed,) + combos[j][idx + 1 :]
    elif kind == "move" and k > 1:
        j, to = draw(st.permutations(range(k)))[:2]
        ell = draw(st.sampled_from(sorted(sets[j])))
        sets[j], sets[to] = sets[j] - {ell}, sets[to] | {ell}
        if draw(st.booleans()):  # its combo entry moves along
            entry = [e for e in combos[j] if e[0] == ell]
            combos[j] = tuple(e for e in combos[j] if e[0] != ell)
            combos[to] = tuple(sorted(combos[to] + tuple(entry)))
    elif kind == "swap" and k > 1:  # one bucket in two sets, another in none
        j, to = draw(st.permutations(range(k)))[:2]
        ell, gone = draw(st.sampled_from(sorted(sets[j]))), draw(st.sampled_from(sorted(sets[to])))
        sets[to] = sets[to] - {gone} | {ell}
        combos[to] = tuple(e for e in combos[to] if e[0] != gone)
    elif kind in ("merge", "empty") and k > 1:
        j, to = draw(st.permutations(range(k)))[:2]
        sets[to], combos[to] = sets[to] | sets[j], tuple(sorted(combos[to] + combos[j]))
        if kind == "merge":
            del sets[j], combos[j]
        else:
            sets[j], combos[j] = frozenset(), ()
    elif kind == "drop":
        j = draw(st.integers(0, k - 1))
        del sets[j], combos[j]
    elif kind == "outside":  # a bucket leaves its combo, not its set, and answers a drawn vector
        j = draw(st.integers(0, k - 1))
        ell = draw(st.sampled_from(sorted(sets[j])))
        combos[j] = tuple(e for e in combos[j] if e[0] != ell)
        size = len(responses[ell - 1])
        responses[ell - 1] = tuple(draw(st.lists(st.integers(0, 2 * p), min_size=size, max_size=size)))
    elif kind == "range":
        j = draw(st.integers(0, k - 1))
        sets[j] = sets[j] | {draw(st.sampled_from([0, -1, m + 1, m + 2]))}
    elif kind == "length":
        ell0 = draw(st.integers(0, m - 1))
        responses[ell0] = responses[ell0][:-1] if responses[ell0] and draw(st.booleans()) else responses[ell0] + (0,)
    return _with(plan, sets=sets, responses=responses, combos=combos)


def _verdict(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@given(small_code(), st.data())
@settings(max_examples=300, deadline=None)
def test_certify_plan_matches_the_reference_on_mutated_plans(code, data):
    """`certify_plan`, which decides through the planners' partition and
    part checks, gives the earlier whole-plan check's verdict, or raises
    its ValueError, on plans `find_plan` hands out and on drawn mutants of
    them, in both regimes over F_2, F_3 and F_5."""
    k = data.draw(st.integers(1, min(code.m, 4)))
    req = tuple(sorted(data.draw(st.integers(1, code.n)) for _ in range(k)))
    model = data.draw(st.sampled_from([LIN, PROJ]))
    plan = find_plan(code, req, model)
    if plan is None:
        req, plan = req[:1], find_plan(code, req[:1], LIN)
    assume(plan is not None)
    mutant = _mutant(plan, code, data.draw)
    for regime in (LIN, PROJ):
        expected = _verdict(reference_certify_plan, code, req, mutant, regime)
        assert _verdict(certify_plan, code, req, mutant, regime) == expected, (mutant, regime)
