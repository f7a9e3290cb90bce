import itertools
import pickle
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from bacforge import (
    CodeSpec,
    GF2,
    RecoveryPlan,
    ResponseModel,
    certify_plan,
    check_subset_spanning,
    cyclic_certified_plan,
    cyclic_params,
    cyclic_shift_code,
    find_plan,
    good_vector_code,
    goodvec_certified_plan,
    greedy_plan,
    parity_code_k2,
    random_bac,
    verify_bac,
    verify_pir,
)
from bacforge.field import PrimeField
from bacforge.verify import all_batch_requests, normalize_request
from conftest import col
from oracles import naive_has_plan, naive_recovers

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


def test_parallel_sweep_matches_serial(c2_code):
    serial = verify_bac(c2_code, 4, LIN, jobs=1)
    parallel = verify_bac(c2_code, 4, LIN, jobs=2)
    assert serial.to_json_dict() == parallel.to_json_dict()


def test_check_subset_spanning(c2_code):
    assert check_subset_spanning(c2_code, 4)
    full = CodeSpec(GF2, 3, ((col(1, n=3), col(2, n=3), col(3, n=3)),))
    assert check_subset_spanning(full, 1)
    split = CodeSpec(GF2, 2, ((col(1, n=2),), (col(2, n=2),)))
    assert not check_subset_spanning(split, 2)
    # oracle for the pair checks on the 13-symbol code
    for pair in itertools.combinations(range(1, 6), 2):
        for i in range(1, 5):
            assert naive_recovers(c2_code, pair, i)


def test_pir_pass_implies_subset_spanning(c2_code, gv1_code, t4_code):
    for code, k in ((c2_code, 4), (gv1_code, 3), (t4_code, 7)):
        assert verify_pir(code, k, LIN).passed
        assert check_subset_spanning(code, k)


def test_normalize_request():
    assert normalize_request((3, 1, 2, 1), 4) == (1, 1, 2, 3)
    with pytest.raises(ValueError):
        normalize_request((5,), 4)


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
        return [weakref.ref(code) for code in (cyclic, goodvec, apc.code)]

    refs = used_codes()
    assert [ref() for ref in refs] == [None, None, None]
