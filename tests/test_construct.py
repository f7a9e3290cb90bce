import gc
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from bacforge import (
    GF2,
    ResponseModel,
    certify_plan,
    codes_equal,
    compose_concat,
    compose_parallel,
    compose_repeat,
    cyclic_certified_plan,
    cyclic_params,
    cyclic_shift_code,
    enumerate_good_vectors,
    find_plan,
    good_vector,
    good_vector_2t1,
    good_vector_code,
    goodvec_certified_plan,
    is_good_vector,
    max_batch_k,
    parity_code_k2,
    single_request_code,
    total_length,
    trivial_replication,
    uniform_code,
    verify_bac,
)
from bacforge.construct import GoodVector, canonical_recovery_sets
from bacforge.field import PrimeField
from conftest import col
from oracles import reference_is_good_vector


def test_trivial_replication():
    code = trivial_replication(2, 2)
    assert code.m == 2 and total_length(code) == 4
    assert code.buckets[0] == (col(1, n=2), col(2, n=2))
    assert trivial_replication(1, 1).buckets == ((col(1, n=1),),)
    code = trivial_replication(3, 2)
    assert total_length(code) == 6
    assert verify_bac(code, 2).passed


def test_single_request_code():
    code = single_request_code(4, 2)
    assert code.buckets == (
        (col(1, n=4), col(3, n=4)),
        (col(2, n=4), col(4, n=4)),
    )
    assert all(len(b) == 1 for b in single_request_code(3, 3).buckets)
    code = single_request_code(5, 2)
    assert total_length(code) == 5
    assert verify_bac(code, 1).passed
    with pytest.raises(ValueError):
        single_request_code(3, 4)


def test_parity_code():
    code = parity_code_k2(5)
    assert (code.n, total_length(code), code.m) == (4, 5, 5)
    assert verify_bac(code, 2).passed
    code3 = parity_code_k2(3)
    assert (code3.n, total_length(code3), code3.m) == (2, 3, 3)
    assert verify_bac(code3, 2).passed
    plan = find_plan(parity_code_k2(4), (1, 1))
    assert set(plan.sets) == {frozenset({1}), frozenset({2, 3, 4})}
    with pytest.raises(ValueError):
        parity_code_k2(2)


def test_cyclic_matches_reference_table(c2_code, c2_table):
    assert codes_equal(c2_code, c2_table)
    assert total_length(c2_code) == 13


def test_cyclic_sum_buckets_at_n8():
    code = cyclic_shift_code(8, 4, 6)
    assert total_length(code) == 24
    expected_sums = tuple(col(b, b + 4, n=8) for b in (1, 2, 3, 4))
    assert code.buckets[4] == expected_sums
    assert code.buckets[5] == expected_sums


def test_cyclic_small_instance():
    code = cyclic_shift_code(4, 2, 3)
    assert total_length(code) == 6
    assert verify_bac(code, 2).passed


@pytest.mark.parametrize(
    "n,k,m,msg",
    [
        (5, 4, 5, "divide"),
        (4, 4, 4, "k < m"),
        (4, 4, 8, "k < m"),
        (9, 3, 5, "divide"),
    ],
)
def test_cyclic_precondition_errors(n, k, m, msg):
    with pytest.raises(ValueError, match=msg):
        cyclic_shift_code(n, k, m)


@pytest.mark.parametrize("n,k,m", [(4, 4, 5), (8, 4, 6), (6, 3, 4), (12, 6, 9)])
def test_cyclic_coverage_invariant(n, k, m):
    params = cyclic_params(n, k, m)
    for i in range(1, n + 1):
        omitted_count = sum(1 for ell in range(1, k + 1) if i in params.omitted(ell))
        assert omitted_count == m - k


def test_cyclic_certified_plan_identical_requests(c2_code):
    params = cyclic_params(4, 4, 5)
    plan = cyclic_certified_plan(params, c2_code, (1, 1, 1, 1))
    assert certify_plan(c2_code, (1, 1, 1, 1), plan)
    singletons = [s for s in plan.sets if len(s) == 1]
    assert len(singletons) == 3
    for s in singletons:
        (ell,) = s
        assert col(1, n=4) in c2_code.buckets[ell - 1]


def test_cyclic_certified_plan_distinct_requests(c2_code):
    params = cyclic_params(4, 4, 5)
    plan = cyclic_certified_plan(params, c2_code, (1, 2, 3, 4))
    assert certify_plan(c2_code, (1, 2, 3, 4), plan)
    # every request is answered by a stored copy; the sum bucket contributes nothing
    assert plan.responses[4] == (0,)


def test_cyclic_certified_plan_uses_both_sum_buckets():
    code = cyclic_shift_code(8, 4, 6)
    params = cyclic_params(8, 4, 6)
    plan = cyclic_certified_plan(params, code, (1, 1, 1, 1))
    assert certify_plan(code, (1, 1, 1, 1), plan)
    assert any(v for v in plan.responses[4]) and any(v for v in plan.responses[5])


def test_cyclic_certified_plan_exhaustive(c2_code):
    params = cyclic_params(4, 4, 5)
    for req in itertools.combinations_with_replacement(range(1, 5), 4):
        plan = cyclic_certified_plan(params, c2_code, req)
        assert certify_plan(c2_code, req, plan)


def test_cyclic_certified_plan_leaves_no_garbage(c2_code):
    """A planner call makes no reference cycle: with the cyclic collector
    off and every unreachable object it finds saved (`gc.DEBUG_SAVEALL`),
    a collection after the calls finds nothing.  The first call, which
    builds the code's tables, runs before."""
    params = cyclic_params(4, 4, 5)
    cyclic_certified_plan(params, c2_code, (1, 1, 1, 1))
    enabled, flags, saved = gc.isenabled(), gc.get_debug(), gc.garbage[:]
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        del gc.garbage[:]
        for req in itertools.combinations_with_replacement(range(1, 5), 4):
            assert cyclic_certified_plan(params, c2_code, req) is not None
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = saved
        if enabled:
            gc.enable()


def test_enumerate_good_vectors_leaves_no_garbage():
    """The backtracking makes no reference cycle: with the cyclic collector
    off and every unreachable object it finds saved (`gc.DEBUG_SAVEALL`),
    a collection after the calls finds nothing."""
    enabled, flags, saved = gc.isenabled(), gc.get_debug(), gc.garbage[:]
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        del gc.garbage[:]
        assert len(enumerate_good_vectors(4, 8)) == 6
        assert len(enumerate_good_vectors(4, 9)) > 0
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = saved
        if enabled:
            gc.enable()


def test_cyclic_certified_plan_rejects_mismatched_code(c2_code):
    params = cyclic_params(8, 4, 6)
    with pytest.raises(ValueError):
        cyclic_certified_plan(params, c2_code, (1, 1, 1, 1))


def test_uniform_reference_table():
    code = uniform_code(20, 4)
    assert code.bucket_sizes == (13, 13, 13, 13, 13)
    assert total_length(code) == 65


def test_uniform_small():
    code = uniform_code(6, 2)
    assert code.bucket_sizes == (3, 3, 3)
    assert total_length(code) == 9
    assert verify_bac(code, 2).passed


def test_uniform_precondition():
    with pytest.raises(ValueError):
        uniform_code(10, 4)


def test_is_good_vector():
    assert is_good_vector((1, 1), 1)
    assert is_good_vector((2, 3, 2, 4, 3, 1, 1, 4), 4)
    assert not is_good_vector((1, 2, 1, 2), 2)
    assert not is_good_vector((1, 1), 2)
    assert not is_good_vector((1, 1, 0, 0), 1)
    assert not is_good_vector((), 1)
    assert not is_good_vector(("a", "b"), 1)


def test_is_good_vector_refuses_non_integer_entries():
    assert not is_good_vector(["1", "1"], 1)
    assert not is_good_vector([1.0, 1.0], 1)
    assert is_good_vector([True, True], 1)


def test_good_vector_refuses_non_integer_entries():
    with pytest.raises(TypeError):
        good_vector([1.7, 1.2])
    with pytest.raises(TypeError):
        good_vector(["1", "1"])


def test_good_vector_class_refuses_non_integer_entries():
    with pytest.raises(TypeError):
        GoodVector(1, (1.0, 1.0))
    with pytest.raises(TypeError):
        GoodVector(1, ("1", "1"))
    assert GoodVector(1, [1, 1]).entries == (1, 1)


def test_enumerate_good_vectors_refuses_a_float_t_up_front():
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        enumerate_good_vectors(2.0, 4)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        enumerate_good_vectors(2, 4.0)


def test_enumerate_good_vectors():
    assert enumerate_good_vectors(1, 2) == [(1, 1)]
    assert enumerate_good_vectors(2, 4) == []
    assert enumerate_good_vectors(3, 6) == []
    with pytest.raises(ValueError):
        enumerate_good_vectors(2, 3)
    vecs = enumerate_good_vectors(2, 5)
    assert (1, 1, 2, 0, 2) in vecs
    assert all(is_good_vector(v, 2) for v in vecs)
    assert vecs == sorted(vecs)


@st.composite
def _good_vector_mutants(draw):
    """(entries, t): a good vector for t <= 4 from `enumerate_good_vectors`,
    kept as it is or with two entries swapped, one entry shifted, one set
    out of range or one replaced by a non-integer, checked against its own
    t or a neighbouring one."""
    t = draw(st.integers(1, 4))
    vectors = enumerate_good_vectors(t, 2 * t) + enumerate_good_vectors(t, 2 * t + 1)
    entries = list(draw(st.sampled_from(vectors)))
    i = draw(st.integers(0, len(entries) - 1))
    mutation = draw(st.sampled_from(["none", "swap", "shift", "range", "type"]))
    if mutation == "swap":
        j = draw(st.integers(0, len(entries) - 1))
        entries[i], entries[j] = entries[j], entries[i]
    elif mutation == "shift":
        entries[i] += draw(st.sampled_from([-2, -1, 1, 2]))
    elif mutation == "range":
        entries[i] = draw(st.sampled_from([-1, t + 1, 10**9]))
    elif mutation == "type":
        entries[i] = draw(st.sampled_from([1.5, float(entries[i]), str(entries[i]), "x", None, True]))
    return entries, t + draw(st.sampled_from([0, 0, 0, -1, 1]))


@settings(max_examples=400, deadline=None)
@given(_good_vector_mutants())
def test_is_good_vector_matches_the_rescanning_oracle(case):
    entries, t = case
    assert is_good_vector(entries, t) == reference_is_good_vector(entries, t)


def test_is_good_vector_accepts_every_enumerated_vector():
    for t in range(1, 5):
        for length in (2 * t, 2 * t + 1):
            for v in enumerate_good_vectors(t, length):
                assert is_good_vector(v, t) and reference_is_good_vector(v, t)


def test_good_vector_2t1_explicit_values():
    assert good_vector_2t1(2).entries == (1, 1, 2, 0, 2)
    assert good_vector_2t1(1).entries == (1, 1, 0)
    assert good_vector_2t1(4).entries == (3, 1, 1, 3, 4, 2, 0, 2, 4)


def test_good_vector_last_occurrence(t4_vector):
    assert t4_vector.last_occurrence == {1: 7, 2: 3, 3: 5, 4: 8}


def test_good_vector_rejects_invalid():
    with pytest.raises(ValueError):
        good_vector((1, 2, 1, 2))


def test_good_vector_code_t1_table(gv1_code):
    assert (gv1_code.n, total_length(gv1_code)) == (5, 10)
    assert gv1_code.buckets[0] == (col(1, n=5), col(3, 4, n=5))
    assert gv1_code.buckets[1] == (col(2, n=5), col(4, 5, n=5))


def test_good_vector_code_t2_table():
    code = good_vector_code(good_vector((1, 1, 2, 0, 2)))
    assert (code.n, code.m, total_length(code)) == (10, 10, 30)
    assert code.buckets[0] == (col(1, n=10), col(7, 8, n=10), col(4, 6, n=10))


def test_good_vector_code_t4(t4_code):
    assert (t4_code.n, total_length(t4_code), t4_code.m) == (17, 85, 17)


def test_max_batch_k():
    def condition(k, t):
        return all(2 * k <= 2 * t + d + -(-k // d) for d in range(1, k + 1))

    for t in (1, 2, 3, 4, 6):
        bound = max_batch_k(t)
        assert condition(bound.exact, t)
        assert all(not condition(k, t) for k in range(bound.exact + 1, 2 * t + 2))
        assert bound.closed_form <= bound.exact
    assert max_batch_k(1).exact == 3
    assert max_batch_k(4).exact == 7
    assert max_batch_k(4).closed_form == 6


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_canonical_sets_pairwise_disjoint(t):
    for v, n in ((good_vector_2t1(t), 4 * t + 2),) + (
        ((good_vector((2, 3, 2, 4, 3, 1, 1, 4)), 17),) if t == 4 else ()
    ):
        for i in range(1, n + 1):
            sets = [s for s, _ in canonical_recovery_sets(v, n, i)]
            assert len(sets) == 2 * t + 1
            union = set()
            for s in sets:
                assert not (s & union)
                union |= s


def test_goodvec_certified_plan_examples(gv1_vector, gv1_code):
    plan = goodvec_certified_plan(gv1_vector, gv1_code, (1, 1, 1))
    assert set(plan.sets) == {frozenset({1}), frozenset({2, 4}), frozenset({3, 5})}
    assert certify_plan(gv1_code, (1, 1, 1), plan)

    plan = goodvec_certified_plan(gv1_vector, gv1_code, (1, 1, 2))
    assert plan.sets == (frozenset({1}), frozenset({3, 5}), frozenset({2, 4}))
    assert certify_plan(gv1_code, (1, 1, 2), plan)


def test_goodvec_certified_plan_respects_bound(gv1_vector, gv1_code):
    with pytest.raises(ValueError):
        goodvec_certified_plan(gv1_vector, gv1_code, (1, 1, 1, 1))


def test_goodvec_certified_plan_random_sample(t4_vector, t4_code):
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(2024))
    for _ in range(300):
        req = tuple(sorted(int(x) for x in rng.integers(1, 18, size=7)))
        plan = goodvec_certified_plan(t4_vector, t4_code, req)
        assert certify_plan(t4_code, req, plan)


def test_goodvec_certified_plan_rejects_foreign_code(t4_vector, gv1_code):
    with pytest.raises(ValueError):
        goodvec_certified_plan(t4_vector, gv1_code, (1,) * 7)


def test_goodvec_odd_length_vector_end_to_end():
    v = good_vector_2t1(1)  # (1, 1, 0), n = 6
    code = good_vector_code(v)
    assert (code.n, total_length(code)) == (6, 12)
    assert verify_bac(code, 3).passed
    for req in itertools.combinations_with_replacement(range(1, 7), 3):
        plan = goodvec_certified_plan(v, code, req)
        assert certify_plan(code, req, plan)


def test_t4_code_supports_full_pir_parameter(t4_code):
    from bacforge import verify_pir

    assert verify_pir(t4_code, 9).passed  # 2t+1 disjoint recovery sets each


def test_compose_parallel(c2_code):
    doubled = compose_parallel(c2_code, c2_code)
    assert (doubled.n, total_length(doubled), doubled.m) == (4, 26, 10)
    with pytest.raises(ValueError):
        compose_parallel(c2_code, parity_code_k2(4))  # n mismatch
    with pytest.raises(ValueError):
        compose_parallel(c2_code, trivial_replication(4, 1, PrimeField(3)))


def test_compose_concat():
    joined = compose_concat(parity_code_k2(3), parity_code_k2(3))
    assert (joined.n, total_length(joined), joined.m) == (4, 6, 6)
    assert verify_bac(joined, 2).passed
    assert joined.buckets[0] == (col(1, n=4),)
    assert joined.buckets[3] == (col(3, n=4),)
    assert joined.buckets[5] == (col(3, 4, n=4),)


def test_compose_repeat(gv1_code):
    doubled = compose_repeat(gv1_code, 2)
    assert (doubled.n, total_length(doubled), doubled.m) == (10, 20, 5)
    assert doubled.buckets[0][0] == col(1, n=10)
    assert doubled.buckets[0][2] == col(6, n=10)
    with pytest.raises(ValueError):
        compose_repeat(gv1_code, 0)


def test_compose_parallel_preserves_verified_status():
    a = parity_code_k2(3)
    assert verify_bac(a, 2).passed
    both = compose_parallel(a, a)
    assert verify_bac(both, 4).passed


def test_generators_match_closed_forms():
    assert total_length(cyclic_shift_code(8, 4, 6)) == (2 * 4 - 6) * 8 + (6 - 4) ** 2 * 2
    assert total_length(uniform_code(12, 3)) == (3 - 1) * 12 + 12 // 3
    assert total_length(good_vector_code(good_vector_2t1(3))) == 4 * 14
    assert total_length(trivial_replication(5, 3)) == 15
    assert total_length(single_request_code(7, 3)) == 7
    assert total_length(parity_code_k2(6)) == 6


def test_generators_accept_other_primes():
    f5 = PrimeField(5)
    code = cyclic_shift_code(4, 4, 5, f5)
    assert code.field.p == 5
    assert verify_bac(code, 4).passed
    code = good_vector_code(good_vector((1, 1)), PrimeField(3))
    assert verify_bac(code, 3).passed
