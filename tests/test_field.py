import pytest
from hypothesis import given, settings, strategies as st

from bacforge.field import (
    GF2,
    PrimeField,
    ff_inverse,
    is_prime,
    rank,
    span_solve,
    unit_vector,
)
from oracles import naive_in_span, naive_rank, reference_span_solve


def test_prime_field_rejects_composites():
    for p in (0, 1, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            PrimeField(p)
    for p in (2, 3, 5, 7, 11, 97):
        assert PrimeField(p).p == p


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    assert {p for p in range(31) if is_prime(p)} == primes


def test_ff_inverse_examples():
    assert ff_inverse(1, PrimeField(2)) == 1
    assert ff_inverse(2, PrimeField(5)) == 3
    assert ff_inverse(4, PrimeField(7)) == 2


def test_ff_inverse_zero_not_invertible():
    with pytest.raises(ValueError):
        ff_inverse(0, PrimeField(5))


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_ff_inverse_total(p):
    f = PrimeField(p)
    for a in range(1, p):
        assert (a * f.inv(a)) % p == 1


def test_span_solve_parity_read():
    # e1 out of {e2, e3, e4, all-ones}: read the 3-sum and the 4-sum
    target = (1, 0, 0, 0)
    gens = [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)]
    assert span_solve(target, gens, GF2) == (1, 1, 1, 1)


def test_span_solve_prefers_identity():
    gens = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
    assert span_solve((1, 1, 0), gens, GF2) == (1, 0, 0)


def test_span_solve_absent():
    assert span_solve((1, 0, 0), [(0, 1, 0), (0, 0, 1)], GF2) is None


def test_span_solve_length_mismatch():
    with pytest.raises(ValueError):
        span_solve((1, 0), [(1, 0, 0)], GF2)


def test_rank_examples():
    vecs = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
    assert rank([], GF2) == 0
    assert rank(vecs, GF2) == 2  # third = sum of first two over GF(2)
    # over F_3 the 3x3 determinant expands to 2 != 0
    det = (
        vecs[0][0] * (vecs[1][1] * vecs[2][2] - vecs[1][2] * vecs[2][1])
        - vecs[0][1] * (vecs[1][0] * vecs[2][2] - vecs[1][2] * vecs[2][0])
        + vecs[0][2] * (vecs[1][0] * vecs[2][1] - vecs[1][1] * vecs[2][0])
    ) % 3
    assert det == 2
    assert rank(vecs, PrimeField(3)) == 3


small_field = st.sampled_from([2, 3, 5])


@st.composite
def vectors_over(draw, p, max_len=4, max_count=5):
    length = draw(st.integers(1, max_len))
    count = draw(st.integers(0, max_count))
    vecs = [
        tuple(draw(st.integers(0, p - 1)) for _ in range(length)) for _ in range(count)
    ]
    return length, vecs


@given(small_field, st.data())
@settings(max_examples=80, deadline=None)
def test_span_solve_round_trip(p, data):
    f = PrimeField(p)
    length, gens = data.draw(vectors_over(p))
    target = tuple(data.draw(st.integers(0, p - 1)) for _ in range(length))
    coeffs = span_solve(target, gens, f)
    # not just a valid solution: exactly the augmented-elimination one
    assert coeffs == reference_span_solve(target, gens, f)
    if coeffs is None:
        assert not naive_in_span(target, gens, p)
    else:
        acc = [0] * length
        for c, g in zip(coeffs, gens):
            for d in range(length):
                acc[d] = (acc[d] + c * g[d]) % p
        assert tuple(acc) == f.normalize_vector(target)


@given(small_field, st.data())
@settings(max_examples=60, deadline=None)
def test_rank_matches_naive_and_is_invariant(p, data):
    f = PrimeField(p)
    _, vecs = data.draw(vectors_over(p, max_len=3, max_count=4))
    r = rank(vecs, f)
    assert r == naive_rank(vecs, p)
    perm = data.draw(st.permutations(vecs))
    assert rank(perm, f) == r
    if vecs:
        idx = data.draw(st.integers(0, len(vecs) - 1))
        scale = data.draw(st.integers(1, p - 1))
        scaled = list(vecs)
        scaled[idx] = tuple((scale * v) % p for v in scaled[idx])
        assert rank(scaled, f) == r


@given(small_field, st.data())
@settings(max_examples=60, deadline=None)
def test_solvable_iff_rank_unchanged(p, data):
    f = PrimeField(p)
    length, gens = data.draw(vectors_over(p))
    target = tuple(data.draw(st.integers(0, p - 1)) for _ in range(length))
    solvable = span_solve(target, gens, f) is not None
    assert solvable == (rank(gens, f) == rank(list(gens) + [target], f))


def test_unit_vector():
    assert unit_vector(1, 3) == (0, 1, 0)
    with pytest.raises(ValueError):
        unit_vector(3, 3)
