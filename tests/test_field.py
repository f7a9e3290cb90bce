import copy
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from bacforge.field import (
    GF2,
    Echelon,
    PrimeField,
    is_prime,
    rank,
    unit_vector,
    vector_to_mask,
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


def test_is_prime_matches_trial_division():
    def by_trial(p):
        return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))

    assert all(is_prime(p) == by_trial(p) for p in range(-3, 20000))
    # a Mersenne prime, and strong pseudoprimes to the smallest prime bases
    assert is_prime(2**61 - 1)
    assert not any(is_prime(p) for p in (2**61 + 1, 3215031751, 3825123056546413051))
    with pytest.raises(ValueError):
        is_prime(2**89 - 1)  # too large to decide exactly


def test_ff_inverse_examples():
    assert PrimeField(2).inv(1) == 1
    assert PrimeField(5).inv(2) == 3
    assert PrimeField(7).inv(4) == 2
    assert PrimeField(7).inv(-3) == 2  # residues are reduced first


def test_ff_inverse_zero_not_invertible():
    with pytest.raises(ValueError):
        PrimeField(5).inv(0)
    with pytest.raises(ValueError):
        PrimeField(5).inv(10)


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_ff_inverse_total(p):
    f = PrimeField(p)
    for a in range(1, p):
        assert (a * f.inv(a)) % p == 1


def echelon_solve(target, generators, field):
    """Solve for `target` in the span of `generators`, inserted in order into
    one `Echelon`: its coefficients over them, or None."""
    ech = Echelon(field, len(target))
    for g in generators:
        ech.add(g)
    return ech.solve(target)


def test_span_solve_parity_read():
    # e1 out of {e2, e3, e4, all-ones}: read the 3-sum and the 4-sum
    target = (1, 0, 0, 0)
    gens = [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)]
    assert echelon_solve(target, gens, GF2) == (1, 1, 1, 1)


def test_span_solve_prefers_identity():
    gens = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
    assert echelon_solve((1, 1, 0), gens, GF2) == (1, 0, 0)


def test_span_solve_absent():
    assert echelon_solve((1, 0, 0), [(0, 1, 0), (0, 0, 1)], GF2) is None


def test_span_solve_length_mismatch():
    ech = Echelon(GF2, 3)
    ech.add((1, 0, 0))
    with pytest.raises(ValueError):
        ech.solve((1, 0))
    with pytest.raises(ValueError):
        ech.add((1, 0))


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
    coeffs = echelon_solve(target, gens, f)
    # not just a valid solution: exactly the augmented-elimination one
    assert coeffs == reference_span_solve(target, gens, f)
    if coeffs is None:
        assert not naive_in_span(target, gens, p)
    else:
        acc = [0] * length
        for c, g in zip(coeffs, gens):
            for d in range(length):
                acc[d] = (acc[d] + c * g[d]) % p
        assert tuple(acc) == target


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
    solvable = echelon_solve(target, gens, f) is not None
    assert solvable == (rank(gens, f) == rank(list(gens) + [target], f))


def test_unit_vector():
    assert unit_vector(1, 3) == (0, 1, 0)
    with pytest.raises(ValueError):
        unit_vector(3, 3)


@given(small_field, st.integers(1, 6), st.data())
@settings(max_examples=80, deadline=None)
def test_spanned_units_matches_contains_unit(p, n, data):
    unit = st.integers(0, n - 1).map(lambda i: unit_vector(i, n))
    entry = st.integers(0, p - 1)
    vector = st.one_of(unit, st.lists(entry, min_size=n, max_size=n).map(tuple))
    ech = Echelon(PrimeField(p), n)
    for vec in data.draw(st.lists(vector, max_size=8)):
        ech.add(vec)
        units = ech.spanned_units()
        solvable = [ech.solve(unit_vector(i, n)) is not None for i in range(n)]
        assert [bool((units >> i) & 1) for i in range(n)] == solvable
        assert [ech.contains_unit(i) for i in range(n)] == solvable


@given(st.integers(1, 8), st.data())
@settings(max_examples=40, deadline=None)
def test_packed_add_matches_vector_add(n, data):
    vectors = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), max_size=8))
    by_vector, packed = Echelon(GF2, n), Echelon(GF2, n)
    for vec in vectors:
        assert by_vector.add(vec) == packed.add(vector_to_mask(vec))
    assert (by_vector.rows, by_vector.pivmask, by_vector.independent, by_vector.inserted) == (
        packed.rows,
        packed.pivmask,
        packed.independent,
        packed.inserted,
    )
    with pytest.raises(ValueError):
        packed.add(1 << n)  # longer than the vectors
    with pytest.raises(ValueError):
        Echelon(PrimeField(3), n).add(1)  # packed ints are GF(2) only


@given(small_field, st.integers(1, 6), st.data())
@settings(max_examples=80, deadline=None)
def test_echelon_rows_are_keyed_by_pivot_and_fully_reduced(p, n, data):
    """The invariant that lets a reduction apply the rows in any order."""
    ech = Echelon(PrimeField(p), n)
    vectors = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), max_size=8))
    for vec in vectors:
        ech.add(vec)
        pivmask = 0
        for key, row in ech.rows.items():
            pivmask |= key
            if p == 2:
                entries = [(row >> j) & 1 for j in range(n)]
            else:
                piv, residues = row
                assert key == 1 << piv and len(residues) == 2 * n
                entries = residues[:n]
            piv = key.bit_length() - 1
            assert key == 1 << piv and entries[piv] == 1
            assert not any(entries[:piv])
            assert not any(entries[j] for j in range(n) if j != piv and (ech.pivmask >> j) & 1)
        assert ech.pivmask == pivmask


@given(small_field, st.integers(1, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_echelon_copy_is_independent(p, n, data):
    """Adding to a copy leaves the original's rows, rank and solves as they
    were: rows are replaced on update, never mutated, which the prefix
    bases `SpanEngine` caches and extends by copying rely on."""
    vector = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    ech = Echelon(PrimeField(p), n)
    for vec in data.draw(st.lists(vector, max_size=4)):
        ech.add(vec)
    targets = list(itertools.product(range(p), repeat=n))
    before = (copy.deepcopy(ech.rows), ech.rank, [ech.solve(t) for t in targets])
    grown = ech.copy()
    for vec in data.draw(st.lists(vector, min_size=1, max_size=4)):
        grown.add(vec)
    assert (ech.rows, ech.rank, [ech.solve(t) for t in targets]) == before
