import copy
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from bacforge.field import (
    GF2,
    Echelon,
    PrimeField,
    annihilator,
    is_prime,
    pack,
    rank,
    unit_vector,
)
from oracles import naive_in_span, naive_rank, reference_span_solve


def test_prime_field_rejects_composites():
    for p in (0, 1, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            PrimeField(p)
    for p in (2, 3, 5, 7, 11, 97):
        assert PrimeField(p).p == p
    with pytest.raises(ValueError):
        PrimeField(3)._replace(p=4)


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
def test_annihilator_units_match_contains_unit_and_solve(p, n, data):
    """Vectors inserted one at a time into the annihilator of product rows
    (the rows of [I | C] for the vectors as columns, see `annihilator`) leave
    n - rank rows, each w followed by its products with the vectors and
    orthogonal to every inserted one, the same span as inserting them all
    at once; e_i is spanned iff every row is zero at i, as
    `Echelon.contains_unit` and `solve` say, and no row is left iff the
    rank is n.  Coordinates outside the rows raise ValueError."""
    unit = st.integers(0, n - 1).map(lambda i: unit_vector(i, n))
    entry = st.integers(0, p - 1)
    vector = st.one_of(unit, st.lists(entry, min_size=n, max_size=n).map(tuple))
    vectors = data.draw(st.lists(vector, max_size=8))
    columns = [unit_vector(i, n) for i in range(n)] + vectors
    width = len(columns)
    rows = [pack(p, row) for row in zip(*columns)]
    ech, ann = Echelon(PrimeField(p), n), rows

    def dense(row):
        return tuple((row >> i) & 1 for i in range(width)) if p == 2 else tuple(row)

    def spanned(basis):
        return [not any(dense(row)[i] for row in basis) for i in range(n)]

    for t, vec in enumerate(vectors):
        ech.add(vec)
        ann = annihilator(p, width, ann, range(n + t, n + t + 1))
        at_once = annihilator(p, width, rows, range(n, n + t + 1))
        assert len(ann) == len(at_once) == n - ech.rank
        for row in map(dense, ann):
            products = [sum(a * b for a, b in zip(row[:n], v)) % p for v in vectors]
            assert list(row[n:]) == products and not any(products[: t + 1])
        solvable = [ech.solve(unit_vector(i, n)) is not None for i in range(n)]
        assert spanned(ann) == spanned(at_once) == solvable
        assert [ech.contains_unit(i) for i in range(n)] == solvable
        assert (not ann) == (ech.rank == n)
    for coords in (range(n, width + 1), range(-1, n)):
        with pytest.raises(ValueError):
            annihilator(p, width, rows, coords)


@given(small_field, st.data())
@settings(max_examples=80, deadline=None)
def test_residue_decides_membership_and_joint_spans(p, data):
    """`residue` is falsy iff the vector is in the span, and two vectors have
    the same residue iff each is in the span of the basis and the other."""
    length, gens = data.draw(vectors_over(p))
    u, v = (tuple(data.draw(st.integers(0, p - 1)) for _ in range(length)) for _ in range(2))
    ech = Echelon(PrimeField(p), length)
    for g in gens:
        ech.add(g)
    assert bool(ech.residue(u)) != naive_in_span(u, gens, p)
    joint = naive_in_span(u, gens + [v], p) and naive_in_span(v, gens + [u], p)
    assert (ech.residue(u) == ech.residue(v)) == joint
    if p == 2:
        assert ech.residue(pack(2, u)) == ech.residue(u)
        assert ech.solve(pack(2, u)) == ech.solve(u)


@pytest.mark.parametrize("p", [2, 3])
def test_malformed_vectors_are_refused(p):
    """Every `Echelon` method that takes a vector reads it through `_packed`:
    a dense vector of the wrong length, or a packed int that is negative or
    has a bit at or above the length, raises ValueError rather than being
    reduced as if it were in the span (packed ints are GF(2) only)."""
    ech = Echelon(PrimeField(p), 2)
    ech.add((1, 0))
    for bad in ((0, 0, 1), (2,), 0b100, 1 << 70, -1):
        for method in (ech.residue, ech.solve, ech.add):
            with pytest.raises(ValueError):
                method(bad)
    assert (ech.rank, ech.inserted) == (1, 1)


@given(st.integers(1, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_dense_gf2_entries_are_read_mod_2(n, data):
    """Over GF(2) a dense entry is read mod 2: entries 2, 3 and -1 give the
    rows, residues and solves of their residues 0, 1 and 1."""
    vector = st.lists(st.sampled_from([-1, 0, 1, 2, 3]), min_size=n, max_size=n)
    vectors, target = data.draw(st.lists(vector, max_size=6)), data.draw(vector)
    raw, reduced = Echelon(GF2, n), Echelon(GF2, n)
    raw.extend(vectors)
    reduced.extend([[v % 2 for v in vec] for vec in vectors])
    assert (raw.rows, raw.independent) == (reduced.rows, reduced.independent)
    reduced_target = [v % 2 for v in target]
    assert raw.residue(target) == reduced.residue(reduced_target)
    assert raw.solve(target) == reduced.solve(reduced_target)


@given(st.integers(1, 8), st.data())
@settings(max_examples=40, deadline=None)
def test_packed_add_matches_vector_add(n, data):
    vectors = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), max_size=8))
    by_vector, packed = Echelon(GF2, n), Echelon(GF2, n)
    for vec in vectors:
        assert by_vector.add(vec) == packed.add(pack(2, vec))
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
def test_extend_matches_one_add_at_a_time(p, n, data):
    """Inserting a list of vectors in one call, after some inserted one at
    a time, leaves the rows, pivots, independent vectors and insertion count
    of inserting every vector one at a time; over GF(2) packed or not."""
    vector = st.lists(st.integers(0, p - 1), min_size=n, max_size=n).map(tuple)
    before, batch = (data.draw(st.lists(vector, max_size=6)) for _ in range(2))
    one_pass, one_by_one = Echelon(PrimeField(p), n), Echelon(PrimeField(p), n)
    for vec in before:
        one_pass.add(vec)
        one_by_one.add(vec)
    packed = p == 2 and data.draw(st.booleans())
    added = one_pass.extend([pack(2, vec) for vec in batch] if packed else batch)
    assert added == sum(one_by_one.add(vec) for vec in batch)
    assert (one_pass.rows, one_pass.pivmask, one_pass.independent, one_pass.inserted) == (
        one_by_one.rows,
        one_by_one.pivmask,
        one_by_one.independent,
        one_by_one.inserted,
    )


@pytest.mark.parametrize("p, packed", [(2, False), (2, True), (3, False), (5, False)])
def test_extend_checks_every_vector_before_it_changes_anything(p, packed):
    """Good vectors followed by a malformed one raise ValueError and leave
    the rows, pivots, independent vectors and insertion count as they were."""
    n = 4
    field = PrimeField(p)
    good = [unit_vector(0, n), (1, 1, 0, p - 1)]
    if packed:
        good = [pack(2, vec) for vec in good]
        bad = [-1, 1 << n, 1 << (n + 3)]
    else:
        bad = [(1,) * (n - 1), (1,) * (n + 1), ()]
    for malformed in bad:
        ech = Echelon(field, n)
        ech.add((0, 0, 1, 0))
        before = (dict(ech.rows), ech.pivmask, list(ech.independent), ech.inserted)
        with pytest.raises(ValueError):
            ech.extend(good + [malformed])
        assert (ech.rows, ech.pivmask, ech.independent, ech.inserted) == before


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
