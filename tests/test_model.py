import json
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from bacforge import (
    CodeSpec,
    GF2,
    cap_and_reduce,
    code_from_json,
    code_to_json,
    codes_equal,
    encode,
    total_length,
)
from bacforge.field import PrimeField, pack as field_pack
from bacforge.model import apply, combine, pack, unit
from bacforge.verify import ResponseModel, engine_for
from conftest import col
from oracles import dot, naive_recovers, reference_encode, reference_pack, reference_weighted_sum


def test_code_spec_normalizes_and_validates():
    code = CodeSpec(PrimeField(3), 2, (((4, -1),),))
    assert code.buckets == (((1, 2),),)
    with pytest.raises(ValueError):
        CodeSpec(GF2, 2, (((1, 0, 0),),))  # wrong column length
    with pytest.raises(ValueError):
        CodeSpec(GF2, 2, ())  # no buckets


def test_code_spec_entries_must_be_integers():
    with pytest.raises(TypeError):
        CodeSpec(GF2, 2, (((1.5, 0),), ((0, 1),)))
    with pytest.raises(TypeError):
        CodeSpec(GF2, 2.0, (((1, 0),), ((0, 1),)))
    code = CodeSpec(PrimeField(5), 3, (((-1, 7, 5),), ((0, -6, 11),)))
    assert code.buckets == (((4, 2, 0),), ((0, 4, 1),))
    assert code.column_table == ((((0, 4), (1, 2)),), (((1, 4), (2, 1)),))
    again = pickle.loads(pickle.dumps(code))
    assert again == code and again.column_table == code.column_table
    np = pytest.importorskip("numpy")
    code = CodeSpec(GF2, np.int64(2), ((np.array([3, -1]),), ((np.int8(0), np.uint16(1)),)))
    assert code.n == 2 and code.buckets == (((1, 1),), ((0, 1),))
    assert code.column_table == ((3,), (2,))
    assert all(type(v) is int for bucket in code.buckets for col in bucket for v in col)


def test_encode_reference_table(c2_code):
    word = encode(c2_code, (1, 0, 0, 0))
    assert word.values == ((1, 0, 0), (1, 0, 0), (1, 0, 0), (0, 0, 0), (1,))
    word = encode(c2_code, (1, 1, 0, 0))
    assert word.values == ((1, 1, 0), (1, 1, 0), (1, 0, 0), (1, 0, 0), (0,))
    zero = encode(c2_code, (0, 0, 0, 0))
    assert all(all(v == 0 for v in bucket) for bucket in zero.values)


@st.composite
def code_and_data(draw):
    """A code over F_2, F_3 or F_5 with n <= 6 and 1..4 buckets of 0..3
    columns, and data with negative and unreduced entries."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 6))
    column = st.tuples(*[st.integers(0, p - 1)] * n)
    buckets = draw(st.lists(st.lists(column, max_size=3).map(tuple), min_size=1, max_size=4))
    data = draw(st.lists(st.integers(-3 * p, 3 * p), min_size=n, max_size=n))
    return CodeSpec(PrimeField(p), n, tuple(buckets)), data


@given(code_and_data())
@settings(max_examples=150, deadline=None)
def test_encode_matches_dense_reference(case):
    code, data = case
    assert encode(code, data) == reference_encode(code, data)
    # and again from the column table the first call built
    assert encode(code, tuple(data)) == reference_encode(code, data)


def _table_form(p: int, vector) -> object:
    """A dense reduced vector in `column_table` form, built here without
    the library's packer."""
    return reference_pack(vector) if p == 2 else tuple((d, v) for d, v in enumerate(vector) if v)


@st.composite
def weighted_columns(draw):
    """A prime p in {2, 3, 5}, n <= 8, reduced data and (weight, column)
    pairs of dense reduced columns with weights in [-2p, 2p]."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 8))
    vector = st.tuples(*[st.integers(0, p - 1)] * n)
    pairs = draw(st.lists(st.tuples(st.integers(-2 * p, 2 * p), vector), max_size=6))
    return p, n, pairs, draw(vector)


@given(weighted_columns())
@settings(max_examples=300, deadline=None)
def test_column_arithmetic_matches_the_dense_references(case):
    """`combine` is the dense weighted sum in table form, `apply` of it on
    packed data is the dense dot product, one column of weight 1 combines
    to itself, and `unit` is e_i in table form, over F_2, F_3 and F_5."""
    p, n, pairs, data = case
    field = PrimeField(p)
    table_pairs = [(w, _table_form(p, column)) for w, column in pairs]
    total = reference_weighted_sum(pairs, p, n)
    functional = combine(p, table_pairs)
    assert functional == _table_form(p, total)
    assert apply(p, functional, pack(p, data)) == dot(total, data, field)
    for _, column in table_pairs:
        assert combine(p, [(1, column)]) == column
    for i0 in range(n):
        assert unit(p, i0) == _table_form(p, tuple(int(d == i0) for d in range(n)))


@pytest.mark.parametrize("length", [1, 63, 64, 65, 301])
def test_pack_matches_the_reference_packer(length):
    """The C-level packer `field.pack`, the one `model` imports, equals the
    bit loop `reference_pack` on reduced GF(2) vectors around the 64-bit
    word boundary, and leaves an F_p vector as it is."""
    assert pack is field_pack
    rng = random.Random(length)
    for vector in ((0,) * length, (1,) * length, tuple(rng.randrange(2) for _ in range(length))):
        assert field_pack(2, vector) == reference_pack(vector)
    vector = tuple(rng.randrange(3) for _ in range(length))
    assert field_pack(3, vector) is vector


def test_encode_dimension_mismatch(c2_code):
    with pytest.raises(ValueError):
        encode(c2_code, (1, 0, 0))


def test_total_length(c2_code, c1_code):
    assert total_length(c2_code) == 13
    assert total_length(c1_code) == 14
    empty = CodeSpec(GF2, 3, ((), ()))
    assert total_length(empty) == 0


def recovers(code, buckets, i) -> bool:
    """Linear recoverability of symbol i from the given buckets (1-based),
    through the code's span engine."""
    mask = sum(1 << (ell - 1) for ell in set(buckets))
    return engine_for(code, ResponseModel.LINEAR).recovers(mask, i - 1)


def test_bucket_set_recovers(c2_code, gv1_code):
    assert recovers(c2_code, {4, 5}, 1)
    assert not recovers(c2_code, {4}, 1)
    assert recovers(gv1_code, {2, 4}, 1)


def test_cap_and_reduce_drops_dependent_column():
    n = 3
    bucket = (col(1, 2, n=n), col(2, 3, n=n), col(1, 3, n=n))
    code = CodeSpec(GF2, n, (bucket,))
    reduced = cap_and_reduce(code)
    assert reduced.buckets == ((col(1, 2, n=n), col(2, 3, n=n)),)


def test_cap_and_reduce_idempotent(c2_code):
    assert cap_and_reduce(c2_code) == c2_code
    assert cap_and_reduce(cap_and_reduce(c2_code)) == cap_and_reduce(c2_code)


def test_cap_and_reduce_caps_at_n():
    n = 4
    bucket = tuple(col(i, n=n) for i in range(1, 5)) + (col(1, 2, n=n),)
    code = CodeSpec(GF2, n, (bucket,))
    reduced = cap_and_reduce(code)
    assert len(reduced.buckets[0]) == 4
    assert reduced.buckets[0] == tuple(col(i, n=n) for i in range(1, 5))


small_code = st.integers  # placeholder to keep hypothesis imports together


@st.composite
def random_code(draw, max_n=3, max_m=3, max_cols=3, primes=(2, 3)):
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    buckets = []
    for _ in range(m):
        cols = draw(st.integers(0, max_cols))
        buckets.append(
            tuple(
                tuple(draw(st.integers(0, p - 1)) for _ in range(n)) for _ in range(cols)
            )
        )
    return CodeSpec(PrimeField(p), n, tuple(buckets))


@given(random_code(), st.data())
@settings(max_examples=60, deadline=None)
def test_encode_linearity(code, data):
    p = code.field.p
    x = tuple(data.draw(st.integers(0, p - 1)) for _ in range(code.n))
    y = tuple(data.draw(st.integers(0, p - 1)) for _ in range(code.n))
    xy = tuple((a + b) % p for a, b in zip(x, y))
    wx, wy, wxy = encode(code, x), encode(code, y), encode(code, xy)
    for bx, by, bxy in zip(wx.values, wy.values, wxy.values):
        assert tuple((a + b) % p for a, b in zip(bx, by)) == bxy


@given(random_code())
@settings(max_examples=50, deadline=None)
def test_cap_and_reduce_preserves_recoverability(code):
    reduced = cap_and_reduce(code)
    assert total_length(reduced) <= total_length(code)
    assert cap_and_reduce(reduced) == reduced
    for sizes_before, sizes_after in zip(code.bucket_sizes, reduced.bucket_sizes):
        assert sizes_after <= sizes_before
    import itertools

    for r in range(1, code.m + 1):
        for subset in itertools.combinations(range(1, code.m + 1), r):
            for i in range(1, code.n + 1):
                assert recovers(code, subset, i) == recovers(reduced, subset, i)


@given(random_code(max_n=2, max_m=2, max_cols=2))
@settings(max_examples=30, deadline=None)
def test_bucket_set_recovers_matches_naive_and_monotone(code):
    import itertools

    for r in range(1, code.m + 1):
        for subset in itertools.combinations(range(1, code.m + 1), r):
            for i in range(1, code.n + 1):
                got = recovers(code, subset, i)
                assert got == naive_recovers(code, subset, i)
                if got:
                    assert recovers(code, range(1, code.m + 1), i)


def test_json_round_trip_is_byte_stable(c2_code):
    prov = {"family": "cyclic", "n": 4, "k": 4, "m": 5}
    text = code_to_json(c2_code, prov)
    parsed, prov2 = code_from_json(text)
    assert codes_equal(parsed, c2_code)
    assert prov2 == prov
    assert code_to_json(parsed, prov2) == text


def test_json_canonical_shape(c2_code):
    data = json.loads(code_to_json(c2_code))
    assert list(data.keys()) == ["format", "p", "n", "buckets"]
    assert data["format"] == "bacforge-code-v1"
    assert data["p"] == 2 and data["n"] == 4
    assert data["buckets"][4] == [[1, 1, 1, 1]]


def test_json_rejects_unknown_keys_and_formats():
    with pytest.raises(ValueError):
        code_from_json('{"format":"bacforge-code-v1","p":2,"n":1,"buckets":[[[1]]],"x":1}')
    with pytest.raises(ValueError):
        code_from_json('{"format":"other","p":2,"n":1,"buckets":[[[1]]]}')


def test_codes_equal_up_to_bucket_order(c2_code, c2_table):
    assert codes_equal(c2_code, c2_table)
    shuffled = CodeSpec(GF2, 4, c2_code.buckets[::-1])
    assert not codes_equal(c2_code, shuffled)
    assert codes_equal(c2_code, shuffled, up_to_bucket_order=True)
