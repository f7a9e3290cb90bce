import hashlib
import math
from fractions import Fraction

import pytest

from bacforge import (
    best_lower_bound,
    bound_report,
    bound_table,
    lb_general,
    lb_kplus2,
    lb_midrange,
    ub_constructions,
)
from bacforge.bounds import (
    CSV_HEADER,
    BoundReport,
    _goodvec_length_exists,
    lb_ishai_projection,
    table_to_csv,
)
from bacforge.construct import enumerate_good_vectors


def test_lb_general():
    assert lb_general(4, 4, 5) == Fraction(20, 2)
    assert lb_general(7, 1, 5) == 7  # k = 1 collapses to n
    assert lb_general(6, 3, 3) == 18  # m = k gives kn
    with pytest.raises(ValueError):
        lb_general(4, 5, 4)


def test_lb_midrange():
    assert lb_midrange(4, 4, 5) == 13  # (3 + 1/4) * 4
    for n, k in ((4, 4), (6, 3), (20, 4)):
        assert lb_midrange(n, k, k + 1) == (k - 1 + Fraction(1, k)) * n
    assert lb_midrange(5, 3, 5) == Fraction(25, 4)
    with pytest.raises(ValueError):
        lb_midrange(4, 4, 8)
    with pytest.raises(ValueError):
        lb_midrange(4, 4, 4)


def test_lb_kplus2():
    assert lb_kplus2(5, 3) == Fraction(155, 17)
    assert math.ceil(lb_kplus2(5, 3)) == 10
    # exact value at (n=17, k=7): (5 + 44/158) * 17
    assert lb_kplus2(17, 7) == (5 + Fraction(44, 158)) * 17 == Fraction(7089, 79)
    assert math.ceil(lb_kplus2(17, 7)) == 90
    with pytest.raises(ValueError):
        lb_kplus2(5, 2)


def test_kplus2_beats_midrange_for_k_3_to_100():
    for k in range(3, 101):
        assert Fraction(4 * k + 16, 3 * k * k + k + 4) >= Fraction(1, math.comb(k + 1, 3))
        assert lb_kplus2(11, k) >= lb_midrange(11, k, k + 2)


def test_best_lower_bound():
    assert best_lower_bound(4, 4, 5) == (Fraction(13), "midrange")
    assert best_lower_bound(5, 3, 5) == (Fraction(155, 17), "m=k+2")
    assert best_lower_bound(6, 3, 3) == (Fraction(18), "general")
    with pytest.raises(ValueError):
        best_lower_bound(4, 5, 4)


def test_lb_ishai_projection():
    assert lb_ishai_projection(4, 4) == Fraction(7, 2) * 4 == 14


def test_ub_constructions():
    assert ub_constructions(4, 4, 5) == (13, "cyclic")
    assert ub_constructions(5, 3, 5) == (10, "goodvec")
    assert ub_constructions(8, 4, 6) == (24, "cyclic")
    assert ub_constructions(6, 3, 3) == (18, "replication")
    assert ub_constructions(7, 1, 3) == (7, "single")
    assert ub_constructions(8, 2, 5) == (10, "parity")
    assert ub_constructions(3, 2, 5) is None  # no divisibility fits


def test_ub_cyclic_reduced():
    # m far beyond 3k/2 falls back to the best cyclic instance
    got = ub_constructions(8, 4, 10)
    assert got == ((2 * 4 - 6) * 8 + (6 - 4) ** 2 * 2, "cyclic-reduced")


def test_ub_never_below_lb_small_sweep():
    for r in bound_table(range(1, 21), range(1, 9), "all", m_max=16):
        if r.upper is not None:
            assert r.upper >= r.lower


def test_bound_report_optimal_rows():
    r = bound_report(4, 4, 5)
    assert (r.lower_ceil, r.upper, r.optimal) == (13, 13, True)
    r = bound_report(5, 3, 5)
    assert (r.lower_ceil, r.upper, r.optimal) == (10, 10, True)
    r = bound_report(20, 4, 5)
    assert (r.lower_ceil, r.upper, r.optimal) == (65, 65, True)


def test_bound_report_rejects_upper_below_lower():
    r = bound_report(4, 4, 5)
    msg = r"upper bound 12 below lower bound 13 at \(n=4, k=4, m=5\)"
    with pytest.raises(ValueError, match=msg):
        BoundReport(*r[:6], 12, "cyclic", False)
    with pytest.raises(ValueError, match=msg):
        r._replace(upper=12)


def test_bound_report_json_shape():
    data = bound_report(4, 4, 5).to_json_dict()
    assert data == {
        "n": 4,
        "k": 4,
        "m": 5,
        "lb_num": 13,
        "lb_den": 1,
        "lb_ceil": 13,
        "lb_source": "midrange",
        "ub": 13,
        "ub_source": "cyclic",
        "optimal": True,
    }


def test_bound_table_rules():
    rows = bound_table([4], [4], "k+1")
    assert len(rows) == 1 and rows[0].m == 5
    rows = bound_table([10], [3], "k+2")
    assert rows[0].m == 5
    rows = bound_table([4], [2], "all")
    assert [r.m for r in rows] == [2, 3, 4]
    rows = bound_table([4], [2], "all", m_max=6)
    assert [r.m for r in rows] == [2, 3, 4, 5, 6]
    with pytest.raises(ValueError):
        bound_table([4], [2], "weird")


def test_table_csv():
    text = table_to_csv(bound_table([4], [4], "k+1"))
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1] == "4,4,5,13,1,13,midrange,13,cyclic,true"
    # every rule, empty upper bounds and both verdicts, pinned byte for byte
    text = table_to_csv(bound_table(range(1, 30), range(1, 12), "all", 25))
    assert text.count("\n") == 6381
    digest = "d05837da15c2e4ec1a9861b45fce17ab875ee99e1f71b7799aa62b427b33a9d7"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_goodvec_length_exists_matches_enumeration():
    # length-2t good vectors are the Skolem sequences: t = 0, 1 (mod 4)
    counts = [len(enumerate_good_vectors(t, 2 * t)) for t in range(1, 9)]
    assert counts == [1, 0, 0, 6, 10, 0, 0, 504]
    assert [_goodvec_length_exists(t) for t in range(1, 9)] == [c > 0 for c in counts]


def test_ub_goodvec_beyond_enumerated_range():
    # t = 8: m = 4t + 1 = 33, and max_batch_k(8) = 11 >= 5
    assert ub_constructions(33, 5, 33) == (297, "goodvec")
    assert bound_report(33, 5, 33).upper == 297
