"""Lower bounds on the total length of (n, N, k, m) array codes and the
matching construction-derived upper bounds, in exact rational arithmetic.

Three lower bounds are implemented: the general m*n/(m-k+1) bound, the
improved bound for k < m < 2k, and the further improved bound for m = k+2.
Upper bounds come from the closed forms of the generators in
`bacforge.construct`, applied only where their divisibility preconditions
literally hold.  A tuple is flagged optimal when the best construction meets
the ceiling of the best lower bound.

No floating point anywhere in this module.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from math import comb, gcd
from typing import Iterable, NamedTuple, Optional

from .construct import max_batch_k


def lb_general(n: int, k: int, m: int) -> Fraction:
    """General lower bound m*n/(m-k+1); tight at m = k, k = 1, and k = 2."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if m < k:
        raise ValueError(f"need m >= k, got m = {m}, k = {k}")
    return Fraction(m * n, m - k + 1)


def lb_midrange(n: int, k: int, m: int) -> Fraction:
    """Improved bound (2k - m + 1/C(m-1, 2k-m)) * n for k < m < 2k."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if not k < m < 2 * k:
        raise ValueError(f"need k < m < 2k, got k = {k}, m = {m}")
    return (2 * k - m + Fraction(1, comb(m - 1, 2 * k - m))) * n


def lb_kplus2(n: int, k: int) -> Fraction:
    """Bound (k - 2 + (4k+16)/(3k^2+k+4)) * n for m = k+2, k >= 3; beats the
    midrange bound on its whole range."""
    if n < 1:
        raise ValueError("n must be positive")
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    return (k - 2 + Fraction(4 * k + 16, 3 * k * k + k + 4)) * n


def lb_ishai_projection(n: int, k: int) -> Fraction:
    """(k - 1/2) * n, the classic batch-code bound at m = k+1 under the
    projection-only response regime.  Informational comparator only: it does
    not bound linear-response array codes."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    return Fraction(2 * k - 1, 2) * n


def best_lower_bound(n: int, k: int, m: int) -> tuple[Fraction, str]:
    """Maximum applicable lower bound with its source; ties prefer the more
    specific bound."""
    candidates = [("general", lb_general(n, k, m))]
    if k < m < 2 * k:
        candidates.append(("midrange", lb_midrange(n, k, m)))
    if m == k + 2 and k >= 3:
        candidates.append(("m=k+2", lb_kplus2(n, k)))
    source, value = candidates[0]
    for src, val in candidates[1:]:
        if val >= value:
            source, value = src, val
    return value, source


def _goodvec_length_exists(t: int) -> bool:
    """Whether a good vector of length 2t exists.  Those are exactly the
    Skolem sequences of order t, which exist iff t = 0 or 1 (mod 4)
    (Th. Skolem, Math. Scand. 5, 1957)."""
    return t % 4 in (0, 1)


def ub_constructions(n: int, k: int, m: int) -> Optional[tuple[int, str]]:
    """Least total length over the construction closed forms whose
    preconditions hold at (n, k, m), with the achieving family; None when no
    family applies.  Entries tagged "-pir" certify only the PIR property."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if m < k:
        raise ValueError(f"need m >= k, got m = {m}, k = {k}")
    candidates: list[tuple[int, str]] = []

    if m == k:
        candidates.append((k * n, "replication"))
    if k == 1 and m <= n:
        candidates.append((n, "single"))
    if k == 2 and m >= 3 and n % (m - 1) == 0:
        candidates.append((m * n // (m - 1), "parity"))
    if k < m < 2 * k and n % k == 0 and k % (m - k) == 0:
        candidates.append(((2 * k - m) * n + (m - k) ** 2 * (n // k), "cyclic"))
    if 2 * m > 3 * k:
        # unused buckets are free: fall back to the best cyclic instance
        m2 = (3 * k) // 2
        if k < m2 < m and k % (m2 - k) == 0 and n % k == 0:
            candidates.append(((2 * k - m2) * n + (m2 - k) ** 2 * (n // k), "cyclic-reduced"))
    t = None
    if m % 4 == 1 and m >= 5:
        t = (m - 1) // 4
        if not _goodvec_length_exists(t):
            t = None
    elif m % 4 == 2 and m >= 6:
        t = (m - 2) // 4
    if t is not None and n % m == 0 and k <= max_batch_k(t).exact:
        candidates.append(((t + 1) * n, "goodvec"))
    if 3 * k < 2 * m and m < 2 * k and (2 * m - 3 * k) % 2 == 1:
        period = (4 * m - 6 * k) * (4 * k - 2 * m) // gcd(4 * m - 6 * k, 4 * k - 2 * m)
        if n % period == 0:
            assert (3 * k - m + 1) * n % 2 == 0
            candidates.append(((3 * k - m + 1) * n // 2, "goodvec+cyclic-pir"))

    if not candidates:
        return None
    return min(candidates)


class _BoundReport(NamedTuple):
    n: int
    k: int
    m: int
    lower: Fraction
    lower_ceil: int
    lower_source: str
    upper: Optional[int]
    upper_source: Optional[str]
    optimal: bool


class BoundReport(_BoundReport):
    """Bracketing of the minimum code length at one (n, k, m) tuple."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.upper is not None and self.upper < self.lower:
            raise ValueError(
                f"upper bound {self.upper} below lower bound {self.lower} "
                f"at (n={self.n}, k={self.k}, m={self.m})"
            )
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` checks too

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "m": self.m,
            "lb_num": self.lower.numerator,
            "lb_den": self.lower.denominator,
            "lb_ceil": self.lower_ceil,
            "lb_source": self.lower_source,
            "ub": self.upper,
            "ub_source": self.upper_source,
            "optimal": self.optimal,
        }


def bound_report(n: int, k: int, m: int) -> BoundReport:
    lower, source = best_lower_bound(n, k, m)
    ub = ub_constructions(n, k, m)
    lower_ceil = math.ceil(lower)
    upper, upper_source = ub if ub is not None else (None, None)
    return BoundReport(
        n=n,
        k=k,
        m=m,
        lower=lower,
        lower_ceil=lower_ceil,
        lower_source=source,
        upper=upper,
        upper_source=upper_source,
        optimal=upper is not None and upper == lower_ceil,
    )


def bound_table(
    n_values: Iterable[int],
    k_values: Iterable[int],
    m_rule: str,
    m_max: Optional[int] = None,
) -> list:
    """One BoundReport per parameter tuple.  m_rule selects m per k:
    "k+1", "k+2", or "all" (m from k to m_max, default 2k)."""
    if m_rule not in ("k+1", "k+2", "all"):
        raise ValueError(f"unknown m rule {m_rule!r}")
    reports = []
    for n in n_values:
        for k in k_values:
            if m_rule == "k+1":
                ms = [k + 1]
            elif m_rule == "k+2":
                ms = [k + 2]
            else:
                ms = range(k, (m_max if m_max is not None else 2 * k) + 1)
            for m in ms:
                reports.append(bound_report(n, k, m))
    return reports


CSV_HEADER = ["n", "k", "m", "lb_num", "lb_den", "lb_ceil", "lb_source", "ub", "ub_source", "optimal"]


def table_to_csv(reports: Iterable[BoundReport]) -> str:
    """The reports' JSON fields in `CSV_HEADER` order; None is an empty cell
    and `optimal` is true or false."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for r in reports:
        row = r.to_json_dict()
        row["optimal"] = "true" if row["optimal"] else "false"
        writer.writerow([row[key] for key in CSV_HEADER])
    return buf.getvalue()
