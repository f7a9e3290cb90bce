"""Exact arithmetic over prime fields F_p and the linear algebra primitives
(rank, span membership, linear solves) the rest of the package is built on.

Vectors are plain tuples of residues in [0, p).  Everything is exact integer
arithmetic; there is no floating point anywhere in this module.  `Echelon` is
the one elimination core: membership, rank and linear solves all go through
it.  It keeps its rows in one store and one layout for every field, a dict
from pivot bit to row, each row the vector followed by its combination of the
inserted vectors; the rows are fully reduced (each is zero at every other
pivot), so they apply in any order.  For p = 2 a row is packed into one Python
int (bit i = coordinate i, the combination in the bits above), which is what
makes the exhaustive verifiers fast enough in pure Python; otherwise it is a
list of residues.  Correctness is defined by the generic path; the packed
path is an equivalent specialization.

All pivoting is lowest-index-first so that solutions and reduced bases are
reproducible across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


# Miller-Rabin with these bases decides primality exactly below the limit
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def is_prime(p: int) -> bool:
    """Exact primality test, fast for any size up to about 3.2e23; larger
    values raise ValueError (no modulus here comes anywhere near them)."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    if p >= _MR_LIMIT:
        raise ValueError(f"modulus {p} is too large")
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a prime modulus p."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a nonzero residue."""
        a %= self.p
        if a == 0:
            raise ValueError("0 is not invertible")
        return pow(a, self.p - 2, self.p)

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


GF2 = PrimeField(2)


def vector_to_mask(vec: Sequence[int]) -> int:
    """Pack a 0/1 vector into an int, bit i = entry i."""
    mask = 0
    for i, v in enumerate(vec):
        if v & 1:
            mask |= 1 << i
    return mask


class Echelon:
    """Incremental reduced row-echelon basis of the vectors inserted so far,
    over F_p, that also records how each row combines those vectors.

    The rows live in one dict, `rows`, keyed by pivot bit: row `1 << c` has
    its pivot at coordinate c, entry 1 there, zeros below it and zeros at
    every other pivot (the rows are fully reduced); `pivmask` is the OR of
    the keys.  So reducing a vector subtracts, for each pivot, the target's
    own entry there times that pivot's row, in any order, and a membership
    test is one reduction pass.  The combination is kept over the inserted
    vectors that enlarged the span when they were inserted (`independent`
    maps its index j to the insertion index); `solve` reads a target's
    coefficients from it.  Every row is the vector followed by that
    combination: entry (or bit) i < `length` is coordinate i, entry
    length + j the coefficient of independent vector j.  Over GF(2) a row is
    one packed int and reduction is XOR of the rows whose pivot bit the
    vector has; otherwise a row is a (pivot, residues) pair with 2 * `length`
    residues.  `add` reduces the new vector followed by e_j for its index j,
    and `solve` reduces the target followed by zeros: what is subtracted
    from it is the negation of its combination.
    """

    __slots__ = ("field", "length", "coords", "rows", "pivmask", "independent", "inserted")

    def __init__(self, field: PrimeField, length: int):
        self.field = field
        self.length = length
        self.coords = (1 << length) - 1  # p=2: the vector bits of a packed row
        self.rows: dict = {}  # pivot bit -> packed int for p=2, (pivot, residues) otherwise
        self.pivmask = 0  # the pivot bits
        self.independent: list[int] = []  # insertion index of each independent vector
        self.inserted = 0  # vectors inserted so far

    @property
    def rank(self) -> int:
        return len(self.rows)

    def copy(self) -> "Echelon":
        """An independent copy (rows are replaced on update, never mutated)."""
        out = Echelon(self.field, self.length)
        out.rows = self.rows.copy()
        out.pivmask = self.pivmask
        out.independent = list(self.independent)
        out.inserted = self.inserted
        return out

    def _reduce2(self, mask: int) -> int:
        # each row has one pivot bit, so XOR the rows of the pivot bits mask has
        hits, rows = mask & self.pivmask, self.rows
        while hits:
            low = hits & -hits
            mask ^= rows[low]
            hits ^= low
        return mask

    def _reduce_generic(self, work: list) -> list:
        """Reduce a row-shaped list of 2 * `length` residues against the rows."""
        p = self.field.p
        for piv, row in self.rows.values():
            c = work[piv]
            if c:
                work = [(w - c * r) % p for w, r in zip(work, row)]
        return work

    def contains_unit(self, i: int) -> bool:
        """Membership test for the i-th (0-based) unit vector: the rows are
        fully reduced, so e_i is in the span exactly when pivot i's row is e_i."""
        row = self.rows.get(1 << i)
        if row is None:
            return False
        if self.field.p == 2:
            return row & self.coords == 1 << i
        return not any(row[1][i + 1 : self.length])

    def spanned_units(self) -> int:
        """Bitmask of the coordinates i whose unit vector e_i lies in the span,
        read from the rows in O(rank): the rows are fully reduced, so e_i is
        in the span exactly when some row's vector part is e_i."""
        out = 0
        if self.field.p == 2:
            coords = self.coords
            for low, row in self.rows.items():
                if row & coords == low:
                    out |= low
            return out
        length = self.length
        for low, (piv, row) in self.rows.items():
            if not any(row[piv + 1 : length]):
                out |= low
        return out

    def solve(self, vec: Sequence[int]) -> Optional[tuple]:
        """Coefficients c over the inserted vectors, in insertion order, with
        sum_i c_i * inserted[i] = vec, or None if vec is outside the span.
        Only independent vectors get nonzero coefficients."""
        if len(vec) != self.length:
            raise ValueError(f"vector length {len(vec)} != {self.length}")
        out = [0] * self.inserted
        if self.field.p == 2:
            mask = self._reduce2(vector_to_mask(vec))
            if mask & self.coords:
                return None
            bits = mask >> self.length
            for j, src in enumerate(self.independent):
                if (bits >> j) & 1:
                    out[src] = 1
            return tuple(out)
        p, length = self.field.p, self.length
        work = self._reduce_generic([v % p for v in vec] + [0] * length)
        if any(work[:length]):
            return None
        for j, src in enumerate(self.independent):
            out[src] = -work[length + j] % p
        return tuple(out)

    def add(self, vec) -> bool:
        """Insert a vector; returns True iff it enlarged the span.  Over GF(2)
        the vector may also be given already packed, as an int (see
        `vector_to_mask`)."""
        if isinstance(vec, int):
            if self.field.p != 2 or vec < 0 or vec >> self.length:
                raise ValueError(f"packed vector {vec!r} needs GF(2) and length {self.length}")
            packed = vec
        elif len(vec) != self.length:
            raise ValueError(f"vector length {len(vec)} != {self.length}")
        elif self.field.p == 2:
            packed = vector_to_mask(vec)
        index = self.inserted
        self.inserted += 1
        rows = self.rows
        if len(rows) == self.length:  # full rank: nothing enlarges the span
            return False
        j_new = len(self.independent)
        if self.field.p == 2:
            new_row = self._reduce2(packed | (1 << (self.length + j_new)))
            vector = new_row & self.coords
            if vector == 0:
                return False
            low = vector & -vector
            # keep the other rows zero at the new pivot
            for key, row in rows.items():
                if row & low:
                    rows[key] = row ^ new_row
        else:
            p, length = self.field.p, self.length
            work = [v % p for v in vec] + [0] * length
            work[length + j_new] = 1
            work = self._reduce_generic(work)
            piv = next((j for j, v in enumerate(work[:length]) if v), None)
            if piv is None:
                return False
            low = 1 << piv
            c_inv = self.field.inv(work[piv])
            residues = [(v * c_inv) % p for v in work]
            new_row = (piv, residues)
            for key, (row_piv, row) in rows.items():
                c = row[piv]
                if c:
                    rows[key] = (row_piv, [(rv - c * wv) % p for rv, wv in zip(row, residues)])
        rows[low] = new_row
        self.pivmask |= low
        self.independent.append(index)
        return True


def rank(vectors: Iterable[Sequence[int]], field: PrimeField) -> int:
    """Dimension of the span of `vectors`; 0 for an empty collection."""
    vectors = list(vectors)
    if not vectors:
        return 0
    length = len(vectors[0])
    ech = Echelon(field, length)
    for v in vectors:
        ech.add(v)
    return ech.rank


def unit_vector(i: int, length: int) -> tuple:
    """The 0-based i-th unit vector of the given length."""
    if not 0 <= i < length:
        raise ValueError(f"unit index {i} out of range for length {length}")
    return (0,) * i + (1,) + (0,) * (length - i - 1)
