"""Exact arithmetic over prime fields F_p and the linear algebra primitives
(rank, span membership, linear solves) the rest of the package is built on.

Vectors are plain tuples of residues in [0, p).  Everything is exact integer
arithmetic; there is no floating point anywhere in this module.  `Echelon` is
the one solver: membership, rank and every linear solve go through it.  It
keeps its rows in one store and one layout for every field, a dict from pivot
bit to row, each row the vector followed by its combination of the inserted
vectors; the rows are fully reduced (each is zero at every other pivot), so
they apply in any order.  Insertion, membership and solves share one
reduction; an inserted vector that is left nonzero becomes the row of its
lowest coordinate and is cleared from the others.  For p = 2 a row is packed
into one Python int (bit i = coordinate i, the combination in the bits
above), which is what makes the exhaustive verifiers fast enough in pure
Python; otherwise it is a list of residues.  Correctness is defined by the
generic path; the packed path is an equivalent specialization.  `pack` is
the one packer of that layout, and every `Echelon` method reads its vector
through `_packed`: dense, or over GF(2) packed once by the caller.
`annihilator` keeps a span's dual: a basis of its n - rank orthogonal
vectors, each carrying its products with a fixed list of columns, so adding
some of them is one elimination pass over it.

All pivoting is lowest-index-first so that solutions and reduced bases are
reproducible across runs and platforms.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence


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


class _PrimeField(NamedTuple):
    p: int


class PrimeField(_PrimeField):
    """The field F_p for a prime modulus p."""

    __slots__ = ()

    def __new__(cls, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        return super().__new__(cls, p)

    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` checks too

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a nonzero residue."""
        a %= self.p
        if a == 0:
            raise ValueError("0 is not invertible")
        return pow(a, self.p - 2, self.p)

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


GF2 = PrimeField(2)


# a reduced GF(2) vector's bytes, 0 and 1, as the digits of a base-2 literal
_BITS = bytes.maketrans(b"\x00\x01", b"01")


def pack(p: int, vector: Sequence[int]):
    """A reduced vector in the packed layout: over GF(2) an int, bit d =
    entry d, packed in one C-level pass, otherwise the tuple itself."""
    return int(b"0" + bytes(vector)[::-1].translate(_BITS), 2) if p == 2 else vector


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
    residues.  `extend` reduces each new vector followed by e_j for its
    index j (`add` inserts one vector), and `solve` reduces the target
    followed by zeros: what is subtracted from it is the negation of its
    combination.
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
        """Reduce a row-shaped list of 2 * `length` residues, or a vector, against the rows."""
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

    def residue(self, vec):
        """`vec` reduced by the rows, scaled to lead with 1 (a packed int over
        GF(2), where `vec` may be packed): falsy iff `vec` is in the span, and
        equal for two vectors iff each is in the span of the rows and the other."""
        vec = self._packed(vec)
        if self.field.p == 2:
            return self._reduce2(vec) & self.coords
        p = self.field.p
        work = self._reduce_generic([v % p for v in vec])
        inv = next((self.field.inv(v) for v in work if v), 0)
        return [v * inv % p for v in work] if inv else []

    def solve(self, vec) -> Optional[tuple]:
        """Coefficients c over the inserted vectors, in insertion order, with
        sum_i c_i * inserted[i] = vec, or None if vec is outside the span
        (packed over GF(2) or not, see `_packed`).  Only independent vectors
        get nonzero coefficients."""
        vec = self._packed(vec)
        out = [0] * self.inserted
        if self.field.p == 2:
            mask = self._reduce2(vec)
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
        """Insert a vector; returns True iff it enlarged the span: `extend`
        with one vector."""
        return self.extend((vec,)) == 1

    def _packed(self, vec):
        """`vec` checked against the length, the one way a vector enters the
        rows: over GF(2) its entries mod 2 packed into an int (`pack`), unless
        it is given packed already."""
        if isinstance(vec, int):
            if self.field.p != 2 or vec < 0 or vec >> self.length:
                raise ValueError(f"packed vector {vec!r} needs GF(2) and length {self.length}")
            return vec
        if len(vec) != self.length:
            raise ValueError(f"vector length {len(vec)} != {self.length}")
        return pack(2, [v & 1 for v in vec]) if self.field.p == 2 else vec

    def extend(self, vectors) -> int:
        """Insert vectors in order, one at a time; returns how many enlarged
        the span.  Every vector is checked before anything changes.  Each
        one, followed by e_j for its index j among the independent ones, is
        reduced by the rows (`_reduce2`, `_reduce_generic`); if some of the
        vector is left, its lowest nonzero coordinate is a new pivot, the row
        is scaled to lead with 1 there, and that pivot is cleared from every
        other row, so the rows stay fully reduced."""
        vectors = [self._packed(vec) for vec in vectors]
        p, length, rows, independent = self.field.p, self.length, self.rows, self.independent
        before = len(independent)
        for index, vec in enumerate(vectors, self.inserted):
            j = len(independent)
            if j == length:  # full rank: nothing enlarges the span
                break
            if p == 2:
                row = self._reduce2(vec | 1 << (length + j))
                vector = row & self.coords
                if not vector:
                    continue
                low = vector & -vector
                for key, other in rows.items():
                    if other & low:
                        rows[key] = other ^ row
            else:
                work = [v % p for v in vec] + [0] * length
                work[length + j] = 1
                work = self._reduce_generic(work)
                piv = next((c for c, v in enumerate(work[:length]) if v), None)
                if piv is None:
                    continue
                inv = self.field.inv(work[piv])
                residues = [v * inv % p for v in work]
                for key, (other_piv, other) in rows.items():
                    if c := other[piv]:
                        rows[key] = (other_piv, [(o - c * r) % p for o, r in zip(other, residues)])
                low, row = 1 << piv, (piv, residues)
            rows[low] = row
            self.pivmask |= low
            independent.append(index)
        self.inserted += len(vectors)
        return len(independent) - before


def annihilator(p: int, length: int, basis: Iterable, coords: range) -> list:
    """The product row of w in F_p^n is (w, w . c_0, w . c_1, ...): the
    combination w of the rows of [I | C] for the columns c_t.  Given product
    rows of `length` entries spanning those of V^⊥, returns a basis of those
    zero at `coords`, the product rows of (V + span of the columns there)^⊥,
    by one elimination pass on those coordinates (one outside the rows raises
    ValueError).  Rows are packed ints over GF(2), sequences otherwise.  e_i is
    in the span iff every row is zero at i, so an empty result is full rank."""
    if not 0 <= coords.start <= coords.stop <= length:
        raise ValueError(f"coordinates {coords} outside rows of length {length}")
    out, pivots = [], {}  # pivots: coordinate (its bit over GF(2)) -> row, zero at the ones before it
    if p == 2:
        mask = (1 << coords.stop) - (1 << coords.start)
        for row in basis:
            while hits := row & mask:
                low = hits & -hits
                if low not in pivots:
                    pivots[low] = row
                    break
                row ^= pivots[low]
            else:
                out.append(row)
        return out
    for row in basis:
        for t in coords:
            if c := row[t]:
                if t not in pivots:
                    pivots[t] = row
                    break
                c *= pow(pivots[t][t], p - 2, p)
                row = [(a - c * b) % p for a, b in zip(row, pivots[t])]
        else:
            out.append(row)
    return out


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
