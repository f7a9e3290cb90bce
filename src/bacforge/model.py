"""Array-code data model: a code is a list of buckets, each bucket a list of
generator columns over a prime field.

Encoding x (a length-n row vector) places <x, g> into a bucket for each of the
bucket's columns g, so a bucket is exactly the column set of its generator
matrix.  Under the linear-response model a node may answer with any linear
combination of its stored symbols, hence everything observable about a bucket
is its column span; `cap_and_reduce` exploits that to shrink buckets without
changing recoverability.

All arithmetic on `CodeSpec.column_table` lives here: `combine` weighs its
columns into one functional, `unit` is e_i and `apply` evaluates a
functional on data packed by `pack`.  `encode`, `sim` and `verify` use them.

Symbol and bucket indices are 1-based at the public API (0-based internally).
CodeSpec and Codeword are immutable; a pickled CodeSpec drops its cache.  A
CodeSpec reduces its columns when it is made and tabulates them on first use
(`column_table`, `bucket_sizes`).  Its `cache` holds the other state derived
from it alone, built on first use and freed with the code: one span engine
of `verify` per response regime, the per-parameter tables of the cyclic and
good-vector planners (each made after checking the code against its
construction), one planner context, which `sim` resolved from the last
provenance it was given, and the node answers `sim.serve_batch` evaluates,
one functional of the data and its fan-in per (bucket, response) served.
Nothing in it refers back to the code.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from typing import Optional, Sequence

from .field import Echelon, PrimeField

CODE_FORMAT = "bacforge-code-v1"


@dataclass(frozen=True)
class CodeSpec:
    """An (n, N, k, m) array code: m buckets of generator columns over F_p.

    k is not part of the data; it is a property a code is verified against.
    n and the column entries must be integers, as in Python indexing
    (`operator.index`); the entries are reduced mod p.
    """

    field: PrimeField
    n: int
    buckets: tuple
    # derived per-code state, filled lazily by its users; not part of the
    # code's value: left out of ==, hash, repr and pickles
    cache: dict = dataclass_field(default_factory=dict, init=False, repr=False, compare=False)

    def __reduce__(self):
        return (CodeSpec, (self.field, self.n, self.buckets))

    def __post_init__(self):
        n = operator.index(self.n)
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        if len(self.buckets) < 1:
            raise ValueError("a code needs at least one bucket")
        p, norm = self.field.p, []
        for b, bucket in enumerate(self.buckets, start=1):
            cols = []
            for col in bucket:
                if len(col) != n:
                    raise ValueError(f"bucket {b} has a column of length {len(col)}, expected {n}")
                cols.append(tuple([operator.index(v) % p for v in col]))
            norm.append(tuple(cols))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "buckets", tuple(norm))

    @property
    def m(self) -> int:
        return len(self.buckets)

    # not dataclass fields, so like `cache` out of ==, hash, repr and pickles
    @cached_property
    def bucket_sizes(self) -> tuple:
        return tuple(map(len, self.buckets))

    @cached_property
    def column_table(self) -> tuple:
        """Per bucket, its columns in the form `combine` and `apply` read:
        packed ints over GF(2) (`pack`), otherwise sparse
        ((coordinate, value), ...) tuples of the nonzero entries."""
        if self.field.p == 2:
            return tuple(tuple([pack(2, col) for col in b]) for b in self.buckets)
        return tuple(
            tuple(tuple((d, v) for d, v in enumerate(col) if v) for col in b)
            for b in self.buckets
        )


@dataclass(frozen=True)
class Codeword:
    """Per-bucket encoded values; shape mirrors the originating CodeSpec."""

    values: tuple


def total_length(code: CodeSpec) -> int:
    """N = sum of bucket sizes."""
    return sum(len(b) for b in code.buckets)


def data_vector(code: CodeSpec, x: Sequence[int]) -> tuple:
    """A data vector reduced mod p.  Its entries must be integers, as in
    Python indexing (`operator.index`): a float or a string raises TypeError."""
    if len(x) != code.n:
        raise ValueError(f"data length {len(x)} != n = {code.n}")
    p = code.field.p
    return tuple([operator.index(v) % p for v in x])


# a reduced GF(2) vector's bytes, 0 and 1, as the digits of a base-2 literal
_BITS = bytes.maketrans(b"\x00\x01", b"01")


def pack(p: int, vector: Sequence[int]):
    """A reduced vector as `apply` reads data: over GF(2) an int, bit d =
    entry d, packed in one C-level pass, otherwise the tuple itself."""
    return int(b"0" + bytes(vector)[::-1].translate(_BITS), 2) if p == 2 else vector


def combine(p: int, pairs) -> object:
    """The sum of weight * column over (weight, column) pairs, in
    `column_table` form: over GF(2) the XOR of the columns with odd weight,
    otherwise the ascending tuple of the nonzero (coordinate, sum mod p)."""
    if p == 2:
        acc = 0
        for w, col in pairs:
            if w % 2:
                acc ^= col
        return acc
    acc: dict = {}
    for w, col in pairs:
        w %= p
        if w:
            for d, v in col:
                acc[d] = (acc.get(d, 0) + w * v) % p
    return tuple(sorted([item for item in acc.items() if item[1]]))


def unit(p: int, i0: int) -> object:
    """The functional e_i0 (0-based) as `combine` gives it."""
    return 1 << i0 if p == 2 else ((i0, 1),)


def apply(p: int, functional, data) -> int:
    """A functional (`combine`) evaluated on data packed by `pack`."""
    if p == 2:
        return (data & functional).bit_count() & 1
    acc = 0
    for d, v in functional:
        acc += data[d] * v
    return acc % p


def encode(code: CodeSpec, x: Sequence[int]) -> Codeword:
    """Encode a data vector: bucket entry s is column s applied to it."""
    p, table = code.field.p, code.column_table
    data = pack(p, data_vector(code, x))
    return Codeword(tuple([tuple([apply(p, col, data) for col in bucket]) for bucket in table]))


def cap_and_reduce(code: CodeSpec) -> CodeSpec:
    """Replace each bucket by a deterministic basis of its column space
    (lowest-index-first column selection).

    Bucket spans, and therefore every recoverability outcome, are unchanged;
    the result has bucket sizes rank(G_ell) <= n and the map is idempotent.
    """
    new_buckets = []
    for bucket in code.buckets:
        ech = Echelon(code.field, code.n)
        kept = tuple(col for col in bucket if ech.add(col))
        new_buckets.append(kept)
    return CodeSpec(code.field, code.n, tuple(new_buckets))


def codes_equal(a: CodeSpec, b: CodeSpec, up_to_bucket_order: bool = False) -> bool:
    """Structural equality of two codes.

    With `up_to_bucket_order`, buckets are compared as a multiset (bucket
    relabelings preserve every batch/PIR property).
    """
    if a.field.p != b.field.p or a.n != b.n or a.m != b.m:
        return False
    if not up_to_bucket_order:
        return a.buckets == b.buckets
    return sorted(a.buckets) == sorted(b.buckets)


def code_to_dict(code: CodeSpec, provenance: Optional[dict] = None) -> dict:
    """Canonical JSON structure; key order is part of the format."""
    out = {
        "format": CODE_FORMAT,
        "p": code.field.p,
        "n": code.n,
        "buckets": [[list(col) for col in bucket] for bucket in code.buckets],
    }
    if provenance is not None:
        out["provenance"] = provenance
    return out


def code_to_json(code: CodeSpec, provenance: Optional[dict] = None) -> str:
    return json.dumps(code_to_dict(code, provenance), separators=(",", ":"))


def code_from_dict(data: dict) -> tuple[CodeSpec, Optional[dict]]:
    """Parse the canonical structure; returns (code, provenance-or-None)."""
    if not isinstance(data, dict):
        raise ValueError("code JSON must be an object")
    if data.get("format") != CODE_FORMAT:
        raise ValueError(f"unsupported code format {data.get('format')!r}")
    allowed = {"format", "p", "n", "buckets", "provenance"}
    extra = set(data) - allowed
    if extra:
        raise ValueError(f"unexpected keys in code JSON: {sorted(extra)}")
    missing = {"p", "n", "buckets"} - set(data)
    if missing:
        raise ValueError(f"missing keys in code JSON: {sorted(missing)}")
    fieldobj = PrimeField(_json_int(data["p"], '"p"'))
    n = _json_int(data["n"], '"n"')
    buckets = []
    for ell, bucket in enumerate(_json_list(data["buckets"], '"buckets"'), start=1):
        cols = []
        for col in _json_list(bucket, f"bucket {ell}"):
            entries = _json_list(col, f"a column of bucket {ell}")
            # JSON has no int subclass but bool, so this is `_json_int`'s check
            if not all(type(v) is int for v in entries):
                bad = next(v for v in entries if type(v) is not int)
                raise ValueError(f"an entry of bucket {ell} must be an integer, got {bad!r}")
            cols.append(entries)
        buckets.append(cols)
    code = CodeSpec(fieldobj, n, tuple(buckets))
    return code, data.get("provenance")


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def code_from_json(text: str) -> tuple[CodeSpec, Optional[dict]]:
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("code JSON is nested too deeply") from None
    return code_from_dict(data)


def load_code(path: str) -> tuple[CodeSpec, Optional[dict]]:
    with open(path, "r", encoding="utf-8") as fh:
        return code_from_json(fh.read())


def save_code(path: str, code: CodeSpec, provenance: Optional[dict] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(code_to_json(code, provenance))
        fh.write("\n")
