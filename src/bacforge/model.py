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
functional on data packed by `pack`, which comes from `field`, the one packer
of that layout.  `encode`, `sim` and `verify` use them, and so do the
request, part and plan primitives every planner shares, which live here so
that building a code does not load `verify`'s search: `normalize_request`,
`make_part`, the part check (`_certifies`, `certified_part`), the partition
check (`_partitions`, `_partition_sets`) and `plan_from_parts`, the one
place that assembles a `RecoveryPlan` (see `verify` for how they fit).

Symbol and bucket indices are 1-based at the public API (0-based internally).
Codeword and RecoveryPlan, like every record of the package, are
NamedTuples (change one with `_replace`); CodeSpec is a plain class whose
attributes cannot be assigned, and a pickled CodeSpec drops its cache.  A
CodeSpec reduces its columns when it is made and tabulates them on first use
(`column_table`, `bucket_sizes`).  Its `cache` holds the other state derived
from it alone, built on first use and freed with the code: one span engine
of `verify` per response regime, the per-parameter tables of the cyclic and
good-vector planners (each made after checking the code against its
construction), one planner context and the entry of its planner, which
`sim` resolved from the last provenance it was given, and the node answers
`sim.serve_batch` evaluates, one functional of the data and its fan-in per
(bucket, response) served.
Nothing in it refers back to the code.
"""

from __future__ import annotations

import json
import operator
from functools import cached_property, reduce
from typing import Iterable, NamedTuple, Optional, Sequence

from .field import Echelon, PrimeField, pack

CODE_FORMAT = "bacforge-code-v1"


class CodeSpec:
    """An (n, N, k, m) array code: m buckets of generator columns over F_p.

    k is not part of the data; it is a property a code is verified against.
    n and the column entries must be integers, as in Python indexing
    (`operator.index`); the entries are reduced mod p.  The value of a code
    is (field, n, buckets): ==, hash, repr and pickles read only these, and
    no attribute can be assigned.
    """

    def __init__(self, field: PrimeField, n: int, buckets: tuple):
        n = operator.index(n)
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        if len(buckets) < 1:
            raise ValueError("a code needs at least one bucket")
        p, norm = field.p, []
        for b, bucket in enumerate(buckets, start=1):
            cols = []
            for col in bucket:
                if len(col) != n:
                    raise ValueError(f"bucket {b} has a column of length {len(col)}, expected {n}")
                cols.append(tuple([operator.index(v) % p for v in col]))
            norm.append(tuple(cols))
        # `cache`: derived per-code state, filled lazily by its users; not
        # part of the code's value
        self.__dict__.update(field=field, n=n, buckets=tuple(norm), cache={})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.n, self.buckets) == (other.field, other.n, other.buckets)

    def __hash__(self):
        return hash((self.field, self.n, self.buckets))

    def __repr__(self):
        return f"CodeSpec(field={self.field!r}, n={self.n!r}, buckets={self.buckets!r})"

    def __reduce__(self):
        return (CodeSpec, (self.field, self.n, self.buckets))

    @property
    def m(self) -> int:
        return len(self.buckets)

    # like `cache`, out of ==, hash, repr and pickles
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


class Codeword(NamedTuple):
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


def normalize_request(indices: Iterable[int], n: int) -> tuple:
    """Sort a request multiset and range-check it against [1, n].  Indices
    must be integers, as in Python indexing (`operator.index`): a float or a
    string raises TypeError rather than being truncated or parsed."""
    req = tuple(sorted(map(operator.index, indices)))
    if not req:
        raise ValueError("empty batch request")
    for i in req:
        if not 1 <= i <= n:
            raise ValueError(f"request index {i} out of range [1, {n}]")
    return req


def bucket_indices(mask: int) -> list:
    """The 0-based bucket indices set in a bucket bitmask, ascending."""
    return [ell0 for ell0 in range(mask.bit_length()) if (mask >> ell0) & 1]


class RecoveryPlan(NamedTuple):
    """A verifiable certificate for one served batch request.

    sets       -- k disjoint non-empty bucket-index sets covering [m]
                  (1-based), aligned with the sorted request
    responses  -- per bucket, the response vector in F_p^{N_ell}
                  (zero vector for non-contributing buckets)
    combos     -- per request j, ((bucket, coefficient), ...) over its set
    """

    request: tuple
    sets: tuple
    responses: tuple
    combos: tuple


def make_part(sizes: Sequence[int], combo: dict, picks) -> tuple:
    """The plan part in which the buckets of `combo`, {bucket: coefficient}
    (1-based), serve one request: bucket ell answers the response vector
    whose entries the `picks`, ((bucket, position), value) pairs at distinct
    positions, set (zero elsewhere; `sizes` gives each bucket's length), and
    the user weighs each answer by the bucket's coefficient.  The part is the
    triple
        (bucket bitmask, with bit ell - 1 for bucket ell,
         ((bucket0, response), ...) for the nonzero answers only,
         ((bucket, coefficient), ...)),
    both tuples in ascending bucket order; every planner builds its parts
    here and `plan_from_parts` assembles them."""
    vectors: dict = {}
    for (ell, s), value in picks:
        if value:
            vector = vectors.get(ell)
            if vector is None:
                vector = vectors[ell] = [0] * sizes[ell - 1]
            vector[s] = value
    order = sorted(combo)
    return (
        sum([1 << (ell - 1) for ell in order]),
        tuple([(ell - 1, tuple(vectors[ell])) for ell in order if ell in vectors]),
        tuple([(ell, combo[ell]) for ell in order]),
    )


def _certifies(p: int, table, part: tuple, i0: int, projection: bool) -> bool:
    """The part check, of a planner's parts and of a plan's alike: whether
    `part` (`make_part`) has its answers and combo in its bucket set, answers
    only unit vectors in the projection regime, and serves e_i0: its answers
    weigh the columns in `table` of a code over F_p to e_i0 (`combine`)."""
    bucket_set, answers, combo = part
    for ell0, vector in answers:
        if not bucket_set >> ell0 & 1 or projection and not _unit_or_zero(p, vector):
            return False
    answers, pairs = dict(answers), []
    for ell, coeff in combo:
        if not bucket_set >> (ell - 1) & 1:
            return False
        response = answers.get(ell - 1)
        if response is not None:
            for r, col in zip(response, table[ell - 1]):
                if r:
                    pairs.append((coeff * r, col))
    return combine(p, pairs) == unit(p, i0)


def certified_part(p: int, table, part: tuple, i0: int, projection: bool = False) -> tuple:
    """`part`, which must pass the part check (`_certifies`) where a planner
    makes it; a part that fails is an internal error."""
    if not _certifies(p, table, part, i0, projection):
        buckets = [ell0 + 1 for ell0 in bucket_indices(part[0])]
        raise AssertionError(f"internal: part {buckets} failed certification for x{i0 + 1}")
    return part


def _partitions(parts: Sequence[int], k: int, everything: int) -> bool:
    """Whether the bucket bitmasks `parts` are k non-empty sets whose union
    is `everything` and whose sizes add up to its size: a partition of
    `everything`, the one partition check of plans, planners and sweeps."""
    return (
        len(parts) == k
        and all(parts)
        and reduce(operator.or_, parts) == everything
        and sum(map(int.bit_count, parts)) == everything.bit_count()
    )


def _partition_sets(code: CodeSpec, req: tuple, parts: Sequence[tuple]) -> tuple:
    """The bucket bitmasks of the plan that serves request j with part j,
    and the bitmask of the buckets in no part, which join the last set.  The
    parts, each certified where it was made, must then partition [m]
    (`_partitions`), or it is an internal error."""
    everything = (1 << code.m) - 1
    sets = [part[0] for part in parts]
    leftover = everything & ~reduce(operator.or_, sets, 0)
    if leftover:
        sets[-1] |= leftover
    if not _partitions(sets, len(req), everything):
        raise AssertionError(f"internal: parts do not partition the buckets for {req}")
    return sets, leftover


def plan_from_parts(code: CodeSpec, req: tuple, parts: Sequence[tuple]) -> RecoveryPlan:
    """The plan that serves request j with part j (`_partition_sets`), with
    1-based bucket-index sets.  Every other bucket answers zero, and the
    leftover buckets join the last part with coefficient 1."""
    sets, leftover = _partition_sets(code, req, parts)
    responses = [(0,) * size for size in code.bucket_sizes]
    for _, vectors, _ in parts:
        for ell0, vector in vectors:
            responses[ell0] = vector
    combos = [combo for _, _, combo in parts]
    if leftover:
        combos[-1] = tuple(sorted(combos[-1] + tuple((ell0 + 1, 1) for ell0 in bucket_indices(leftover))))
    return RecoveryPlan(
        request=req,
        sets=tuple(frozenset(ell0 + 1 for ell0 in bucket_indices(mask)) for mask in sets),
        responses=tuple(responses),
        combos=tuple(combos),
    )


def _unit_or_zero(p: int, vector) -> bool:
    """Whether a response is zero or a unit vector over F_p."""
    return [v % p for v in vector if v % p] in ([], [1])


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
