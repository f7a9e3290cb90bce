"""Explicit array-code generators, their proof-mirroring certified planners,
and the composition rules for building larger codes out of small ones.

Families:

* replication / single-request / parity -- the three one-line baseline codes;
* cyclic         -- k information buckets that each omit one cyclic block of
                    symbols, plus m-k identical block-sum buckets;
* uniform        -- k+1 interleaved copies of the cyclic code at m = k+1, all
                    buckets the same size;
* good-vector    -- one bucket per symbol storing the symbol plus t pair sums
                    whose offsets come from a Skolem-like sequence.

Bucket indexing note: the cyclic information buckets are emitted in reverse
shift order (bucket ell omits the (k+1-ell)-th shifted block).  Relabeling
buckets changes nothing about recoverability, and this order reproduces the
published reference tables for the (4,13,4,5) and uniform (20,65,4,5) codes
verbatim, which the golden tests pin down.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import isqrt
from typing import NamedTuple, Optional, Sequence

from .field import GF2, PrimeField, unit_vector
from .model import CodeSpec, RecoveryPlan, certified_part, codes_equal, make_part, normalize_request, plan_from_parts


def _wrap(x: int, n: int) -> int:
    """Reduce an index into [1, n] (cyclic, 1-based)."""
    return (x - 1) % n + 1


def _shifted(col: tuple, offset: int, n: int) -> tuple:
    """A column of a code embedded in length n at coordinates offset,
    offset + 1, ...; zero elsewhere."""
    return (0,) * offset + col + (0,) * (n - offset - len(col))


def _indicator(indices_1based, n: int) -> tuple:
    col = [0] * n
    for i in indices_1based:
        col[i - 1] = 1
    return tuple(col)


# ---------------------------------------------------------------------------
# baseline codes


def trivial_replication(n: int, k: int, field: PrimeField = GF2) -> CodeSpec:
    """k buckets, each storing all n symbols verbatim: N = kn, the only way
    to serve k parallel requests from m = k nodes."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    bucket = tuple(unit_vector(i, n) for i in range(n))
    return CodeSpec(field, n, tuple(bucket for _ in range(k)))


def single_request_code(n: int, m: int, field: PrimeField = GF2) -> CodeSpec:
    """Each symbol stored exactly once, round-robin over m buckets: N = n,
    serves any single request (k = 1)."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    if m > n:
        raise ValueError(f"m = {m} > n = {n} would leave an empty bucket")
    buckets = [[] for _ in range(m)]
    for i in range(n):
        buckets[i % m].append(unit_vector(i, n))
    return CodeSpec(field, n, tuple(tuple(b) for b in buckets))


def parity_code_k2(m: int, field: PrimeField = GF2) -> CodeSpec:
    """n = m-1 systematic buckets plus one all-ones parity bucket; an
    (m-1, m, 2, m) batch array code."""
    if m < 3:
        raise ValueError(f"parity code needs m >= 3, got {m}")
    n = m - 1
    buckets = [(unit_vector(i, n),) for i in range(n)]
    buckets.append((_indicator(range(1, n + 1), n),))
    return CodeSpec(field, n, tuple(buckets))


# ---------------------------------------------------------------------------
# cyclic shifted-set construction (k < m < 2k)


@dataclass(frozen=True)
class CyclicParams:
    """Parameters of the cyclic construction together with the shifted sets.

    shifted_sets[ell-1] is the ell-th cyclically shifted block of
    (m-k)*n/k symbol indices; information bucket ell omits
    shifted_sets[k-ell] (see the module note on bucket order).
    """

    n: int
    k: int
    m: int
    shifted_sets: tuple

    @property
    def block(self) -> int:
        """Width of one shifted set and of the sum buckets."""
        return (self.m - self.k) * self.n // self.k

    def omitted(self, ell: int) -> frozenset:
        """Symbols absent from information bucket ell (1 <= ell <= k)."""
        return self.shifted_sets[self.k - ell]


def cyclic_params(n: int, k: int, m: int) -> CyclicParams:
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if n % k != 0:
        raise ValueError(f"k = {k} must divide n = {n}")
    if not k < m < 2 * k:
        raise ValueError(f"need k < m < 2k, got k = {k}, m = {m}")
    if k % (m - k) != 0:
        raise ValueError(f"m - k = {m - k} must divide k = {k}")
    step = n // k
    width = m - k
    sets = []
    for ell in range(1, k + 1):
        block = frozenset(
            _wrap((ell - 1 + a) * step + b, n)
            for a in range(width)
            for b in range(1, step + 1)
        )
        sets.append(block)
    return CyclicParams(n, k, m, tuple(sets))


def cyclic_shift_code(n: int, k: int, m: int, field: PrimeField = GF2) -> CodeSpec:
    """Cyclic construction: buckets 1..k store all symbols outside one shifted
    block; buckets k+1..m are identical, storing the block-aligned sums.
    Total length (2k - m + (m-k)^2/k) * n."""
    params = cyclic_params(n, k, m)
    buckets = []
    for ell in range(1, k + 1):
        omitted = params.omitted(ell)
        cols = tuple(unit_vector(i - 1, n) for i in range(1, n + 1) if i not in omitted)
        buckets.append(cols)
    block = params.block
    copies = k // (m - k)
    sum_bucket = tuple(
        _indicator([t * block + b for t in range(copies)], n) for b in range(1, block + 1)
    )
    for _ in range(k + 1, m + 1):
        buckets.append(sum_bucket)
    return CodeSpec(field, n, tuple(buckets))


def _table_part(code: CodeSpec, i: int, combo: dict, picks) -> tuple:
    """The part `make_part` builds from `combo` and `picks` for a planner
    table, certified to serve symbol i once, here (`certified_part`)."""
    return certified_part(code.field.p, code.column_table, make_part(code.bucket_sizes, combo, picks), i - 1)


def _augmenting_match(left_count: int, neighbors) -> dict:
    """Perfect matching of [0, left_count) into bucket vertices via augmenting
    paths; neighbors[u] is an ascending list of candidate buckets."""
    owner: dict = {}
    for u in range(left_count):
        if not _assign(u, neighbors, owner, set()):
            raise ValueError(f"no complete matching for request position {u}")
    return {u: b for b, u in owner.items()}


def _assign(u: int, neighbors, owner: dict, seen: set) -> bool:
    """`_augmenting_match`'s augmenting path from u; a closure calling itself would be a cycle."""
    for b in neighbors[u]:
        if b in seen:
            continue
        seen.add(b)
        if b not in owner or _assign(owner[b], neighbors, owner, seen):
            owner[b] = u
            return True
    return False


def _cyclic_tables(params: CyclicParams, code: CodeSpec) -> tuple:
    """The parts the cyclic planner serves a symbol with, made once per
    (code, params), after checking the code against the construction, and
    kept in `code.cache`: per information bucket ell0, `alone[ell0]` maps
    each symbol it stores to the part in which it serves that symbol by
    itself, and `paired[ell0]` maps each symbol it omits to the parts, one
    per sum bucket in index order, in which the bucket's block-mates of the
    symbol are subtracted from that sum bucket's block sum.  Each part is
    certified once, here (`_table_part`)."""
    tables = code.cache.setdefault("cyclic", {})
    hit = tables.get(params)
    if hit is None:
        if not codes_equal(cyclic_shift_code(params.n, params.k, params.m, code.field), code):
            raise ValueError("code does not match the cyclic construction for these parameters")
        n, k, m, block = params.n, params.k, params.m, params.block
        copies = k // (m - k)
        minus_one = code.field.p - 1
        alone, paired = [], []
        for ell in range(1, k + 1):
            stored = [i for i in range(1, n + 1) if i not in params.omitted(ell)]
            position_of = {i: s for s, i in enumerate(stored)}
            alone.append({i: _table_part(code, i, {ell: 1}, [((ell, s), 1)]) for s, i in enumerate(stored)})
            pairs = {}
            for i in params.omitted(ell):
                b = (i - 1) % block + 1
                # bucket ell answers the sum of the symbol's stored block-mates
                mates = [t * block + b for t in range(copies) if t * block + b != i]
                mates = [((ell, position_of[mate]), 1) for mate in mates]
                pairs[i] = tuple(
                    _table_part(code, i, {ell: minus_one, ell_sum: 1}, mates + [((ell_sum, b - 1), 1)])
                    for ell_sum in range(k + 1, m + 1)
                )
            paired.append(pairs)
        hit = tables[params] = (tuple(alone), tuple(paired))
    return hit


def cyclic_certified_plan(
    params: CyclicParams, code: CodeSpec, request: Sequence[int]
) -> RecoveryPlan:
    """Recovery plan built the way the cyclic construction's proof does:
    a complete matching serves 2k-m requests from information buckets that
    store their symbol; each remaining request takes one unused information
    bucket, alone if it stores the symbol and otherwise paired with the next
    unused sum bucket."""
    req = normalize_request(request, params.n)
    return plan_from_parts(code, req, _cyclic_parts(params, code, req))


def _cyclic_parts(params: CyclicParams, code: CodeSpec, req: tuple) -> list:
    """`cyclic_certified_plan`'s parts, one per request of the sorted,
    range-checked `req` (`normalize_request`)."""
    alone, paired = _cyclic_tables(params, code)
    k, m = params.k, params.m
    if len(req) != k:
        raise ValueError(f"cyclic planner serves exactly k = {k} requests, got {len(req)}")

    matched_count = 2 * k - m
    neighbors = [
        [ell0 for ell0 in range(k) if req[u] in alone[ell0]]
        for u in range(matched_count)
    ]
    match = _augmenting_match(matched_count, neighbors)
    parts = [alone[match[u]][req[u]] for u in range(matched_count)]

    unused = sorted(set(range(k)) - set(match.values()))
    sums_taken = 0
    for pos, ell0 in zip(range(matched_count, k), unused):
        i = req[pos]
        if i in alone[ell0]:
            parts.append(alone[ell0][i])
        else:
            parts.append(paired[ell0][i][sums_taken])
            sums_taken += 1
    return parts


def uniform_code(n: int, k: int, field: PrimeField = GF2) -> CodeSpec:
    """Uniform variant for m = k+1: k+1 copies of the cyclic code on symbol
    blocks of size n/(k+1), interleaved so every bucket receives exactly one
    sub-bucket per copy.  All buckets have size (k - 1 + 1/k) * n / (k+1)."""
    if k < 2:
        raise ValueError("uniform construction needs k >= 2")
    if n % (k * (k + 1)) != 0:
        raise ValueError(f"k(k+1) = {k * (k + 1)} must divide n = {n}")
    n0 = n // (k + 1)
    sub = cyclic_shift_code(n0, k, k + 1, field)
    buckets = []
    for ell in range(1, k + 2):
        cols = []
        for j in range(1, k + 2):
            s = (ell - j) % (k + 1) + 1  # sub-bucket of copy j landing here
            cols.extend(_shifted(col, (j - 1) * n0, n) for col in sub.buckets[s - 1])
        buckets.append(tuple(cols))
    return CodeSpec(field, n, tuple(buckets))


# ---------------------------------------------------------------------------
# good vectors (Skolem-like pair sequences) and the code built from them


def is_good_vector(entries: Sequence[int], t: int) -> bool:
    """Check the defining conditions: length 2t over [1, t] or 2t+1 over
    [0, t], every j in [1, t] appearing exactly twice at distance exactly j
    (and, in the odd-length regime, a single 0); a float or a string entry
    is not an integer (`operator.index`), so that vector is not good."""
    if t < 1:
        return False
    try:
        vals = [operator.index(v) for v in entries]
    except TypeError:
        return False
    if len(vals) not in (2 * t, 2 * t + 1):
        return False
    lo = 0 if len(vals) == 2 * t + 1 else 1
    if any(v < lo or v > t for v in vals):
        return False
    if len(vals) == 2 * t + 1 and vals.count(0) != 1:
        return False
    # one pass: the positions of each value, in order
    positions: dict = {}
    for idx, v in enumerate(vals):
        positions.setdefault(v, []).append(idx)
    for j in range(1, t + 1):
        at = positions.get(j, ())
        if len(at) != 2 or at[1] - at[0] != j:
            return False
    return True


@dataclass(frozen=True)
class GoodVector:
    """A validated good vector with its per-value last-occurrence map; a
    float or a string entry raises TypeError (`operator.index`)."""

    t: int
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(map(operator.index, self.entries)))
        if not is_good_vector(self.entries, self.t):
            raise ValueError(f"{self.entries} is not a good vector for t = {self.t}")

    @property
    def last_occurrence(self) -> dict:
        """j -> largest 1-based position where j occurs."""
        out = {}
        for idx, v in enumerate(self.entries, start=1):
            if v >= 1:
                out[v] = idx
        return out


def good_vector(entries: Sequence[int], t: Optional[int] = None) -> GoodVector:
    entries = tuple(map(operator.index, entries))
    if t is None:
        if not entries:
            raise ValueError("empty vector")
        t = max(entries)
    return GoodVector(t, entries)


def enumerate_good_vectors(t: int, length: int) -> list:
    """All good vectors of the given length, exhaustive backtracking in
    lexicographic order.  t and length must be integers (`operator.index`)."""
    t, length = operator.index(t), operator.index(length)
    if t < 1:
        raise ValueError("t must be >= 1")
    if length not in (2 * t, 2 * t + 1):
        raise ValueError(f"length must be 2t = {2 * t} or 2t+1 = {2 * t + 1}, got {length}")
    out: list = []
    # 0 is placed once, and only in a vector of length 2t+1
    _fill([None] * length, [length == 2 * t] + [False] * t, out)
    return out


def _fill(slots: list, used: list, out: list) -> None:
    """`enumerate_good_vectors`'s backtracking: fill the first empty slot
    with 0 or with a value j not `used` yet, j also going j slots further
    on, and append each full vector to `out`.  A module function, as a
    closure that calls itself would be a cycle."""
    try:
        pos = slots.index(None)
    except ValueError:
        out.append(tuple(slots))
        return
    length = len(slots)
    candidates = [0] if not used[0] else []
    candidates += [j for j in range(1, len(used)) if not used[j] and pos + j < length and slots[pos + j] is None]
    for j in candidates:
        used[j] = True
        slots[pos] = j
        if j:
            slots[pos + j] = j
        _fill(slots, used, out)
        slots[pos] = None
        if j:
            slots[pos + j] = None
        used[j] = False


def good_vector_2t1(t: int) -> GoodVector:
    """The explicit good vector of length 2t+1: a mirrored odd run meeting at
    the adjacent 1-pair, followed by a mirrored even run centered on 0."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if t % 2 == 0:
        odd_half = list(range(t - 1, 0, -2))  # t-1, t-3, ..., 1
        even_half = list(range(t, 1, -2))  # t, t-2, ..., 2
    else:
        odd_half = list(range(t, 0, -2))  # t, t-2, ..., 1
        even_half = list(range(t - 1, 1, -2))  # t-1, t-3, ..., 2
    first = tuple(odd_half + odd_half[::-1])
    second = tuple(even_half + [0] + even_half[::-1])
    return GoodVector(t, first + second)


def good_vector_code(v: GoodVector, field: PrimeField = GF2) -> CodeSpec:
    """One bucket per symbol: bucket i stores x_i plus the t pair sums
    x_{i-t-J(j)} + x_{i-t-J(j)+j}, J(j) the last occurrence of j in the good
    vector.  n = 4t+1 (even-length vector) or 4t+2; N = (t+1) n."""
    if not isinstance(v, GoodVector):
        v = good_vector(v)
    t = v.t
    n = 4 * t + 1 if len(v.entries) == 2 * t else 4 * t + 2
    last = v.last_occurrence
    buckets = []
    for i in range(1, n + 1):
        cols = [unit_vector(i - 1, n)]
        for j in range(1, t + 1):
            base = _wrap(i - t - last[j], n)
            cols.append(_indicator([base, _wrap(base + j, n)], n))
        buckets.append(tuple(cols))
    return CodeSpec(field, n, tuple(buckets))


class BatchKBound(NamedTuple):
    """Largest batch size the greedy disjointness argument supports, plus the
    closed-form value (sufficient, may be smaller)."""

    exact: int
    closed_form: int


def max_batch_k(t: int) -> BatchKBound:
    """Largest k such that 2k <= 2t + D + ceil(k/D) for every D in [1, k].
    Taking D = k shows k <= 2t+1, which bounds the search."""
    if t < 1:
        raise ValueError("t must be >= 1")
    best = 1
    for k in range(1, 2 * t + 2):
        if all(2 * k <= 2 * t + d + -(-k // d) for d in range(1, k + 1)):
            best = max(best, k)
    closed = (2 * t + 1 + isqrt(4 * t + 1)) // 2
    return BatchKBound(best, closed)


def canonical_recovery_sets(v: GoodVector, n: int, i: int) -> list:
    """The 2t+1 pairwise-disjoint recovery sets of symbol i in the
    good-vector code, in deterministic order: the singleton {i}, then for
    each offset j the (i-j)-pair and the (i+j)-pair.

    Each entry is (bucket_set, response_spec) where response_spec lists
    (bucket, column_index, combo_coefficient_sign) triples.
    """
    t = v.t
    last = v.last_occurrence
    sets = [(frozenset([i]), ((i, 0, 1),))]
    for j in range(1, t + 1):
        a = _wrap(i - j, n)
        b = _wrap(i + t + last[j] - j, n)
        sets.append((frozenset([a, b]), ((a, 0, -1), (b, j, 1))))
        a = _wrap(i + j, n)
        b = _wrap(i + t + last[j], n)
        sets.append((frozenset([a, b]), ((a, 0, -1), (b, j, 1))))
    return sets


def _goodvec_tables(v: GoodVector, code: CodeSpec) -> tuple:
    """The canonical recovery sets of every symbol (symbol i at index i - 1),
    each as the plan part that serves i from it, and the supported batch size
    `max_batch_k(v.t).exact`; made once per (code, v), after checking the
    code against the construction, and kept in `code.cache`.  Each part is
    certified once, here (`_table_part`)."""
    tables = code.cache.setdefault("goodvec", {})
    hit = tables.get(v)
    if hit is None:
        if not codes_equal(good_vector_code(v, code.field), code):
            raise ValueError("code does not match the good-vector construction for this vector")
        p = code.field.p
        families = tuple(
            tuple(
                _table_part(code, i, {b: sign % p for b, _, sign in spec}, [((b, s), 1) for b, s, _ in spec])
                for _, spec in canonical_recovery_sets(v, code.n, i)
            )
            for i in range(1, code.n + 1)
        )
        hit = tables[v] = (families, max_batch_k(v.t).exact)
    return hit


def goodvec_certified_plan(
    v: GoodVector, code: CodeSpec, request: Sequence[int]
) -> RecoveryPlan:
    """Greedy plan following the construction's correctness proof: requests
    grouped by index, groups served in order of increasing multiplicity; each
    group takes its singleton first, then the lowest-indexed canonical sets
    still disjoint from everything chosen."""
    if not isinstance(v, GoodVector):
        v = good_vector(v)
    req = normalize_request(request, code.n)
    return plan_from_parts(code, req, _goodvec_parts(v, code, req))


def _goodvec_parts(v: GoodVector, code: CodeSpec, req: tuple) -> list:
    """`goodvec_certified_plan`'s parts, one per request of the sorted,
    range-checked `req` (`normalize_request`)."""
    families, bound = _goodvec_tables(v, code)
    k = len(req)
    if k > bound:
        raise ValueError(f"k = {k} exceeds the supported batch size {bound} for t = {v.t}")

    symbols = set(req)
    used = sum([1 << (i - 1) for i in symbols])  # bitmask; bucket i is symbol i's singleton
    chosen: dict = {}
    for mult, i in sorted((req.count(i), i) for i in symbols):
        family = families[i - 1]
        picked = chosen[i] = [family[0]]
        for part in family[1:]:
            if len(picked) == mult:
                break
            if not part[0] & used:
                used |= part[0]
                picked.append(part)
        if len(picked) < mult:
            raise AssertionError(
                f"greedy ran out of disjoint recovery sets for symbol {i} (k = {k})"
            )
    # `req` is sorted, so its positions for symbol i follow each other
    return [part for i in sorted(chosen) for part in chosen[i]]


# ---------------------------------------------------------------------------
# composition (gadget rules)


def compose_parallel(c1: CodeSpec, c2: CodeSpec) -> CodeSpec:
    """Same data vector served by both codes side by side:
    (n, N1+N2, k1+k2, m1+m2)."""
    if c1.field.p != c2.field.p:
        raise ValueError("codes must share the field")
    if c1.n != c2.n:
        raise ValueError(f"parallel composition needs equal n, got {c1.n} and {c2.n}")
    return CodeSpec(c1.field, c1.n, c1.buckets + c2.buckets)


def compose_concat(c1: CodeSpec, c2: CodeSpec) -> CodeSpec:
    """Independent data vectors side by side:
    (n1+n2, N1+N2, min(k1,k2), m1+m2)."""
    if c1.field.p != c2.field.p:
        raise ValueError("codes must share the field")
    n = c1.n + c2.n
    left = tuple(tuple(_shifted(col, 0, n) for col in bucket) for bucket in c1.buckets)
    right = tuple(tuple(_shifted(col, c1.n, n) for col in bucket) for bucket in c2.buckets)
    return CodeSpec(c1.field, n, left + right)


def compose_repeat(code: CodeSpec, count: int) -> CodeSpec:
    """count independent copies on disjoint symbol blocks, merged bucketwise:
    (count*n, count*N, k, m) with the same m."""
    if count < 1:
        raise ValueError("count must be >= 1")
    n = code.n * count
    buckets = tuple(
        tuple(_shifted(col, copy * code.n, n) for copy in range(count) for col in bucket)
        for bucket in code.buckets
    )
    return CodeSpec(code.field, n, buckets)
