"""Decide and certify batch / PIR properties of an array code.

A batch request is a multiset of k symbol indices.  Serving it means
partitioning the m buckets into k non-empty parts, one per request, such that
part j can produce the requested symbol: each bucket in the part answers with
one linear combination of its stored symbols and the user combines the
answers.  Two response regimes are supported:

* linear      -- a bucket may answer any linear combination of its contents;
* projection  -- a bucket may only return one stored symbol verbatim (the
                 classic batch-code regime), so its response vector must be a
                 unit vector.

`find_plan` decides a request exactly, by a backtracking search over the
minimal recovery sets of each requested symbol (`_search`).  A code has one
`SpanEngine` per response regime (`engine_for`), kept in the code's own
`cache` and freed with the code.  It builds those sets one size at a time
(`SpanEngine._grow`), solves each (subset, symbol) part once, and reads every
linear answer from the basis of the subset's shortest prefix that spans the
symbol (`_reach`).  Each answer is certified once, where it is made: `_reach`
checks its solve and, in the projection regime, `part` the part it solved.

Every planner, this search and the construction planners alike, builds a
plan's parts, one per request, with `make_part` (bucket set, nonzero answers,
combo) and hands them to `plan_from_parts`, the one place that assembles a
`RecoveryPlan`.  `certify_plan` checks a plan as a coefficient identity over
the field, independently of how it was found.  Each plan handed out is
certified once: `find_plan` certifies each whole plan, `sim.serve_batch`
every other plan it serves and `affine.trial_verify` every greedy plan it
counts; the construction planners return uncertified plans.  The sweeps of
`verify_bac` and `verify_pir` hand out no plans: they run the same search and
read each part's certificate (`SpanEngine.certified`), which is exact for the
plans `find_plan` would return (see `_failures`).  Orbits enter there: a
sweep searches only the least request of each orbit under the code's symbol
shift (`symbol_shift`), and a failing one stands for its orbit (`_sweep`).
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from .field import Echelon, unit_vector
from .model import CodeSpec


class ResponseModel(Enum):
    LINEAR = "linear"
    PROJECTION = "projection"

    @classmethod
    def parse(cls, text) -> "ResponseModel":
        if isinstance(text, cls):
            return text
        try:
            return cls(str(text).lower())
        except ValueError:
            raise ValueError(f"unknown response model {text!r}") from None


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


def all_batch_requests(n: int, k: int):
    """All C(n+k-1, k) multisets of size k over [1, n], lexicographic."""
    return itertools.combinations_with_replacement(range(1, n + 1), k)


def pir_requests(n: int, k: int):
    """The n identical-index requests <i, ..., i>."""
    return ((i,) * k for i in range(1, n + 1))


@dataclass(frozen=True)
class RecoveryPlan:
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


@dataclass(frozen=True)
class VerificationReport:
    kind: str  # "bac" or "pir"
    k: int
    model: ResponseModel
    checked: int
    failures: tuple  # of (request, reason)
    elapsed_s: float
    shift: int  # the symbol shift d of the code (n: none)
    representatives: int  # the orbit representatives decided

    @property
    def status(self) -> str:
        return "pass" if not self.failures else "fail"

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "checked": self.checked,
            "failures": [
                {"request": list(req), "reason": reason} for req, reason in self.failures
            ],
        }


def bucket_indices(mask: int) -> list:
    """The 0-based bucket indices set in a bucket bitmask, ascending."""
    return [ell0 for ell0 in range(mask.bit_length()) if (mask >> ell0) & 1]


class SpanEngine:
    """Per-code caches of joint-span queries over bucket subsets, for one
    response regime.

    A subset is an int bitmask over the 0-based bucket indices.  In the
    linear regime whether it recovers a symbol and its part both read one
    memo, `_reach`: the coefficient-tracking `Echelon` of its shortest prefix
    (lowest buckets) that spans the symbol.  Every (subset, symbol) part of a
    plan is solved once: `part` caches it, so plan assembly is lookups.  Each
    answer is certified once, where it is made, against the code's
    `column_table`: `_reach` checks its solve, and in the projection regime
    `part` checks the part it solved; one that fails is an internal error.
    `minimal_sets` lists, size by size, the minimal recovery sets the search
    draws its parts from; `_grow` makes each level from the symbols that the
    subsets of the level below serve.  The engine holds the code's field, n,
    buckets and column table but not the code, and lives in the code's own
    cache, one per regime (see `engine_for`), so it is freed together with
    the code.  It grows its minimal-set levels in place, so it is for one
    thread at a time.
    """

    def __init__(self, code: CodeSpec, model: ResponseModel):
        self.field = field = code.field
        self.n = code.n
        self.sizes = code.bucket_sizes
        self.linear = model is ResponseModel.LINEAR
        # the certificates read the column table, `Echelon.add` the same ints over GF(2)
        self.table = code.column_table
        self.columns = self.table if field.p == 2 else code.buckets
        self._bases: dict = {0: Echelon(field, self.n)}  # prefix mask -> Echelon
        self._reaches: dict = {}  # mask * n + i0 -> Echelon or None (`_reach`)
        self._parts: dict = {}  # mask * n + i0 -> part
        # projection: mask -> the span of its buckets inserted highest first,
        # so not a `_bases` entry (the suffix spans of `_solve_projection`)
        self._suffixes: dict = {}
        # minimal recovery sets: level s holds per symbol the minimal masks of
        # s buckets; `_open` has the symbols that may still have minimal sets
        # above the last level built
        self._levels: list = [((),) * self.n]
        self._open = (1 << self.n) - 1
        # the last level built: mask -> served symbols (`_grow`)
        self._served: dict = {0: 0}

    def _with_bucket(self, ech: Echelon, ell0: int) -> Echelon:
        """A copy of `ech` with bucket ell0's columns inserted."""
        grown = ech.copy()
        for col in self.columns[ell0]:
            grown.add(col)
        return grown

    def _prefix_bases(self, mask: int):
        """The bases of the prefixes of `mask` (its lowest bucket, its lowest
        two, ..., all of it) in turn.  Each is cached, and one not cached yet
        is a copy of the one before with the next bucket's columns added, so
        the insertion order is always ascending."""
        ech, prefix, rest = self._bases[0], 0, mask
        while rest:
            low = rest & -rest
            rest ^= low
            prefix |= low
            grown = self._bases.get(prefix)
            if grown is None:
                grown = self._bases[prefix] = self._with_bucket(ech, low.bit_length() - 1)
            ech = grown
            yield ech

    def _reach(self, mask: int, i0: int) -> Optional[Echelon]:
        """The basis of the shortest prefix of `mask` (`_prefix_bases`) whose
        span holds e_i0, or None; found once per (mask, symbol).  Its solve is
        the whole mask's, padded with zeros, over any F_p: the columns that
        enlarged the span when inserted form a basis, so e_i0 has exactly one
        combination of them, and the prefix holds every column it uses (its
        independent columns are the mask's first ones and span e_i0).  The
        solve is certified when the prefix is found: the subset as one bucket
        whose answer is the solve over its columns (those of the prefix; zip
        drops the rest) must give e_i0."""
        key = mask * self.n + i0
        reach = self._reaches.get(key, False)  # False: not looked for yet
        if reach is False:
            reach = next((ech for ech in self._prefix_bases(mask) if ech.contains_unit(i0)), None)
            if reach is not None:
                columns = [col for ell0 in bucket_indices(mask) for col in self.table[ell0]]
                coeffs = reach.solve(unit_vector(i0, self.n))
                if coeffs is None or not _sums_to_unit(
                    self.field.p, ((1, 1),), (coeffs,), (columns,), i0
                ):
                    raise AssertionError(f"internal: solve failed certification for {(mask, i0)}")
            self._reaches[key] = reach
        return reach

    def recovers(self, mask: int, i0: int) -> bool:
        if not self.linear:
            return self.part(mask, i0) is not None
        # `_reach`'s memo read in place: the search asks at every node
        reach = self._reaches.get(mask * self.n + i0, False)
        return (self._reach(mask, i0) if reach is False else reach) is not None

    def minimal_sets(self, i0: int, size: int) -> tuple:
        """The bucket bitmasks of `size` buckets that recover symbol i0 while
        no proper subset does, ordered by their ascending bucket-index tuples
        (`itertools.combinations` order).  Sizes are built lazily, one level
        for all symbols at a time, and only as far as asked; above the size
        at which every subset recovers i0 there are none, and nothing more
        is built."""
        levels = self._levels
        while len(levels) <= size:
            if not (self._open >> i0) & 1 or len(levels) > len(self.columns):
                return ()
            self._grow(len(levels))
        return levels[size][i0]

    def _subsets(self, size: int, done):
        """(mask, symbols) for each subset of `size` buckets in combinations
        order, with bit i of `symbols` set when its columns span e_i.  A DFS
        keeps one `Echelon` per depth and caches none; it does not extend a
        smaller subset for which done(mask, symbols) holds."""
        m = len(self.columns)

        def extend(start: int, depth: int, mask: int, ech: Echelon):
            for ell0 in range(start, m - size + depth + 1):
                grown = self._with_bucket(ech, ell0)
                sub, symbols = mask | 1 << ell0, grown.spanned_units()
                if depth + 1 == size:
                    yield sub, symbols
                elif not done(sub, symbols):
                    yield from extend(ell0 + 1, depth + 1, sub, grown)

        return extend(0, 0, 0, self._bases[0])

    def _grow(self, size: int) -> None:
        """Level `size` of the minimal sets.  A subset serves a symbol when
        it spans it and, in the projection regime, `part` finds an answer
        too; both are monotone, so a subset is minimal for the symbols it
        serves that none of its (size-1)-subsets serves, and `part` is asked
        only about those.  Only the served symbols of the previous level are
        kept, and only of the subsets that miss an open symbol.  In the
        linear regime a subset that spans every open symbol is not extended,
        as nothing above it is minimal for one."""
        linear, open_, below = self.linear, self._open, self._served
        found: list = [[] for _ in range(self.n)]
        served_at: dict = {}
        still_open = 0

        def spans_all(_, symbols: int) -> bool:
            return linear and symbols & open_ == open_

        for mask, symbols in self._subsets(size, spans_all):
            served = new = symbols & open_
            rest = mask
            while new and rest:
                low = rest & -rest
                # a subset missing from `below` serves every open symbol
                new &= ~below.get(mask ^ low, open_)
                rest ^= low
            for i0 in bucket_indices(new):
                if linear or self.part(mask, i0) is not None:
                    found[i0].append(mask)
                else:
                    served ^= 1 << i0
            missing = open_ & ~served
            if missing:
                still_open |= missing
                served_at[mask] = served
        self._served = served_at
        self._open = still_open
        self._levels.append(tuple(map(tuple, found)))

    def part(self, mask: int, i0: int) -> Optional[tuple]:
        """How the buckets in `mask` serve symbol i0, or None if they cannot:
        (bucket set, ((bucket0, response vector), ...) for the buckets that
        answer something nonzero, combo), with the set and the combo 1-based
        as in `RecoveryPlan`.  A linear part is the solve `_reach` certified;
        a projection part is certified here, once, with `certify_plan`'s
        checks on its own part of a plan: its bucket set is the mask, its
        answers and combo lie in it, its answers are unit vectors and they
        combine to e_i0."""
        key = mask * self.n + i0
        part = self._parts.get(key, False)  # False: not solved yet
        if part is False:
            if self.linear:
                part = self._solve_linear(mask, i0)
            elif (part := self._solve_projection(mask, i0)) is not None:
                p, table = self.field.p, self.table
                bucket_set, vectors, combo = part
                answers = dict(vectors)
                responses = [answers.get(ell0, ()) for ell0 in range(len(table))]
                if not (
                    bucket_set == {ell0 + 1 for ell0 in bucket_indices(mask)}
                    and {ell0 + 1 for ell0 in answers} | {ell for ell, _ in combo} <= bucket_set
                    and all(_unit_or_zero(p, vector) for vector in answers.values())
                    and _sums_to_unit(p, combo, responses, table, i0)
                ):
                    raise AssertionError(f"internal: part failed certification for {(mask, i0)}")
            self._parts[key] = part
        return part

    def certified(self, mask: int, i0: int) -> bool:
        """Whether `mask` serves symbol i0 by an answer certified where it was
        made (`_reach`, `part`), read without `recovers`."""
        return (self._reach(mask, i0) if self.linear else self.part(mask, i0)) is not None

    def _solve_linear(self, mask: int, i0: int) -> Optional[tuple]:
        """Any combination of each bucket's columns: the lowest-index solve
        over `_reach`; every bucket's combo coefficient is 1."""
        reach = self._reach(mask, i0)
        if reach is None:
            return None
        coeffs = reach.solve(unit_vector(i0, self.n))
        buckets = [ell0 + 1 for ell0 in bucket_indices(mask)]
        # zip stops at the prefix's columns, the first of the owners
        owners = [(ell, s) for ell in buckets for s in range(self.sizes[ell - 1])]
        return make_part(self.sizes, dict.fromkeys(buckets, 1), zip(owners, coeffs))

    def _solve_projection(self, mask: int, i0: int) -> Optional[tuple]:
        """At most one stored column per bucket, returned verbatim: a
        deterministic DFS over the buckets ascending, skip-first, with an early
        exit once the chosen columns span e_i; the user combines the chosen
        columns with their lowest-index solve.  A node whose chosen and
        remaining columns miss e_i (at the root: the subset does not span it)
        cannot succeed and is cut, so the first solution is the full DFS's."""
        order = bucket_indices(mask)
        columns = self.columns
        suffix = [self._bases[0]]  # reversed below: suffix[idx] spans order[idx:]
        for ell0 in reversed(order):
            rest = mask >> ell0 << ell0
            span = self._suffixes.get(rest)
            if span is None:
                span = self._suffixes[rest] = self._with_bucket(suffix[-1], ell0)
            suffix.append(span)
        suffix.reverse()

        def dfs(idx: int, ech: Echelon, chosen: tuple):
            if ech.contains_unit(i0):
                return chosen, ech.solve(unit_vector(i0, self.n))
            joint = suffix[idx].copy()
            for ell0, s in chosen:
                joint.add(columns[ell0][s])
            if not joint.contains_unit(i0):
                return None
            res = dfs(idx + 1, ech, chosen)
            if res is not None:
                return res
            ell0 = order[idx]
            for s, col in enumerate(columns[ell0]):
                ech2 = ech.copy()
                if not ech2.add(col):
                    continue
                res = dfs(idx + 1, ech2, chosen + ((ell0, s),))
                if res is not None:
                    return res
            return None

        found = dfs(0, Echelon(self.field, self.n), ())
        if found is None:
            return None
        choice, coeffs = found
        used = [((ell0 + 1, s), c) for (ell0, s), c in zip(choice, coeffs) if c]
        combo = dict.fromkeys((ell0 + 1 for ell0 in order), 1) | {ell: c for (ell, _), c in used}
        return make_part(self.sizes, combo, [(pick, 1) for pick, _ in used])


def engine_for(code: CodeSpec, model: ResponseModel) -> SpanEngine:
    """The code's span engine for the response regime `model`, made on first
    use and kept in `code.cache`, one per regime."""
    engines = code.cache.setdefault("span-engines", {})
    engine = engines.get(model)
    if engine is None:
        engine = engines[model] = SpanEngine(code, model)
    return engine


def _plan_tables(code: CodeSpec) -> tuple:
    """The code's 1-based bucket indices and its all-zero responses, kept in
    `code.cache` (its sizes and columns are `CodeSpec` properties)."""
    tables = code.cache.get("plan-tables")
    if tables is None:
        tables = code.cache["plan-tables"] = (
            frozenset(range(1, code.m + 1)),
            tuple((0,) * len(b) for b in code.buckets),
        )
    return tables


def make_part(sizes: Sequence[int], combo: dict, picks) -> tuple:
    """The plan part in which the buckets of `combo`, {bucket: coefficient}
    (1-based), serve one request: bucket ell answers the response vector
    whose entries the `picks`, ((bucket, position), value) pairs at distinct
    positions, set (zero elsewhere; `sizes` gives each bucket's length), and
    the user weighs each answer by the bucket's coefficient.  The part is the
    triple
        (1-based bucket set,
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
        frozenset(order),
        tuple([(ell - 1, tuple(vectors[ell])) for ell in order if ell in vectors]),
        tuple([(ell, combo[ell]) for ell in order]),
    )


def plan_from_parts(code: CodeSpec, req: tuple, parts: Sequence[tuple]) -> RecoveryPlan:
    """The plan that serves request j with part j, as `make_part` builds
    it.  Every other bucket answers zero, and the buckets in no part join the
    last part with coefficient 1."""
    bucket_ids, zeros = _plan_tables(code)
    responses = list(zeros)
    sets, combos = [], []
    for bucket_set, vectors, combo in parts:
        sets.append(bucket_set)
        combos.append(combo)
        for ell0, vector in vectors:
            responses[ell0] = vector
    leftover = bucket_ids.difference(*sets)
    if leftover:
        sets[-1] = sets[-1] | leftover
        combos[-1] = tuple(sorted(combos[-1] + tuple((ell, 1) for ell in leftover)))
    return RecoveryPlan(
        request=req, sets=tuple(sets), responses=tuple(responses), combos=tuple(combos)
    )


def certify_plan(
    code: CodeSpec,
    request: Sequence[int],
    plan: RecoveryPlan,
    model: ResponseModel = ResponseModel.LINEAR,
) -> bool:
    """Check a plan against the code: partition shape, the per-request
    coefficient identity, and (projection mode) unit responses.

    Shape mismatches raise ValueError; a well-shaped but invalid plan
    returns False.
    """
    model = ResponseModel.parse(model)
    req = normalize_request(request, code.n)
    m = code.m
    p = code.field.p
    sizes, columns = code.bucket_sizes, code.column_table
    bucket_ids, _ = _plan_tables(code)
    if len(plan.responses) != m:
        raise ValueError(f"plan has {len(plan.responses)} responses, code has {m} buckets")
    if tuple(map(len, plan.responses)) != sizes:
        for ell0, resp in enumerate(plan.responses):
            if len(resp) != sizes[ell0]:
                raise ValueError(
                    f"response for bucket {ell0 + 1} has length {len(resp)}, "
                    f"bucket stores {sizes[ell0]}"
                )
    if len(plan.sets) != len(plan.combos):
        raise ValueError("plan sets and combos disagree in length")
    union = frozenset().union(*plan.sets)
    if not union <= bucket_ids:
        for part in plan.sets:
            for ell in part:
                if not 1 <= ell <= m:
                    raise ValueError(f"bucket index {ell} out of range [1, {m}]")
    for part, combo in zip(plan.sets, plan.combos):
        for ell, _ in combo:
            if ell not in part:
                raise ValueError(f"combo references bucket {ell} outside its recovery set")

    # (a) partition of [m] into exactly k non-empty parts: no bucket twice
    # (the part sizes add up to the union's) and none left out
    if len(plan.sets) != len(req) or not all(plan.sets):
        return False
    if len(union) != m or sum(map(len, plan.sets)) != m:
        return False

    # (c) projection regime: nonzero responses must be unit vectors
    if model is ResponseModel.PROJECTION and not all(_unit_or_zero(p, r) for r in plan.responses):
        return False

    # (b) coefficient identity per request, over the generator columns
    for combo, i in zip(plan.combos, req):
        if not _sums_to_unit(p, combo, plan.responses, columns, i - 1):
            return False
    return True


def _unit_or_zero(p: int, vector) -> bool:
    """Whether a response is zero or a unit vector over F_p."""
    return [v % p for v in vector if v % p] in ([], [1])


def _sums_to_unit(p: int, combo, responses, columns, i0: int) -> bool:
    """The coefficient identity: whether the answers the combo's
    (bucket, coefficient) pairs weigh, each answer applied to its bucket's
    columns, sum to e_i0 over F_p.  Bucket ell answers responses[ell - 1]
    and stores columns[ell - 1], as `CodeSpec.column_table` holds them: XOR
    of packed columns over GF(2), one reduction per coordinate otherwise."""
    acc = 0 if p == 2 else {i0: -1}  # F_p: coordinate -> unreduced sum
    for ell, coeff in combo:
        resp = responses[ell - 1]
        if not any(resp):
            continue
        for r, col in zip(resp, columns[ell - 1]):
            w = (coeff * r) % p
            if not w:
                continue
            if p == 2:
                acc ^= col
            else:
                for d, v in col:
                    acc[d] = acc.get(d, 0) + w * v
    if p == 2:
        return acc == 1 << i0
    return not any(a % p for a in acc.values())


def find_plan(
    code: CodeSpec,
    request: Sequence[int],
    model: ResponseModel = ResponseModel.LINEAR,
) -> Optional[RecoveryPlan]:
    """Exact search for a recovery plan (`_search`), or None if no
    partition works.  The plan is certified before it is returned."""
    model = ResponseModel.parse(model)
    req = normalize_request(request, code.n)
    if len(req) > code.m:
        raise ValueError(f"cannot partition {code.m} buckets into {len(req)} non-empty parts")
    engine = engine_for(code, model)
    masks = _search(engine, req, (1 << code.m) - 1)
    if masks is None:
        return None
    plan = plan_from_parts(code, req, [engine.part(mask, i - 1) for mask, i in zip(masks, req)])
    if not certify_plan(code, req, plan, model):
        raise AssertionError(f"internal: found plan failed certification for {req}")
    return plan


def _search(engine: SpanEngine, req: tuple, left: int) -> Optional[list]:
    """The part bitmasks, one per request of the sorted `req`, of the first
    plan on the buckets in the bitmask `left`, uncertified; None if there is
    none.  Each request but the last takes a minimal recovery set
    (`SpanEngine.minimal_sets`) of the free buckets, by increasing size and
    lexicographically within a size, and the last takes every leftover
    bucket.  These are the plans of trying every recovering subset in that
    order: recoverability is monotone and leftover buckets join the last
    part, so a completion for a superset of a minimal set A is one for A,
    and A comes first."""
    i0 = req[0] - 1
    # recoverability is monotone, so an infeasible union prunes the branch
    if not engine.recovers(left, i0):
        return None
    if len(req) == 1:
        return [left]
    for size in range(1, left.bit_count() - len(req) + 2):
        for mask in engine.minimal_sets(i0, size):
            if mask & left == mask:
                rest = _search(engine, req[1:], left ^ mask)
                if rest is not None:
                    return [mask, *rest]
    return None


def symbol_shift(code: CodeSpec) -> int:
    """The smallest d < n dividing n such that rotating every column's
    coordinates by d (coordinate i to i + d mod n) maps the code's multiset
    of buckets, each a multiset of columns, onto itself; n, the identity, if
    there is none.  The shifts that map the code onto itself form a subgroup
    of Z_n, generated by its smallest member, which divides n."""
    n = code.n

    def shape(d):
        return sorted(sorted(col[-d:] + col[:-d] for col in bucket) for bucket in code.buckets)

    own = shape(0)
    return next((d for d in range(1, n) if n % d == 0 and shape(d) == own), n)


def orbit_representatives(n: int, k: int, d: int):
    """The least member of each orbit of the k-multisets over [1, n] under
    the symbol shift i -> i + d (mod n), d dividing n, in lexicographic
    order.  A least member's smallest symbol a is at most d, and none of its
    symbols is congruent mod d to a symbol below a, or a shift would carry it
    there; only those candidates are generated.  A candidate is least when
    no shift carrying one of its symbols x congruent to a onto a makes it
    smaller: that shift maps its symbols from x on to the front.  The image
    starts with as many a's as the candidate has x's, then a larger symbol,
    so it is smaller if x occurs more often than a and larger if less often;
    with equal counts the next symbols decide, and the whole image is built
    only if they tie."""
    for a in range(1, d + 1):
        symbols = [x for x in range(a, n + 1) if (x - 1) % d >= a - 1]
        for rest in itertools.combinations_with_replacement(symbols, k - 1):
            req = (a, *rest)
            c = req.count(a)
            for j in range(c, k):
                x = req[j]
                if x != req[j - 1] and (x - a) % d == 0:
                    count = req.count(x)
                    if count > c:
                        break
                    if count < c:
                        continue
                    s = x - a
                    after = req[j + c] - s if j + c < k else a - s + n
                    if after < req[c] or (
                        after == req[c]
                        and tuple(y - s for y in req[j:]) + tuple(y - s + n for y in req[:j]) < req
                    ):
                        break
            else:
                yield req


def orbit(req: tuple, n: int, d: int) -> set:
    """Every distinct image of a sorted request under the shifts by d."""
    return {tuple(sorted((i + s - 1) % n + 1 for i in req)) for s in range(0, n, d)}


def _sweep(code, k, model, kind) -> VerificationReport:
    """Decide every request of the sweep, one request per orbit of the code's
    symbol shift (`symbol_shift`), in this process.  The representatives
    are streamed, so no list of them is built.

    A coordinate permutation sigma that maps the code onto itself, with
    bucket permutation pi (bucket ell's columns rotated are bucket pi(ell)'s),
    maps a certified plan for R onto one for sigma(R): part j moves to the
    buckets pi(part j), each bucket's response and combo coefficient move
    with it, and the identity of request i, rotated, is that of sigma(i);
    unit responses stay unit.  sigma^-1 maps plans back, so R is served iff
    sigma(R) is.  Only the least member of each orbit
    (`orbit_representatives`; the PIR requests (i,)*k for i <= d) is
    searched, and each failing one stands for its whole orbit."""
    model = ResponseModel.parse(model)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > code.m:
        raise ValueError(f"k = {k} exceeds bucket count m = {code.m}")
    for ell0, bucket in enumerate(code.buckets):
        if not bucket:
            raise ValueError(
                f"bucket {ell0 + 1} is empty; final codes must store something "
                "in every node"
            )
    start = time.monotonic()
    n, shift = code.n, symbol_shift(code)
    if kind == "bac":
        checked, reps = math.comb(n + k - 1, k), orbit_representatives(n, k, shift)
    else:
        checked, reps = n, pir_requests(shift, k)
    # zip stops at the end of reps before it advances the tally
    tally = itertools.count()
    reps = (rep for rep, _ in zip(reps, tally))
    failures = sorted(
        (req, reason) for rep, reason in _failures(code, model, reps) for req in orbit(rep, n, shift)
    )
    return VerificationReport(
        kind=kind,
        k=k,
        model=model,
        checked=checked,
        failures=tuple(failures),
        elapsed_s=time.monotonic() - start,
        shift=shift,
        representatives=next(tally),
    )


def _failures(code: CodeSpec, model: ResponseModel, requests) -> list:
    """(request, "no-partition") for each sorted request the search cannot
    serve.  A served request is certified without building its plan: its
    part masks must partition [m] into k parts, and each part must pass
    `SpanEngine.certified`, read independently of the search's pruning.
    That is exact: parts sit on disjoint buckets, and request j's identity
    and unit responses depend only on part j's responses and combo, so a
    plan certifies iff its parts partition [m] and each part certifies on
    its own.  A claimed plan that does not
    certify is an internal error."""
    engine = engine_for(code, model)
    everything = (1 << code.m) - 1
    failures = []
    for req in requests:
        masks = _search(engine, req, everything)
        if masks is None:
            failures.append((req, "no-partition"))
            continue
        union, certified = 0, len(masks) == len(req)
        for mask, i in zip(masks, req):
            certified = certified and not union & mask and engine.certified(mask, i - 1)
            union |= mask
        if not certified or union != everything:
            raise AssertionError(f"internal: found plan failed certification for {req}")
    return failures


def verify_bac(
    code: CodeSpec,
    k: int,
    model: ResponseModel = ResponseModel.LINEAR,
) -> VerificationReport:
    """Exhaustively check the k-batch property over all C(n+k-1, k) request
    multisets (lexicographic order)."""
    return _sweep(code, k, model, "bac")


def verify_pir(
    code: CodeSpec,
    k: int,
    model: ResponseModel = ResponseModel.LINEAR,
) -> VerificationReport:
    """Check the k-PIR property: only the n identical-index requests."""
    return _sweep(code, k, model, "pir")


def check_subset_spanning(code: CodeSpec, k: int) -> bool:
    """True iff every (m-k+1)-subset of buckets jointly spans every unit
    vector, i.e. has full joint rank n.  Any verified k-PIR code has this
    property."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > code.m:
        raise ValueError(f"k = {k} exceeds bucket count m = {code.m}")
    everything = (1 << code.n) - 1
    subsets = engine_for(code, ResponseModel.LINEAR)._subsets(code.m - k + 1, lambda mask, symbols: False)
    return all(symbols == everything for _, symbols in subsets)
