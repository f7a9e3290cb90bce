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

`find_plan` decides a request exactly, by a search over the minimal
recovery sets of each requested symbol that keeps one frontier of distinct
free-bucket sets per request depth (`_Frontier`).  A code has one
`SpanEngine` per response regime (`engine_for`), kept in the code's own
`cache` and freed with the code.  It builds those sets one size at a time
(`SpanEngine._grow`), solves each (subset, symbol) part once, and reads every
linear answer from the basis of the subset's shortest prefix that spans the
symbol (`_reach`), by which the search prunes in both regimes.  Each answer
is certified once, where it is made: `_reach` checks its solve and, in the
projection regime, `part` the part it solved, by `model`'s column arithmetic.

Every planner, this search and the construction planners alike, builds a
plan's parts, one per request, with `make_part`: (bucket bitmask, the
search's form; nonzero answers; combo).  Each has an internal entry that
takes the sorted request and returns its parts: `_search_parts` here,
`construct._goodvec_parts`, `construct._cyclic_parts` and
`affine._greedy_parts`.  The public planners hand those parts to
`plan_from_parts`, the one place that assembles a `RecoveryPlan`;
`sim.serve_batch` serves a batch from the parts themselves.  Parts sit on
disjoint buckets, so a plan certifies iff its parts partition [m]
(`_partitions`) and each passes the part check (`_certifies`) on its own.
A planner's part is certified once, where it is made: the engine's in
`_reach` and `part`, the construction planners' when their tables are
built, the greedy affine planner's per request (`certified_part`);
`plan_from_parts` and `serve_batch` check the partition (`_partition_sets`).
`certify_plan` reads a plan as parts (`_plan_parts`) and decides it by the
same two checks.  The sweeps of `verify_bac` and `verify_pir` hand out no
plans: they run the same search, one frontier for the whole sweep so that a
request shares the search of the prefix it has in common with the request
before it, and read each part's certificate (`SpanEngine.recovers`), which
is exact for the plans `find_plan` would return (see `_failures`).  Orbits
enter there: a sweep searches only the least request of each orbit under
the code's symbol shift (`symbol_shift`), and a failing one stands for its
orbit (`_sweep`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from .field import Echelon, unit_vector
from .model import CodeSpec, combine, unit


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

    A subset is an int bitmask over the 0-based bucket indices.  Whether it
    spans a symbol reads one memo, `_reach`: the coefficient-tracking
    `Echelon` of its shortest prefix (lowest buckets) that spans it, which
    also holds its linear part.  Every (subset, symbol) part of a plan is
    solved once: `part` caches it, so plan assembly is lookups.  Each
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
        # the certificates read the column table, `Echelon.extend` the same ints over GF(2)
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
        """A copy of `ech` with bucket ell0's columns inserted, in one pass."""
        grown = ech.copy()
        grown.extend(self.columns[ell0])
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
        solve is certified when the prefix is found: weighing the mask's
        columns by it (those of the prefix; zip drops the rest) must give
        e_i0 (`model.combine`)."""
        key = mask * self.n + i0
        reach = self._reaches.get(key, False)  # False: not looked for yet
        if reach is False:
            reach = next((ech for ech in self._prefix_bases(mask) if ech.contains_unit(i0)), None)
            if reach is not None:
                columns = [col for ell0 in bucket_indices(mask) for col in self.table[ell0]]
                coeffs = reach.solve(unit_vector(i0, self.n))
                if coeffs is None or combine(self.field.p, zip(coeffs, columns)) != unit(self.field.p, i0):
                    raise AssertionError(f"internal: solve failed certification for {(mask, i0)}")
            self._reaches[key] = reach
        return reach

    def recovers(self, mask: int, i0: int) -> bool:
        """Whether `mask` serves symbol i0, by an answer certified where it
        was made: `_reach`'s in the linear regime, `part`'s otherwise."""
        if not self.linear:
            return self.part(mask, i0) is not None
        # `_reach`'s memo read in place: the search asks at each part it makes
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
        (bucket bitmask, ((bucket0, response vector), ...) for the buckets
        that answer something nonzero, 1-based combo), as `make_part` builds
        it.  A linear part is the solve `_reach`
        certified; a projection part is certified here, once: its bucket set
        is the mask, and it passes `certified_part` with unit answers."""
        key = mask * self.n + i0
        part = self._parts.get(key, False)  # False: not solved yet
        if part is False:
            if self.linear:
                part = self._solve_linear(mask, i0)
            elif (part := self._solve_projection(mask, i0)) is not None:
                if part[0] != mask:
                    raise AssertionError(f"internal: part failed certification for {(mask, i0)}")
                certified_part(self.field.p, self.table, part, i0, projection=True)
            self._parts[key] = part
        return part

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
        cannot succeed; one reduction (`Echelon.residue`) against the basis of
        its parent's chosen columns and later buckets cuts it, so the first
        solution is the full DFS's."""
        order = bucket_indices(mask)
        columns, unit = self.columns, unit_vector(i0, self.n)
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
                return chosen, ech.solve(unit)
            # a child can succeed iff `joint` and its new column (if any) span e_i0
            joint = suffix[idx + 1].copy()
            joint.extend([columns[ell0][s] for ell0, s in chosen])
            target = joint.residue(unit)
            if not target and (res := dfs(idx + 1, ech, chosen)) is not None:
                return res
            ell0 = order[idx]
            for s, col in enumerate(columns[ell0]):
                if target and joint.residue(col) != target:
                    continue
                ech2 = ech.copy()
                if ech2.add(col) and (res := dfs(idx + 1, ech2, chosen + ((ell0, s),))) is not None:
                    return res
            return None

        found = suffix[0].contains_unit(i0) and dfs(0, Echelon(self.field, self.n), ())
        if not found:
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
        and functools.reduce(operator.or_, parts) == everything
        and sum(map(int.bit_count, parts)) == everything.bit_count()
    )


def _partition_sets(code: CodeSpec, req: tuple, parts: Sequence[tuple]) -> tuple:
    """The bucket bitmasks of the plan that serves request j with part j,
    and the bitmask of the buckets in no part, which join the last set.  The
    parts, each certified where it was made, must then partition [m]
    (`_partitions`), or it is an internal error."""
    everything = (1 << code.m) - 1
    sets = [part[0] for part in parts]
    leftover = everything & ~functools.reduce(operator.or_, sets, 0)
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


def certify_plan(
    code: CodeSpec,
    request: Sequence[int],
    plan: RecoveryPlan,
    model: ResponseModel = ResponseModel.LINEAR,
) -> bool:
    """Check a plan against the code: partition shape, the per-request
    coefficient identity, and (projection mode) unit responses, by the
    planners' partition and part checks (`_plan_parts`).

    Shape mismatches raise ValueError; a well-shaped but invalid plan
    returns False.
    """
    model = ResponseModel.parse(model)
    return _plan_parts(code, normalize_request(request, code.n), plan, model) is not None


def _plan_parts(code: CodeSpec, req: tuple, plan: RecoveryPlan, model: ResponseModel) -> Optional[list]:
    """`plan` read as parts (`make_part`), one per request of the sorted
    `req`, each with the answers of its buckets that are not all zero, if
    the plan certifies, else None; a plan of the wrong shape raises
    ValueError."""
    m, sizes, responses = code.m, code.bucket_sizes, plan.responses
    if len(responses) != m:
        raise ValueError(f"plan has {len(responses)} responses, code has {m} buckets")
    if tuple(map(len, responses)) != sizes:
        for ell0, resp in enumerate(responses):
            if len(resp) != sizes[ell0]:
                raise ValueError(
                    f"response for bucket {ell0 + 1} has length {len(resp)}, "
                    f"bucket stores {sizes[ell0]}"
                )
    if len(plan.sets) != len(plan.combos):
        raise ValueError("plan sets and combos disagree in length")
    masks, parts = [], []
    for ids, combo in zip(plan.sets, plan.combos):
        mask, answers = 0, []
        for ell in ids:
            if not 1 <= ell <= m:
                raise ValueError(f"bucket index {ell} out of range [1, {m}]")
            mask |= 1 << (ell - 1)
            if any(response := responses[ell - 1]):
                answers.append((ell - 1, tuple(response)))
        masks.append(mask)
        parts.append((mask, tuple(sorted(answers)), combo))
    for ids, combo in zip(plan.sets, plan.combos):
        for ell, _ in combo:
            if ell not in ids:
                raise ValueError(f"combo references bucket {ell} outside its recovery set")
    # a set listing a bucket twice has more entries than bits, so they add up past m
    if not _partitions(masks, len(req), (1 << m) - 1) or sum(map(len, plan.sets)) != m:
        return None
    p, projection = code.field.p, model is ResponseModel.PROJECTION
    certifies = all(_certifies(p, code.column_table, part, i - 1, projection) for part, i in zip(parts, req))
    return parts if certifies else None


def _unit_or_zero(p: int, vector) -> bool:
    """Whether a response is zero or a unit vector over F_p."""
    return [v % p for v in vector if v % p] in ([], [1])


def find_plan(
    code: CodeSpec,
    request: Sequence[int],
    model: ResponseModel = ResponseModel.LINEAR,
) -> Optional[RecoveryPlan]:
    """Exact search for a recovery plan (`_Frontier`), or None if no
    partition works.  Its parts are certified where the engine made them."""
    model = ResponseModel.parse(model)
    req = normalize_request(request, code.n)
    parts = _search_parts(code, req, model)
    return None if parts is None else plan_from_parts(code, req, parts)


def _search_parts(code: CodeSpec, req: tuple, model: ResponseModel) -> Optional[list]:
    """`find_plan`'s parts, one per request of the sorted, range-checked
    `req` (`normalize_request`), or None."""
    if len(req) > code.m:
        raise ValueError(f"cannot partition {code.m} buckets into {len(req)} non-empty parts")
    engine = engine_for(code, model)
    masks = _Frontier(engine, code.m).first_plan(req)
    if masks is None:
        return None
    return [engine.part(mask, i - 1) for mask, i in zip(masks, req)]


class _Level:
    """One depth of a `_Frontier`: its distinct leftovers in the order they
    were made, the index of each one's parent in the level above (an
    `array`), the set of them, and the generator that makes the next one."""

    __slots__ = ("leftovers", "parents", "seen", "grow")

    def __init__(self, leftovers: list):
        self.leftovers = leftovers
        self.parents = array("I")
        self.seen = set(leftovers)
        self.grow = iter(())

    def more(self) -> bool:
        """Make the next leftover; False once there is none."""
        return next(self.grow, False)


class _Frontier:
    """The plan search of one engine, one level per request depth, kept
    from one request to the next.

    A plan serves a sorted request by giving each request but the last a
    minimal recovery set (`SpanEngine.minimal_sets`) of the buckets still
    free, by increasing size and lexicographically within a size, and the
    last request every bucket left over.  These are the plans of trying
    every recovering subset in that order: recoverability is monotone and
    leftover buckets join the last part, so a completion for a superset of
    a minimal set A is one for A, and A comes first.  A depth-first search
    in that order finds the first plan; a leftover that does not span the
    next symbol (`_reach`) has no completion and is not extended, which
    every projection part shares, so the prune is sound.

    Level d holds the distinct leftovers after the first d requests, in the
    order that search first reaches them; each is made from the level
    above, lazily, one at a time (`_Level.more`).  What can be completed
    below a leftover depends only on the leftover and the requests still to
    serve, so when the search reaches a leftover a second time it has
    already found no completion below it: dropping it keeps the first plan.
    The first leftover of level k-1 that `recovers` the last symbol, on the
    path of parents that first reached it, is the search's first plan.
    Level d depends only on the first d requests and on k, so a request
    keeps the levels of the prefix it shares with the request before it and
    rebuilds only the deeper ones.  A part is the XOR of a leftover and its
    parent, and each is certified once (`SpanEngine.recovers`), when its
    leftover is made; one that fails is an internal error."""

    def __init__(self, engine: SpanEngine, m: int):
        self.engine = engine
        self.levels = [_Level([(1 << m) - 1])]
        self.req: tuple = ()
        # the last plan found, (its index in the last level, its part masks),
        # while the levels it was read from are kept
        self.found: Optional[tuple] = None

    def first_plan(self, req: tuple) -> Optional[tuple]:
        """The part bitmasks, one per request of the sorted `req`, of the
        first plan, uncertified but for the parts above the last; None if
        there is none.  Two requests served by the same leftover of the same
        levels get the same tuple."""
        k, levels, prev = len(req), self.levels, self.req
        shared = k - 1 if k == len(prev) else 0
        if req[:shared] != prev[:shared]:
            shared = next(d for d, (a, b) in enumerate(zip(req, prev)) if a != b)
        if len(levels) != k or shared + 1 < k:
            del levels[shared + 1 :]
            self.found = None
            for d in range(shared + 1, k):
                level = _Level([])
                level.grow = self._children(levels[d - 1], level, req[d - 1] - 1, k - d)
                levels.append(level)
        self.req = req
        last, i0, recovers = levels[-1], req[-1] - 1, self.engine.recovers
        leftovers, j = last.leftovers, 0
        while j < len(leftovers) or last.more():
            left = leftovers[j]
            if recovers(left, i0):
                if self.found is not None and self.found[0] == j:
                    return self.found[1]
                masks, entry = [left], j
                for d in range(k - 1, 0, -1):
                    j = levels[d].parents[j]
                    above = levels[d - 1].leftovers[j]
                    masks.append(above ^ left)
                    left = above
                self.found = (entry, tuple(reversed(masks)))
                return self.found[1]
            j += 1
        return None

    def _children(self, above: _Level, level: _Level, i0: int, later: int):
        """Make `level`'s leftovers from `above`'s, one per step: each
        leftover that spans e_i0 gives up, in the search's order, each
        minimal set for symbol i0 that leaves at least one bucket for each
        of the `later` requests after this one."""
        engine, recovers = self.engine, self.engine.recovers
        leftovers, parents, seen = level.leftovers, level.parents, level.seen
        free, j = above.leftovers, 0
        while j < len(free) or above.more():
            left = free[j]
            if engine._reach(left, i0) is not None:
                for size in range(1, left.bit_count() - later + 1):
                    for mask in engine.minimal_sets(i0, size):
                        if mask & left == mask and (child := left ^ mask) not in seen:
                            if not recovers(mask, i0):
                                raise AssertionError(
                                    f"internal: frontier part failed certification for {(mask, i0)}"
                                )
                            seen.add(child)
                            leftovers.append(child)
                            parents.append(j)
                            yield True
            j += 1


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
    serve, all decided by one `_Frontier`, so a request shares the search
    of the prefix it has in common with the request before it.  A served
    request is certified without building its plan: its part masks must
    partition [m] into k parts (`_partitions`), and each part must pass
    `SpanEngine.recovers`, read independently of the search's pruning (the
    frontier checked every part but the last when it made it).  That is
    exact: parts sit on disjoint buckets, and request j's identity and unit
    responses depend only on part j's responses and combo, so a plan
    certifies iff its parts partition [m] and each part certifies on its
    own.  A claimed plan that does not certify is an internal error."""
    engine = engine_for(code, model)
    everything = (1 << code.m) - 1
    frontier = _Frontier(engine, code.m)
    failures, partition = [], None  # the last part masks found to partition [m]
    for req in requests:
        masks = frontier.first_plan(req)
        if masks is None:
            failures.append((req, "no-partition"))
            continue
        if masks is not partition:
            if not _partitions(masks, len(req), everything):
                raise AssertionError(f"internal: found plan failed certification for {req}")
            partition = masks
        if not engine.recovers(masks[-1], req[-1] - 1):
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
