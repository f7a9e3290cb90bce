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
`cache` and freed with the code.  It builds those sets one size at a time,
each level from the one below (`SpanEngine._grow`), solves each (subset,
symbol) part once, and reads every linear answer from the basis of the
subset's shortest prefix that spans the symbol (`_reach`).  Each answer is
certified once, where it is made: `_reach` checks its solve and, in the
projection regime, `part` the part it solved, by `model`'s column
arithmetic.

Every planner, this search and the construction planners alike, builds a
plan's parts, one per request, with `make_part`: (bucket bitmask, the
search's form; nonzero answers; combo).  The request, part and plan
primitives live in `model`, beside the column arithmetic, so `construct`
and `affine` do not load this module.  Each planner has an internal entry
that takes the sorted request and returns its parts: `_search_parts` here,
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
the group of the code's symbol shift (`symbol_shift`) and reflection
(`symbol_reflection`), and a failing one stands for its orbit (`_sweep`).
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
from typing import Optional, Sequence

from .field import Echelon, annihilator, pack, unit_vector
from .model import CodeSpec, RecoveryPlan, _certifies, _partitions, bucket_indices, certified_part, combine
from .model import make_part, normalize_request, plan_from_parts, unit


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


def all_batch_requests(n: int, k: int):
    """All C(n+k-1, k) multisets of size k over [1, n], lexicographic."""
    return itertools.combinations_with_replacement(range(1, n + 1), k)


@dataclass(frozen=True)
class VerificationReport:
    kind: str  # "bac" or "pir"
    k: int
    model: ResponseModel
    checked: int
    failures: tuple  # of (request, reason)
    elapsed_s: float
    shift: int  # the symbol shift d of the code (n: none)
    reflection: Optional[int]  # the code's symbol reflection b (None: none)
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


class SpanEngine:
    """Per-code caches of joint-span queries over bucket subsets, for one
    response regime.

    A subset is an int bitmask over the 0-based bucket indices.  A linear
    part reads one memo, `_reach`: the coefficient-tracking `Echelon` of the
    subset's shortest prefix (lowest buckets) that spans the symbol; the
    projection regime keeps none of them.  Every (subset, symbol) part is
    solved once: `part` caches it, so plan assembly is lookups.  Each
    answer is certified once, where it is made, against the code's
    `column_table`: `_reach` checks its solve, and in the projection regime
    `part` checks the part it solved; one that fails is an internal error.
    `minimal_sets` lists, size by size, the minimal recovery sets the search
    draws its parts from; `_grow` makes each level from the one below, whose
    span annihilators it holds, and only the subsets whose one-smaller
    subsets together miss an open symbol.  The engine holds the code's
    field, n, buckets and column table but not the code, and lives in the
    code's own cache, one per regime (see `engine_for`), so it is freed with
    the code, as nothing it hands the search refers back to it.  It grows
    its minimal-set levels in place, so it is for one thread at a time.
    """

    def __init__(self, code: CodeSpec, model: ResponseModel):
        self.field = field = code.field
        self.n = code.n
        self.sizes = code.bucket_sizes
        self.linear = model is ResponseModel.LINEAR
        # the certificates read the column table; `Echelon` reads the columns
        # and unit targets packed once (`field.pack`), so it never repacks them
        self.table = code.column_table
        self.columns = tuple(tuple([pack(field.p, col) for col in b]) for b in code.buckets)
        self._bases: dict = {0: Echelon(field, self.n)}  # prefix mask -> Echelon
        self._reaches: dict = {}  # mask * n + i0 -> Echelon or None (`_reach`)
        self._parts: dict = {}  # mask * n + i0 -> part
        # projection: mask -> the span of its buckets inserted highest first,
        # so not a `_bases` entry (the suffix spans of `_solve_projection`)
        self._suffixes: dict = {}
        # minimal recovery sets: level s holds per symbol the minimal masks of
        # s buckets; `_open` has the symbols that may still have minimal sets
        # above the last level built, and `_served` and `_level_bases` map each
        # subset there that misses one to its served symbols and its span's
        # annihilator, product rows (`field.annihilator`) combining `rows`, those
        # of [I | C] for the columns C, with bucket ell0's products at `coords[ell0]`
        self._levels: list = [((),) * self.n]
        self._open = (1 << self.n) - 1
        self._served: dict = {0: 0}
        columns = [unit_vector(i0, self.n) for i0 in range(self.n)] + [c for b in code.buckets for c in b]
        self.rows, self.width = [pack(field.p, row) for row in zip(*columns)], len(columns)
        self.coords = [range(a, a + s) for s, a in zip(self.sizes, itertools.accumulate(self.sizes, initial=self.n))]
        self._level_bases: dict = {0: self.rows}

    def _with_bucket(self, ech: Echelon, ell0: int) -> Echelon:
        """A copy of `ech` with bucket ell0's columns inserted."""
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
        """The linear regime's basis of the shortest prefix of `mask`
        (`_prefix_bases`) whose span holds e_i0, or None; found once per
        (mask, symbol), asked of parts, not of leftovers.  Its solve is
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
                coeffs = reach.solve(pack(self.field.p, unit_vector(i0, self.n)))
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
        for all symbols at a time, each from the one below (`_grow`), and
        only as far as asked; above the size at which every subset recovers
        i0 there are none, and nothing more is built."""
        levels = self._levels
        while len(levels) <= size:
            if not (self._open >> i0) & 1:
                return ()
            self._grow(len(levels))
        return levels[size][i0]

    def _grow(self, size: int) -> None:
        """Level `size` of the minimal sets, from the level below.  A subset
        serves a symbol when it spans it and, in the projection regime,
        `part` finds an answer too; both are monotone, so a subset is minimal
        for the symbols it serves that none of its (size-1)-subsets serves,
        and `part` is asked only about those.  A subset is its parent (its
        lowest size-1 buckets) plus a bucket, made only if its (size-1)-subsets,
        each held as missing an open symbol, together miss one: else each open
        symbol is served by one of them, so the subset is minimal for none and
        serves them all, as its supersets do; its span's annihilator is the
        parent's cut by the bucket's products (`field.annihilator`).  Parents
        come in combinations order, and each one's annihilator goes once its
        children are made: one level is held, none once no symbol is open."""
        linear, open_, below, bases, p = self.linear, self._open, self._served, self._level_bases, self.field.p
        found: list = [[] for _ in range(self.n)]
        served_at, grown_bases, still_open = {}, {}, 0
        for parent, parent_served in below.items():
            ann, lows = bases.pop(parent), [1 << ell0 for ell0 in bucket_indices(parent)]
            for ell0 in range(parent.bit_length(), len(self.columns)):
                mask, seen = parent | 1 << ell0, parent_served
                for low in lows:
                    sub = below.get(mask ^ low)
                    if sub is None:
                        break
                    seen |= sub
                else:
                    if not open_ & ~seen:  # minimal for no symbol, and serves every open one
                        continue
                    grown = annihilator(p, self.width, ann, self.coords[ell0])
                    # e_i is spanned iff every row of the annihilator is zero at i
                    nonzero = functools.reduce(operator.or_, grown, 0) if p == 2 else pack(2, [*map(any, zip(*grown))])
                    served = open_ & ~nonzero
                    for i0 in bucket_indices(served & ~seen):
                        if linear or self.part(mask, i0) is not None:
                            found[i0].append(mask)
                        else:
                            served ^= 1 << i0
                    if open_ & ~served:
                        still_open |= open_ & ~served
                        served_at[mask], grown_bases[mask] = served, grown
        self._served, self._level_bases, self._open = served_at, grown_bases, still_open
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
        coeffs = reach.solve(pack(self.field.p, unit_vector(i0, self.n)))
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
        columns, unit = self.columns, pack(self.field.p, unit_vector(i0, self.n))
        suffix = [self._bases[0]]  # reversed below: suffix[idx] spans order[idx:]
        for ell0 in reversed(order):
            rest = mask >> ell0 << ell0
            span = self._suffixes.get(rest)
            if span is None:
                span = self._suffixes[rest] = self._with_bucket(suffix[-1], ell0)
            suffix.append(span)
        suffix.reverse()
        root = Echelon(self.field, self.n)
        found = suffix[0].contains_unit(i0) and _projection_dfs(order, columns, suffix, i0, unit, 0, root, ())
        if not found:
            return None
        choice, coeffs = found
        used = [((ell0 + 1, s), c) for (ell0, s), c in zip(choice, coeffs) if c]
        combo = dict.fromkeys((ell0 + 1 for ell0 in order), 1) | {ell: c for (ell, _), c in used}
        return make_part(self.sizes, combo, [(pick, 1) for pick, _ in used])


def _projection_dfs(order, columns, suffix, i0: int, unit, idx: int, ech: Echelon, chosen: tuple):
    """`SpanEngine._solve_projection`'s DFS below the node at bucket
    order[idx] with the chosen (bucket0, position) columns, whose basis is
    `ech`: the first (chosen columns, solve) that spans e_i0, or None.  A
    module function, as a closure that calls itself would be a cycle."""
    if ech.contains_unit(i0):
        return chosen, ech.solve(unit)
    # a child can succeed iff `joint` and its new column (if any) span e_i0
    joint = suffix[idx + 1].copy()
    joint.extend([columns[ell0][s] for ell0, s in chosen])
    target = joint.residue(unit)
    if not target and (res := _projection_dfs(order, columns, suffix, i0, unit, idx + 1, ech, chosen)) is not None:
        return res
    ell0 = order[idx]
    for s, col in enumerate(columns[ell0]):
        if target and joint.residue(col) != target:
            continue
        ech2 = ech.copy()
        if ech2.add(col) and (
            res := _projection_dfs(order, columns, suffix, i0, unit, idx + 1, ech2, chosen + ((ell0, s),))
        ) is not None:
            return res
    return None


def engine_for(code: CodeSpec, model: ResponseModel) -> SpanEngine:
    """The code's span engine for the response regime `model`, made on first
    use and kept in `code.cache`, one per regime."""
    engines = code.cache.setdefault("span-engines", {})
    engine = engines.get(model)
    if engine is None:
        engine = engines[model] = SpanEngine(code, model)
    return engine


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
    in that order finds the first plan.  Every part is non-empty, so a
    part that leaves fewer buckets than requests after it (`later`) has no
    completion and is not tried.

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
                level.grow = _children(
                    self.engine, levels[d - 1], level.leftovers, level.parents, level.seen, req[d - 1] - 1, k - d
                )
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


def _children(
    engine: SpanEngine, above: _Level, leftovers: list, parents: array, seen: set, i0: int, later: int
):
    """Make a level's leftovers, parents and seen set from the level
    `above`, one leftover per step: each leftover above gives up, in the
    search's order, each minimal set for symbol i0 inside it that leaves at
    least one bucket for each of the `later` requests after this one.  It
    is handed the level's parts, not the level or its frontier, which hold
    this generator: so no cycle keeps the engine alive."""
    recovers, free, j = engine.recovers, above.leftovers, 0
    while j < len(free) or above.more():
        left = free[j]
        for size in range(1, left.bit_count() - later + 1):
            for mask in engine.minimal_sets(i0, size):
                if mask & left == mask and (child := left ^ mask) not in seen:
                    if not recovers(mask, i0):
                        raise AssertionError(f"internal: frontier part failed certification for {(mask, i0)}")
                    seen.add(child)
                    leftovers.append(child)
                    parents.append(j)
                    yield True
        j += 1


def _shape(code: CodeSpec, s: int, reflect: bool = False) -> list:
    """The code's multiset of buckets, each a multiset of columns, with every
    column's coordinates reversed if `reflect`, then rotated by s
    (coordinate i to i + s mod n), as sorted lists."""
    return sorted(
        sorted((c := col[::-1] if reflect else col)[-s:] + c[:-s] for col in bucket) for bucket in code.buckets
    )


def symbol_shift(code: CodeSpec) -> int:
    """The smallest d < n dividing n such that rotating every column's
    coordinates by d (coordinate i to i + d mod n) maps the code's multiset
    of buckets, each a multiset of columns, onto itself; n, the identity, if
    there is none.  The shifts that map the code onto itself form a subgroup
    of Z_n, generated by its smallest member, which divides n."""
    n, own = code.n, _shape(code, 0)
    return next((d for d in range(1, n) if n % d == 0 and _shape(code, d) == own), n)


def symbol_reflection(code: CodeSpec, d: int) -> Optional[int]:
    """The least b < d such that the reflection i0 -> b - i0 (mod n) of
    every column's 0-based coordinates maps the code onto itself, as
    `symbol_shift` checks; None if there is none.  With the shifts by d (the
    code's `symbol_shift`) the reflections that do are those by b + s for s
    in dZ_n, so b < d is enough.  A b is tried first on the buckets'
    supports (bit i0 set if a column of the bucket has coordinate i0 nonzero):
    the reflection must map that multiset of bitmasks onto itself."""
    n, full, own = code.n, (1 << code.n) - 1, _shape(code, 0)
    supports = [bytes(map(any, zip(*bucket))) for bucket in code.buckets]
    held, mirrored = sorted(pack(2, s) for s in supports), [pack(2, s[::-1]) for s in supports]
    for b in range(d):  # reversing is i0 -> n - 1 - i0; rotating by b + 1 then gives b - i0
        rotated = sorted((x << b + 1 | x >> n - b - 1) & full for x in mirrored)
        if rotated == held and _shape(code, b + 1, True) == own:
            return b
    return None


def orbit_representatives(n: int, k: int, d: int, b: Optional[int] = None):
    """The least member of each orbit of the k-multisets over [1, n] under
    the symbol shift i -> i + d (mod n), d dividing n, and, if b is given,
    the reflection i0 -> b - i0 (mod n) of the 0-based symbols, in
    lexicographic order.  With b the group also holds the reflections by
    b + s for s in dZ_n, so the least image of a 0-based symbol x0 = x - 1
    is then (b - x0) mod d.  A least member's smallest symbol a is at most d,
    and none of its symbols x is carried below a: x0 mod d >= a0 = a - 1
    and, with b, (b - x0) mod d >= a0; only those candidates are generated.  A candidate is least when no shift and
    no reflection carrying one of its symbols x onto a makes it smaller
    (a reflection may carry a onto itself).  The image starts with as many
    a's as the candidate has x's, then a larger symbol, so it is smaller if
    x occurs more often than a and larger if less often; with equal counts
    the next symbols decide, and the whole image is built only if they tie.
    With b = None the sequence is the shift-only one."""
    for a in range(1, d + 1):
        symbols = [x for x in range(a, n + 1) if (x - 1) % d >= a - 1 and (b is None or (b - x + 1) % d >= a - 1)]
        if symbols[:1] != [a]:  # a reflection carries a below itself
            continue
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
                # the reflections, tried only on the shifts' survivors; x = a
                # is one unless the request is all a's (x == req[-1])
                for j in range(k) if b is not None else ():
                    x = req[j]
                    if x != req[j - 1] and (b - x + 1) % d == a - 1:
                        count = req.count(x)
                        if count > c:
                            break
                        if count < c:
                            continue
                        # the image y -> a + x - y: the symbols up to x reversed, then the rest
                        t, after = j + c, a + x - req[j - 1] + (0 if j else n)
                        if after < req[c] or (
                            after == req[c]
                            and tuple(a + x - y for y in reversed(req[:t]))
                            + tuple(a + x - y + n for y in reversed(req[t:]))
                            < req
                        ):
                            break
                else:
                    yield req


def orbit(req: tuple, n: int, d: int, b: Optional[int] = None) -> set:
    """Every distinct image of a sorted request under the shifts by d and,
    if b is given, the reflections i0 -> b + s - i0 (mod n), s in dZ_n."""
    images = {tuple(sorted((i + s - 1) % n + 1 for i in req)) for s in range(0, n, d)}
    if b is not None:
        images |= {tuple(sorted((b + s - i + 1) % n + 1 for i in req)) for s in range(0, n, d)}
    return images


def _sweep(code, k, model, kind) -> VerificationReport:
    """Decide every request of the sweep, one request per orbit of the group
    the code's symbol shift (`symbol_shift`) and reflection
    (`symbol_reflection`) generate, in this process.  The representatives
    are streamed, so no list of them is built.

    A coordinate permutation sigma that maps the code onto itself, a shift
    or a reflection alike, with bucket permutation pi (bucket ell's columns
    permuted are bucket pi(ell)'s), maps a certified plan for R onto one for
    sigma(R): part j moves to the buckets pi(part j), each bucket's response
    and combo coefficient move with it, and the identity of request i,
    permuted, is that of sigma(i); unit responses stay unit.  sigma^-1 maps
    plans back, so R is served iff sigma(R) is.  Only the least member of
    each orbit (`orbit_representatives`; for PIR the requests (a,)*k of its
    k = 1 members (a,)) is searched, and each failing one stands for its
    whole orbit."""
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
    reflection = symbol_reflection(code, shift)
    if kind == "bac":
        checked, reps = math.comb(n + k - 1, k), orbit_representatives(n, k, shift, reflection)
    else:
        checked, reps = n, ((a,) * k for (a,) in orbit_representatives(n, 1, shift, reflection))
    # zip stops at the end of reps before it advances the tally
    tally = itertools.count()
    reps = (rep for rep, _ in zip(reps, tally))
    failures = sorted(
        (req, reason) for rep, reason in _failures(code, model, reps) for req in orbit(rep, n, shift, reflection)
    )
    return VerificationReport(
        kind=kind,
        k=k,
        model=model,
        checked=checked,
        failures=tuple(failures),
        elapsed_s=time.monotonic() - start,
        shift=shift,
        reflection=reflection,
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
    engine = engine_for(code, ResponseModel.LINEAR)
    return _spanning(engine, code.m, 0, code.m - k + 1, engine.rows)


def _spanning(engine: SpanEngine, m: int, start: int, need: int, ann: list) -> bool:
    """`check_subset_spanning`'s DFS in combinations order, one annihilator
    (`field.annihilator`) per depth, that stops at the first subset of rank
    < n: whether each subset of `ann`'s buckets and `need` more from bucket
    `start` on has rank n, an empty annihilator.  A module function, as a
    closure that calls itself would be a cycle that keeps the engine."""
    if not need:
        return not ann
    return all(
        _spanning(engine, m, ell0 + 1, need - 1, annihilator(engine.field.p, engine.width, ann, engine.coords[ell0]))
        for ell0 in range(start, m - need + 1)
    )
