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

`find_plan` is an exact decision procedure: backtracking over the minimal
recovery sets of each requested symbol (bucket bitmasks no proper subset of
which recovers it), in increasing cardinality, with the last request taking
every leftover bucket.  Recoverability is monotone, so a superset of a minimal
set never completes a plan that the minimal set could not, and the plans are
those of trying every subset in the same order.  The code's `SpanEngine`
builds the minimal sets one size at a time, reading the symbols a subset
spans off one incremental `Echelon` per subset; it also reduces each part's
bucket subset once and solves each (subset, symbol, regime) part once.  The
engine lives in the code's own `cache` and is freed with the code.

Every planner, this search and the construction planners alike, describes a
plan as one part per request (bucket set, nonzero answers, combo) and hands
the parts to `plan_from_parts`, the one place that assembles a
`RecoveryPlan`.  `certify_plan` checks a plan as a coefficient identity over
the field (XOR of packed columns over GF(2)), independently of how it was
found.  Plans are certified where they are handed out: `find_plan` certifies
its own, `sim.serve_batch` certifies every plan it serves and
`affine.trial_verify` every greedy plan it counts; the construction planners
return uncertified plans.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from .field import Echelon, unit_vector, vector_to_mask
from .model import CodeSpec, column_table


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
    """Sort a request multiset and range-check it against [1, n]."""
    req = tuple(sorted(int(i) for i in indices))
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
    """Per-code caches of joint-span queries over bucket subsets.

    A subset is an int bitmask over the 0-based bucket indices.  Its joint
    column span is reduced once into a coefficient-tracking `Echelon` (the
    buckets' columns inserted in ascending bucket order, packed once over
    GF(2)), grown from the cached basis of its longest cached prefix (its
    lowest buckets).  Every (subset, symbol, regime) part of a plan is solved
    once: `part` caches it, with its tuples interned, so plan assembly is
    lookups.  `minimal_sets` lists, size by size, the minimal recovery sets
    the search draws its parts from.  The engine holds only the code's field,
    n and buckets and lives in the code's own cache (see `engine_for`), so it
    is freed together with the code.  It grows its minimal-set levels in
    place, so it is for one thread at a time.
    """

    def __init__(self, field, n: int, buckets: tuple):
        self.field = field
        self.n = n
        self.buckets = buckets
        # the columns as `Echelon.add` takes them: packed ints over GF(2)
        if field.p == 2:
            self.columns = tuple(tuple(vector_to_mask(col) for col in b) for b in buckets)
        else:
            self.columns = buckets
        self._bases: dict = {0: Echelon(field, n)}  # mask -> Echelon
        self._linear: dict = {}  # mask * n + i0 -> bool
        self._parts: dict = {model: {} for model in ResponseModel}  # mask * n + i0 -> part
        self._interned: dict = {}
        # minimal recovery sets: per regime, level s holds per symbol the
        # minimal masks of s buckets; `_open` has the symbols that may still
        # have minimal sets above the last level built
        self._levels: dict = {model: [((),) * n] for model in ResponseModel}
        self._open: dict = {model: (1 << n) - 1 for model in ResponseModel}
        self._level_spans: dict = {0: 0}  # last linear level: mask -> spanned symbols

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

    def _basis(self, mask: int) -> Echelon:
        ech = self._bases.get(mask)
        if ech is None:
            *_, ech = self._prefix_bases(mask)
        return ech

    def recovers_linear(self, mask: int, i0: int) -> bool:
        key = mask * self.n + i0
        hit = self._linear.get(key)
        if hit is None:
            ech = self._bases.get(mask)
            if ech is None:
                # a prefix of full rank spans e_i0, and so does all of mask
                for ech in self._prefix_bases(mask):
                    if ech.rank == self.n:
                        break
            hit = self._linear[key] = ech.contains_unit(i0)
        return hit

    def recovers(self, mask: int, i0: int, model: ResponseModel) -> bool:
        if model is ResponseModel.LINEAR:
            return self.recovers_linear(mask, i0)
        return self.part(mask, i0, model) is not None

    def minimal_sets(self, i0: int, model: ResponseModel, size: int) -> tuple:
        """The bucket bitmasks of `size` buckets that recover symbol i0 under
        `model` while no proper subset does, ordered by their ascending
        bucket-index tuples (`itertools.combinations` order).  Sizes are
        built lazily, one level for all symbols at a time, and only as far as
        asked; above the size at which every subset recovers i0 there are
        none, and nothing more is built."""
        levels = self._levels[model]
        while len(levels) <= size:
            if not (self._open[model] >> i0) & 1 or len(levels) > len(self.buckets):
                return ()
            if model is ResponseModel.LINEAR:
                self._grow_linear(len(levels))
            else:
                self._grow_projection(len(levels))
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

    def _grow_linear(self, size: int) -> None:
        """Level `size` of the linear minimal sets: a subset is minimal for
        the symbols it spans that none of its (size-1)-subsets spans.  Only
        the spans of the previous level are kept, and only of the subsets
        that miss an open symbol; a subset that spans every open symbol is
        not extended, as nothing above it is minimal for one."""
        open_, below = self._open[ResponseModel.LINEAR], self._level_spans
        found: list = [[] for _ in range(self.n)]
        spans: dict = {}
        still_open = 0
        for mask, symbols in self._subsets(size, lambda _, symbols: symbols & open_ == open_):
            new = symbols & open_
            rest = mask
            while new and rest:
                low = rest & -rest
                # a subset missing from `below` spans every open symbol
                new &= ~below.get(mask ^ low, open_)
                rest ^= low
            for i0 in bucket_indices(new):
                found[i0].append(mask)
            missing = open_ & ~symbols
            if missing:
                still_open |= missing
                spans[mask] = symbols
        self._level_spans = spans
        self._open[ResponseModel.LINEAR] = still_open
        self._levels[ResponseModel.LINEAR].append(tuple(map(tuple, found)))

    def _grow_projection(self, size: int) -> None:
        """Level `size` of the projection minimal sets: among the subsets
        that span e_i, those that `part` can serve and that contain no
        smaller projection-minimal set of i."""
        model = ResponseModel.PROJECTION
        open_, levels = self._open[model], self._levels[model]
        smaller = [[mask for level in levels for mask in level[i0]] for i0 in range(self.n)]

        def served(mask: int, i0: int) -> bool:
            return any(mask & known == known for known in smaller[i0])

        def done(mask: int, _) -> bool:
            return all(served(mask, i0) for i0 in bucket_indices(open_))

        found: list = [[] for _ in range(self.n)]
        still_open = 0
        for mask, symbols in self._subsets(size, done):
            for i0 in bucket_indices(open_):
                if served(mask, i0):
                    continue
                if (symbols >> i0) & 1 and self.part(mask, i0, model) is not None:
                    found[i0].append(mask)
                else:
                    still_open |= 1 << i0
        self._open[model] = still_open
        levels.append(tuple(map(tuple, found)))

    def part(self, mask: int, i0: int, model: ResponseModel) -> Optional[tuple]:
        """How the buckets in `mask` serve symbol i0, or None if they cannot:
        (bucket set, ((bucket0, response vector), ...) for the buckets that
        answer something nonzero, combo), with the set and the combo 1-based
        as in `RecoveryPlan`."""
        cache = self._parts[model]
        key = mask * self.n + i0
        if key not in cache:
            if model is ResponseModel.LINEAR:
                cache[key] = self._solve_linear(mask, i0)
            else:
                cache[key] = self._solve_projection(mask, i0)
        return cache[key]

    def _solve_linear(self, mask: int, i0: int) -> Optional[tuple]:
        """Any combination of each bucket's columns: the lowest-index solve
        over the subset's cached basis; every bucket's combo coefficient is 1."""
        coeffs = self._basis(mask).solve(unit_vector(i0, self.n))
        if coeffs is None:
            return None
        order = bucket_indices(mask)
        owners = [(ell0, s) for ell0 in order for s in range(len(self.buckets[ell0]))]
        return self._intern_part(order, zip(owners, coeffs), {})

    def _solve_projection(self, mask: int, i0: int) -> Optional[tuple]:
        """At most one stored column per bucket, returned verbatim: a
        deterministic DFS over the buckets ascending, skip-first, with an early
        exit once the chosen columns span e_i; the user combines the chosen
        columns with their lowest-index solve."""
        if not self.recovers_linear(mask, i0):
            # projection responses are a restriction of linear ones
            return None
        order = bucket_indices(mask)
        columns = self.columns

        def dfs(idx: int, ech: Echelon, chosen: tuple):
            if ech.contains_unit(i0):
                return chosen, ech.solve(unit_vector(i0, self.n))
            if idx == len(order):
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
        used = [(pick, c) for pick, c in zip(choice, coeffs) if c]
        combo_coeffs = {ell0: c for (ell0, _), c in used}
        return self._intern_part(order, [(pick, 1) for pick, _ in used], combo_coeffs)

    def _intern_part(self, order: list, picks, coefficients: dict) -> tuple:
        """A part from its (bucket0, column) -> response value picks and the
        combo coefficient of each bucket (1 where absent).  Parts of one code
        share most of their pieces, so every tuple is interned."""
        table = self._interned

        def intern(obj):
            return table.setdefault(obj, obj)

        vectors: dict = {}
        for (ell0, s), value in picks:
            if value:
                vectors.setdefault(ell0, [0] * len(self.buckets[ell0]))[s] = value
        responses = tuple(intern((ell0, intern(tuple(v)))) for ell0, v in vectors.items())
        combo = tuple(intern((ell0 + 1, coefficients.get(ell0, 1))) for ell0 in order)
        bucket_set = intern(frozenset(ell0 + 1 for ell0 in order))
        return intern((bucket_set, intern(responses), intern(combo)))


def engine_for(code: CodeSpec) -> SpanEngine:
    """The code's span engine, made on first use and kept in `code.cache`."""
    engine = code.cache.get("span-engine")
    if engine is None:
        engine = code.cache["span-engine"] = SpanEngine(code.field, code.n, code.buckets)
    return engine


def _plan_tables(code: CodeSpec) -> tuple:
    """The code's bucket sizes, its 1-based bucket indices, its column table
    (`model.column_table`) and its all-zero responses, kept in `code.cache`."""
    tables = code.cache.get("plan-tables")
    if tables is None:
        tables = code.cache["plan-tables"] = (
            code.bucket_sizes,
            frozenset(range(1, code.m + 1)),
            column_table(code),
            tuple((0,) * len(b) for b in code.buckets),
        )
    return tables


def plan_from_parts(code: CodeSpec, req: tuple, parts: Sequence[tuple]) -> RecoveryPlan:
    """The plan that serves request j with part j, a (1-based bucket set,
    ((bucket0, response), ...) for its nonzero answers, combo in ascending
    bucket order) triple as `SpanEngine.part` makes it.  Every other bucket
    answers zero, and the buckets in no part join the last part with
    coefficient 1."""
    _, bucket_ids, _, zeros = _plan_tables(code)
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
    sizes, bucket_ids, columns, _ = _plan_tables(code)
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
    if model is ResponseModel.PROJECTION:
        for resp in plan.responses:
            nz = [v % p for v in resp if v % p]
            if nz and nz != [1]:
                return False

    # (b) coefficient identity per request, over the generator columns:
    # XOR of packed columns over GF(2), one reduction per coordinate otherwise
    for combo, i in zip(plan.combos, req):
        acc = 0 if p == 2 else {}  # F_p: coordinate -> unreduced sum
        for ell, coeff in combo:
            resp = plan.responses[ell - 1]
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
            if acc != 1 << (i - 1):
                return False
        else:
            acc[i - 1] = acc.get(i - 1, 0) - 1
            if any(a % p for a in acc.values()):
                return False
    return True


def find_plan(
    code: CodeSpec,
    request: Sequence[int],
    model: ResponseModel = ResponseModel.LINEAR,
) -> Optional[RecoveryPlan]:
    """Exact search for a recovery plan, or None if no partition works.

    Requests are processed in sorted order.  Each request but the last takes
    a minimal recovery set (`SpanEngine.minimal_sets`) from the remaining
    buckets, in increasing cardinality and lexicographic within a
    cardinality; the final request absorbs all leftover buckets, and the
    search backtracks on failure.  Deterministic given the code.

    The plans are those of trying every recovering subset in the same order:
    recoverability is monotone and leftover buckets join the last part, so a
    completion for a superset of a minimal set A is also one for A, and A
    comes first.  A non-minimal set is thus never the first to succeed.
    """
    model = ResponseModel.parse(model)
    req = normalize_request(request, code.n)
    k = len(req)
    if k > code.m:
        raise ValueError(f"cannot partition {code.m} buckets into {k} non-empty parts")
    engine = engine_for(code)
    parts: list = []  # bucket bitmasks

    def search(pos: int, left: int) -> bool:
        # left: the bitmask of the buckets still free
        i0 = req[pos] - 1
        if pos == k - 1:
            if engine.recovers(left, i0, model):
                parts.append(left)
                return True
            return False
        # recoverability is monotone, so an infeasible union prunes the branch
        if not engine.recovers(left, i0, model):
            return False
        max_size = left.bit_count() - (k - pos - 1)
        for size in range(1, max_size + 1):
            for mask in engine.minimal_sets(i0, model, size):
                if mask & left == mask:
                    parts.append(mask)
                    if search(pos + 1, left ^ mask):
                        return True
                    parts.pop()
        return False

    if not search(0, (1 << code.m) - 1):
        return None
    plan = plan_from_parts(
        code, req, [engine.part(mask, i - 1, model) for mask, i in zip(parts, req)]
    )
    if not certify_plan(code, req, plan, model):
        raise AssertionError(f"internal: found plan failed certification for {req}")
    return plan


def _sweep(code, k, model, kind, jobs) -> VerificationReport:
    """Search a plan for every request of the sweep, in `jobs` worker
    processes if more than one."""
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
    requests = list((all_batch_requests if kind == "bac" else pir_requests)(code.n, k))
    if jobs and jobs > 1:
        failures = _parallel_failures(code, requests, model, jobs)
    else:
        failures = _failures(code, model, requests)
    failures.sort()
    return VerificationReport(
        kind=kind,
        k=k,
        model=model,
        checked=len(requests),
        failures=tuple(failures),
        elapsed_s=time.monotonic() - start,
    )


def _failures(code: CodeSpec, model: ResponseModel, requests) -> list:
    return [(req, "no-partition") for req in requests if find_plan(code, req, model) is None]


def verify_bac(
    code: CodeSpec,
    k: int,
    model: ResponseModel = ResponseModel.LINEAR,
    jobs: int = 1,
) -> VerificationReport:
    """Exhaustively check the k-batch property over all C(n+k-1, k) request
    multisets (lexicographic order)."""
    return _sweep(code, k, model, "bac", jobs)


def verify_pir(
    code: CodeSpec,
    k: int,
    model: ResponseModel = ResponseModel.LINEAR,
    jobs: int = 1,
) -> VerificationReport:
    """Check the k-PIR property: only the n identical-index requests."""
    return _sweep(code, k, model, "pir", jobs)


def check_subset_spanning(code: CodeSpec, k: int) -> bool:
    """True iff every (m-k+1)-subset of buckets jointly spans every unit
    vector, i.e. has full joint rank n.  Any verified k-PIR code has this
    property."""
    if k > code.m:
        raise ValueError(f"k = {k} exceeds bucket count m = {code.m}")
    everything = (1 << code.n) - 1
    subsets = engine_for(code)._subsets(code.m - k + 1, lambda mask, symbols: False)
    return all(symbols == everything for _, symbols in subsets)


# ---------------------------------------------------------------------------
# parallel sweep plumbing: the multiset enumeration is sharded across worker
# processes; each worker holds the immutable code and its own memo


_WORKER_CODE: Optional[CodeSpec] = None
_WORKER_MODEL: Optional[ResponseModel] = None


def _worker_init(code: CodeSpec, model_value: str) -> None:
    global _WORKER_CODE, _WORKER_MODEL
    _WORKER_CODE = code
    _WORKER_MODEL = ResponseModel(model_value)


def _worker_failures(chunk) -> list:
    return _failures(_WORKER_CODE, _WORKER_MODEL, chunk)


def _parallel_failures(code, requests, model, jobs):
    import multiprocessing as mp

    n_chunks = max(1, min(len(requests), jobs * 4))
    chunks = [requests[i::n_chunks] for i in range(n_chunks)]
    ctx = mp.get_context()
    with ctx.Pool(jobs, initializer=_worker_init, initargs=(code, model.value)) as pool:
        return [fail for part in pool.map(_worker_failures, chunks) for fail in part]
