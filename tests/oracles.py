"""Brute-force oracles, independent of the library's elimination and search
paths: span membership by enumerating every vector of the span, recovery-plan
existence by enumerating every labeled partition.  Only usable at toy sizes.
Nine references are the exception: `reference_pack`, the bit loop
`field.pack` must agree with, `reference_span_solve`, a plain
augmented elimination that pins the exact coefficients `Echelon.solve`
must return, `reference_find_plan`, the earlier search over every subset that pins
the exact plans `find_plan` must return, `reference_linear_part`, the solve
over every column of a bucket subset that pins the engine's linear parts,
`reference_projection_part`, the earlier projection DFS that pins the
engine's projection parts, `reference_encode`, the dense inner products (`dot`) `encode` and the answers
of `serve_batch`'s nodes must agree with, `reference_weighted_sum`, the
dense sum `model.combine` must agree with, `reference_is_good_vector`,
the earlier check that rescans the vector once per value, and
`reference_certify_plan`, the earlier whole-plan check whose verdicts and
errors `certify_plan` must give.
"""

from __future__ import annotations

import itertools
import operator

from bacforge.field import Echelon
from bacforge.model import Codeword
from bacforge.verify import (
    ResponseModel,
    make_part,
    normalize_request,
    plan_from_parts,
)


def _extend(span, g, p: int) -> frozenset:
    """The span of `span` (a set of vectors) and one more generator g."""
    return frozenset(
        tuple((a + c * b) % p for a, b in zip(vec, g)) for vec in span for c in range(p)
    )


def naive_span(generators, p: int, n: int) -> frozenset:
    """Every vector of the span: {0} closed under adding each multiple of
    each generator in turn."""
    span = frozenset([(0,) * n])
    for g in generators:
        span = _extend(span, g, p)
    return span


def naive_in_span(target, generators, p: int) -> bool:
    """Look the target up among all vectors of the span."""
    return tuple(v % p for v in target) in naive_span(generators, p, len(target))


def naive_rank(vectors, p: int) -> int:
    """Rank as the log-size of the span, by enumerating all combinations."""
    vectors = list(vectors)
    if not vectors:
        return 0
    n = len(vectors[0])
    span = set()
    for coeffs in itertools.product(range(p), repeat=len(vectors)):
        acc = [0] * n
        for c, g in zip(coeffs, vectors):
            if c:
                for d in range(n):
                    acc[d] = (acc[d] + c * g[d]) % p
        span.add(tuple(acc))
    size = len(span)
    r = 0
    while p**r < size:
        r += 1
    assert p**r == size, "span size is not a power of p"
    return r


def _unit(i0: int, n: int):
    return tuple(1 if d == i0 else 0 for d in range(n))


def naive_recovered(code, bucket_subset, projection: bool = False) -> set:
    """The symbols (1-based) a set of buckets (1-based) recovers."""
    p, n = code.field.p, code.n
    per_bucket = [code.buckets[ell - 1] for ell in sorted(bucket_subset)]
    if not projection:
        spans = [naive_span([c for bucket in per_bucket for c in bucket], p, n)]
    else:
        # one column (or none) per bucket: every such choice, kept as the
        # set of distinct spans the choices so far reach
        spans = {naive_span((), p, n)}
        for bucket in per_bucket:
            spans |= {_extend(span, c, p) for span in spans for c in bucket}
    return {i for i in range(1, n + 1) if any(_unit(i - 1, n) in span for span in spans)}


def naive_recovers(code, bucket_subset, i: int, projection: bool = False) -> bool:
    """Recoverability of symbol i (1-based) from a set of buckets (1-based)."""
    return i in naive_recovered(code, bucket_subset, projection)


def naive_has_plan(code, request, projection: bool = False) -> bool:
    """Existence of k disjoint non-empty recovery sets partitioning [m], by
    enumerating every assignment of buckets to parts."""
    req = tuple(sorted(request))
    k = len(req)
    m = code.m
    if k > m:
        raise ValueError("k > m")
    seen: dict = {}

    def recovers(part, i):
        key = (part, i)
        if key not in seen:
            seen[key] = naive_recovers(code, part, i, projection)
        return seen[key]

    for assignment in itertools.product(range(k), repeat=m):
        parts = [[] for _ in range(k)]
        for ell0, part in enumerate(assignment):
            parts[part].append(ell0 + 1)
        if any(not part for part in parts):
            continue
        if all(recovers(tuple(part), i) for part, i in zip(parts, req)):
            return True
    return False


def reference_find_plan(code, request, model=ResponseModel.LINEAR):
    """The earlier `find_plan` search, independent of the span engine: for
    each request but the last, every recovering subset of the remaining
    buckets (`naive_recovers`) in increasing cardinality (lexicographic
    within a cardinality), the last request absorbing all leftover buckets,
    with backtracking; each part is solved by `reference_linear_part` or
    `reference_projection_part`.  The plan is not certified here."""
    model = ResponseModel.parse(model)
    projection = model is ResponseModel.PROJECTION
    req = normalize_request(request, code.n)
    k = len(req)
    parts: list = []
    seen: dict = {}

    def recovers(mask, i0):
        key = (mask, i0)
        if key not in seen:
            buckets = [ell0 + 1 for ell0 in range(code.m) if (mask >> ell0) & 1]
            seen[key] = naive_recovers(code, buckets, i0 + 1, projection)
        return seen[key]

    def search(pos: int, remaining: tuple, left: int) -> bool:
        i0 = req[pos] - 1
        if pos == k - 1:
            if recovers(left, i0):
                parts.append(left)
                return True
            return False
        if not recovers(left, i0):
            return False
        max_size = len(remaining) - (k - pos - 1)
        for size in range(1, max_size + 1):
            for cand in itertools.combinations(remaining, size):
                mask = sum(cand)
                if recovers(mask, i0):
                    parts.append(mask)
                    rest = tuple(b for b in remaining if not b & mask)
                    if search(pos + 1, rest, left ^ mask):
                        return True
                    parts.pop()
        return False

    if not search(0, tuple(1 << ell0 for ell0 in range(code.m)), (1 << code.m) - 1):
        return None
    solve = reference_projection_part if projection else reference_linear_part
    solved = [solve(code, mask, i - 1) for mask, i in zip(parts, req)]
    return plan_from_parts(code, req, solved)


def reference_linear_part(code, mask: int, i0: int):
    """The linear part in which the buckets of the bitmask `mask` serve
    symbol i0 (0-based), or None, as `SpanEngine.part` builds it but solved
    over one fresh `Echelon` of every column of the mask, in ascending bucket
    order, rather than over a prefix of the mask."""
    buckets = [ell0 + 1 for ell0 in range(code.m) if (mask >> ell0) & 1]
    ech, owners = Echelon(code.field, code.n), []
    for ell in buckets:
        for s, column in enumerate(code.buckets[ell - 1]):
            ech.add(column)
            owners.append((ell, s))
    coeffs = ech.solve(_unit(i0, code.n))
    if coeffs is None:
        return None
    return make_part(code.bucket_sizes, dict.fromkeys(buckets, 1), zip(owners, coeffs))


def reference_projection_part(code, mask: int, i0: int):
    """The projection part in which the buckets of the bitmask `mask` serve
    symbol i0 (0-based), or None, as `SpanEngine.part` builds it, by the
    earlier DFS: buckets ascending, at most one column each, skip-first, an
    early exit once the chosen columns span e_i0, and at every node a fresh
    basis of the remaining buckets plus the chosen columns that must span
    e_i0, or the node is cut."""
    order = [ell0 for ell0 in range(code.m) if (mask >> ell0) & 1]
    columns, n = code.buckets, code.n
    suffix = [Echelon(code.field, n)]  # reversed below: suffix[idx] spans order[idx:]
    for ell0 in reversed(order):
        span = suffix[-1].copy()
        for column in columns[ell0]:
            span.add(column)
        suffix.append(span)
    suffix.reverse()

    def dfs(idx: int, ech: Echelon, chosen: tuple):
        if ech.contains_unit(i0):
            return chosen, ech.solve(_unit(i0, n))
        joint = suffix[idx].copy()
        for ell0, s in chosen:
            joint.add(columns[ell0][s])
        if not joint.contains_unit(i0):
            return None
        res = dfs(idx + 1, ech, chosen)
        if res is not None:
            return res
        ell0 = order[idx]
        for s, column in enumerate(columns[ell0]):
            ech2 = ech.copy()
            if not ech2.add(column):
                continue
            res = dfs(idx + 1, ech2, chosen + ((ell0, s),))
            if res is not None:
                return res
        return None

    found = dfs(0, Echelon(code.field, n), ())
    if found is None:
        return None
    choice, coeffs = found
    used = [((ell0 + 1, s), c) for (ell0, s), c in zip(choice, coeffs) if c]
    combo = dict.fromkeys((ell0 + 1 for ell0 in order), 1) | {ell: c for (ell, _), c in used}
    return make_part(code.bucket_sizes, combo, [(pick, 1) for pick, _ in used])


def reference_pack(vector) -> int:
    """A GF(2) vector packed into an int, bit i = entry i mod 2, one bit at
    a time: the earlier packer `field.pack` must agree with."""
    mask = 0
    for i, v in enumerate(vector):
        if v & 1:
            mask |= 1 << i
    return mask


def reference_span_solve(target, generators, field):
    """Coefficients c with sum_i c_i * generators[i] = target, or None, by
    Gaussian elimination on the augmented system: lowest-index pivot
    selection, free variables set to zero.  `Echelon.solve`, over the
    generators inserted in order, must match it coefficient for coefficient."""
    length = len(target)
    for g in generators:
        if len(g) != length:
            raise ValueError(f"generator length {len(g)} != target length {length}")
    r = len(generators)
    p = field.p

    if p == 2:
        # rows indexed by coordinate; bits 0..r-1 are coefficients, bit r is
        # the target entry
        rows = []
        for coord in range(length):
            row = 0
            for j, g in enumerate(generators):
                if g[coord] & 1:
                    row |= 1 << j
            if target[coord] & 1:
                row |= 1 << r
            rows.append(row)
        pivot_of_col: dict[int, int] = {}
        next_row = 0
        for col in range(r):
            sel = next((i for i in range(next_row, length) if (rows[i] >> col) & 1), None)
            if sel is None:
                continue
            rows[next_row], rows[sel] = rows[sel], rows[next_row]
            pivot_row = rows[next_row]
            for i in range(length):
                if i != next_row and (rows[i] >> col) & 1:
                    rows[i] ^= pivot_row
            pivot_of_col[col] = next_row
            next_row += 1
        if any(rows[i] >> r for i in range(next_row, length)):
            return None
        coeffs = [0] * r
        for col, row_idx in pivot_of_col.items():
            coeffs[col] = (rows[row_idx] >> r) & 1
        return tuple(coeffs)

    rows = [[g[coord] % p for g in generators] + [target[coord] % p] for coord in range(length)]
    pivot_of_col = {}
    next_row = 0
    for col in range(r):
        sel = next((i for i in range(next_row, length) if rows[i][col]), None)
        if sel is None:
            continue
        rows[next_row], rows[sel] = rows[sel], rows[next_row]
        inv = field.inv(rows[next_row][col])
        rows[next_row] = [(v * inv) % p for v in rows[next_row]]
        piv_row = rows[next_row]
        for i in range(length):
            if i != next_row and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(v - c * pv) % p for v, pv in zip(rows[i], piv_row)]
        pivot_of_col[col] = next_row
        next_row += 1
    # below next_row every coefficient column has been eliminated
    if any(rows[i][r] for i in range(next_row, length)):
        return None
    coeffs = [0] * r
    for col, row_idx in pivot_of_col.items():
        coeffs[col] = rows[row_idx][r]
    return tuple(coeffs)


def dot(a, b, field) -> int:
    """The inner product of two vectors over the field."""
    if len(a) != len(b):
        raise ValueError(f"dot of lengths {len(a)} and {len(b)}")
    return sum(x * y for x, y in zip(a, b)) % field.p


def reference_weighted_sum(pairs, p: int, n: int) -> tuple:
    """The dense sum of weight * column over (weight, column) pairs of
    length-n columns, reduced mod p."""
    total = [0] * n
    for w, column in pairs:
        for d, g in enumerate(column):
            total[d] += w * g
    return tuple(v % p for v in total)


def reference_encode(code, x):
    """The earlier `encode`: one dense n-length inner product per column."""
    if len(x) != code.n:
        raise ValueError(f"data length {len(x)} != n = {code.n}")
    xv = tuple(v % code.field.p for v in x)
    return Codeword(
        tuple(tuple(dot(xv, col, code.field) for col in bucket) for bucket in code.buckets)
    )


def reference_is_good_vector(entries, t: int) -> bool:
    """The earlier `is_good_vector`: the positions of each j in [1, t] by a
    scan of the whole vector, O(t^2).  Entries are integers as in Python
    indexing, so a float or a string entry makes the vector not good."""
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
    for j in range(1, t + 1):
        positions = [idx for idx, v in enumerate(vals) if v == j]
        if len(positions) != 2:
            return False
        if positions[1] - positions[0] != j:
            return False
    return True


def reference_certify_plan(code, request, plan, model=ResponseModel.LINEAR) -> bool:
    """The earlier `certify_plan`, which checked a whole plan with its own
    partition, projection-unit and coefficient-identity code: the same
    shape ValueErrors, then (a) k non-empty sets that partition [m], (c) in
    the projection regime every response zero or a unit vector, and (b) per
    request the combo's answers applied to the bucket columns summing to the
    unit vector, over the dense columns here rather than `column_table`."""
    model = ResponseModel.parse(model)
    req = normalize_request(request, code.n)
    m, p, sizes = code.m, code.field.p, code.bucket_sizes
    bucket_ids = frozenset(range(1, m + 1))
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
    if len(plan.sets) != len(req) or not all(plan.sets):
        return False
    if len(union) != m or sum(map(len, plan.sets)) != m:
        return False
    if model is ResponseModel.PROJECTION and not all(
        [v % p for v in r if v % p] in ([], [1]) for r in plan.responses
    ):
        return False
    for combo, i in zip(plan.combos, req):
        total = [0] * code.n
        for ell, coeff in combo:
            for r, column in zip(plan.responses[ell - 1], code.buckets[ell - 1]):
                for d, g in enumerate(column):
                    total[d] += coeff * r * g
        if [v % p for v in total] != list(_unit(i - 1, code.n)):
            return False
    return True
