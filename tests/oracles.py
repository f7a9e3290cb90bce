"""Brute-force oracles, independent of the library's elimination and search
paths: span membership by enumerating every coefficient vector, recovery-plan
existence by enumerating every labeled partition.  Only usable at toy sizes.
`reference_span_solve` is the exception: a plain augmented elimination that
pins the exact coefficients `span_solve` must return.
"""

from __future__ import annotations

import itertools


def naive_in_span(target, generators, p: int) -> bool:
    """Try every coefficient vector in F_p^r."""
    n = len(target)
    target = tuple(v % p for v in target)
    gens = [tuple(v % p for v in g) for g in generators]
    for coeffs in itertools.product(range(p), repeat=len(gens)):
        acc = [0] * n
        for c, g in zip(coeffs, gens):
            if c:
                for d in range(n):
                    acc[d] = (acc[d] + c * g[d]) % p
        if tuple(acc) == target:
            return True
    return False


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


def naive_recovers(code, bucket_subset, i: int, projection: bool = False) -> bool:
    """Recoverability of symbol i (1-based) from a set of buckets (1-based)."""
    p = code.field.p
    cols = []
    per_bucket = []
    for ell in sorted(bucket_subset):
        bucket = code.buckets[ell - 1]
        per_bucket.append(list(bucket))
        cols.extend(bucket)
    target = _unit(i - 1, code.n)
    if not projection:
        return naive_in_span(target, cols, p)
    # one column (or none) per bucket
    options = [[None] + bucket for bucket in per_bucket]
    for choice in itertools.product(*options):
        chosen = [c for c in choice if c is not None]
        if naive_in_span(target, chosen, p):
            return True
    return False


def naive_has_plan(code, request, projection: bool = False) -> bool:
    """Existence of k disjoint non-empty recovery sets partitioning [m], by
    enumerating every assignment of buckets to parts."""
    req = tuple(sorted(request))
    k = len(req)
    m = code.m
    if k > m:
        raise ValueError("k > m")
    for assignment in itertools.product(range(k), repeat=m):
        parts = [[] for _ in range(k)]
        for ell0, part in enumerate(assignment):
            parts[part].append(ell0 + 1)
        if any(not part for part in parts):
            continue
        if all(
            naive_recovers(code, part, i, projection) for part, i in zip(parts, req)
        ):
            return True
    return False


def reference_span_solve(target, generators, field):
    """Coefficients c with sum_i c_i * generators[i] = target, or None, by
    Gaussian elimination on the augmented system: lowest-index pivot
    selection, free variables set to zero.  This is the library's earlier
    `span_solve`, kept as the reference its `Echelon`-based solve must match
    coefficient for coefficient."""
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
