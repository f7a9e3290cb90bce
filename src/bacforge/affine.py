"""Randomized systematic codes from point-line incidences on the affine
plane of prime order q.

The q^2 points are the information symbols.  Vertical lines are grouped s at
a time into m/2 information buckets (so the code is systematic); every
non-vertical line L that survives an independent p1-coin carries a parity
symbol summing a p2-subsampled point set P(L), filed into the slope-class
bucket of L.  Slopes are labeled 1..q with label q standing for slope 0, so
the ceil(q/s) slope classes partition the non-vertical lines exactly like the
vertical ones; classes past the last full one are simply shorter.

Generation is reproducible: one 64-bit seed, split into independent line- and
point-selection streams (algorithm id recorded alongside the code).  The
streams are numpy's `Generator(PCG64(child))` for the children of
`SeedSequence(seed).spawn(...)`, implemented here in plain integers so that
no numpy is needed: O'Neill's PCG64 (XSL-RR 128/64) seeded by numpy's
SeedSequence mixing, doubles from the top 53 bits, and bounded integers by
Lemire's method on buffered 32-bit draws.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .field import GF2, is_prime, unit_vector
from .model import CodeSpec
from .verify import RecoveryPlan, _partition_sets, certified_part, make_part, normalize_request, plan_from_parts

RNG_ID = "numpy-pcg64-seedseq-v1"

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value: int, const: list) -> int:
    """SeedSequence's hashmix; advances the multiplier held in `const[0]`."""
    value ^= const[0]
    const[0] = const[0] * 0x931E8875 & _M32
    value = value * const[0] & _M32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return value ^ value >> 16


def _words(n: int) -> list:
    """n as little-endian 32-bit words, [0] for 0."""
    return [n >> shift & _M32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _seed_pool(seed: int) -> tuple:
    """SeedSequence's pool and hashmix multiplier after the seed's words, which
    all its children share: the words padded to 4, mixed in, then any past 4."""
    entropy = _words(seed)
    entropy += [0] * (4 - len(entropy))
    const = [0x43B0D7E5]
    pool = [_hashmix(entropy[i], const) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], const))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, const))
    return tuple(pool), tuple(const)


class _PCG64:
    """numpy's `Generator(PCG64(SeedSequence(seed).spawn(...)[child]))`,
    reduced to the two draws this module makes; `pool`, `_seed_pool(seed)`,
    lets the children of one seed share its mixing."""

    def __init__(self, seed: int, child: int, pool: Optional[tuple] = None):
        # the child's SeedSequence: the seed's pool with the spawn key mixed in
        pool, const = map(list, _seed_pool(seed) if pool is None else pool)
        for word in _words(child):
            for dst in range(4):
                pool[dst] = _mix(pool[dst], _hashmix(word, const))
        # generate_state(4, uint64): 8 words out of the pool, paired low first
        const, state = 0x8B51F9DD, []
        for i in range(8):
            value = pool[i % 4] ^ const
            const = const * 0x58F38DED & _M32
            value = value * const & _M32
            state.append(value ^ value >> 16)
        seed64 = [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]
        # pcg64_set_seed: the first pair is the initial state, the second the
        # stream, each with its first word as the high half
        self._inc = (seed64[2] << 65 | seed64[3] << 1 | 1) & _M128
        self._state = self._inc + (seed64[0] << 64 | seed64[1])
        self._next64()
        self._high = None  # the unused high half of the last 64-bit draw

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG_MULT + self._inc) & _M128
        word, rot = (state >> 64 ^ state) & _M64, state >> 122
        return (word >> rot | word << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._high is not None:
            word, self._high = self._high, None
            return word
        word = self._next64()
        self._high = word >> 32
        return word & _M32

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, n: int, size: int) -> list:
        """`integers(1, n + 1, size=size)`: Lemire's method on 32-bit draws."""
        if not 1 <= n < 2**32:
            raise ValueError(f"integer range {n} must lie in [1, 2**32)")
        if n == 1:
            return [1] * size
        out, threshold = [], 2**32 % n
        for _ in range(size):
            m = self._next32() * n
            while m & _M32 < threshold:
                m = self._next32() * n
            out.append((m >> 32) + 1)
        return out


def _seed(seed) -> int:
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


class Line(NamedTuple):
    slope: int
    intercept: int
    points: tuple  # 1-based point indices, ascending x


@dataclass(frozen=True)
class AffinePlane:
    """Full incidence structure of the affine plane of prime order q:
    q^2 points, q^2 non-vertical lines y = s*x + c, q vertical lines."""

    q: int
    verticals: tuple  # verticals[j-1] = points with x = j-1
    lines: tuple  # non-vertical Lines, ordered by (slope, intercept)
    through: tuple  # through[i-1] = indices into `lines` of lines through point i

    @property
    def n(self) -> int:
        return self.q * self.q


def affine_plane(q: int) -> AffinePlane:
    if not is_prime(q):
        raise ValueError(f"plane order {q} must be prime")
    verticals = tuple(
        tuple(a * q + b + 1 for b in range(q)) for a in range(q)
    )
    lines = []
    through = [[] for _ in range(q * q)]
    for slope in range(q):
        for intercept in range(q):
            pts = tuple(x * q + (slope * x + intercept) % q + 1 for x in range(q))
            idx = len(lines)
            lines.append(Line(slope, intercept, pts))
            for pt in pts:
                through[pt - 1].append(idx)
    return AffinePlane(
        q=q,
        verticals=verticals,
        lines=tuple(lines),
        through=tuple(tuple(t) for t in through),
    )


def slope_label(slope: int, q: int) -> int:
    """Slopes relabeled into [1, q]: label q stands for slope 0."""
    return q if slope == 0 else slope


@dataclass(frozen=True)
class ParamDefaults:
    p1: float
    p2: float
    p1_raw: float
    p2_raw: float
    p1_clamped: bool
    p2_clamped: bool
    in_theory_regime: bool


def default_params(q: int, k: int, s: int) -> ParamDefaults:
    """The analysis' selection probabilities p1 = 32 sqrt((ks)^3 / q) ln n and
    p2 = 1 / (2 sqrt(ksq)), clamped into (0, 1].  The clamp flags record when
    the parameters leave the asymptotic regime (ks)^{3/2} < n^{1/4}/(32 ln n),
    which happens at every desk-scale q."""
    if not is_prime(q):
        raise ValueError(f"plane order {q} must be prime")
    if k < 1 or s < 1:
        raise ValueError("k and s must be positive")
    n = q * q
    p1_raw = 32.0 * math.sqrt((k * s) ** 3 / q) * math.log(n)
    p2_raw = 1.0 / (2.0 * math.sqrt(k * s * q))
    return ParamDefaults(
        p1=min(p1_raw, 1.0),
        p2=min(p2_raw, 1.0),
        p1_raw=p1_raw,
        p2_raw=p2_raw,
        p1_clamped=p1_raw > 1.0,
        p2_clamped=p2_raw > 1.0,
        in_theory_regime=(k * s) ** 1.5 < n**0.25 / (32.0 * math.log(n)),
    )


def redundancy_bound(q: int, k: int, s: int) -> float:
    """Closed-form redundancy target n + 64 (ks)^{3/2} n^{3/4} ln n."""
    n = q * q
    return n + 64.0 * (k * s) ** 1.5 * n**0.75 * math.log(n)


@dataclass(frozen=True)
class AffinePlaneCode:
    """Output of the random construction: the plane, the drawn line family
    and point sets, and the derived systematic code over GF(2)."""

    plane: AffinePlane
    s: int
    p1: float
    p2: float
    seed: int
    selected: tuple  # indices into plane.lines, in draw order
    point_sets: tuple  # per non-vertical line, frozenset of point indices
    # per non-vertical line, the 1-based (bucket, column position) of its
    # parity column, or None if it has none (not selected, or no points)
    parity_slots: tuple
    code: CodeSpec

    @property
    def m(self) -> int:
        return self.code.m

    @property
    def info_buckets(self) -> int:
        return self.m // 2

    def info_bucket_of(self, point: int) -> int:
        """1-based information bucket holding a point's own symbol."""
        a = (point - 1) // self.plane.q
        return a // self.s + 1

    def info_position(self, point: int) -> tuple:
        """(bucket, column position) of a point's identity column."""
        bucket = self.info_bucket_of(point)
        first_vertical = (bucket - 1) * self.s  # 0-based x of the bucket's first vertical
        pos = point - 1 - first_vertical * self.plane.q
        return bucket, pos

    def provenance(self) -> dict:
        return {
            "family": "affine",
            "q": self.plane.q,
            "s": self.s,
            "p1": self.p1,
            "p2": self.p2,
            "seed": self.seed,
            "rng": RNG_ID,
        }


def random_bac(q: int, s: int, p1: float, p2: float, seed: int) -> AffinePlaneCode:
    """Draw the line family (probability p1 each) and per-line point sets
    (probability p2 per point), then assemble the systematic code:
    m/2 information buckets of s vertical lines each, m/2 slope-class parity
    buckets.  Bit-for-bit reproducible from the seed."""
    plane = affine_plane(q)
    if not 1 <= s <= q:
        raise ValueError(f"need 1 <= s <= q, got s = {s}")
    for name, p in (("p1", p1), ("p2", p2)):
        if not 0.0 < p <= 1.0:
            raise ValueError(f"{name} must lie in (0, 1], got {p}")
    seed = _seed(seed)
    if seed >= 2**64:
        raise ValueError("seed must fit in 64 bits")
    stream_lines, stream_points = _PCG64(seed, 0), _PCG64(seed, 1)
    n = plane.n
    selected = tuple(
        idx for idx in range(len(plane.lines)) if stream_lines.random() < p1
    )
    point_sets = tuple(
        frozenset(pt for pt in line.points if stream_points.random() < p2) for line in plane.lines
    )

    half = -(-q // s)  # ceil(q/s)
    buckets = []
    for ell in range(1, half + 1):
        first = (ell - 1) * s
        cols = []
        for a in range(first, min(ell * s, q)):
            for pt in plane.verticals[a]:
                cols.append(unit_vector(pt - 1, n))
        buckets.append(tuple(cols))
    parity: list = [[] for _ in range(half)]
    parity_slots: list = [None] * len(plane.lines)
    for idx in selected:
        pts = point_sets[idx]
        if not pts:
            continue
        label = slope_label(plane.lines[idx].slope, q)
        u = (label + s - 1) // s
        col = [0] * n
        for pt in pts:
            col[pt - 1] = 1
        parity_slots[idx] = (half + u, len(parity[u - 1]))
        parity[u - 1].append(tuple(col))
    buckets.extend(tuple(cols) for cols in parity)
    code = CodeSpec(GF2, n, tuple(buckets))
    return AffinePlaneCode(
        plane=plane,
        s=s,
        p1=float(p1),
        p2=float(p2),
        seed=seed,
        selected=selected,
        point_sets=point_sets,
        parity_slots=tuple(parity_slots),
        code=code,
    )


def greedy_plan(
    apc: AffinePlaneCode,
    request: Sequence[int],
    strict_appendix: bool = False,
) -> Optional[RecoveryPlan]:
    """Greedy recovery-set search: for each requested point, either its own
    information bucket (unless `strict_appendix`) or a selected line through
    it whose sampled point set contains it, avoids every other requested
    point, and touches only unused buckets.  Candidate lines are scanned in
    ascending slope order.  Returns the plan, certified (each part as it is
    made, with `certified_part`), or None."""
    req = normalize_request(request, apc.code.n)
    parts = _greedy_parts(apc, req, strict_appendix)
    return None if parts is None else plan_from_parts(apc.code, req, parts)


def _greedy_parts(apc: AffinePlaneCode, req: tuple, strict_appendix: bool = False) -> Optional[list]:
    """`greedy_plan`'s parts, one per request of the sorted, range-checked
    `req` (`normalize_request`), or None."""
    code = apc.code
    if len(req) > code.m:
        raise ValueError(f"cannot partition {code.m} buckets into {len(req)} non-empty parts")
    plane, sizes = apc.plane, code.bucket_sizes
    used = 0  # bucket bitmask
    parts: list = []
    # each bucket answers the sum of its slots, and the user adds the answers up
    for i in req:
        part = None
        own = apc.info_position(i)
        if not strict_appendix and not used >> (own[0] - 1) & 1:
            part = make_part(sizes, {own[0]: 1}, [(own, 1)])
        else:
            others = set(req) - {i}
            for line_idx in plane.through[i - 1]:
                slot, pts = apc.parity_slots[line_idx], apc.point_sets[line_idx]
                if slot is None or i not in pts or others & set(plane.lines[line_idx].points):
                    continue
                slots = [slot] + [apc.info_position(pt) for pt in pts if pt != i]
                if not any(used >> (bucket - 1) & 1 for bucket, _ in slots):
                    part = make_part(sizes, {b: 1 for b, _ in slots}, [(s, 1) for s in slots])
                    break
        if part is None:
            return None
        used |= part[0]
        parts.append(certified_part(code.field.p, code.column_table, part, i - 1))
    return parts


@dataclass(frozen=True)
class TrialReport:
    """Sampling summary for greedy recovery on one drawn code."""

    k: int
    trials: int
    successes: int
    failures: tuple  # of (request, reason)
    elapsed_s: float

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "trials": self.trials,
            "successes": self.successes,
            "success_rate": self.success_rate,
            "failures": [
                {"request": list(req), "reason": reason} for req, reason in self.failures
            ],
        }


def trial_verify(
    apc: AffinePlaneCode,
    k: int,
    trials: int,
    seed: int,
    strict_appendix: bool = False,
) -> TrialReport:
    """Sample `trials` uniform size-k requests and run the greedy planner,
    which certifies every part it makes; a trial succeeds when its parts
    partition the buckets (`verify._partition_sets`), as `greedy_plan`
    requires of a plan, and no plan is assembled.  Trial seeds are derived
    per index, so the report is reproducible."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    seed = _seed(seed)
    start = time.monotonic()
    code, pool = apc.code, _seed_pool(seed)
    successes, failures = 0, []
    for child in range(trials):
        req = tuple(sorted(_PCG64(seed, child, pool).integers(code.n, k)))
        parts = _greedy_parts(apc, req, strict_appendix)
        if parts is None:
            failures.append((req, "greedy-stuck"))
        else:
            _partition_sets(code, req, parts)
            successes += 1
    return TrialReport(
        k=k,
        trials=trials,
        successes=successes,
        failures=tuple(sorted(failures)),
        elapsed_s=time.monotonic() - start,
    )
