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
point-selection streams (algorithm id recorded alongside the code).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .field import GF2, is_prime, unit_vector
from .model import CodeSpec
from .verify import RecoveryPlan, certify_plan, normalize_request

RNG_ID = "numpy-pcg64-seedseq-v1"


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

    def point_index(self, a: int, b: int) -> int:
        """(a, b) -> a*q + b + 1."""
        return a * self.q + b + 1

    def point_coords(self, i: int) -> tuple:
        return (i - 1) // self.q, (i - 1) % self.q


_PLANES: dict = {}


def affine_plane(q: int) -> AffinePlane:
    if not is_prime(q):
        raise ValueError(f"plane order {q} must be prime")
    cached = _PLANES.get(q)
    if cached is not None:
        return cached
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
    plane = AffinePlane(
        q=q,
        verticals=verticals,
        lines=tuple(lines),
        through=tuple(tuple(t) for t in through),
    )
    _PLANES[q] = plane
    return plane


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

    def class_of_line(self, line_idx: int) -> int:
        label = slope_label(self.plane.lines[line_idx].slope, self.plane.q)
        return (label + self.s - 1) // self.s

    def parity_position(self, line_idx: int) -> Optional[tuple]:
        """(bucket, column position) of a selected line's parity column."""
        return self._parity_pos().get(line_idx)

    def selected_set(self) -> frozenset:
        cached = getattr(self, "_selected_cache", None)
        if cached is None:
            cached = frozenset(self.selected)
            object.__setattr__(self, "_selected_cache", cached)
        return cached

    def _parity_pos(self) -> dict:
        pos = getattr(self, "_parity_cache", None)
        if pos is None:
            pos = {}
            counters = [0] * (self.info_buckets + 1)
            for idx in self.selected:
                if not self.point_sets[idx]:
                    continue
                u = self.class_of_line(idx)
                pos[idx] = (self.info_buckets + u, counters[u])
                counters[u] += 1
            object.__setattr__(self, "_parity_cache", pos)
        return pos

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
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    import numpy as np  # imported here so that loading the CLI does not pay for it

    stream_lines, stream_points = [
        np.random.Generator(np.random.PCG64(ss)) for ss in np.random.SeedSequence(seed).spawn(2)
    ]
    n = plane.n
    selected = tuple(
        idx for idx in range(len(plane.lines)) if stream_lines.random() < p1
    )
    point_sets = []
    for line in plane.lines:
        draws = stream_points.random(q)
        point_sets.append(frozenset(pt for pt, d in zip(line.points, draws) if d < p2))
    point_sets = tuple(point_sets)

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
    for idx in selected:
        pts = point_sets[idx]
        if not pts:
            continue
        label = slope_label(plane.lines[idx].slope, q)
        u = (label + s - 1) // s
        col = [0] * n
        for pt in pts:
            col[pt - 1] = 1
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
        code=code,
    )


def rebuild_from_provenance(prov: dict) -> AffinePlaneCode:
    if prov.get("family") != "affine":
        raise ValueError("provenance is not from the affine construction")
    if prov.get("rng") != RNG_ID:
        raise ValueError(f"unsupported rng {prov.get('rng')!r}, expected {RNG_ID}")
    return random_bac(int(prov["q"]), int(prov["s"]), float(prov["p1"]), float(prov["p2"]), int(prov["seed"]))


def greedy_plan(
    apc: AffinePlaneCode,
    request: Sequence[int],
    strict_appendix: bool = False,
) -> Optional[RecoveryPlan]:
    """Greedy recovery-set search: for each requested point, either its own
    information bucket (unless `strict_appendix`) or a selected line through
    it whose sampled point set contains it, avoids every other requested
    point, and touches only unused buckets.  Candidate lines are scanned in
    ascending slope order.  Returns a certified plan or None."""
    code = apc.code
    n = code.n
    req = normalize_request(request, n)
    k = len(req)
    if k > code.m:
        raise ValueError(f"cannot partition {code.m} buckets into {k} non-empty parts")
    plane = apc.plane
    used: set = set()
    parts: list = []
    specs: list = []  # per request: ("info", point) or ("line", line_idx, point)
    for i in req:
        others = set(req) - {i}
        found = False
        if not strict_appendix:
            bucket = apc.info_bucket_of(i)
            if bucket not in used:
                used.add(bucket)
                parts.append({bucket})
                specs.append(("info", i))
                found = True
        if not found:
            for line_idx in plane.through[i - 1]:
                if line_idx not in apc.selected_set():
                    continue
                line = plane.lines[line_idx]
                pts = apc.point_sets[line_idx]
                if i not in pts:
                    continue
                if others & set(line.points):
                    continue
                cand = {apc.info_bucket_of(pt) for pt in pts if pt != i}
                cand.add(apc.parity_position(line_idx)[0])
                if cand & used:
                    continue
                used |= cand
                parts.append(cand)
                specs.append(("line", line_idx, i))
                found = True
                break
        if not found:
            return None

    for leftover in range(1, code.m + 1):
        if leftover not in used:
            parts[-1].add(leftover)

    p = code.field.p
    responses = [[0] * len(b) for b in code.buckets]
    combos = []
    for part, spec in zip(parts, specs):
        combo = {ell: 1 for ell in part}
        if spec[0] == "info":
            bucket, pos = apc.info_position(spec[1])
            responses[bucket - 1][pos] = 1
        else:
            _, line_idx, i = spec
            pbucket, ppos = apc.parity_position(line_idx)
            responses[pbucket - 1][ppos] = 1
            for pt in apc.point_sets[line_idx]:
                if pt == i:
                    continue
                bucket, pos = apc.info_position(pt)
                responses[bucket - 1][pos] = 1
                combo[bucket] = (p - 1) % p
        combos.append(tuple(sorted(combo.items())))

    plan = RecoveryPlan(
        request=req,
        sets=tuple(frozenset(part) for part in parts),
        responses=tuple(tuple(r) for r in responses),
        combos=tuple(combos),
    )
    if not certify_plan(code, req, plan):
        raise AssertionError(f"internal: greedy plan failed certification for {req}")
    return plan


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


def _run_trials(apc, k, strict_appendix, children):
    import numpy as np

    n = apc.code.n
    successes = 0
    failures = []
    for child in children:
        rng = np.random.Generator(np.random.PCG64(child))
        req = tuple(sorted(int(v) for v in rng.integers(1, n + 1, size=k)))
        plan = greedy_plan(apc, req, strict_appendix=strict_appendix)
        if plan is None:
            failures.append((req, "greedy-stuck"))
        else:
            successes += 1
    return successes, failures


_TRIAL_CTX = None


def _trial_worker_init(apc, k, strict):
    global _TRIAL_CTX
    _TRIAL_CTX = (apc, k, strict)


def _trial_worker(children):
    apc, k, strict = _TRIAL_CTX
    return _run_trials(apc, k, strict, children)


def trial_verify(
    apc: AffinePlaneCode,
    k: int,
    trials: int,
    seed: int,
    strict_appendix: bool = False,
    jobs: int = 1,
) -> TrialReport:
    """Sample `trials` uniform size-k requests, run the greedy planner, and
    certify every plan it returns.  Trial seeds are derived per index, so the
    report is reproducible and independent of how trials are sharded across
    workers (`jobs`)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    import numpy as np

    start = time.monotonic()
    children = np.random.SeedSequence(int(seed)).spawn(trials)
    if jobs and jobs > 1:
        import multiprocessing as mp

        n_chunks = max(1, min(trials, jobs * 4))
        chunks = [children[i::n_chunks] for i in range(n_chunks)]
        ctx = mp.get_context()
        with ctx.Pool(jobs, initializer=_trial_worker_init, initargs=(apc, k, strict_appendix)) as pool:
            results = pool.map(_trial_worker, chunks)
        successes = sum(s for s, _ in results)
        failures = [f for _, fs in results for f in fs]
    else:
        successes, failures = _run_trials(apc, k, strict_appendix, children)
    return TrialReport(
        k=k,
        trials=trials,
        successes=successes,
        failures=tuple(sorted(failures)),
        elapsed_s=time.monotonic() - start,
    )
