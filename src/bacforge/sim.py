"""End-to-end storage semantics: encode a data vector across simulated nodes,
serve a batch request under a recovery plan, and account for per-node load.

Each node computes exactly one field element per served batch -- the inner
product of its stored bucket with its response vector -- and the aggregator
combines the answers with the plan's coefficients.  `symbols_read` counts the
nonzero entries of a response vector, i.e. the fan-in of the node's local
computation; under the projection regime it is at most 1 by definition.

Nodes are in-process actors, not network processes; a single batch serves
nodes in bucket order so reports are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .affine import greedy_plan, rebuild_from_provenance
from .construct import (
    CyclicParams,
    GoodVector,
    cyclic_certified_plan,
    cyclic_params,
    good_vector,
    goodvec_certified_plan,
)
from .field import dot
from .model import CodeSpec, _json_int, _json_list, codes_equal, encode, total_length
from .verify import (
    RecoveryPlan,
    ResponseModel,
    certify_plan,
    find_plan,
    normalize_request,
)


@dataclass
class NodeState:
    """Mutable per-node tallies across served batches."""

    bucket_values: tuple
    response_count: int = 0
    symbols_read: int = 0


@dataclass(frozen=True)
class SimReport:
    """One served batch: recovered values plus per-node accounting."""

    request: tuple
    model: ResponseModel
    planner: str
    recovered: tuple
    node_responses: tuple  # field element each node sent
    symbols_read: tuple  # per node, fan-in of its local computation
    response_counts: tuple  # per node, always 1 (partition property)

    @property
    def max_symbols_read(self) -> int:
        return max(self.symbols_read)

    def to_json_dict(self) -> dict:
        return {
            "request": list(self.request),
            "model": self.model.value,
            "planner": self.planner,
            "recovered": list(self.recovered),
            "node_responses": list(self.node_responses),
            "symbols_read": list(self.symbols_read),
            "response_counts": list(self.response_counts),
        }


# the keys each construction records in its provenance, with the type of each
_PROVENANCE_FIELDS = {
    "cyclic": (("n", int), ("k", int), ("m", int)),
    "goodvec": (("t", int), ("v", list)),
    "affine": (("q", int), ("s", int), ("p1", float), ("p2", float), ("seed", int), ("rng", str)),
}


def _provenance_key(provenance) -> tuple:
    """Check a construction provenance the way `code_from_dict` checks a
    code (the key set, ints that are not bool, lists of them, numbers,
    strings) and return it as a hashable (family, value, ...) key."""
    if not provenance:
        raise ValueError("certified planner needs construction provenance")
    if not isinstance(provenance, dict):
        raise ValueError(f"provenance must be an object, got {provenance!r}")
    family = provenance.get("family")
    if not isinstance(family, str) or family not in _PROVENANCE_FIELDS:
        raise ValueError(f"no certified planner for family {family!r}")
    fields = _PROVENANCE_FIELDS[family]
    names = {name for name, _ in fields}
    missing = names - set(provenance)
    if missing:
        raise ValueError(f"missing keys in {family} provenance: {sorted(missing)}")
    extra = set(provenance) - names - {"family"}
    if extra:
        raise ValueError(f"unexpected keys in {family} provenance: {sorted(extra, key=repr)}")
    key = [family]
    for name, kind in fields:
        value, what = provenance[name], f'"{name}"'
        if kind is int:
            value = _json_int(value, what)
        elif kind is list:
            value = tuple(_json_int(v, f"an entry of {what}") for v in _json_list(value, what))
        elif kind is float and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ValueError(f"{what} must be a number, got {value!r}")
        elif kind is str and not isinstance(value, str):
            raise ValueError(f"{what} must be a string, got {value!r}")
        key.append(value)
    return tuple(key)


def planner_context(code: CodeSpec, provenance) -> object:
    """What the certified planner of a code's construction needs: the
    `CyclicParams`, the `GoodVector`, or the `AffinePlaneCode` rebuilt from
    the provenance and checked to be this code.  Resolved once per (code,
    provenance) and kept in `code.cache`; a malformed provenance raises
    ValueError."""
    key = _provenance_key(provenance)
    contexts = code.cache.setdefault("planner-contexts", {})
    context = contexts.get(key)
    if context is None:
        context = contexts[key] = _resolve_context(code, provenance)
    return context


def _resolve_context(code: CodeSpec, prov: dict) -> object:
    # the size checks come first, so that a huge n or q in a provenance that
    # cannot match the code is not built
    family = prov["family"]
    if family == "cyclic":
        if prov["n"] != code.n:
            raise ValueError("code does not match the cyclic construction for these parameters")
        return cyclic_params(prov["n"], prov["k"], prov["m"])
    if family == "goodvec":
        return good_vector(prov["v"], prov["t"])
    if prov["q"] * prov["q"] != code.n:
        raise ValueError("code does not match its affine provenance")
    apc = rebuild_from_provenance(prov)
    if not codes_equal(apc.code, code):
        raise ValueError("code does not match its affine provenance")
    return apc


def _certified_plan(code: CodeSpec, request, provenance) -> RecoveryPlan:
    context = planner_context(code, provenance)
    if isinstance(context, CyclicParams):
        return cyclic_certified_plan(context, code, request)
    if isinstance(context, GoodVector):
        return goodvec_certified_plan(context, code, request)
    plan = greedy_plan(context, request)
    if plan is None:
        raise ValueError(f"greedy planner found no plan for request {tuple(request)}")
    return plan


def serve_batch(
    code: CodeSpec,
    data: Sequence[int],
    request: Sequence[int],
    planner: str = "exhaustive",
    model: ResponseModel = ResponseModel.LINEAR,
    plan: Optional[RecoveryPlan] = None,
    provenance: Optional[dict] = None,
) -> SimReport:
    """Serve one batch request against encoded data.

    planner "exhaustive" runs the exact search; "certified" dispatches to the
    construction-specific planner named by `provenance`.  A pre-built plan
    may be supplied directly (it is certified before use).  Every recovered
    value is checked against the true symbol -- exact field arithmetic, no
    tolerance."""
    model = ResponseModel.parse(model)
    if len(data) != code.n:
        raise ValueError(f"data length {len(data)} != n = {code.n}")
    req = normalize_request(request, code.n)
    if plan is not None:
        planner_name = "explicit"
    elif planner == "exhaustive":
        planner_name = "exhaustive"
        plan = find_plan(code, req, model)
        if plan is None:
            raise ValueError(f"no recovery plan exists for request {req}")
    elif planner == "certified":
        planner_name = "certified"
        plan = _certified_plan(code, req, provenance)
    else:
        raise ValueError(f"unknown planner {planner!r}")
    if not certify_plan(code, req, plan, model):
        raise ValueError("plan failed certification")

    fieldobj = code.field
    data_t = fieldobj.normalize_vector(data)
    word = encode(code, data_t)
    nodes = [NodeState(bucket_values=values) for values in word.values]

    responses = []
    for node, resp in zip(nodes, plan.responses):
        value = 0  # a zero response vector reads nothing
        if any(resp):
            value = dot(node.bucket_values, resp, fieldobj)
            node.symbols_read = sum(1 for r in resp if r % fieldobj.p)
        node.response_count += 1
        if node.response_count != 1:
            raise AssertionError("node answered more than once in a single batch")
        responses.append(value)

    recovered = []
    for j, i in enumerate(req):
        acc = 0
        for ell, coeff in plan.combos[j]:
            acc = (acc + coeff * responses[ell - 1]) % fieldobj.p
        if acc != data_t[i - 1]:
            raise AssertionError(
                f"recovered {acc} for symbol {i} but data holds {data_t[i - 1]}"
            )
        recovered.append(acc)

    return SimReport(
        request=req,
        model=model,
        planner=planner_name,
        recovered=tuple(recovered),
        node_responses=tuple(responses),
        symbols_read=tuple(node.symbols_read for node in nodes),
        response_counts=tuple(node.response_count for node in nodes),
    )


@dataclass(frozen=True)
class LoadStats:
    batches: int
    per_node_responses: tuple
    max_load: int
    mean_load: float
    symbols_read_totals: tuple
    symbols_read_hist: dict

    def to_json_dict(self) -> dict:
        return {
            "batches": self.batches,
            "per_node_responses": list(self.per_node_responses),
            "max_load": self.max_load,
            "mean_load": self.mean_load,
            "symbols_read_totals": list(self.symbols_read_totals),
            "symbols_read_hist": {str(k): v for k, v in sorted(self.symbols_read_hist.items())},
        }


def load_stats(reports: Iterable[SimReport]) -> LoadStats:
    """Aggregate per-node response totals and fan-in across served batches."""
    reports = list(reports)
    if not reports:
        return LoadStats(0, (), 0, 0.0, (), {})
    m = len(reports[0].response_counts)
    loads = [0] * m
    read_totals = [0] * m
    hist: dict = {}
    for rep in reports:
        if len(rep.response_counts) != m:
            raise ValueError("reports come from codes with different bucket counts")
        for ell in range(m):
            loads[ell] += rep.response_counts[ell]
            read_totals[ell] += rep.symbols_read[ell]
            hist[rep.symbols_read[ell]] = hist.get(rep.symbols_read[ell], 0) + 1
    return LoadStats(
        batches=len(reports),
        per_node_responses=tuple(loads),
        max_load=max(loads),
        mean_load=sum(loads) / m,
        symbols_read_totals=tuple(read_totals),
        symbols_read_hist=hist,
    )


@dataclass(frozen=True)
class ModelComparison:
    """Side-by-side accounting of a linear-response code against a
    projection-only code on the same request sweep."""

    total_length_linear: int
    total_length_projection: int
    rows: tuple  # (request, linear max symbols_read, projection max symbols_read)
    linear_stats: LoadStats
    projection_stats: LoadStats

    def to_json_dict(self) -> dict:
        return {
            "N_linear": self.total_length_linear,
            "N_projection": self.total_length_projection,
            "rows": [
                {
                    "request": list(req),
                    "linear_max_symbols_read": a,
                    "projection_max_symbols_read": b,
                }
                for req, a, b in self.rows
            ],
        }


def compare_models(
    code_linear: CodeSpec,
    code_projection: CodeSpec,
    requests: Iterable[Sequence[int]],
    data: Optional[Sequence[int]] = None,
) -> ModelComparison:
    """Serve the same requests against a linear-response code and a
    projection-only code and tabulate lengths and per-node fan-in."""
    if code_linear.n != code_projection.n:
        raise ValueError("codes must encode the same number of symbols")
    if data is None:
        data = tuple(1 for _ in range(code_linear.n))
    rows = []
    lin_reports = []
    proj_reports = []
    for request in requests:
        lin = serve_batch(code_linear, data, request, model=ResponseModel.LINEAR)
        proj = serve_batch(code_projection, data, request, model=ResponseModel.PROJECTION)
        lin_reports.append(lin)
        proj_reports.append(proj)
        rows.append((lin.request, lin.max_symbols_read, proj.max_symbols_read))
    return ModelComparison(
        total_length_linear=total_length(code_linear),
        total_length_projection=total_length(code_projection),
        rows=tuple(rows),
        linear_stats=load_stats(lin_reports),
        projection_stats=load_stats(proj_reports),
    )
