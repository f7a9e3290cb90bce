"""End-to-end storage semantics: serve a batch request, from the parts of
its recovery plan, against data encoded across simulated nodes, and account
for per-node load.

Each node computes exactly one field element per served batch: its response
applied to its stored symbols, one linear functional of the data, which
`model.combine` builds once per (bucket, response) and `code.cache` keeps;
a node then costs one `model.apply`, and no codeword is materialised.  The
aggregator combines the answers with each part's combo.  `symbols_read`
counts the symbols a node's response weighs, i.e. the fan-in of its local
computation; under the projection regime it is at most 1 by definition.

A batch is served from its parts (`model.make_part`), one per request, and
no `RecoveryPlan` is assembled for it.  A planner's parts are certified
where they are made (see `verify`); a plan passed in is read as parts and
certified once, as `certify_plan` does (`verify._plan_parts`), and those
parts are served.  The parts must partition the buckets
(`model._partition_sets`), so each node answers exactly once; a node in no
part answers zero and reads nothing.

Nodes are in-process actors, not network processes; a single batch serves
nodes in bucket order so reports are deterministic.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .model import CodeSpec, RecoveryPlan, _partition_sets, _unit_or_zero, apply, codes_equal, combine, data_vector
from .model import _json_int, _json_list, normalize_request, pack, total_length
from .verify import ResponseModel, _plan_parts, _search_parts


class SimReport(NamedTuple):
    """One served batch: recovered values plus per-node accounting."""

    request: tuple
    model: ResponseModel
    planner: str
    recovered: tuple
    node_responses: tuple  # field element each node sent
    symbols_read: tuple  # per node, fan-in of its local computation
    response_counts: tuple  # per node, always 1: a served batch's parts partition [m]

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


def _provenance_key(provenance) -> None:
    """Check a construction provenance the way `code_from_dict` checks a
    code: the key set, ints that are not bool, lists of them, numbers,
    strings."""
    if not provenance:
        raise ValueError("certified planner needs construction provenance")
    if not isinstance(provenance, dict):
        raise ValueError(f"provenance must be an object, got {provenance!r}")
    family = provenance.get("family")
    if not isinstance(family, str) or family not in _PROVENANCE_FIELDS:
        raise ValueError(
            f"no certified planner for family {family!r}; "
            f"the families with one are {', '.join(_PROVENANCE_FIELDS)}"
        )
    fields = _PROVENANCE_FIELDS[family]
    names = {name for name, _ in fields}
    missing = names - set(provenance)
    if missing:
        raise ValueError(f"missing keys in {family} provenance: {sorted(missing)}")
    extra = set(provenance) - names - {"family"}
    if extra:
        raise ValueError(f"unexpected keys in {family} provenance: {sorted(extra, key=repr)}")
    for name, kind in fields:
        value, what = provenance[name], f'"{name}"'
        if kind is int:
            _json_int(value, what)
        elif kind is list:
            for v in _json_list(value, what):
                _json_int(v, f"an entry of {what}")
        elif kind is float and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ValueError(f"{what} must be a number, got {value!r}")
        elif kind is str and not isinstance(value, str):
            raise ValueError(f"{what} must be a string, got {value!r}")


def _value_types(provenance: dict) -> list:
    """The exact types of a provenance's values, a list's entry by entry."""
    return [list(map(type, v)) if isinstance(v, list) else type(v) for v in provenance.values()]


def planner_context(code: CodeSpec, provenance) -> object:
    """What the certified planner of a code's construction needs: the
    `CyclicParams`, the `GoodVector`, or the `AffinePlaneCode` rebuilt from
    the provenance and checked to be this code; a malformed provenance
    raises ValueError."""
    return _planner(code, provenance)[0]


def _planner(code: CodeSpec, provenance) -> tuple:
    """`planner_context` and the internal entry of its planner, called as
    entry(context, code, req).  The code's cache keeps the last provenance
    resolved for it, as a copy with its value types (`==` holds between
    True, 1 and 1.0), and both: one equal to it with the same types is not
    checked again, and any other is checked and resolved anew."""
    copy, types, planner = code.cache.get("planner-provenance", (None, None, None))
    if type(provenance) is dict and provenance == copy and _value_types(provenance) == types:
        return planner
    _provenance_key(provenance)
    planner = _resolve_context(code, provenance)
    copy = {name: list(v) if isinstance(v, list) else v for name, v in provenance.items()}
    code.cache["planner-provenance"] = (copy, _value_types(provenance), planner)
    return planner


def _resolve_context(code: CodeSpec, prov: dict) -> tuple:
    # only the module of the provenance's family is imported, once per code;
    # the size checks come first, so that a huge n or q in a provenance that
    # cannot match the code is not built
    family = prov["family"]
    if family == "cyclic":
        from .construct import _cyclic_parts, cyclic_params

        if prov["n"] != code.n:
            raise ValueError("code does not match the cyclic construction for these parameters")
        return cyclic_params(prov["n"], prov["k"], prov["m"]), _cyclic_parts
    if family == "goodvec":
        from .construct import _goodvec_parts, good_vector

        return good_vector(prov["v"], prov["t"]), _goodvec_parts
    from .affine import RNG_ID, _greedy_parts, random_bac

    if prov["q"] * prov["q"] != code.n:
        raise ValueError("code does not match its affine provenance")
    if prov["rng"] != RNG_ID:
        raise ValueError(f"unsupported rng {prov['rng']!r}, expected {RNG_ID}")
    apc = random_bac(prov["q"], prov["s"], prov["p1"], prov["p2"], prov["seed"])
    if not codes_equal(apc.code, code):
        raise ValueError("code does not match its affine provenance")
    return apc, lambda context, _, req: _greedy_parts(context, req)


def _certified_parts(code: CodeSpec, req: tuple, provenance) -> list:
    """The parts the certified planner of the code's construction serves the
    sorted, range-checked `req` with; only the greedy affine planner may find
    none."""
    context, entry = _planner(code, provenance)
    parts = entry(context, code, req)
    if parts is None:
        raise ValueError(f"greedy planner found no plan for request {req}")
    return parts


def serve_batch(
    code: CodeSpec,
    data: Sequence[int],
    request: Sequence[int],
    planner: str = "exhaustive",
    model: ResponseModel = ResponseModel.LINEAR,
    plan: Optional[RecoveryPlan] = None,
    provenance: Optional[dict] = None,
) -> SimReport:
    """Serve one batch request against encoded data, whose entries must be
    integers (`model.data_vector`).  planner "exhaustive" runs the exact
    search; "certified" dispatches to the construction-specific planner named
    by `provenance`.  A pre-built plan may be supplied directly; it is read
    as parts, certified once as `certify_plan` certifies it, and those parts
    are served.  The certified planners' parts are certified as linear
    answers, so in the projection regime they must also answer unit vectors.
    Every recovered value is checked against the true symbol -- exact field
    arithmetic, no tolerance."""
    model = ResponseModel.parse(model)
    data_t = data_vector(code, data)
    req = normalize_request(request, code.n)
    p = code.field.p
    if plan is not None:
        planner = "explicit"
        parts = _plan_parts(code, req, plan, model)
        if parts is None:
            raise ValueError("plan failed certification")
    elif planner == "exhaustive":
        parts = _search_parts(code, req, model)
        if parts is None:
            raise ValueError(f"no recovery plan exists for request {req}")
    elif planner == "certified":
        parts = _certified_parts(code, req, provenance)
        if model is ResponseModel.PROJECTION and not all(
            _unit_or_zero(p, r) for _, answers, _ in parts for _, r in answers
        ):
            raise ValueError("plan failed certification")
    else:
        raise ValueError(f"unknown planner {planner!r}")
    _partition_sets(code, req, parts)

    table, functionals = code.column_table, code.cache.setdefault("node-answers", {})
    packed = pack(p, data_t)
    responses, reads = [0] * code.m, [0] * code.m
    for _, answers, _ in parts:
        for ell0, response in answers:
            entry = functionals.get((ell0, response))
            if entry is None:
                pairs = [(r, col) for r, col in zip(response, table[ell0]) if r % p]
                entry = functionals[ell0, response] = combine(p, pairs), len(pairs)
            functional, reads[ell0] = entry
            responses[ell0] = apply(p, functional, packed)

    recovered = []
    for (_, _, combo), i in zip(parts, req):
        acc = 0
        for ell, coeff in combo:
            acc += coeff * responses[ell - 1]
        acc %= p
        if acc != data_t[i - 1]:
            raise AssertionError(f"recovered {acc} for symbol {i} but data holds {data_t[i - 1]}")
        recovered.append(acc)

    # the parts partition [m]: each node answers once
    return SimReport(
        request=req,
        model=model,
        planner=planner,
        recovered=tuple(recovered),
        node_responses=tuple(responses),
        symbols_read=tuple(reads),
        response_counts=(1,) * code.m,
    )


class LoadStats(NamedTuple):
    """Per-node reads and fan-in over served batches.  Every node answers
    once per batch (see `serve_batch`), so the batch count is each node's
    number of responses."""

    batches: int
    symbols_read_totals: tuple
    symbols_read_hist: dict

    def to_json_dict(self) -> dict:
        return {
            "batches": self.batches,
            "symbols_read_totals": list(self.symbols_read_totals),
            "symbols_read_hist": {str(k): v for k, v in sorted(self.symbols_read_hist.items())},
        }


def load_stats(reports: Iterable[SimReport]) -> LoadStats:
    """Aggregate per-node symbols read and fan-in across served batches."""
    reports = list(reports)
    if not reports:
        return LoadStats(0, (), {})
    m = len(reports[0].symbols_read)
    read_totals = [0] * m
    hist: dict = {}
    for rep in reports:
        if len(rep.symbols_read) != m:
            raise ValueError("reports come from codes with different bucket counts")
        for ell, reads in enumerate(rep.symbols_read):
            read_totals[ell] += reads
            hist[reads] = hist.get(reads, 0) + 1
    return LoadStats(len(reports), tuple(read_totals), hist)


class ModelComparison(NamedTuple):
    """Side-by-side accounting of a linear-response code against a
    projection-only code on the same request sweep."""

    total_length_linear: int
    total_length_projection: int
    rows: tuple  # (request, linear max symbols_read, projection max symbols_read)

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
    for request in requests:
        lin = serve_batch(code_linear, data, request, model=ResponseModel.LINEAR)
        proj = serve_batch(code_projection, data, request, model=ResponseModel.PROJECTION)
        rows.append((lin.request, lin.max_symbols_read, proj.max_symbols_read))
    return ModelComparison(
        total_length_linear=total_length(code_linear),
        total_length_projection=total_length(code_projection),
        rows=tuple(rows),
    )
