"""Command-line entry point.

JSON results go to stdout, human-readable summaries to stderr.  Exit codes:
0 success / verification pass, 1 verification fail, 2 usage or precondition
error.  Randomized commands take --seed; if omitted, one is generated and
printed so every run is reproducible after the fact.

Each command imports only the modules it runs: `verify` loads field, model
and verify; `goodvec`, `compose` and the other `construct` families add
construct; `bounds` adds construct and bounds; `construct affine` adds
affine; `simulate` and `random-trials` add construct, affine and sim.
No command imports numpy.
"""

from __future__ import annotations

import argparse
import json
import sys


def _eprint(*args) -> None:
    print(*args, file=sys.stderr)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)


def _int_list(text: str) -> list:
    try:
        return [int(v) for v in str(text).split(",") if v != ""]
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}")


def _range(text: str) -> range:
    try:
        lo, hi = str(text).split("..")
        values = range(int(lo), int(hi) + 1)
    except Exception:
        raise ValueError(f"expected a range like 2..8, got {text!r}")
    if not values:
        raise ValueError(f"empty range {text!r}: its end is below its start")
    return values


# the families built from integer flags alone: the name of the builder in
# `construct`, and its flags in call and provenance order
_INT_FAMILIES = {
    "replication": ("trivial_replication", ("n", "k")),
    "single": ("single_request_code", ("n", "m")),
    "parity": ("parity_code_k2", ("m",)),
    "cyclic": ("cyclic_shift_code", ("n", "k", "m")),
    "uniform": ("uniform_code", ("n", "k")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bacforge")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="generate a code from a named family")
    c.add_argument("family", choices=[*_INT_FAMILIES, "goodvec", "affine"])
    c.add_argument("--n", type=int)
    c.add_argument("--k", type=int)
    c.add_argument("--m", type=int)
    c.add_argument("--t", type=int)
    c.add_argument("--v", type=str, help="explicit good vector, e.g. 1,1,2,0,2")
    c.add_argument("--q", type=int)
    c.add_argument("--s", type=int)
    c.add_argument("--p1", type=float)
    c.add_argument("--p2", type=float)
    c.add_argument("--seed", type=int)
    c.add_argument("--field", type=int, default=2)
    c.add_argument("--out", type=str)

    v = sub.add_parser("verify", help="exhaustively verify the batch or PIR property")
    v.add_argument("code")
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--mode", choices=["linear", "projection"], default="linear")
    v.add_argument("--pir-only", action="store_true")

    b = sub.add_parser("bounds", help="length bounds for one tuple or a table")
    b.add_argument("table", nargs="?", choices=["table"])
    b.add_argument("--n", type=int)
    b.add_argument("--k", type=int)
    b.add_argument("--m", type=int)
    b.add_argument("--n-range", type=str)
    b.add_argument("--k-range", type=str)
    b.add_argument("--m-rule", choices=["k+1", "k+2", "all"])
    b.add_argument("--m-max", type=int)
    b.add_argument("--csv", type=str)

    g = sub.add_parser("goodvec", help="construct or enumerate good vectors")
    g.add_argument("--t", type=int, required=True)
    g.add_argument("--enumerate", action="store_true", dest="enumerate_all")
    g.add_argument("--len", type=int, dest="length")

    p = sub.add_parser("compose", help="combine codes bucketwise")
    p.add_argument("op", choices=["parallel", "concat", "repeat"])
    p.add_argument("inputs", nargs="+")
    p.add_argument("--count", type=int)
    p.add_argument("--out", type=str)

    s = sub.add_parser("simulate", help="serve one batch request end to end")
    s.add_argument("code")
    s.add_argument("--data", type=str, required=True)
    s.add_argument("--request", type=str, required=True)
    s.add_argument("--mode", choices=["linear", "projection"], default="linear")
    s.add_argument("--planner", choices=["exhaustive", "certified"], default="exhaustive")

    r = sub.add_parser("random-trials", help="sample greedy recovery on an affine code")
    r.add_argument("code")
    r.add_argument("--k", type=int, required=True)
    r.add_argument("--trials", type=int, required=True)
    r.add_argument("--seed", type=int)
    r.add_argument("--strict-appendix", action="store_true")

    return parser


def _require(args, names) -> None:
    missing = [name for name in names if getattr(args, name.replace("-", "_")) is None]
    if missing:
        raise ValueError(f"missing required flags: {', '.join('--' + m for m in missing)}")


def _cmd_construct(args) -> int:
    from .field import PrimeField
    from .model import code_to_json, total_length

    fieldobj = PrimeField(args.field)
    fam = args.family
    if fam in _INT_FAMILIES:
        from . import construct

        builder, flags = _INT_FAMILIES[fam]
        _require(args, flags)
        values = {flag: getattr(args, flag) for flag in flags}
        code = getattr(construct, builder)(*values.values(), fieldobj)
        prov = {"family": fam, **values}
    elif fam == "goodvec":
        from .construct import good_vector, good_vector_2t1, good_vector_code

        if args.v:
            v = good_vector(_int_list(args.v), args.t)
        else:
            _require(args, ["t"])
            v = good_vector_2t1(args.t)
        code = good_vector_code(v, fieldobj)
        prov = {"family": "goodvec", "t": v.t, "v": list(v.entries)}
    else:  # affine
        import secrets

        from .affine import default_params, random_bac

        _require(args, ["q", "s"])
        if args.field != 2:
            raise ValueError("the affine construction is binary; use --field 2")
        p1, p2 = args.p1, args.p2
        if p1 is None or p2 is None:
            defaults = default_params(args.q, 1 if args.k is None else args.k, args.s)
            p1 = p1 if p1 is not None else defaults.p1
            p2 = p2 if p2 is not None else defaults.p2
            _eprint(
                f"using default probabilities p1={p1:.6g} p2={p2:.6g}"
                + (" (p1 clamped to 1)" if defaults.p1_clamped and args.p1 is None else "")
            )
        seed = args.seed
        if seed is None:
            seed = secrets.randbits(63)
            _eprint(f"generated seed {seed}")
        apc = random_bac(args.q, args.s, p1, p2, seed)
        code = apc.code
        prov = apc.provenance()

    text = code_to_json(code, prov)
    _emit(text, args.out)
    sizes = [len(b) for b in code.buckets]
    _eprint(
        f"constructed {fam}: n={code.n} N={total_length(code)} m={code.m} "
        f"bucket sizes {min(sizes)}..{max(sizes)} over F_{code.field.p}"
    )
    return 0


def _cmd_verify(args) -> int:
    from .model import load_code
    from .verify import ResponseModel, verify_bac, verify_pir

    code, _ = load_code(args.code)
    model = ResponseModel.parse(args.mode)
    if args.pir_only:
        report = verify_pir(code, args.k, model)
    else:
        report = verify_bac(code, args.k, model)
    print(json.dumps(report.to_json_dict()))
    reflection = "" if report.reflection is None else f" and reflection {report.reflection}"
    _eprint(
        f"{report.kind} k={args.k} mode={model.value}: {report.status} "
        f"({report.checked} requests, {report.representatives} orbit representatives "
        f"under shift {report.shift}{reflection}, {report.elapsed_s:.2f}s)"
    )
    return 0 if report.passed else 1


def _cmd_bounds(args) -> int:
    from fractions import Fraction

    from .bounds import bound_report, bound_table, table_to_csv

    if args.table == "table":
        _require(args, ["n-range", "k-range", "m-rule"])
        reports = bound_table(
            _range(args.n_range), _range(args.k_range), args.m_rule, args.m_max
        )
        if not reports:
            raise ValueError(f"empty table: --m-max {args.m_max} is below every k in {args.k_range!r}")
        print(json.dumps([r.to_json_dict() for r in reports]))
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(table_to_csv(reports))
            _eprint(f"wrote {len(reports)} rows to {args.csv}")
        else:
            _eprint(f"{len(reports)} rows")
        return 0
    _require(args, ["n", "k", "m"])
    report = bound_report(args.n, args.k, args.m)
    print(json.dumps(report.to_json_dict()))
    lb = Fraction(report.lower)
    _eprint(
        f"(n={args.n}, k={args.k}, m={args.m}): lb {lb} (ceil {report.lower_ceil}, "
        f"{report.lower_source}); ub {report.upper} ({report.upper_source}); "
        f"optimal={report.optimal}"
    )
    return 0


def _cmd_goodvec(args) -> int:
    from .construct import enumerate_good_vectors, good_vector_2t1

    if args.enumerate_all:
        length = args.length if args.length is not None else 2 * args.t
        vectors = enumerate_good_vectors(args.t, length)
        print(json.dumps([list(v) for v in vectors]))
        _eprint(f"{len(vectors)} good vector(s) of length {length} for t={args.t}")
        return 0
    v = good_vector_2t1(args.t)
    print(
        json.dumps(
            {
                "t": v.t,
                "v": list(v.entries),
                "last_occurrence": {str(j): idx for j, idx in sorted(v.last_occurrence.items())},
            }
        )
    )
    _eprint(f"good vector of length {len(v.entries)} for t={args.t}")
    return 0


def _cmd_compose(args) -> int:
    from . import construct
    from .model import code_to_json, load_code, total_length

    if args.op == "repeat":
        if len(args.inputs) != 1:
            raise ValueError("compose repeat takes one input code")
        _require(args, ["count"])
        code, prov = load_code(args.inputs[0])
        result = construct.compose_repeat(code, args.count)
        new_prov = {"family": "compose-repeat", "count": args.count, "inner": prov}
    else:
        if len(args.inputs) != 2:
            raise ValueError(f"compose {args.op} takes two input codes")
        c1, p1 = load_code(args.inputs[0])
        c2, p2 = load_code(args.inputs[1])
        if args.op == "parallel":
            result = construct.compose_parallel(c1, c2)
        else:
            result = construct.compose_concat(c1, c2)
        new_prov = {"family": f"compose-{args.op}", "inner": [p1, p2]}
    text = code_to_json(result, new_prov)
    _emit(text, args.out)
    _eprint(f"composed {args.op}: n={result.n} N={total_length(result)} m={result.m}")
    return 0


def _cmd_simulate(args) -> int:
    from .model import load_code
    from .sim import serve_batch
    from .verify import ResponseModel

    code, prov = load_code(args.code)
    report = serve_batch(
        code,
        _int_list(args.data),
        _int_list(args.request),
        planner=args.planner,
        model=ResponseModel.parse(args.mode),
        provenance=prov,
    )
    print(json.dumps(report.to_json_dict()))
    _eprint(
        f"recovered {list(report.recovered)} for request {list(report.request)}; "
        f"max symbols read per node: {report.max_symbols_read}"
    )
    return 0


def _cmd_random_trials(args) -> int:
    import secrets

    from .affine import trial_verify
    from .model import load_code
    from .sim import planner_context

    code, prov = load_code(args.code)
    if not isinstance(prov, dict) or prov.get("family") != "affine":
        raise ValueError("random-trials needs a code with affine provenance")
    apc = planner_context(code, prov)
    seed = args.seed
    if seed is None:
        seed = secrets.randbits(63)
        _eprint(f"generated seed {seed}")
    report = trial_verify(
        apc, args.k, args.trials, seed, strict_appendix=args.strict_appendix
    )
    print(json.dumps(report.to_json_dict()))
    _eprint(
        f"{report.successes}/{report.trials} greedy plans found and certified "
        f"({report.elapsed_s:.2f}s)"
    )
    return 0 if not report.failures else 1


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "construct": _cmd_construct,
        "verify": _cmd_verify,
        "bounds": _cmd_bounds,
        "goodvec": _cmd_goodvec,
        "compose": _cmd_compose,
        "simulate": _cmd_simulate,
        "random-trials": _cmd_random_trials,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        _eprint(f"error: {exc}")
        return 2
    except RecursionError:
        # the plan search recurses once per request, the projection solve
        # once per bucket
        _eprint("error: too many requests or buckets for the recursive plan search")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
