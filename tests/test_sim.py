import builtins
import copy
import functools
import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import bacforge.affine as affine_mod
import bacforge.construct as construct_mod
import bacforge.sim as sim_mod
import bacforge.verify as verify_mod
from bacforge import (
    CodeSpec,
    ResponseModel,
    certify_plan,
    code_from_json,
    code_to_json,
    compare_models,
    cyclic_certified_plan,
    cyclic_params,
    cyclic_shift_code,
    encode,
    find_plan,
    good_vector,
    good_vector_2t1,
    good_vector_code,
    goodvec_certified_plan,
    greedy_plan,
    load_stats,
    random_bac,
    serve_batch,
    total_length,
    uniform_code,
)
from bacforge.field import PrimeField
from bacforge.verify import make_part, plan_from_parts
from oracles import dot, reference_encode

LIN = ResponseModel.LINEAR
PROJ = ResponseModel.PROJECTION


def test_serve_batch_reference_narrative(c2_code):
    rep = serve_batch(c2_code, (1, 0, 1, 1), (1, 1, 1, 1))
    assert rep.recovered == (1, 1, 1, 1)
    # node 4 computes x2+x3+x4 = 0, node 5 the full sum = 1
    assert rep.node_responses == (1, 1, 1, 0, 1)
    assert rep.symbols_read == (1, 1, 1, 3, 1)
    assert rep.response_counts == (1, 1, 1, 1, 1)


def test_serve_batch_projection_narrative(c1_code):
    rep = serve_batch(c1_code, (1, 0, 1, 1), (1, 1, 1, 1), model=PROJ)
    assert rep.recovered == (1, 1, 1, 1)
    # node 4 forwards stored x4 = 1, node 5 forwards stored x1+x4 = 0
    assert rep.node_responses[3] == 1 and rep.node_responses[4] == 0
    assert max(rep.symbols_read) <= 1


def test_serve_batch_zero_data(c2_code):
    rep = serve_batch(c2_code, (0, 0, 0, 0), (2, 3, 4, 4))
    assert rep.recovered == (0, 0, 0, 0)


def test_serve_batch_symbols_read_bounded(c2_code):
    for req in itertools.combinations_with_replacement(range(1, 5), 4):
        rep = serve_batch(c2_code, (1, 1, 0, 1), req)
        for read, bucket in zip(rep.symbols_read, c2_code.buckets):
            assert read <= len(bucket)


def test_serve_batch_errors(c2_code):
    with pytest.raises(ValueError):
        serve_batch(c2_code, (1, 0, 1), (1,))
    with pytest.raises(ValueError):
        serve_batch(c2_code, (1, 0, 1, 1), (1,), planner="mystery")
    with pytest.raises(ValueError):
        serve_batch(c2_code, (1, 0, 1, 1), (1,), planner="certified", provenance=None)
    # data entries must be integers, as request indices must
    f3_code = cyclic_shift_code(12, 6, 8, PrimeField(3))
    for code, data, req in (
        (f3_code, [1.5] + [1] * 11, (1, 2, 3, 4, 5, 6)),
        (c2_code, (1.0, 0, 1, 1), (1, 2, 3, 4)),
        (c2_code, ("1", 0, 1, 1), (1, 2, 3, 4)),
    ):
        with pytest.raises(TypeError):
            serve_batch(code, data, req)
        with pytest.raises(TypeError):
            encode(code, data)
    # numpy integers are integers
    data = np.array([1, 0, 1, 1], dtype=np.int64)
    req = (1, 1, 1, 1)
    assert serve_batch(c2_code, data, req) == serve_batch(c2_code, (1, 0, 1, 1), req)
    assert encode(c2_code, data) == encode(c2_code, (1, 0, 1, 1))


def test_serve_batch_certified_cyclic(c2_code):
    prov = {"family": "cyclic", "n": 4, "k": 4, "m": 5}
    rep = serve_batch(c2_code, (1, 1, 1, 0), (2, 2, 3, 4), planner="certified", provenance=prov)
    assert rep.recovered == (1, 1, 1, 0)
    assert rep.planner == "certified"


def test_serve_batch_certified_goodvec(gv1_code):
    prov = {"family": "goodvec", "t": 1, "v": [1, 1]}
    rep = serve_batch(gv1_code, (1, 0, 1, 1, 0), (1, 1, 1), planner="certified", provenance=prov)
    assert rep.recovered == (1, 1, 1)


def test_serve_batch_certified_affine(monkeypatch):
    apc = random_bac(5, 2, 0.6, 0.7, 7)
    prov = apc.provenance()
    code, _ = code_from_json(code_to_json(apc.code))  # as loaded from a file
    rebuilt = []
    real_random_bac = affine_mod.random_bac
    monkeypatch.setattr(
        affine_mod, "random_bac", lambda *args: rebuilt.append(args) or real_random_bac(*args)
    )
    data = tuple(i % 2 for i in range(code.n))
    served = 0
    for req in itertools.combinations_with_replacement(range(1, code.n + 1), 2):
        plan = greedy_plan(apc, req)
        if plan is None:
            with pytest.raises(ValueError, match="greedy planner found no plan"):
                serve_batch(code, data, req, planner="certified", provenance=prov)
            continue
        rep = serve_batch(code, data, req, planner="certified", provenance=prov)
        assert certify_plan(code, req, plan)
        assert rep.recovered == tuple(data[i - 1] for i in req)
        assert rep.response_counts == (1,) * code.m
        served += 1
    assert served > 100
    # the provenance was resolved once, on the first batch
    assert len(rebuilt) == 1
    # a provenance that does not rebuild this code is still refused
    with pytest.raises(ValueError, match="does not match its affine provenance"):
        serve_batch(code, data, (1, 2), planner="certified", provenance={**prov, "seed": 8})
    assert len(rebuilt) == 2


def test_serve_batch_with_explicit_plan(c2_code):
    plan = find_plan(c2_code, (4, 4, 4, 4))
    rep = serve_batch(c2_code, (0, 1, 1, 1), (4, 4, 4, 4), plan=plan)
    assert rep.recovered == (1, 1, 1, 1)
    assert rep.planner == "explicit"


def test_load_stats_sweep(gv1_code):
    reports = []
    data = (1, 0, 1, 1, 0)
    for req in itertools.combinations_with_replacement(range(1, 6), 3):
        plan = find_plan(gv1_code, req)
        reports.append(serve_batch(gv1_code, data, req, plan=plan))
    stats = load_stats(reports)
    assert stats.batches == 35
    # each node answers once per batch, so the batch count is its load
    assert all(rep.response_counts == (1, 1, 1, 1, 1) for rep in reports)
    assert stats.symbols_read_totals == tuple(map(sum, zip(*(r.symbols_read for r in reports))))
    assert sum(stats.symbols_read_hist.values()) == 35 * 5
    assert set(stats.to_json_dict()) == {"batches", "symbols_read_totals", "symbols_read_hist"}


def test_load_stats_empty():
    stats = load_stats([])
    assert stats.batches == 0 and stats.symbols_read_totals == () and stats.symbols_read_hist == {}


def test_compare_models(c2_code, c1_code):
    requests = itertools.combinations_with_replacement(range(1, 5), 4)
    table = compare_models(c2_code, c1_code, requests)
    assert table.total_length_linear == 13
    assert table.total_length_projection == 14
    assert len(table.rows) == 35
    assert all(proj <= 1 for _, _, proj in table.rows)
    heavy = dict(((req, lin) for req, lin, _ in table.rows))
    assert heavy[(1, 1, 1, 1)] == 3  # one node reads three symbols


def test_compare_models_requires_same_n(c2_code, gv1_code):
    with pytest.raises(ValueError):
        compare_models(c2_code, gv1_code, [(1,)])


def _fresh_families():
    """(code, provenance, every request of the batch size its certified
    planner serves) for the small cyclic, good-vector and affine codes,
    each code built afresh so that no planner table is cached on it yet."""
    apc = random_bac(5, 2, 0.6, 0.7, 7)
    return [
        (cyclic_shift_code(4, 4, 5), {"family": "cyclic", "n": 4, "k": 4, "m": 5},
         list(itertools.combinations_with_replacement(range(1, 5), 4))),
        (good_vector_code(good_vector((1, 1))), {"family": "goodvec", "t": 1, "v": [1, 1]},
         list(itertools.combinations_with_replacement(range(1, 6), 3))),
        (apc.code, apc.provenance(), list(itertools.combinations_with_replacement(range(1, 26), 2))),
    ]


def _table_parts(code) -> list:
    """(symbol0, part) for every part of the planner tables cached on a code."""
    out = []
    for alone, paired in code.cache.get("cyclic", {}).values():
        for ell0 in range(len(alone)):
            out += [(i - 1, part) for i, part in alone[ell0].items()]
            out += [(i - 1, part) for i, parts in paired[ell0].items() for part in parts]
    for families, _ in code.cache.get("goodvec", {}).values():
        out += [(i0, part) for i0, family in enumerate(families) for part in family]
    return out


@pytest.mark.parametrize("planner", ["exhaustive", "certified", "explicit"])
def test_serve_batch_certifies_each_part_once(monkeypatch, planner):
    """Where a served batch is certified.  A planner table's parts are each
    certified once, when the table is built, and never again per batch; the
    search's parts are each certified once, when the span engine makes them,
    and a batch serves only parts certified so far; the greedy affine
    planner certifies the k parts it makes per request; no
    certified or exhaustive batch certifies a whole plan (`_plan_parts`, by
    which `certify_plan` decides) or assembles a plan (`plan_from_parts`),
    and an explicit plan is certified exactly once per batch.  The plan of
    every batch's parts passes `certify_plan` when checked here, and every
    request the planner cannot serve is refused."""
    real_certify, real_plan_parts = verify_mod.certify_plan, verify_mod._plan_parts
    real_part = verify_mod.certified_part
    real_search, real_certified_parts = sim_mod._search_parts, sim_mod._certified_parts
    certify_calls, part_calls, served_parts, assembled = [], [], [], []
    made = []  # every part certified on the current code

    def certify_spy(*args):
        parts = real_plan_parts(*args)
        certify_calls.append(parts is not None)
        return parts

    def part_spy(p, table, part, i0, projection=False):
        part_calls.append((i0, part))
        made.append((i0, part))
        return real_part(p, table, part, i0, projection)

    def recorded(parts_fn):
        def run(*args):
            served_parts.append(parts_fn(*args))
            return served_parts[-1]

        return run

    def assemble_spy(*args):
        assembled.append(args)
        return plan_from_parts(*args)

    monkeypatch.setattr(verify_mod, "_plan_parts", certify_spy)
    monkeypatch.setattr(sim_mod, "_plan_parts", certify_spy)
    for module in (verify_mod, construct_mod, affine_mod):
        monkeypatch.setattr(module, "certified_part", part_spy)
        monkeypatch.setattr(module, "plan_from_parts", assemble_spy)
    monkeypatch.setattr(sim_mod, "_search_parts", recorded(real_search))
    monkeypatch.setattr(sim_mod, "_certified_parts", recorded(real_certified_parts))
    served = refused = 0
    for code, prov, requests in _fresh_families():
        made.clear()
        data = tuple(i % 2 for i in range(code.n))
        affine = prov["family"] == "affine"
        for number, req in enumerate(requests):
            plan = find_plan(code, req) if planner == "explicit" else None
            if planner == "explicit" and plan is None:
                continue
            certify_calls.clear(), part_calls.clear(), served_parts.clear(), assembled.clear()
            try:
                rep = serve_batch(code, data, req, planner=planner, plan=plan, provenance=prov)
            except ValueError as exc:
                # only the search and the greedy planner may find no plan on these codes
                assert affine and planner != "explicit", (req, exc)
                context = sim_mod.planner_context(code, prov)
                assert (find_plan(code, req) if planner == "exhaustive" else greedy_plan(context, req)) is None
                refused += 1
                continue
            assert assembled == []
            if planner == "explicit":
                assert certify_calls == [True] and part_calls == [] and served_parts == []
                served_plan = plan
            else:
                assert certify_calls == []
                if planner == "certified" and affine:
                    assert [i0 for i0, _ in part_calls] == [i - 1 for i in rep.request]
                elif planner == "certified" and number == 0:
                    # the table is built on the first batch, each part certified once
                    table = _table_parts(code)
                    assert len(table) > len(req)
                    assert sorted(part_calls, key=repr) == sorted(table, key=repr)
                elif planner == "certified":
                    assert part_calls == []
                [parts] = served_parts
                if planner == "exhaustive":
                    assert len(set(made)) == len(made)
                    assert {(i - 1, part) for part, i in zip(parts, rep.request)} <= set(made)
                served_plan = plan_from_parts(code, rep.request, parts)
            assert real_certify(code, req, served_plan)
            assert rep.recovered == tuple(data[i - 1] for i in rep.request)
            served += 1
    assert served > 300 and (refused > 0) == (planner != "explicit")


def test_serve_batch_imports_nothing_after_a_warm_up_batch(monkeypatch):
    """`sim` imports a construction's module when it resolves a code's
    provenance, once per code, so after one batch per family of the
    plan-serve benchmark, serving runs no import statement: the certified
    good-vector, cyclic (F_3) and affine planners, the exhaustive one on the
    uniform code, and an explicit plan."""
    v, apc, rng = good_vector((2, 3, 2, 4, 3, 1, 1, 4)), random_bac(7, 2, 1.0, 1.0, 11), random.Random(5)
    uniform = uniform_code(20, 4)
    families = [
        (good_vector_code(v), {"family": "goodvec", "t": v.t, "v": list(v.entries)}, 7, "certified"),
        (cyclic_shift_code(12, 6, 8, PrimeField(3)), {"family": "cyclic", "n": 12, "k": 6, "m": 8}, 6, "certified"),
        (apc.code, apc.provenance(), 2, "certified"),
        (uniform, None, 4, "exhaustive"),
        (uniform, None, 4, "explicit"),
    ]
    batches = []
    for code, prov, k, planner in families:
        for _ in range(6):
            req = tuple(sorted(rng.randrange(1, code.n + 1) for _ in range(k)))
            plan = find_plan(code, req) if planner == "explicit" else None
            data = [rng.randrange(code.field.p) for _ in range(code.n)]
            batches.append((code, data, req, planner, plan, prov))

    def serve_all(batches):
        served = 0
        for code, data, req, planner, plan, prov in batches:
            try:
                serve_batch(code, data, req, planner=planner, plan=plan, provenance=prov)
                served += 1
            except ValueError:  # the greedy affine planner may find no plan
                assert prov is not None and prov["family"] == "affine"
        return served

    serve_all(batches[::6])  # one warm-up batch per family
    imports, real_import = [], builtins.__import__

    def counting_import(name, *args, **kwargs):
        imports.append(name)
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counting_import)
    served = serve_all(batches)
    monkeypatch.undo()
    assert served > 20 and imports == []


def test_certified_planner_is_refused_in_the_projection_regime_as_before():
    """A certified planner's parts are certified as linear answers; under
    the projection regime a batch with a non-unit answer is still refused,
    exactly when `certify_plan` refuses the plan of its parts in that
    regime: on the (4, 13, 4, 5) cyclic code the requests (i, i, i, i)
    subtract block-mates and are refused, the other 31 served."""
    proj_refused = {}
    for code, prov, requests in _fresh_families():
        data = tuple(i % 2 for i in range(code.n))
        context = sim_mod.planner_context(code, prov)
        for req in requests:
            try:
                parts = sim_mod._certified_parts(code, req, prov)
            except ValueError:
                continue  # the greedy planner found no plan
            if certify_plan(code, req, plan_from_parts(code, req, parts), PROJ):
                rep = serve_batch(code, data, req, "certified", PROJ, provenance=prov)
                assert rep.recovered == tuple(data[i - 1] for i in rep.request)
                assert rep.max_symbols_read <= 1
            else:
                with pytest.raises(ValueError, match="plan failed certification"):
                    serve_batch(code, data, req, "certified", PROJ, provenance=prov)
                proj_refused.setdefault(type(context).__name__, []).append(req)
    assert proj_refused["CyclicParams"] == [(1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 4)]
    assert "GoodVector" not in proj_refused  # every good-vector part answers one column
    assert proj_refused["AffinePlaneCode"]  # a line may cross one bucket twice


def test_a_certified_batch_normalizes_its_request_once(monkeypatch):
    """The public planners normalize a request; `serve_batch` normalizes it
    once and hands the sorted tuple to the planners' internal entries."""
    calls = []
    real_normalize = verify_mod.normalize_request

    def normalize_spy(*args):
        calls.append(args)
        return real_normalize(*args)

    for module in (verify_mod, construct_mod, affine_mod, sim_mod):
        monkeypatch.setattr(module, "normalize_request", normalize_spy)
    served = 0
    for code, prov, requests in _fresh_families():
        data = (1,) * code.n
        for req in requests:
            calls.clear()
            try:
                serve_batch(code, data, req[::-1], "certified", provenance=prov)
                served += 1
            except ValueError:
                pass  # the greedy planner found no plan
            assert calls == [(req[::-1], code.n)]
    assert served > 300


def test_node_answers_are_kept_once_per_bucket_and_answer(monkeypatch):
    """Serving every request of the fresh (4, 13, 4, 5) cyclic code and of
    the t = 1 good-vector code builds one node functional per distinct
    (bucket, answer) pair of the parts served, and keeps it in the code's
    own cache only: an equal fresh code builds its own."""
    built = []
    real_combine = sim_mod.combine
    monkeypatch.setattr(sim_mod, "combine", lambda *args: built.append(args) or real_combine(*args))
    for code, prov, requests in _fresh_families()[:2]:
        for fresh in (code, copy.deepcopy(code)):
            assert "node-answers" not in fresh.cache
            built.clear()
            served = []
            for req in requests:
                serve_batch(fresh, (1,) * fresh.n, req, "certified", provenance=prov)
                served += [answer for _, answers, _ in sim_mod._certified_parts(fresh, req, prov) for answer in answers]
            cached = fresh.cache["node-answers"]
            assert set(cached) == set(served) and len(built) == len(cached) < len(served)


@pytest.mark.parametrize("family", ["cyclic", "goodvec", "cyclic-f3"])
@pytest.mark.parametrize("flip", ["coefficient", "response", "bucket"])
def test_a_wrong_table_part_is_refused_when_the_table_is_built(monkeypatch, family, flip):
    """Each part of a planner table in turn, made wrong in its first combo
    coefficient, the first entry of its first answer, or its bucket set
    (without the bucket of its first answer, which still serves the
    symbol), stops the table from being built."""
    if family == "goodvec":
        field, v = PrimeField(2), good_vector((1, 1))

        def build_and_plan():
            code = good_vector_code(v, field)
            return code, goodvec_certified_plan(v, code, (1,))
    else:
        field = PrimeField(3 if family == "cyclic-f3" else 2)
        params = cyclic_params(*((12, 6, 8) if family == "cyclic-f3" else (4, 4, 5)))

        def build_and_plan():
            code = cyclic_shift_code(params.n, params.k, params.m, field)
            return code, cyclic_certified_plan(params, code, (1,) * params.k)

    code, plan = build_and_plan()
    assert certify_plan(code, plan.request, plan)
    p, parts = field.p, len(_table_parts(code))
    real_make_part = construct_mod.make_part
    for target in range(parts):
        calls = itertools.count()

        def wrong(sizes, combo, picks):
            bucket_set, vectors, combo = real_make_part(sizes, combo, picks)
            if next(calls) == target:
                if flip == "coefficient":
                    (ell, c), *rest = combo
                    combo = ((ell, (c + 1) % p), *rest)
                elif flip == "bucket":
                    bucket_set &= ~(1 << vectors[0][0])
                else:
                    (ell0, vector), *rest = vectors
                    vectors = ((ell0, ((vector[0] + 1) % p,) + vector[1:]), *rest)
            return bucket_set, vectors, combo

        monkeypatch.setattr(construct_mod, "make_part", wrong)
        with pytest.raises(AssertionError, match="internal: part .* failed certification"):
            build_and_plan()
        assert next(calls) == target + 1  # refused at the wrong part, as it was made


def test_plan_from_parts_refuses_parts_that_do_not_partition(c2_code):
    """The parts a planner hands over, their bucket sets as bitmasks (bit
    ell - 1 for bucket ell), must partition the buckets: two parts on one
    bucket, a bucket outside [m] (a bit above m), a part more or less than
    the request has, or an empty part are internal errors, even when each
    part serves x1 on its own."""
    sizes = c2_code.bucket_sizes
    x1_from = {ell: make_part(sizes, {ell: 1}, [((ell, 0), 1)]) for ell in (1, 2, 3)}
    x1_from[1, 2] = make_part(sizes, {1: 1, 2: 1}, [((1, 0), 1)])
    assert [x1_from[ell][0] for ell in (1, 2, 3)] == [0b1, 0b10, 0b100] and x1_from[1, 2][0] == 0b11
    outside = (0b100001,) + x1_from[1][1:]  # buckets 1 and 6 of 5
    empty = (0, (), ())
    plan = plan_from_parts(c2_code, (1, 1), [x1_from[1], x1_from[2]])
    assert certify_plan(c2_code, (1, 1), plan)
    for parts in (
        [x1_from[1], x1_from[1]],
        [x1_from[1, 2], x1_from[2]],
        [outside, x1_from[2]],
        [x1_from[1]],
        [x1_from[1], x1_from[2], x1_from[3]],
        [empty, x1_from[2]],
    ):
        with pytest.raises(AssertionError, match="internal: parts do not partition"):
            plan_from_parts(c2_code, (1, 1), parts)


def test_a_wrong_explicit_plan_is_refused(c2_code):
    plan = find_plan(c2_code, (1, 2, 3, 4))
    assert serve_batch(c2_code, (1, 0, 1, 1), (1, 2, 3, 4), plan=plan).recovered == (1, 0, 1, 1)
    responses = list(plan.responses)
    ell0 = next(ell0 for ell0, resp in enumerate(responses) if any(resp))
    responses[ell0] = tuple(1 - r for r in responses[ell0])
    for wrong in (plan._replace(responses=tuple(responses)),
                  plan._replace(sets=(plan.sets[0] | plan.sets[1],) + plan.sets[1:])):
        for planner in ("exhaustive", "certified"):
            with pytest.raises(ValueError, match="plan failed certification"):
                serve_batch(c2_code, (1, 0, 1, 1), (1, 2, 3, 4), planner=planner, plan=wrong)


def _goodvec_t1():
    return good_vector_code(good_vector((1, 1))), {"family": "goodvec", "t": 1, "v": [1, 1]}


def _affine_q5():
    apc = random_bac(5, 2, 0.6, 0.7, 7)
    return apc.code, apc.provenance()


# (a fresh code and its provenance, a change to make in place, the message
# refusing it: `_provenance_key`'s, or for a well-formed provenance of
# another code the construction's)
PROVENANCE_CHANGES = {
    "t-True": (_goodvec_t1, lambda prov: prov.update(t=True), '"t" must be an integer, got True'),
    "v-True": (_goodvec_t1, lambda prov: prov["v"].__setitem__(1, True),
               'an entry of "v" must be an integer, got True'),
    "t-float": (_goodvec_t1, lambda prov: prov.update(t=1.0), '"t" must be an integer, got 1.0'),
    "extra-key": (_goodvec_t1, lambda prov: prov.update(extra=1),
                  "unexpected keys in goodvec provenance: ['extra']"),
    "missing-key": (_goodvec_t1, lambda prov: prov.pop("v"), "missing keys in goodvec provenance: ['v']"),
    "v-other": (_goodvec_t1, lambda prov: prov["v"].__setitem__(1, 2), "(1, 2) is not a good vector for t = 1"),
    "seed-float": (_affine_q5, lambda prov: prov.update(seed=7.0), '"seed" must be an integer, got 7.0'),
    "p1-True": (_affine_q5, lambda prov: prov.update(p1=True), '"p1" must be a number, got True'),
    "missing-rng": (_affine_q5, lambda prov: prov.pop("rng"), "missing keys in affine provenance: ['rng']"),
    "seed-other": (_affine_q5, lambda prov: prov.update(seed=8), "code does not match its affine provenance"),
}


@pytest.mark.parametrize("change", PROVENANCE_CHANGES)
def test_a_changed_provenance_is_refused_on_every_batch(monkeypatch, change):
    """A provenance is checked once while it is unchanged; one dict object
    changed in place between batches, even to a value `==` holds equal, is
    refused with today's message on every batch, after a valid batch with
    the same code as well; and a copy of the changed dict is refused too."""
    build, change, message = PROVENANCE_CHANGES[change]
    code, valid = build()  # a fresh code: no provenance kept on it
    checks = []
    real_key = sim_mod._provenance_key
    monkeypatch.setattr(sim_mod, "_provenance_key", lambda prov: checks.append(1) or real_key(prov))
    data, req = (1,) * code.n, (1, 2)
    for _ in range(2):
        prov = copy.deepcopy(valid)
        serve_batch(code, data, req, "certified", provenance=prov)
        checks.clear()
        assert serve_batch(code, data, req, "certified", provenance=prov).recovered == (1, 1)
        assert checks == []  # unchanged since the batch before: not checked again
        change(prov)
        for changed in (prov, prov, copy.deepcopy(prov)):
            with pytest.raises(ValueError, match=re.escape(message)):
                serve_batch(code, data, req, "certified", provenance=changed)
        assert len(checks) == 3


@st.composite
def explicit_batches(draw):
    """A small code over F_2, F_3 or F_5, a request it serves in one of the
    two response regimes, the plan `find_plan` finds with every response
    entry shifted by -p, 0 or +p (unreduced and negative entries that still
    certify), and data with negative and unreduced entries."""
    p = draw(st.sampled_from([2, 3, 5]))
    model = draw(st.sampled_from([LIN, PROJ]))
    n = draw(st.integers(1, 4))
    unit = st.integers(0, n - 1).map(lambda d: tuple(int(e == d) for e in range(n)))
    column = st.one_of(unit, st.tuples(*[st.integers(0, p - 1)] * n))
    bucket = st.lists(column, min_size=1, max_size=3).map(tuple)
    buckets = draw(st.lists(bucket, min_size=1, max_size=5))
    code = CodeSpec(PrimeField(p), n, tuple(buckets))
    k = draw(st.integers(1, min(code.m, 3)))
    req = draw(st.lists(st.integers(1, n), min_size=k, max_size=k))
    plan = find_plan(code, req, model)
    assume(plan is not None)
    shift = st.integers(-1, 1)
    responses = tuple(tuple(r + p * draw(shift) for r in resp) for resp in plan.responses)
    data = draw(st.lists(st.integers(-3 * p, 3 * p), min_size=n, max_size=n))
    return code, model, req, plan._replace(responses=responses), data


@functools.lru_cache(maxsize=None)
def _planner_code(family: str, p: int):
    """(code, provenance, public planner (code, request, model) -> plan or
    None, batch size) for the small codes with a certified planner, each
    built once for the module."""
    field = PrimeField(p)
    if family == "cyclic":
        params = (12, 6, 8) if p == 3 else (4, 4, 5)
        code = cyclic_shift_code(*params, field)
        plan = functools.partial(cyclic_certified_plan, cyclic_params(*params), code)
        return code, dict(zip(("family", "n", "k", "m"), ("cyclic", *params))), plan, params[1]
    if family == "goodvec":
        v = good_vector_2t1(2) if p == 5 else good_vector((1, 1))
        code = good_vector_code(v, field)
        plan = functools.partial(goodvec_certified_plan, v, code)
        return code, {"family": "goodvec", "t": v.t, "v": list(v.entries)}, plan, 3
    apc = random_bac(5, 2, 0.6, 0.7, 7)
    return apc.code, apc.provenance(), functools.partial(greedy_plan, apc), 2


@st.composite
def planner_batches(draw):
    """A certified or exhaustive batch on a small planner code over F_2, F_3
    or F_5 in a drawn regime, with data that has negative and unreduced
    entries, and the public planner's plan for it (None if it finds none)."""
    family = draw(st.sampled_from(["cyclic", "goodvec", "affine"]))
    p = 2 if family == "affine" else draw(st.sampled_from([2, 3, 5]))
    code, prov, public_plan, k = _planner_code(family, p)
    model, planner = draw(st.sampled_from([LIN, PROJ])), draw(st.sampled_from(["certified", "exhaustive"]))
    req = tuple(draw(st.lists(st.integers(1, code.n), min_size=k, max_size=k)))
    data = draw(st.lists(st.integers(-3 * p, 3 * p), min_size=code.n, max_size=code.n))
    plan = public_plan(req) if planner == "certified" else find_plan(code, req, model)
    return code, prov, model, planner, req, data, plan


@given(planner_batches())
@settings(max_examples=200, deadline=None)
def test_planner_node_answers_match_dense_reference(case):
    """A planner batch answers what the public planner's plan asks of each
    node, on the dense codeword, and reads the symbols its answers weigh;
    it is refused exactly when there is no plan, or in the projection regime
    when the plan does not certify there."""
    code, prov, model, planner, req, data, plan = case
    if plan is None or not certify_plan(code, req, plan, model):
        with pytest.raises(ValueError):
            serve_batch(code, data, req, planner, model, provenance=prov)
        return
    _assert_dense_answers(code, data, serve_batch(code, data, req, planner, model, provenance=prov), plan)


def _assert_dense_answers(code, data, rep, plan):
    """Each node answered its plan response applied to its dense encoded
    symbols, read the symbols the response weighs, and every symbol came
    back, each node answering once."""
    p = code.field.p
    word = reference_encode(code, data)
    assert rep.node_responses == tuple(
        dot(values, resp, code.field) for values, resp in zip(word.values, plan.responses)
    )
    assert rep.symbols_read == tuple(sum(1 for r in resp if r % p) for resp in plan.responses)
    assert rep.recovered == tuple(data[i - 1] % p for i in rep.request)
    assert rep.response_counts == (1,) * code.m


@given(explicit_batches())
@settings(max_examples=200, deadline=None)
def test_node_answers_match_dense_reference(case):
    code, model, req, plan, data = case
    _assert_dense_answers(code, data, serve_batch(code, data, req, model=model, plan=plan), plan)
