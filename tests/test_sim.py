import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import bacforge.affine as affine_mod
import bacforge.sim as sim_mod
import bacforge.verify as verify_mod
from bacforge import (
    CodeSpec,
    ResponseModel,
    certify_plan,
    code_from_json,
    code_to_json,
    compare_models,
    cyclic_shift_code,
    encode,
    find_plan,
    greedy_plan,
    load_stats,
    random_bac,
    serve_batch,
    total_length,
)
from bacforge.field import PrimeField
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
    assert stats.per_node_responses == (35, 35, 35, 35, 35)
    assert stats.max_load == 35 and stats.mean_load == 35.0


def test_load_stats_empty():
    stats = load_stats([])
    assert stats.batches == 0 and stats.max_load == 0


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


def _certified_families(c2_code, gv1_code):
    """(code, provenance, requests the certified planner serves) per family."""
    apc = random_bac(5, 2, 0.6, 0.7, 7)
    affine_reqs = [
        req for req in itertools.combinations_with_replacement(range(1, apc.code.n + 1), 2)
        if greedy_plan(apc, req) is not None
    ][:20]
    return [
        (c2_code, {"family": "cyclic", "n": 4, "k": 4, "m": 5},
         list(itertools.combinations_with_replacement(range(1, 5), 4))),
        (gv1_code, {"family": "goodvec", "t": 1, "v": [1, 1]},
         list(itertools.combinations_with_replacement(range(1, 6), 3))),
        (apc.code, apc.provenance(), affine_reqs),
    ]


@pytest.mark.parametrize("planner", ["exhaustive", "certified", "explicit"])
def test_serve_batch_certifies_each_plan_once(monkeypatch, c2_code, gv1_code, planner):
    calls = []
    real_certify = verify_mod.certify_plan

    def spy(*args, **kwargs):
        calls.append(real_certify(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(verify_mod, "certify_plan", spy)
    monkeypatch.setattr(sim_mod, "certify_plan", spy)
    served = 0
    for code, prov, requests in _certified_families(c2_code, gv1_code):
        data = tuple(i % 2 for i in range(code.n))
        for req in requests:
            plan = find_plan(code, req) if planner == "explicit" else None
            calls.clear()
            rep = serve_batch(code, data, req, planner=planner, plan=plan, provenance=prov)
            # certified exactly once, and the plan passed
            assert calls == [True]
            assert rep.recovered == tuple(data[i - 1] for i in rep.request)
            served += 1
    assert served > 50


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
    return code, model, req, dataclasses.replace(plan, responses=responses), data


@given(explicit_batches())
@settings(max_examples=200, deadline=None)
def test_node_answers_match_dense_reference(case):
    code, model, req, plan, data = case
    p = code.field.p
    word = reference_encode(code, data)
    rep = serve_batch(code, data, req, model=model, plan=plan)
    assert rep.node_responses == tuple(
        dot(values, resp, code.field) for values, resp in zip(word.values, plan.responses)
    )
    assert rep.symbols_read == tuple(sum(1 for r in resp if r % p) for resp in plan.responses)
    assert rep.recovered == tuple(data[i - 1] % p for i in rep.request)
    assert rep.response_counts == (1,) * code.m
