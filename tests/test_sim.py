import itertools

import pytest

import bacforge.affine as affine_mod
from bacforge import (
    ResponseModel,
    certify_plan,
    code_from_json,
    code_to_json,
    compare_models,
    find_plan,
    greedy_plan,
    load_stats,
    random_bac,
    serve_batch,
    total_length,
)

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
