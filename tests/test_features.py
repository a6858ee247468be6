"""Symmetry feature tests against hand-computed closed forms."""

import math
import random

import pytest

from symqaoa import features
from symqaoa.errors import InvalidParamsError
from symqaoa.features import (
    FEATURE_NAMES,
    approx_features,
    exact_features,
    feature_vector,
    graph_entropy,
)
from symqaoa.graphs import Graph, complete, cycle, named, star, trivial_aut_graph

LN2 = math.log(2)


def test_graph_entropy_values():
    assert graph_entropy([[0], [1], [2]], 3) == 0.0
    assert graph_entropy([[0, 1, 2, 3]], 4) == pytest.approx(math.log(4), abs=1e-15)
    # [[2 orbit], [2 orbit], [singleton]] on 5 vertices
    got = graph_entropy([[0, 1], [2, 3], [4]], 5)
    assert got == pytest.approx(4 * LN2 / 5, abs=1e-15)


def test_exact_features_small():
    assert exact_features(complete(4)) == pytest.approx(
        (math.log(24), 1, math.log(4)), abs=1e-12
    )
    assert exact_features(cycle(5)) == pytest.approx(
        (math.log(10), 1, math.log(5)), abs=1e-12
    )
    # star on 7 vertices: hub fixed, 6 leaves interchangeable
    log_aut, orbits, ent = exact_features(star(7))
    assert log_aut == pytest.approx(math.log(720), abs=1e-12)
    assert orbits == 2
    assert ent == pytest.approx(6 * math.log(6) / 7, abs=1e-12)


def test_exact_features_k20():
    log_aut, orbits, ent = exact_features(complete(20))
    assert log_aut == pytest.approx(math.log(math.factorial(20)), abs=1e-9)
    assert orbits == 1
    assert ent == pytest.approx(math.log(20), abs=1e-12)


def test_k4_deletion_averages():
    # one deletion leaves Aut = Z2 x Z2 (order 4) with orbits {u,v} and the rest
    a1 = approx_features(complete(4), 1)
    assert a1[0] == pytest.approx(math.log(4), abs=1e-12)
    assert a1[1] == pytest.approx(2.0, abs=1e-12)
    assert a1[2] == pytest.approx(LN2, abs=1e-12)
    # 15 pairs: 3 disjoint (leave C4, order 8) + 12 sharing a vertex (order 2)
    a2 = approx_features(complete(4), 2)
    assert a2[0] == pytest.approx((3 * math.log(8) + 12 * LN2) / 15, abs=1e-12)
    assert a2[1] == pytest.approx((3 * 1 + 12 * 3) / 15, abs=1e-12)
    assert a2[2] == pytest.approx((3 * math.log(4) + 12 * LN2 / 2) / 15, abs=1e-12)


def test_c5_deletion_averages():
    a1 = approx_features(cycle(5), 1)
    assert a1[0] == pytest.approx(LN2, abs=1e-12)
    assert a1[1] == pytest.approx(3.0, abs=1e-12)
    assert a1[2] == pytest.approx(4 * LN2 / 5, abs=1e-12)
    # 5 adjacent pairs -> P4 + isolated (order 2); 5 disjoint -> P2 + P3 (order 4)
    a2 = approx_features(cycle(5), 2)
    assert a2[0] == pytest.approx(1.5 * LN2, abs=1e-12)
    assert a2[1] == pytest.approx(3.0, abs=1e-12)
    assert a2[2] == pytest.approx(4 * LN2 / 5, abs=1e-12)


@pytest.mark.parametrize("n", [4, 7, 12, 20])
def test_cycle_one_edge_log_aut(n):
    # removing any edge of C_n leaves a path, whose only symmetry is the flip
    avg_log, _, _ = approx_features(cycle(n), 1)
    assert avg_log == pytest.approx(LN2, abs=1e-12)


def test_triangle_one_edge():
    avg_log, orbits, ent = approx_features(complete(3), 1)
    assert avg_log == pytest.approx(LN2, abs=1e-12)
    assert orbits == pytest.approx(2.0, abs=1e-12)


def test_trivial_graph_log_features_vanish():
    g = trivial_aut_graph(12, 3, seed=2)
    fv = feature_vector(g, seed=9)
    assert fv.log_aut == 0.0
    assert fv.entropy == 0.0
    assert fv.n_orbits == 12
    assert fv.n_vertices == 12


def test_feature_vector_fields_match_parts():
    g = star(6)
    fv = feature_vector(g)
    exact = exact_features(g)
    a1 = approx_features(g, 1)
    a2 = approx_features(g, 2)
    assert fv.log_aut == exact[0]
    assert fv.n_orbits == exact[1]
    assert fv.entropy == exact[2]
    assert (fv.avg_log_aut_1, fv.avg_orbits_1, fv.avg_entropy_1) == a1
    assert (fv.avg_log_aut_2, fv.avg_orbits_2, fv.avg_entropy_2) == a2
    assert fv.n_vertices == 6
    arr = fv.as_array()
    assert arr.shape == (10,)
    assert list(arr) == [getattr(fv, name) for name in FEATURE_NAMES]


def test_relabel_invariance():
    rng = random.Random(31)
    base = named("petersen")
    for _ in range(5):
        relab = list(range(base.n))
        rng.shuffle(relab)
        edges = [(relab[u], relab[v]) for u, v in base.edges]
        fv_a = feature_vector(base)
        fv_b = feature_vector(Graph.from_edges(base.n, edges))
        assert fv_a.as_array() == pytest.approx(fv_b.as_array(), abs=1e-10)


def test_subsampled_pairs_reproducible(monkeypatch):
    g = named("petersen")  # C(15,2) = 105 pairs
    full = approx_features(g, 2)
    monkeypatch.setattr(features, "MAX_PAIRS", 40)
    first = approx_features(g, 2, seed=5)
    again = approx_features(g, 2, seed=5)
    assert first == again
    other = approx_features(g, 2, seed=6)
    assert other != first
    # a cap at or above the pair count must not subsample at all
    monkeypatch.setattr(features, "MAX_PAIRS", 105)
    assert approx_features(g, 2, seed=1) == full


def test_subsample_requires_seed(monkeypatch):
    # K14 has C(91, 2) = 4,095 two-edge pairs, above the real cap; K11 has 1,485
    assert features.samples_pairs(complete(14)) and not features.samples_pairs(complete(11))

    def no_deletions(h):
        raise AssertionError("a deletion was computed before the seed check")

    monkeypatch.setattr(features, "exact_features", no_deletions)
    for g, cap in ((complete(14), features.MAX_PAIRS), (named("petersen"), 40)):
        monkeypatch.setattr(features, "MAX_PAIRS", cap)
        with pytest.raises(InvalidParamsError, match="needs a seed"):
            approx_features(g, 2)


def test_feature_vector_needs_two_edges():
    one_edge = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(InvalidParamsError):
        feature_vector(one_edge)
    with pytest.raises(InvalidParamsError):
        approx_features(one_edge, 2)
    with pytest.raises(InvalidParamsError):
        approx_features(complete(4), 3)
