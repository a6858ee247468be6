"""Symmetry feature tests against hand-computed closed forms, the cached
dataset and the one-search-per-deletion oracle."""

import itertools
import math
import random

import pytest

import oracles
from acceptance_profile import DATASET_PATH
from symqaoa import features
from symqaoa.dataset import load_dataset
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

    def no_search(h):
        raise AssertionError("a group was searched before the seed check")

    monkeypatch.setattr(features, "automorphism_generators", no_search)
    for g, cap in ((complete(14), features.MAX_PAIRS), (named("petersen"), 40)):
        monkeypatch.setattr(features, "MAX_PAIRS", cap)
        with pytest.raises(InvalidParamsError, match="needs a seed"):
            approx_features(g, 2)
        with pytest.raises(InvalidParamsError, match="needs a seed"):
            feature_vector(g)


def test_pair_sample_unranks_the_listed_sample(monkeypatch):
    # the sampled ranks index the lexicographic list of all C(m, 2) pairs
    k14 = complete(14)
    for seed in (5, 6, 7):
        assert features._deletion_pairs(k14, seed) == oracles.deletion_pairs(
            k14.m, features.MAX_PAIRS, seed
        )
    petersen = named("petersen")
    monkeypatch.setattr(features, "MAX_PAIRS", 40)
    for seed in (5, 6):
        assert features._deletion_pairs(petersen, seed) == oracles.deletion_pairs(15, 40, seed)


def cached_records():
    return {rec.id: rec for rec in load_dataset(DATASET_PATH)}


@pytest.mark.parametrize(
    "iid, searches",
    [
        ("complete-n9", 4),  # G, one edge orbit, adjacent and disjoint pairs
        ("star-n14", 3),
        ("hand-picked-heawood", 5),
        ("wheel-n13", 21),
        ("trivial-aut-k3-n12-s701", 1 + 18 + 153),  # every deletion its own orbit
    ],
)
def test_one_search_per_orbit_of_deletions(monkeypatch, iid, searches):
    rec = cached_records()[iid]
    calls = []
    search = features.automorphism_generators

    def counting(h):
        calls.append(h)
        return search(h)

    monkeypatch.setattr(features, "automorphism_generators", counting)
    feature_vector(rec.graph(), rec.feature_seed)
    assert len(calls) == searches


def test_cached_feature_vectors_recompute_exactly():
    records = cached_records()
    assert len(records) == 130
    for iid, rec in records.items():
        fv = feature_vector(rec.graph(), rec.feature_seed)
        assert tuple(float(v) for v in fv.as_array()) == rec.features, iid


# Graphs in which two deletions of one orbit of Aut(G) list the same orbit
# sizes in different orders (such as 2, 2, 2, 3), so that their entropies
# differ in the last bit; the shared search must keep each deletion's order.
ORDER_SENSITIVE = [
    (11, [(0, 6), (1, 10), (2, 5), (2, 10), (3, 5), (3, 10), (4, 6), (5, 7)]),
    (10, [(0, 5), (1, 8), (1, 9), (2, 6), (4, 7), (6, 8), (7, 9)]),
    (10, [(0, 3), (0, 4), (1, 4), (1, 7), (2, 3), (3, 5), (3, 7), (4, 8), (4, 9)]),
    (10, [(0, 4), (0, 5), (0, 7), (0, 8), (1, 6), (2, 5), (2, 9), (3, 6), (4, 5), (4, 7),
          (4, 8), (5, 7), (5, 8), (7, 8)]),
]


@pytest.mark.parametrize("n, edges", ORDER_SENSITIVE)
def test_orbit_images_keep_each_deletions_summation_order(n, edges):
    g = Graph.from_edges(n, edges)
    entropies = {exact_features(g.delete_edges(list(s)))[2]
                 for depth in (1, 2) for s in itertools.combinations(g.edges, depth)}
    assert any(0 < abs(a - b) < 1e-12 for a in entropies for b in entropies)
    rng = random.Random(11)
    for _ in range(4):
        for depth in (1, 2):
            want = oracles.deletion_average_each(g, depth, None, features.MAX_PAIRS, exact_features)
            assert approx_features(g, depth) == want
        relab = list(range(n))
        rng.shuffle(relab)
        g = Graph.from_edges(n, [(relab[u], relab[v]) for u, v in edges])


def test_feature_vector_needs_two_edges():
    one_edge = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(InvalidParamsError):
        feature_vector(one_edge)
    with pytest.raises(InvalidParamsError):
        approx_features(one_edge, 2)
    with pytest.raises(InvalidParamsError):
        approx_features(complete(4), 3)
