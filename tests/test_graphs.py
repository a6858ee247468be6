"""Graph construction, generators, and edge-list serialization."""

import hashlib

import numpy as np
import pytest

import oracles
from symqaoa.autgroup import automorphism_generators
from symqaoa.errors import InvalidParamsError, ParseError
from symqaoa.graphs import (
    FAMILY_NAMES,
    NAMED_GRAPHS,
    Graph,
    GraphFamily,
    antiprism,
    circular_ladder,
    complete,
    cycle,
    format_edge_list,
    generate,
    grid2d,
    is_connected,
    ladder,
    named,
    parse_edge_list,
    random_regular,
    read_edge_list,
    star,
    trivial_aut_graph,
    wheel,
    write_edge_list,
)


def test_from_edges_canonicalizes():
    g = Graph.from_edges(4, [(2, 1), (1, 2), (3, 0)])
    assert g.edges == ((0, 3), (1, 2))
    assert g.m == 2


def test_from_edges_rejects_bad_input():
    with pytest.raises(InvalidParamsError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(InvalidParamsError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(InvalidParamsError):
        Graph.from_edges(0, [])


def test_adjacency_and_degrees():
    g = star(5)
    adj = g.adjacency()
    assert adj[0] == {1, 2, 3, 4}
    assert adj[3] == {0}
    assert g.degrees() == [4, 1, 1, 1, 1]


def test_delete_edges_keeps_vertex_count():
    g = cycle(5)
    h = g.delete_edges([(0, 1), (3, 2)])
    assert h.n == 5
    assert h.m == 3
    assert (0, 1) not in h.edges and (2, 3) not in h.edges


def test_family_sizes():
    assert complete(6).m == 15
    assert cycle(7).m == 7
    assert star(9).m == 8
    assert wheel(6).m == 10  # rim 5 + spokes 5
    for k in range(2, 41):
        assert ladder(k) == grid2d(2, k)
    for k in range(3, 41):
        g = circular_ladder(k)
        assert (g.n, list(g.edges)) == oracles.circular_ladder_edges(k)
    assert circular_ladder(4).m == 12
    with pytest.raises(InvalidParamsError, match="^ladder needs k >= 2$"):
        ladder(1)
    with pytest.raises(InvalidParamsError, match="^circular ladder needs k >= 3$"):
        circular_ladder(2)
    assert antiprism(4).m == 16
    assert grid2d(3, 3).m == 12
    assert grid2d(3, 3, periodic=True).m == 18


def test_grid_periodic_needs_three_per_wrapped_side():
    with pytest.raises(InvalidParamsError):
        grid2d(2, 4, periodic=True)


def test_degree_regularity():
    for k in (3, 4):
        g = random_regular(10, k, seed=1)
        assert g.degrees() == [k] * 10
        assert is_connected(g)
    assert antiprism(5).degrees() == [4] * 10
    assert circular_ladder(5).degrees() == [3] * 10


def test_random_regular_deterministic_per_seed():
    a = random_regular(12, 3, seed=9)
    b = random_regular(12, 3, seed=9)
    c = random_regular(12, 3, seed=10)
    assert a == b
    assert a != c


def test_random_regular_rejects_impossible():
    with pytest.raises(InvalidParamsError):
        random_regular(5, 3, seed=0)  # odd n * k
    with pytest.raises(InvalidParamsError):
        random_regular(4, 4, seed=0)  # k >= n


def test_trivial_aut_graph_has_no_symmetry():
    from symqaoa.autgroup import automorphism_generators

    g = trivial_aut_graph(12, 3, seed=2)
    assert g.degrees() == [3] * 12
    assert automorphism_generators(g).generators == ()


@pytest.mark.parametrize("n, k", [(8, 2), (60, 2), (10, 7), (12, 9), (12, 1)])
def test_trivial_aut_graph_refuses_symmetric_degrees(n, k, monkeypatch):
    # no such graph is asymmetric, so none is drawn or searched
    import symqaoa.autgroup
    import symqaoa.graphs

    def never(*args):
        raise AssertionError("called")

    monkeypatch.setattr(symqaoa.autgroup, "automorphism_generators", never)
    monkeypatch.setattr(symqaoa.graphs, "random_regular", never)
    with pytest.raises(InvalidParamsError, match="complement has degree <= 2 unless 3 <= k <= n - 4"):
        trivial_aut_graph(n, k, seed=1)


# name: sha256 of the edge-list text, n, m, degree, |Aut|
NAMED_EXPECTED = {
    "petersen": ("25a2dadb66f6ddf696a3e28cae69e683d4617c0fa86e3fae11a0b9ffc4db89be", 10, 15, 3, 120),
    "heawood": ("9b5e6a9b0ab830dd2f3637bfc9ad23ca476f5f7a4b38d8844cd9458eb5b95d78", 14, 21, 3, 336),
    "mobius-kantor": ("f52e0ba95655f31467c464ac4a26ffc6ce92fec3e480b40988110da0258821ae", 16, 24, 3, 96),
    "pappus": ("d7163f7d92cc261e1f3ac1c51cb1aea5aff22af036e02533c2bb2dfe95112365", 18, 27, 3, 216),
    "desargues": ("adc0ded6b40878db2877a1076391a7d5752bb71b39e64911cc1ffaaba7deaf2d", 20, 30, 3, 240),
    "dodecahedron": ("328d3b8b38be1b5275d6b2f257d627e39f94a7f018d9336a3e744538426b3718", 20, 30, 3, 120),
    "icosahedron": ("02072d8c4f9184837f2a67cd36adeeab249bcd9f386f4797af85921c74f3f436", 12, 30, 5, 120),
}


def test_named_graphs():
    # the order is gen-graphs --name's list of choices
    assert NAMED_GRAPHS == tuple(NAMED_EXPECTED)
    for name, (digest, n, m, degree, order) in NAMED_EXPECTED.items():
        g = named(name)
        # pinned byte for byte: cached records and model inputs depend on these edge lists
        assert hashlib.sha256(format_edge_list(g).encode()).hexdigest() == digest, name
        assert (g.n, g.m) == (n, m), name
        assert g.degrees() == [degree] * n, name
        assert is_connected(g), name
        assert automorphism_generators(g).order() == order, name
    with pytest.raises(InvalidParamsError) as info:
        named("nope")
    assert str(info.value) == f"unknown named graph 'nope'; choices: {NAMED_GRAPHS}"


def test_generate_dispatch():
    cases = [
        (GraphFamily("complete", {"n": 5}), complete(5)),
        (GraphFamily("cycle", {"n": 6}), cycle(6)),
        (GraphFamily("star", {"n": 5}), star(5)),
        (GraphFamily("wheel", {"n": 7}), wheel(7)),
        (GraphFamily("ladder", {"k": 4}), ladder(4)),
        (GraphFamily("circular-ladder", {"k": 5}), circular_ladder(5)),
        (GraphFamily("antiprism", {"k": 4}), antiprism(4)),
        (GraphFamily("grid2d", {"rows": 2, "cols": 4}), grid2d(2, 4)),
        (GraphFamily("grid2d", {"rows": 3, "cols": 4, "periodic": True}), grid2d(3, 4, True)),
        (GraphFamily("random-regular", {"n": 8, "k": 3}, seed=4), random_regular(8, 3, seed=4)),
        (GraphFamily("trivial-aut", {"n": 12}, seed=700), trivial_aut_graph(12, 3, seed=700)),
        (GraphFamily("hand-picked", {"graph": "petersen"}), named("petersen")),
    ]
    for fam, want in cases:
        assert generate(fam) == want, fam
    assert sorted({fam.name for fam, _ in cases}) == sorted(FAMILY_NAMES)
    assert grid2d(3, 4, True).m == 24 and grid2d(3, 4).m == 17
    errors = [
        (GraphFamily("ladder", {"n": 4}), "family 'ladder' missing parameter 'k'"),
        (GraphFamily("grid2d", {"rows": 2}), "family 'grid2d' missing parameter 'cols'"),
        (GraphFamily("trivial-aut", {"n": 12}), "family 'trivial-aut' requires a seed"),
        (GraphFamily("bogus", {}), f"unknown family 'bogus'; choices: {FAMILY_NAMES}"),
    ]
    for fam, message in errors:
        with pytest.raises(InvalidParamsError) as info:
            generate(fam)
        assert str(info.value) == message


def test_generate_requires_seed_for_random_families():
    with pytest.raises(InvalidParamsError):
        generate(GraphFamily("random-regular", {"n": 8, "k": 3}))
    with pytest.raises(InvalidParamsError):
        generate(GraphFamily("bogus", {"n": 3}))
    assert "complete" in FAMILY_NAMES


def test_edge_list_round_trip(tmp_path):
    g = named("petersen")
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    assert read_edge_list(path) == g
    text = format_edge_list(g)
    assert text.splitlines()[0] == "10"
    assert parse_edge_list(text) == g


def test_parse_edge_list_errors():
    with pytest.raises(ParseError):
        parse_edge_list("")
    with pytest.raises(ParseError):
        parse_edge_list("3\n0 1 2\n")
    with pytest.raises(ParseError):
        parse_edge_list("x\n0 1\n")


def test_random_graphs_connected_across_seeds():
    rng = np.random.default_rng(0)
    for _ in range(10):
        seed = int(rng.integers(0, 10000))
        g = random_regular(14, 3, seed=seed)
        assert is_connected(g)
        assert g.degrees() == [3] * 14
