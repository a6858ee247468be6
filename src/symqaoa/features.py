"""Symmetry measures of a graph and their edge-deletion-averaged relaxations.

A vertex permutation that fails to be an automorphism of G may still be one of
G with an edge or two removed, so averaging the exact measures over deleted
variants grades symmetry continuously instead of all-or-nothing.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from .autgroup import automorphism_generators, vertex_orbits
from .errors import InvalidParamsError
from .graphs import Graph


def _sign(expected: int):
    """A field whose feature should correlate with the minimum depth with the
    sign of expected."""
    return dataclasses.field(metadata={"sign": expected})


@dataclasses.dataclass(frozen=True)
class SymmetryFeatures:
    """The ten features; their field order is FEATURE_NAMES and the array order.

    Highly symmetric instances need shallower circuits, so the symmetry
    magnitudes (log group orders, entropy) correlate negatively with the
    minimum depth while the orbit counts and the vertex count run positive.
    """

    log_aut: float = _sign(-1)
    avg_log_aut_1: float = _sign(-1)
    avg_log_aut_2: float = _sign(-1)
    n_vertices: int = _sign(1)
    n_orbits: int = _sign(1)
    avg_orbits_1: float = _sign(1)
    avg_orbits_2: float = _sign(1)
    entropy: float = _sign(-1)
    avg_entropy_1: float = _sign(-1)
    avg_entropy_2: float = _sign(-1)

    def as_array(self) -> np.ndarray:
        return np.array(dataclasses.astuple(self), dtype=np.float64)


FEATURE_NAMES = tuple(f.name for f in dataclasses.fields(SymmetryFeatures))
EXPECTED_SIGNS = {f.name: f.metadata["sign"] for f in dataclasses.fields(SymmetryFeatures)}


def graph_entropy(orbits: list[list[int]], n: int) -> float:
    """(1/n) * sum |A_i| ln |A_i| over the orbit partition; 0 iff all singletons,
    ln(n) iff a single orbit."""
    return sum(len(a) * math.log(len(a)) for a in orbits) / n


def _measures(g: Graph, grp) -> tuple[tuple[float, int, float], list[list[int]]]:
    """((ln|Aut|, orbit count, entropy), vertex orbits) of g, whose group is grp."""
    orbits = vertex_orbits(grp)
    # math.log takes ints of any size, so orders beyond float64 are fine
    return (math.log(grp.order()), len(orbits), graph_entropy(orbits, g.n)), orbits


def exact_features(g: Graph) -> tuple[float, int, float]:
    """(ln|Aut|, orbit count, entropy) of one graph."""
    return _measures(g, automorphism_generators(g))[0]


# A graph with more two-edge deletion pairs than this averages over a seeded
# sample of this many of them.
MAX_PAIRS = 2000


def samples_pairs(g: Graph) -> bool:
    """Whether g's two-edge deletion features average over a sample of pairs."""
    return math.comb(g.m, 2) > MAX_PAIRS


def _deletion_pairs(g: Graph, seed: int | None) -> list[tuple[int, int]]:
    """Edge-index pairs i < j in lexicographic order: all of them, or the
    sample of MAX_PAIRS that seed draws by rank among all C(m, 2)."""
    if not samples_pairs(g):
        return list(itertools.combinations(range(g.m), 2))
    if seed is None:
        raise InvalidParamsError(f"sampling {MAX_PAIRS} of {math.comb(g.m, 2)} pairs needs a seed")
    keep = np.random.default_rng(seed).choice(math.comb(g.m, 2), size=MAX_PAIRS, replace=False)
    pairs, i, start = [], 0, 0  # start: rank of (i, i + 1)
    for r in sorted(keep.tolist()):
        while r >= start + g.m - 1 - i:
            start += g.m - 1 - i
            i += 1
        pairs.append((i, i + 1 + r - start))
    return pairs


def _deletion_sets(g: Graph, depth: int, seed: int | None) -> list[tuple[int, ...]]:
    if depth not in (1, 2):
        raise InvalidParamsError(f"deletion depth must be 1 or 2, got {depth}")
    if g.m < depth:
        raise InvalidParamsError(f"need at least {depth} edges, got {g.m}")
    return [(i,) for i in range(g.m)] if depth == 1 else _deletion_pairs(g, seed)


def _deletion_average(g: Graph, gens, sets) -> tuple[float, float, float]:
    """Mean of the exact measures of g minus each edge-index set in sets, in
    that order; gens generate Aut(g).

    An automorphism s of g carries g - S onto g - s(S), so the sets of one
    orbit of Aut(g) share ln|Aut| and the orbit count, and their vertex
    orbits are the images of each other's. Only the first set met in each
    orbit is searched. The walk over its orbit stores, for each set reached,
    the searched set's measures and the automorphism sigma from the searched
    set to it: the identity for the searched set, and g_k composed after the
    parent's sigma when generator g_k first reaches a set. The entropy sums
    over the sigma-images of the searched set's orbits, ordered by smallest
    member as vertex_orbits lists them, so every term, and so the mean, is
    what searching each set would give.
    """
    index = {e: k for k, e in enumerate(g.edges)}
    acts = [
        [index[(s[u], s[v]) if s[u] < s[v] else (s[v], s[u])] for u, v in g.edges] for s in gens
    ]
    # sigma as n bytes: sigma.translate(table) is table composed after sigma
    tables = [bytes(s) + bytes(range(g.n, 256)) for s in gens]
    reached = {}  # set -> (measures of the searched set of its orbit, sigma)
    total = np.zeros(3)
    for deleted in sets:
        if deleted not in reached:
            h = g.delete_edges([g.edges[k] for k in deleted])
            reached[deleted] = (_measures(h, automorphism_generators(h)), bytes(range(g.n)))
            walk = [deleted]
            for x in walk:
                measures, sigma = reached[x]
                for act, table in zip(acts, tables):
                    y = tuple(sorted(act[e] for e in x))
                    if y not in reached:
                        reached[y] = (measures, sigma.translate(table))
                        walk.append(y)
        ((log_aut, n_orbits, _), orbits), sigma = reached[deleted]
        images = sorted(orbits, key=lambda a: min(sigma[v] for v in a))
        total += (log_aut, n_orbits, graph_entropy(images, g.n))
    mean = total / len(sets)
    return float(mean[0]), float(mean[1]), float(mean[2])


def approx_features(g: Graph, depth: int, seed: int | None = None) -> tuple[float, float, float]:
    """Mean of exact_features over all depth-edge deletions of g.

    depth 1 averages over |E| single deletions, depth 2 over C(|E|,2) pairs,
    or over a sample of MAX_PAIRS of them drawn with seed when there are more.
    Deletions that disconnect the graph are kept as-is. Deletions that an
    automorphism of g carries onto each other share one search.
    """
    sets = _deletion_sets(g, depth, seed)
    return _deletion_average(g, automorphism_generators(g).generators, sets)


def feature_vector(g: Graph, seed: int | None = None) -> SymmetryFeatures:
    """All ten symmetry features of a graph with at least two edges. The seed
    draws the two-edge pair sample of a graph that samples_pairs; other graphs
    ignore it."""
    if g.m < 2:
        raise InvalidParamsError(f"feature vector needs at least 2 edges, got {g.m}")
    pairs = _deletion_sets(g, 2, seed)  # a missing seed raises before any search
    grp = automorphism_generators(g)
    (log_aut, n_orbits, entropy), _ = _measures(g, grp)
    a1 = _deletion_average(g, grp.generators, _deletion_sets(g, 1, None))
    a2 = _deletion_average(g, grp.generators, pairs)
    return SymmetryFeatures(
        log_aut=log_aut,
        avg_log_aut_1=a1[0],
        avg_log_aut_2=a2[0],
        n_vertices=g.n,
        n_orbits=n_orbits,
        avg_orbits_1=a1[1],
        avg_orbits_2=a2[1],
        entropy=entropy,
        avg_entropy_1=a1[2],
        avg_entropy_2=a2[2],
    )
