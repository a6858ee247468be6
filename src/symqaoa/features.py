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


def exact_features(g: Graph) -> tuple[float, int, float]:
    """(ln|Aut|, orbit count, entropy) of one graph."""
    grp = automorphism_generators(g)
    orbits = vertex_orbits(grp)
    # math.log takes ints of any size, so orders beyond float64 are fine
    return math.log(grp.order()), len(orbits), graph_entropy(orbits, g.n)


# A graph with more two-edge deletion pairs than this averages over a seeded
# sample of this many of them.
MAX_PAIRS = 2000


def samples_pairs(g: Graph) -> bool:
    """Whether g's two-edge deletion features average over a sample of pairs."""
    return math.comb(g.m, 2) > MAX_PAIRS


def _deletion_pairs(g: Graph, seed: int | None):
    pairs = list(itertools.combinations(range(g.m), 2))
    if samples_pairs(g):
        if seed is None:
            raise InvalidParamsError(f"sampling {MAX_PAIRS} of {len(pairs)} pairs needs a seed")
        rng = np.random.default_rng(seed)
        keep = rng.choice(len(pairs), size=MAX_PAIRS, replace=False)
        pairs = [pairs[i] for i in sorted(keep)]
    return pairs


def approx_features(g: Graph, depth: int, seed: int | None = None) -> tuple[float, float, float]:
    """Mean of exact_features over all depth-edge deletions of g.

    depth 1 averages over |E| single deletions, depth 2 over C(|E|,2) pairs,
    or over a sample of MAX_PAIRS of them drawn with seed when there are more.
    Deletions that disconnect the graph are kept as-is.
    """
    if depth not in (1, 2):
        raise InvalidParamsError(f"deletion depth must be 1 or 2, got {depth}")
    if g.m < depth:
        raise InvalidParamsError(f"need at least {depth} edges, got {g.m}")
    if depth == 1:
        variants = [[e] for e in g.edges]
    else:
        variants = [[g.edges[i], g.edges[j]] for i, j in _deletion_pairs(g, seed)]
    total = np.zeros(3)
    for removed in variants:
        total += exact_features(g.delete_edges(removed))
    mean = total / len(variants)
    return float(mean[0]), float(mean[1]), float(mean[2])


def feature_vector(g: Graph, seed: int | None = None) -> SymmetryFeatures:
    """All ten symmetry features of a graph with at least two edges. The seed
    draws the two-edge pair sample of a graph that samples_pairs; other graphs
    ignore it."""
    if g.m < 2:
        raise InvalidParamsError(f"feature vector needs at least 2 edges, got {g.m}")
    log_aut, n_orbits, entropy = exact_features(g)
    a1 = approx_features(g, 1)
    a2 = approx_features(g, 2, seed)
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
