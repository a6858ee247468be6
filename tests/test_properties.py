"""Property tests: the vectorised Burnside tally and the block enumerator
against the one-element-at-a-time oracles, on random generator sets and on
the automorphism groups of random graphs, n <= 8, with the flip on and off."""

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from symqaoa.autgroup import PermGroup, automorphism_generators, iter_elements
from symqaoa.graphs import Graph
from symqaoa.reduced import BitstringGroup, quotient_dimension

N_MAX = 8
# oracles.burnside_count walks every bitstring of every element in Python
BRUTE_BURNSIDE_STEPS = 1 << 16


@st.composite
def generator_sets(draw):
    n = draw(st.integers(1, N_MAX))
    gens = draw(st.lists(st.permutations(range(n)), max_size=3))
    return PermGroup(n, tuple(gens))


@st.composite
def graph_groups(draw):
    n = draw(st.integers(1, N_MAX))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return automorphism_generators(Graph.from_edges(n, edges))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(grp=st.one_of(generator_sets(), graph_groups()), flip=st.booleans())
def test_burnside_tally_matches_oracles(grp, flip):
    elements = oracles.chain_product_elements(grp)
    assert list(iter_elements(grp)) == elements
    q = quotient_dimension(BitstringGroup(grp.n, grp, flip))
    assert q.fixed_counts == oracles.burnside_fixed_counts(grp, flip)
    if len(elements) << grp.n <= BRUTE_BURNSIDE_STEPS:
        assert q.burnside_avg == oracles.burnside_count(grp.n, elements, flip)
