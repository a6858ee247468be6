"""Property tests: the vectorised Burnside tally and the block enumerator
against the one-element-at-a-time oracles, on random generator sets and on
the automorphism groups of random graphs, n <= 8, with the flip on and off;
the cycle counts of random permutation blocks, n <= 20, against a plain
cycle walk; the searched group against a brute-force scan, n <= 6, and its
order against Schreier-Sims on the same generators, n <= 8; relabelling
invariance of the group order and the features; the orbit-shared
deletion averages against one search per deletion; the reduced engine
against the full one; the model-file, record-line and edge-list parsers
on damaged input, which they must reject with ParseError alone; the
schedule's layer angles against np.linspace, bit for bit; and the package's
Nelder-Mead against scipy's, point for point."""

import itertools
import json
import math
import random
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from acceptance_profile import DATASET_PATH
from symqaoa import features, optimize
from symqaoa.autgroup import (
    PermGroup,
    automorphism_generators,
    bitstring_orbits,
    cycle_counts,
    iter_element_blocks,
)
from symqaoa.cli import main
from symqaoa.dataset import parse_record
from symqaoa.errors import ParseError
from symqaoa.features import FEATURE_NAMES, approx_features, exact_features, feature_vector
from symqaoa.graphs import Graph, read_edge_list, trivial_aut_graph
from symqaoa.mlmodel import (
    PminPredictor,
    Standardizer,
    load_model,
    save_model,
    train_ordinal,
    train_regressor,
)
from symqaoa.reduced import (
    BitstringGroup,
    ReducedEngine,
    build_orbit_basis,
    quotient_dimension,
    reduce_operators,
)
from symqaoa.schedules import BETA_MAX, DEPTH_CAP, GAMMA_MAX, layer_angles
from symqaoa.simulator import Angles, Engine, maxcut_diagonal, orbit_spread

N_MAX = 8
# oracles.burnside_count walks every bitstring of every element in Python
BRUTE_BURNSIDE_STEPS = 1 << 16


@st.composite
def generator_sets(draw):
    n = draw(st.integers(1, N_MAX))
    gens = draw(st.lists(st.permutations(range(n)), max_size=3))
    base, strong = oracles.schreier_sims(n, gens)
    return PermGroup(n, strong, base)


@st.composite
def graphs(draw, n_max=N_MAX):
    n = draw(st.integers(1, n_max))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


def graph_groups():
    return graphs().map(automorphism_generators)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(grp=st.one_of(generator_sets(), graph_groups()), flip=st.booleans())
def test_burnside_tally_matches_oracles(grp, flip):
    elements = oracles.chain_product_elements(grp)
    assert list(oracles.element_tuples(iter_element_blocks(grp))) == elements
    q = quotient_dimension(BitstringGroup(grp, flip))
    assert q.fixed_counts.tolist() == list(oracles.burnside_fixed_counts(grp, flip))
    if len(elements) << grp.n <= BRUTE_BURNSIDE_STEPS:
        assert q.burnside_avg == oracles.burnside_count(grp.n, elements, flip)


@st.composite
def permutation_blocks(draw):
    n = draw(st.integers(1, 20))
    row = st.one_of(st.just(list(range(n))), st.permutations(range(n)))
    return np.array(draw(st.lists(row, min_size=1, max_size=64)), dtype=np.uint8)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(block=permutation_blocks(), squared=st.booleans())
@example(block=np.zeros((1, 1), dtype=np.uint8), squared=True)
@example(block=np.arange(20, dtype=np.uint8)[None, :], squared=True)
def test_cycle_counts_match_a_cycle_walk(block, squared):
    c, c2 = cycle_counts(block, squared)
    perms = block.tolist()
    assert c.tolist() == [len(oracles.cycle_lengths(p)) for p in perms]
    if squared:
        assert c2.tolist() == [len(oracles.cycle_lengths([p[x] for x in p])) for p in perms]
    else:
        assert c2 is None


@settings(derandomize=True, max_examples=40, deadline=None)
@given(g=graphs(n_max=6))
def test_generators_span_every_automorphism(g):
    grp = automorphism_generators(g)
    assert set(oracles.element_tuples(iter_element_blocks(grp))) == set(oracles.brute_automorphisms(g.n, g.edges))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(g=graphs(), data=st.data())
def test_search_base_order_matches_schreier_sims(g, data):
    # the search's own base and generators give the order that Schreier-Sims
    # finds from the same generators, on the graph and on a relabelling of it;
    # test_generators_span_every_automorphism checks the elements for n <= 6
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    for graph in (g, h):
        grp = automorphism_generators(graph)
        assert grp.order() == oracles.StabilizerChain(graph.n, grp.generators).order()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(g=graphs(), data=st.data())
def test_relabelling_keeps_group_order_and_features(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    assert automorphism_generators(h).order() == automorphism_generators(g).order()
    (log_g, orbits_g, entropy_g), (log_h, orbits_h, entropy_h) = exact_features(g), exact_features(h)
    assert (log_h, orbits_h) == (log_g, orbits_g)
    # entropy sums over the orbits in the order of their smallest labels
    assert entropy_h == pytest.approx(entropy_g, abs=1e-12)
    if g.m:
        assert approx_features(h, 1) == pytest.approx(approx_features(g, 1), abs=1e-12)


# cubic graphs on 12 vertices whose automorphism group is trivial
TRIVIAL_GROUP_GRAPHS = st.integers(0, 3).map(lambda seed: trivial_aut_graph(12, 3, seed=seed))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(g=st.one_of(graphs(), TRIVIAL_GROUP_GRAPHS), data=st.data())
def test_deletion_averages_match_one_search_per_deletion(g, data):
    # relabelled, and with the pair cap lowered so that a sample is drawn too
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    cap = data.draw(st.sampled_from([features.MAX_PAIRS, 30, 6]))
    seed = data.draw(st.integers(0, 2**32))
    with mock.patch.object(features, "MAX_PAIRS", cap):
        want = [
            oracles.deletion_average_each(h, depth, seed, cap, exact_features)
            for depth in (1, 2)
            if h.m >= depth
        ]
        assert [approx_features(h, depth, seed) for depth in (1, 2)[: len(want)]] == want
        if h.m >= 2:
            fv = feature_vector(h, seed)
            assert (fv.avg_log_aut_1, fv.avg_orbits_1, fv.avg_entropy_1) == want[0]
            assert (fv.avg_log_aut_2, fv.avg_orbits_2, fv.avg_entropy_2) == want[1]


ANGLES = st.lists(st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
                  min_size=1, max_size=3)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(g=graphs(), flip=st.booleans(), angles=ANGLES)
def test_reduced_engine_matches_full(g, flip, angles):
    betas, gammas = zip(*angles)
    diag = maxcut_diagonal(g)
    full = Engine(diag)
    reduced = ReducedEngine(reduce_operators(diag, build_orbit_basis(g, flip)))
    want = full.expectation(betas, gammas)
    assert reduced.expectation(betas, gammas) == pytest.approx(want, abs=1e-11)
    orbits = bitstring_orbits(BitstringGroup(automorphism_generators(g), True))
    assert max(orbit_spread(full.statevector(Angles(betas, gammas)), orbits)) <= 1e-12


EDGE_FILE = b"4\n0 1\n1 2  # a path\n2 3\n"


@st.composite
def damaged_edge_files(draw):
    data = bytearray(EDGE_FILE)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        data[at:at + draw(st.integers(0, 2))] = draw(st.binary(min_size=1, max_size=3))
    return bytes(data)


def test_damaged_edge_files_raise_parse_error(tmp_path_factory):
    path = tmp_path_factory.mktemp("edges") / "g.edges"
    path.write_bytes(EDGE_FILE)
    assert read_edge_list(path).edges == ((0, 1), (1, 2), (2, 3))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(raw=st.one_of(st.binary(max_size=40), damaged_edge_files()))
    def check(raw):
        path.write_bytes(raw)
        try:
            read_edge_list(path)
        except ParseError:
            pass

    check()


def saved_model_lines(tmp_dir) -> list[str]:
    """A small predictor over the ten features, saved and read back as lines."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(12, len(FEATURE_NAMES)))
    y = np.clip(np.round(5.0 + 2.0 * x[:, 0]), 2, 9)
    std = Standardizer.fit(x)
    z = std.apply(x)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ens = train_ordinal(z, y, 0.5, 0.01, cutoffs=(4, 5, 6, 7))
    pred = PminPredictor(std, train_regressor(z, y, 0.5, 0.01), ens, 0.5, 0.01)
    path = tmp_dir / "model.txt"
    save_model(pred, path)
    return path.read_text().splitlines()


@st.composite
def damaged_models(draw, lines):
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["delete", "truncate", "duplicate", "token"]))
    lines = list(lines)
    if how == "delete":
        del lines[i]
    elif how == "truncate":
        lines[i] = lines[i][: draw(st.integers(0, len(lines[i]) - 1))]
    elif how == "duplicate":
        lines.insert(i, lines[i])
    else:
        tokens = lines[i].split(" ")
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.text(max_size=12))
        lines[i] = " ".join(tokens)
    return how, "\n".join(lines) + "\n"


def test_damaged_model_files_raise_parse_error(tmp_path_factory):
    work = tmp_path_factory.mktemp("models")
    lines = saved_model_lines(work)
    path = work / "damaged.txt"
    feats = ",".join(["0.5"] * len(FEATURE_NAMES))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(damage=damaged_models(lines))
    def check(damage):
        how, text = damage
        path.write_text(text, encoding="utf-8")
        try:
            load_model(path)
        except ParseError:
            assert main(["predict", "--model", str(path), "--features", feats]) == 2
        else:
            # a lost or repeated line never passes; a shortened line or a new
            # token can still spell a valid number
            assert how in ("truncate", "token")
            assert main(["predict", "--model", str(path), "--features", feats]) == 0

    check()


def json_kind(value) -> str:
    if value is None or isinstance(value, (bool, str, list, dict)):
        return type(value).__name__
    return "number"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=11) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=12,
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_retyped_record_fields_raise_parse_error(data):
    with open(DATASET_PATH, encoding="utf-8") as fh:
        record = json.loads(fh.readline())  # complete-n3
    field = data.draw(st.sampled_from(sorted(record)))
    was = record[field]
    record[field] = data.draw(JSON_VALUES.filter(lambda v: json_kind(v) != json_kind(was)))
    try:
        parse_record(json.dumps(record))
    except ParseError:
        return
    # only a null field (graph_seed, feature_seed, seconds) takes another
    # type, a number
    assert was is None and json_kind(record[field]) == "number"


# box corners, signed zeros, subnormals (a step that underflows to zero takes
# numpy's other formula) and plain floats
ENDPOINTS = st.one_of(
    st.sampled_from([0.0, -0.0, BETA_MAX, GAMMA_MAX, 5e-324, -5e-324, 1e-310]),
    st.floats(-1e-300, 1e-300),
    st.floats(-10.0, 10.0),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    p=st.one_of(st.integers(2, 12), st.integers(2, DEPTH_CAP), st.just(DEPTH_CAP)),
    ends=st.lists(ENDPOINTS, min_size=4, max_size=4),
    equal=st.booleans(),
)
def test_layer_angles_match_linspace_bit_for_bit(p, ends, equal):
    if equal:
        ends[1], ends[3] = ends[0], ends[2]
    betas, gammas = layer_angles(p, np.array(ends))
    for got, (start, stop) in ((betas, ends[:2]), (gammas, ends[2:])):
        want = np.linspace(start, stop, p)
        # int64 views compare every bit, signs of zero included
        assert np.array_equal(np.array(got).view(np.int64), want.view(np.int64))


def test_layer_angles_at_the_box_corners():
    box = itertools.product((0.0, BETA_MAX), (0.0, BETA_MAX), (0.0, GAMMA_MAX), (0.0, GAMMA_MAX))
    for ends in box:
        for p in (2, 3, 7, DEPTH_CAP):
            betas, gammas = layer_angles(p, ends)
            for got, (start, stop) in ((betas, ends[:2]), (gammas, ends[2:])):
                want = np.linspace(start, stop, p)
                assert np.array_equal(np.array(got).view(np.int64), want.view(np.int64))


def _random_simplex(rng, upper, like_optimize_linear: bool) -> list:
    """optimize_linear's simplex around a random start, or any points, some
    outside the box and one -0.0."""
    if like_optimize_linear:
        x0 = [rng.random() * h for h in upper]
        simplex = [list(x0) for _ in range(5)]
        for j in range(4):
            simplex[j + 1][j] += 0.15 if x0[j] + 0.15 <= upper[j] else -0.15
    else:
        simplex = [[rng.uniform(-1.0, h + 1.0) for h in upper] for _ in range(5)]
        simplex[rng.randrange(5)][rng.randrange(4)] = -0.0
    return simplex


def _random_objective(rng, upper, digits):
    """A weighted quadratic plus a sine, rounded to digits when digits is an
    int; a pure function of x that is never nan."""
    centre = [rng.random() * h for h in upper]
    weight = [rng.uniform(0.1, 3.0) for _ in range(4)]
    freq = rng.uniform(0.0, 5.0)

    def fun(x):
        x = [float(v) for v in x]
        val = sum(w * (v - c) * (v - c) for w, v, c in zip(weight, x, centre))
        val += math.sin(freq * x[0] * x[2])
        return val if digits is None else round(val, digits)

    return fun


@st.composite
def nelder_mead_problems(draw):
    """A box, a simplex (optimize_linear's, or any points, some outside the
    box and one -0.0), and a maker of random objectives: smooth, rounded, or
    the k-th call's value drawn from {0, 1, 2}. Rounded and drawn values tie,
    which is where the order of np.argsort matters; drawn values also make
    maxfev cut many shrinks short."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    upper = [rng.uniform(0.5, 7.0) for _ in range(4)]
    simplex = _random_simplex(rng, upper, draw(st.booleans()))
    kind = draw(st.sampled_from([None, 0, 1, 2, "drawn"]))
    pure = _random_objective(rng, upper, None if kind == "drawn" else kind)
    drawn = [float(rng.randrange(3)) for _ in range(60)]

    def make_fun():
        if kind != "drawn":
            return pure
        calls = iter(drawn)
        return lambda x: next(calls)

    return make_fun, simplex, upper


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    problem=nelder_mead_problems(),
    maxfev=st.integers(1, 60),
    fatol=st.sampled_from([0.0, 1e-6, 1e-2]),
)
def test_nelder_mead_visits_scipys_points(problem, maxfev, fatol):
    make_fun, simplex, upper = problem
    visits = ([], [])

    def logged(log):
        fun = make_fun()

        def f(x):
            log.append(tuple(float(v).hex() for v in x))
            return fun(x)

        return f

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy: "Initial guess is not within the bounds"
        want = oracles.scipy_nelder_mead(logged(visits[0]), simplex, upper, fatol, maxfev)
    got = optimize.minimize(logged(visits[1]), simplex, upper, fatol, maxfev)
    assert visits[1] == visits[0]
    assert [v.hex() for v in got.x] == [float(v).hex() for v in want.x]
    assert got.fun == want.fun
    assert got.nfev == want.nfev


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([1, 3, 8]),
    digits=st.sampled_from([None, 0, 1, 2]),
    maxfev=st.integers(1, 60),
    fatol=st.sampled_from([0.0, 1e-6, 1e-2]),
)
def test_lockstep_runs_match_sequential_runs(seed, k, digits, maxfev, fatol):
    # k restarts of one pure objective, as optimize_linear drives them: each
    # must end where minimize ends it alone, and each round evaluates one
    # point of every live restart in one call
    rng = random.Random(seed)
    upper = [rng.uniform(0.5, 7.0) for _ in range(4)]
    fun = _random_objective(rng, upper, digits)
    simplices = [_random_simplex(rng, upper, rng.random() < 0.5) for _ in range(k)]
    batches = []

    def evaluate(points):
        batches.append(len(points))
        return [fun(x) for x in points]

    runs = [optimize.nelder_mead(s, upper, fatol, maxfev) for s in simplices]
    got = optimize.lockstep(runs, evaluate)
    for simplex, res in zip(simplices, got):
        want = optimize.minimize(fun, simplex, upper, fatol, maxfev)
        assert [v.hex() for v in res.x] == [v.hex() for v in want.x]
        assert res.fun == want.fun
        assert res.nfev == want.nfev
    assert batches[0] == k and sorted(batches, reverse=True) == batches
    assert sum(batches) == sum(res.nfev for res in got)
