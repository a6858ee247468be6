"""Statevector evolution tests against dense-matrix and closed-form oracles."""

import math
import random

import numpy as np
import pytest

import oracles
from symqaoa import simulator
from symqaoa.autgroup import (
    BitstringGroup,
    PermGroup,
    automorphism_generators,
    bitstring_action,
    bitstring_orbits,
    flip_action,
)
from symqaoa.errors import InvalidParamsError, NotBijectionError, SizeLimitError
from symqaoa.graphs import Graph, complete, cycle, named, random_regular, wheel
from symqaoa.simulator import (
    Angles,
    CostDiagonal,
    Engine,
    StateVector,
    check_symmetry_conditions,
    expectation,
    format_bitstring,
    maxcut_diagonal,
    orbit_spread,
    probabilities,
    probability_rows,
)


def random_angles(rng, p):
    return Angles(
        betas=[rng.uniform(-math.pi, math.pi) for _ in range(p)],
        gammas=[rng.uniform(-math.pi, math.pi) for _ in range(p)],
    )


def test_maxcut_diagonal_explicit():
    diag = maxcut_diagonal(complete(3))
    # x = 0b001 separates vertex 0, cutting two of the three edges
    assert list(diag.values) == [0, 2, 2, 2, 2, 2, 2, 0]
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    vals = maxcut_diagonal(path).values
    assert vals[0b001] == 1  # vertex 0 alone cuts only edge (0,1)
    assert vals[0b010] == 2
    assert vals[0b101] == 2


@pytest.mark.parametrize("seed", range(6))
def test_maxcut_diagonal_matches_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = rng.sample(pool, rng.randint(1, len(pool)))
    got = maxcut_diagonal(Graph.from_edges(n, edges)).values
    assert np.array_equal(got, oracles.cost_vector(n, edges))


@pytest.mark.parametrize("seed", range(8))
def test_evolve_matches_dense_oracle(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(2, 6)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = rng.sample(pool, rng.randint(1, len(pool)))
    angles = random_angles(rng, rng.randint(1, 3))
    state = Engine(maxcut_diagonal(Graph.from_edges(n, edges))).statevector(angles)
    want = oracles.dense_evolve(n, edges, angles.betas, angles.gammas)
    assert np.allclose(state.amplitudes, want, atol=1e-12, rtol=0)


def test_evolve_float_costs_match_dense():
    # non-integer diagonal exercises the general phase path, not the power table
    rng = random.Random(7)
    n = 4
    vals = np.array([rng.uniform(0, 3) for _ in range(1 << n)])
    angles = random_angles(rng, 2)
    state = Engine(CostDiagonal(n, vals)).statevector(angles)
    dim = 1 << n
    want = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    eye = np.eye(2, dtype=complex)
    x_gate = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    for beta, gamma in zip(angles.betas, angles.gammas):
        want = np.exp(-1j * gamma * vals) * want
        rot = math.cos(beta) * eye - 1j * math.sin(beta) * x_gate
        full = np.array([[1.0]], dtype=complex)
        for _ in range(n):
            full = np.kron(full, rot)
        want = full @ want
    assert np.allclose(state.amplitudes, want, atol=1e-12, rtol=0)


def _assert_matches_strided(diag, rng):
    p = rng.randint(1, 12)
    angles = random_angles(rng, p)
    eng = Engine(diag)
    got = eng.statevector(angles).amplitudes
    want = oracles.strided_evolve(diag.values, angles.betas, angles.gammas)
    assert np.array_equal(got.view(np.float64), want.view(np.float64))
    assert eng.expectation(angles.betas, angles.gammas) == oracles.strided_expectation(
        diag.values, angles.betas, angles.gammas
    )
    return eng


def test_engine_bit_identical_to_strided_oracle():
    # the flip-halved contiguous mixer does the same float operations on every
    # amplitude as the strided full-space update, so nothing may differ
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(1, 14)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        density = rng.random()
        edges = [e for e in pool if rng.random() < density]
        diag = maxcut_diagonal(Graph.from_edges(n, edges))
        eng = _assert_matches_strided(diag, rng)
        assert len(eng.run([0.3], [0.7])) == 2 ** max(n - 1, 1)
    np_rng = np.random.default_rng(5)
    for _ in range(50):
        n = rng.randint(1, 12)
        vals = np_rng.normal(size=1 << n)
        flip = rng.random() < 0.5
        if flip:
            vals = vals + vals[::-1]  # flip-symmetric float costs
        eng = _assert_matches_strided(CostDiagonal(n, vals), rng)
        assert len(eng.run([0.3], [0.7])) == 2 ** (n - 1 if flip and n > 1 else n)


def test_single_edge_closed_form():
    diag = maxcut_diagonal(Graph.from_edges(2, [(0, 1)]))
    eng = Engine(diag)
    for beta in np.linspace(-math.pi, math.pi, 9):
        for gamma in np.linspace(-math.pi, math.pi, 9):
            got = eng.expectation([beta], [gamma])
            assert got == pytest.approx(oracles.closed_form_edge(beta, gamma), abs=1e-13)


def test_expectation_paths_agree():
    rng = random.Random(11)
    diag = maxcut_diagonal(wheel(6))
    angles = random_angles(rng, 2)
    state = Engine(diag).statevector(angles)
    probs = probabilities(state)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    direct = Engine(diag).expectation(angles.betas, angles.gammas)
    assert expectation(state, diag) == pytest.approx(direct, abs=1e-12)
    with pytest.raises(InvalidParamsError):
        expectation(state, maxcut_diagonal(complete(3)))


@pytest.mark.parametrize(
    "graph", [complete(5), cycle(6), named("petersen"), random_regular(8, 3, seed=1)]
)
def test_orbit_invariance_of_evolution(graph):
    rng = random.Random(graph.n * 37 + graph.m)
    diag = maxcut_diagonal(graph)
    orbits = bitstring_orbits(BitstringGroup(automorphism_generators(graph), True))
    state = Engine(diag).statevector(random_angles(rng, 3))
    spread = orbit_spread(state, orbits)
    assert spread.probability < 1e-12
    assert spread.amplitude < 1e-12


def test_orbit_spread_detects_asymmetry():
    orbits = bitstring_orbits(BitstringGroup(PermGroup(1, ()), True))
    assert orbits.n_orbits == 1
    state = StateVector(1, [math.sqrt(3) / 2, 0.5])
    spread = orbit_spread(state, orbits)
    assert spread.probability == pytest.approx(0.5, abs=1e-15)
    assert spread.amplitude == pytest.approx((math.sqrt(3) - 1) / 2, abs=1e-15)
    uniform = StateVector(1, [math.sqrt(0.5), math.sqrt(0.5)])
    assert orbit_spread(uniform, orbits) == (0.0, 0.0)
    with pytest.raises(InvalidParamsError):
        orbit_spread(StateVector(2, [1, 0, 0, 0]), orbits)


def test_symmetry_conditions_automorphism():
    g = cycle(4)
    diag = maxcut_diagonal(g)
    rotation = (1, 2, 3, 0)
    flags = check_symmetry_conditions(bitstring_action(rotation), diag)
    assert flags == (True, True)
    assert check_symmetry_conditions(flip_action(4), diag) == (True, True)
    # transposing two adjacent vertices of C4 is not an automorphism
    bad = check_symmetry_conditions(bitstring_action((1, 0, 2, 3)), diag)
    assert bad.cost_commutes is False
    assert bad.mixer_commutes is True  # any bit permutation preserves adjacency


def test_symmetry_conditions_cost_only():
    # swapping two equal-cost states breaks the mixer condition but not the cost
    diag = maxcut_diagonal(complete(3))
    mapping = list(range(8))
    mapping[1], mapping[2] = 2, 1
    flags = check_symmetry_conditions(mapping, diag)
    assert flags.cost_commutes is True
    assert flags.mixer_commutes is False


def test_symmetry_conditions_validation():
    diag = maxcut_diagonal(complete(3))
    with pytest.raises(NotBijectionError):
        check_symmetry_conditions([0] * 8, diag)
    with pytest.raises(NotBijectionError):
        check_symmetry_conditions(list(range(4)), diag)
    big = CostDiagonal(17, np.zeros(1 << 17))
    with pytest.raises(SizeLimitError):
        check_symmetry_conditions(list(range(1 << 17)), big)


def test_input_validation():
    with pytest.raises(InvalidParamsError):
        CostDiagonal(2, [0.0, 1.0])
    with pytest.raises(InvalidParamsError):
        CostDiagonal(1, [0.0, math.inf])
    with pytest.raises(InvalidParamsError):
        StateVector(1, [1.0, 1.0])
    with pytest.raises(InvalidParamsError):
        Angles(betas=[0.1], gammas=[0.1, 0.2])
    with pytest.raises(InvalidParamsError):
        Angles(betas=[], gammas=[])
    with pytest.raises(InvalidParamsError):
        Angles(betas=[math.nan], gammas=[0.0])
    assert Angles(betas=[0.1, 0.2], gammas=[0.3, 0.4]).p == 2
    with pytest.raises(SizeLimitError):
        maxcut_diagonal(Graph.from_edges(27, [(0, 1)]))


def test_memory_budget_refuses_before_allocating(monkeypatch):
    # a cut diagonal takes 32 bytes an amplitude while it is built, the engine
    # 88 bytes a simulated amplitude: 2^9 of them for a MaxCut cost at n = 10
    ring = maxcut_diagonal(cycle(10))
    skewed = CostDiagonal(10, ring.values + (np.arange(1 << 10) & 1))
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", 88 << 9)
    assert len(Engine(ring).run([0.3], [0.7])) == 1 << 9
    with pytest.raises(SizeLimitError, match="budget"):
        Engine(skewed)
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", (88 << 9) - 1)
    with pytest.raises(SizeLimitError, match="budget"):
        Engine(ring)
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", (32 << 10) - 1)
    with pytest.raises(SizeLimitError, match="budget"):
        maxcut_diagonal(cycle(10))
    assert simulator.MAX_QUBITS == 26


def test_format_bitstring_lsb_first():
    assert format_bitstring(1, 3) == "100"
    assert format_bitstring(4, 3) == "001"
    assert format_bitstring(6, 4) == "0110"


def test_probabilities_csv():
    state = StateVector(1, [math.sqrt(0.75), 0.5])
    lines = "".join(probability_rows(state)).splitlines()
    assert lines[0] == "bitstring,probability"
    assert len(lines) == 3
    rows = dict(line.split(",") for line in lines[1:])
    assert float(rows["0"]) == pytest.approx(0.75, abs=1e-15)
    assert float(rows["1"]) == pytest.approx(0.25, abs=1e-15)
