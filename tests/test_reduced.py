"""Orbit-basis reduction tests: quotient counting and reduced-vs-full evolution."""

import math
import random

import numpy as np
import pytest

import oracles
from acceptance_profile import DATASET_PATH
from symqaoa import reduced, simulator
from symqaoa.autgroup import (
    ENUMERATION_CAP,
    BitstringOrbits,
    PermGroup,
    automorphism_generators,
    bitstring_orbits,
    cycle_counts,
)
from symqaoa.cli import main
from symqaoa.dataset import load_dataset
from symqaoa.errors import InvalidParamsError, NotInvariantError, SizeLimitError
from symqaoa.graphs import (
    Graph,
    complete,
    cycle,
    ladder,
    named,
    random_regular,
    star,
    wheel,
    write_edge_list,
)
from symqaoa.reduced import (
    BitstringGroup,
    ReducedEngine,
    ReducedOperators,
    build_orbit_basis,
    hamming_reduced_ops,
    quotient_dimension,
    reduce_operators,
    lift,
    symmetry_group,
)
from symqaoa.schedules import BETA_MAX, GAMMA_MAX, make_engine
from symqaoa.simulator import Angles, Engine, maxcut_diagonal


def random_angles(rng, p):
    return Angles(
        betas=[rng.uniform(-math.pi, math.pi) for _ in range(p)],
        gammas=[rng.uniform(-math.pi, math.pi) for _ in range(p)],
    )


def test_quotient_dims_known():
    trivial = PermGroup(4, ())
    assert quotient_dimension(BitstringGroup(trivial)).dim == 16
    assert quotient_dimension(BitstringGroup(trivial, include_flip=True)).dim == 8
    assert quotient_dimension(symmetry_group(complete(4))).dim == 5
    assert quotient_dimension(symmetry_group(complete(4), include_flip=True)).dim == 3
    assert quotient_dimension(symmetry_group(complete(5), include_flip=True)).dim == 3
    assert quotient_dimension(symmetry_group(complete(8))).dim == 9
    assert quotient_dimension(symmetry_group(complete(8), include_flip=True)).dim == 5


@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("seed", range(5))
def test_quotient_matches_brute_burnside(seed, flip):
    rng = random.Random(400 + seed)
    n = rng.randint(3, 6)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = rng.sample(pool, rng.randint(1, len(pool)))
    g = Graph.from_edges(n, edges)
    perms = oracles.brute_automorphisms(n, edges)
    want = oracles.burnside_count(n, perms, with_flip=flip)
    count = quotient_dimension(symmetry_group(g, include_flip=flip))
    assert count.dim == want
    assert count.routes_agree
    assert count.group_order == len(perms) * (2 if flip else 1)
    assert count.burnside_avg == count.orbit_count == count.dim
    assert len(count.fixed_counts) == count.group_order


class SquaredWalk(Exception):
    pass


def test_flip_at_odd_n_walks_no_square(monkeypatch):
    # at odd n every flipped element has an odd cycle and fixes nothing, so
    # the tally must be right without P^2; at even n it must still walk P^2
    def no_square(block, squared):
        if squared:
            raise SquaredWalk
        return cycle_counts(block, squared)

    monkeypatch.setattr(reduced, "cycle_counts", no_square)
    for g, dim in ((complete(7), 4), (complete(9), 5), (star(9), 9), (cycle(9), 23)):
        grp = automorphism_generators(g)
        count = quotient_dimension(BitstringGroup(grp, include_flip=True))
        assert count.dim == dim
        assert count.fixed_counts.tolist() == list(oracles.burnside_fixed_counts(grp, True))
    for g in (named("petersen"), cycle(14)):
        with pytest.raises(SquaredWalk):
            quotient_dimension(symmetry_group(g, include_flip=True))


def test_quotient_by_burnside_alone_above_the_bitstring_cap():
    # n = 21 is over BITSTRING_N_CAP, so the orbit labelling does not run
    q = quotient_dimension(BitstringGroup(PermGroup(21, ()), include_flip=True))
    assert (q.dim, q.group_order, q.burnside_avg, q.orbit_count) == (1 << 20, 2, 1 << 20, None)
    assert len(q.fixed_counts) == 2 and q.routes_agree


def test_quotient_by_orbits_alone_above_the_enumeration_cap():
    # |S_12| = 12! is over ENUMERATION_CAP, so the group is not enumerated
    for flip, dim in ((False, 13), (True, 7)):
        q = quotient_dimension(symmetry_group(complete(12), include_flip=flip))
        assert q.group_order == math.factorial(12) * (2 if flip else 1) > ENUMERATION_CAP
        assert (q.dim, q.orbit_count, q.burnside_avg, q.fixed_counts) == (dim, dim, None, None)
        assert q.routes_agree


def test_quotient_routes_that_disagree_raise(monkeypatch, tmp_path, capsys):
    def trivial_labelling(grp):
        return bitstring_orbits(BitstringGroup(PermGroup(grp.perm_group.n, ())))

    monkeypatch.setattr(reduced, "bitstring_orbits", trivial_labelling)
    for flip in (False, True):
        with pytest.raises(NotInvariantError, match="counting routes disagree"):
            quotient_dimension(symmetry_group(cycle(6), include_flip=flip))
    path = tmp_path / "c6.edges"
    write_edge_list(cycle(6), path)
    assert main(["reduce", str(path), "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "counting routes disagree" in captured.err


def test_quotient_size_limit():
    with pytest.raises(SizeLimitError):
        quotient_dimension(symmetry_group(complete(22)))


def test_hamming_ops_equal_generic_reduction():
    for n in (2, 3, 5, 7):
        fast = hamming_reduced_ops(n)
        basis = build_orbit_basis(complete(n))
        generic = reduce_operators(maxcut_diagonal(complete(n)), basis)
        assert fast.dim == generic.dim == n + 1
        assert np.allclose(fast.cost_diag, generic.cost_diag, atol=1e-12)
        assert np.allclose(fast.mixer, generic.mixer, atol=1e-12)
        assert np.allclose(fast.init, generic.init, atol=1e-12)


def test_hamming_ops_values():
    ops = hamming_reduced_ops(3)
    assert list(ops.cost_diag) == [0.0, 2.0, 2.0, 0.0]
    assert ops.mixer[0, 1] == pytest.approx(math.sqrt(3))
    assert ops.mixer[1, 2] == pytest.approx(2.0)
    assert np.allclose(ops.mixer, ops.mixer.T)
    assert ops.init @ ops.init == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidParamsError):
        hamming_reduced_ops(0)
    # 2^1029 does not fit a float; the binomial weights are exact integer quotients
    big = hamming_reduced_ops(1029)
    assert big.init @ big.init == pytest.approx(1.0, abs=1e-12)


def test_reduced_builders_refuse_memory_before_allocating(monkeypatch):
    # the trivial basis at n = 14 has d = 16,384, so the four d x d operator
    # arrays would take 8 GiB and V with its complex copies 10 GiB; both
    # builders refuse before their first d x d allocation
    d = 1 << 14
    idx = np.arange(d, dtype=np.int64)
    trivial = BitstringOrbits(14, idx, np.ones(d, dtype=np.int64), idx)
    with pytest.raises(SizeLimitError, match="reduced operators of dimension 16384"):
        reduce_operators(maxcut_diagonal(cycle(14)), trivial)
    flat = np.zeros(d)
    huge = ReducedOperators(flat, np.broadcast_to(np.zeros(()), (d, d)), flat)
    with pytest.raises(SizeLimitError, match="reduced engine of dimension 16384"):
        ReducedEngine(huge)
    # the counts are exact: 32 d^2 bytes for the operators (d = 5 here) and
    # 40 d^2 for the engine (d = 4)
    basis, diag = build_orbit_basis(complete(4)), maxcut_diagonal(complete(4))
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", 32 * 25)
    assert reduce_operators(diag, basis).dim == 5
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", 32 * 25 - 1)
    with pytest.raises(SizeLimitError, match="budget"):
        reduce_operators(diag, basis)
    ops = hamming_reduced_ops(3)
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", 40 * 16)
    assert len(ReducedEngine(ops).run([0.3], [0.7])) == 4
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", 40 * 16 - 1)
    with pytest.raises(SizeLimitError, match="budget"):
        ReducedEngine(ops)


@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize(
    "graph",
    [complete(5), cycle(6), wheel(6), ladder(4), named("petersen"), random_regular(8, 3, seed=4)],
)
def test_reduced_evolution_matches_full(graph, flip):
    rng = random.Random(graph.n * 1000 + graph.m + flip)
    diag = maxcut_diagonal(graph)
    basis = build_orbit_basis(graph, include_flip=flip)
    ops = reduce_operators(diag, basis)
    assert basis.n_orbits < (1 << graph.n)
    angles = random_angles(rng, 2)
    reduced = ReducedEngine(ops)
    full = Engine(diag)
    assert reduced.expectation(angles.betas, angles.gammas) == pytest.approx(
        full.expectation(angles.betas, angles.gammas), abs=1e-11
    )
    # the full evolution never leaves the symmetric subspace, so the lifted
    # reduced state is the full state itself
    lifted = lift(reduced.run(angles.betas, angles.gammas), basis)
    assert np.allclose(lifted.amplitudes, full.statevector(angles).amplitudes, atol=1e-11)


def test_hamming_matches_full_k12():
    rng = random.Random(12)
    angles = random_angles(rng, 3)
    ops = hamming_reduced_ops(12)
    want = Engine(maxcut_diagonal(complete(12))).expectation(angles.betas, angles.gammas)
    assert ReducedEngine(ops).expectation(angles.betas, angles.gammas) == pytest.approx(want, abs=1e-11)


def test_reduced_engine_preserves_norm():
    rng = random.Random(3)
    ops = hamming_reduced_ops(9)
    eng = ReducedEngine(ops)
    for _ in range(3):
        a = random_angles(rng, 4)
        amps = eng.run(a.betas, a.gammas)
        assert np.vdot(amps, amps).real == pytest.approx(1.0, abs=1e-12)


# the label-sym benchmark instances, and the three largest orbit bases
ENGINE_IDS = (
    "complete-n3", "cycle-n4", "star-n4", "wheel-n6", "antiprism-k3", "circular-ladder-k3",
    "hand-picked-petersen", "hand-picked-icosahedron", "hand-picked-heawood", "wheel-n10",
    "cycle-n12", "circular-ladder-k6", "cycle-n14", "grid2d-cols4-rows3",
    "random-regular-k5-n10-s502",
)


def _assert_matches_layer_oracle(ops, p_max, rng):
    eng = ReducedEngine(ops)
    w, v = np.linalg.eigh(ops.mixer)
    for _ in range(20):
        p = rng.randint(1, p_max)
        betas = [rng.uniform(0.0, BETA_MAX) for _ in range(p)]
        gammas = [rng.uniform(0.0, GAMMA_MAX) for _ in range(p)]
        got = eng.run(betas, gammas)
        want = oracles.reduced_evolve(w, v, ops.cost_diag, ops.init, betas, gammas)
        # int64 views compare every bit, signs of zero included
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        probs = want.real**2 + want.imag**2
        assert eng.expectation(betas, gammas) == float(probs @ ops.cost_diag)


def test_reduced_engine_bit_identical_to_layer_oracle():
    # the complex operands built once, and the phase gathered from one exp per
    # cost level, must round exactly as the per-layer casts and exps did
    records = {rec.id: rec for rec in load_dataset(DATASET_PATH)}
    rng = random.Random(1606)
    dims = set()
    for iid in ENGINE_IDS:
        g = records[iid].graph()
        eng = make_engine(g)
        assert isinstance(eng, ReducedEngine)
        # the engine keeps no operators, so build the ones make_engine built
        if g.m == g.n * (g.n - 1) // 2:
            ops = hamming_reduced_ops(g.n)
        else:
            ops = reduce_operators(maxcut_diagonal(g), build_orbit_basis(g, include_flip=True))
        assert np.array_equal(ops.cost_diag, eng.values)
        dims.add(ops.dim)
        _assert_matches_layer_oracle(ops, records[iid].p_min or 20, rng)
    assert min(dims) == 4 and max(dims) == 576
    for n in range(1, 21):
        _assert_matches_layer_oracle(hamming_reduced_ops(n), 12, rng)
    np_rng = np.random.default_rng(16)
    for _ in range(30):
        d = rng.randint(1, 60)
        mixer = np_rng.normal(size=(d, d))
        # float costs with repeated levels, so the gather takes each level many times
        levels = np_rng.normal(size=rng.randint(1, d))
        values = levels[np_rng.integers(0, len(levels), size=d)]
        init = np_rng.normal(size=d)
        ops = ReducedOperators(values, mixer + mixer.T, init / np.linalg.norm(init))
        _assert_matches_layer_oracle(ops, 12, rng)


# the Hamming ladder, and orbit bases from d = 18 (Petersen) to 576
ROW_IDS = ("complete-n3", "hand-picked-petersen", "cycle-n12", "cycle-n14", "grid2d-cols4-rows3")


def test_reduced_engine_rows_bit_identical_to_single_schedule_loop():
    # rows go through one gemv and one dot call each, as a single schedule
    # does, so every row must round exactly as it would alone
    records = {rec.id: rec for rec in load_dataset(DATASET_PATH)}
    cases = [hamming_reduced_ops(n) for n in (1, 2, 7, 12)]
    for iid in ROW_IDS:
        g = records[iid].graph()
        if g.m == g.n * (g.n - 1) // 2:
            cases.append(hamming_reduced_ops(g.n))
        else:
            cases.append(reduce_operators(maxcut_diagonal(g), build_orbit_basis(g, include_flip=True)))
    assert max(ops.dim for ops in cases) == 576
    rng = random.Random(2808)
    for ops in cases:
        eng = ReducedEngine(ops)
        w, v = np.linalg.eigh(ops.mixer)
        for p in (1, 2, 5, 11):
            for rows in (1, 2, 3, 8):
                betas = [[rng.uniform(0.0, BETA_MAX) for _ in range(p)] for _ in range(rows)]
                gammas = [[rng.uniform(0.0, GAMMA_MAX) for _ in range(p)] for _ in range(rows)]
                got = eng.expectations(betas, gammas)
                amps = eng.run(betas, gammas)
                assert amps.shape == (rows, ops.dim) and len(got) == rows
                for r in range(rows):
                    want_amps, want = oracles.reduced_expectation(
                        w, v, ops.cost_diag, ops.init, betas[r], gammas[r]
                    )
                    # int64 views compare every bit, signs of zero included
                    assert np.array_equal(amps[r].view(np.int64), want_amps.view(np.int64))
                    assert got[r] == want
                    assert eng.expectation(betas[r], gammas[r]) == want


def test_reduced_engine_rows_of_zero_layers_keep_their_shape():
    eng = ReducedEngine(hamming_reduced_ops(3))
    amps = eng.run(np.empty((2, 0)), np.empty((2, 0)))
    assert amps.shape == (2, 4) and np.array_equal(amps[1], hamming_reduced_ops(3).init)


def test_engines_reject_unequal_angle_lists():
    g = cycle(5)
    diag = maxcut_diagonal(g)
    basis = build_orbit_basis(g, include_flip=True)
    for engine in (Engine(diag), ReducedEngine(reduce_operators(diag, basis))):
        for betas, gammas in (([0.1, 0.2], [0.3]), ([0.1], [0.2, 0.3])):
            with pytest.raises(InvalidParamsError, match="equal length"):
                engine.expectation(betas, gammas)
        # rows of unequal depth, which zip would cut to the shorter
        with pytest.raises(InvalidParamsError, match="equal length"):
            engine.expectations([[0.1, 0.2]], [[0.3]])


def test_reduce_rejects_noninvariant_cost():
    # S4 orbits are Hamming-weight classes; a path's cut count is not constant
    # on them
    basis = build_orbit_basis(complete(4))
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(NotInvariantError):
        reduce_operators(maxcut_diagonal(path), basis)
    with pytest.raises(InvalidParamsError):
        reduce_operators(maxcut_diagonal(complete(5)), basis)


def test_basis_size_limit(monkeypatch):
    # the cap is checked before the automorphism search starts
    def no_search(g):
        raise AssertionError("automorphism search ran above the bitstring cap")

    monkeypatch.setattr("symqaoa.reduced.automorphism_generators", no_search)
    with pytest.raises(SizeLimitError, match="n <= 20, got 21"):
        build_orbit_basis(complete(21))


def test_basis_cap_refuses_before_labelling():
    # cycle(8): |G| = 16, 32 with the flip, over 2^8 = 256 bitstrings; no
    # orbit has more than |G| members, so 2^n > cap * |G| means d > cap
    g = cycle(8)
    full = build_orbit_basis(g, include_flip=True)
    assert build_orbit_basis(g, include_flip=True, cap=7) is None
    kept = build_orbit_basis(g, include_flip=True, cap=8)
    assert np.array_equal(kept.labels, full.labels) and kept.n_orbits == full.n_orbits
    assert build_orbit_basis(g, cap=15) is None
    assert build_orbit_basis(g, cap=16).n_orbits == build_orbit_basis(g).n_orbits


def test_lift_validation():
    basis = build_orbit_basis(complete(3))
    with pytest.raises(InvalidParamsError):
        lift(np.ones(3), basis)
