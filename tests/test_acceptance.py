"""End-to-end checks of the package's headline guarantees.

Each test prints one verdict line (run with -s to see them as they pass):
orbit invariance of the evolved state, the two orbit-counting routes,
reduced-space agreement with the full simulator, the single-edge closed form,
known feature values, the regenerated dataset's correlation signs, prediction
quality, the symmetry-vs-depth ordering, speed budgets, and bit-exact
reproducibility.

Criteria 6 through 10 consume the cached desk-scale dataset; the first run
generates it (4,260.9 s on one core when the cache was written, see
acceptance_profile).
"""

import json
import math
import time

import numpy as np
import pytest

import oracles
from acceptance_profile import DATASET_PATH, TIMING_PATH, acceptance_config, ensure_dataset
from symqaoa.autgroup import PermGroup, automorphism_generators, bitstring_orbits
from symqaoa.dataset import (
    EXPECTED_SIGNS,
    DatasetConfig,
    SplitSpec,
    family_label,
    run_generation,
    train_models,
)
from symqaoa.features import FEATURE_NAMES, approx_features, exact_features
from symqaoa.graphs import (
    Graph,
    antiprism,
    circular_ladder,
    complete,
    cycle,
    grid2d,
    ladder,
    named,
    random_regular,
    star,
    trivial_aut_graph,
    wheel,
)
from symqaoa.mlmodel import load_model, pearson_r, save_model
from symqaoa.reduced import (
    BitstringGroup,
    ReducedEngine,
    build_orbit_basis,
    hamming_reduced_ops,
    quotient_dimension,
    reduce_operators,
    symmetry_group,
)
from symqaoa.simulator import Angles, Engine, expectation, maxcut_diagonal, orbit_spread


def note(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def random_angles(rng, p):
    betas = tuple(float(b) for b in rng.uniform(-math.pi, math.pi, p))
    gammas = tuple(float(g) for g in rng.uniform(-math.pi, math.pi, p))
    return Angles(betas, gammas)


def family_pool():
    """One representative of every dataset family, all with n <= 10."""
    return [
        ("complete", complete(7)),
        ("cycle", cycle(9)),
        ("star", star(8)),
        ("wheel", wheel(9)),
        ("ladder", ladder(5)),
        ("circular-ladder", circular_ladder(5)),
        ("antiprism", antiprism(4)),
        ("grid2d", grid2d(2, 5)),
        ("random-regular", random_regular(10, 3, seed=77)),
        ("trivial-aut", trivial_aut_graph(10, 4, seed=40)),
        ("hand-picked", named("petersen")),
    ]


@pytest.fixture(scope="module")
def records():
    return ensure_dataset()


def test_criterion_01_orbit_invariance():
    # evolved probabilities AND amplitudes must be constant on the orbits of
    # the automorphism group extended by the global bit flip
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    pool = family_pool()
    worst_prob = worst_amp = 0.0
    for i in range(50):
        _, g = pool[i % len(pool)]
        angles = random_angles(rng, int(rng.integers(1, 5)))
        state = Engine(maxcut_diagonal(g)).statevector(angles)
        orbits = bitstring_orbits(BitstringGroup(automorphism_generators(g), True))
        spread = orbit_spread(state, orbits)
        worst_prob = max(worst_prob, spread.probability)
        worst_amp = max(worst_amp, spread.amplitude)
    elapsed = time.perf_counter() - start
    ok = worst_prob < 1e-10 and worst_amp < 1e-10 and elapsed < 60.0
    note(
        1,
        ok,
        f"50 cases over 11 families, worst probability spread {worst_prob:.1e}, "
        f"worst amplitude spread {worst_amp:.1e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_02_quotient_dimensions():
    # the quotient size must match the closed forms for all four group types,
    # with the averaged-fixed-points and direct-orbit counts agreeing case by
    # case
    checked = 0
    bad = []
    for n in range(2, 11):
        cases = [
            ("trivial", BitstringGroup(PermGroup(n, ()), False), 2**n),
            ("flip-only", BitstringGroup(PermGroup(n, ()), True), 2 ** (n - 1)),
            ("full-swap", symmetry_group(complete(n)), n + 1),
            (
                "full-swap+flip",
                symmetry_group(complete(n), include_flip=True),
                n // 2 + 1 if n % 2 == 0 else (n + 1) // 2,
            ),
        ]
        for label, grp, want in cases:
            q = quotient_dimension(grp)
            checked += 1
            routes = (q.burnside_avg, q.orbit_count)
            if q.dim != want or None in routes or not q.routes_agree:
                bad.append(f"{label} n={n}: dim {q.dim} want {want}, routes {routes}")
    ok = not bad
    note(2, ok, f"{checked} group cases n=2..10, two counting routes each" + ("; " + "; ".join(bad) if bad else ""))
    assert ok


def test_criterion_03_reduced_matches_full():
    rng = np.random.default_rng(1003)
    worst_hamming = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        angles = random_angles(rng, int(rng.integers(1, 7)))
        values = maxcut_diagonal(complete(n))
        full = expectation(Engine(values).statevector(angles), values)
        red = ReducedEngine(hamming_reduced_ops(n)).expectation(angles.betas, angles.gammas)
        worst_hamming = max(worst_hamming, abs(full - red))
    pool = family_pool()
    worst_generic = 0.0
    for i in range(30):
        _, g = pool[i % len(pool)]
        angles = random_angles(rng, int(rng.integers(1, 7)))
        values = maxcut_diagonal(g)
        basis = build_orbit_basis(g, include_flip=bool(rng.integers(0, 2)))
        ops = reduce_operators(values, basis)
        red = ReducedEngine(ops).expectation(angles.betas, angles.gammas)
        full = expectation(Engine(values).statevector(angles), values)
        worst_generic = max(worst_generic, abs(full - red))
    ok = worst_hamming < 1e-9 and worst_generic < 1e-9
    note(
        3,
        ok,
        f"100 complete-graph ladder cases (worst {worst_hamming:.1e}) and "
        f"30 generic orbit-basis cases (worst {worst_generic:.1e})",
    )
    assert ok


def test_criterion_04_single_edge_closed_form():
    edge = Graph.from_edges(2, [(0, 1)])
    engine = Engine(maxcut_diagonal(edge))
    worst = 0.0
    for beta in np.linspace(-math.pi, math.pi, 50):
        for gamma in np.linspace(-math.pi, math.pi, 50):
            got = engine.expectation([float(beta)], [float(gamma)])
            worst = max(worst, abs(got - oracles.closed_form_edge(float(beta), float(gamma))))
    ok = worst < 1e-12
    note(4, ok, f"50x50 angle grid, worst |simulated - closed form| {worst:.1e}")
    assert ok


def test_criterion_05_known_feature_values():
    log_aut, n_orbits, entropy = exact_features(complete(20))
    ok_complete = abs(log_aut - 42.3) <= 0.05 and n_orbits == 1 and abs(entropy - 3.0) <= 0.05
    worst_cycle = max(
        abs(approx_features(cycle(n), 1)[0] - 0.7) for n in range(4, 21)
    )
    ok_cycle = worst_cycle <= 0.05
    trivials = [trivial_aut_graph(12, 3, seed=2), trivial_aut_graph(10, 4, seed=40)]
    triv_vals = [exact_features(g) for g in trivials]
    ok_trivial = all(v[0] == 0.0 and v[2] == 0.0 for v in triv_vals)
    ok = ok_complete and ok_cycle and ok_trivial
    note(
        5,
        ok,
        f"complete n=20 gives ({log_aut:.4g}, {n_orbits}, {entropy:.4g}); cycle one-edge "
        f"average within {worst_cycle:.3f} of 0.7 for n=4..20; "
        f"asymmetric instances have exactly zero log-symmetry and entropy: {ok_trivial}",
    )
    assert ok


def test_criterion_06_correlation_signs(records):
    families = {r.family for r in records}
    ok_shape = (
        len(records) >= 120
        and max(r.n for r in records) <= 14
        and len(families) == 11
    )
    finite = [r for r in records if not r.censored]
    feats = np.array([r.features for r in finite])
    depths = np.array([float(r.p_min) for r in finite])
    matches = 0
    table = []
    for j, name in enumerate(FEATURE_NAMES):
        r = pearson_r(feats[:, j], depths)
        matches += (r > 0) == (EXPECTED_SIGNS[name] > 0)
        table.append(f"{name} {r:+.2f}")
    ok = ok_shape and matches >= 9
    note(
        6,
        ok,
        f"{len(records)} records, {len(families)} families, {matches}/10 correlation "
        f"signs as expected; magnitudes: " + ", ".join(table),
    )
    assert ok


def test_criterion_07_prediction_quality(records):
    _, report = train_models(records, SplitSpec())
    ok = (
        report.regression.test_err <= 2.5
        and report.ensemble.test_err <= 2.5
        and report.regression.test_pearson >= 0.4
        and report.ensemble.test_pearson >= 0.4
    )
    note(
        7,
        ok,
        f"test median |err|: regression {report.regression.test_err:.2f}, ensemble "
        f"{report.ensemble.test_err:.2f} (cap 2.5); test Pearson: {report.regression.test_pearson:.2f}, "
        f"{report.ensemble.test_pearson:.2f} (floor 0.4)",
    )
    assert ok


def test_criterion_08_symmetry_orders_depth(records):
    # highly symmetric families must not need more depth than the asymmetric one
    symmetric = [r for r in records if r.family in ("complete", "star") and not r.censored]
    trivial = [r for r in records if r.family == "trivial-aut" and not r.censored]
    common = sorted({r.n for r in symmetric} & {r.n for r in trivial})
    pairs = []
    ok = bool(common)
    for n in common:
        mean_sym = float(np.mean([r.p_min for r in symmetric if r.n == n]))
        mean_triv = float(np.mean([r.p_min for r in trivial if r.n == n]))
        ok = ok and mean_sym <= mean_triv
        pairs.append(f"n={n}: {mean_sym:.2f} vs {mean_triv:.2f}")
    note(8, ok, "mean depth complete+star vs trivial-aut at " + "; ".join(pairs))
    assert ok


def test_criterion_09_speed_budgets(records):
    angles = random_angles(np.random.default_rng(1009), 10)
    values = maxcut_diagonal(random_regular(16, 3, seed=4))
    start = time.perf_counter()
    Engine(values).statevector(angles)
    evolve_s = time.perf_counter() - start
    worst_aut = 0.0
    for rec in records:
        g = Graph.from_edges(rec.n, rec.edges)
        start = time.perf_counter()
        automorphism_generators(g)
        worst_aut = max(worst_aut, time.perf_counter() - start)
    wall = float(TIMING_PATH.read_text())
    ok = evolve_s < 5.0 and worst_aut < 1.0 and wall < 4 * 3600
    note(
        9,
        ok,
        f"n=16 p=10 evolution {evolve_s:.2f}s (cap 5); slowest generator search over "
        f"{len(records)} dataset graphs {worst_aut * 1000:.0f}ms (cap 1s); dataset "
        f"generation {wall / 3600:.2f}h (cap 4)",
    )
    assert ok


def test_criterion_10_reproducibility(records, tmp_path):
    # a) regenerating a cross-family sample of the shipped profile twice gives
    #    byte-identical files that also match the cached dataset line for line
    sample_ids = {
        "complete-n3",
        "cycle-n4",
        "star-n4",
        "wheel-n6",
        "antiprism-k3",
        "circular-ladder-k3",
        "hand-picked-petersen",
    }
    base = acceptance_config()
    fams = tuple(f for f in base.families if family_label(f) in sample_ids)
    assert len(fams) == len(sample_ids)
    config = DatasetConfig(
        fams,
        target_ratio=base.target_ratio,
        p_start=base.p_start,
        p_cap=base.p_cap,
        restarts=base.restarts,
        seed=base.seed,
    )
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    assert run_generation(config, first) == len(sample_ids)
    assert run_generation(config, second) == len(sample_ids)
    identical = first.read_bytes() == second.read_bytes()
    cached = {}
    with open(DATASET_PATH, encoding="utf-8") as fh:
        for line in fh:
            cached[json.loads(line)["id"]] = line
    matches_cache = all(
        cached.get(json.loads(line)["id"]) == line
        for line in open(first, encoding="utf-8")
    )

    # b) training twice on the same records reproduces predictions, as does a
    #    save/load round trip
    pred_a, _ = train_models(records, SplitSpec())
    pred_b, _ = train_models(records, SplitSpec())
    path = tmp_path / "model.txt"
    save_model(pred_a, path)
    pred_c = load_model(path)
    worst = 0.0
    for rec in records[::13]:
        q = np.array(rec.features)
        worst = max(
            worst,
            abs(pred_a.predict_regression(q) - pred_b.predict_regression(q)),
            abs(pred_a.predict_ensemble(q) - pred_b.predict_ensemble(q)),
            abs(pred_a.predict_regression(q) - pred_c.predict_regression(q)),
            abs(pred_a.predict_ensemble(q) - pred_c.predict_ensemble(q)),
        )
    ok = identical and matches_cache and worst <= 1e-9
    note(
        10,
        ok,
        f"{len(sample_ids)}-instance regeneration byte-identical: {identical}, matches "
        f"cached dataset: {matches_cache}; retrain and reload prediction drift {worst:.1e}",
    )
    assert ok
