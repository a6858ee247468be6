"""Schedule expansion, multistart optimization, and the minimum-depth search."""

import math
import random
import re

import numpy as np
import pytest

import oracles
from symqaoa import reduced, simulator
from symqaoa.errors import InvalidParamsError, SizeLimitError
from symqaoa.graphs import Graph, complete, cycle, named, star, trivial_aut_graph, wheel
from symqaoa.reduced import ReducedEngine
from symqaoa.schedules import (
    BETA_MAX,
    DEPTH_CAP,
    GAMMA_MAX,
    LinearSchedule,
    ScheduleEvaluator,
    SearchSettings,
    approx_ratio,
    find_pmin,
    make_engine,
    max_cut_brute,
    optimize_linear,
    trace_csv,
)
from symqaoa.simulator import Engine, maxcut_diagonal

EDGE = Graph.from_edges(2, [(0, 1)])


def test_max_cut_brute_known_values():
    k33 = Graph.from_edges(6, [(u, v + 3) for u in range(3) for v in range(3)])
    # the evaluator reads the optimum off its engine: the Hamming ladder for
    # complete graphs, the orbit basis, and the full statevector for cycle(17)
    known = [(complete(3), 2), (complete(4), 4), (cycle(5), 4), (star(6), 5),
             (named("petersen"), 12), (k33, 9), (cycle(17), 16)]
    for g, want in known:
        assert max_cut_brute(g) == want
        assert ScheduleEvaluator(g).optimum == want
    assert isinstance(ScheduleEvaluator(cycle(17)).engine, Engine)


@pytest.mark.parametrize("seed", range(6))
def test_max_cut_matches_oracle(seed):
    rng = random.Random(600 + seed)
    n = rng.randint(3, 8)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = rng.sample(pool, rng.randint(1, len(pool)))
    g = Graph.from_edges(n, edges)
    assert max_cut_brute(g) == oracles.brute_maxcut(n, edges)
    assert ScheduleEvaluator(g).optimum == oracles.brute_maxcut(n, edges)


def test_schedule_expand():
    sched = LinearSchedule(4, 0.1, 0.4, 1.0, 0.4)
    angles = sched.expand()
    assert angles.betas == pytest.approx((0.1, 0.2, 0.3, 0.4))
    assert angles.gammas == pytest.approx((1.0, 0.8, 0.6, 0.4))
    single = LinearSchedule(1, 0.3, 9.9, 0.7, -9.9).expand()
    assert single.betas == (0.3,)
    assert single.gammas == (0.7,)
    with pytest.raises(InvalidParamsError):
        LinearSchedule(0, 0, 0, 0, 0)


@pytest.mark.parametrize(
    "fields",
    [(True, 0.1, 0.2, 0.3, 0.4), (2.0, 0.1, 0.2, 0.3, 0.4), ("2", 0.1, 0.2, 0.3, 0.4),
     (2, "0.1", 0.2, 0.3, 0.4), (2, 0.1, math.nan, 0.3, 0.4), (2, 0.1, 0.2, math.inf, 0.4),
     (2, 0.1, 0.2, 0.3, False), (2, 0.1, 0.2, 0.3, None)],
)
def test_schedule_checks_its_fields(fields):
    with pytest.raises(InvalidParamsError):
        LinearSchedule(*fields)


def test_schedule_accepts_numpy_endpoints():
    sched = LinearSchedule(2, np.float64(0.1), np.float32(0.2), 0, 0.4)
    assert sched.expand().betas == pytest.approx((0.1, 0.2))


def test_depth_cap():
    assert LinearSchedule(DEPTH_CAP, 0.1, 0.2, 0.3, 0.4).p == DEPTH_CAP
    assert SearchSettings(p_cap=DEPTH_CAP).p_cap == DEPTH_CAP
    with pytest.raises(SizeLimitError, match=f"depth must be <= {DEPTH_CAP}, got {DEPTH_CAP + 1}"):
        LinearSchedule(DEPTH_CAP + 1, 0.1, 0.2, 0.3, 0.4)
    with pytest.raises(SizeLimitError, match=f"depth must be <= {DEPTH_CAP}"):
        SearchSettings(p_cap=DEPTH_CAP + 1)


def test_single_edge_peak_ratio():
    # sin(4*pi/8) * sin(pi/2) = 1, so the ratio peaks at exactly 1
    sched = LinearSchedule(1, math.pi / 8, 0.0, math.pi / 2, 0.0)
    assert approx_ratio(EDGE, sched) == pytest.approx(1.0, abs=1e-12)
    assert approx_ratio(EDGE, LinearSchedule(1, 0.0, 0.0, 0.0, 0.0)) == pytest.approx(
        0.5, abs=1e-12
    )


def test_optimizer_deterministic_and_bounded():
    a1, r1 = optimize_linear(ScheduleEvaluator(cycle(5)), p=2, restarts=3, seed=9)
    a2, r2 = optimize_linear(ScheduleEvaluator(cycle(5)), p=2, restarts=3, seed=9)
    assert a1 == a2
    assert r1 == r2
    assert 0.0 <= a1.beta_start <= math.pi and 0.0 <= a1.beta_end <= math.pi
    assert 0.0 <= a1.gamma_start <= 2 * math.pi and 0.0 <= a1.gamma_end <= 2 * math.pi
    assert 0.0 < r1 <= 1.0


def test_optimizer_restarts_monotone():
    # same seed draws the same start points, so more restarts cannot do worse
    _, r_few = optimize_linear(ScheduleEvaluator(cycle(5)), p=2, restarts=1, seed=4)
    _, r_more = optimize_linear(ScheduleEvaluator(cycle(5)), p=2, restarts=6, seed=4)
    assert r_more >= r_few - 1e-12


def test_optimizer_finds_single_edge_peak():
    _, ratio = optimize_linear(ScheduleEvaluator(EDGE), p=1, restarts=4, seed=2)
    assert ratio == pytest.approx(1.0, abs=1e-5)


def test_optimizer_validation():
    with pytest.raises(InvalidParamsError):
        optimize_linear(ScheduleEvaluator(EDGE), p=0, restarts=1, seed=0)
    for restarts in (0, 2.5, True):
        with pytest.raises(InvalidParamsError, match="restarts must be an integer >= 1"):
            optimize_linear(ScheduleEvaluator(EDGE), p=1, restarts=restarts, seed=0)
    with pytest.raises(InvalidParamsError):
        ScheduleEvaluator(Graph.from_edges(3, []))


def test_evaluator_size_limit():
    # the Hamming ladder alone would accept K27; the evaluator keeps the
    # statevector limit of the exact optimum
    with pytest.raises(SizeLimitError):
        ScheduleEvaluator(complete(27))


def test_find_pmin_single_edge():
    result = find_pmin(
        EDGE, SearchSettings(target_ratio=0.9, p_start=1, p_cap=3, restarts=3), seed=0
    )
    assert result.p_min == 1
    assert result.censored is False
    assert result.ratio_achieved >= 0.9
    assert result.optimum_cut == 1
    assert len(result.trace) == 1
    assert result.trace[0].schedule == result.best_schedule


def test_find_pmin_censors_on_unreachable_target():
    # no ratio can exceed 1, so a target above 1 must scan to the cap
    result = find_pmin(
        cycle(4), SearchSettings(target_ratio=1.5, p_start=2, p_cap=4, restarts=2), seed=5
    )
    assert result.censored is True
    assert result.p_min is None
    assert result.ratio_achieved < 1.0
    assert [t.p for t in result.trace] == [2, 3, 4]
    assert result.ratio_achieved == max(t.ratio for t in result.trace)


def test_find_pmin_depths_seeded_independently():
    # each depth draws its own stream, so the scan start must not change results
    a = find_pmin(
        cycle(4), SearchSettings(target_ratio=1.5, p_start=2, p_cap=4, restarts=2), seed=5
    )
    b = find_pmin(
        cycle(4), SearchSettings(target_ratio=1.5, p_start=3, p_cap=4, restarts=2), seed=5
    )
    by_p = {t.p: t for t in a.trace}
    for entry in b.trace:
        assert entry.schedule == by_p[entry.p].schedule
        assert entry.ratio == by_p[entry.p].ratio


@pytest.mark.parametrize("field", ["p_start", "restarts"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "2", None])
def test_search_settings_need_integer_counts(field, value):
    # a float or a bool passed the range checks and failed later, inside
    # range() or rng.random()
    want = re.escape(f"{field} must be an integer >= 1, got {value!r}")
    with pytest.raises(InvalidParamsError, match=want):
        SearchSettings(**{field: value})


def test_optimizer_refuses_start_table_above_budget(monkeypatch):
    # the start table and its scaled copy take 64 bytes a restart; a count
    # above the budget is refused before the generator draws anything
    ev = ScheduleEvaluator(EDGE)
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", 64 * 3)
    optimize_linear(ev, p=1, restarts=3, seed=0)
    drawn = []
    monkeypatch.setattr(np.random, "default_rng", lambda *a: drawn.append(a))
    with pytest.raises(SizeLimitError, match="the start points of 4 restarts needs"):
        optimize_linear(ev, p=1, restarts=4, seed=0)
    assert drawn == []


def test_optimizer_runs_restarts_in_groups_that_fit_the_budget(monkeypatch):
    # each live restart holds a generator (4096 bytes) and a row of the batch
    # arrays and exp tables (96 + 32 p bytes an engine value); a budget with
    # room for two evaluates at most two points a round, and the result does
    # not change
    ev = ScheduleEvaluator(cycle(5))
    batches = []
    ratios_of = ev.ratios_of

    def counted(p, points):
        batches.append(len(points))
        return ratios_of(p, points)

    monkeypatch.setattr(ev, "ratios_of", counted)
    want = optimize_linear(ev, p=2, restarts=5, seed=3)
    assert max(batches) == 5
    batches.clear()
    budget = 2 * (4096 + (96 + 32 * 2) * len(ev.engine.values))
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", budget)
    assert optimize_linear(ev, p=2, restarts=5, seed=3) == want
    assert batches[0] == 2 and max(batches) == 2
    # a budget with room for none still runs the restarts one at a time
    batches.clear()
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", 64 * 5)
    assert optimize_linear(ev, p=2, restarts=5, seed=3) == want
    assert set(batches) == {1}


@pytest.mark.parametrize("kind", [ReducedEngine, Engine], ids=["reduced", "full"])
def test_ratios_of_matches_ratio_of_bit_for_bit(kind):
    g = named("petersen") if kind is ReducedEngine else trivial_aut_graph(12, 3, seed=2)
    ev = ScheduleEvaluator(g)
    assert isinstance(ev.engine, kind)
    rng = np.random.default_rng(28)
    for p in (1, 2, 5):
        points = (rng.random((5, 4)) * [BETA_MAX, BETA_MAX, GAMMA_MAX, GAMMA_MAX]).tolist()
        got = ev.ratios_of(p, points)
        assert [r.hex() for r in got] == [ev.ratio_of(p, x).hex() for x in points]


def test_find_pmin_validation():
    with pytest.raises(InvalidParamsError):
        find_pmin(EDGE, SearchSettings(target_ratio=0.0))
    with pytest.raises(InvalidParamsError):
        find_pmin(EDGE, SearchSettings(p_start=3, p_cap=2))


def test_trace_csv_round_trip():
    result = find_pmin(
        EDGE, SearchSettings(target_ratio=2.0, p_start=1, p_cap=2, restarts=2), seed=1
    )
    lines = trace_csv(result).splitlines()
    assert lines[0] == "p,best_ratio,beta_start,beta_end,gamma_start,gamma_end"
    assert len(lines) == 3
    p, ratio, *sched = lines[1].split(",")
    assert int(p) == 1
    assert float(ratio) == result.trace[0].ratio
    assert [float(v) for v in sched] == [
        result.trace[0].schedule.beta_start,
        result.trace[0].schedule.beta_end,
        result.trace[0].schedule.gamma_start,
        result.trace[0].schedule.gamma_end,
    ]


def test_make_engine_policy():
    eng = make_engine(complete(14))
    assert isinstance(eng, ReducedEngine)
    assert len(eng.values) == 15
    eng = make_engine(named("petersen"))
    assert isinstance(eng, ReducedEngine)
    # the orbit basis is tried up to the bitstring-table cap, and each of
    # these has more orbits than the reduced-dimension cap; a trivial group
    # leaves 2^(n-1) flip-orbits
    assert isinstance(make_engine(cycle(17)), Engine)
    assert isinstance(make_engine(wheel(18)), Engine)
    assert isinstance(make_engine(trivial_aut_graph(12, 3, seed=2)), Engine)
    assert isinstance(make_engine(trivial_aut_graph(18, 3, seed=2)), Engine)


def test_make_engine_skips_orbit_labelling_above_the_cap(monkeypatch):
    # 2^20 bitstrings exceed REDUCED_DIM_CAP * |G| (flip counted) for both
    # groups, so no orbit labelling is built before they go to Engine
    def refuse(grp):
        raise AssertionError("bitstring orbits labelled above the cap")

    monkeypatch.setattr(reduced, "bitstring_orbits", refuse)
    assert isinstance(make_engine(wheel(20)), Engine)
    assert isinstance(make_engine(trivial_aut_graph(20, 3, seed=2)), Engine)


@pytest.mark.parametrize("kind", [ReducedEngine, Engine], ids=["reduced", "full"])
def test_ratio_of_same_for_float_lists_and_arrays(kind):
    # the optimizer passes lists of floats where scipy passed float64 arrays;
    # p = 1 hands params[0:1] and params[2:3] to the engine as they are
    g = named("petersen") if kind is ReducedEngine else trivial_aut_graph(12, 3, seed=2)
    ev = ScheduleEvaluator(g)
    assert isinstance(ev.engine, kind)
    rng = np.random.default_rng(23)
    for p in (1, 2, 5):
        for x in rng.random((4, 4)) * [BETA_MAX, BETA_MAX, GAMMA_MAX, GAMMA_MAX]:
            assert ev.ratio_of(p, x.tolist()).hex() == ev.ratio_of(p, x).hex()


def test_make_engine_reduces_star_above_16_vertices():
    # star(18) under S_17 and the flip: the center's side and the leaves on
    # the other side, 18 orbits where the full engine simulates 2^17 states
    g = star(18)
    eng = make_engine(g)
    assert isinstance(eng, ReducedEngine)
    assert len(eng.values) == 18
    full = Engine(maxcut_diagonal(g))
    rng = random.Random(22)
    for _ in range(5):
        sched = LinearSchedule(
            6, *(rng.uniform(0.0, hi) for hi in (math.pi, math.pi, 2 * math.pi, 2 * math.pi))
        )
        angles = sched.expand()
        want = full.expectation(angles.betas, angles.gammas)
        assert eng.expectation(angles.betas, angles.gammas) == pytest.approx(want, rel=1e-12)


def test_engines_agree_on_ratio():
    sched = LinearSchedule(2, 0.4, 0.2, 1.1, 0.5)
    g = named("petersen")
    reduced = approx_ratio(g, sched)
    angles = sched.expand()
    full = Engine(maxcut_diagonal(g)).expectation(angles.betas, angles.gammas)
    assert reduced == pytest.approx(full / max_cut_brute(g), abs=1e-11)
