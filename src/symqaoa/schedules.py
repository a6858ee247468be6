"""Linear angle schedules, their multistart optimization, and the search for the
smallest depth reaching a target approximation ratio.

A schedule is four numbers: the first and last beta and gamma; intermediate
layers interpolate linearly. Optimization is Nelder-Mead over that 4-box from
seeded random starts.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import optimize, simulator
from .autgroup import BITSTRING_N_CAP
from .errors import InvalidParamsError, SizeLimitError
from .graphs import Graph
from .reduced import (
    ReducedEngine,
    build_orbit_basis,
    hamming_reduced_ops,
    reduce_operators,
)
from .simulator import MAX_QUBITS, Angles, Engine, _check_memory, cut_counts, maxcut_diagonal

BETA_MAX = math.pi
GAMMA_MAX = 2.0 * math.pi
_BOX_HI = np.array([BETA_MAX, BETA_MAX, GAMMA_MAX, GAMMA_MAX])

REDUCED_DIM_CAP = 1024
DEPTH_CAP = 1000  # largest depth of a schedule, a search or verify's random angles


def _check_count(what: str, value) -> None:
    """Raise InvalidParamsError unless value is an int >= 1 (bools are not)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise InvalidParamsError(f"{what} must be an integer >= 1, got {value!r}")


def check_depth(p) -> None:
    """Raise InvalidParamsError unless p is an int >= 1 (bools are not), and
    SizeLimitError if it exceeds DEPTH_CAP."""
    _check_count("depth", p)
    if p > DEPTH_CAP:
        raise SizeLimitError(f"depth must be <= {DEPTH_CAP}, got {p}")


@dataclass(frozen=True)
class LinearSchedule:
    """Depth p and four endpoints, checked when built (see check_depth)."""

    p: int
    beta_start: float
    beta_end: float
    gamma_start: float
    gamma_end: float

    def __post_init__(self):
        check_depth(self.p)
        for v in self.endpoints():
            if not isinstance(v, numbers.Real) or isinstance(v, bool) or not math.isfinite(v):
                raise InvalidParamsError(f"schedule endpoints must be finite numbers, got {v!r}")

    def endpoints(self) -> tuple[float, float, float, float]:
        return (self.beta_start, self.beta_end, self.gamma_start, self.gamma_end)

    def expand(self) -> Angles:
        """Per-layer angles; p = 1 uses the start values alone."""
        return Angles(*layer_angles(self.p, self.endpoints()))


def layer_angles(p: int, params) -> tuple:
    """Per-layer (betas, gammas) of the linear schedule whose endpoints are
    params = (beta_start, beta_end, gamma_start, gamma_end); p = 1 uses the
    start values alone. For p >= 2 each list is np.linspace(start, end, p) bit
    for bit, from numpy's own formula in Python floats (no arrays to build)."""
    if p == 1:
        return params[0:1], params[2:3]
    return _linspace(params[0], params[1], p), _linspace(params[2], params[3], p)


def _linspace(start, stop, p: int) -> list[float]:
    start, stop = float(start), float(stop)
    delta = stop - start
    step = delta / (p - 1)
    if step == 0:  # numpy's path for a step that underflows to zero
        out = [k / (p - 1) * delta + start for k in range(p)]
    else:
        out = [k * step + start for k in range(p)]
    out[-1] = stop
    return out


def max_cut_brute(g: Graph) -> int:
    """Exact maximum cut; vertex n-1 is pinned to side 0 (complement symmetry)."""
    if g.n > MAX_QUBITS:
        raise SizeLimitError(f"brute force needs n <= {MAX_QUBITS}, got {g.n}")
    total = 1 << max(g.n - 1, 0)
    best = 0
    chunk = 1 << 22
    for lo in range(0, total, chunk):
        cuts = cut_counts(g, np.arange(lo, min(lo + chunk, total), dtype=np.int64))
        best = max(best, int(cuts.max()))
    return best


def make_engine(g: Graph):
    """Exact evaluator for a graph: the Hamming ladder for complete graphs,
    the orbit basis when n <= BITSTRING_N_CAP and it has at most
    REDUCED_DIM_CAP orbits, else the full statevector. The rule reads the
    dimension alone and compares no costs: at d >= 512 the orbit basis took
    3-11x the full statevector's time per evaluation."""
    if g.n >= 2 and g.m == g.n * (g.n - 1) // 2:  # complete
        return ReducedEngine(hamming_reduced_ops(g.n))
    if g.n <= BITSTRING_N_CAP:
        basis = build_orbit_basis(g, include_flip=True, cap=REDUCED_DIM_CAP)
        if basis is not None and basis.n_orbits <= REDUCED_DIM_CAP:
            return ReducedEngine(reduce_operators(maxcut_diagonal(g), basis))
    return Engine(maxcut_diagonal(g))


class ScheduleEvaluator:
    """Engine plus exact optimum for one graph, reused across many schedules.

    Every cut value is an entry of the engine's values (reduce_operators checks
    that the cost is constant on each orbit), so the optimum is their maximum.
    """

    def __init__(self, g: Graph):
        if g.m == 0:
            raise InvalidParamsError("graph has no edges; approximation ratio undefined")
        if g.n > MAX_QUBITS:
            raise SizeLimitError(f"exact evaluation needs n <= {MAX_QUBITS}, got {g.n}")
        self.graph = g
        self.engine = make_engine(g)
        self.optimum = int(self.engine.values.max())

    def ratio_of(self, p: int, params) -> float:
        return self.engine.expectation(*layer_angles(p, params)) / self.optimum

    def ratios_of(self, p: int, points) -> list[float]:
        """ratio_of for each point, in one call to the engine's expectations."""
        rows = [layer_angles(p, x) for x in points]
        values = self.engine.expectations([b for b, _ in rows], [g for _, g in rows])
        return [v / self.optimum for v in values]


def approx_ratio(g: Graph, schedule: LinearSchedule) -> float:
    return ScheduleEvaluator(g).ratio_of(schedule.p, schedule.endpoints())


def _initial_simplex(x0: np.ndarray) -> np.ndarray:
    simplex = np.tile(x0, (5, 1))
    for j in range(4):
        step = 0.15 if x0[j] + 0.15 <= _BOX_HI[j] else -0.15
        simplex[j + 1, j] += step
    return simplex


def optimize_linear(
    ev: ScheduleEvaluator, p: int, restarts: int, seed=None
) -> tuple[LinearSchedule, float]:
    """Best depth-p linear schedule for the evaluator's graph over seeded
    Nelder-Mead restarts.

    Deterministic for a fixed seed; the winner is the strictly best final
    ratio, ties going to the earliest restart, and the returned ratio is
    re-evaluated exactly at the returned schedule. The restarts run in
    lockstep (optimize.lockstep); each restart visits the points it would
    visit alone, so the result is that of running them one by one.
    """
    _check_count("restarts", restarts)
    check_depth(p)
    # the drawn table and its scaled copy, 4 float64 a restart each
    _check_memory(64 * restarts, f"the start points of {restarts} restarts")
    rng = np.random.default_rng(seed)
    starts = rng.random((restarts, 4)) * _BOX_HI

    def objective(points: list) -> list[float]:
        return [-r for r in ev.ratios_of(p, points)]

    # the restarts run in lockstep, in groups that fit the budget; each holds
    # its generator (about 3.7 KB) and its row of the batch arrays (about 96
    # bytes an engine value) and of the per-layer exp tables (at most 32 p
    # bytes an engine value)
    group = max(1, simulator.MEMORY_BUDGET // (4096 + (96 + 32 * p) * len(ev.engine.values)))
    results = []
    for lo in range(0, restarts, group):
        runs = [
            optimize.nelder_mead(_initial_simplex(x0), _BOX_HI, fatol=1e-6, maxfev=500)
            for x0 in starts[lo : lo + group]
        ]
        results += optimize.lockstep(runs, objective)
    best_x = None
    best_val = -math.inf
    for res in results:
        val = -res.fun
        if val > best_val:
            best_val = val
            best_x = res.x
    # a shrink cut short by maxfev can leave res.fun stale, so evaluate again
    return LinearSchedule(p, *best_x), ev.ratio_of(p, best_x)


class TraceEntry(NamedTuple):
    p: int
    ratio: float
    schedule: LinearSchedule


@dataclass(frozen=True)
class PminOutcome:
    """Outcome of the depth search: the smallest depth whose optimized ratio
    reached the target, or p_min None and censored when the cap was exhausted."""

    p_min: int | None
    censored: bool
    ratio_achieved: float
    best_schedule: LinearSchedule
    optimum_cut: int

    def __post_init__(self):
        if self.censored != (self.p_min is None):
            raise InvalidParamsError(f"censored flag {self.censored} contradicts p_min {self.p_min}")


@dataclass(frozen=True)
class PminResult(PminOutcome):
    """The outcome plus the best ratio and schedule at each depth scanned."""

    trace: tuple[TraceEntry, ...]


@dataclass(frozen=True, kw_only=True)
class SearchSettings:
    """The settings of the depth search, which define every p_min it reports:
    the target ratio, the depth range p_start..p_cap and the Nelder-Mead
    restarts per depth. Building one checks that the target is positive and
    finite, that p_start and restarts are integers >= 1 (bools are not) and
    p_start <= p_cap (InvalidParamsError), and that p_cap <= DEPTH_CAP
    (SizeLimitError)."""

    target_ratio: float = 0.95
    p_start: int = 2
    p_cap: int = 25
    restarts: int = 50

    def __post_init__(self):
        if not (0 < self.target_ratio < math.inf):
            raise InvalidParamsError(
                f"target ratio must be positive and finite, got {self.target_ratio}"
            )
        _check_count("p_start", self.p_start)
        _check_count("restarts", self.restarts)
        if self.p_cap < self.p_start:
            raise InvalidParamsError(f"bad depth range [{self.p_start}, {self.p_cap}]")
        check_depth(self.p_cap)

    @property
    def search(self) -> "SearchSettings":
        """These settings alone, without the fields of a subclass."""
        return SearchSettings(**{f.name: getattr(self, f.name) for f in fields(SearchSettings)})


def find_pmin(g: Graph, search: SearchSettings = SearchSettings(), seed=None) -> PminResult:
    """Scan depths search.p_start..search.p_cap until the optimized ratio meets
    search.target_ratio.

    Each depth draws an independent seed stream keyed by p, so results for one
    depth do not depend on where the scan started. A finite target above 1 is
    allowed and simply censors (no ratio can exceed 1).
    """
    entropy = np.random.SeedSequence(seed).entropy
    ev = ScheduleEvaluator(g)
    trace: list[TraceEntry] = []
    for p in range(search.p_start, search.p_cap + 1):
        child = np.random.SeedSequence(entropy=entropy, spawn_key=(p,))
        schedule, ratio = optimize_linear(ev, p, search.restarts, child)
        trace.append(TraceEntry(p, ratio, schedule))
        if ratio >= search.target_ratio:
            return PminResult(p, False, ratio, schedule, ev.optimum, tuple(trace))
    best = max(trace, key=lambda t: t.ratio)
    return PminResult(None, True, best.ratio, best.schedule, ev.optimum, tuple(trace))


def trace_csv(result: PminResult) -> str:
    lines = ["p,best_ratio,beta_start,beta_end,gamma_start,gamma_end"]
    for entry in result.trace:
        s = entry.schedule
        lines.append(
            f"{entry.p},{entry.ratio!r},{s.beta_start!r},{s.beta_end!r},"
            f"{s.gamma_start!r},{s.gamma_end!r}"
        )
    return "\n".join(lines) + "\n"
