"""Full-statevector QAOA simulation for diagonal cost functions.

Bit convention, used everywhere including file formats: bit j of an integer
index is variable/qubit/vertex j, least significant bit = vertex 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .autgroup import BitstringOrbits
from .errors import InvalidParamsError, NotBijectionError, SizeLimitError
from .graphs import Graph

MAX_QUBITS = 26
CONDITION_N_CAP = 16  # largest n check_symmetry_conditions tests (n * 2^n neighbor tables)
# bytes one engine or cost diagonal may allocate; SizeLimitError above it
MEMORY_BUDGET = 3 << 30


@dataclass(frozen=True, eq=False)
class CostDiagonal:
    """Diagonal cost operator: values[x] = f(x)."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.shape != (1 << self.n,):
            raise InvalidParamsError(
                f"diagonal needs 2^{self.n} entries, got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise InvalidParamsError("diagonal values must be finite")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized amplitude vector over 2^n basis states."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "amplitudes", np.asarray(self.amplitudes, dtype=np.complex128)
        )
        if self.amplitudes.shape != (1 << self.n,):
            raise InvalidParamsError(
                f"state needs 2^{self.n} amplitudes, got {self.amplitudes.shape}"
            )
        norm = float((self.amplitudes.real**2 + self.amplitudes.imag**2).sum())
        if abs(norm - 1.0) > 1e-12:
            raise InvalidParamsError(f"state norm^2 = {norm!r}, expected 1")


def check_layers(betas, gammas) -> None:
    """InvalidParamsError unless there is one beta per gamma."""
    if len(betas) != len(gammas):
        raise InvalidParamsError("betas and gammas must have equal length")


@dataclass(frozen=True)
class Angles:
    """One (beta, gamma) pair per layer."""

    betas: tuple[float, ...]
    gammas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        check_layers(self.betas, self.gammas)
        if not self.betas:
            raise InvalidParamsError("need at least one layer")
        if not all(math.isfinite(v) for v in self.betas + self.gammas):
            raise InvalidParamsError("angles must be finite")

    @property
    def p(self) -> int:
        return len(self.betas)


def format_bitstring(x: int, n: int) -> str:
    """Character i = bit i = vertex i (LSB first)."""
    return "".join("1" if (x >> i) & 1 else "0" for i in range(n))


def cut_counts(g: Graph, x: np.ndarray) -> np.ndarray:
    """Number of edges cut by each assignment in the int64 array x."""
    cuts = np.zeros(len(x), dtype=np.int64)
    for u, v in g.edges:
        cuts += ((x >> u) ^ (x >> v)) & 1
    return cuts


def _check_memory(nbytes: int, what: str) -> None:
    if nbytes > MEMORY_BUDGET:
        raise SizeLimitError(
            f"{what} needs {nbytes / 2**30:.2f} GiB, above the "
            f"{MEMORY_BUDGET / 2**30:.2f} GiB budget"
        )


def maxcut_diagonal(g: Graph) -> CostDiagonal:
    """values[x] = number of edges cut by the assignment x."""
    if g.n > MAX_QUBITS:
        raise SizeLimitError(f"statevector path needs n <= {MAX_QUBITS}, got {g.n}")
    # indices, counts and two per-edge shifts, 8 bytes each
    _check_memory(32 << g.n, f"the cut diagonal of n={g.n}")
    cuts = cut_counts(g, np.arange(1 << g.n, dtype=np.int64))
    return CostDiagonal(g.n, cuts.astype(np.float64))


class Engine:
    """Reusable simulator bound to one cost diagonal; buffers are allocated once
    so repeated evaluations (optimizer inner loop) do not churn memory. Not safe
    for concurrent use of a single instance. Shares run, expectation,
    expectations and values (the cost of every basis state) with
    reduced.ReducedEngine.

    A cost with f(x) = f(~x), such as every MaxCut cost, keeps a[x] = a[~x] from
    the uniform start, so only the states with the top bit clear are simulated;
    the top qubit's mixer then pairs x with ~x, the reversed half. Every
    amplitude gets (a * c) + (a_partner * ms), so the halved and full layouts
    give bit-identical amplitudes.
    """

    def __init__(self, diag: CostDiagonal):
        self.n = diag.n
        self.size = 1 << diag.n
        self.values = diag.values
        # numpy multiplies one-element complex arrays in a scalar loop that
        # rounds unlike its vector loop, so n = 1 keeps both states
        self._halved = diag.n > 1 and np.array_equal(diag.values, diag.values[::-1])
        sim = self.size // 2 if self._halved else self.size
        # state, phase and scratch (48 bytes a simulated state), integer costs
        # (8) and the probabilities expectation builds (up to 32)
        _check_memory(88 * sim, f"the statevector engine for n={self.n}")
        self._values = diag.values[:sim]
        rounded = np.rint(self._values)
        if np.array_equal(rounded, self._values) and rounded.min() >= 0:
            # integer costs: per-layer phases come from a small power table
            self._int_costs = rounded.astype(np.int64)
            self._fmax = int(self._int_costs.max())
        else:
            self._int_costs = None
            self._fmax = 0
        self._state = np.empty(sim, dtype=np.complex128)
        self._phase = np.empty(sim, dtype=np.complex128)
        self._buf = np.empty(sim, dtype=np.complex128)
        # (partner of every amplitude, matching scratch view), one per qubit
        self._pairs = []
        for j in range(self.n - 1 if self._halved else self.n):
            shape = (-1, 2, 1 << j)
            self._pairs.append(
                (self._state.reshape(shape)[:, ::-1, :], self._buf.reshape(shape))
            )
        if self._halved:
            self._pairs.append((self._state[::-1], self._buf))

    def _apply_phase(self, gamma: float) -> None:
        if self._int_costs is not None:
            table = np.exp(-1j * gamma) ** np.arange(self._fmax + 1)
            np.take(table, self._int_costs, out=self._phase)
        else:
            np.multiply(self._values, -1j * gamma, out=self._phase)
            np.exp(self._phase, out=self._phase)
        self._state *= self._phase

    def _apply_mixer(self, beta: float) -> None:
        c = math.cos(beta)
        ms = -1j * math.sin(beta)
        for partner, out in self._pairs:
            np.multiply(partner, ms, out=out)
            self._state *= c
            self._state += self._buf

    def run(self, betas, gammas) -> np.ndarray:
        """Simulated amplitudes in the engine's internal buffer (no copy): the
        states with the top bit clear when the cost is flip-symmetric, else all
        2^n."""
        check_layers(betas, gammas)
        self._state.fill(1.0 / math.sqrt(self.size))
        for beta, gamma in zip(betas, gammas):
            self._apply_phase(gamma)
            self._apply_mixer(beta)
        return self._state

    def _unfold(self, x: np.ndarray) -> np.ndarray:
        """All 2^n entries, in a new array, from the simulated ones."""
        return np.concatenate((x, x[::-1]) if self._halved else (x,))

    def statevector(self, angles: Angles) -> StateVector:
        return StateVector(self.n, self._unfold(self.run(angles.betas, angles.gammas)))

    def expectation(self, betas, gammas) -> float:
        amps = self.run(betas, gammas)
        return float(self._unfold(amps.real**2 + amps.imag**2) @ self.values)

    def expectations(self, betas_rows, gammas_rows) -> list[float]:
        """<f> of each row of schedules, one at a time: stacked rows made
        this engine slower at n >= 12."""
        return [self.expectation(b, g) for b, g in zip(betas_rows, gammas_rows)]


def probabilities(state: StateVector) -> np.ndarray:
    amps = state.amplitudes
    return amps.real**2 + amps.imag**2


def expectation(state: StateVector, diag: CostDiagonal) -> float:
    if state.n != diag.n:
        raise InvalidParamsError(f"state has n={state.n}, diagonal n={diag.n}")
    return float(probabilities(state) @ diag.values)


class OrbitSpread(NamedTuple):
    probability: float
    amplitude: float


def orbit_spread(state: StateVector, orbits: BitstringOrbits) -> OrbitSpread:
    """Worst within-orbit disagreement: max over orbits of (max - min) measurement
    probability, and the largest modulus of an amplitude's deviation from its
    orbit's first member (equal amplitudes, not just probabilities, are expected
    when evolution starts from the uniform state).
    """
    if orbits.n != state.n:
        raise InvalidParamsError(f"orbits are over n={orbits.n}, state has n={state.n}")
    labels, reps = orbits.labels, orbits.reps
    probs = probabilities(state)
    hi, lo = probs[reps], probs[reps]
    np.maximum.at(hi, labels, probs)
    np.minimum.at(lo, labels, probs)
    amps = state.amplitudes
    return OrbitSpread(float((hi - lo).max()), float(np.abs(amps - amps[reps][labels]).max()))


class SymmetryFlags(NamedTuple):
    cost_commutes: bool
    mixer_commutes: bool


def check_symmetry_conditions(mapping, diag: CostDiagonal) -> SymmetryFlags:
    """Test a bitstring bijection a(x) for the two commutation conditions: the
    cost is constant along a, and a maps j-bit-flip neighbors onto bit-flip
    neighbors (as sets). Together they make the evolution orbit-invariant.
    """
    n = diag.n
    if n > CONDITION_N_CAP:
        raise SizeLimitError(f"symmetry condition check needs n <= {CONDITION_N_CAP}, got {n}")
    size = 1 << n
    a = np.asarray(mapping, dtype=np.int64)
    if a.shape != (size,) or not np.array_equal(np.sort(a), np.arange(size)):
        raise NotBijectionError(f"mapping is not a bijection on {{0..{size - 1}}}")
    cost_ok = bool(np.array_equal(diag.values[a], diag.values))
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    x = np.arange(size, dtype=np.int64)
    image_of_neighbors = np.sort(a[x[:, None] ^ bits[None, :]], axis=1)
    neighbors_of_image = np.sort(a[:, None] ^ bits[None, :], axis=1)
    mixer_ok = bool(np.array_equal(image_of_neighbors, neighbors_of_image))
    return SymmetryFlags(cost_ok, mixer_ok)


def probability_rows(state: StateVector):
    """'bitstring,probability' header and one line per basis state, for plotting."""
    probs = probabilities(state)
    yield "bitstring,probability\n"
    for x in range(1 << state.n):
        yield f"{format_bitstring(x, state.n)},{float(probs[x])!r}\n"
