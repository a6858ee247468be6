"""Symmetry-reduced QAOA evolution.

When the cost is constant on the orbits of a bitstring symmetry group, the
dynamics stay inside the span of the normalized orbit sums, so one amplitude
per orbit suffices. Two routes: a generic orbit basis built by explicit
enumeration (n <= BITSTRING_N_CAP), and a closed-form Hamming-weight ladder
for complete graphs at any n. Both assume the uniform initial state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import simulator
from .autgroup import (
    BITSTRING_N_CAP,
    ENUMERATION_CAP,
    BitstringGroup,
    BitstringOrbits,
    automorphism_generators,
    bitstring_orbits,
    cycle_counts,
    iter_element_blocks,
)
from .errors import InvalidParamsError, NotInvariantError, SizeLimitError
from .graphs import Graph
from .simulator import CostDiagonal, StateVector, _check_memory


def symmetry_group(g: Graph, include_flip: bool = False) -> BitstringGroup:
    return BitstringGroup(automorphism_generators(g), include_flip)


@dataclass(frozen=True, eq=False)
class QuotientCount:
    """Orbit count of the group action on all 2^n bitstrings, with whichever of
    the two counting routes was feasible: averaged fixed points over elements,
    and direct orbit enumeration."""

    dim: int
    group_order: int
    burnside_avg: int | None
    orbit_count: int | None
    fixed_counts: np.ndarray | None  # object dtype: exact ints of any size

    @property
    def routes_agree(self) -> bool:
        vals = {v for v in (self.burnside_avg, self.orbit_count) if v is not None}
        return len(vals) == 1


def _burnside_tally(grp: BitstringGroup) -> tuple[np.ndarray, int]:
    """Fixed bitstrings of every element, the bit permutations in the order of
    iter_element_blocks and then, with the flip, each of them composed with
    the flip, as an object array of exact ints filled block by block; and
    their exact sum.

    A permutation with c cycles fixes 2^c strings. Composed with the flip, an
    odd cycle forces a bit to differ from itself, so it fixes none unless all
    cycles are even, which is when P^2 has twice as many cycles as P. At odd
    n the cycle lengths sum to an odd number, so some cycle is odd: no
    flipped element fixes a string, and P^2 is not walked.
    """
    n = grp.perm_group.n
    squared = grp.include_flip and n % 2 == 0
    # 2^c for c cycles; the extra index n + 1 is a flipped element with an odd cycle
    pow2 = np.array([1 << c for c in range(n + 1)] + [0], dtype=object)
    counts = np.empty(grp.order(), dtype=object)
    hist = np.zeros(n + 2, dtype=np.int64)
    half, start = grp.perm_group.order(), 0  # the flipped elements start at half
    for block in iter_element_blocks(grp.perm_group):
        c, c2 = cycle_counts(block, squared)
        end = start + len(c)
        counts[start:end] = pow2[c]
        hist += np.bincount(c, minlength=n + 2)
        if grp.include_flip:
            f = np.full(len(c), n + 1) if c2 is None else np.where(2 * c == c2, c, n + 1)
            counts[half + start : half + end] = pow2[f]
            hist += np.bincount(f, minlength=n + 2)
        start = end
    return counts, sum(int(h) * p for h, p in zip(hist, pow2))


def quotient_dimension(grp: BitstringGroup) -> QuotientCount:
    """|B/A| for the bitstring action; exact integers throughout."""
    n = grp.perm_group.n
    order = grp.order()
    can_enumerate = order <= ENUMERATION_CAP
    can_orbit = n <= BITSTRING_N_CAP
    if not can_enumerate and not can_orbit:
        raise SizeLimitError(
            f"group order {order} exceeds {ENUMERATION_CAP} and n={n} exceeds {BITSTRING_N_CAP}"
        )
    burnside_avg = None
    fixed_counts = None
    if can_enumerate:
        fixed_counts, total = _burnside_tally(grp)
        if total % order:
            raise NotInvariantError("fixed-point total not divisible by group order")
        burnside_avg = total // order
    orbit_count = bitstring_orbits(grp).n_orbits if can_orbit else None
    dims = {v for v in (burnside_avg, orbit_count) if v is not None}
    if len(dims) != 1:
        raise NotInvariantError(f"counting routes disagree: {sorted(dims)}")
    return QuotientCount(
        dim=dims.pop(),
        group_order=order,
        burnside_avg=burnside_avg,
        orbit_count=orbit_count,
        fixed_counts=fixed_counts,
    )


def build_orbit_basis(
    g: Graph, include_flip: bool = False, cap: int | None = None
) -> BitstringOrbits | None:
    """Orbits of the bitstrings under Aut(g), and the flip if asked: orbit k is
    the basis vector |o_k> = sum over orbit k / sqrt(size), so n_orbits is the
    dimension. Refuses n > BITSTRING_N_CAP before the automorphism search.

    With a cap, returns None before labelling the 2^n bitstrings when 2^n >
    cap * |G|: no orbit has more than |G| members, so the dimension exceeds cap.
    """
    if g.n > BITSTRING_N_CAP:
        raise SizeLimitError(f"generic orbit basis needs n <= {BITSTRING_N_CAP}, got {g.n}")
    grp = BitstringGroup(automorphism_generators(g), include_flip)
    if cap is not None and (1 << g.n) > cap * grp.order():
        return None
    return bitstring_orbits(grp)


@dataclass(eq=False)
class ReducedOperators:
    """Cost, mixer, and initial state projected onto an orbit-sum basis."""

    cost_diag: np.ndarray
    mixer: np.ndarray
    init: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.cost_diag)


def reduce_operators(diag: CostDiagonal, basis: BitstringOrbits) -> ReducedOperators:
    """Project a cost diagonal onto the basis. The cost must be constant on every
    orbit; otherwise the group was not a symmetry of this cost.

    Mixer entry (k,l) is t * sqrt(s_k/s_l) where t counts the single-bit-flip
    neighbors of one orbit-k member landing in orbit l; symmetry of the result
    (s_k t_kl = s_l t_lk, hypercube edge counting) is enforced numerically.
    """
    if diag.n != basis.n:
        raise InvalidParamsError(f"diagonal n={diag.n}, basis n={basis.n}")
    labels, sizes, reps = basis.labels, basis.sizes, basis.reps
    values = diag.values
    if not np.array_equal(values, values[reps][labels]):
        raise NotInvariantError("cost is not constant on an orbit")
    dim = basis.n_orbits
    # transfer, ratio, mixer and their symmetrized sum: four d x d float64 arrays
    _check_memory(32 * dim * dim, f"the reduced operators of dimension {dim}")
    transfer = np.zeros((dim, dim), dtype=np.float64)
    neighbors = labels[reps[:, None] ^ (1 << np.arange(basis.n, dtype=np.int64))]
    np.add.at(transfer, (np.arange(dim)[:, None], neighbors), 1.0)
    ratio = np.sqrt(sizes.astype(np.float64)[:, None] / sizes.astype(np.float64)[None, :])
    mixer = transfer * ratio
    mixer = (mixer + mixer.T) / 2.0
    init = np.sqrt(sizes.astype(np.float64) / float(1 << basis.n))
    return ReducedOperators(values[reps].copy(), mixer, init)


def hamming_reduced_ops(n: int) -> ReducedOperators:
    """Complete-graph fast path: the (n+1)-dimensional Hamming-weight ladder.

    The mixer couples adjacent weights with sqrt((d+1)(n-d)), the cut value
    depends only on the weight, f(d) = n*d - d^2, and the uniform state has
    binomial weights.
    """
    if n < 1:
        raise InvalidParamsError(f"need n >= 1, got {n}")
    d = np.arange(n + 1, dtype=np.float64)
    cost = n * d - d * d
    mixer = np.zeros((n + 1, n + 1), dtype=np.float64)
    off = np.sqrt((d[:-1] + 1.0) * (n - d[:-1]))
    idx = np.arange(n)
    mixer[idx, idx + 1] = off
    mixer[idx + 1, idx] = off
    init = np.sqrt(np.array([math.comb(n, k) / 2**n for k in range(n + 1)]))
    return ReducedOperators(cost, mixer, init)


class ReducedEngine:
    """Reusable reduced-space simulator with the protocol of simulator.Engine;
    values holds the cost of every orbit, and the mixer eigendecomposition is
    computed once and shared across angle evaluations; the mixer is not kept.

    A layer is the phase exp(-i gamma values), then V exp(-i beta w) V^T with
    the real eigenvectors V. numpy multiplies a real matrix into a complex
    vector through a C-contiguous complex copy of it, so V and V^T are cast
    here once, in that layout, and every product rounds as that per-layer
    cast did (an F-order copy would not). They take 32 d^2 bytes, 32 MB at
    d = 1024. One exp gives every layer's phase per distinct cost level, and
    one more every layer's mixer eigenphases, 16 p (levels + d) bytes a row.
    """

    def __init__(self, ops: ReducedOperators):
        self.values = ops.cost_diag
        # the real eigenvectors V (8 bytes an entry) and its two complex copies (16 each)
        _check_memory(40 * ops.dim * ops.dim, f"the reduced engine of dimension {ops.dim}")
        w, v = np.linalg.eigh(ops.mixer)
        self._w = w.astype(np.complex128)
        self._v = np.ascontiguousarray(v).astype(np.complex128)
        self._vt = np.ascontiguousarray(v.T).astype(np.complex128)
        self._init = ops.init.astype(np.complex128)
        levels, self._level_of = np.unique(self.values, return_inverse=True)
        self._levels = levels.astype(np.complex128)

    def run(self, betas, gammas) -> np.ndarray:
        """Amplitudes of one schedule, (d,) from betas and gammas of shape
        (p,), or of R schedules at once, (R, d) from rows of shape (R, p).

        The amplitudes are kept as columns, so each product is V times a
        column, broadcast over the rows: numpy makes one gemv call per row,
        the call a single schedule makes, and every row rounds as it would
        alone (a row-major amps @ V.T would be one gemm, which does not).
        """
        betas = np.asarray(betas, dtype=np.float64)
        gammas = np.asarray(gammas, dtype=np.float64)
        if betas.shape != gammas.shape:
            raise InvalidParamsError("betas and gammas must have equal length")
        # every layer's phase per cost level, (..., p, levels), and mixer
        # eigenphase, (..., p, d), each in one exp
        phases = np.multiply.outer(-1j * gammas, self._levels)
        np.exp(phases, out=phases)
        mixers = np.multiply.outer(-1j * betas, self._w)
        np.exp(mixers, out=mixers)
        amps = np.broadcast_to(self._init[:, None], betas.shape[:-1] + (len(self._init), 1))
        for layer in range(betas.shape[-1]):
            phase = phases[..., layer, self._level_of, None]
            amps = self._v @ (mixers[..., layer, :, None] * (self._vt @ (amps * phase)))
        return amps[..., 0]

    def expectations(self, betas_rows, gammas_rows) -> list[float]:
        """<f> of each row of schedules, as expectation gives it for that row
        alone; one schedule (p,) gives one float. Rows of shape (R, p) run in
        chunks that fit MEMORY_BUDGET, at least one row a chunk: for each row,
        run holds 96 + 32 p bytes an orbit (its batch arrays and exp tables)."""
        betas = np.asarray(betas_rows, dtype=np.float64)
        gammas = np.asarray(gammas_rows, dtype=np.float64)
        chunk = max(1, simulator.MEMORY_BUDGET // ((96 + 32 * betas.shape[-1]) * len(self.values)))
        if betas.ndim == 2 and len(betas) > chunk:
            values = []
            for lo in range(0, len(betas), chunk):
                values += self.expectations(betas[lo : lo + chunk], gammas[lo : lo + chunk])
            return values
        amps = self.run(betas, gammas)
        probs = amps.real**2 + amps.imag**2
        # one dot call a row, the call the 1-d product probs @ values makes
        return np.matmul(probs[..., None, :], self.values)[..., 0].tolist()

    def expectation(self, betas, gammas) -> float:
        return self.expectations(betas, gammas)


def lift(amplitudes: np.ndarray, basis: BitstringOrbits) -> StateVector:
    """Expand reduced amplitudes to the full space: every orbit member receives
    a_k / sqrt(|orbit_k|)."""
    if len(amplitudes) != basis.n_orbits:
        raise InvalidParamsError(f"expected {basis.n_orbits} amplitudes, got {len(amplitudes)}")
    per_member = np.asarray(amplitudes, dtype=np.complex128) / np.sqrt(
        basis.sizes.astype(np.float64)
    )
    return StateVector(basis.n, per_member[basis.labels])
