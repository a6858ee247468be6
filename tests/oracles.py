"""Hand-rolled reference implementations that the tests trust instead of the
package code. Everything favors obviousness over speed: dense kron matrices,
pure-Python bit loops, brute-force permutation scans, and scipy's Nelder-Mead
(the only use of scipy left). Nothing here imports the package.
"""

import itertools
import math

import numpy as np
from scipy import optimize as scipy_optimize


def cut_value(n, edges, x: int) -> int:
    """Number of edges with endpoints on opposite sides of assignment x."""
    total = 0
    for u, v in edges:
        if ((x >> u) & 1) != ((x >> v) & 1):
            total += 1
    return total


def cost_vector(n, edges) -> np.ndarray:
    return np.array([cut_value(n, edges, x) for x in range(2**n)], dtype=float)


def brute_maxcut(n, edges) -> int:
    return max(cut_value(n, edges, x) for x in range(2**n))


def dense_evolve(n, edges, betas, gammas) -> np.ndarray:
    """Statevector after the alternating phase/mixer circuit, built from explicit
    2^n x 2^n matrices. The mixer is the n-fold kron of one X rotation; factor
    order does not matter because every qubit gets the same angle."""
    dim = 2**n
    state = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    costs = cost_vector(n, edges)
    eye = np.eye(2, dtype=complex)
    x_gate = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    for beta, gamma in zip(betas, gammas):
        state = np.exp(-1j * gamma * costs) * state
        rot = math.cos(beta) * eye - 1j * math.sin(beta) * x_gate
        full = np.array([[1.0]], dtype=complex)
        for _ in range(n):
            full = np.kron(full, rot)
        state = full @ state
    return state


def closed_form_edge(beta, gamma) -> float:
    """Expected cut of the single-edge graph at depth 1."""
    return 0.5 + 0.5 * math.sin(4.0 * beta) * math.sin(gamma)


def circular_ladder_edges(k) -> tuple[int, list[tuple[int, int]]]:
    """Prism on 2k vertices: rails 0..k-1 and k..2k-1, rungs i-(k + i), and the
    two edges that close the rails into cycles; edges sorted with u < v."""
    edges = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    edges += [(i, k + i) for i in range(k)] + [(0, k - 1), (k, 2 * k - 1)]
    return 2 * k, sorted(edges)


def brute_automorphisms(n, edges) -> list[tuple[int, ...]]:
    """All vertex permutations preserving the edge set; n <= 8 or so."""
    edge_set = {frozenset(e) for e in edges}
    out = []
    for perm in itertools.permutations(range(n)):
        mapped = {frozenset((perm[u], perm[v])) for u, v in edges}
        if mapped == edge_set:
            out.append(perm)
    return out


def orbit_partition(size, maps) -> list[list[int]]:
    """Orbits of {0..size-1} under the closure of the given index maps."""
    seen = [False] * size
    orbits = []
    for start in range(size):
        if seen[start]:
            continue
        orbit = []
        stack = [start]
        seen[start] = True
        while stack:
            x = stack.pop()
            orbit.append(x)
            for m in maps:
                y = int(m[x])
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        orbits.append(sorted(orbit))
    return orbits


def bit_permutation_map(n, perm) -> list[int]:
    """Index map of the bitstring action: bit at position i moves to perm[i]."""
    out = []
    for x in range(2**n):
        y = 0
        for i in range(n):
            if (x >> i) & 1:
                y |= 1 << perm[i]
        out.append(y)
    return out


def burnside_count(n, perms, with_flip: bool) -> float:
    """Average number of fixed bitstrings over the group elements, the slow way."""
    total = 0
    elements = 0
    for perm in perms:
        amap = bit_permutation_map(n, perm)
        total += sum(1 for x in range(2**n) if amap[x] == x)
        elements += 1
        if with_flip:
            full = 2**n - 1
            total += sum(1 for x in range(2**n) if (full ^ amap[x]) == x)
            elements += 1
    return total / elements


def cycle_lengths(perm) -> list[int]:
    """Lengths of the cycles of a permutation in image notation."""
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        out.append(length)
    return out


def fixed_bitstring_count(perm, flipped: bool = False) -> int:
    """|{x : a(x) = x}| for the bit action of perm, optionally composed with the
    global flip. A plain permutation fixes 2^(#cycles) strings; with the flip a
    cycle of odd length forces x_i != x_i, so any odd cycle kills all of them.
    """
    cycles = cycle_lengths(perm)
    if flipped and any(length % 2 for length in cycles):
        return 0
    return 1 << len(cycles)


# The Schreier-Sims oracle stores permutations as 256-byte translate tables
# with an identity tail: compose(a, b) is then b.translate(a), and the padding
# is closed under composition.
_IDENT256 = bytes(range(256))


def _as_table(perm) -> bytes:
    return bytes(perm) + _IDENT256[len(perm):]


def _inv_table(a: bytes) -> bytes:
    inv = np.empty(256, dtype=np.uint8)
    inv[np.frombuffer(a, dtype=np.uint8)] = np.arange(256, dtype=np.uint8)
    return inv.tobytes()


def _orbit_transversal(gens, point) -> dict[int, bytes]:
    """Each point of the orbit of point under gens, mapped to a table that
    takes point to it, in breadth-first order."""
    reps = {point: _IDENT256}
    queue = [point]
    for x in queue:
        for s in gens:
            y = s[x]
            if y not in reps:
                reps[y] = reps[x].translate(s)
                queue.append(y)
    return reps


class StabilizerChain:
    """Deterministic incremental Schreier-Sims, from arbitrary generators.

    Level i stores generators fixing base[:i] pointwise and the transversal of
    base[i] under them. _complete(i) sifts every (deduplicated) Schreier
    generator of level i through the lower chain, pushing residues down and
    repairing deepest-first, which keeps the level-i orbit frozen during its
    own scan.
    """

    def __init__(self, n: int, generators):
        self.n = n
        self.base: list[int] = []
        self.sgens: list[list[bytes]] = []
        self.trans: list[dict[int, bytes]] = []
        self.trans_inv: list[dict[int, bytes]] = []
        self._inv_cache: dict[bytes, bytes] = {}
        gens = [t for t in dict.fromkeys(_as_table(g) for g in generators) if t != _IDENT256]
        if gens:
            b0 = min(i for g in gens for i in range(n) if g[i] != i)
            self.base.append(b0)
            self.sgens.append(gens)
            self.trans.append({})
            self.trans_inv.append({})
            self._complete(0)

    def order(self) -> int:
        return math.prod(len(t) for t in self.trans)

    def strong_generators(self) -> tuple[tuple[int, ...], ...]:
        """Every level's generators, once each, as tuples of degree n."""
        tables = dict.fromkeys(t for level in self.sgens for t in level)
        return tuple(tuple(t[: self.n]) for t in tables)

    def contains(self, perm) -> bool:
        if len(perm) != self.n:
            return False
        residue, _ = self._strip(_as_table(perm), 0)
        return residue == _IDENT256

    def _strip(self, g: bytes, start: int) -> tuple[bytes, int]:
        for level in range(start, len(self.base)):
            x = g[self.base[level]]
            rep_inv = self.trans_inv[level].get(x)
            if rep_inv is None:
                return g, level
            g = g.translate(rep_inv)
        return g, len(self.base)

    def _complete(self, i: int) -> None:
        gens_i = self.sgens[i]
        orbit = _orbit_transversal(gens_i, self.base[i])
        self.trans[i] = orbit
        cache = self._inv_cache
        for u in orbit.values():
            if u not in cache:
                cache[u] = _inv_table(u)
        inv_at = {x: cache[u] for x, u in orbit.items()}
        self.trans_inv[i] = inv_at
        seen: set[bytes] = set()
        for x in sorted(orbit):
            ux = orbit[x]
            for s in gens_i:
                sg = ux.translate(s).translate(inv_at[s[x]])
                if sg == _IDENT256 or sg in seen:
                    continue
                seen.add(sg)
                residue, j = self._strip(sg, i + 1)
                if residue == _IDENT256:
                    continue
                if j == len(self.base):
                    self.base.append(min(k for k in range(self.n) if residue[k] != k))
                    self.sgens.append([])
                    self.trans.append({})
                    self.trans_inv.append({})
                for level in range(i + 1, j + 1):
                    self.sgens[level].append(residue)
                for level in range(j, i, -1):
                    self._complete(level)
                # sgens[i] is untouched, so the level-i orbit and the already
                # verified Schreier generators remain valid; keep scanning.


def schreier_sims(n, gens) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """A base of the group generated by gens and a strong generating set
    relative to it."""
    chain = StabilizerChain(n, gens)
    return tuple(chain.base), chain.strong_generators()


def element_tuples(blocks):
    """Each row of each block of image tables, as a Perm tuple, in order."""
    for block in blocks:
        yield from map(tuple, block.tolist())


def chain_product_elements(grp) -> list[tuple[int, ...]]:
    """Every element of a permutation group, one at a time: the products of
    one transversal representative per level (256-byte translate tables from
    grp.levels), level 0 varying fastest and the deepest level slowest.
    """
    reps = [list(t.values()) for t in grp.levels]

    def products(level: int):
        if level == len(reps):
            yield bytes(range(256))
            return
        for suffix in products(level + 1):
            for u in reps[level]:
                # table of u composed after suffix: result[i] = u[suffix[i]]
                yield suffix.translate(u)

    return [tuple(table[: grp.n]) for table in products(0)]


def burnside_fixed_counts(grp, flip: bool) -> tuple[int, ...]:
    """Fixed bitstrings of every element in chain_product_elements order, then,
    with the flip, of every element composed with the flip."""
    elements = chain_product_elements(grp)
    counts = [fixed_bitstring_count(perm) for perm in elements]
    if flip:
        counts += [fixed_bitstring_count(perm, flipped=True) for perm in elements]
    return tuple(counts)


def deletion_pairs(m, cap, seed) -> list[tuple[int, int]]:
    """Every edge-index pair (i, j), i < j, listed in full; above cap pairs, a
    seeded sample of cap of them, kept in list order."""
    pairs = list(itertools.combinations(range(m), 2))
    if len(pairs) > cap:
        keep = np.random.default_rng(seed).choice(len(pairs), size=cap, replace=False)
        pairs = [pairs[i] for i in sorted(keep)]
    return pairs


def deletion_average_each(g, depth, seed, cap, exact) -> tuple[float, float, float]:
    """Mean of exact(g minus S) over the single edges S of g (depth 1) or the
    deletion_pairs (depth 2), one deletion at a time, each searched on its
    own. exact is the one-graph measure, passed in so that nothing here
    imports the package."""
    if depth == 1:
        variants = [[e] for e in g.edges]
    else:
        variants = [[g.edges[i], g.edges[j]] for i, j in deletion_pairs(len(g.edges), cap, seed)]
    total = np.zeros(3)
    for removed in variants:
        total += exact(g.delete_edges(removed))
    mean = total / len(variants)
    return float(mean[0]), float(mean[1]), float(mean[2])


def ridge_fit_predict(x_train, y_train, x_query, gamma, lam):
    """Kernel ridge with an RBF kernel, solved by explicit matrix inverse."""
    x_train = np.asarray(x_train, dtype=float)
    y_train = np.asarray(y_train, dtype=float)
    m = len(x_train)
    k = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            d = x_train[i] - x_train[j]
            k[i, j] = math.exp(-gamma * float(d @ d))
    mean = y_train.mean()
    alpha = np.linalg.inv(k + lam * np.eye(m)) @ (y_train - mean)
    preds = []
    for q in np.asarray(x_query, dtype=float):
        kq = np.array(
            [math.exp(-gamma * float((q - x_train[i]) @ (q - x_train[i]))) for i in range(m)]
        )
        preds.append(float(kq @ alpha) + mean)
    return np.array(preds)


def rbf(x, y, gamma: float) -> float:
    """exp(-gamma * squared distance) for one pair of points."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return math.exp(-gamma * float(d @ d))


def logistic_fit(k, t, lam, iters, step):
    """One kernel logistic classifier on a precomputed kernel, by the
    K-preconditioned full-batch descent, one matrix-vector product a step.
    Returns (dual weights, bias)."""
    m = len(t)
    alpha = np.zeros(m)
    bias = 0.0
    for _ in range(iters):
        logits = k @ alpha + bias
        probs = 1.0 / (1.0 + np.exp(-logits))
        resid = (probs - t) / m
        alpha -= step * (resid + lam * alpha)
        bias -= step * float(resid.sum())
    return alpha, bias


def train_classifiers_alone(k, y, cutoffs, lams, iters, step):
    """The ordinal ensemble's classifiers of one kernel by a descent on that
    kernel alone, unpadded and unstacked: retained cutoffs, lambda-major weight
    columns, biases and training-score spreads (1 where 0). The stacked descent
    must match it bit for bit."""
    retained = [int(c) for c in cutoffs if 0 < int((y < c).sum()) < len(y)]
    targets = np.tile(y[:, None] < np.array(retained), len(lams)).astype(np.float64)
    lam_cols = np.repeat(np.asarray(lams, dtype=np.float64), len(retained))
    m = len(k)
    alpha = np.zeros(targets.shape)
    bias = np.zeros(targets.shape[1])
    for _ in range(iters):
        probs = 1.0 / (1.0 + np.exp(-(k @ alpha + bias)))
        resid = (probs - targets) / m
        alpha -= step * (resid + lam_cols * alpha)
        bias -= step * resid.sum(axis=0)
    sigmas = (k @ alpha + bias).std(axis=0)
    return tuple(retained), alpha, bias, np.where(sigmas > 0, sigmas, 1.0)


def per_fold_cross_validate_ordinal(x, y, families, seed, gammas, lams, cutoffs):
    """cross_validate_ordinal as one descent per (gamma, fold), each fold
    trained by train_classifiers_alone: (gamma, lambda, pooled held-out median
    |err|), ties keeping the earliest grid entry."""
    from symqaoa import mlmodel as ml

    scored = np.isfinite(y)
    best = (math.inf, None, None)
    folds = []
    for held in ml.stratified_folds(families, ml.N_FOLDS, seed):
        train = np.setdiff1d(np.arange(len(y)), held)
        std = ml.Standardizer.fit(x[train])
        folds.append((held, std.apply(x[train]), std.apply(x[held]), y[train]))
    for gamma in gammas:
        preds = np.empty((len(y), len(lams)))
        for held, z_train, z_held, y_train in folds:
            k_train = ml.kernel_matrix(z_train, z_train, gamma)
            k_held = ml.kernel_matrix(z_held, z_train, gamma)
            retained, alpha, bias, sigmas = train_classifiers_alone(
                k_train, y_train, cutoffs, lams, ml.LOGISTIC_ITERS, ml.LOGISTIC_STEP
            )
            d_z = ((k_held @ alpha + bias) / sigmas).reshape(len(held), len(lams), len(retained))
            y_min, top = float(y_train[np.isfinite(y_train)].min()), float(max(retained))
            preds[held] = [[ml._ordinal_root(d, retained, y_min, top) for d in row] for row in d_z]
        for j, lam in enumerate(lams):
            err = ml.median_abs_err(preds[scored, j], y[scored])
            if err < best[0]:
                best = (err, gamma, lam)
    return best[1], best[2], best[0]


def strided_evolve(values, betas, gammas) -> np.ndarray:
    """Full 2^n statevector by the strided per-qubit pair update, operation
    for operation: integer costs take their phases from a power table, each
    qubit j updates the pairs (x, x ^ 2^j) as (a * c) + (a_partner * ms). The
    package engine must match it bit for bit."""
    values = np.asarray(values, dtype=np.float64)
    size = len(values)
    n = size.bit_length() - 1
    rounded = np.rint(values)
    int_costs = None
    if np.array_equal(rounded, values) and rounded.min() >= 0:
        int_costs = rounded.astype(np.int64)
    state = np.full(size, 1.0 / math.sqrt(size), dtype=np.complex128)
    phase = np.empty(size, dtype=np.complex128)
    h0 = np.empty(max(size // 2, 1), dtype=np.complex128)
    h1 = np.empty_like(h0)
    for beta, gamma in zip(betas, gammas):
        if int_costs is not None:
            table = np.exp(-1j * gamma) ** np.arange(int(int_costs.max()) + 1)
            np.take(table, int_costs, out=phase)
        else:
            np.multiply(values, -1j * gamma, out=phase)
            np.exp(phase, out=phase)
        state *= phase
        c = math.cos(beta)
        ms = -1j * math.sin(beta)
        for j in range(n):
            half = 1 << j
            v = state.reshape(-1, 2, half)
            v0, v1 = v[:, 0, :], v[:, 1, :]
            t0 = h0.reshape(-1, half)
            t1 = h1.reshape(-1, half)
            np.copyto(t0, v0)
            v0 *= c
            np.multiply(v1, ms, out=t1)
            v0 += t1
            v1 *= c
            np.multiply(t0, ms, out=t1)
            v1 += t1
    return state


def strided_expectation(values, betas, gammas) -> float:
    """<f> of strided_evolve, as one dot product over all 2^n probabilities."""
    amps = strided_evolve(values, betas, gammas)
    return float((amps.real**2 + amps.imag**2) @ np.asarray(values, dtype=np.float64))


def reduced_evolve(w, v, values, init, betas, gammas) -> np.ndarray:
    """Reduced amplitudes by the plain per-layer formula: the phase exp(-i
    gamma values) on every entry, then V exp(-i beta w) V^T with the real
    eigenvectors V of the mixer (w, v = np.linalg.eigh(mixer)), each product
    casting V to complex as it goes. The package engine must match it bit for
    bit."""
    amps = np.asarray(init, dtype=np.float64).astype(np.complex128)
    for beta, gamma in zip(betas, gammas):
        amps *= np.exp(-1j * gamma * values)
        amps = v @ (np.exp(-1j * beta * w) * (v.T @ amps))
    return amps


def reduced_expectation(w, v, values, init, betas, gammas) -> tuple[np.ndarray, float]:
    """Amplitudes and <f> by the reduced engine's single-schedule layer loop,
    from w, v = np.linalg.eigh(mixer): V and V^T cast to C-contiguous
    complex, the phase gathered from one exp per cost level, every product a
    1-d matmul (one gemv) and the expectation one dot. The engine's rows must
    each match it bit for bit."""
    w = w.astype(np.complex128)
    vc = np.ascontiguousarray(v).astype(np.complex128)
    vtc = np.ascontiguousarray(v.T).astype(np.complex128)
    levels, level_of = np.unique(values, return_inverse=True)
    levels = levels.astype(np.complex128)
    amps = np.asarray(init).astype(np.complex128)
    for beta, gamma in zip(betas, gammas):
        amps = amps * np.exp(-1j * gamma * levels)[level_of]
        amps = vc @ (np.exp(-1j * beta * w) * (vtc @ amps))
    return amps, float((amps.real**2 + amps.imag**2) @ values)


def scipy_nelder_mead(fun, simplex, upper, fatol, maxfev):
    """scipy's bounded Nelder-Mead on the box [0, upper] from the given
    simplex, with xatol inf: the call schedules.optimize_linear made before
    the package had its own method, which must visit the same points."""
    upper = np.asarray(upper, dtype=np.float64)
    simplex = np.asarray(simplex, dtype=np.float64)
    return scipy_optimize.minimize(
        fun,
        simplex[0],
        method="Nelder-Mead",
        bounds=[(0.0, float(h)) for h in upper],
        options={
            "initial_simplex": simplex,
            "fatol": fatol,
            "xatol": np.inf,
            "maxfev": maxfev,
            "maxiter": 10**6,
            "disp": False,
        },
    )
