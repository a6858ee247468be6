"""Hand-rolled reference implementations that the tests trust instead of the
package code. Everything favors obviousness over speed: dense kron matrices,
pure-Python bit loops, brute-force permutation scans. Nothing here imports the
package.
"""

import itertools
import math

import numpy as np


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
