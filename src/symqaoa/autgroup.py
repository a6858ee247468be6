"""Graph automorphisms: color refinement, an individualization-refinement
search that returns a base and a strong generating set (hence the exact group
order and every element), and orbit machinery on vertices and bitstrings.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParamsError, SearchBudgetError, SizeLimitError
from .graphs import Graph

DEGREE_CAP = 255  # largest degree of the 256-byte permutation tables and the automorphism search
BITSTRING_N_CAP = 20  # largest n whose 2^n bitstring index tables are built
ENUMERATION_CAP = 8 * 10**6  # largest group order iter_element_blocks enumerates
SEARCH_NODE_CAP = 10**7  # search-tree nodes automorphism_generators visits before giving up
Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(a: Perm, b: Perm) -> Perm:
    """(a compose b)(i) = a(b(i))."""
    return tuple(a[x] for x in b)


def inverse(a: Perm) -> Perm:
    inv = [0] * len(a)
    for i, ai in enumerate(a):
        inv[ai] = i
    return tuple(inv)


def is_automorphism(g: Graph, perm: Perm) -> bool:
    """Edge preservation both directions (a bijection preserving E preserves non-E too)."""
    if sorted(perm) != list(range(g.n)):
        return False
    edges = set(g.edges)
    for u, v in g.edges:
        pu, pv = perm[u], perm[v]
        if ((pu, pv) if pu < pv else (pv, pu)) not in edges:
            return False
    return True


def _refine(adj: list[tuple[int, ...]], colors) -> tuple[int, ...]:
    """Coarsest equitable refinement of colors, whose ids must be 0..k-1.

    Each round recolors vertices by (current color, sorted multiset of neighbor
    colors) and stops when the number of classes no longer grows. New ids are
    signature ranks, so they stay contiguous and keep the order of the old ids.
    """
    n = len(adj)
    k = max(colors) + 1
    while k < n:
        sigs = [(colors[v],) + tuple(sorted(colors[u] for u in adj[v])) for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        if len(rank) == k:
            break
        colors = [rank[s] for s in sigs]
        k = len(rank)
    return tuple(colors)


def color_refine(g: Graph, init: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """Coarsest equitable refinement of the coloring init (uniform if omitted);
    idempotent. The result depends only on the partition init induces and the
    graph, not on its id values, and its ids are 0..k-1.
    """
    if init is None:
        init = (0,) * g.n
    elif len(init) != g.n:
        raise InvalidParamsError("coloring length does not match vertex count")
    rank = {c: i for i, c in enumerate(sorted(set(init)))}
    return _refine([tuple(s) for s in g.adjacency()], [rank[c] for c in init])


@dataclass
class PermGroup:
    """A permutation group given by a base and a strong generating set for it:
    for every d, the generators that fix base[:d] pointwise generate the
    pointwise stabilizer of base[:d], and only the identity fixes every base
    point.

    Level d is the orbit transversal of base[d] under the generators fixing
    base[:d]; levels of size 1 are dropped. The order is the product of the
    level sizes, and every element is one product of one representative per
    level (iter_element_blocks).
    """

    n: int
    generators: tuple[Perm, ...]
    base: tuple[int, ...] = ()
    levels: tuple[dict[int, bytes], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n > DEGREE_CAP:
            raise SizeLimitError(f"permutation tables support degree <= {DEGREE_CAP}, got {self.n}")
        self.generators = tuple(tuple(g) for g in self.generators)
        self.base = tuple(self.base)
        for g in self.generators:
            if sorted(g) != list(range(self.n)):
                raise InvalidParamsError(f"generator {g} is not a permutation of 0..{self.n - 1}")
        if len(set(self.base)) != len(self.base) or not set(self.base) <= set(range(self.n)):
            raise InvalidParamsError(f"base {self.base} is not distinct points of 0..{self.n - 1}")
        gens = [t for t in dict.fromkeys(map(_as_table, self.generators)) if t != _IDENT256]
        levels = []
        for point in self.base:
            level = _orbit_transversal(gens, point)
            if len(level) > 1:
                levels.append(level)
            # the generators fixing base[:d + 1] are those of level d that fix base[d]
            gens = [s for s in gens if s[point] == point]
        if gens:
            raise InvalidParamsError(f"generator {tuple(gens[0][: self.n])} fixes every base point")
        self.levels = tuple(levels)

    def order(self) -> int:
        """Exact |<generators>| as an arbitrary-precision integer."""
        total = 1
        for level in self.levels:
            total *= len(level)
        return total


# Levels store permutations as 256-byte translate tables with an identity
# tail: compose(a, b) is then b.translate(a), a single C call, and the
# identity-tail padding is closed under composition. Degree is capped at DEGREE_CAP.
_IDENT256 = bytes(range(256))


def _as_table(perm) -> bytes:
    return bytes(perm) + _IDENT256[len(perm):]


def _orbit_transversal(gens: list[bytes], point: int) -> dict[int, bytes]:
    """Each point of the orbit of point under gens, mapped to a table that
    takes point to it; point itself first, with the identity."""
    reps = {point: _IDENT256}
    queue = deque([point])
    while queue:
        x = queue.popleft()
        rx = reps[x]
        for s in gens:
            y = s[x]
            if y not in reps:
                reps[y] = rx.translate(s)
                queue.append(y)
    return reps


def automorphism_generators(g: Graph) -> PermGroup:
    """Generators of Aut(g) by individualization-refinement backtracking.

    The tree refines an ordered partition, branching on the first smallest
    non-singleton cell. Pruning: (a) a node whose cell-size sequence differs
    from the reference (leftmost) path at the same depth contains no leaf
    equivalent to the reference leaf; (b) a branch vertex lying in the orbit of
    an explored sibling under discovered generators fixing the node's prefix is
    redundant; (c) after a leaf yields an automorphism, the search backjumps to
    the deepest ancestor shared with the reference path.

    The reference path is a base, and the orbit-pruned generators are a
    strong generating set for it: at each node of that path every child in
    the orbit of the path's child under the stabilizer of the prefix is
    either pruned by a generator fixing the prefix or yields one. The group
    is returned with that base, which gives its order and its elements with
    no further group computation.

    A graph above DEGREE_CAP vertices raises SizeLimitError before the
    search, as the permutation tables of its group would.
    """
    n = g.n
    if n < 1:
        raise InvalidParamsError("graph must have at least one vertex")
    if n > DEGREE_CAP:
        raise SizeLimitError(f"automorphism search supports n <= {DEGREE_CAP}, got {n}")
    ident = identity_perm(n)
    edges = g.edges
    adj = [tuple(s) for s in g.adjacency()]
    gens: list[Perm] = []
    nodes = 0
    ref_leaf = ref_cert = None
    ref_invs: list[tuple[int, ...]] = []
    ref_prefix: list[int] = []

    def certificate(lab: tuple[int, ...]) -> frozenset:
        out = set()
        for u, v in edges:
            a, b = lab[u], lab[v]
            out.add((a, b) if a < b else (b, a))
        return frozenset(out)

    def search(colors: tuple[int, ...], depth: int, prefix: list[int]):
        nonlocal nodes, ref_leaf, ref_cert, ref_prefix
        nodes += 1
        if nodes > SEARCH_NODE_CAP:
            raise SearchBudgetError(f"automorphism search exceeded {SEARCH_NODE_CAP} nodes")
        cells: list[list[int]] = [[] for _ in range(max(colors) + 1)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        inv = tuple(map(len, cells))
        if ref_leaf is None:
            ref_invs.append(inv)
        elif depth >= len(ref_invs) or inv != ref_invs[depth]:
            return None
        target = min((cell for cell in cells if len(cell) > 1), key=len, default=None)
        if target is None:
            # discrete: colors are a vertex -> position labeling
            if ref_leaf is None:
                ref_leaf, ref_cert, ref_prefix = colors, certificate(colors), prefix
                return None
            if certificate(colors) == ref_cert:
                sigma = compose(inverse(colors), ref_leaf)
                if sigma != ident and is_automorphism(g, sigma):
                    gens.append(sigma)
                    common = 0
                    while (
                        common < len(prefix)
                        and common < len(ref_prefix)
                        and prefix[common] == ref_prefix[common]
                    ):
                        common += 1
                    return common
            return None
        pruned: set[int] = set()  # orbit of the explored children
        for v in target:
            if v in pruned:
                continue
            branched = list(colors)
            branched[v] = len(cells)  # a new id after the others keeps them contiguous
            jump = search(_refine(adj, branched), depth + 1, prefix + [v])
            if jump is not None and jump < depth:
                return jump
            # generators appear only inside child searches, so the orbit changes
            # only here; the new one contains the old, so it grows from it
            fixing = [s for s in gens if all(s[x] == x for x in prefix)]
            pruned = _orbit(fixing, pruned | {v})
        return None

    search(_refine(adj, (0,) * n), 0, [])
    if len(gens) > n * n:
        raise SearchBudgetError(f"generator count {len(gens)} exceeds {n * n}")
    return PermGroup(n, tuple(gens), tuple(ref_prefix))


def _orbit(gens, seeds) -> set[int]:
    """The points reachable from seeds under the permutations gens."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        x = stack.pop()
        for s in gens:
            y = s[x]
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def vertex_orbits(grp: PermGroup) -> list[list[int]]:
    """Orbits of {0..n-1} under the generators, sorted by smallest member."""
    seen: set[int] = set()
    orbits = []
    for v in range(grp.n):
        if v not in seen:
            orbit = _orbit(grp.generators, (v,))
            seen |= orbit
            orbits.append(sorted(orbit))
    return orbits


def bitstring_action(perm: Perm) -> np.ndarray:
    """Index map of the bit-position action: bit perm[i] of the image = bit i of x."""
    n = len(perm)
    if n > BITSTRING_N_CAP:
        raise SizeLimitError(f"bit action table needs n <= {BITSTRING_N_CAP}, got {n}")
    x = np.arange(1 << n, dtype=np.int64)
    y = np.zeros_like(x)
    for i, t in enumerate(perm):
        y |= ((x >> i) & 1) << t
    return y


def flip_action(n: int) -> np.ndarray:
    """Index map of the global bit flip x -> complement(x)."""
    if n > BITSTRING_N_CAP:
        raise SizeLimitError(f"flip table needs n <= {BITSTRING_N_CAP}, got {n}")
    return np.arange((1 << n) - 1, -1, -1, dtype=np.int64)


@dataclass(frozen=True)
class BitstringGroup:
    """Bit-permutation group induced by vertex permutations, optionally extended
    by the global flip (which commutes with every bit permutation)."""

    perm_group: PermGroup
    include_flip: bool = False

    def order(self) -> int:
        return self.perm_group.order() * (2 if self.include_flip else 1)

    def actions(self) -> list[np.ndarray]:
        """Index map of each distinct non-identity generator, then the flip's."""
        n = self.perm_group.n
        gens = dict.fromkeys(self.perm_group.generators)
        gens.pop(identity_perm(n), None)
        flip = [flip_action(n)] if self.include_flip else []
        return [bitstring_action(s) for s in gens] + flip


@dataclass(frozen=True)
class BitstringOrbits:
    """Partition of {0,1}^n: labels[x] = orbit id, ids ordered by smallest member."""

    n: int
    labels: np.ndarray
    sizes: np.ndarray
    reps: np.ndarray

    @property
    def n_orbits(self) -> int:
        return len(self.sizes)


def bitstring_orbits(grp: BitstringGroup) -> BitstringOrbits:
    """Orbits of all 2^n bitstrings under the group. Labels converge by
    min-propagation along each action map, which reaches the whole component
    because permutation actions close into cycles."""
    n = grp.perm_group.n
    if n > BITSTRING_N_CAP:
        raise SizeLimitError(f"bitstring orbits need n <= {BITSTRING_N_CAP}, got {n}")
    maps = grp.actions()
    labels = np.arange(1 << n, dtype=np.int64)
    if maps:
        while True:
            prev = labels.copy()
            for m in maps:
                np.minimum(labels, labels[m], out=labels)
            labels = labels[labels]
            if np.array_equal(labels, prev):
                break
    reps, inv, counts = np.unique(labels, return_inverse=True, return_counts=True)
    return BitstringOrbits(n, inv.astype(np.int64), counts.astype(np.int64), reps)


# Row cap of the inner table in iter_element_blocks: small blocks keep the
# working set (and peak memory) of a whole-group pass flat.
_BLOCK_ROWS = 4096


def iter_element_blocks(grp: PermGroup):
    """Yield every group element exactly once, as uint8 blocks of shape (m, n)
    whose rows are image tables.

    Elements are products u_0 u_1 ... u_k of one transversal representative
    per level of grp (the coset representatives of the stabilizer of each
    base prefix), level 0 varying fastest and the deepest level slowest, so
    each comes out once with no dedup set. The shallow levels are expanded
    into one inner table of at most _BLOCK_ROWS rows; each product s of the
    deep levels then gives the block inner[:, s]. Raises before yielding
    anything if the order exceeds ENUMERATION_CAP.
    """
    order = grp.order()
    if order > ENUMERATION_CAP:
        raise SizeLimitError(f"group order {order} exceeds enumeration cap {ENUMERATION_CAP}")
    n = grp.n
    reps = [
        np.frombuffer(b"".join(t.values()), dtype=np.uint8).reshape(-1, 256)[:, :n]
        for t in grp.levels
    ]
    inner = np.arange(n, dtype=np.uint8)[None, :]
    split = 0
    while split < len(reps) and len(inner) * len(reps[split]) <= _BLOCK_ROWS:
        # row (u, q) is q composed after u: u's level varies slower than q's
        inner = inner[:, reps[split]].transpose(1, 0, 2).reshape(-1, n)
        split += 1

    def deep(level: int):
        if level == len(reps):
            yield np.arange(n, dtype=np.intp)
            return
        for suffix in deep(level + 1):
            for u in reps[level]:
                yield u[suffix]  # u composed after suffix

    for s in deep(split):
        yield inner[:, s]


def cycle_counts(block: np.ndarray, squared: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Number of cycles c(P) of every row P of a permutation block, and c(P^2)
    if squared (else None).

    Pointer doubling: after k rounds, low[i] is the least of P^t(i) for
    t < 2^k, so ceil(log2 n) rounds reach around every cycle, and each cycle
    is counted once, at its least member. P^2 walks the same powers shifted
    by one round.
    """
    m, n = block.shape
    # point-major global indices: entry i*m + r is point i of row r, so one
    # 1-D gather composes rows and the final count adds n contiguous rows
    power = (block.T.astype(np.intp) * m + np.arange(m)).ravel()
    local = np.repeat(np.arange(n, dtype=np.uint8), m)
    low = low2 = local
    for _ in range((n - 1).bit_length()):
        low = np.minimum(low, low[power])
        power = power[power]
        if squared:
            low2 = np.minimum(low2, low2[power])
    c2 = (low2 == local).reshape(n, m).sum(axis=0) if squared else None
    return (low == local).reshape(n, m).sum(axis=0), c2
