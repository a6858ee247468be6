"""Simple undirected graphs: container, deterministic family generators, edge-list I/O."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParamsError, ParseError

REGULAR_TRIES = 20000  # pairings random_regular draws before it gives up
ASYMMETRIC_TRIES = 3000  # regular graphs trivial_aut_graph draws before it gives up


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with a canonical sorted edge tuple."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Validate and canonicalize an edge iterable (u < v, sorted, deduplicated)."""
        if n < 1:
            raise InvalidParamsError(f"vertex count must be >= 1, got {n}")
        canon = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise InvalidParamsError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParamsError(f"edge ({u},{v}) outside 0..{n - 1}")
            canon.add((u, v) if u < v else (v, u))
        return Graph(n, tuple(sorted(canon)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[set[int]]:
        """Neighbor sets, recomputed on call."""
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def delete_edges(self, edges) -> "Graph":
        """Remove the given edges; unknown edges are an error."""
        current = set(self.edges)
        for u, v in edges:
            e = (u, v) if u < v else (v, u)
            if e not in current:
                raise InvalidParamsError(f"edge {e} not present")
            current.remove(e)
        return Graph(self.n, tuple(sorted(current)))


def is_connected(g: Graph) -> bool:
    if g.n == 1:
        return True
    adj = g.adjacency()
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def complete(n: int) -> Graph:
    """Complete graph K_n."""
    if n < 2:
        raise InvalidParamsError("complete graph needs n >= 2")
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle(n: int) -> Graph:
    """Cycle C_n."""
    if n < 3:
        raise InvalidParamsError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    """Star K_{1,n-1}: center 0 joined to n-1 leaves."""
    if n < 3:
        raise InvalidParamsError("star needs n >= 3")
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def wheel(n: int) -> Graph:
    """Wheel W_n: hub 0 plus a rim cycle on vertices 1..n-1."""
    if n < 4:
        raise InvalidParamsError("wheel needs n >= 4")
    rim = [(i, i + 1) for i in range(1, n - 1)] + [(n - 1, 1)]
    spokes = [(0, i) for i in range(1, n)]
    return Graph.from_edges(n, rim + spokes)


def ladder(k: int) -> Graph:
    """Ladder (2 x k grid): rails 0..k-1 and k..2k-1 joined by rungs."""
    if k < 2:
        raise InvalidParamsError("ladder needs k >= 2")
    return grid2d(2, k)


def circular_ladder(k: int) -> Graph:
    """Prism CL_k: ladder with both rails closed into cycles."""
    if k < 3:
        raise InvalidParamsError("circular ladder needs k >= 3")
    return _generalized_petersen(k, 1)


def antiprism(k: int) -> Graph:
    """Antiprism on 2k vertices: two k-cycles joined by a zigzag band."""
    if k < 3:
        raise InvalidParamsError("antiprism needs k >= 3")
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    edges += [((i + 1) % k, k + i) for i in range(k)]
    return Graph.from_edges(2 * k, edges)


def grid2d(rows: int, cols: int, periodic: bool = False) -> Graph:
    """rows x cols grid; periodic wraps both dimensions (each wrapped side needs >= 3)."""
    if rows < 2 or cols < 2:
        raise InvalidParamsError("grid needs rows, cols >= 2")
    if periodic and (rows < 3 or cols < 3):
        raise InvalidParamsError("periodic grid needs rows, cols >= 3 to stay simple")
    idx = lambda r, c: r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((idx(r, c), idx(r, c + 1)))
            elif periodic:
                edges.append((idx(r, c), idx(r, 0)))
            if r + 1 < rows:
                edges.append((idx(r, c), idx(r + 1, c)))
            elif periodic:
                edges.append((idx(r, c), idx(0, c)))
    return Graph.from_edges(rows * cols, edges)


def random_regular(n: int, k: int, seed: int) -> Graph:
    """Random connected k-regular graph via the configuration model with rejection.

    Dense cases reject most pairings (k = 5, n = 8 keeps only ~0.3%), hence the
    large retry budget REGULAR_TRIES; each try is O(nk)."""
    if k < 1 or k >= n or (n * k) % 2 != 0:
        raise InvalidParamsError(f"no {k}-regular graph on {n} vertices")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), k)
    for _ in range(REGULAR_TRIES):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        edges = {(int(min(u, v)), int(max(u, v))) for u, v in pairs}
        if len(edges) != len(pairs):
            continue
        g = Graph(n, tuple(sorted(edges)))
        if is_connected(g):
            return g
    raise InvalidParamsError(
        f"could not sample a connected {k}-regular graph on {n} vertices in {REGULAR_TRIES} tries"
    )


def trivial_aut_graph(n: int, k: int, seed: int) -> Graph:
    """Random k-regular graph rejection-sampled until its automorphism group is trivial.

    Every graph of degree <= 2 on two or more vertices (cycles, a matching, no
    edges) has a non-trivial automorphism, and a graph has its complement's group."""
    # Lazy import: autgroup depends on this module for the Graph type.
    from .autgroup import automorphism_generators

    if k <= 2 or k >= n - 3:
        raise InvalidParamsError(
            f"no {k}-regular graph on {n} vertices is asymmetric: it or its complement "
            f"has degree <= 2 unless 3 <= k <= n - 4"
        )
    rng = np.random.default_rng(seed)
    for _ in range(ASYMMETRIC_TRIES):
        sub = int(rng.integers(0, 2**63 - 1))
        g = random_regular(n, k, sub)
        if not automorphism_generators(g).generators:
            return g
    raise InvalidParamsError(
        f"no asymmetric {k}-regular graph on {n} vertices found in {ASYMMETRIC_TRIES} tries"
    )


def _generalized_petersen(n: int, k: int) -> Graph:
    """GP(n, k): outer cycle 0..n-1, spokes i-(n + i), inner edges (n + i)-(n + (i + k) mod n)."""
    edges = [e for i in range(n) for e in ((i, (i + 1) % n), (i, n + i), (n + i, n + (i + k) % n))]
    return Graph.from_edges(2 * n, edges)


def _lcf(n: int, jumps: tuple[int, ...]) -> Graph:
    """LCF notation: a Hamiltonian n-cycle plus a chord from each i to i + jumps[i mod len]."""
    chords = [(i, (i + jumps[i % len(jumps)]) % n) for i in range(n)]
    return Graph.from_edges(n, list(cycle(n).edges) + chords)


def _icosahedron() -> Graph:
    """The antiprism on 1..10 capped by apex 0 over ring 1..5 and apex 11 under ring 6..10."""
    caps = [(0 if i <= 5 else 11, i) for i in range(1, 11)]
    return Graph.from_edges(12, [(u + 1, v + 1) for u, v in antiprism(5).edges] + caps)


_NAMED_BUILDERS = {
    "petersen": lambda: _generalized_petersen(5, 2),
    "heawood": lambda: _lcf(14, (5, -5)),
    "mobius-kantor": lambda: _generalized_petersen(8, 3),
    "pappus": lambda: _lcf(18, (5, 7, -7, 7, -7, -5)),
    "desargues": lambda: _generalized_petersen(10, 3),
    "dodecahedron": lambda: _generalized_petersen(10, 2),
    "icosahedron": _icosahedron,
}
NAMED_GRAPHS = tuple(_NAMED_BUILDERS)


def named(name: str) -> Graph:
    """Build one of the hand-picked named graphs from its construction."""
    if name not in NAMED_GRAPHS:
        raise InvalidParamsError(f"unknown named graph {name!r}; choices: {NAMED_GRAPHS}")
    return _NAMED_BUILDERS[name]()


@dataclass(frozen=True)
class GraphFamily:
    """A family name plus integer parameters; seed applies to random families only."""

    name: str
    params: dict = field(default_factory=dict)
    seed: int | None = None


# One builder per family name, called with the family's params and the family
# itself (random families read its seed); FAMILY_NAMES lists them in this order.
_BUILDERS = {
    "complete": lambda p, fam: complete(p["n"]),
    "cycle": lambda p, fam: cycle(p["n"]),
    "star": lambda p, fam: star(p["n"]),
    "wheel": lambda p, fam: wheel(p["n"]),
    "ladder": lambda p, fam: ladder(p["k"]),
    "circular-ladder": lambda p, fam: circular_ladder(p["k"]),
    "antiprism": lambda p, fam: antiprism(p["k"]),
    "grid2d": lambda p, fam: grid2d(p["rows"], p["cols"], bool(p.get("periodic", False))),
    "random-regular": lambda p, fam: random_regular(p["n"], p["k"], _need_seed(fam)),
    "trivial-aut": lambda p, fam: trivial_aut_graph(p["n"], p.get("k", 3), _need_seed(fam)),
    "hand-picked": lambda p, fam: named(p["graph"]),
}
FAMILY_NAMES = tuple(_BUILDERS)


def generate(family: GraphFamily) -> Graph:
    """Build the graph described by a GraphFamily, deterministically."""
    name, p = family.name, dict(family.params)
    if name not in _BUILDERS:
        raise InvalidParamsError(f"unknown family {name!r}; choices: {FAMILY_NAMES}")
    try:
        return _BUILDERS[name](p, family)
    except KeyError as exc:
        raise InvalidParamsError(f"family {name!r} missing parameter {exc}") from exc


def _need_seed(family: GraphFamily) -> int:
    if family.seed is None:
        raise InvalidParamsError(f"family {family.name!r} requires a seed")
    return family.seed


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text: first data line is n, then one 'u v' pair per line."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if n is None:
                if len(parts) != 1:
                    raise ValueError("expected a single vertex count")
                n = int(parts[0])
            else:
                if len(parts) != 2:
                    raise ValueError("expected 'u v'")
                edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    if n is None:
        raise ParseError("empty edge-list text")
    try:
        return Graph.from_edges(n, edges)
    except InvalidParamsError as exc:
        raise ParseError(str(exc)) from exc


def format_edge_list(g: Graph) -> str:
    """Serialize a graph in the edge-list format; edges come out lexicographically sorted."""
    lines = [str(g.n)]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def read_edge_list(path) -> Graph:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_edge_list(text)


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
