"""Immutable simple graphs, standard families, and graph operations.

Vertices are always 0..n-1.  Edges are stored as sorted ``(u, v)`` tuples
with ``u < v`` and the edge list itself is sorted, so graphs with equal
vertex counts and edge sets compare equal and serialize byte-for-byte
identically.  Every type here is immutable after construction and safe to
share across parallel workers.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

Edge = tuple[int, int]


class InvariantViolation(RuntimeError):
    """A structural guarantee failed mid-construction; the result is unusable."""


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _int_on_edge(value, what: str, edge) -> int:
    """``value`` as a plain int, else ValueError naming the edge: int()
    would floor a float such as 2.9 and take a bool as 0 or 1.  Callers
    test ``type(value) is int`` first, the common case."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} {value!r} on edge {tuple(edge)!r} is not an int")
    return int(value)


class Graph:
    """Finite simple undirected graph on vertices 0..n-1.

    Adjacency lists are derived from the edge set and kept sorted, so
    neighbor iteration order is deterministic.
    """

    __slots__ = ("n", "edges", "adjacency", "_edge_set")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        if n < 1:
            raise ValueError(f"graph needs n >= 1 vertices, got {n}")
        seen: set[Edge] = set()
        for e in edges:
            u, v = e[0], e[1]
            if type(u) is not int or type(v) is not int:
                u, v = _int_on_edge(u, "vertex", e), _int_on_edge(v, "vertex", e)
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            ne = normalize_edge(u, v)
            if ne in seen:
                raise ValueError(f"duplicate edge {ne}")
            seen.add(ne)
        edge_tuple = tuple(sorted(seen))
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edge_tuple:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edge_tuple)
        object.__setattr__(self, "adjacency", tuple(tuple(sorted(a)) for a in adj))
        object.__setattr__(self, "_edge_set", frozenset(seen))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self._edge_set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class EdgeColoring:
    """Total map from edges to colors in [t] = {1, .., t}.

    ``num_colors`` may exceed the number of distinct colors actually used;
    the canonical form uses exactly the used colors.
    """

    __slots__ = ("colors", "num_colors")

    def __init__(self, colors: Mapping[Sequence[int], int], num_colors: Optional[int] = None):
        norm: dict[Edge, int] = {}
        for e, c in colors.items():
            u, v = e[0], e[1]
            if type(c) is not int or type(u) is not int or type(v) is not int:
                c = _int_on_edge(c, "color", e)
                u, v = _int_on_edge(u, "vertex", e), _int_on_edge(v, "vertex", e)
            if c < 1:
                raise ValueError(f"color {c} on edge {tuple(e)} is not >= 1")
            norm[(u, v) if u < v else (v, u)] = c
        if not norm:
            raise ValueError("coloring must cover at least one edge")
        max_used = max(norm.values())
        if num_colors is not None and (
            isinstance(num_colors, bool) or not isinstance(num_colors, int)
        ):
            raise ValueError(f"num_colors must be an int, got {num_colors!r}")
        t = max_used if num_colors is None else int(num_colors)
        if t < max_used:
            raise ValueError(f"num_colors={t} smaller than max used color {max_used}")
        if t < 1:
            raise ValueError("num_colors must be >= 1")
        object.__setattr__(self, "colors", dict(sorted(norm.items())))
        object.__setattr__(self, "num_colors", t)

    def __setattr__(self, name, value):
        raise AttributeError("EdgeColoring is immutable")

    def color(self, u: int, v: int) -> int:
        return self.colors[normalize_edge(u, v)]

    def used_colors(self) -> set[int]:
        return set(self.colors.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EdgeColoring)
            and self.num_colors == other.num_colors
            and self.colors == other.colors
        )

    def __hash__(self) -> int:
        return hash((self.num_colors, tuple(self.colors.items())))

    def __repr__(self) -> str:
        return f"EdgeColoring(m={len(self.colors)}, t={self.num_colors})"


@dataclass(frozen=True)
class Permutation:
    """A permutation of [n] given by its 1-indexed image sequence."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if n < 1 or sorted(self.image) != list(range(1, n + 1)):
            raise ValueError(f"image {self.image} is not a permutation of [{n}]")

    def __len__(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        """alpha(i) for 1 <= i <= n."""
        return self.image[i - 1]


# ---------------------------------------------------------------------------
# graph families
# ---------------------------------------------------------------------------

FAMILIES = (
    "path",
    "cycle",
    "star",
    "wheel",
    "complete",
    "complete_bipartite",
    "complete_multipartite",
    "hypercube",
    "double_star",
    "random_tree",
    "random_2connected",
)


@dataclass(frozen=True)
class FamilySpec:
    """Parameters selecting one member of a named graph family.

    Integer parameters are family-specific: see :func:`generate`.  The seed
    only matters for the random families and defaults to 0 so generation is
    reproducible.
    """

    family: str
    n: Optional[int] = None
    m: Optional[int] = None
    t: Optional[int] = None
    parts: Optional[tuple[int, ...]] = None
    seed: int = 0


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path requires n >= 1, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle requires n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the center at vertex 0."""
    if leaves < 1:
        raise ValueError(f"star requires >= 1 leaf, got {leaves}")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def wheel_graph(n: int) -> Graph:
    """W_n: rim cycle 0..n-1 in clockwise order plus the center vertex n."""
    if n < 3:
        raise ValueError(f"wheel requires rim size n >= 3, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n) for i in range(n)]
    return Graph(n + 1, edges)


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph requires n >= 1, got {n}")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite_graph(m: int, n: int) -> Graph:
    """K_{m,n}; side U is 0..m-1, side V is m..m+n-1."""
    if m < 1 or n < 1:
        raise ValueError(f"complete bipartite requires m, n >= 1, got ({m}, {n})")
    return Graph(m + n, [(u, m + v) for u in range(m) for v in range(n)])


def complete_multipartite_graph(parts: Sequence[int]) -> Graph:
    """Complete multipartite graph; parts are sorted ascending, and part i
    occupies the next block of consecutive vertex labels."""
    parts = tuple(sorted(int(p) for p in parts))
    if len(parts) < 2 or any(p < 1 for p in parts):
        raise ValueError(f"multipartite requires >= 2 parts of size >= 1, got {parts}")
    offsets = [0]
    for p in parts:
        offsets.append(offsets[-1] + p)
    edges = []
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            for u in range(offsets[i], offsets[i + 1]):
                for v in range(offsets[j], offsets[j + 1]):
                    edges.append((u, v))
    return Graph(offsets[-1], edges)


def hypercube_graph(t: int) -> Graph:
    """Q_t on 2^t vertices; vertex index equals the value of its binary tuple."""
    if t < 1:
        raise ValueError(f"hypercube requires t >= 1, got {t}")
    n = 1 << t
    edges = [(x, x ^ (1 << b)) for x in range(n) for b in range(t) if x < x ^ (1 << b)]
    return Graph(n, edges)


def double_star_graph(a: int, b: int) -> Graph:
    """Two adjacent centers 0 and 1 with a-1 and b-1 pendant leaves, so the
    center degrees are a and b."""
    if a < 1 or b < 1:
        raise ValueError(f"double star requires a >= 1 and b >= 1, got ({a}, {b})")
    edges = [(0, 1)]
    edges += [(0, i) for i in range(2, a + 1)]
    edges += [(1, i) for i in range(a + 1, a + b)]
    return Graph(a + b, edges)


def random_tree(n: int, seed: int = 0) -> Graph:
    """Uniform random labeled tree via a random Pruefer sequence."""
    if n < 1:
        raise ValueError(f"random tree requires n >= 1, got {n}")
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    rng = random.Random(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in prufer:
        degree[x] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    heapq.heapify(leaves)
    for x in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph(n, edges)


def random_2connected(n: int, m: Optional[int] = None, seed: int = 0) -> Graph:
    """Random Hamiltonian cycle plus random chords up to m edges total.

    The cycle already makes the graph 2-connected; chords only add density.
    """
    if n < 3:
        raise ValueError(f"random 2-connected graph requires n >= 3, got {n}")
    max_m = n * (n - 1) // 2
    if m is None:
        m = min(max_m, n + max(1, n // 2))
    if not (n <= m <= max_m):
        raise ValueError(f"edge count m={m} must satisfy n <= m <= n(n-1)/2 = {max_m}")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = {normalize_edge(order[i], order[(i + 1) % n]) for i in range(n)}
    chords = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in edges
    ]
    rng.shuffle(chords)
    for e in chords:
        if len(edges) >= m:
            break
        edges.add(e)
    return Graph(n, sorted(edges))


def generate(spec: FamilySpec) -> Graph:
    """Build the graph described by a family spec.

    Parameter usage: path/cycle/star/wheel/complete use n (star: leaf
    count, wheel: rim size); complete_bipartite uses (m, n);
    complete_multipartite uses parts; hypercube uses t; double_star uses
    (n, m) as the two center degrees; random_tree uses (n, seed);
    random_2connected uses (n, m, seed).
    """
    f = spec.family
    if f not in FAMILIES:
        raise ValueError(f"unknown family {f!r}; expected one of {FAMILIES}")
    if f == "path":
        return path_graph(_require(spec.n, "n", f))
    if f == "cycle":
        return cycle_graph(_require(spec.n, "n", f))
    if f == "star":
        return star_graph(_require(spec.n, "n", f))
    if f == "wheel":
        return wheel_graph(_require(spec.n, "n", f))
    if f == "complete":
        return complete_graph(_require(spec.n, "n", f))
    if f == "complete_bipartite":
        return complete_bipartite_graph(_require(spec.m, "m", f), _require(spec.n, "n", f))
    if f == "complete_multipartite":
        if not spec.parts:
            raise ValueError("complete_multipartite requires parts")
        return complete_multipartite_graph(spec.parts)
    if f == "hypercube":
        return hypercube_graph(_require(spec.t, "t", f))
    if f == "double_star":
        return double_star_graph(_require(spec.n, "n", f), _require(spec.m, "m", f))
    if f == "random_tree":
        return random_tree(_require(spec.n, "n", f), spec.seed)
    return random_2connected(_require(spec.n, "n", f), spec.m, spec.seed)


def _require(value: Optional[int], name: str, family: str) -> int:
    if value is None:
        raise ValueError(f"family {family!r} requires parameter {name}")
    return int(value)


# ---------------------------------------------------------------------------
# graph operations
# ---------------------------------------------------------------------------


def join(g: Graph, h: Graph) -> Graph:
    """Join G v H: disjoint union plus all edges between the two vertex sets.

    H's vertices are relabeled to n_G .. n_G + n_H - 1.
    """
    off = g.n
    edges = list(g.edges)
    edges += [(u + off, v + off) for u, v in h.edges]
    edges += [(u, off + v) for u in range(g.n) for v in range(h.n)]
    return Graph(g.n + h.n, edges)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (u, v) maps to index u * n_H + v."""
    nh = h.n
    edges = []
    for u, x in g.edges:
        for v in range(nh):
            edges.append((u * nh + v, x * nh + v))
    for v, y in h.edges:
        for u in range(g.n):
            edges.append((u * nh + v, u * nh + y))
    return Graph(g.n * nh, edges)


def permutation_graph(g: Graph, alpha: Permutation) -> Graph:
    """Two copies of G plus the matching v_i - u_{alpha(i)}.

    Copy vertex u_i has index n_G + i - 1, so the copy of vertex j is
    n_G + j.  The matching joins vertex i-1 to copy vertex n_G + alpha(i) - 1.
    """
    n = g.n
    if len(alpha) != n:
        raise ValueError(f"permutation has length {len(alpha)}, graph has {n} vertices")
    edges = list(g.edges)
    edges += [(u + n, v + n) for u, v in g.edges]
    edges += [(i - 1, n + alpha(i) - 1) for i in range(1, n + 1)]
    return Graph(2 * n, edges)
