"""Structural graph algorithms: distances, connectivity, minimally
2-connected reduction, ear decompositions, Hamiltonian paths, and
bounded-diameter subtrees of trees.

Every plain breadth-first search here and in ``construct`` runs on one
multi-source helper, ``_bfs``, which can stop at a distance and avoid one
edge.  Only the ear search and the path-seeded Cartesian tree keep their
own loops, because they stop or start differently.

All functions are pure and deterministic: ties are broken by vertex or
edge order, never by hashing or randomness.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import Edge, Graph, InvariantViolation, normalize_edge


def _bfs(
    adjacency: Sequence[Sequence[int]],
    sources: Sequence[int],
    reach: Optional[int] = None,
    skip: Optional[Edge] = None,
    order: Optional[list[int]] = None,
) -> tuple[list[int], list[int]]:
    """Breadth-first search from all sources at distance 0, in ascending
    neighbor order, one level at a time in discovery order (the order of a
    FIFO queue).  Returns (dist, parent); -1 marks an unreached vertex or a
    missing parent.  Vertices at distance ``reach`` are not expanded, so
    nothing farther is discovered, and the edge ``skip`` is never crossed.
    The reached vertices are appended to ``order``, if given, in visit
    order, sources first, so a caller can visit them without a scan over
    all n."""
    dist = [-1] * len(adjacency)
    parent = [-1] * len(adjacency)
    for s in sources:
        dist[s] = 0
    ends = skip or ()
    frontier = list(sources)
    order = [] if order is None else order
    order += frontier
    d = 0
    while frontier and d != reach:
        d += 1
        discovered = []
        for x in frontier:
            for y in adjacency[x]:
                # Both ends in ``skip`` means the edge is ``skip`` (no loops).
                if dist[y] == -1 and not (x in ends and y in ends):
                    dist[y] = d
                    parent[y] = x
                    discovered.append(y)
        order += discovered
        frontier = discovered
    return dist, parent


def distances(g: Graph, v: int) -> list[int]:
    """BFS distances from v; unreachable vertices get -1."""
    return _bfs(g.adjacency, (v,))[0]


def eccentricity(g: Graph, v: int) -> int:
    dist = distances(g, v)
    if -1 in dist:
        raise ValueError("eccentricity is undefined on a disconnected graph")
    return max(dist)


def radius(g: Graph) -> int:
    return min(eccentricity(g, v) for v in range(g.n))


def sigma2_prime(g: Graph) -> int:
    """Largest degree sum over adjacent vertex pairs."""
    if not g.edges:
        raise ValueError("sigma2' is undefined on an edgeless graph")
    return max(g.degree(u) + g.degree(v) for u, v in g.edges)


def is_connected(g: Graph) -> bool:
    return -1 not in distances(g, 0)


def is_tree(g: Graph) -> bool:
    return g.m == g.n - 1 and is_connected(g)


def is_star(g: Graph) -> bool:
    """K_{1,k} for some k >= 1 (K_2 counts as K_{1,1})."""
    return g.n >= 2 and g.m == g.n - 1 and max(g.degree(v) for v in range(g.n)) == g.n - 1


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def articulation_points(g: Graph) -> set[int]:
    """Cut vertices, via iterative DFS lowpoints."""
    disc = [-1] * g.n
    low = [0] * g.n
    parent = [-1] * g.n
    cuts: set[int] = set()
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        root_children = 0
        stack: list[tuple[int, int]] = [(root, 0)]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, i = stack[-1]
            if i < len(g.adjacency[v]):
                stack[-1] = (v, i + 1)
                w = g.adjacency[v][i]
                if disc[w] == -1:
                    parent[w] = v
                    if v == root:
                        root_children += 1
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, 0))
                elif w != parent[v]:
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                p = parent[v]
                if p != -1:
                    low[p] = min(low[p], low[v])
                    if p != root and low[v] >= disc[p]:
                        cuts.add(p)
        if root_children >= 2:
            cuts.add(root)
    return cuts


def is_2_connected(g: Graph) -> bool:
    return g.n >= 3 and is_connected(g) and not articulation_points(g)


def minimally_2connected_spanning(g: Graph) -> Graph:
    """Spanning 2-connected subgraph in which every edge is critical.

    Scans edges in ascending order and removes each one whose removal
    preserves 2-connectivity.  A single pass suffices: once an edge is
    critical it stays critical as further edges disappear.
    """
    if not is_2_connected(g):
        raise ValueError("minimally 2-connected reduction requires a 2-connected graph")
    kept = list(g.edges)
    for e in list(g.edges):
        trial = [x for x in kept if x != e]
        h = Graph(g.n, trial)
        if is_2_connected(h):
            kept = trial
    return Graph(g.n, kept)


@dataclass(frozen=True)
class EarDecomposition:
    """A base cycle plus ordered open ears.

    Each ear is a vertex sequence whose two endpoints already belong to the
    graph built so far and whose internal vertices (at least one) are new.
    """

    base_cycle: tuple[int, ...]
    ears: tuple[tuple[int, ...], ...]


def _shortest_cycle(g: Graph) -> list[int]:
    """Shortest cycle, deterministically: for each edge in ascending order,
    find the shortest path between its endpoints avoiding that edge.  Only a
    strictly shorter cycle replaces the best so far, so once one is known the
    search stops at distance len(best) - 2."""
    best: Optional[list[int]] = None
    for u, v in g.edges:
        reach = None if best is None else len(best) - 2
        dist, parent = _bfs(g.adjacency, (u,), reach, (u, v))
        if dist[v] == -1:
            continue
        best = [v]
        while best[-1] != u:
            best.append(parent[best[-1]])
        best.reverse()
    if best is None:
        raise ValueError("graph has no cycle")
    return best


def ear_decomposition(h: Graph) -> EarDecomposition:
    """Open ear decomposition built by repeatedly attaching, over the
    not-yet-covered edges, a shortest path between two covered vertices
    whose interior is uncovered.

    Every ear must have at least one internal vertex; if an uncovered edge
    ever joins two covered vertices no such ear can cover it, which on
    minimally 2-connected input signals a broken invariant.
    """
    if not is_2_connected(h):
        raise ValueError("ear decomposition requires a 2-connected graph")
    base = _shortest_cycle(h)
    covered_v = set(base)
    covered_e = {normalize_edge(base[i], base[(i + 1) % len(base)]) for i in range(len(base))}
    ears: list[tuple[int, ...]] = []
    while len(covered_e) < h.m:
        for u, v in h.edges:
            if (u, v) not in covered_e and u in covered_v and v in covered_v:
                raise InvariantViolation(
                    f"uncovered edge ({u}, {v}) joins two covered vertices: "
                    "it admits only an ear with no internal vertex"
                )
        best: Optional[list[int]] = None
        for start in sorted(covered_v):
            # BFS through uncovered vertices over uncovered edges.
            parent: dict[int, int] = {start: -1}
            queue = deque([start])
            found: Optional[list[int]] = None
            while queue and found is None:
                x = queue.popleft()
                for y in h.adjacency[x]:
                    e = normalize_edge(x, y)
                    if e in covered_e:
                        continue
                    if y in covered_v:
                        # Need an open ear: skip the degenerate cases of no
                        # interior (x == start) and a closed walk (y == start).
                        if x == start or y == start:
                            continue
                        path = [y, x]
                        while path[-1] != start:
                            path.append(parent[path[-1]])
                        path.reverse()
                        found = path
                        break
                    if y not in parent:
                        parent[y] = x
                        queue.append(y)
            if found is not None and (best is None or len(found) < len(best)):
                best = found
        if best is None:
            raise InvariantViolation("uncovered edges remain but no open ear exists")
        ears.append(tuple(best))
        covered_v.update(best)
        for i in range(len(best) - 1):
            covered_e.add(normalize_edge(best[i], best[i + 1]))
    return EarDecomposition(tuple(base), tuple(ears))


def hamiltonian_path(g: Graph) -> Optional[tuple[int, ...]]:
    """Some Hamiltonian path, or None.  Backtracking with a dead-vertex
    degree prune, on an explicit stack so that path length is not bounded
    by the recursion limit; the search is exponential in the worst case, so
    it is intended for small or easily traced graphs."""
    n = g.n
    if n == 1:
        return (0,)
    if not is_connected(g):
        return None
    adj = g.adjacency

    def strands_a_vertex(tail: int, w: int, visited: list[bool]) -> bool:
        # An unvisited vertex whose unvisited neighborhood is empty and which
        # is not adjacent to the new tail w can never be reached.  Moving the
        # tail from `tail` to w changes that only for the neighbors of the
        # two, and no vertex was stranded before the move.
        for x in itertools.chain(adj[w], adj[tail]):
            if not visited[x] and all(visited[y] for y in adj[x]) and not g.has_edge(x, w):
                return True
        return False

    for start in range(n):
        visited = [False] * n
        visited[start] = True
        path = [start]
        stack = [iter(adj[start])]
        while stack:
            if len(path) == n:
                return tuple(path)
            for w in stack[-1]:
                if visited[w]:
                    continue
                visited[w] = True
                path.append(w)
                if len(path) < n and strands_a_vertex(path[-2], w, visited):
                    path.pop()
                    visited[w] = False
                    continue
                stack.append(iter(adj[w]))
                break
            else:
                stack.pop()
                if stack:
                    visited[path.pop()] = False
    return None


@dataclass(frozen=True)
class RootedTree:
    """A spanning tree with parent pointers toward the root and per-vertex
    depths.  ``parent[root]`` is None."""

    root: int
    parent: tuple[Optional[int], ...]
    depth: tuple[int, ...]

    def __post_init__(self):
        if self.parent[self.root] is not None or self.depth[self.root] != 0:
            raise ValueError("root must have no parent and depth 0")

    @property
    def n(self) -> int:
        return len(self.parent)

    def path_to_root(self, v: int) -> list[int]:
        path = [v]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        return path


def bfs_tree(g: Graph, root: int) -> RootedTree:
    """BFS spanning tree from root (ascending neighbor order)."""
    depth, parent = _bfs(g.adjacency, (root,))
    if -1 in depth:
        raise ValueError("BFS tree does not span the graph")
    return RootedTree(root, tuple(None if p == -1 else p for p in parent), tuple(depth))


def max_subtree_size_with_diameter(t: Graph, d: int) -> tuple[int, Graph]:
    """Maximum edge count over subtrees of diameter <= d, with a witness.

    Every diameter-<= d subtree sits inside a ball of radius d/2 around a
    center vertex (d even) or of radius (d-1)/2 around both endpoints of a
    center edge (d odd), so scanning those balls is exhaustive.  The witness
    keeps the original vertex labels; vertices outside it are isolated.
    """
    if not is_tree(t):
        raise ValueError("bounded-diameter subtree search requires a tree")
    if d < 1:
        raise ValueError(f"diameter bound must be >= 1, got {d}")
    if t.n == 1:
        return 0, t

    center_sets = [(v,) for v in range(t.n)] if d % 2 == 0 else t.edges
    best_size, best_dist = -1, []
    for centers in center_sets:
        dist = _bfs(t.adjacency, centers, d // 2)[0]
        size = t.n - 1 - dist.count(-1)  # a ball of a tree is a subtree
        if size > best_size:
            best_size, best_dist = size, dist
    sub_edges = [(u, v) for u, v in t.edges if best_dist[u] != -1 and best_dist[v] != -1]
    return best_size, Graph(t.n, sub_edges)
