"""Structural graph algorithms: distances, connectivity, minimally
2-connected reduction, ear decompositions, Hamiltonian paths,
bounded-diameter subtrees of trees, twins and automorphism generators.

Every plain breadth-first search here and in ``construct`` and ``exact``
runs on one multi-source helper, ``_bfs``, which can stop at a distance
and avoid one edge, and keeps its distances and parents in n-long lists.
Only the ear search, the path-seeded Cartesian tree and the tree conflict
walk of ``construct`` keep their own loops, because they stop or start
differently or need no visited marks.

2-connectivity and bridges come from one lowpoint DFS, ``_lowpoint``; the
minimally 2-connected reduction runs it on one mutable adjacency.  The
2-connectivity test stops at the first cut vertex, and the bridge search
walks every component.  One kernel for both costs the reduction nothing:
``color_2connected`` on ``random_2connected`` graphs with n = 40-80 took
4-9% less time with it than with a 2-connectivity DFS of its own (best of
12 interleaved runs each, 2-CPU Intel Xeon, Python 3.11.7).

All functions are pure and deterministic: ties are broken by vertex or
edge order, never by hashing or randomness.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Optional, Sequence

from .graphs import Edge, Graph, InvariantViolation, _Record, normalize_edge


def _bfs(
    adjacency: Sequence[Sequence[int]],
    sources: Sequence[int],
    reach: Optional[int] = None,
    skip: Optional[Edge] = None,
    order: Optional[list[int]] = None,
) -> tuple[list[int], list[int]]:
    """Breadth-first search from all sources at distance 0, in ascending
    neighbor order, one level at a time in discovery order (the order of a
    FIFO queue).  Returns (dist, parent), two n-long lists indexed by
    vertex; -1 marks an unreached vertex or a missing parent.  Vertices at
    distance ``reach`` are not expanded, so nothing farther is discovered,
    and the edge ``skip`` is never crossed.  The reached vertices are
    appended to ``order``, if given, in visit order, sources first, so a
    caller can visit them without a scan over all n."""
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


def _lowpoint(adjacency: Sequence[Sequence[int]], found: Optional[list[Edge]] = None) -> bool:
    """The one lowpoint DFS (Tarjan 1972), on an explicit stack.  The step
    back to a vertex's DFS parent never counts toward ``low``: the graph is
    simple, so that skips exactly the tree edge, and a tree edge (p, x)
    is a bridge iff low[x] > disc[p].

    With ``found`` None it tests 2-connectivity: n >= 3, connected and no
    cut vertex.  It searches from vertex 0 alone and stops at the first
    cut vertex; vertex 0 is a cut vertex, or the graph is disconnected, iff
    its first subtree misses a vertex.  Otherwise it searches from every
    unvisited vertex, appends each bridge to ``found`` and returns True.
    """
    n = len(adjacency)
    if found is None and (n < 3 or not adjacency[0]):
        return False
    disc = [0] * n  # discovery times from 1; 0 marks an unvisited vertex
    low = [0] * n
    timer = 0
    for root in range(n if found is not None else 1):
        if disc[root]:
            continue
        timer += 1
        disc[root] = low[root] = timer
        stack = [(root, -1, iter(adjacency[root]))]
        while stack:
            x, p, nbrs = stack[-1]
            for y in nbrs:
                if not disc[y]:
                    timer += 1
                    disc[y] = low[y] = timer
                    stack.append((y, x, iter(adjacency[y])))
                    break
                if y != p and disc[y] < low[x]:
                    low[x] = disc[y]
            else:
                stack.pop()
                if p == -1:
                    continue
                if found is None:
                    if p == 0:
                        return timer == n
                    if low[x] >= disc[p]:
                        return False
                elif low[x] > disc[p]:
                    found.append(normalize_edge(p, x))
                if low[x] < low[p]:
                    low[p] = low[x]
    return True


def is_2_connected(g: Graph) -> bool:
    return _lowpoint(g.adjacency)


def bridges(g: Graph) -> list[Edge]:
    """The edges whose removal separates their ends, in ascending order."""
    found: list[Edge] = []
    _lowpoint(g.adjacency, found)
    found.sort()
    return found


def minimally_2connected_spanning(g: Graph) -> Graph:
    """Spanning 2-connected subgraph in which every edge is critical.

    Scans edges in ascending order and removes each one whose removal
    preserves 2-connectivity.  A single pass suffices: once an edge is
    critical it stays critical as further edges disappear.  Each edge is
    taken out of one mutable adjacency, tested, and put back if critical.
    An edge with an end of degree 2 needs no test: without it that end
    has degree 1, and its one neighbour is a cut vertex.
    """
    if not is_2_connected(g):
        raise ValueError("minimally 2-connected reduction requires a 2-connected graph")
    adjacency = [list(nbrs) for nbrs in g.adjacency]
    kept = []
    for u, v in g.edges:
        if len(adjacency[u]) == 2 or len(adjacency[v]) == 2:
            kept.append((u, v))
            continue
        adjacency[u].remove(v)
        adjacency[v].remove(u)
        if not _lowpoint(adjacency):
            adjacency[u].append(v)
            adjacency[v].append(u)
            kept.append((u, v))
    return Graph(g.n, kept)


class EarDecomposition(_Record):
    """A base cycle plus ordered open ears.

    Each ear is a vertex sequence whose two endpoints already belong to the
    graph built so far and whose internal vertices (at least one) are new.
    """

    __slots__ = ("base_cycle", "ears")

    def __init__(self, base_cycle: tuple[int, ...], ears: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "base_cycle", base_cycle)
        object.__setattr__(self, "ears", ears)


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

    Every ear must have at least one internal vertex.  Some ear exists
    while a vertex is uncovered, as the input is 2-connected, so once none
    is found every uncovered edge joins two covered vertices; the raise
    names the first.  No chord check runs between rounds: on minimally
    2-connected input such an edge would be a chord of a cycle of the
    covered, 2-connected graph through its two ends.
    """
    if not is_2_connected(h):
        raise ValueError("ear decomposition requires a 2-connected graph")
    base = _shortest_cycle(h)
    covered_v = set(base)
    covered_e = {normalize_edge(base[i], base[(i + 1) % len(base)]) for i in range(len(base))}
    ears: list[tuple[int, ...]] = []
    while len(covered_e) < h.m:
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
            u, v = next(e for e in h.edges if e not in covered_e)
            raise InvariantViolation(
                f"uncovered edge ({u}, {v}) joins two covered vertices: "
                "it admits only an ear with no internal vertex"
            )
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


class RootedTree(_Record):
    """A spanning tree with parent pointers toward the root and per-vertex
    depths.  ``parent[root]`` is None."""

    __slots__ = ("root", "parent", "depth")

    def __init__(self, root: int, parent: tuple[Optional[int], ...], depth: tuple[int, ...]):
        if parent[root] is not None or depth[root] != 0:
            raise ValueError("root must have no parent and depth 0")
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "depth", depth)

    @property
    def n(self) -> int:
        return len(self.parent)


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
    if isinstance(d, bool) or not isinstance(d, int):
        raise ValueError(f"diameter bound must be an int, got {d!r}")
    if d < 1:
        raise ValueError(f"diameter bound must be >= 1, got {d}")
    if t.n == 1:
        return 0, t
    inside = set(_largest_ball(t, d))
    sub_edges = [(u, v) for u, v in t.edges if u in inside and v in inside]
    return len(sub_edges), Graph(t.n, sub_edges)


def _largest_ball(t: Graph, d: int) -> list[int]:
    """The vertices of the first largest ball that
    ``max_subtree_size_with_diameter`` scans, in the visit order of one
    bounded ``_bfs`` from its center, for a caller that has checked that t
    is a tree with an edge and d >= 1.  A ball of a tree is a subtree, so
    it has one edge fewer than vertices.

    Every ball is sized by level sweeps over t rooted at vertex 0, O(n)
    each.  After sweep j, down[v] counts the vertices of v's subtree within
    j of v: 1 plus down_{j-1} of each child.  The vertices within j of v
    outside its subtree are those within j - 1 of its parent p, less those
    of v's subtree, which lie within j - 2 of v; so ball[v] = down[v] +
    ball_{j-1}[p] - down_{j-2}[v], and the root's ball is its down.  The
    ball of radius r around an edge ab, with b a child of a, is a's ball
    plus the vertices r levels below b: ball[a] + down_r[b] - down_{r-1}[b].

    Once a sweep grows no ball, every ball is the whole tree and no down
    count grows either, so later sweeps would change nothing and the
    sweeping stops: after at most diameter + 1 sweeps, however large d."""
    n, radius = t.n, d // 2
    parent = _bfs(t.adjacency, (0,))[1]
    below, down, ball = [0] * n, [1] * n, [1] * n
    for _ in range(radius):
        grown = [1] * n
        for v in range(1, n):
            grown[parent[v]] += down[v]
        larger = [x + ball[p] - y for x, p, y in zip(grown, parent, below)]
        larger[0] = grown[0]
        below, down = down, grown
        if larger == ball:
            break
        ball = larger
    if d % 2 == 0:
        centers = (ball.index(max(ball)),)
    else:
        lower = [v if parent[v] == u else u for u, v in t.edges]
        sizes = [ball[parent[b]] + down[b] - below[b] for b in lower]
        centers = t.edges[sizes.index(max(sizes))]
    best: list[int] = []
    _bfs(t.adjacency, centers, radius, order=best)
    return best


def open_twins(g: Graph) -> dict[tuple[int, ...], list[int]]:
    """The vertices of g grouped by open neighbourhood, in ascending
    order, keyed by that neighbourhood."""
    classes: dict[tuple[int, ...], list[int]] = {}
    for v, nbrs in enumerate(g.adjacency):
        classes.setdefault(nbrs, []).append(v)
    return classes


def twin_swaps(g: Graph) -> list[tuple[int, ...]]:
    """Vertex maps that swap two consecutive members of a twin class.

    Twins have the same open neighbourhood (``open_twins``) or the same
    closed one, so swapping two of them is an automorphism.
    """
    closed_twins: dict[tuple[int, ...], list[int]] = {}
    for v, nbrs in enumerate(g.adjacency):
        closed_twins.setdefault(tuple(sorted(nbrs + (v,))), []).append(v)
    return [
        _swap(g.n, a, b)
        for members in itertools.chain(open_twins(g).values(), closed_twins.values())
        if len(members) > 1
        for a, b in zip(members, members[1:])
    ]


def _swap(n: int, a: int, b: int) -> tuple[int, ...]:
    swap = list(range(n))
    swap[a], swap[b] = b, a
    return tuple(swap)


def _ranked(keys: list) -> tuple[list[int], int]:
    """Each key's rank among the distinct keys, and how many there are."""
    rank = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [rank[k] for k in keys], len(rank)


def automorphism_generators(g: Graph, deadline=None) -> list[tuple[int, ...]]:
    """Vertex maps that generate Aut(g), by individualize-and-refine.

    An ordered partition (``cell[v]``, cells numbered in order) is refined
    by colour refinement: a vertex's key is its cell and the sorted cells of
    its neighbours, and the cells are split in place, in key order.  Every
    step reads only cell numbers, so an automorphism that fixes the
    individualized vertices carries each refined partition to itself.

    The first path individualizes the first vertex b_i of the first
    smallest non-singleton cell until the partition is discrete.  Then, for
    each base point b_i and each other vertex w of its cell, a depth-first
    search below "individualize w" looks for a discrete partition whose
    vertex order, laid over the first path's, is an automorphism; it prunes
    nodes whose cell sizes differ from the first path's at the same depth.
    Such a map fixes b_1..b_{i-1} and sends b_i to w, so the maps found are
    coset representatives of a stabilizer chain and generate the group.

    The list begins with ``twin_swaps(g)``.  When w is a twin of b_i the
    transposition (b_i w) is such a representative, and the consecutive
    swaps of its twin class generate the whole symmetric group of the
    class, which contains it; so no search runs and no map is added.  A
    twin class of k vertices thus costs k - 1 maps, not about k^2/2, and
    on a star the searches alone would cost O(n^4).  ``deadline`` is None
    or a ``verify._Deadline``; once its ``expired()`` is true the maps
    found so far are returned.
    """
    n, adj = g.n, g.adjacency
    edges = g._edge_set

    def refine(cell: list[int], count: int) -> tuple[list[int], int]:
        while True:
            keys = [(cell[v], tuple(sorted([cell[w] for w in adj[v]]))) for v in range(n)]
            cell, split = _ranked(keys)
            if split == count:
                return cell, count
            count = split

    def individualize(node: tuple[list[int], int], v: int) -> tuple[list[int], int]:
        return refine(*_ranked([(c, x != v) for x, c in enumerate(node[0])]))

    def sizes(node: tuple[list[int], int]) -> list[int]:
        counts = [0] * node[1]
        for c in node[0]:
            counts[c] += 1
        return counts

    def target(node: tuple[list[int], int]) -> list[int]:
        counts = sizes(node)
        smallest = min(k for k in counts if k > 1)
        c = counts.index(smallest)
        return [v for v in range(n) if node[0][v] == c]

    path = [refine([0] * n, 1)]
    base: list[int] = []
    while path[-1][1] < n:
        base.append(target(path[-1])[0])
        path.append(individualize(path[-1], base[-1]))
    shapes = [sizes(node) for node in path]
    first = path[-1][0]

    def search(node: tuple[list[int], int], depth: int) -> Optional[tuple[int, ...]]:
        # Depth-first on an explicit stack of child iterators, so that the
        # depth is not bounded by the recursion limit.
        stack = [iter((node,))]
        while stack:
            node = next(stack[-1], None)
            if node is None:
                stack.pop()
                continue
            level = depth + len(stack) - 1
            if deadline is not None and deadline.expired():
                return None
            if sizes(node) != shapes[level]:
                continue
            if level < len(base):
                stack.append(map(individualize, itertools.repeat(node), target(node)))
                continue
            at = [0] * n
            for v, c in enumerate(node[0]):
                at[c] = v
            image = tuple(at[c] for c in first)
            if all(normalize_edge(image[a], image[b]) in edges for a, b in g.edges):
                return image
        return None

    generators = twin_swaps(g)
    for i, b in enumerate(base):
        for w in target(path[i]):
            # b itself and its twins: the twin swaps already generate (b w).
            if adj[w] == adj[b] or sorted(adj[w] + (w,)) == sorted(adj[b] + (b,)):
                continue
            found = search(individualize(path[i], w), i + 1)
            if found is not None:
                generators.append(found)
            if deadline is not None and deadline.expired():
                return generators
    return generators
