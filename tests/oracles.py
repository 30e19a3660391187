"""Independent brute-force oracles used to cross-check the library.

Everything here recomputes results from first principles (exhaustive
enumeration, direct definitions) and deliberately shares no code with the
implementation paths it checks.
"""

from __future__ import annotations

import itertools
import random

from pcc.graphs import Graph, normalize_edge


def all_simple_paths(g: Graph, u: int, v: int) -> list[tuple[int, ...]]:
    """Every simple u-v path, by plain backtracking over raw adjacency."""
    out = []
    stack = [(u, [u])]
    while stack:
        x, path = stack.pop()
        for y in g.adjacency[x]:
            if y == v:
                out.append(tuple(path) + (v,))
            elif y not in path:
                stack.append((y, path + [y]))
    return out


def window_proper(colors: list[int], ell: int) -> bool:
    """Direct definition: equal colors at positions i < j force j - i > ell."""
    for i in range(len(colors)):
        for j in range(i + 1, len(colors)):
            if colors[i] == colors[j] and j - i <= ell:
                return False
    return True


def path_colors(coloring, path) -> list[int]:
    return [coloring.colors[normalize_edge(a, b)] for a, b in zip(path, path[1:])]


def proper_path_exists(g: Graph, coloring, u: int, v: int, ell: int,
                       paths=None) -> bool:
    """Existence of a window-proper simple path via filter-all-paths."""
    if paths is None:
        paths = all_simple_paths(g, u, v)
    return any(window_proper(path_colors(coloring, p), ell) for p in paths)


def stirling2(m: int, j: int) -> int:
    """Partition numbers via the standard recurrence."""
    if j == 0:
        return 1 if m == 0 else 0
    if m == 0 or j > m:
        return 0
    table = [[0] * (j + 1) for _ in range(m + 1)]
    table[0][0] = 1
    for a in range(1, m + 1):
        for b in range(1, min(a, j) + 1):
            table[a][b] = b * table[a - 1][b] + table[a - 1][b - 1]
    return table[m][j]


def canonical_form(assignment: tuple[int, ...]) -> tuple[int, ...]:
    """Relabel colors by first appearance."""
    seen: dict[int, int] = {}
    out = []
    for c in assignment:
        if c not in seen:
            seen[c] = len(seen) + 1
        out.append(seen[c])
    return tuple(out)


def brute_force_max_subtree(t: Graph, d: int) -> int:
    """Maximum edges over all subtrees of diameter <= d by enumerating
    every subset of edges and keeping the connected acyclic ones."""
    best = 0
    edges = t.edges
    for r in range(1, len(edges) + 1):
        for subset in itertools.combinations(edges, r):
            vertices = {v for e in subset for v in e}
            if len(vertices) != r + 1:
                continue  # not a tree on its support
            adj = {v: [] for v in vertices}
            for a, b in subset:
                adj[a].append(b)
                adj[b].append(a)
            start = next(iter(vertices))
            seen = {start}
            frontier = [start]
            while frontier:
                frontier = [y for x in frontier for y in adj[x] if y not in seen]
                seen.update(frontier)
            if len(seen) != len(vertices):
                continue
            if _tree_diameter(adj, vertices) <= d:
                best = max(best, r)
    return best


def _tree_diameter(adj, vertices) -> int:
    def far(s):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        v = max(dist, key=lambda x: (dist[x], x))
        return v, dist[v]

    a, _ = far(next(iter(vertices)))
    _, d = far(a)
    return d


def brute_force_split(parts) -> int | None:
    """Smallest valid prefix split by checking every index directly."""
    total = sum(parts)
    for i in range(1, len(parts)):
        a = sum(parts[:i])
        b = total - a
        if max(a, b) <= 2 ** min(a, b):
            return i
    return None


def two_connected_by_definition(g: Graph) -> bool:
    """n >= 3, connected, and connected after deleting any one vertex."""
    if g.n < 3:
        return False

    def connected_without(skip: int | None) -> bool:
        keep = [v for v in range(g.n) if v != skip]
        if not keep:
            return True
        seen = {keep[0]}
        stack = [keep[0]]
        while stack:
            x = stack.pop()
            for y in g.adjacency[x]:
                if y != skip and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(keep)

    return connected_without(None) and all(connected_without(v) for v in range(g.n))


def random_connected_graph(n: int, rng: random.Random, extra: float = 0.35) -> Graph:
    """Random spanning tree plus a sprinkling of extra edges."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        edges.add(normalize_edge(order[i], order[rng.randrange(i)]))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra:
                edges.add((u, v))
    return Graph(n, sorted(edges))


def random_coloring(g: Graph, t: int, rng: random.Random):
    from pcc.graphs import EdgeColoring

    colors = {e: rng.randint(1, t) for e in g.edges}
    return EdgeColoring(colors, num_colors=max(colors.values()))


def hamiltonian_path_full_scan(g: Graph):
    """Reference Hamiltonian-path search: the same backtracking order and
    dead-vertex prune as the library, but the prune rescans every vertex
    after each extension."""
    n = g.n
    if n == 1:
        return (0,)
    for start in range(n):
        visited = [False] * n
        visited[start] = True
        path = [start]
        stack = [iter(g.adjacency[start])]
        while stack:
            if len(path) == n:
                return tuple(path)
            for w in stack[-1]:
                if visited[w]:
                    continue
                visited[w] = True
                path.append(w)
                stranded = len(path) < n and any(
                    not visited[x] and all(visited[y] for y in g.adjacency[x])
                    and not g.has_edge(x, w)
                    for x in range(n)
                )
                if stranded:
                    path.pop()
                    visited[w] = False
                    continue
                stack.append(iter(g.adjacency[w]))
                break
            else:
                stack.pop()
                if stack:
                    visited[path.pop()] = False
    return None


def tree_conflict_colors_full_scan(t: Graph, edge, ell: int, colors) -> set[int]:
    """Reference conflict colors for a tree edge: a bounded search from each
    end that does not cross the edge, then a scan of every colored edge for
    one with an end within ell-1 steps."""
    a, b = edge
    reach = ell - 1
    out: set[int] = set()
    for src, block in ((a, b), (b, a)):
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for x in frontier:
                if dist[x] >= reach:
                    continue
                for y in t.adjacency[x]:
                    if y == block and x == src:
                        continue
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        for f, c in colors.items():
            if f == edge:
                continue
            near = min(dist.get(f[0], reach + 1), dist.get(f[1], reach + 1))
            if near <= reach:
                out.add(c)
    return out


def shortest_cycle_unbounded(g: Graph) -> list[int]:
    """Reference shortest cycle: for each edge in ascending order, an
    unbounded search between its ends that avoids the edge; a strictly
    shorter cycle replaces the best one."""
    best = None
    for u, v in g.edges:
        parent = [-1] * g.n
        dist = [-1] * g.n
        dist[u] = 0
        queue = [u]
        for x in queue:
            if x == v:
                break
            for y in g.adjacency[x]:
                if dist[y] == -1 and not (x == u and y == v):
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
        if dist[v] == -1:
            continue
        path = [v]
        while path[-1] != u:
            path.append(parent[path[-1]])
        path.reverse()
        if best is None or len(path) < len(best):
            best = path
    if best is None:
        raise ValueError("graph has no cycle")
    return best


def relaxed_walk_exists(
    incident: list[list[tuple[int, int]]],
    assignment: tuple[int, ...],
    p: int,
    t: int,
    u: int,
    v: int,
    ell: int,
) -> bool:
    """Whether some distance-ell proper walk leads from u to v when only the
    first p edges keep their colors and every later edge may take any color
    in 1..t, anew at each traversal.

    The search runs over the states (vertex, previous vertex, last <= ell
    colors); the walk never re-enters u and never turns straight back along
    the edge it came in on.  Every proper simple u-v path of every
    completion of the prefix is such a walk, so False refutes (u, v) for
    all of them.
    """
    start = (u, -1, ())
    seen = {start}
    states = [start]
    free = range(1, t + 1)
    for x, back, window in states:
        kept = window[len(window) >= ell:]
        for y, e in incident[x]:
            if y == back or y == u:
                continue
            for c in (assignment[e],) if e < p else free:
                if c in window:
                    continue
                if y == v:
                    return True
                state = (y, x, kept + (c,))
                if state not in seen:
                    seen.add(state)
                    states.append(state)
    return False
