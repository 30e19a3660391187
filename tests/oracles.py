"""Independent brute-force oracles used to cross-check the library.

Everything here recomputes results from first principles (exhaustive
enumeration, direct definitions) and deliberately shares no code with the
implementation paths it checks.  Three are references rather than oracles.
``per_source_certificate`` rebuilds a k = 1 certificate from a tuple-state
search of its own, ``shortest_proper_walks``, one search per source, which
the certificate scan must reproduce exactly; from the library it takes only
the color matrix and the DFS over simple paths (``_proper_paths``) that
stands in for a walk that repeats a vertex.  ``cartesian_by_template_greedy``
is the greedy product coloring whose output ``construct._cartesian_general``
computes in closed form.  ``minimally_2connected_unpruned`` is the
reduction scan that runs the library's lowpoint DFS on every edge, which
``structure.minimally_2connected_spanning`` skips for edges it can tell
are critical from a degree.
"""

from __future__ import annotations

import collections
import itertools
import random

from pcc.graphs import Graph, normalize_edge
from pcc.structure import _lowpoint
from pcc.verify import _color_matrix, _proper_paths


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


def disjoint_proper_paths_by_combinations(g: Graph, coloring, u: int, v: int,
                                          ell: int, k: int):
    """The first k-combination, in itertools order, of the lexicographically
    sorted proper simple u-v paths whose interiors are pairwise disjoint,
    or None."""
    paths = sorted(p for p in all_simple_paths(g, u, v)
                   if window_proper(path_colors(coloring, p), ell))
    for combo in itertools.combinations(paths, k):
        interiors = [set(p[1:-1]) for p in combo]
        if all(not (a & b) for a, b in itertools.combinations(interiors, 2)):
            return combo
    return None


def disjoint_certificate(g: Graph, coloring, ell: int, k: int):
    """(ok, failing_pair, witnesses) of (k, ell)-proper connectivity, pairs
    scanned in lexicographic order and each witnessed by the combination
    above; witnesses stop at the failing pair."""
    witnesses = {}
    for u, v in itertools.combinations(range(g.n), 2):
        combo = disjoint_proper_paths_by_combinations(g, coloring, u, v, ell, k)
        if combo is None:
            return False, (u, v), witnesses
        witnesses[(u, v)] = combo
    return True, None, witnesses


def shortest_proper_walks(adjacency, cmat, u: int, targets, ell: int):
    """The shortest distance-ell proper walk from u to each target that has
    one, by the definition: a breadth-first search over the states (vertex,
    last <= ell walk colors) that tries neighbors in ascending order, never
    steps back onto u, and gives each target the walk of the first state
    at which it arrives.  Each state keeps its parent state, and the walk
    is read off the parent chain.  A walk may repeat a vertex other than u;
    a target missing from the result has no proper path."""
    start = (u, ())
    parent = {start: None}
    first = {}
    pending = set(targets)
    queue = collections.deque([start])
    while queue and pending:
        state = queue.popleft()
        x, recent = state
        for y in sorted(adjacency[x]):
            c = cmat[x][y]
            if y == u or c in recent:
                continue
            step = (y, (recent + (c,))[-ell:])
            if step in parent:
                continue
            parent[step] = state
            queue.append(step)
            if y in pending:
                pending.remove(y)
                first[y] = step
    walks = {}
    for v, state in first.items():
        walk = []
        while state is not None:
            walk.append(state[0])
            state = parent[state]
        walks[v] = tuple(reversed(walk))
    return walks


def per_source_certificate(g: Graph, coloring, ell: int):
    """(ok, failing_pair, witnesses) of (1, ell)-proper connectivity, pairs
    scanned in lexicographic order: an adjacent pair is witnessed by its
    edge, and each other pair of source u by its walk from one
    ``shortest_proper_walks`` search from u when that walk is simple, else
    by the first proper path of the DFS over simple paths.  No state is
    shared between sources."""
    cmat = _color_matrix(g, coloring)
    witnesses = {}
    for u in range(g.n - 1):
        targets = [v for v in range(u + 1, g.n) if not g.has_edge(u, v)]
        walks = shortest_proper_walks(g.adjacency, cmat, u, targets, ell)
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                witnesses[(u, v)] = ((u, v),)
                continue
            path = walks.get(v)
            if path is not None and len(set(path)) < len(path):
                path = next(_proper_paths(g.adjacency, cmat, (u,), [], v, ell), None)
            if path is None:
                return False, (u, v), witnesses
            witnesses[(u, v)] = (path,)
    return True, None, witnesses


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


def bridges_by_removal(g: Graph) -> list[tuple[int, int]]:
    """The edges of a connected g whose deletion disconnects it: for each
    edge, a search from vertex 0 over the other edges misses a vertex."""
    out = []
    for e in g.edges:
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in g.adjacency[x]:
                if y not in seen and normalize_edge(x, y) != e:
                    seen.add(y)
                    stack.append(y)
        if len(seen) < g.n:
            out.append(e)
    return out


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


def minimally_2connected_by_rebuild(g: Graph) -> Graph:
    """Minimally 2-connected spanning subgraph by the plain scan: in
    ascending edge order, build the graph without the edge and drop the edge
    if that graph is still 2-connected by definition."""
    kept = list(g.edges)
    for e in g.edges:
        trial = [x for x in kept if x != e]
        if two_connected_by_definition(Graph(g.n, trial)):
            kept = trial
    return Graph(g.n, kept)


def minimally_2connected_unpruned(g: Graph) -> Graph:
    """The reduction scan with no edge exempt from the test: in ascending
    edge order, take each edge out of one mutable adjacency and put it back
    if the lowpoint DFS finds the rest not 2-connected."""
    adjacency = [list(nbrs) for nbrs in g.adjacency]
    kept = []
    for u, v in g.edges:
        adjacency[u].remove(v)
        adjacency[v].remove(u)
        if not _lowpoint(adjacency):
            adjacency[u].append(v)
            adjacency[v].append(u)
            kept.append((u, v))
    return Graph(g.n, kept)


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


def brute_force_automorphisms(g: Graph) -> set[tuple[int, ...]]:
    """Every vertex permutation that maps the edge set onto itself, by
    trying all n! of them."""
    edges = set(g.edges)
    return {
        image for image in itertools.permutations(range(g.n))
        if all(normalize_edge(image[a], image[b]) in edges for a, b in g.edges)
    }


def generated_group(generators, n: int) -> set[tuple[int, ...]]:
    """The permutation group that the generators generate, by closing the
    identity under composition with each of them."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        found = []
        for p in frontier:
            for s in generators:
                q = tuple(s[x] for x in p)
                if q not in group:
                    group.add(q)
                    found.append(q)
        frontier = found
    return group


def cartesian_by_template_greedy(g: Graph, h: Graph, s_tree, t_tree) -> dict:
    """Colors of the spanning tree box s_tree x t_tree by the template
    greedy: list every walk that goes down one tree to its root copy, then
    up the other (through the root copy of the first when it leaves it),
    require edges at most 2 apart on one walk to differ, and give each edge
    the lowest free color in 1..3, in order of depth."""

    def root_path(tree, v: int) -> list[int]:
        path = [v]
        while tree.parent[path[-1]] is not None:
            path.append(tree.parent[path[-1]])
        return list(reversed(path))

    def tree_edges_by_depth(tree):
        out = []
        for v in range(tree.n):
            p = tree.parent[v]
            if p is not None:
                out.append((v, p, tree.depth[v]))
        out.sort(key=lambda e: (e[2], e[0]))
        return out

    u1, v1 = s_tree.root, t_tree.root
    hn = h.n

    def pv(u: int, v: int) -> int:
        return u * hn + v

    templates: list[list[int]] = []
    for j in range(g.n):
        down = [pv(x, v1) for x in reversed(root_path(s_tree, j))]
        for t in range(h.n):
            up = [pv(u1, y) for y in root_path(t_tree, t)[1:]]
            templates.append(down + up)
    for i in range(h.n):
        if i == v1:
            continue
        t_mid = [pv(u1, y) for y in root_path(t_tree, i)[1:]]
        for j1 in range(g.n):
            down = [pv(x, v1) for x in reversed(root_path(s_tree, j1))]
            for ji in range(g.n):
                out = [pv(x, i) for x in root_path(s_tree, ji)[1:]]
                templates.append(down + t_mid + out)
    for s in range(g.n):
        if s == u1:
            continue
        s_mid = [pv(x, v1) for x in root_path(s_tree, s)[1:]]
        for t1 in range(h.n):
            down = [pv(u1, y) for y in reversed(root_path(t_tree, t1))]
            for ts in range(h.n):
                out = [pv(s, y) for y in root_path(t_tree, ts)[1:]]
                templates.append(down + s_mid + out)

    conflicts: dict = {}
    for path in templates:
        edges = [normalize_edge(a, b) for a, b in zip(path, path[1:])]
        for j in range(len(edges)):
            for back in (1, 2):
                if j - back < 0:
                    continue
                e, f = edges[j], edges[j - back]
                conflicts.setdefault(e, set()).add(f)
                conflicts.setdefault(f, set()).add(e)

    order = []
    for child, parent, _ in tree_edges_by_depth(t_tree):
        order.append(normalize_edge(pv(u1, child), pv(u1, parent)))
    for child, parent, _ in tree_edges_by_depth(s_tree):
        order.append(normalize_edge(pv(child, v1), pv(parent, v1)))
    for i in range(h.n):
        if i == v1:
            continue
        for child, parent, _ in tree_edges_by_depth(s_tree):
            order.append(normalize_edge(pv(child, i), pv(parent, i)))
    for s in range(g.n):
        if s == u1:
            continue
        for child, parent, _ in tree_edges_by_depth(t_tree):
            order.append(normalize_edge(pv(s, child), pv(s, parent)))

    colors = {}
    for e in order:
        taken = {colors[f] for f in conflicts.get(e, ()) if f in colors}
        free = [c for c in range(1, 4) if c not in taken]
        if not free:
            raise AssertionError(f"no free color for product tree edge {e}")
        colors[e] = free[0]
    return colors
