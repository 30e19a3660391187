"""Deciding whether colored paths and colorings meet the distance-window
proper condition.

A path is distance-l proper when any two equally colored edges on it have
more than l-1 edges between them; equivalently, every window of l+1
consecutive edges is rainbow.  With l = 1 this is the ordinary proper-path
condition (adjacent edges differ).  A graph with a coloring is (k, l)-proper
connected when every vertex pair is joined by k internally vertex-disjoint
distance-l proper paths.

The pairs of a source are decided by one breadth-first search from it,
``_walk_states``, over the states (vertex, last <= l walk colors); it finds
the shortest proper walk to every target in polynomial time.  A target the
search never reaches has no proper path.  A walk that is simple is the
witness; only when the shortest walk repeats a vertex does that pair fall
back to the exhaustive, iterative DFS over simple paths (``_proper_paths``).
Neither search recurses, so witnesses of any length are found.

Two scans run that per-source search over every source.  The decision scan
(``_failing_source``, behind the exact search) runs ``_walk_states``
from each source on tuple states and reads masks, not walks: each state
carries the vertex bitmask of its walk, -1 once the walk repeats a vertex,
so only a target whose mask is -1 needs the fallback.  It keeps no parents
and builds no walk.  The table scan (``_certified_pairs``) runs the same
search on one ``_WalkStateTable`` shared by all sources, in which windows
are interned as ints and each state gets a dense int id when it is first
reached.  Per-id lists replace the per-source hash sets: a state is seen by
source u when its stamp is u, and its predecessor is kept beside the stamp.
Every list has one entry per state reached, which on a coloring with many
colors is a small share of windows x n.  The queue holds the same states in
the same order, so both scans reach each target by the same walk.  A state's
proper successors are kept as a list of ids from its second expansion on,
which is always by a later source, and later expansions iterate that list;
a state expanded once keeps nothing.  The sources of a full scan expand the
same states many times (16x on Q_7 at l=3), so sharing pays; the exact
search's scans are tiny and mostly stop at source 0, where the table only
costs its set-up, so the decision scan stays on tuple states.  The table is
the only walk builder: ``find_distance_proper_path`` runs one search on a
table of its own.

The table scan has two modes.  With a witness dict it is the certificate
scan behind ``verify_coloring`` at k = 1: it turns each target's state id
into its walk and records it.  Without one it is the verdict scan behind
``first_failing_pair``, and so behind every k = 1 verdict of the CLI: it
skips adjacent pairs and builds no walk.  The targets that one expansion of
a state s reaches are one run of the search's result and are s's walk plus
one step, so per run the certificate scan reads s's walk off the
predecessor chain once and the verdict scan s's vertex bitmask.  A walk of
at most 4 edges by which the search first reaches a target is simple, so
only longer walks are tested for a repeated vertex.  Both modes send the
same pairs to the fallback and check the call's one deadline at the same
points, so they return the same failing pair and raise the same timeouts.

Before its search, each source of the table scan is tried on neighbour
bitmasks (``_two_edge_hubs``).  When proper two-edge walks u-h-v reach all
of u's targets, the source runs no search: the search would reach each
target v at level 2, from the first neighbour h in ascending order that
joins v by a color other than c(u,h), by the simple walk (u, h, v).  The
certificate scan records those walks, and the verdict scan passes the
source.  Most sources of the paper's diameter-2 families (complete
bipartite and multipartite graphs, joins) are settled this way.

A tree joins each pair by one path, so it is (1, l)-proper connected
exactly when its paths of at most l+1 edges are rainbow.  With no time
limit, ``first_failing_pair`` decides a tree without building anything
n x n: ``_tree_failing_pair`` reads its colors into rows aligned with the
adjacency, accepts it from its short paths (vertex palettes at l <= 2, one
DFS per vertex over at most n - 1 paths at l >= 3), and names a failing
tree's first failing pair by one walk per source that keeps O(n).  A time
limit keeps the table scan and its matrix, so timeouts stay those of
``verify_coloring``, which always builds the matrix: its certificate has
n(n-1)/2 witnesses anyway.  On other graphs the verdict is not local.

For k >= 2 a backtracking search draws each path from ``_proper_paths``
with the earlier paths' interiors blocked; the DFS yields paths in
lexicographic order blocked or not, so it finds the lexicographically first
disjoint k-tuple.

Certificates are deterministic: for k = 1 an adjacent pair is witnessed by
its edge, which is always proper, and every other pair by its shortest
proper path, the first in ascending-neighbor BFS order, or, after a
fallback, by the first proper path in ascending-neighbor DFS order.
"""

from __future__ import annotations

import itertools
import time
from typing import Iterable, Iterator, Optional

from .graphs import EdgeColoring, Graph, _Record, normalize_edge
from .structure import is_tree

Pair = tuple[int, int]
Path = tuple[int, ...]


class VerificationTimeout(TimeoutError):
    """The verification time budget ran out before a verdict was reached."""


class VerificationCertificate(_Record):
    """Outcome of a full (k, l)-proper connectivity check.

    When ok, ``witnesses`` maps every unordered vertex pair (u < v) to a
    tuple of k internally disjoint distance-l proper paths.  When not ok,
    ``failing_pair`` is the lexicographically first pair with no witness,
    and ``witnesses`` holds those of every pair before it.  Either way the
    pairs iterate in lexicographic order.
    """

    __slots__ = ("ok", "witnesses", "failing_pair")

    def __init__(
        self, ok: bool, witnesses: dict[Pair, tuple[Path, ...]], failing_pair: Optional[Pair]
    ):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "failing_pair", failing_pair)


def _positive_int(name: str, value) -> int:
    """``value`` if it is an int >= 1 (a bool is not), else ValueError
    naming it; a float such as 2.9 would otherwise act as its floor."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an int >= 1, got {value!r}")
    return value


def _number(name: str, value):
    """``value`` if it is an int or a float (a bool is not), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def _validate_window(ell: int) -> int:
    return _positive_int("window parameter", ell)


class _Deadline:
    """The one budget of a ``verify_coloring``, ``first_failing_pair`` or
    ``exact.min_colors_exact`` call, made on entry and passed unchanged to
    each of its searches, which stop once ``time.monotonic()`` passes
    ``end`` (``expired()``; the hot loops read ``end`` inline); the timeout
    names the ``budget`` in seconds.  ValueError unless ``time_limit`` is a
    number >= 0; NaN fails the test, so it cannot disable every check."""

    __slots__ = ("end", "budget")

    def __init__(self, time_limit: float) -> None:
        if not _number("time_limit", time_limit) >= 0:
            raise ValueError(f"time_limit must be >= 0, got {time_limit}")
        self.end = time.monotonic() + time_limit
        self.budget = time_limit

    def expired(self) -> bool:
        return time.monotonic() > self.end

    def timeout(self, search: str) -> VerificationTimeout:
        return VerificationTimeout(f"{search} exceeded the time budget of {self.budget} s")


def is_distance_proper_path(coloring: EdgeColoring, path: Path, ell: int) -> bool:
    """True iff the vertex sequence is a simple path of the colored graph
    in which every window of ell+1 consecutive edges is rainbow."""
    ell = _validate_window(ell)
    if len(path) < 2:
        raise ValueError("a path needs at least two vertices")
    if len(set(path)) != len(path):
        raise ValueError(f"vertex sequence {path} repeats a vertex")
    colors = []
    for a, b in zip(path, path[1:]):
        e = normalize_edge(a, b)
        if e not in coloring.colors:
            raise ValueError(f"consecutive vertices {a}, {b} are not joined by a colored edge")
        colors.append(coloring.colors[e])
    for j in range(len(colors)):
        for i in range(max(0, j - ell), j):
            if colors[i] == colors[j]:
                return False
    return True


def _color_matrix(g: Graph, coloring: EdgeColoring) -> list[list[int]]:
    """n x n edge colors of g, 0 for non-edges; colored pairs that are not
    edges of g stay 0, so a nonzero entry always marks a real edge."""
    mat = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        c = coloring.colors.get((u, v))
        if c is None:
            raise ValueError(f"partial coloring: edge {(u, v)} has no color")
        mat[u][v] = c
        mat[v][u] = c
    return mat


def _proper_paths(
    adjacency,
    cmat: list[list[int]],
    prefix: Path,
    prefix_colors: list[int],
    v: int,
    ell: int,
    deadline: Optional[_Deadline] = None,
    blocked: Iterable[int] = (),
) -> Iterator[Path]:
    """Every distance-ell proper simple path that extends ``prefix`` (whose
    edge colors are ``prefix_colors``) to v and avoids the ``blocked``
    vertices, in ascending-neighbor DFS order.

    The DFS runs on an explicit stack, so path length is not bounded by the
    recursion limit.  A frame holds the neighbor iterator of a path vertex
    and the last ell path colors, which the next edge must avoid; the window
    condition is hereditary on prefixes, so pruning on it is sound and
    complete.  The call's ``deadline`` is checked before every step.
    """
    on_path = [False] * len(cmat)
    for x in itertools.chain(prefix, blocked):
        on_path[x] = True
    path = list(prefix)
    colors = list(prefix_colors)
    stack = [(iter(adjacency[path[-1]]), cmat[path[-1]], colors[-ell:])]
    while stack:
        if deadline is not None and time.monotonic() > deadline.end:
            raise deadline.timeout(f"path search for pair {(prefix[0], v)}")
        nbrs, row, recent = stack[-1]
        for y in nbrs:
            if on_path[y] or row[y] in recent:
                continue
            if y == v:
                yield (*path, v)
                continue
            on_path[y] = True
            path.append(y)
            colors.append(row[y])
            stack.append((iter(adjacency[y]), cmat[y], colors[-ell:]))
            break
        else:
            stack.pop()
            if stack:
                on_path[path.pop()] = False
                colors.pop()


def _walk_states(
    adjacency, cmat: list[list[int]], u: int, targets, ell: int
) -> tuple[dict[int, int], list[int]]:
    """The breadth-first search from u over the states (vertex, last <= ell
    walk colors), in ascending-neighbor order; it never re-enters u and
    stops once every target is reached.

    Returns ``(reached, masks)``: ``reached`` maps each reached target to
    the index of the first state at which the search reached it, and
    ``masks[i]`` is the vertex bitmask of the walk that ends at state i, or
    -1 once that walk repeats a vertex.  -1 has every bit set, so it stays
    -1 down the chain.  No walk is kept: the masks are all a verdict reads.
    """
    pending = set(targets)
    reached: dict[int, int] = {}
    states = [(u, ())]
    masks = [1 << u]
    seen = set()
    for i, (x, window) in enumerate(states):
        if not pending:
            break
        row = cmat[x]
        kept = window[len(window) >= ell:]
        mask = masks[i]
        for y in adjacency[x]:
            c = row[y]
            if c in window or y == u:
                continue
            state = (y, kept + (c,))
            if state in seen:
                continue
            seen.add(state)
            bit = 1 << y
            masks.append(-1 if mask & bit else mask | bit)
            states.append(state)
            if y in pending:
                pending.remove(y)
                reached[y] = len(states) - 1
    return reached, masks


def find_distance_proper_path(
    g: Graph, coloring: EdgeColoring, u: int, v: int, ell: int
) -> Optional[Path]:
    """A distance-ell proper simple path from u to v, or None if no simple
    path of the colored graph satisfies the window condition.  The path is
    the shortest proper walk when that is simple, else the first proper path
    in DFS order; verify_coloring certifies non-adjacent pairs with it.  It
    takes the table scan's three steps for one pair on a one-source table:
    ``reach``, then the DFS fallback if ``repeating`` flags v, else the
    walk."""
    ell = _validate_window(ell)
    if u == v or not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"endpoints must be distinct vertices 0..{g.n - 1}, got {u}, {v}")
    cmat = _color_matrix(g, coloring)
    table = _WalkStateTable(g.adjacency, cmat, ell)
    reached = table.reach(u, (v,))
    if v in table.repeating(reached):
        return next(_proper_paths(g.adjacency, cmat, (u,), [], v, ell), None)
    return table.walks(reached).get(v)


def _disjoint_proper_paths(
    adjacency, cmat: list[list[int]], u: int, v: int, ell: int, k: int, deadline=None
) -> Optional[tuple[Path, ...]]:
    """The lexicographically first k internally disjoint distance-ell proper
    u-v paths, or None.  Level j draws, in DFS order, the paths after the
    last chosen one that avoid the chosen interiors (so the edge uv is not
    chosen twice), and backtracks when it runs out.  Every level checks the
    call's one ``deadline``."""

    def paths_avoiding(chosen: list[Path]) -> Iterator[Path]:
        blocked = [x for p in chosen for x in p[1:-1]]
        return _proper_paths(adjacency, cmat, (u,), [], v, ell, deadline, blocked)

    chosen: list[Path] = []
    levels = [paths_avoiding(chosen)]
    while levels:
        path = next(levels[-1], None)
        if path is None:
            levels.pop()
            if chosen:
                chosen.pop()
        elif not chosen or path > chosen[-1]:
            chosen.append(path)
            if len(chosen) == k:
                return tuple(chosen)
            levels.append(paths_avoiding(chosen))
    return None


class _WalkStateTable:
    """The walk states of one colored graph, shared by the per-source
    searches of one table scan and dropped with it.

    Each window (last <= ell walk colors) gets an int id on first use, and
    ``steps[w][c]`` holds the id of the window after a step of color c, or
    -1 if c is already in window w.  Each state (window w, vertex y) gets a
    dense int id when a search first creates it, and ``ids`` maps the key
    ``w * n + y`` to that id.  The per-id lists hold a state's ``vertex``,
    its ``window``, its ``successors``, the last source that reached it
    (``stamp``) and its predecessor in that source's search (``pred``), so
    each has one entry per state created and none per unreached pair of a
    window and a vertex.  ``successors[s]`` is None until s is first
    expanded and False after that; its second expansion, which is always by
    a later source, stores the ids of s's proper successors in
    ascending-neighbor order, and later expansions iterate that list.
    """

    def __init__(self, adjacency, cmat: list[list[int]], ell: int) -> None:
        self.adjacency = adjacency
        self.cmat = cmat
        self.ell = ell
        self.windows: list[tuple[int, ...]] = [()]
        self.window_ids: dict[tuple[int, ...], int] = {(): 0}
        self.steps: list[dict[int, int]] = [{}]
        self.ids: dict[int, int] = {}
        self.vertex: list[int] = []
        self.window: list[int] = []
        self.successors: list = []
        self.stamp: list[int] = []
        self.pred: list[int] = []

    def _step(self, w: int, c: int) -> int:
        window = self.windows[w]
        if c in window:
            t = -1
        else:
            after = window[len(window) >= self.ell:] + (c,)
            t = self.window_ids.setdefault(after, len(self.windows))
            if t == len(self.windows):
                self.windows.append(after)
                self.steps.append({})
        self.steps[w][c] = t
        return t

    def reach(self, u: int, targets, deadline: Optional[_Deadline] = None) -> dict[int, int]:
        """The state id at which the breadth-first search from u over the
        states (vertex, last <= ell walk colors), in ascending-neighbor
        order and never re-entering u, first reaches each target it
        reaches; the queue holds the states of ``_walk_states`` in the same
        order, and ``walks`` turns the ids into walks.  A state is seen by
        this search when its stamp is u, and its ``pred`` chain is its walk
        until the next search.  The call's ``deadline`` is checked before
        the first state and every 256 states after it."""
        n = len(self.cmat)
        adjacency, cmat, steps, ids = self.adjacency, self.cmat, self.steps, self.ids
        vertex, window, successors = self.vertex, self.window, self.successors
        stamp, pred = self.stamp, self.pred
        wanted = bytearray(n)
        for v in targets:
            wanted[v] = 1
        left = wanted.count(1)
        reached: dict[int, int] = {}
        start = ids[u] = len(vertex)
        vertex.append(u)
        window.append(0)
        successors.append(None)
        stamp.append(u)
        pred.append(-1)
        size = start + 1
        queue = [start]
        for i, s in enumerate(queue):
            if not left:
                break
            if deadline is not None and not i & 255 and time.monotonic() > deadline.end:
                raise deadline.timeout(f"search from vertex {u}")
            kept = successors[s]
            if not kept:
                w, x = window[s], vertex[s]
                row, step = cmat[x], steps[w]
                if kept is not None:
                    # The first expansion gave every proper successor its id.
                    # An empty list is built again, at the cost of one pass.
                    kept = successors[s] = [
                        ids[after * n + y] for y in adjacency[x] if (after := step[row[y]]) >= 0
                    ]
                else:
                    for y in adjacency[x]:
                        c = row[y]
                        after = step.get(c)
                        if after is None:
                            after = self._step(w, c)
                        if after < 0:
                            continue
                        t = ids.setdefault(after * n + y, size)
                        if t == size:
                            size += 1
                            vertex.append(y)
                            window.append(after)
                            successors.append(None)
                            stamp.append(u)
                            pred.append(s)
                        elif stamp[t] == u:
                            continue
                        else:
                            stamp[t] = u
                            pred[t] = s
                        if y == u:
                            continue
                        queue.append(t)
                        if wanted[y]:
                            wanted[y] = 0
                            left -= 1
                            reached[y] = t
                    successors[s] = False
                    continue
            for t in kept:
                if stamp[t] == u:
                    continue
                stamp[t] = u
                pred[t] = s
                y = vertex[t]
                if y == u:
                    continue
                queue.append(t)
                if wanted[y]:
                    wanted[y] = 0
                    left -= 1
                    reached[y] = t
        return reached

    def walks(self, reached: dict[int, int]) -> dict[int, Path]:
        """The walk of the last search to each target, which ends at the
        state that ``reached`` maps it to.  ``reach`` sets a state's
        ``pred`` only when it first stamps it, so the targets found by one
        expansion of a state s form one run of ``reached`` and share s's
        walk as their prefix: the first is read off its chain, and the
        prefix is sliced off it only when a second one needs it."""
        vertex, pred = self.vertex, self.pred
        walks = {}
        s = -2
        for v, t in reached.items():
            x = pred[t]
            if x == s:
                if prefix is None:
                    prefix = walk[:-1]
                walks[v] = prefix + (v,)
                continue
            s = x
            prefix = None
            chain = [v]
            while x >= 0:
                chain.append(vertex[x])
                x = pred[x]
            walks[v] = walk = tuple(reversed(chain))
        return walks

    def repeating(self, reached: dict[int, int]) -> set[int]:
        """The targets whose walk in the last search, which ends at the
        state ``reached`` maps them to, repeats a vertex, found without
        building the walks.  Each run of targets found by one expansion of
        a state s (see ``walks``) computes the vertex bitmask of s's walk
        once, -1 if that walk already repeats a vertex; a target v repeats
        iff that mask is -1 or holds bit v.  ``masks`` keeps the mask of
        each such s, and the chain is read only up to the nearest state
        in it, so deep chains are not read once per run."""
        vertex, pred = self.vertex, self.pred
        masks = {-1: 0}
        repeats = set()
        s = -2
        for v, t in reached.items():
            x = pred[t]
            if x != s:
                s = x
                mask = 0
                while x not in masks:
                    bit = 1 << vertex[x]
                    if mask & bit:
                        mask = -1
                        break
                    mask |= bit
                    x = pred[x]
                else:
                    mask = -1 if masks[x] & mask else masks[x] | mask
                masks[s] = mask
            if mask & (1 << v):
                repeats.add(v)
        return repeats


def verify_coloring(
    g: Graph,
    coloring: EdgeColoring,
    ell: int,
    k: int = 1,
    time_limit: Optional[float] = None,
) -> VerificationCertificate:
    """Check (k, ell)-proper connectivity of the colored graph.

    Pairs are scanned in lexicographic order, so the failing pair is
    reproducible; the module docstring says how each pair is decided.  For
    k >= 2 the witness is the lexicographically first k-tuple of internally
    disjoint proper paths, since the DFS yields the paths that avoid the
    blocked interiors in the same order as it yields all of them.
    ``time_limit`` (seconds >= 0, or None) bounds the whole call: every
    search in it, for any k, checks the one deadline set on entry.  Running
    out raises VerificationTimeout, naming the source or pair whose search
    it stopped and the budget, rather than guessing a verdict.
    """
    ell = _validate_window(ell)
    k = _positive_int("k", k)
    deadline = None if time_limit is None else _Deadline(time_limit)
    cmat = _color_matrix(g, coloring)
    witnesses: dict[Pair, tuple[Path, ...]] = {}
    if k == 1:
        failing = _certified_pairs(g.adjacency, cmat, g.n, ell, witnesses, deadline)
        return VerificationCertificate(failing is None, witnesses, failing)
    for u, v in itertools.combinations(range(g.n), 2):
        found = _disjoint_proper_paths(g.adjacency, cmat, u, v, ell, k, deadline)
        if found is None:
            return VerificationCertificate(False, witnesses, (u, v))
        witnesses[(u, v)] = found
    return VerificationCertificate(True, witnesses, None)


def first_failing_pair(
    g: Graph, coloring: EdgeColoring, ell: int, time_limit: Optional[float] = None
) -> Optional[Pair]:
    """Lexicographically first pair with no distance-ell proper path, or
    None if the coloring makes the graph (1, ell)-proper connected: the
    ``failing_pair`` of ``verify_coloring(g, coloring, ell)``, with the
    same ``time_limit`` (one budget for the whole call) and timeouts.  It
    runs the table scan in its verdict mode, which builds no witness; the
    CLI takes every k = 1 verdict from here.  The exact search runs the
    decision scan ``_failing_source`` instead.

    A tree with no time limit is decided by ``_tree_failing_pair`` from
    its edge colors alone, without the color matrix or the scan.  Under a
    time limit a tree runs the scan too, so the budget runs out where
    ``verify_coloring``'s does."""
    ell = _validate_window(ell)
    if time_limit is None and is_tree(g):
        return _tree_failing_pair(g, coloring, ell)
    deadline = None if time_limit is None else _Deadline(time_limit)
    cmat = _color_matrix(g, coloring)
    return _certified_pairs(g.adjacency, cmat, g.n, ell, None, deadline)


def _color_rows(g: Graph, coloring: EdgeColoring) -> list[list[int]]:
    """The edge colors of g in rows aligned with ``g.adjacency``:
    ``rows[x][i]`` colors the edge from x to ``g.adjacency[x][i]``.  The
    edges are taken in ``g.edges`` order, which lists each vertex's edges
    by ascending neighbour, the order of its adjacency; the first
    uncolored one raises the ValueError of ``_color_matrix``."""
    rows: list[list[int]] = [[] for _ in range(g.n)]
    colors = coloring.colors
    for e in g.edges:
        c = colors.get(e)
        if c is None:
            raise ValueError(f"partial coloring: edge {e} has no color")
        rows[e[0]].append(c)
        rows[e[1]].append(c)
    return rows


def _tree_failing_pair(g: Graph, coloring: EdgeColoring, ell: int) -> Optional[Pair]:
    """``first_failing_pair`` of the tree g with no time limit, in O(n + m)
    memory: the colors are read into ``_color_rows``, not the matrix.

    A tree joins each pair by one path, so it is (1, ell)-proper connected
    exactly when its paths of at most ell+1 edges are rainbow.  At ell <= 2
    that is read off the vertex palettes: each vertex's colors differ and,
    at ell = 2, the palettes of an edge's ends share only its own color.
    At ell >= 3 ``_windows_rainbow`` walks those paths.  A tree that fails
    is walked from each source in turn, carrying the last ell colors of
    the path; the first edge whose color is among them makes the path to
    its far end, and every path through it, improper.  The first source
    with an improper path, and the least vertex it reaches by one, are the
    pair that the scan fails on: adjacent pairs never fail, and no earlier
    vertex is such a target, or its own walk would have returned."""
    adjacency, rows = g.adjacency, _color_rows(g, coloring)
    if ell >= 3:
        passes = _windows_rainbow(adjacency, rows, ell)
    else:
        # Sets, not bitmasks: a color file may hold colors of any size, and
        # a bitmask's size grows with the largest color, not with the count.
        palettes = [set(row) for row in rows]
        passes = all(len(p) == len(row) for p, row in zip(palettes, rows)) and (
            ell == 1 or all(len(palettes[u] & palettes[v]) == 1 for u, v in g.edges)
        )
    if passes:
        return None
    n = g.n
    for u in range(n - 1):
        first = n
        stack: list = [(u, -1, ())]
        while stack:
            x, back, window = stack.pop()
            for y, c in zip(adjacency[x], rows[x]):
                if y == back:
                    continue
                if window is None or c in window:
                    if y < first:
                        first = y
                    stack.append((y, x, None))
                else:
                    stack.append((y, x, window[len(window) >= ell:] + (c,)))
        if first < n:
            return (u, first)
    return None


def _windows_rainbow(adjacency, rows: list[list[int]], ell: int) -> bool:
    """True iff every path of at most ell+1 edges that a DFS from each
    vertex finds without turning straight back is rainbow; False at the
    first whose last edge repeats a color on it.  ``rows`` holds the edge
    colors aligned with ``adjacency``.  In a tree these are all such paths,
    at most n - 1 from each vertex, so it takes at most as many steps as
    the scan."""
    for u in range(len(rows)):
        stack = [(u, -1, ())]
        while stack:
            x, back, colors = stack.pop()
            for y, c in zip(adjacency[x], rows[x]):
                if y == back:
                    continue
                if c in colors:
                    return False
                if len(colors) < ell:
                    stack.append((y, x, colors + (c,)))
    return True


def _failing_source(
    adjacency, cmat: list[list[int]], n: int, ell: int
) -> Optional[tuple[int, list[int]]]:
    """Scan the pairs u < v in lexicographic order and return None if each
    has a distance-ell proper path, or else ``(u, cut)`` for the first pair
    (u, cut[0]) with none, deciding each source's pairs as the module
    docstring says.  The rest of ``cut`` are the later targets of u that the
    same ``_walk_states`` search never reached, so they have no path either;
    listing them costs no further search.  It has no time budget: the exact
    search reads its own deadline between colorings.

    This is the decision scan of the exact search.  Each source runs its own
    tuple-state BFS, ``_walk_states``, because the exact search makes many
    small scans that usually stop at source 0, where a shared table of
    states would only cost its set-up.  It builds no walk: a target whose
    walk's mask is -1 goes to the DFS fallback ``_proper_paths``, and every
    other reached target has its walk as a proper path."""
    for u in range(n - 1):
        row = cmat[u]
        targets = [v for v in range(u + 1, n) if not row[v]]
        if not targets:
            continue
        reached, masks = _walk_states(adjacency, cmat, u, targets, ell)
        for v in targets:
            j = reached.get(v)
            if j is not None and (
                masks[j] >= 0 or next(_proper_paths(adjacency, cmat, (u,), [], v, ell), None)
            ):
                continue
            return u, [v, *(w for w in targets if w > v and w not in reached)]
    return None


def _two_edge_hubs(
    adjacency, cmat: list[list[int]], nbrs: list[int], by_color: list, u: int, pending: int
) -> Optional[list[tuple[int, int]]]:
    """The hubs of a source u all of whose targets (the bitmask ``pending``)
    a proper two-edge walk u-h-v reaches, or None if one of them is not.

    ``nbrs[x]`` is the neighbour bitmask of x, and ``by_color[h]`` maps each
    color at h to the bitmask of the neighbours it joins to h; it is built
    on h's first use and kept for the rest of the scan.  The neighbours h of
    u are walked in ascending order, and each takes the targets still
    pending that it joins by a color other than that of uh.  Returns the
    pairs ``(h, taken)`` of the hubs that took any, in that order.  A source
    with a target outside every ``nbrs[h]`` returns None before any color is
    read."""
    hubs = adjacency[u]
    cover = 0
    for h in hubs:
        cover |= nbrs[h]
    if pending & ~cover:
        return None
    row = cmat[u]
    taken = []
    for h in hubs:
        new = pending & nbrs[h]
        if not new:
            continue
        masks = by_color[h]
        if masks is None:
            masks = by_color[h] = {}
            hrow = cmat[h]
            for y in adjacency[h]:
                c = hrow[y]
                masks[c] = masks.get(c, 0) | 1 << y
        new &= ~masks[row[h]]
        if new:
            taken.append((h, new))
            pending ^= new
            if not pending:
                return taken
    return None


def _certified_pairs(
    adjacency,
    cmat: list[list[int]],
    n: int,
    ell: int,
    witnesses: Optional[dict[Pair, tuple[Path, ...]]] = None,
    deadline: Optional[_Deadline] = None,
) -> Optional[Pair]:
    """The table scan: the pair search of ``_failing_source`` on one shared
    ``_WalkStateTable``.  With a ``witnesses`` dict (the certificate scan)
    it puts there the witnesses of the pairs before the failing one; with
    None (the verdict scan) it only decides them.

    The table numbers the states densely and keeps the successor lists of
    the states that more than one source expands, so a scan of every source
    does not redo their edge steps; its walks are those whose masks the
    decision scan reads.  A simple walk is the witness as it is; only
    a walk that repeats a vertex goes to the DFS fallback ``_proper_paths``.
    The verdict scan skips adjacent pairs and builds no walk: ``repeating``
    reads the walks that repeat a vertex off the predecessor chains, and the
    fallback runs on the same pairs under the same ``deadline``, so the
    failing pair and every timeout are those of the certificate scan.  Each
    source's witnesses go into the dict in one batch, in pair order.

    A source u whose targets (the later vertices not adjacent to it) are
    all reached by proper two-edge walks u-h-v is settled from neighbour
    bitmasks by ``_two_edge_hubs`` and runs no ``reach``; on the diameter-2
    graphs of the paper's closed forms that is most sources.  The bitmasks
    are built in one O(m) pass at the first source with a non-neighbour, so
    a complete graph builds none, and u's target mask is the vertices above
    u less its neighbours.  The witnesses of a settled source are the walks
    that ``reach`` and ``walks`` would return, for every l >= 1:
    - the search's level-1 states are the neighbours h of u in ascending
      order, each with the window (c(u,h));
    - a target v is not adjacent to u, so it is first reached at level 2,
      from the first h that joins it by a color c(h,v) != c(u,h); the step
      from h back to u repeats c(u,h), so it is refused;
    - so the walk to v is (u, h_v, v) for that first h_v, which is simple,
      and no fallback runs.
    Both modes skip the same sources and check the deadline at the same
    points, so they still return the same failing pair and raise the same
    timeouts.  A settled source checks it once, with the message that
    ``reach`` would raise at its first check."""
    table = _WalkStateTable(adjacency, cmat, ell)
    nbrs: list[int] = []
    by_color: list = [None] * n
    above = (1 << n) - 1
    for u in range(n - 1):
        row = cmat[u]
        above ^= 1 << u
        # Only a vertex with a non-neighbour can have a target, so a complete
        # graph builds no mask.
        if len(adjacency[u]) < n - 1:
            if not nbrs:
                for adj in adjacency:
                    mask = 0
                    for y in adj:
                        mask |= 1 << y
                    nbrs.append(mask)
            pending = above & ~nbrs[u]
            hubs = pending and _two_edge_hubs(adjacency, cmat, nbrs, by_color, u, pending)
            if hubs:
                if deadline is not None and time.monotonic() > deadline.end:
                    raise deadline.timeout(f"search from vertex {u}")
                if witnesses is not None:
                    for v in range(u + 1, n):
                        if row[v]:
                            witnesses[u, v] = ((u, v),)
                            continue
                        for h, taken in hubs:
                            if taken >> v & 1:
                                break
                        witnesses[u, v] = ((u, h, v),)
                continue
        targets = [v for v in range(u + 1, n) if not row[v]]
        reached = table.reach(u, targets, deadline) if targets else {}
        if witnesses is None:
            repeats = table.repeating(reached)
            for v in targets:
                if v in repeats:
                    paths = _proper_paths(adjacency, cmat, (u,), [], v, ell, deadline)
                    if next(paths, None) is None:
                        return (u, v)
                elif v not in reached:
                    return (u, v)
            continue
        walks = table.walks(reached)
        paths = []
        for v in range(u + 1, n):
            found = (u, v) if row[v] else walks.get(v)
            # A first-reach walk of at most 4 edges is simple: it never
            # re-enters u, x-y-x repeats a color and v is not on it before
            # its end, so no two of its vertices 3 or 4 steps apart match.
            if found is not None and len(found) > 5 and len(set(found)) < len(found):
                found = next(_proper_paths(adjacency, cmat, (u,), [], v, ell, deadline), None)
            if found is None:
                break
            paths.append(found)
        witnesses.update(zip(zip(itertools.repeat(u), range(u + 1, n)), zip(paths)))
        if len(paths) < n - 1 - u:
            return (u, u + 1 + len(paths))
    return None
