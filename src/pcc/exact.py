"""Exact minimum color counts by a pruned search over canonical colorings.

For t = 1, 2, ... the search walks the colorings in canonical first-use
form (the first occurrence of color c+1 comes after the first occurrence of
color c, in edge-index order) that use exactly t colors, in lexicographic
order, until one makes the graph (1, ell)-proper connected.  Canonical form
breaks the color-relabeling symmetry only; there are S(m, t) (Stirling
partition number) such colorings of m edges.

Not every level is walked.  Two vertices at distance D need min(ell+1, D)
colors on every path between them, and the bridges of a path of at most
ell+1 bridges lie on the only path between its ends, so they all need
different colors.  Before its first level the search takes the larger of
the two counts (``_level_bound``): D from two BFS sweeps (Magnien, Latapy
& Habib 2009), the second from a vertex farthest from vertex 0, and the
most bridges (lowpoint DFS, ``structure.bridges``; Tarjan 1972) in a
bounded-diameter subtree of the bridge forest.  With t <= ell colors a
proper path has at most t edges, all of different colors, so when ell >= 2
the short-path rules (``_short_path_bound``) can raise that count to 3 or
4: too many open twins for the 2^d or 3^d color vectors toward their d
common neighbours, or an odd cycle of edges that must differ because they
meet at the only common neighbour of two non-adjacent vertices.  Each
level below the count is claimed exhausted without a visit.  That is every
level below the minimum on a tree or a star, and for ell >= 2 on a wheel,
K_2,n or K_3,n.

Not all colorings of a walked level are verified.  When a coloring
fails, the decision scan (``verify._failing_source``) names its first
failing pair (u, v) and the later targets w of u that its search from u
never reached, each of which fails too.  A relaxed search, in which the
edges after a prefix may take any color, finds the shortest prefix of the
edge colors that already leaves u and one of those targets without a
proper path, and the search skips every coloring that shares that prefix
(conflict-directed backjumping; Prosser 1993).  That relaxed search runs once per failure: it
starts with only the last edge free and frees one more edge at a time,
keeping every walk state it has reached, until u reaches every target.

Nor does it verify a coloring that is not the least in its orbit under
the automorphisms of the graph (lex-leader pruning; Crawford, Ginsberg,
Luks & Roy 1996).  An automorphism maps a valid coloring to a valid one
with the same number of colors, so the canonically first valid coloring
is always a lex-leader.  Each coloring is compared with its relabeled
image under a set of edge permutations, taken with their inverses from
one source at a time: from the start, the swaps of consecutive twins
(``structure.twin_swaps``); once a search has visited n*m colorings, over
all levels, the generators of Aut(G) (``structure.automorphism_generators``,
which begin with those swaps) replace them, found only then so that the
many small searches never pay for them.  Any set of automorphisms is
sound; a missing one costs pruning, never an answer.

The colorings of a level come from an odometer (``_Odometer``), which
knows what changed between one coloring and the next: it reports the
first edge that changed since the coloring it yielded before, and the
colors used by each prefix.  The lex-leader test reads both instead of recomputing them.

Only colorings that cannot be the witness are skipped, so the witness is
still the canonically first valid coloring, and ``colorings_examined``
counts the skipped ones too: it is the canonical rank of the witness plus
the sizes of the exhausted levels.

Budgets are first-class: running out of time or scope yields Inconclusive,
never a silent bound.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Generator, Optional, Union

from .graphs import EdgeColoring, Graph, _Record, normalize_edge
from .structure import _bfs, automorphism_generators, bridges, distances, open_twins, twin_swaps
from .verify import _Deadline, _failing_source, _number, _positive_int, _validate_window


class SearchBudget(_Record):
    """Limits for the exhaustive search; positive values only."""

    __slots__ = ("max_colors", "time_limit", "max_edges")

    def __init__(
        self,
        max_colors: Optional[int] = None,
        time_limit: Optional[float] = None,
        max_edges: int = 18,
    ):
        if max_colors is not None:
            _positive_int("max_colors", max_colors)
        if time_limit is not None and not _number("time_limit", time_limit) > 0:
            raise ValueError(f"time_limit must be positive, got {time_limit}")
        _positive_int("max_edges", max_edges)
        object.__setattr__(self, "max_colors", max_colors)
        object.__setattr__(self, "time_limit", time_limit)
        object.__setattr__(self, "max_edges", max_edges)


class ExactResult(_Record):
    """Minimum color count with a verifying witness.

    ``exhausted_levels`` lists every t below the minimum, each proven to
    admit no valid coloring.
    """

    __slots__ = ("min_colors", "witness", "colorings_examined", "exhausted_levels")

    def __init__(
        self,
        min_colors: int,
        witness: EdgeColoring,
        colorings_examined: int,
        exhausted_levels: tuple[int, ...],
    ):
        object.__setattr__(self, "min_colors", min_colors)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "colorings_examined", colorings_examined)
        object.__setattr__(self, "exhausted_levels", exhausted_levels)


class Inconclusive(_Record):
    """The search budget tripped before a verdict.  ``exhausted_levels``
    lists the color counts proven impossible before the interruption."""

    __slots__ = ("exhausted_levels", "colorings_examined", "reason")

    def __init__(self, exhausted_levels: tuple[int, ...], colorings_examined: int, reason: str):
        object.__setattr__(self, "exhausted_levels", exhausted_levels)
        object.__setattr__(self, "colorings_examined", colorings_examined)
        object.__setattr__(self, "reason", reason)


def canonical_colorings(m: int, t: int) -> Generator[tuple[int, ...], Optional[int], None]:
    """All canonical colorings of m edges using exactly t colors, in
    lexicographic order.

    Canonical means color c appears for the first time only after colors
    1..c-1 all have, scanning edges in index order.  The generator is an
    odometer: sending it a prefix length p instead of iterating moves it on
    to the next coloring that differs from the current one within its first
    p edges, skipping every coloring that shares that prefix.
    """
    yield from _Odometer(m, t)


class _Odometer:
    """The odometer behind ``canonical_colorings(m, t)``.  Iterating it
    gives that generator, and for the coloring it yielded last it reports
    ``changed``, the first edge at which that coloring differs from the one
    yielded before it (0 for the first), and ``used``, in which used[i] is
    the number of colors among its first i edges.  ``used`` is one list,
    updated in place."""

    __slots__ = ("m", "t", "changed", "used")

    def __init__(self, m: int, t: int):
        self.m, self.t = m, t
        self.changed = 0
        self.used = [0] * (m + 1)

    def __iter__(self) -> Generator[tuple[int, ...], Optional[int], None]:
        m, t, used = self.m, self.t, self.used
        if m < 1 or t < 1 or t > m:
            return
        assignment = [0] * m
        i = 0
        while True:
            # Fill edges i.. with the smallest completion: color 1 up to edge
            # k, which leaves just enough edges to bring in the missing colors
            # u + 1..t one by one.  Edge 0 always takes color 1.  A plain step
            # mostly changes only the last edge and leaves nothing to fill.
            if i < m:
                u = used[i] or 1
                k = m - t + u
                assignment[i:k] = [1] * (k - i)
                used[i + 1:k + 1] = [u] * (k - i)
                assignment[k:] = used[k + 1:] = range(u + 1, t + 1)
            p = yield tuple(assignment)
            i = m if p is None else p
            while i:
                i -= 1
                u = used[i]
                c = assignment[i] + 1
                # Edge i can take the next color if it is at most one past the
                # colors before it and enough edges remain for the rest.
                if c <= u:
                    if t - u < m - i:
                        assignment[i] = c
                        i += 1
                        break
                elif c == u + 1 <= t and t - c < m - i:
                    assignment[i] = used[i + 1] = c
                    i += 1
                    break
            else:
                return
            # Edges before i - 1 kept their colors; edge i - 1 took the next.
            self.changed = i - 1


def _completion_counts(m: int, t: int) -> list[list[int]]:
    """ways[i][u]: canonical completions of edges i..m-1 that end with
    exactly t colors when the first i edges use u colors."""
    ways = [[0] * (t + 2) for _ in range(m + 1)]
    ways[m][t] = 1
    for i in range(m - 1, -1, -1):
        for u in range(t + 1):
            ways[i][u] = u * ways[i + 1][u] + ways[i + 1][u + 1]
    return ways


def _rank(assignment: tuple[int, ...], ways: list[list[int]]) -> int:
    """Number of canonical colorings that come before ``assignment``.  A
    canonical color never exceeds one more than the colors used before it,
    so each smaller color c at edge i leaves ways[i + 1][used] completions."""
    rank = used = 0
    for i, c in enumerate(assignment):
        rank += (c - 1) * ways[i + 1][used]
        used = max(used, c)
    return rank


def _incident_edges(g: Graph) -> list[list[tuple[int, int]]]:
    """For each vertex, its (neighbor, edge index) pairs."""
    incident: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for e, (a, b) in enumerate(g.edges):
        incident[a].append((b, e))
        incident[b].append((a, e))
    return incident


def _refuting_prefix(
    incident: list[list[tuple[int, int]]],
    assignment: tuple[int, ...],
    t: int,
    u: int,
    targets,
    ell: int,
) -> int:
    """The shortest prefix of ``assignment``, at least 1 edge long, whose
    colors alone leave u and some vertex of ``targets`` without a
    distance-ell proper path, given that the full assignment leaves u and
    each of them without one.

    Under prefix q the first q edges keep their colors and every later edge
    may take any color in 1..t, anew at each traversal.  The search runs
    over the states (vertex, previous vertex, last <= ell colors); the walk
    never re-enters u and never turns straight back along the edge it came
    in on.  Every proper simple u-w path of every completion of the prefix
    is such a walk, so if no walk reaches w, prefix q refutes (u, w).

    The walks allowed only grow as q falls, so one search serves every q
    and every target: it starts at q = m - 1, saves each step it takes
    along a kept edge e in ``deferred[e]``, and while some target stays out
    of reach it releases edge q - 1 by retrying the steps saved there with
    their other colors.  A target reached first under q has q + 1 as its
    shortest refuting prefix, so the answer is q + 1 for the q under which
    the last target is reached: the least of the targets' prefixes.
    """
    q = len(assignment) - 1
    if q < 1:
        return 1
    pending = [False] * len(incident)
    for w in targets:
        pending[w] = True
    left = len(targets)
    deferred: list[list[tuple]] = [[] for _ in range(q)]  # (x, y, window, kept)
    start = (u, -1, ())
    seen = {start}
    frontier = [start]
    free = range(1, t + 1)
    while True:
        for x, back, window in frontier:
            kept = window[len(window) >= ell:]
            for y, e in incident[x]:
                if y == back or y == u:
                    continue
                if e < q:
                    deferred[e].append((x, y, window, kept))
                    colors = (assignment[e],)
                else:
                    colors = free
                for c in colors:
                    if c in window:
                        continue
                    if pending[y]:
                        left -= 1
                        if not left:
                            return q + 1
                        pending[y] = False
                    state = (y, x, kept + (c,))
                    if state not in seen:
                        seen.add(state)
                        frontier.append(state)
        if q == 1:
            return 1
        q -= 1
        frontier = []
        fixed = assignment[q]
        for x, y, window, kept in deferred[q]:
            for c in free:
                if c == fixed or c in window:
                    continue
                if pending[y]:
                    left -= 1
                    if not left:
                        return q + 1
                    pending[y] = False
                state = (y, x, kept + (c,))
                if state not in seen:
                    seen.add(state)
                    frontier.append(state)


def _edge_permutations(g: Graph, vertex_maps) -> list[tuple]:
    """The edge permutations sigma induced by automorphisms of g and by
    their inverses, as (first moved edge, sigma, reach) with reach[i] =
    1 + max(sigma[:i + 1]); sigma[i] is the index of the image of edge i.
    The identity and repeats are dropped."""
    index = {e: i for i, e in enumerate(g.edges)}
    sigmas = {}
    for image in vertex_maps:
        sigma = tuple(index[normalize_edge(image[a], image[b])] for a, b in g.edges)
        inverse = [0] * g.m
        for i, j in enumerate(sigma):
            inverse[j] = i
        sigmas[sigma] = sigmas[tuple(inverse)] = None
    perms = []
    for sigma in sigmas:
        start = next((i for i, j in enumerate(sigma) if i != j), None)
        if start is not None:
            perms.append((start, sigma, [j + 1 for j in accumulate(sigma, max)]))
    return perms


class _LexLeader:
    """Lex-leader test of canonical colorings under edge permutations of
    automorphisms (Crawford, Ginsberg, Luks & Roy 1996).

    ``skip(assignment, changed, used)`` returns a prefix length p such that
    no canonical coloring sharing the first p colors of ``assignment`` is
    the least in its orbit, or None if no permutation shows that.  The
    odometer reports ``changed``, the first edge at which ``assignment``
    differs from the coloring passed before it, and ``used``, the number of
    colors among each prefix of ``assignment`` (``_Odometer``).  For each
    sigma the image d[i] = assignment[sigma[i]] is relabeled by first use and
    compared with ``assignment`` from edge 0; edges before sigma's first
    moved edge map to themselves, so there the relabeling is the identity.
    If the first difference, at edge i, is smaller in the image, every
    coloring that agrees on edges 0..i and sigma[0..i], the first reach[i]
    edges, has the same smaller image prefix.  If it is larger, the same
    holds with "larger", so ``settled[k]`` keeps reach[i] and the next
    coloring that shares that prefix with this one skips the comparison.
    A ``changed`` that is too small only drops those entries, which never
    changes a verdict.
    """

    __slots__ = ("perms", "settled")

    def __init__(self, perms: list[tuple]):
        # Each permutation with the edges it compares, from its first moved one.
        self.perms = [(*perm, range(perm[0], len(perm[1]))) for perm in perms]
        self.settled = [0] * len(perms)

    def skip(self, assignment: tuple[int, ...], changed: int, used: list[int]) -> Optional[int]:
        if not self.perms:
            return None
        settled = self.settled = [r if r <= changed else 0 for r in self.settled]
        for k, (start, sigma, reach, compared) in enumerate(self.perms):
            if settled[k]:
                continue
            top = base = used[start]
            fresh: dict[int, int] = {}
            for i in compared:
                c = assignment[sigma[i]]
                if c > base:
                    if c not in fresh:
                        top += 1
                        fresh[c] = top
                    c = fresh[c]
                a = assignment[i]
                if c != a:
                    if c < a:
                        return reach[i]
                    settled[k] = reach[i]
                    break
        return None


def _level_bound(g: Graph, ell: int, dist: list[int]) -> int:
    """A color count L such that no coloring of g with fewer than L colors
    is (1, ell)-proper connected: the largest of min(ell + 1, D), B and,
    when ell >= 2 and those leave L <= min(ell, 3), the short-path bound
    (``_short_path_bound``).  ``dist`` holds the distances from vertex 0.

    D is the largest distance seen by two BFS sweeps (Magnien, Latapy &
    Habib 2009): ``dist`` and the distances from the lowest-labelled vertex
    farthest from 0.  Every path between two vertices D apart has at least
    D edges, and any ell + 1 consecutive edges of a proper path differ in
    color.

    B is the largest number of bridges (``structure.bridges``) in a
    subtree of the bridge forest whose diameter is at most ell + 1.  Any
    two of its edges lie on a path of at most ell + 1 bridges, each of
    which separates the ends of that path, so the path is the only one
    between its ends and must be proper: all its edges differ in color.
    Such a subtree lies in a ball of the forest of radius (ell + 1) / 2
    around a vertex when ell + 1 is even, or of radius ell / 2 around both
    ends of a bridge when it is odd, and such a ball is a subtree.  This is
    the scan of ``structure.max_subtree_size_with_diameter``, written again
    so that the tree rows of ``pcc table`` still compare two computations.
    """
    far = dist.index(max(dist))
    bound = min(ell + 1, max(distances(g, far)))
    cut = bridges(g)
    if len(cut) > bound:
        forest: list[list[int]] = [[] for _ in range(g.n)]
        for a, b in cut:
            forest[a].append(b)
            forest[b].append(a)
        centers = [(v,) for v in range(g.n) if forest[v]] if ell % 2 else cut
        for ends in centers:
            ball: list[int] = []
            _bfs(forest, ends, (ell + 1) // 2, order=ball)
            bound = max(bound, len(ball) - 1)
            if bound == len(cut):
                break
    if ell >= 2 and bound <= min(ell, 3):
        bound = _short_path_bound(g, ell, bound)
    return bound


def _short_path_bound(g: Graph, ell: int, bound: int) -> int:
    """``bound`` raised to t + 1 when level t <= min(ell, 3) is shown empty
    by its short paths; ell >= 2.

    With t <= ell colors, any ell + 1 consecutive edges of a proper path
    differ, so a proper path has at most t edges, all of different colors.
    If level t is empty, so is every level below it, since recoloring one
    edge with a new color keeps every proper path proper.  Open twins
    (``structure.open_twins``) share a neighbourhood N of d vertices, are
    not adjacent, and their paths of at most 3 edges run through N; so two
    twins whose colors toward N agree have no proper path of 2 edges, nor
    one of 3 if N is independent.  Level t is empty if:

    - t = 3 <= ell: more than 3^d open twins have an independent N;
    - t = 2: more than 2^d open twins have the same N;
    - t = 2: two non-adjacent vertices have no common neighbour, or the
      "must differ" links form an odd cycle: when non-adjacent a and b
      have one common neighbour h, edges ah and hb must differ in color;
    - t = 1: two vertices are not adjacent.

    The twins are tested first, as they cost one pass over the vertices.
    """
    masks = [sum(1 << w for w in nbrs) for nbrs in g.adjacency]
    for nbrs, twins in open_twins(g).items():
        k, d = len(twins), len(nbrs)
        if k > 2 ** d:
            joint = masks[twins[0]]
            if ell >= 3 and k > 3 ** d and not any(masks[h] & joint for h in nbrs):
                return 4
            bound = max(bound, 3)
    if bound >= 3:
        return bound
    links: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for a in range(g.n):
        for b in range(a + 1, g.n):
            if masks[a] >> b & 1:
                continue
            common = masks[a] & masks[b]
            if not common:
                return 3
            bound = 2
            if not common & (common - 1):
                h = common.bit_length() - 1
                x, y = normalize_edge(a, h), normalize_edge(h, b)
                links.setdefault(x, []).append(y)
                links.setdefault(y, []).append(x)
    side: dict[tuple[int, int], bool] = {}
    for e in links:
        if e in side:
            continue
        side[e] = False
        stack = [e]
        while stack:
            x = stack.pop()
            for y in links[x]:
                if y not in side:
                    side[y] = not side[x]
                    stack.append(y)
                elif side[y] == side[x]:
                    return 3
    return bound


def min_colors_exact(
    g: Graph, ell: int, budget: Optional[SearchBudget] = None
) -> Union[ExactResult, Inconclusive]:
    """Exact (1, ell)-proper connection number of a small connected graph.

    Searches t = 1, 2, ... ascending; at each level it walks the canonical
    exactly-t colorings in order, and the witness is the first of them that
    verifies at the minimal level.  The levels below ``_level_bound``
    (distance, bridges and, for ell >= 2, twins and must-differ links)
    admit no valid coloring: each is claimed exhausted without a visit,
    with its S(m, t) canonical colorings counted as examined.

    A coloring that the lex-leader test shows is not the least in its orbit
    is skipped unverified, with the block of colorings that share the
    prefix the test returns.  A coloring that fails at source u is cut
    back to the shortest prefix of its edge colors under which no relaxed
    walk joins u and some target that ``_failing_source`` cuts off, found
    by one incremental ``_refuting_prefix`` search, and every coloring
    sharing that prefix is skipped unverified: each leaves that pair
    without a proper path.
    Visits are counted over every walked level, skipped colorings
    included, and the levels the bound claims add none; on the n*m-th the
    generators of Aut(g) replace the twin swaps in the lex-leader test.
    The twin swaps and what a visit reads (the lex-leader test, incident
    edges and a color matrix) are built at the first level that is walked,
    so a search whose every level the bound claims, such as most calls of
    ``prove_lower_bound``, costs only the bound.  Levels are walked in the
    input edge order only.

    The deadline is read once after the bound, before the first level, so
    a budget already spent claims no level; then on the first and every
    512th visit, and after the group search.  ``colorings_examined``
    counts the canonical colorings of the exhausted levels and those of
    the last level up to and including the last one visited.
    """
    ell = _validate_window(ell)
    dist = distances(g, 0)
    if -1 in dist:
        raise ValueError("exact search requires a connected graph")
    if budget is None:
        budget = SearchBudget()
    if g.m == 0:
        raise ValueError("exact search requires at least one edge")
    if g.m > budget.max_edges:
        return Inconclusive((), 0, f"graph has {g.m} edges, budget allows {budget.max_edges}")
    top = g.m if budget.max_colors is None else min(budget.max_colors, g.m)
    deadline = None if budget.time_limit is None else _Deadline(budget.time_limit)
    bound = _level_bound(g, ell, dist)
    if deadline and deadline.expired():
        return Inconclusive((), 0, "time limit")
    n, m = g.n, g.m
    defer = n * m
    lex = None
    visits = 0
    # The levels below the bound are empty: claimed without a visit, with
    # their S(m, t) canonical colorings, row[t] after m steps of the
    # Stirling recurrence.
    exhausted = list(range(1, min(bound, top + 1)))
    row = [1] + [0] * len(exhausted)
    for _ in range(m):
        row = [0] + [t * row[t] + row[t - 1] for t in exhausted]
    examined = sum(row)
    for t in range(len(exhausted) + 1, top + 1):
        if lex is None:
            # The walk machinery, built at the first level that is walked.
            lex = _LexLeader(_edge_permutations(g, twin_swaps(g)))
            incident = _incident_edges(g)
            cmat = [[0] * n for _ in range(n)]
        ways = _completion_counts(m, t)
        odometer = _Odometer(m, t)
        colorings, used = iter(odometer), odometer.used
        p = None
        while True:
            try:
                assignment = colorings.send(p)
            except StopIteration:
                # The first edge is always color 1, so one edge already
                # spans the level: it is exhausted.
                break
            visits += 1
            if visits == defer:
                lex = _LexLeader(_edge_permutations(g, automorphism_generators(g, deadline)))
            if (visits % 512 == 1 or visits == defer) and deadline and deadline.expired():
                examined += _rank(assignment, ways) + 1
                return Inconclusive(tuple(exhausted), examined, "time limit")
            p = lex.skip(assignment, odometer.changed, used)
            if p is None:
                for (a, b), c in zip(g.edges, assignment):
                    cmat[a][b] = cmat[b][a] = c
                failing = _failing_source(g.adjacency, cmat, n, ell)
                if failing is None:
                    examined += _rank(assignment, ways) + 1
                    witness = EdgeColoring(dict(zip(g.edges, assignment)), num_colors=t)
                    return ExactResult(t, witness, examined, tuple(exhausted))
                p = _refuting_prefix(incident, assignment, t, *failing, ell)
        examined += ways[0][0]
        exhausted.append(t)
    return Inconclusive(tuple(exhausted), examined, f"no valid coloring with <= {top} colors")


def prove_lower_bound(
    g: Graph, ell: int, t: int, budget: Optional[SearchBudget] = None
) -> Union[bool, Inconclusive]:
    """True iff no valid coloring with at most t colors exists (each level
    1..t proved empty, by the level bound or by an exhaustive walk); False
    as soon as some valid coloring is found.  Runs min_colors_exact with
    the color count capped at t, so a level the bound claims costs no
    verification, and when it claims every level up to t nothing is built
    for a walk: ``prove_lower_bound(wheel_graph(8), 2, 2)`` costs only the
    bound.  ``pcc table`` proves each verified row's color count minimal
    this way."""
    budget = budget or SearchBudget()
    result = min_colors_exact(g, ell, SearchBudget(t, budget.time_limit, budget.max_edges))
    if isinstance(result, ExactResult):
        return False
    if len(result.exhausted_levels) == min(t, g.m):
        return True
    return result
