"""Exact minimum color counts by a pruned search over canonical colorings.

For t = 1, 2, ... the search walks the colorings in canonical first-use
form (the first occurrence of color c+1 comes after the first occurrence of
color c, in edge-index order) that use exactly t colors, in lexicographic
order, until one makes the graph (1, ell)-proper connected.  Canonical form
breaks the color-relabeling symmetry only; there are S(m, t) (Stirling
partition number) such colorings of m edges.

Not all of them are verified.  When a coloring fails at a pair (u, v), a
relaxed search, in which the edges after a prefix may take any color,
finds the shortest prefix of its edge colors that already leaves u and v
without a proper path, and the search skips every coloring that shares
that prefix (conflict-directed backjumping; Prosser 1993).  That relaxed
search runs once per failure: it starts with only the last edge free and
frees one more edge at a time, keeping every walk state it has reached,
until u reaches v.  Only invalid colorings are skipped, so the witness is
still the canonically first valid coloring, and ``colorings_examined``
counts the skipped ones too: it is the canonical rank of the witness plus
the sizes of the exhausted levels.

Budgets are first-class: running out of time or scope yields Inconclusive,
never a silent bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Generator, Optional, Union

from .graphs import EdgeColoring, Graph
from .structure import is_connected
from .verify import _first_failing_pair, _validate_window


@dataclass(frozen=True)
class SearchBudget:
    """Limits for the exhaustive search; positive values only."""

    max_colors: Optional[int] = None
    time_limit: Optional[float] = None
    max_edges: int = 18

    def __post_init__(self):
        if self.max_colors is not None and self.max_colors < 1:
            raise ValueError("max_colors must be >= 1")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time_limit must be positive")
        if self.max_edges < 1:
            raise ValueError("max_edges must be >= 1")


@dataclass(frozen=True)
class ExactResult:
    """Minimum color count with a verifying witness.

    ``exhausted_levels`` lists every t below the minimum, each proven to
    admit no valid coloring.
    """

    min_colors: int
    witness: EdgeColoring
    colorings_examined: int
    exhausted_levels: tuple[int, ...]


@dataclass(frozen=True)
class Inconclusive:
    """The search budget tripped before a verdict.  ``exhausted_levels``
    lists the color counts proven impossible before the interruption."""

    exhausted_levels: tuple[int, ...]
    colorings_examined: int
    reason: str


def canonical_colorings(m: int, t: int) -> Generator[tuple[int, ...], Optional[int], None]:
    """All canonical colorings of m edges using exactly t colors, in
    lexicographic order.

    Canonical means color c appears for the first time only after colors
    1..c-1 all have, scanning edges in index order.  The generator is an
    odometer: sending it a prefix length p instead of iterating moves it on
    to the next coloring that differs from the current one within its first
    p edges, skipping every coloring that shares that prefix.
    """
    if m < 1 or t < 1 or t > m:
        return
    assignment = [0] * m
    used = [0] * (m + 1)  # used[i]: colors among the first i edges
    i = 0
    while True:
        # Fill edges i.. with the smallest completion: color 1 while enough
        # edges remain to introduce the missing colors, then the next new one.
        for j in range(i, m):
            u = used[j]
            c = 1 if t - max(u, 1) < m - j else u + 1
            assignment[j] = c
            used[j + 1] = max(u, c)
        p = yield tuple(assignment)
        i = m if p is None else p
        while i:
            i -= 1
            u = used[i]
            c = assignment[i] + 1
            if c <= min(u + 1, t) and t - max(u, c) < m - i:
                assignment[i] = c
                used[i + 1] = max(u, c)
                i += 1
                break
        else:
            return


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
    v: int,
    ell: int,
) -> int:
    """The shortest prefix of ``assignment``, at least 1 edge long, whose
    colors alone leave u and v without a distance-ell proper path, given
    that the full assignment does.

    Under prefix q the first q edges keep their colors and every later edge
    may take any color in 1..t, anew at each traversal.  The search runs
    over the states (vertex, previous vertex, last <= ell colors); the walk
    never re-enters u and never turns straight back along the edge it came
    in on.  Every proper simple u-v path of every completion of the prefix
    is such a walk, so if no walk reaches v, prefix q refutes (u, v).

    The walks allowed only grow as q falls, so one search serves every q:
    it starts at q = m - 1, saves each step it takes along a kept edge e
    in ``deferred[e]``, and when v stays out of reach it releases edge
    q - 1 by retrying the steps saved there with their other colors.  The
    first q under which v is reached is the longest prefix that does not
    refute, so the answer is q + 1.
    """
    q = len(assignment) - 1
    if q < 1:
        return 1
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
                    if y == v:
                        return q + 1
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
                if y == v:
                    return q + 1
                state = (y, x, kept + (c,))
                if state not in seen:
                    seen.add(state)
                    frontier.append(state)


class _Deadline:
    __slots__ = ("at",)

    def __init__(self, time_limit: Optional[float]):
        self.at = None if time_limit is None else time.monotonic() + time_limit

    def expired(self) -> bool:
        return self.at is not None and time.monotonic() > self.at


def _valid_witness_at_level(
    g: Graph, ell: int, t: int, deadline: _Deadline, checks: list[int]
) -> tuple[Union[tuple[int, ...], None, str], int]:
    """The first canonical exactly-t coloring (in canonical order) that
    verifies, None if the level is exhausted, or "timeout", together with
    the number of canonical colorings up to that point.

    A coloring that fails at (u, v) is cut back to the shortest prefix of
    its edge colors under which no relaxed walk joins u and v, found by
    one incremental ``_refuting_prefix`` search, and every coloring sharing
    that prefix is skipped unverified.  ``checks`` counts verifications;
    the deadline is read on the first and every 512th.
    """
    n, m = g.n, g.m
    cmat = [[0] * n for _ in range(n)]
    incident = _incident_edges(g)
    ways = _completion_counts(m, t)
    colorings = canonical_colorings(m, t)
    assignment = next(colorings)
    while True:
        checks[0] += 1
        if checks[0] % 512 == 1 and deadline.expired():
            return "timeout", _rank(assignment, ways) + 1
        for (a, b), c in zip(g.edges, assignment):
            cmat[a][b] = cmat[b][a] = c
        pair = _first_failing_pair(g.adjacency, cmat, n, ell, None)
        if pair is None:
            return assignment, _rank(assignment, ways) + 1
        # The first edge is always color 1, so one edge already spans the level.
        try:
            assignment = colorings.send(_refuting_prefix(incident, assignment, t, *pair, ell))
        except StopIteration:
            return None, ways[0][0]


def min_colors_exact(
    g: Graph, ell: int, budget: Optional[SearchBudget] = None
) -> Union[ExactResult, Inconclusive]:
    """Exact (1, ell)-proper connection number of a small connected graph.

    Searches t = 1, 2, ... ascending; the witness is the canonically first
    valid coloring at the minimal level, independent of any parallel
    partitioning of the enumeration.
    """
    ell = _validate_window(ell)
    if not is_connected(g):
        raise ValueError("exact search requires a connected graph")
    if budget is None:
        budget = SearchBudget()
    if g.m == 0:
        raise ValueError("exact search requires at least one edge")
    if g.m > budget.max_edges:
        return Inconclusive((), 0, f"graph has {g.m} edges, budget allows {budget.max_edges}")
    top = g.m if budget.max_colors is None else min(budget.max_colors, g.m)
    deadline = _Deadline(budget.time_limit)
    checks = [0]
    examined = 0
    exhausted: list[int] = []
    for t in range(1, top + 1):
        outcome, count = _valid_witness_at_level(g, ell, t, deadline, checks)
        examined += count
        if outcome == "timeout":
            return Inconclusive(tuple(exhausted), examined, "time limit")
        if outcome is None:
            exhausted.append(t)
            continue
        witness = EdgeColoring(dict(zip(g.edges, outcome)), num_colors=t)
        return ExactResult(t, witness, examined, tuple(exhausted))
    return Inconclusive(tuple(exhausted), examined, f"no valid coloring with <= {top} colors")


def prove_lower_bound(
    g: Graph, ell: int, t: int, budget: Optional[SearchBudget] = None
) -> Union[bool, Inconclusive]:
    """True iff no valid coloring with at most t colors exists (each level
    1..t exhaustively refuted); False as soon as some valid coloring is
    found.  Runs min_colors_exact with the color count capped at t."""
    result = min_colors_exact(g, ell, replace(budget or SearchBudget(), max_colors=t))
    if isinstance(result, ExactResult):
        return False
    if len(result.exhausted_levels) == min(t, g.m):
        return True
    return result
