"""Exact minimum color counts by exhaustive search with symmetry breaking.

For t = 1, 2, ... the search enumerates colorings in canonical first-use
form (the first occurrence of color c+1 comes after the first occurrence of
color c, in edge-index order) that use exactly t colors, and verifies each
until one makes the graph (1, ell)-proper connected.  Canonical form breaks
the color-relabeling symmetry only; the number of canonical colorings of m
edges using exactly t colors is the Stirling partition number S(m, t).

Budgets are first-class: running out of time or scope yields Inconclusive,
never a silent bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Union

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


def canonical_colorings(m: int, t: int) -> Iterator[tuple[int, ...]]:
    """All canonical colorings of m edges using exactly t colors.

    Canonical means color c appears for the first time only after colors
    1..c-1 all have, scanning edges in index order.
    """
    if m < 1 or t < 1 or t > m:
        return
    assignment = [0] * m

    def rec(i: int, used: int) -> Iterator[tuple[int, ...]]:
        if i == m:
            if used == t:
                yield tuple(assignment)
            return
        if t - used > m - i:
            return  # not enough edges left to introduce the missing colors
        top = min(used + 1, t)
        for c in range(1, top + 1):
            assignment[i] = c
            yield from rec(i + 1, max(used, c))

    yield from rec(0, 0)


class _Deadline:
    __slots__ = ("at",)

    def __init__(self, time_limit: Optional[float]):
        self.at = None if time_limit is None else time.monotonic() + time_limit

    def expired(self) -> bool:
        return self.at is not None and time.monotonic() > self.at


def _valid_witness_at_level(
    g: Graph, ell: int, t: int, deadline: _Deadline, counter: list[int]
) -> Union[tuple[int, ...], None, str]:
    """First canonical exactly-t coloring (in canonical order) that verifies,
    None if the level is exhausted, or "timeout"."""
    cmat = [[0] * g.n for _ in range(g.n)]
    for assignment in canonical_colorings(g.m, t):
        counter[0] += 1
        if counter[0] % 512 == 1 and deadline.expired():
            return "timeout"
        for (u, v), c in zip(g.edges, assignment):
            cmat[u][v] = c
            cmat[v][u] = c
        if _first_failing_pair(g.adjacency, cmat, g.n, ell, None) is None:
            return assignment
    return None


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
    counter = [0]
    exhausted: list[int] = []
    for t in range(1, top + 1):
        outcome = _valid_witness_at_level(g, ell, t, deadline, counter)
        if outcome == "timeout":
            return Inconclusive(tuple(exhausted), counter[0], "time limit")
        if outcome is None:
            exhausted.append(t)
            continue
        witness = EdgeColoring(dict(zip(g.edges, outcome)), num_colors=t)
        return ExactResult(t, witness, counter[0], tuple(exhausted))
    return Inconclusive(tuple(exhausted), counter[0], f"no valid coloring with <= {top} colors")


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
