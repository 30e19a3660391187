"""The benchmark's yardstick for the host's speed.

A shared host gives one Python process a speed that drifts by a third or
more over tens of seconds, and by as much again from one run to the next,
so raw times of the same code disagree by more than any useful bound.  The
benchmark therefore brackets every timed call with runs of a fixed
reference kernel and reports each time at the reference speed:

    time = measured * NOMINAL_S / mean(reference before, reference after)

The kernel is a pure-Python depth-first search written here, not in pcc,
with the operations pcc's searches spend their time on (recursive calls,
list indexing, appends and pops).  A change to pcc moves the measured time
and not the reference, so it shows in full; a stretch in which the host
runs everything slower moves both, and cancels.  The kernel runs with the
garbage collector off, so that the heap pcc leaves behind does not slow it.

NOMINAL_S is the kernel's median time on the host the benchmark was written
on (2 vCPUs of an Intel Xeon, Python 3.11.7), so normalised times read as
seconds on that host at its median speed.
"""

from __future__ import annotations

import gc
import time

NOMINAL_S = 0.006

_SIDE = 5
_ADJACENCY: list[list[int]] = []
_COLOR: list[list[int]] = []


def _build() -> None:
    n = _SIDE * _SIDE
    _COLOR.extend([0] * n for _ in range(n))
    for v in range(n):
        r, c = divmod(v, _SIDE)
        near = [(r + dr, c + dc) for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0))]
        _ADJACENCY.append([a * _SIDE + b for a, b in near if 0 <= a < _SIDE and 0 <= b < _SIDE])
        for w in _ADJACENCY[v]:
            _COLOR[v][w] = (min(v, w) * 7 + max(v, w) * 3) % 13


_build()


def _paths(x: int, visited: list[bool], colors: list[int], depth: int) -> int:
    """Simple paths of at most `depth` more edges from x whose last three
    edge colors are distinct."""
    total = 1
    if depth == 0:
        return total
    for y in _ADJACENCY[x]:
        if visited[y]:
            continue
        c = _COLOR[x][y]
        if c in colors[-2:]:
            continue
        visited[y] = True
        colors.append(c)
        total += _paths(y, visited, colors, depth - 1)
        colors.pop()
        visited[y] = False
    return total


def _kernel() -> int:
    total = 0
    for start in (0, 6, 12):
        visited = [False] * (_SIDE * _SIDE)
        visited[start] = True
        total += _paths(start, visited, [], 12)
    return total


KERNEL_RESULT = _kernel()


def reference_s() -> float:
    """Seconds one run of the reference kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = _kernel()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if result != KERNEL_RESULT:
        raise RuntimeError("the reference kernel returned another result")
    return elapsed


def at_reference_speed(measured: float, before: float, after: float) -> float:
    """`measured` seconds rescaled to the host speed at which the kernel
    takes NOMINAL_S, the speed estimated from the runs on either side."""
    return measured * NOMINAL_S * 2.0 / (before + after)
