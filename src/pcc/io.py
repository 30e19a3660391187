"""Text formats for graphs and edge colorings.

Edge-list format: line 1 is ``n m``, followed by m lines ``u v`` with
0-indexed endpoints, u < v, space-separated, LF line endings; the edge
lines may come in any order.  Coloring format: m lines ``u v c`` with
c >= 1, in the graph's ascending edge order (``Graph.edges``, the order
``write_graph`` writes), whatever the order of the graph file.  Both
round-trip exactly: read(write(x)) == x (a coloring written here is
canonical, i.e. num_colors equals the maximum color used).
"""

from __future__ import annotations

from .graphs import EdgeColoring, Graph


class ParseError(ValueError):
    """Malformed graph or coloring text; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _split_ints(text_line: str, line_no: int, count: int) -> list[int]:
    """The ``count`` fields of a line as ints.  A field is ASCII decimal
    digits with an optional leading ``-``; int() alone would also take
    ``+2``, ``1_0`` and non-ASCII digits."""
    fields = text_line.split()
    if len(fields) != count:
        raise ParseError(line_no, f"expected {count} fields, got {len(fields)}: {text_line!r}")
    for f in fields:
        digits = f[1:] if f[0] == "-" else f
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(line_no, f"non-integer field in {text_line!r}")
    return [int(f) for f in fields]


def read_graph(text: str) -> Graph:
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty input, expected header 'n m'")
    n, m = _split_ints(lines[0], 1, 2)
    if n < 1:
        raise ParseError(1, f"vertex count must be >= 1, got {n}")
    if m < 0:
        raise ParseError(1, f"edge count must be >= 0, got {m}")
    if len(lines) < m + 1:
        raise ParseError(len(lines) + 1, f"expected {m} edge lines, got {len(lines) - 1}")
    if len(lines) > m + 1:
        raise ParseError(m + 2, f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    seen = set()
    for i in range(m):
        line_no = i + 2
        u, v = _split_ints(lines[i + 1], line_no, 2)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(line_no, f"vertex out of range in edge ({u}, {v}) for n={n}")
        if u >= v:
            raise ParseError(line_no, f"edge ({u}, {v}) must have u < v")
        if (u, v) in seen:
            raise ParseError(line_no, f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, edges)


def write_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def read_coloring(text: str, g: Graph) -> EdgeColoring:
    lines = text.splitlines()
    if len(lines) < g.m:
        raise ParseError(len(lines) + 1, f"uncolored edge: expected {g.m} lines, got {len(lines)}")
    if len(lines) > g.m:
        raise ParseError(g.m + 1, f"expected {g.m} lines, got {len(lines)}")
    colors = {}
    for i in range(g.m):
        line_no = i + 1
        u, v, c = _split_ints(lines[i], line_no, 3)
        if (u, v) != g.edges[i]:
            raise ParseError(
                line_no,
                f"edge ({u}, {v}) does not match graph edge {g.edges[i]} at this position",
            )
        if c < 1:
            raise ParseError(line_no, f"color must be >= 1, got {c}")
        colors[(u, v)] = c
    return EdgeColoring(colors)


def write_coloring(coloring: EdgeColoring, g: Graph) -> str:
    missing = [e for e in g.edges if e not in coloring.colors]
    if missing:
        raise ValueError(f"coloring does not cover edge {missing[0]}")
    lines = [f"{u} {v} {coloring.colors[(u, v)]}" for u, v in g.edges]
    return "\n".join(lines) + "\n"
