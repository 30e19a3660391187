"""Constructive colorings, one per structural result.

Every constructor returns a ConstructionReport whose coloring is expected
to pass verify_coloring at the requested window; the constructors for
2-connected graphs, Cartesian products, and permutation graphs check their
own output with the verdict scan ``first_failing_pair``, mark the report
``verified``, and raise InvariantViolation rather than return a bad
coloring.  Greedy choices always take the lowest admissible color so
outputs are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
from bisect import insort
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Optional, Sequence

from .graphs import (
    Edge,
    EdgeColoring,
    Graph,
    InvariantViolation,
    Permutation,
    cartesian_product,
    complete_multipartite_graph,
    hypercube_graph,
    join,
    normalize_edge,
    permutation_graph,
    wheel_graph,
)
from .structure import (
    RootedTree,
    _bfs,
    bfs_tree,
    ear_decomposition,
    eccentricity,
    hamiltonian_path,
    is_2_connected,
    is_complete,
    is_connected,
    is_star,
    is_tree,
    max_subtree_size_with_diameter,
    minimally_2connected_spanning,
)
from .verify import _proper_paths, _validate_window, first_failing_pair


@dataclass(frozen=True)
class ConstructionReport:
    """A constructed coloring together with the claimed color count.

    ``verified`` is True when the constructor found the coloring
    (1, l)-proper connected at its window before returning it.
    """

    coloring: EdgeColoring
    claimed_colors: int
    theorem: str
    notes: str = ""
    verified: bool = False

    def __post_init__(self):
        if len(self.coloring.used_colors()) > self.claimed_colors:
            raise InvariantViolation(
                f"{self.theorem}: coloring uses {len(self.coloring.used_colors())} "
                f"colors, more than the claimed {self.claimed_colors}"
            )


@dataclass(frozen=True)
class AnchorSet:
    """Two or three length-2 paths with a common end, stored outward as
    (x, a, b) for the path x-a-b.  The paths use exactly two distinct
    edges at x, and their edges carry at most 4 colors in the color matrix
    that ``color_2connected`` keeps."""

    vertex: int
    paths: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if len(self.paths) not in (2, 3):
            raise InvariantViolation(f"anchor set at {self.vertex} needs 2 or 3 paths")
        for p in self.paths:
            if p[0] != self.vertex or len(set(p)) != 3:
                raise InvariantViolation(f"bad anchor path {p} at vertex {self.vertex}")
        if len({p[1] for p in self.paths}) != 2:
            raise InvariantViolation(
                f"anchor set at {self.vertex} must touch exactly two incident edges"
            )

    def incident_neighbors(self) -> tuple[int, int]:
        return tuple(sorted({p[1] for p in self.paths}))

    def edge_colors(self, cmat: Sequence[Sequence[int]]) -> set[int]:
        """Colors of the paths' edges in the symmetric color matrix ``cmat``
        (``cmat[a][b]`` is the color of edge ab, 0 if uncolored)."""
        out = set()
        for x, a, b in self.paths:
            out.add(cmat[x][a])
            out.add(cmat[a][b])
        return out


def _lowest(candidates: Iterable[int], excluded: set[int], context: str) -> int:
    for c in sorted(set(candidates)):
        if c not in excluded:
            return c
    raise InvariantViolation(f"no admissible color for {context}")


# ---------------------------------------------------------------------------
# traceable graphs
# ---------------------------------------------------------------------------


def _check_hamiltonian_path(g: Graph, path: Sequence[int]) -> None:
    if len(path) != g.n or len(set(path)) != g.n:
        raise ValueError("sequence is not a spanning simple path")
    for a, b in zip(path, path[1:]):
        if not g.has_edge(a, b):
            raise ValueError(f"sequence is not a path: missing edge ({a}, {b})")


def color_traceable(g: Graph, ham_path: Sequence[int], ell: int) -> ConstructionReport:
    """Cycle ell+1 colors along a Hamiltonian path, color 1 elsewhere."""
    ell = _validate_window(ell)
    _check_hamiltonian_path(g, ham_path)
    colors = {e: 1 for e in g.edges}
    for i, (a, b) in enumerate(zip(ham_path, ham_path[1:])):
        colors[normalize_edge(a, b)] = (i % (ell + 1)) + 1
    return ConstructionReport(
        EdgeColoring(colors), ell + 1, "traceable", f"path of {g.n} vertices"
    )


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


def _tree_conflict_colors(
    t: Graph, edge: Edge, ell: int, colors: dict[Edge, int]
) -> set[int]:
    """Colors of colored edges within edge-gap <= ell-1 of ``edge``.  Two
    tree edges at gap g lie on a common path with g edges strictly between
    them, so they conflict exactly when g <= ell-1, that is when the other
    edge touches a vertex at most ell-1 steps from the nearer end of
    ``edge``.  Both ends start the search at distance 0, so it never
    crosses ``edge`` itself."""
    reached: list[int] = []
    _bfs(t.adjacency, edge, ell - 1, order=reached)
    out: set[int] = set()
    for x in reached:
        for y in t.adjacency[x]:
            f = normalize_edge(x, y)
            if f != edge and f in colors:
                out.add(colors[f])
    return out


def color_tree(t: Graph, ell: int) -> ConstructionReport:
    """Rainbow a maximum bounded-diameter core subtree, then level outward,
    giving each edge the lowest color unused within its conflict window.

    In a tree every path is the unique path between its ends, so the
    coloring must make all paths window-proper.  The color count equals
    the maximum size of a subtree with diameter <= ell+1; for ell = 2 that
    is the largest degree sum over adjacent pairs, minus one.
    """
    ell = _validate_window(ell)
    if not is_tree(t):
        raise ValueError("tree coloring requires a tree")
    if t.m < 1:
        raise ValueError("tree coloring requires at least one edge")
    k, core = max_subtree_size_with_diameter(t, ell + 1)
    colors: dict[Edge, int] = {}
    for i, e in enumerate(core.edges):
        colors[e] = i + 1
    dist = _bfs(t.adjacency, sorted({v for e in core.edges for v in e}))[0]
    pending = [e for e in t.edges if e not in colors]
    pending.sort(key=lambda e: (max(dist[e[0]], dist[e[1]]), e))
    for e in pending:
        conflict = _tree_conflict_colors(t, e, ell, colors)
        colors[e] = _lowest(range(1, k + 1), conflict, f"tree edge {e}")
    return ConstructionReport(
        EdgeColoring(colors, num_colors=k),
        k,
        "tree",
        f"core subtree of diameter <= {ell + 1} with {k} edges",
    )


# ---------------------------------------------------------------------------
# complete bipartite and multipartite graphs
# ---------------------------------------------------------------------------


def _vectors_with_units(count: int, width: int, alphabet: int) -> list[tuple[int, ...]]:
    """Distinct vectors over {1..alphabet}^width: first the single-entry
    perturbations (2,1,..,1) .. (1,..,1,2), then lexicographic fill."""
    units = [tuple(2 if j == i else 1 for j in range(width)) for i in range(width)]
    if count < width or count > alphabet**width:
        raise InvariantViolation(
            f"cannot pick {count} distinct vectors with units over "
            f"{alphabet}^{width}"
        )
    taken = set(units)
    out = list(units)
    for vec in itertools.product(range(1, alphabet + 1), repeat=width):
        if len(out) >= count:
            break
        if vec not in taken:
            taken.add(vec)
            out.append(vec)
    return out[:count]


def _binary_lex(count: int, width: int) -> list[tuple[int, ...]]:
    return list(itertools.islice(itertools.product((1, 2), repeat=width), count))


def _apply_vectors(
    small: Sequence[int], large: Sequence[int], vectors: Sequence[tuple[int, ...]]
) -> dict[Edge, int]:
    """Give the edge between small[i] and the j-th large vertex component i
    of the j-th vector."""
    colors = {}
    for w, vec in zip(large, vectors):
        for i, u in enumerate(small):
            colors[normalize_edge(u, w)] = vec[i]
    return colors


def _cross_colors(
    small: Sequence[int], large: Sequence[int], ell: int
) -> tuple[dict[Edge, int], int, str]:
    """Colors for all edges between two sides of a complete bipartite
    subgraph, vector style: each large-side vertex carries a vector indexed
    by the small side, and the edge to small[i] gets component i.  Requires
    |small| >= 2.  Returns (colors, color count, case note)."""
    s, n = len(small), len(large)
    if s < 2:
        raise InvariantViolation("vector coloring needs at least 2 vertices per side")
    if n <= 2**s:
        vectors, claimed, note = _vectors_with_units(n, s, 2), 2, "binary vectors"
    elif ell == 2:
        vectors = _binary_lex(2**s, s) + [(3,) * s] * (n - 2**s)
        claimed, note = 3, "binary vectors plus all-3 tail"
    elif n <= 3**s:
        vectors, claimed, note = _vectors_with_units(n, s, 3), 3, "ternary vectors"
    else:
        vectors = _binary_lex(2**s, s) + [(3,) + (4,) * (s - 1)] * (n - 2**s)
        claimed, note = 4, "binary vectors plus (3,4,..,4) tail"
    return _apply_vectors(small, large, vectors), claimed, note


def color_complete_bipartite(m: int, n: int, ell: int) -> ConstructionReport:
    """Vector coloring of K_{m,n} (side U is 0..m-1, side V is m..m+n-1)."""
    ell = _validate_window(ell)
    if ell < 2:
        raise ValueError(f"complete bipartite coloring requires ell >= 2, got {ell}")
    if not (1 <= m <= n):
        raise ValueError(f"requires 1 <= m <= n, got ({m}, {n})")
    if m == 1:
        colors = {(0, 1 + j): j + 1 for j in range(n)}
        return ConstructionReport(
            EdgeColoring(colors), n, "complete_bipartite", "star: all edges distinct"
        )
    colors, claimed, note = _cross_colors(
        list(range(m)), list(range(m, m + n)), ell
    )
    return ConstructionReport(
        EdgeColoring(colors), claimed, "complete_bipartite", note
    )


def balanced_split(parts: Sequence[int]) -> Optional[int]:
    """Smallest prefix length i (1 <= i <= t-1) whose prefix/suffix sums
    (m_i = smaller, M_i = larger) satisfy M_i <= 2^{m_i}, else None."""
    parts = list(parts)
    if len(parts) < 3:
        raise ValueError("balanced split requires at least 3 parts")
    if parts != sorted(parts):
        raise ValueError("parts must be sorted ascending")
    total = sum(parts)
    prefix = 0
    for i in range(1, len(parts)):
        prefix += parts[i - 1]
        lo, hi = min(prefix, total - prefix), max(prefix, total - prefix)
        if hi <= 2**lo:
            return i
    return None


def color_complete_multipartite(parts: Sequence[int], ell: int) -> ConstructionReport:
    """Coloring of the complete multipartite graph on sorted ascending parts."""
    ell = _validate_window(ell)
    parts = tuple(int(p) for p in parts)
    if len(parts) < 3:
        raise ValueError(f"requires at least 3 parts, got {len(parts)}")
    if list(parts) != sorted(parts) or parts[0] < 1:
        raise ValueError("parts must be positive and sorted ascending")
    g = complete_multipartite_graph(parts)
    offsets = [0]
    for p in parts:
        offsets.append(offsets[-1] + p)
    groups = [list(range(offsets[i], offsets[i + 1])) for i in range(len(parts))]
    n = parts[-1]
    m = sum(parts[:-1])

    if n == 1:
        colors = {e: 1 for e in g.edges}
        return ConstructionReport(
            EdgeColoring(colors), 1, "complete_multipartite", "complete graph"
        )

    if n > 2**m:
        u_side = [v for grp in groups[:-1] for v in grp]
        vectors = _binary_lex(2**m, m) + [(1,) + (2,) * (m - 1)] * (n - 2**m)
        colors = _apply_vectors(u_side, groups[-1], vectors)
        for e in g.edges:
            colors.setdefault(e, 3)
        return ConstructionReport(
            EdgeColoring(colors),
            3,
            "complete_multipartite",
            "largest part exceeds 2^m: binary vectors, (1,2,..,2) tail, color 3 inside",
        )

    # Two colors via a spanning complete bipartite subgraph.
    if m <= n:
        small = [v for grp in groups[:-1] for v in grp]
        large = groups[-1]
        note = "spanning bipartition: first t-1 parts vs largest part"
    else:
        i = balanced_split(parts)
        if i is None:
            raise InvariantViolation(
                f"no balanced split for parts {parts} although 2 <= n <= 2^m"
            )
        a_side = [v for grp in groups[:i] for v in grp]
        b_side = [v for grp in groups[i:] for v in grp]
        small, large = sorted((a_side, b_side), key=len)
        note = f"spanning bipartition from balanced split at i={i}"
    cross, claimed, _ = _cross_colors(small, large, ell if ell >= 2 else 2)
    if claimed != 2:
        raise InvariantViolation(f"expected a 2-color bipartite core, got {claimed}")
    colors = dict(cross)
    for e in g.edges:
        colors.setdefault(e, 1)
    return ConstructionReport(EdgeColoring(colors), 2, "complete_multipartite", note)


# ---------------------------------------------------------------------------
# wheels
# ---------------------------------------------------------------------------

# Two-colorings of the small wheels, recovered once by exhaustive search
# (tests regenerate and compare them).  Any valid 2-coloring here has all
# witness paths of length <= 2, so it stays valid for every window >= 2.
_SMALL_WHEEL_COLORINGS = {
    4: {(0, 1): 1, (0, 3): 1, (0, 4): 1, (1, 2): 1, (1, 4): 1, (2, 3): 1, (2, 4): 2, (3, 4): 2},
    5: {(0, 1): 1, (0, 4): 1, (0, 5): 1, (1, 2): 1, (1, 5): 1, (2, 3): 1, (2, 5): 2, (3, 4): 2, (3, 5): 2, (4, 5): 2},
    6: {(0, 1): 1, (0, 5): 1, (0, 6): 1, (1, 2): 1, (1, 6): 2, (2, 3): 2, (2, 6): 2, (3, 4): 1, (3, 6): 2, (4, 5): 2, (4, 6): 1, (5, 6): 1},
}


def color_wheel(n: int, ell: int) -> ConstructionReport:
    """Coloring of W_n (rim 0..n-1, center n).

    n = 3 is complete; 4 <= n <= 6 use the stored 2-colorings; for n >= 7
    rim edge (j, j+1) gets color (j mod 3) + 1, each spoke takes the color
    missing from its two rim neighbors, and the spoke at rim vertex 0 is
    pinned to 3.
    """
    ell = _validate_window(ell)
    if ell < 2:
        raise ValueError(f"wheel coloring requires ell >= 2, got {ell}")
    if n < 3:
        raise ValueError(f"wheel requires n >= 3, got {n}")
    g = wheel_graph(n)
    if n == 3:
        return ConstructionReport(
            EdgeColoring({e: 1 for e in g.edges}), 1, "wheel", "complete"
        )
    if n <= 6:
        return ConstructionReport(
            EdgeColoring(dict(_SMALL_WHEEL_COLORINGS[n])), 2, "wheel", "stored 2-coloring"
        )
    colors: dict[Edge, int] = {}

    def rim_color(j: int) -> int:
        return (j % 3) + 1

    for j in range(n):
        colors[normalize_edge(j, (j + 1) % n)] = rim_color(j)
    for j in range(n):
        if j == 0:
            colors[normalize_edge(0, n)] = 3
        else:
            colors[normalize_edge(j, n)] = 6 - rim_color(j) - rim_color((j - 1) % n)
    return ConstructionReport(
        EdgeColoring(colors), 3, "wheel", "mod-3 rim with complementary spokes"
    )


# ---------------------------------------------------------------------------
# hypercubes
# ---------------------------------------------------------------------------


def color_hypercube(t: int, ell: int) -> ConstructionReport:
    """Coloring of Q_t by edge dimension, folded mod ell+1 when ell < t."""
    ell = _validate_window(ell)
    if ell < 2:
        raise ValueError(f"hypercube coloring requires ell >= 2, got {ell}")
    if t < 1:
        raise ValueError(f"hypercube requires t >= 1, got {t}")
    g = hypercube_graph(t)
    if t == 1:
        return ConstructionReport(EdgeColoring({(0, 1): 1}), 1, "hypercube", "single edge")

    def dim(u: int, v: int) -> int:
        return (u ^ v).bit_length()

    if ell >= t or t == 2:
        colors = {(u, v): dim(u, v) for u, v in g.edges}
        return ConstructionReport(
            EdgeColoring(colors), t, "hypercube", "identity dimension coloring"
        )
    colors = {(u, v): ((dim(u, v) - 1) % (ell + 1)) + 1 for u, v in g.edges}
    return ConstructionReport(
        EdgeColoring(colors), ell + 1, "hypercube", f"dimensions folded mod {ell + 1}"
    )


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


def color_join(g: Graph, h: Graph) -> ConstructionReport:
    """Vector-color the spanning complete bipartite cross edges of G v H,
    color 1 inside both factors (window fixed at 2)."""
    if g.n < 2 or h.n < 2:
        raise ValueError("join coloring requires nontrivial factors")
    if not (is_connected(g) and is_connected(h)):
        raise ValueError("join coloring requires connected factors")
    jg = join(g, h)
    g_side = list(range(g.n))
    h_side = list(range(g.n, g.n + h.n))
    small, large = sorted((g_side, h_side), key=len)
    cross, claimed, note = _cross_colors(small, large, 2)
    colors = dict(cross)
    for e in jg.edges:
        colors.setdefault(e, 1)
    return ConstructionReport(EdgeColoring(colors), claimed, "join", note)


# ---------------------------------------------------------------------------
# Cartesian products
# ---------------------------------------------------------------------------


def _product_edge(h_n: int, u1: int, v1: int, u2: int, v2: int) -> Edge:
    """The edge (u1, v1)-(u2, v2) of G box H, vertex (u, v) being u * h_n + v."""
    return normalize_edge(u1 * h_n + v1, u2 * h_n + v2)


def _tree_with_root_ecc_exactly_2(g: Graph, eccs: list[int]) -> Optional[RootedTree]:
    rad = min(eccs)
    if rad == 2:
        return bfs_tree(g, eccs.index(2))
    if rad == 1 and g.n >= 3:
        center = eccs.index(1)
        leaf = 0 if center != 0 else 1
        parent: list[Optional[int]] = [center] * g.n
        depth = [2] * g.n
        parent[leaf], depth[leaf] = None, 0
        parent[center], depth[center] = leaf, 1
        return RootedTree(leaf, tuple(parent), tuple(depth))
    return None


def _tree_with_root_ecc_ge_3(g: Graph, eccs: list[int]) -> Optional[RootedTree]:
    if min(eccs) >= 3:
        return bfs_tree(g, 0)
    # Anchor a 4-vertex path as tree edges, then grow the rest by BFS.
    for a in range(g.n):
        for b in g.adjacency[a]:
            for c in g.adjacency[b]:
                if c in (a, b):
                    continue
                for d in g.adjacency[c]:
                    if d in (a, b, c):
                        continue
                    parent: list[Optional[int]] = [None] * g.n
                    depth = [-1] * g.n
                    depth[a], depth[b], depth[c], depth[d] = 0, 1, 2, 3
                    parent[b], parent[c], parent[d] = a, b, c
                    queue = deque([a, b, c, d])
                    while queue:
                        x = queue.popleft()
                        for y in g.adjacency[x]:
                            if depth[y] == -1:
                                depth[y] = depth[x] + 1
                                parent[y] = x
                                queue.append(y)
                    return RootedTree(a, tuple(parent), tuple(depth))
    return None


def _cartesian_trees(
    g: Graph, h: Graph, g_eccs: list[int], h_eccs: list[int]
) -> tuple[RootedTree, RootedTree, str]:
    """Spanning trees of G and H for the general product scheme, with a note
    naming the root choice."""
    # Prefer both roots at tree eccentricity exactly 2: depths {0,1,2} on
    # both sides feed the mod-3 witness arithmetic for every pair.  A side
    # that cannot reach 2 (only K_2) drops to eccentricity <= 2; if either
    # side is too deep for that, both go to eccentricity >= 3.
    g2 = _tree_with_root_ecc_exactly_2(g, g_eccs)
    h2 = _tree_with_root_ecc_exactly_2(h, h_eccs)
    g_rad, h_rad = min(g_eccs), min(h_eccs)
    if g2 is not None and h2 is not None:
        return g2, h2, "roots at eccentricity (2, 2)"
    if g2 is not None and h_rad <= 2:
        return g2, bfs_tree(h, h_eccs.index(h_rad)), "roots at eccentricity (2, <=2)"
    if h2 is not None and g_rad <= 2:
        return bfs_tree(g, g_eccs.index(g_rad)), h2, "roots at eccentricity (<=2, 2)"
    s_tree = _tree_with_root_ecc_ge_3(g, g_eccs)
    t_tree = _tree_with_root_ecc_ge_3(h, h_eccs)
    if s_tree is None or t_tree is None:
        raise InvariantViolation(
            "no root choice with both tree eccentricities >= 3 or one of (2, <=2)"
        )
    return s_tree, t_tree, "roots at eccentricity (>=3, >=3)"


def _cartesian_general(
    g: Graph, h: Graph, g_eccs: list[int], h_eccs: list[int]
) -> tuple[dict[Edge, int], str]:
    """3-coloring of a spanning tree box S box T by the depths of its ends.

    With s the depth of x in S and t the depth of y in T, the S edge from
    (x, y) up to (parent(x), y) takes -s on the root copy (t = 0) and
    s + t - 1 elsewhere; the T edge from (x, y) up to (x, parent(y)) takes
    t - 1 on the root copy (s = 0) and -s - t elsewhere, all mod 3.  This is
    the lowest-color greedy over the down-one-tree-up-the-other template
    walks, in closed form: the greedy visits edges by depth, and sibling
    edges never share a template window, so each color depends only on
    depths.  When T has depth 1, the depth-1 S edge at the root sees no
    depth-2 T edge and takes 2 instead of 3, which swaps 2 and 3 everywhere.
    """
    s_tree, t_tree, note = _cartesian_trees(g, h, g_eccs, h_eccs)
    palette = (1, 3, 2) if max(t_tree.depth) == 1 else (1, 2, 3)
    hn = h.n
    colors: dict[Edge, int] = {}
    for x, s in enumerate(s_tree.depth):
        for y, t in enumerate(t_tree.depth):
            if s:
                c = -s if t == 0 else s + t - 1
                colors[_product_edge(hn, x, y, s_tree.parent[x], y)] = palette[c % 3]
            if t:
                c = t - 1 if s == 0 else -s - t
                colors[_product_edge(hn, x, y, x, t_tree.parent[y])] = palette[c % 3]
    return colors, note


def _cartesian_k3(other: Graph, edge) -> dict[Edge, int]:
    """3-coloring of (BFS tree of other from 0) box K_3, where ``edge(x1, y1,
    x2, y2)`` names the product edge for x in other and y in K_3.  The middle
    triangle copy carries ascending depth colors, the outer two descending
    ones, and the rungs continue those cyclic runs; the root's rungs take 3."""
    tree = bfs_tree(other, 0)
    colors: dict[Edge, int] = {}
    for x, d in enumerate(tree.depth):
        if d:
            p = tree.parent[x]
            colors[edge(x, 1, p, 1)] = (d - 1) % 3 + 1
            colors[edge(x, 0, p, 0)] = colors[edge(x, 2, p, 2)] = (-1 - d) % 3 + 1
            rungs = (d % 3 + 1, (-2 - d) % 3 + 1, (d + 1) % 3 + 1)
        else:
            rungs = (3, 3, 3)
        colors[edge(x, 0, x, 1)], colors[edge(x, 1, x, 2)], colors[edge(x, 0, x, 2)] = rungs
    return colors


def _cartesian_star(star: Graph, other: Graph, other_eccs: list[int], edge) -> dict[Edge, int]:
    """4-coloring of star box other, where ``edge(x1, y1, x2, y2)`` names the
    product edge for x in other and y in the star.  The tree of the deep
    factor is rooted at an end of a longest path; its copy at the star's
    center cycles 1,2,3 by depth and the leaf copies cycle one step ahead.
    Star edges take 4, but 3 at depth 1, where two color-4 star levels would
    sit only two apart on the anchoring cycle."""
    center = max(range(star.n), key=lambda v: star.degree(v))
    tree = bfs_tree(other, other_eccs.index(max(other_eccs)))
    colors: dict[Edge, int] = {}
    for x, d in enumerate(tree.depth):
        for y in range(star.n):
            if d:
                step = d - 1 if y == center else d
                colors[edge(x, y, tree.parent[x], y)] = step % 3 + 1
            if y != center:
                colors[edge(x, center, x, y)] = 3 if d == 1 else 4
    return colors


def color_cartesian(g: Graph, h: Graph) -> ConstructionReport:
    """Coloring of G box H (window fixed at 2), with G = ``g`` the left
    factor and H = ``h`` the right one.

    A star times a factor of radius >= 3 gets the 4-color scheme; a K_3
    factor gets its dedicated 3-color scheme; everything else gets the
    3-coloring of a spanning tree box by tree depths.  The star and K_3
    schemes see the special factor second; only this function knows on
    which side it is.  The output is verified before returning.
    Where the scheme fails verification (K_2 times a radius-2 factor that
    branches at depth 1) and the product has a Hamiltonian path, the
    product is colored along that path with 3 colors instead.
    """
    if g.n < 2 or h.n < 2:
        raise ValueError("product coloring requires nontrivial factors")
    if not (is_connected(g) and is_connected(h)):
        raise ValueError("product coloring requires connected factors")
    if is_complete(g) and is_complete(h):
        raise ValueError("product coloring requires at least one non-complete factor")
    pg = cartesian_product(g, h)
    g_eccs = [eccentricity(g, v) for v in range(g.n)]
    h_eccs = [eccentricity(h, v) for v in range(h.n)]
    # Edges named by (other, special) coordinates, the special factor being H or G.
    right = partial(_product_edge, h.n)

    def left(x1: int, y1: int, x2: int, y2: int) -> Edge:
        return _product_edge(h.n, y1, x1, y2, x2)

    if is_star(g) and min(h_eccs) >= 3:
        colors, claimed, note = _cartesian_star(g, h, h_eccs, left), 4, "star times deep factor"
    elif is_star(h) and min(g_eccs) >= 3:
        colors, claimed, note = _cartesian_star(h, g, g_eccs, right), 4, "deep factor times star"
    elif is_complete(g) and g.n == 3:
        colors, claimed, note = _cartesian_k3(h, left), 3, "left factor K_3"
    elif is_complete(h) and h.n == 3:
        colors, claimed, note = _cartesian_k3(g, right), 3, "right factor K_3"
    else:
        colors, note = _cartesian_general(g, h, g_eccs, h_eccs)
        claimed = 3
    full = dict(colors)
    for e in pg.edges:
        full.setdefault(e, 1)
    coloring = EdgeColoring(full)
    failing = first_failing_pair(pg, coloring, 2)
    if failing is not None:
        path = hamiltonian_path(pg)
        if path is not None:
            note = f"{note} failed at pair {failing}; Hamiltonian path instead"
            coloring, claimed = color_traceable(pg, path, 2).coloring, 3
            failing = first_failing_pair(pg, coloring, 2)
    if failing is not None:
        raise InvariantViolation(
            f"product coloring failed verification at pair {failing} ({note})"
        )
    return ConstructionReport(coloring, claimed, "cartesian", note, verified=True)


# ---------------------------------------------------------------------------
# 2-connected graphs
# ---------------------------------------------------------------------------


def _base_cycle_pattern(r: int) -> list[int]:
    pattern = [(i % 3) + 1 for i in range(r - r % 3)]
    if r % 3 == 1:
        pattern.append(4)
    elif r % 3 == 2:
        pattern.extend((4, 5))
    return pattern


def _color_edge(cmat: list[list[int]], adjacency: list[list[int]], a: int, b: int, c: int) -> None:
    """Color edge ab with c in the matrix and add it to the sorted colored
    adjacency, which keeps the path searches in ascending order."""
    cmat[a][b] = cmat[b][a] = c
    insort(adjacency[a], b)
    insort(adjacency[b], a)


def _anchored_proper_path(
    adjacency: list[list[int]],
    cmat: list[list[int]],
    anchors: dict[int, AnchorSet],
    u: int,
    v: int,
) -> Optional[tuple[int, ...]]:
    """Window-proper u-v path whose first two edges follow one of u's anchor
    paths and whose last two match one of v's, searched by ascending DFS.
    Every anchor path is colored before its anchor is made, so each prefix
    (u, w1, w2) already has both colors."""
    end_ok = {(p[1], p[2]) for p in anchors[v].paths}
    for _, w1, w2 in anchors[u].paths:
        if w1 == v or (w2 == v and (w1, u) not in end_ok):
            continue
        if w2 == v:
            return (u, w1, v)
        prefix_colors = [cmat[u][w1], cmat[w1][w2]]
        for path in _proper_paths(adjacency, cmat, (u, w1, w2), prefix_colors, v, 2):
            if (path[-2], path[-3]) in end_ok:
                return path
    return None


def _near_window_colors(w_path: list[int], idx: int, cmat: list[list[int]]) -> set[int]:
    """Colors already placed on the edges at distance <= 2 positions from
    edge idx along the working path."""
    out = set()
    for j in (idx - 2, idx - 1, idx + 1, idx + 2):
        if 0 <= j < len(w_path) - 1:
            c = cmat[w_path[j]][w_path[j + 1]]
            if c:
                out.add(c)
    return out


def _color_ear(
    cmat: list[list[int]],
    anchors: dict[int, AnchorSet],
    adjacency: list[list[int]],
    ear_index: int,
    u: int,
    interior: list[int],
    v: int,
) -> dict[int, AnchorSet]:
    """Color one ear attached at (u, v) straight into ``cmat`` and
    ``adjacency``; returns the anchor sets for the interior vertices.

    The ear shares no edge with the colored ones, so each matrix entry is
    written once and ``cmat`` holds exactly the old colors plus those this
    ear has placed so far.  Nothing reads ``adjacency`` after
    ``_anchored_proper_path``, and a raise aborts the whole coloring, so
    no half-colored ear survives.

    Raises InvariantViolation only when ``_anchored_proper_path`` finds no
    path, and then the ear has none from v to u either, so one orientation
    is all there is to try.  While every anchor set spans at most 4 colors,
    as ``color_2connected`` checks, each ``_lowest`` call has more
    candidates than exclusions: palette calls exclude at most 4 of 5 colors,
    the 3 distinct candidates {cmat[x][v], c_vv1, c_vv2} meet at most 2,
    and the pinned edge's 2 meet 1.  Each new AnchorSet has distinct
    vertices, as the ear is open and the search never takes w1 == v.  Each
    anchor path is proper: its edges follow each other on the base cycle,
    or on an ear extended by an anchor path at each end, and there adjacent
    colors differ, except that a p=1 ear's start edge x-u may take the
    color of x-v, a pair that no anchor path holds.  So the search, exhaustive for each anchor prefix, finds
    exactly the window-proper paths that start along an anchor path of u
    and end along one of v; its cases ``w2 == v`` and ``w1 == v`` mirror
    each other, and reversal maps these paths onto those from v to u.
    """
    found = _anchored_proper_path(adjacency, cmat, anchors, u, v)
    if found is None:
        raise InvariantViolation(
            f"ear {ear_index}: no anchored window-proper path between {u} and {v}"
        )
    w1, w2 = found[1], found[2]
    v1, v2 = anchors[v].incident_neighbors()
    f_pv = anchors[v].edge_colors(cmat)
    c_vv1, c_vv2 = cmat[v][v1], cmat[v][v2]
    c_uw1, c_w1w2 = cmat[u][w1], cmat[w1][w2]
    p = len(interior)
    ctx = f"ear {ear_index} (p={p})"
    palette = range(1, 6)
    if p == 1:
        x = interior[0]
        _color_edge(cmat, adjacency, x, v, _lowest(palette, f_pv, f"{ctx} end edge"))
        if c_vv1 == c_vv2:
            c = _lowest(palette, {c_w1w2, c_uw1}, f"{ctx} start edge")
        else:
            c = _lowest({cmat[x][v], c_vv1, c_vv2}, {c_w1w2, c_uw1}, f"{ctx} start edge")
        _color_edge(cmat, adjacency, x, u, c)
        new_anchors = {x: AnchorSet(x, ((x, u, w1), (x, v, v1), (x, v, v2)))}
    else:
        w_path = [w2, w1, u] + interior + [v]
        last, second_last = interior[-1], interior[-2]
        _color_edge(cmat, adjacency, last, v, _lowest(palette, f_pv, f"{ctx} end edge"))
        if c_vv1 == c_vv2:
            c = _lowest(palette, {cmat[last][v], c_vv1}, f"{ctx} next-to-end edge")
            _color_edge(cmat, adjacency, second_last, last, c)
            for idx in range(p, 1, -1):
                c = _lowest(palette, _near_window_colors(w_path, idx, cmat), f"{ctx} edge {idx}")
                _color_edge(cmat, adjacency, w_path[idx], w_path[idx + 1], c)
        elif p == 2:
            near_v = {cmat[last][v], c_vv1, c_vv2}
            c = _lowest(near_v, {c_uw1, c_w1w2}, f"{ctx} start edge")
            _color_edge(cmat, adjacency, u, interior[0], c)
            c = _lowest(palette, near_v | {c_uw1}, f"{ctx} middle edge")
            _color_edge(cmat, adjacency, interior[0], interior[1], c)
        else:
            c = _lowest({c_vv1, c_vv2}, {c_uw1}, f"{ctx} pinned edge")
            _color_edge(cmat, adjacency, interior[-3], interior[-2], c)
            for idx in range(2, p):
                c = _lowest(palette, _near_window_colors(w_path, idx, cmat), f"{ctx} edge {idx}")
                _color_edge(cmat, adjacency, w_path[idx], w_path[idx + 1], c)
            near = {
                cmat[last][v],
                c_vv1,
                c_vv2,
                cmat[interior[-3]][interior[-2]],
                cmat[w_path[p - 1]][w_path[p]],
            }
            c = _lowest(palette, near, f"{ctx} next-to-end edge")
            _color_edge(cmat, adjacency, second_last, last, c)
        new_anchors = {}
        x2 = interior[0]
        new_anchors[x2] = AnchorSet(x2, ((x2, u, w1), (x2, w_path[4], w_path[5])))
        for i in range(1, p - 1):
            x = interior[i]
            widx = i + 3
            new_anchors[x] = AnchorSet(
                x,
                (
                    (x, w_path[widx - 1], w_path[widx - 2]),
                    (x, w_path[widx + 1], w_path[widx + 2]),
                ),
            )
        new_anchors[last] = AnchorSet(
            last, ((last, second_last, w_path[p]), (last, v, v1), (last, v, v2))
        )
    return new_anchors


def color_2connected(g: Graph) -> ConstructionReport:
    """At most 5 colors for a 2-connected graph (window fixed at 2).

    Pipeline: reduce to a minimally 2-connected spanning subgraph, take an
    ear decomposition, color the base cycle 1,2,3,... with 4 (and 5) on the
    one or two leftover edges, then color each ear so the walk from the
    chosen anchor of one endpoint through the ear stays window-proper while
    each vertex keeps an anchor set spanning at most 4 colors.  Remaining
    edges of the input get color 1, and the result must pass
    ``first_failing_pair``.  Ears are colored from ear[0] to ear[-1] only.

    The n x n matrix ``cmat`` is the only color store, and each ear is
    colored straight into it.  After an ear only its new anchors are
    checked: every anchor-path edge is colored before its anchor is made
    and no entry is written twice, so an old anchor's palette never
    changes; interior vertices are new, so no anchor is replaced; and a
    base-cycle anchor has only 4 edges.
    """
    if not is_2_connected(g):
        raise ValueError("coloring requires a 2-connected graph")
    reduced = minimally_2connected_spanning(g)
    decomp = ear_decomposition(reduced)
    cyc = list(decomp.base_cycle)
    r = len(cyc)
    # cmat is the only color store (0: uncolored); adjacency lists the
    # colored edges, sorted.
    cmat = [[0] * g.n for _ in range(g.n)]
    adjacency: list[list[int]] = [[] for _ in range(g.n)]
    for i, c in enumerate(_base_cycle_pattern(r)):
        _color_edge(cmat, adjacency, cyc[i], cyc[(i + 1) % r], c)
    anchors: dict[int, AnchorSet] = {}
    for i, x in enumerate(cyc):
        anchors[x] = AnchorSet(
            x,
            (
                (x, cyc[(i - 1) % r], cyc[(i - 2) % r]),
                (x, cyc[(i + 1) % r], cyc[(i + 2) % r]),
            ),
        )

    for ear_index, ear in enumerate(decomp.ears):
        new_anchors = _color_ear(
            cmat, anchors, adjacency, ear_index, ear[0], list(ear[1:-1]), ear[-1]
        )
        for x, anchor in new_anchors.items():
            palette = anchor.edge_colors(cmat)
            if len(palette) > 4:
                raise InvariantViolation(
                    f"after ear {ear_index}: anchor at {x} spans {len(palette)} colors"
                )
        anchors.update(new_anchors)

    coloring = EdgeColoring({(a, b): cmat[a][b] or 1 for a, b in g.edges})
    failing = first_failing_pair(g, coloring, 2)
    if failing is not None:
        raise InvariantViolation(f"2-connected coloring failed verification at pair {failing}")
    return ConstructionReport(
        coloring,
        5,
        "two_connected",
        f"reduced to {reduced.m} edges, base cycle {r}, {len(decomp.ears)} ears",
        verified=True,
    )


# ---------------------------------------------------------------------------
# permutation graphs
# ---------------------------------------------------------------------------


def color_permutation_graph(
    g: Graph, ham_path: Sequence[int], alpha: Permutation, ell: int
) -> ConstructionReport:
    """Coloring of the permutation graph of a traceable graph.

    The Hamiltonian path fixes position labels v_1..v_n; in those terms the
    matching permutes positions.  If the matching sends the last position to
    an end, the whole graph is traceable; otherwise the base path cycles
    ell+1 colors, the copy path continues that cyclic run outward from the
    matched split vertex in both directions, and each remaining matching
    edge repeats the color of the path edge before it.  The output is
    verified before returning.
    """
    ell = _validate_window(ell)
    _check_hamiltonian_path(g, ham_path)
    if len(alpha) != g.n:
        raise ValueError("permutation length must match the vertex count")
    n = g.n
    pg = permutation_graph(g, alpha)
    pos = {vertex: j for j, vertex in enumerate(ham_path)}

    def sigma(j: int) -> int:
        # position permutation induced by alpha under the path labeling
        return pos[alpha(ham_path[j - 1] + 1) - 1] + 1

    def v_label(j: int) -> int:
        return ham_path[j - 1]

    def u_label(j: int) -> int:
        return n + ham_path[j - 1]

    if sigma(n) in (1, n):
        copy_positions = range(n, 0, -1) if sigma(n) == n else range(1, n + 1)
        combined = [v_label(j) for j in range(1, n + 1)]
        combined += [u_label(j) for j in copy_positions]
        base = color_traceable(pg, combined, ell)
        return ConstructionReport(
            base.coloring, ell + 1, "permutation", "traceable: matching ends at a path end"
        )

    span = ell + 1
    i = sigma(n)
    colors: dict[Edge, int] = {e: 1 for e in pg.edges}

    def cyc(position: int) -> int:
        # color of the edge at 1-indexed position along a cyclic run
        return ((position - 1) % span) + 1

    for j in range(1, n):
        colors[normalize_edge(v_label(j), v_label(j + 1))] = cyc(j)
    colors[normalize_edge(v_label(n), u_label(i))] = cyc(n)
    for step, j in enumerate(range(i - 1, 0, -1), start=1):
        colors[normalize_edge(u_label(j + 1), u_label(j))] = cyc(n + step)
    for step, j in enumerate(range(i + 1, n + 1), start=1):
        colors[normalize_edge(u_label(j - 1), u_label(j))] = cyc(n + step)
    colors[normalize_edge(u_label(sigma(1)), v_label(1))] = span
    for j in range(2, n):
        colors[normalize_edge(v_label(j), u_label(sigma(j)))] = cyc(j - 1)
    coloring = EdgeColoring(colors, num_colors=span)
    failing = first_failing_pair(pg, coloring, ell)
    if failing is not None:
        raise InvariantViolation(
            f"permutation-graph coloring failed verification at pair {failing}"
        )
    return ConstructionReport(
        coloring, span, "permutation", f"split position {i} of {n}", verified=True
    )
