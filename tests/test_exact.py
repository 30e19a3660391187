import itertools
import random

import pytest

from pcc.construct import color_hypercube
from pcc.exact import (
    ExactResult,
    Inconclusive,
    SearchBudget,
    _incident_edges,
    _refuting_prefix,
    canonical_colorings,
    min_colors_exact,
    prove_lower_bound,
)
from pcc.graphs import (
    EdgeColoring,
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    path_graph,
    wheel_graph,
)
from pcc.verify import first_failing_pair, verify_coloring

from oracles import (
    all_simple_paths,
    canonical_form,
    proper_path_exists,
    random_connected_graph,
    relaxed_walk_exists,
    stirling2,
)


def test_examples():
    assert min_colors_exact(complete_graph(3), 2).min_colors == 1
    assert min_colors_exact(path_graph(4), 2).min_colors == 3
    assert min_colors_exact(cycle_graph(4), 2).min_colors == 2


def test_result_invariants():
    r = min_colors_exact(path_graph(4), 2)
    assert isinstance(r, ExactResult)
    assert r.exhausted_levels == (1, 2)
    assert len(r.witness.used_colors()) == r.min_colors
    assert verify_coloring(path_graph(4), r.witness, 2).ok


def test_requires_connected_graph():
    with pytest.raises(ValueError):
        min_colors_exact(Graph(3, [(0, 1)]), 2)


def test_canonical_counts_match_stirling():
    for m in range(1, 7):
        for t in range(1, m + 1):
            assert sum(1 for _ in canonical_colorings(m, t)) == stirling2(m, t)


def test_canonical_counts_match_direct_enumeration():
    for m in range(1, 6):
        for t in range(1, 4):
            direct = {
                canonical_form(a)
                for a in itertools.product(range(1, t + 1), repeat=m)
            }
            mine = set()
            for j in range(1, t + 1):
                mine.update(canonical_colorings(m, j))
            assert mine == direct


def test_canonical_assignments_are_canonical():
    for assignment in canonical_colorings(5, 3):
        assert canonical_form(assignment) == assignment
        assert max(assignment) == 3


def test_lower_bound_examples():
    assert prove_lower_bound(wheel_graph(7), 2, 2) is True
    assert prove_lower_bound(complete_bipartite_graph(2, 5), 2, 2) is True
    assert prove_lower_bound(complete_graph(4), 2, 1) is False


def test_budget_trips_are_inconclusive():
    big = complete_graph(7)  # 21 edges > default guard
    r = min_colors_exact(big, 2)
    assert isinstance(r, Inconclusive)
    assert "21 edges" in r.reason
    r = min_colors_exact(cycle_graph(5), 2, SearchBudget(max_colors=1))
    assert isinstance(r, Inconclusive)
    assert r.exhausted_levels == (1,)
    r = prove_lower_bound(cycle_graph(6), 2, 2, SearchBudget(time_limit=1e-9))
    assert isinstance(r, Inconclusive)
    assert r.exhausted_levels == ()


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_colors=0)
    with pytest.raises(ValueError):
        SearchBudget(time_limit=-1)


def test_monotone_in_window_small():
    rng = random.Random(3)
    for _ in range(8):
        g = random_connected_graph(rng.randint(2, 5), rng)
        values = [min_colors_exact(g, ell).min_colors for ell in (1, 2, 3)]
        assert values == sorted(values)


def test_witness_is_canonically_first():
    # the witness at the minimal level is the first valid assignment in
    # canonical order, so recomputing it straight from the generator agrees
    g = cycle_graph(5)
    r = min_colors_exact(g, 2)
    for assignment in canonical_colorings(g.m, r.min_colors):
        c = EdgeColoring(dict(zip(g.edges, assignment)))
        if verify_coloring(g, c, 2).ok:
            assert r.witness.colors == c.colors
            break


def _plain_search(g, ell):
    # Every canonical coloring, level by level, checked in full.
    examined = 0
    exhausted = []
    for t in range(1, g.m + 1):
        for assignment in canonical_colorings(g.m, t):
            examined += 1
            coloring = EdgeColoring(dict(zip(g.edges, assignment)))
            if first_failing_pair(g, coloring, ell) is None:
                return t, tuple(exhausted), coloring.colors, examined
        exhausted.append(t)
    raise AssertionError("the all-distinct coloring is always valid")


def test_pruned_search_matches_plain_enumeration():
    rng = random.Random(29)
    graphs = []
    while len(graphs) < 50:
        g = random_connected_graph(rng.randint(3, 7), rng, extra=rng.choice((0.1, 0.3)))
        if g.m <= 10:
            graphs.append(g)
    graphs += [wheel_graph(5), complete_bipartite_graph(2, 4), cycle_graph(7)]
    for g in graphs:
        for ell in (1, 2, 3):
            r = min_colors_exact(g, ell)
            got = (r.min_colors, r.exhausted_levels, r.witness.colors, r.colorings_examined)
            assert got == _plain_search(g, ell), (g.edges, ell)


def test_relaxed_refutation_holds_for_every_completion():
    # Whenever the relaxed search finds no walk from u to v under a prefix,
    # no completion of that prefix, canonical or not, has a proper u-v path.
    rng = random.Random(31)
    refuted = 0
    for _ in range(80):
        g = random_connected_graph(rng.randint(4, 7), rng, extra=0.25)
        if g.m > 8:
            continue
        incident = _incident_edges(g)
        paths = {pair: all_simple_paths(g, *pair) for pair in itertools.combinations(range(g.n), 2)}
        for _ in range(6):
            t, ell = rng.randint(1, 3), rng.randint(1, 3)
            assignment = tuple(rng.randint(1, t) for _ in range(g.m))
            p = rng.randint(0, g.m - 1)
            for (u, v), uv_paths in paths.items():
                if relaxed_walk_exists(incident, assignment, p, t, u, v, ell):
                    continue
                refuted += 1
                for rest in itertools.product(range(1, t + 1), repeat=g.m - p):
                    coloring = EdgeColoring(dict(zip(g.edges, assignment[:p] + rest)))
                    assert not proper_path_exists(g, coloring, u, v, ell, uv_paths)
    assert refuted > 500


def test_refuting_prefix_matches_linear_rescan():
    # The incremental search gives the prefix that rescanning the relaxed
    # search at m - 1, m - 2, ... gives, on random (not only canonical)
    # assignments and every ordered pair, adjacent pairs included.
    rng = random.Random(37)
    compared = 0
    for _ in range(60):
        g = random_connected_graph(rng.randint(2, 8), rng, extra=rng.choice((0.1, 0.3)))
        incident = _incident_edges(g)
        for _ in range(3):
            t, ell = rng.randint(1, 4), rng.randint(1, 3)
            assignment = tuple(rng.randint(1, t) for _ in range(g.m))
            for u, v in itertools.permutations(range(g.n), 2):
                p = g.m
                while p > 1 and not relaxed_walk_exists(incident, assignment, p - 1, t, u, v, ell):
                    p -= 1
                assert _refuting_prefix(incident, assignment, t, u, v, ell) == p, (
                    g.edges, assignment, t, u, v, ell)
                compared += 1
    assert compared > 3000


def test_search_decides_past_the_default_edge_cap():
    # W_16 has 32 edges and Q_4 has 32; both lie beyond the default cap of 18.
    budget = SearchBudget(max_edges=32)
    assert prove_lower_bound(wheel_graph(16), 2, 2, budget) is True
    r = min_colors_exact(hypercube_graph(4), 3, budget)
    assert r.min_colors == 4
    assert r.min_colors == len(color_hypercube(4, 3).coloring.used_colors())


def test_sending_a_prefix_skips_to_the_next_block():
    # After yielding a coloring, send(p) yields the first later coloring of
    # the plain order that differs within the first p edges.
    for m in range(1, 7):
        for t in range(1, m + 1):
            plain = list(canonical_colorings(m, t))
            for i, current in enumerate(plain):
                for p in range(1, m + 1):
                    colorings = canonical_colorings(m, t)
                    for _ in range(i + 1):
                        next(colorings)
                    expected = next((b for b in plain[i + 1:] if b[:p] != current[:p]), None)
                    try:
                        got = colorings.send(p)
                    except StopIteration:
                        got = None
                    assert got == expected, (m, t, current, p)


def test_pruned_search_honours_the_deadline():
    r = min_colors_exact(wheel_graph(8), 2, SearchBudget(time_limit=1e-9))
    assert isinstance(r, Inconclusive)
    assert r.reason == "time limit"
