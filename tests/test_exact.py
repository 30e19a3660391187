import itertools
import random

import pytest

from pcc.exact import (
    ExactResult,
    Inconclusive,
    SearchBudget,
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
    path_graph,
    wheel_graph,
)
from pcc.verify import verify_coloring

from oracles import canonical_form, random_connected_graph, stirling2


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
