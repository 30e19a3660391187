import functools
import hashlib
import itertools
import random
import time
import types

import pytest

from pcc.construct import (
    color_complete_bipartite,
    color_complete_multipartite,
    color_hypercube,
    color_wheel,
)
import pcc.exact
from pcc.exact import (
    ExactResult,
    Inconclusive,
    SearchBudget,
    _edge_permutations,
    _incident_edges,
    _level_bound,
    _LexLeader,
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
    complete_multipartite_graph,
    cycle_graph,
    hypercube_graph,
    join,
    path_graph,
    random_2connected,
    random_tree,
    star_graph,
    wheel_graph,
)
from pcc.structure import automorphism_generators, distances, twin_swaps
from pcc.verify import _color_matrix, first_failing_pair, verify_coloring

from oracles import (
    all_simple_paths,
    brute_force_max_subtree,
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


@pytest.mark.parametrize("field, value", [
    ("max_colors", 2.5), ("max_colors", True), ("max_colors", "3"), ("max_colors", 0),
    ("max_edges", True), ("max_edges", 18.0), ("max_edges", 0),
])
def test_budget_counts_must_be_ints(field, value):
    # A float would crash inside range and a bool would run as 1.
    with pytest.raises(ValueError, match=f"{field} must be an int >= 1, got {value!r}"):
        SearchBudget(**{field: value})


def test_window_must_be_an_int():
    # A float window is refused, not searched as its floor.
    for ell in (2.5, 2.0):
        with pytest.raises(ValueError, match=f"window parameter must be an int >= 1, got {ell}"):
            min_colors_exact(wheel_graph(5), ell)
        with pytest.raises(ValueError, match="window parameter"):
            prove_lower_bound(wheel_graph(5), ell, 2)


def test_nan_time_limit_is_rejected():
    with pytest.raises(ValueError, match="time_limit must be positive, got nan"):
        SearchBudget(time_limit=float("nan"))


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


@functools.cache
def _plain_corpus():
    """50 seeded random connected graphs with at most 10 edges, then W_5,
    K_2,4 and C_7: the graphs whose searches plain enumeration checks."""
    rng = random.Random(29)
    graphs = []
    while len(graphs) < 50:
        g = random_connected_graph(rng.randint(3, 7), rng, extra=rng.choice((0.1, 0.3)))
        if g.m <= 10:
            graphs.append(g)
    return tuple(graphs) + (wheel_graph(5), complete_bipartite_graph(2, 4), cycle_graph(7))


@functools.cache
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
    for g in _plain_corpus():
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
    # assignments and every ordered pair, adjacent pairs included.  Given
    # several targets, it gives the least of their prefixes.
    rng = random.Random(37)
    compared = several = 0
    for _ in range(60):
        g = random_connected_graph(rng.randint(2, 8), rng, extra=rng.choice((0.1, 0.3)))
        incident = _incident_edges(g)
        for _ in range(3):
            t, ell = rng.randint(1, 4), rng.randint(1, 3)
            assignment = tuple(rng.randint(1, t) for _ in range(g.m))
            prefixes = {}
            for u, v in itertools.permutations(range(g.n), 2):
                p = g.m
                while p > 1 and not relaxed_walk_exists(incident, assignment, p - 1, t, u, v, ell):
                    p -= 1
                assert _refuting_prefix(incident, assignment, t, u, (v,), ell) == p, (
                    g.edges, assignment, t, u, v, ell)
                prefixes[u, v] = p
                compared += 1
            # Several targets at once: the least of their own prefixes.
            for _ in range(g.n):
                u = rng.randrange(g.n)
                others = [v for v in range(g.n) if v != u]
                if not others:
                    continue
                targets = rng.sample(others, rng.randint(1, len(others)))
                assert _refuting_prefix(incident, assignment, t, u, targets, ell) == min(
                    prefixes[u, v] for v in targets), (g.edges, assignment, t, u, targets, ell)
                several += len(targets) > 1
    # 4,440 pairs, and 680 target sets of more than one.
    assert compared > 3000 and several > 600, (compared, several)


def test_search_decides_past_the_default_edge_cap():
    # W_16 has 32 edges and Q_4 has 32; both lie beyond the default cap of 18.
    budget = SearchBudget(max_edges=32)
    assert prove_lower_bound(wheel_graph(16), 2, 2, budget) is True
    r = min_colors_exact(hypercube_graph(4), 3, budget)
    assert r.min_colors == 4
    assert r.min_colors == len(color_hypercube(4, 3).coloring.used_colors())
    r = min_colors_exact(hypercube_graph(4), 2, budget)
    assert r.min_colors == 3
    assert r.min_colors == len(color_hypercube(4, 2).coloring.used_colors())


def test_sparse_graph_without_symmetry_decides_at_window_three_within_three_seconds():
    # No automorphism prunes this graph, so every block it skips is a
    # refutation's; backjumping on the least prefix of every target the
    # failing source cuts off decides it in well under the cap.
    g = random_2connected(12, 17, 99)
    r = min_colors_exact(g, 3, SearchBudget(max_edges=32, time_limit=3))
    assert isinstance(r, ExactResult), r
    assert (r.min_colors, r.exhausted_levels, r.colorings_examined) == (4, (1, 2, 3), 22150789)
    assert verify_coloring(g, r.witness, 3).ok


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


def test_symmetric_skips_honour_the_deadline():
    # The deadline is read on skipped colorings and inside the group
    # search, so neither a run of symmetric skips nor the group search
    # outlives the budget.
    start = time.perf_counter()
    r = min_colors_exact(hypercube_graph(4), 2, SearchBudget(max_edges=32, time_limit=0.05))
    assert time.perf_counter() - start < 1.0
    assert isinstance(r, Inconclusive)
    assert r.reason == "time limit"


def _canonical_completions(prefix, m):
    # Every canonical coloring of m edges that starts with ``prefix``.
    if len(prefix) == m:
        yield prefix
        return
    for c in range(1, max(prefix, default=0) + 2):
        yield from _canonical_completions(prefix + (c,), m)


def _odometer_reports(colorings, first, c):
    # What the odometer reports on c when a test object sees the colorings
    # from colorings[first] on in order: the first edge at which c differs
    # from the coloring before it (0 for the first one seen), and the number
    # of colors among each prefix of c.
    k = colorings.index(c)
    before = colorings[k - 1] if k > first else ()
    changed = next((i for i, (a, b) in enumerate(zip(c, before)) if a != b), 0)
    return changed, [0, *itertools.accumulate(c, max)]


def test_odometer_reports_the_changed_edge_and_the_prefix_counts():
    # Through every canonical coloring with m <= 6, and on random runs that
    # mix plain steps with send(p) jumps, the odometer reports the common
    # prefix with the coloring it yielded before (0 for the first) and the
    # colors used by each prefix, and yields what canonical_colorings does.
    rng = random.Random(67)
    checked = jumps = 0
    for m in range(1, 7):
        for t in range(1, m + 1):
            for run in range(10):
                odometer = pcc.exact._Odometer(m, t)
                colorings = iter(odometer)
                plain = canonical_colorings(m, t)
                before, p = (), None
                while True:
                    try:
                        c = colorings.send(p)
                    except StopIteration:
                        c = None
                    try:
                        expect = plain.send(p)
                    except StopIteration:
                        expect = None
                    assert c == expect, (m, t, before, p)
                    if c is None:
                        break
                    changed = next((i for i, (a, b) in enumerate(zip(c, before)) if a != b), 0)
                    assert odometer.changed == changed, (m, t, before, p, c)
                    assert odometer.used == [0, *itertools.accumulate(c, max)], (m, t, c)
                    checked += 1
                    before = c
                    p = rng.randint(1, m) if run and rng.random() < 0.5 else None
                    jumps += p is not None
    # 866 colorings checked and 301 jumps sent; run 0 of each (m, t) steps
    # through all 278 canonical colorings with m <= 6.
    assert checked > 800 and jumps > 250, (checked, jumps)


def test_lex_leader_skip_holds_for_every_completion():
    # For every twin swap and group permutation of small random graphs: a
    # returned prefix p means every canonical completion of c[:p] has a
    # smaller canonical image; None means c <= canon(c o sigma).  One test
    # object per permutation sees a run of colorings in canonical order, so
    # the verdicts it carries from one coloring to the next are tested too.
    rng = random.Random(43)
    skipped = kept = 0
    for _ in range(150):
        g = random_connected_graph(rng.randint(3, 6), rng, extra=rng.choice((0.2, 0.5)))
        if g.m > 8:
            continue
        maps = twin_swaps(g) + automorphism_generators(g)
        for perm in _edge_permutations(g, maps):
            sigma = perm[1]
            lex = _LexLeader([perm])
            t = rng.randint(1, g.m)
            colorings = list(canonical_colorings(g.m, t))
            first = rng.randrange(len(colorings))
            for c in colorings[first:first + 40]:
                p = lex.skip(c, *_odometer_reports(colorings, first, c))
                if p is None:
                    kept += 1
                    assert c <= canonical_form(tuple(c[j] for j in sigma)), (g.edges, sigma, c)
                    continue
                skipped += 1
                for d in _canonical_completions(c[:p], g.m):
                    assert canonical_form(tuple(d[j] for j in sigma)) < d, (g.edges, sigma, c, p, d)
    assert skipped > 800 and kept > 800


def test_plain_enumeration_corpus_runs_both_symmetry_sources(monkeypatch):
    # The corpus of test_pruned_search_matches_plain_enumeration exercises
    # the twin swaps and the deferred group: count the searches in which
    # each one found any automorphism.
    used = {"twins": 0, "group": 0}

    def counted(name, find):
        def wrapper(*args):
            maps = find(*args)
            used[name] += bool(maps)
            return maps
        return wrapper

    monkeypatch.setattr(pcc.exact, "twin_swaps", counted("twins", twin_swaps))
    monkeypatch.setattr(pcc.exact, "automorphism_generators",
                        counted("group", automorphism_generators))
    for g in _plain_corpus():
        for ell in (1, 2, 3):
            min_colors_exact(g, ell)
    # 123 and 10 of the 159 searches.
    assert used["twins"] > 100 and used["group"] > 5, used


def _join_7():
    """K_1 + H for a 7-vertex H, with the dominating vertex last (label 7).
    Its level 2 is empty but passes every test of the level bound, so the
    search walks it to the end, past its n*m = 104th visit, where the
    group search runs."""
    return join(Graph(7, [(0, 6), (1, 2), (2, 3), (2, 5), (3, 4), (4, 6)]), path_graph(1))


def test_deadline_trip_counts_on_a_ticking_clock(monkeypatch):
    # A clock that moves one second per read; the budget starts at 0.  The
    # read before the first level takes 1, and the level bound claims the
    # levels below 2 of the join and below 3 of W_16 with no read, so the
    # first visit reads 2.  Against 1.5 s that read trips.  Against 2.5 s
    # the next read trips: on the join the group search at visit n*m = 104
    # reads 3 and the search 4; on W_16 (n*m = 544) visit 513 reads 3.
    # colorings_examined counts the claimed levels' S(m, t) colorings, 1 on
    # the join and 1 + (2^31 - 1) on W_16, plus the rank + 1 of the
    # tripping coloring: 0 + 1, 2047 + 1 and 2863 + 1.
    def ticking():
        ticks = itertools.count()
        return types.SimpleNamespace(monotonic=lambda: float(next(ticks)))

    monkeypatch.setattr(pcc.verify, "time", ticking())
    r = min_colors_exact(_join_7(), 2, SearchBudget(time_limit=1.5))
    assert r == Inconclusive((1,), 2, "time limit")
    monkeypatch.setattr(pcc.verify, "time", ticking())
    r = min_colors_exact(_join_7(), 2, SearchBudget(time_limit=2.5))
    assert r == Inconclusive((1,), 2049, "time limit")
    monkeypatch.setattr(pcc.verify, "time", ticking())
    r = min_colors_exact(wheel_graph(16), 2, SearchBudget(max_edges=32, time_limit=2.5))
    assert r == Inconclusive((1, 2), 2147486512, "time limit")


def _visit_trace_corpus():
    """(graph, ell, budget) of 315 seeded searches: random 2-connected graphs
    and random trees on 5-9 vertices and W_4-W_7, each at l = 1-3, then Q_3
    and K_2,5 at l=2 and the lower bound pc_{1,2}(W_8) > 2."""
    rng = random.Random(61)
    budget = SearchBudget(max_edges=32)
    graphs = []
    for _ in range(50):
        n = rng.randint(5, 9)
        graphs.append(random_2connected(n, None, rng.randrange(10**6)))
        graphs.append(random_tree(n, rng.randrange(10**6)))
    graphs += [wheel_graph(rim) for rim in range(4, 8)]
    searches = [(g, ell, budget) for g in graphs for ell in (1, 2, 3)]
    searches += [(hypercube_graph(3), 2, budget), (complete_bipartite_graph(2, 5), 2, budget),
                 (wheel_graph(8), 2, SearchBudget(max_edges=32, max_colors=2))]
    return searches


def _outputs(r):
    if isinstance(r, ExactResult):
        return (r.min_colors, sorted(r.witness.colors.items()), r.exhausted_levels,
                r.colorings_examined)
    return (r.exhausted_levels, r.colorings_examined, r.reason)


def test_visit_trace_is_pinned(monkeypatch):
    # Each search's sequence of lex-leader skip results, failing sources
    # with their cut-off targets and refuting prefixes, with its outputs,
    # hashed with SHA-256; the pin is the SHA-256 of those digests in corpus
    # order.  It was recorded when the short-path rules joined the level
    # bound.  They claim level 2 of 20 searches, whose bound rose from 2 to
    # 3: the 2-connected graphs 1, 4, 22, 33, 41, 43, 44 and 47 at l=2 and
    # l=3 (two vertices with no common neighbour, which the two sweeps
    # missed), W_7 at l=2 and l=3 (an odd cycle of must-differ links), K_2,5
    # at l=2 (five twins with two neighbours) and the W_8 lower bound (an
    # odd cycle).  That dropped the 1,843 events of level 2 of those
    # searches, 19,477 -> 17,636, and nothing else, except in W_7 at l=2
    # and l=3: level 3 now ends before the n*m-th visit, so its lex-leader
    # test has no group generators (W_7 has no twins), and its 35 and 18
    # events became 35 and 20 (graphs numbered from 0 within their kind).
    events = []

    def recording(kind, fn):
        def wrapper(*args):
            out = fn(*args)
            events.append((kind, out))
            return out
        return wrapper

    monkeypatch.setattr(pcc.exact._LexLeader, "skip", recording("skip", pcc.exact._LexLeader.skip))
    monkeypatch.setattr(pcc.exact, "_failing_source",
                        recording("source", pcc.exact._failing_source))
    monkeypatch.setattr(pcc.exact, "_refuting_prefix", recording("prefix", pcc.exact._refuting_prefix))
    digests = []
    total = 0
    for g, ell, budget in _visit_trace_corpus():
        events.clear()
        r = min_colors_exact(g, ell, budget)
        text = repr((events, _outputs(r)))
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        total += len(events)
    assert len(digests) == 315
    assert isinstance(r, Inconclusive) and r.exhausted_levels == (1, 2)
    pin = (total, hashlib.sha256("".join(digests).encode()).hexdigest())
    assert pin == (17636, "7ff1a707113bce80c53d51414ab3e8cc8c27b03a46ce3839b65db6ae74802676")


def test_exact_outputs_are_pinned():
    # Only the outputs of each search, not the colorings it visits: a change
    # to how the search skips blocks must keep this pin as it is.
    digest = hashlib.sha256()
    for g, ell, budget in _visit_trace_corpus():
        digest.update(repr(_outputs(min_colors_exact(g, ell, budget))).encode())
    assert digest.hexdigest() == "574ffccd30253ca09bc8e4488813302dd8bed7debe754a2acd92502082ae4172"


def test_each_verification_reads_the_matrix_of_the_coloring_it_checks(monkeypatch):
    # min_colors_exact writes each coloring that passes the lex-leader test
    # into its color matrix before the decision scan reads it.  At every
    # verification the matrix must be that of the coloring skip last saw,
    # however many colorings were skipped since the one verified before: a
    # write from only the edge the odometer reports changed on this visit
    # leaves edges stale and fails here.
    seen, verified = [], []
    real_skip, real_scan = pcc.exact._LexLeader.skip, pcc.exact._failing_source

    def skip(self, assignment, changed, used):
        seen[:] = [assignment]
        return real_skip(self, assignment, changed, used)

    def scan(adjacency, cmat, n, ell):
        assert cmat == _color_matrix(g, EdgeColoring(dict(zip(g.edges, seen[0])))), g.edges
        verified.append(seen[0])
        return real_scan(adjacency, cmat, n, ell)

    monkeypatch.setattr(pcc.exact._LexLeader, "skip", skip)
    monkeypatch.setattr(pcc.exact, "_failing_source", scan)
    for g, ell, budget in random.Random(67).sample(_visit_trace_corpus(), 100):
        min_colors_exact(g, ell, budget)
    assert len(verified) >= 1000, len(verified)


def _counted_scans(monkeypatch):
    scans = []
    real_scan = pcc.exact._failing_source

    def counted(*args):
        scans.append(args[2])
        return real_scan(*args)

    monkeypatch.setattr(pcc.exact, "_failing_source", counted)
    return scans


def test_join_lower_bound_scans_are_pinned(monkeypatch):
    # The join's level 2 is walked to the end in input edge order, with its
    # dominating vertex last: 122 decision scans.
    scans = _counted_scans(monkeypatch)
    assert prove_lower_bound(_join_7(), 2, 2) is True
    assert len(scans) == 122


def test_level_bound_proves_the_wheel_lower_bound_without_a_scan(monkeypatch):
    # pc_{1,2}(W_8) > 2: the must-differ links of W_8's spokes form an odd
    # cycle, so the level bound claims levels 1 and 2 and nothing is walked.
    # A walk of level 2 takes 250 decision scans.
    scans = _counted_scans(monkeypatch)
    assert prove_lower_bound(wheel_graph(8), 2, 2) is True
    assert scans == []


def _hub_at(g, hub, where):
    """g relabelled so that its dominating vertex ``hub`` gets label
    ``where`` and the other vertices keep their order."""
    rest = [v for v in range(g.n) if v != hub]
    order = rest[:where] + [hub] + rest[where:]
    label = [0] * g.n
    for new, v in enumerate(order):
        label[v] = new
    return Graph(g.n, [(label[a], label[b]) for a, b in g.edges])


@pytest.mark.parametrize("g, ell, examined", [
    (_join_7(), 2, (4575, 4118, 4118)),
    (join(path_graph(8), path_graph(1)), 2, (16620, 17408, 19843)),
], ids=["join_7", "fan_8"])
def test_hub_position_changes_no_answer(g, ell, examined):
    # The dominating vertex at label 0, at a middle label and at the last
    # label: the same minimum and exhausted levels, and each witness
    # verifies.  colorings_examined depends on the labels, since the
    # witness's rank follows the edge order, so each count is pinned.
    hub = g.n - 1
    assert g.degree(hub) == g.n - 1
    outcomes = set()
    for where, count in zip((0, g.n // 2, g.n - 1), examined):
        h = _hub_at(g, hub, where)
        r = min_colors_exact(h, ell)
        assert isinstance(r, ExactResult), r
        assert verify_coloring(h, r.witness, ell).ok
        assert r.colorings_examined == count, where
        outcomes.add((r.min_colors, r.exhausted_levels))
    assert outcomes == {(3, (1, 2))}, outcomes


def test_level_bound_is_at_most_the_plain_minimum():
    # The bound never claims a level that has a valid coloring: it is at
    # most pc_{1,l} from plain enumeration, on the corpus of
    # test_pruned_search_matches_plain_enumeration and on random trees with
    # at most 7 edges.
    graphs = list(_plain_corpus())
    graphs += [random_tree(n, seed) for n in range(2, 9) for seed in range(4)]
    claimed = 0
    for g in graphs:
        for ell in (1, 2, 3):
            bound = _level_bound(g, ell, distances(g, 0))
            assert 1 <= bound <= _plain_search(g, ell)[0], (g.edges, ell)
            claimed += bound - 1
    # 426 levels claimed, 239 of them on the corpus; the bound is the
    # minimum itself in 144 of the 159 corpus searches and all 84 on trees.
    assert claimed > 400, claimed


def test_level_bound_is_the_minimum_on_stars_paths_cycles_q3_and_trees():
    # Where the distance or bridge argument is tight, the bound is
    # pc_{1,l} itself: the search then walks only the minimal level.
    cases = [(star_graph(k), ell, k) for k in range(1, 10) for ell in (1, 2, 3)]
    cases += [(path_graph(n), ell, min(ell + 1, n - 1)) for n in range(2, 12) for ell in (1, 2, 3)]
    cases += [(cycle_graph(n), ell, ell + 1) for ell in (1, 2, 3) for n in range(2 * ell + 2, 12)]
    cases += [(hypercube_graph(3), 2, 3)]
    for g, ell, value in cases:
        assert _level_bound(g, ell, distances(g, 0)) == value, (g.edges, ell)
        assert min_colors_exact(g, ell).min_colors == value, (g.edges, ell)
    # On a tree every edge is a bridge, and pc_{1,l} is the largest
    # subtree of diameter at most l+1.
    for seed in range(40):
        t = random_tree(2 + seed % 11, seed)
        for ell in (1, 2, 3):
            value = brute_force_max_subtree(t, ell + 1)
            assert _level_bound(t, ell, distances(t, 0)) == value, (t.edges, ell)
            assert min_colors_exact(t, ell).min_colors == value, (t.edges, ell)


def test_level_bound_leaves_only_the_minimal_level_to_walk(monkeypatch):
    # Every visit is at the level of the minimum: the bound proves all the
    # levels below it empty.  Each visit calls the lex-leader test first,
    # and a canonical coloring of level t has t as its largest color.
    levels = []
    real_skip = pcc.exact._LexLeader.skip

    def skip(self, assignment, changed, used):
        levels.append(max(assignment))
        return real_skip(self, assignment, changed, used)

    monkeypatch.setattr(pcc.exact._LexLeader, "skip", skip)
    for g, value in [(star_graph(9), 9), (random_tree(19, 5), 5), (hypercube_graph(3), 3)]:
        levels.clear()
        r = min_colors_exact(g, 2)
        assert (r.min_colors, r.exhausted_levels) == (value, tuple(range(1, value))), g.edges
        assert levels and set(levels) == {value}, (g.edges, set(levels))


def test_level_bound_changes_no_output_on_the_trace_corpus(monkeypatch):
    # Each of the 315 searches gives the same result, witness, exhausted
    # levels and colorings_examined as with the bound patched to 0, under
    # which every level is walked.
    corpus = _visit_trace_corpus()
    bounded = [_outputs(min_colors_exact(*search)) for search in corpus]
    monkeypatch.setattr(pcc.exact, "_level_bound", lambda g, ell, dist: 0)
    assert [_outputs(min_colors_exact(*search)) for search in corpus] == bounded


def _bound(g, ell):
    return _level_bound(g, ell, distances(g, 0))


def test_level_bound_is_the_constructors_count_on_bipartite_graphs_wheels_and_k11n():
    # The paper's values of pc_{1,l} for K_m,n, W_n and K_1,1,n, as the
    # constructors claim them, are the level bound itself: the twin rules
    # give 3 past 2^m twins and, for l >= 3, 4 past 3^m; the must-differ
    # links of the spokes of W_n with n >= 7 form an odd cycle.
    for m in (2, 3):
        for n in range(m, 30):
            for ell in (2, 3, 4):
                claimed = color_complete_bipartite(m, n, ell).claimed_colors
                assert _bound(complete_bipartite_graph(m, n), ell) == claimed, (m, n, ell)
    for n in range(3, 17):
        for ell in (2, 3, 4):
            assert _bound(wheel_graph(n), ell) == color_wheel(n, ell).claimed_colors, (n, ell)
    for n in range(1, 30):
        for ell in (2, 3, 4):
            claimed = color_complete_multipartite((1, 1, n), ell).claimed_colors
            assert _bound(complete_multipartite_graph((1, 1, n)), ell) == claimed, (n, ell)


def test_short_path_bound_is_at_most_the_plain_minimum(monkeypatch):
    # On graphs of diameter 2 where the short-path rules raise the bound at
    # l=2, plain enumeration finds no valid coloring with fewer colors than
    # the bound: the bound is at most pc_{1,2}.  With at most 2 colors a
    # proper path has at most 2 edges for every l >= 2, so the same levels
    # are empty at every such l.  W_7, the fan P_7 + K_1 and C_5 have odd
    # cycles of must-differ links, K_2,5 and K_1,1,5 too many twins.  Among
    # the 175 seeded random graphs, 6 have an odd cycle and 6 more a pair
    # of non-adjacent vertices that the two sweeps missed.  K_2,10 at l=3
    # has ten twins with two independent neighbours, too many colorings for
    # plain enumeration; the pruned search with the bound patched to 0
    # proves its level 3 empty instead.
    graphs = [cycle_graph(5), wheel_graph(7), join(path_graph(7), path_graph(1)),
              complete_bipartite_graph(2, 5), complete_multipartite_graph((1, 1, 5))]
    rng = random.Random(71)
    for _ in range(400):
        g = random_connected_graph(rng.randint(5, 7), rng, extra=rng.choice((0.3, 0.5)))
        if g.m <= 10 and max(max(distances(g, v)) for v in range(g.n)) == 2:
            graphs.append(g)
    bounds = [_bound(g, 2) for g in graphs]
    monkeypatch.setattr(pcc.exact, "_short_path_bound", lambda g, ell, bound: bound)
    claimed = 0
    for g, bound in zip(graphs, bounds):
        raised = bound - _bound(g, 2)
        if not raised:
            continue
        claimed += raised
        for t in range(1, bound):
            for assignment in canonical_colorings(g.m, t):
                coloring = EdgeColoring(dict(zip(g.edges, assignment)))
                assert first_failing_pair(g, coloring, 2) is not None, (g.edges, assignment)
    # 18 levels claimed by the rules alone, 12 of them on the random graphs.
    assert claimed > 15, claimed
    monkeypatch.setattr(pcc.exact, "_level_bound", lambda g, ell, dist: 0)
    r = min_colors_exact(complete_bipartite_graph(2, 10), 3, SearchBudget(max_edges=20))
    assert (r.min_colors, r.exhausted_levels) == (4, (1, 2, 3))
