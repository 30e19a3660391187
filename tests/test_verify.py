import ast
import collections
import contextlib
import hashlib
import itertools
import pathlib
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import pcc.construct
import pcc.verify
from pcc.construct import (
    color_2connected,
    color_cartesian,
    color_complete_bipartite,
    color_complete_multipartite,
    color_hypercube,
    color_traceable,
    color_tree,
    color_wheel,
)
from pcc.graphs import (
    EdgeColoring,
    Graph,
    cartesian_product,
    complete_bipartite_graph,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    double_star_graph,
    hypercube_graph,
    join,
    path_graph,
    random_2connected,
    random_tree,
    star_graph,
    wheel_graph,
)
from pcc.verify import (
    VerificationTimeout,
    _color_matrix,
    _proper_paths,
    find_distance_proper_path,
    first_failing_pair,
    is_distance_proper_path,
    verify_coloring,
)

from oracles import (
    all_simple_paths,
    disjoint_certificate,
    path_colors,
    per_source_certificate,
    proper_path_exists,
    random_coloring,
    random_connected_graph,
    shortest_proper_walks as _shortest_proper_walks,
    window_proper,
)


def _path_coloring(seq):
    """P_k colored by the given edge color sequence."""
    g = path_graph(len(seq) + 1)
    return g, EdgeColoring(dict(zip(g.edges, seq)))


def test_window_semantics_examples():
    g, c = _path_coloring([1, 2, 1])
    assert is_distance_proper_path(c, (0, 1, 2, 3), 1)
    assert not is_distance_proper_path(c, (0, 1, 2, 3), 2)
    g, c = _path_coloring([1, 2, 3, 1])
    assert is_distance_proper_path(c, (0, 1, 2, 3, 4), 2)
    assert not is_distance_proper_path(c, (0, 1, 2, 3, 4), 3)
    g, c = _path_coloring([1])
    assert is_distance_proper_path(c, (0, 1), 1)
    assert is_distance_proper_path(c, (0, 1), 99)


def test_window_one_means_adjacent_distinct():
    g, c = _path_coloring([1, 1])
    assert not is_distance_proper_path(c, (0, 1, 2), 1)


def test_path_validation_errors():
    g, c = _path_coloring([1, 2])
    with pytest.raises(ValueError):
        is_distance_proper_path(c, (0, 2), 1)  # not an edge
    with pytest.raises(ValueError):
        is_distance_proper_path(c, (0, 1, 0), 1)  # repeated vertex
    with pytest.raises(ValueError):
        is_distance_proper_path(c, (0,), 1)
    with pytest.raises(ValueError):
        is_distance_proper_path(c, (0, 1), 0)  # bad window


@given(st.lists(st.integers(1, 4), min_size=1, max_size=9), st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_window_check_matches_direct_definition(seq, ell):
    g, c = _path_coloring(seq)
    expect = window_proper(seq, ell)
    assert is_distance_proper_path(c, tuple(range(len(seq) + 1)), ell) == expect


def test_find_path_examples():
    k4 = complete_graph(4)
    mono = EdgeColoring({e: 1 for e in k4.edges})
    assert find_distance_proper_path(k4, mono, 0, 1, 2) == (0, 1)
    g, c = _path_coloring([1, 2, 1])
    assert find_distance_proper_path(g, c, 0, 3, 2) is None
    with pytest.raises(ValueError):
        find_distance_proper_path(g, c, 1, 1, 2)


def test_verify_examples():
    for n in (3, 4, 5):
        kn = complete_graph(n)
        cert = verify_coloring(kn, EdgeColoring({e: 1 for e in kn.edges}), 3)
        assert cert.ok and len(cert.witnesses) == n * (n - 1) // 2
    g, c = _path_coloring([1, 2, 1])
    cert = verify_coloring(g, c, 2)
    assert not cert.ok and cert.failing_pair == (0, 3)
    assert first_failing_pair(g, c, 2) == (0, 3)


def test_verify_requires_total_coloring():
    g = path_graph(3)
    with pytest.raises(ValueError):
        verify_coloring(g, EdgeColoring({(0, 1): 1}), 2)


def test_certificate_witnesses_are_proper():
    rng = random.Random(0)
    for _ in range(20):
        g = random_connected_graph(rng.randint(2, 6), rng)
        c = random_coloring(g, 3, rng)
        for ell in (1, 2, 3):
            cert = verify_coloring(g, c, ell)
            if cert.ok:
                for (u, v), paths in cert.witnesses.items():
                    for p in paths:
                        assert p[0] == u and p[-1] == v
                        assert is_distance_proper_path(c, p, ell)
                    if (u, v) in c.colors:
                        assert paths == ((u, v),)
                    else:
                        assert paths == (find_distance_proper_path(g, c, u, v, ell),)


def test_long_witness_needs_no_recursion():
    g = path_graph(1500)
    c = color_traceable(g, list(range(1500)), 2).coloring
    assert find_distance_proper_path(g, c, 0, 1499, 2) == tuple(range(1500))


def test_oracle_equivalence_small_graphs():
    rng = random.Random(12)
    for _ in range(25):
        g = random_connected_graph(rng.randint(2, 6), rng)
        cache = {
            (u, v): all_simple_paths(g, u, v)
            for u, v in itertools.combinations(range(g.n), 2)
        }
        for _ in range(8):
            c = random_coloring(g, rng.randint(1, 3), rng)
            for (u, v), paths in cache.items():
                for ell in (1, 2, 3):
                    found = find_distance_proper_path(g, c, u, v, ell)
                    expect = proper_path_exists(g, c, u, v, ell, paths)
                    assert (found is not None) == expect
                    if found is not None:
                        assert found in paths
                        assert window_proper(path_colors(c, found), ell)


def test_monotonicity_in_window():
    rng = random.Random(5)
    for _ in range(15):
        g = random_connected_graph(rng.randint(3, 6), rng)
        c = random_coloring(g, 3, rng)
        for ell in (3, 2):
            if verify_coloring(g, c, ell).ok:
                assert verify_coloring(g, c, ell - 1).ok


def test_color_relabeling_invariance():
    rng = random.Random(6)
    for _ in range(15):
        g = random_connected_graph(rng.randint(3, 6), rng)
        c = random_coloring(g, 3, rng)
        used = sorted(c.used_colors())
        perm = used[:]
        rng.shuffle(perm)
        relabel = dict(zip(used, perm))
        c2 = EdgeColoring({e: relabel[v] for e, v in c.colors.items()})
        for ell in (1, 2, 3):
            a = verify_coloring(g, c, ell)
            b = verify_coloring(g, c2, ell)
            assert a.ok == b.ok
            assert a.failing_pair == b.failing_pair


def test_spanning_extension_preserves_validity():
    rng = random.Random(7)
    kept = 0
    while kept < 10:
        g = random_connected_graph(rng.randint(4, 6), rng, extra=0.5)
        tree_edges = set()
        seen = {0}
        for u, v in sorted(g.edges, key=lambda e: rng.random()):
            if (u in seen) != (v in seen):
                tree_edges.add((u, v))
                seen.update((u, v))
        if len(tree_edges) < g.m:
            h = Graph(g.n, sorted(tree_edges))
            if h.m != g.n - 1:
                continue
            c = random_coloring(h, 3, rng)
            for ell in (1, 2):
                if verify_coloring(h, c, ell).ok:
                    used = sorted(c.used_colors())
                    full = dict(c.colors)
                    for e in g.edges:
                        if e not in full:
                            full[e] = used[rng.randrange(len(used))]
                    assert verify_coloring(g, EdgeColoring(full), ell).ok
                    kept += 1


def test_disjoint_witnesses_k2():
    c4 = cycle_graph(4)
    # k = 2 on a cycle forces the long way around each adjacent pair to be
    # window-proper too, so the alternating 2-coloring passes only at
    # window 1 while the rainbow coloring passes at window 2.
    alt = EdgeColoring({(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2})
    assert verify_coloring(c4, alt, 1, k=2).ok
    assert not verify_coloring(c4, alt, 2, k=2).ok
    rainbow = EdgeColoring({(0, 1): 1, (1, 2): 2, (2, 3): 3, (0, 3): 4})
    cert = verify_coloring(c4, rainbow, 2, k=2)
    assert cert.ok
    for (u, v), paths in cert.witnesses.items():
        assert len(paths) == 2
        interiors = [set(p[1:-1]) for p in paths]
        assert not (interiors[0] & interiors[1])
    k4 = complete_graph(4)
    assert not verify_coloring(k4, EdgeColoring({e: 1 for e in k4.edges}), 2, k=2).ok


def test_time_limit_raises():
    # K_9 has only adjacent pairs, each witnessed by its edge with no search,
    # so it verifies under any budget; W_9 has pairs that need a search.
    k9 = complete_graph(9)
    c = EdgeColoring({e: 1 + (i % 4) for i, e in enumerate(k9.edges)})
    assert verify_coloring(k9, c, 3, time_limit=0.0).ok
    g = wheel_graph(9)
    c = EdgeColoring({e: 1 + (i % 4) for i, e in enumerate(g.edges)})
    with pytest.raises(VerificationTimeout):
        verify_coloring(g, c, 3, time_limit=0.0)


def test_timeout_names_source_pair_and_budget():
    g = wheel_graph(9)
    c = EdgeColoring({e: 1 + (i % 4) for i, e in enumerate(g.edges)})
    with pytest.raises(VerificationTimeout, match=r"^search from vertex 0 .* 0\.0 s$"):
        verify_coloring(g, c, 3, time_limit=0.0)
    with pytest.raises(VerificationTimeout, match=r"^path search for pair \(0, 1\) .* 0\.0 s$"):
        verify_coloring(g, c, 3, k=2, time_limit=0.0)
    # A fallback names its pair.
    cmat = _color_matrix(g, c)
    with pytest.raises(VerificationTimeout, match=r"^path search for pair \(0, 4\) .* 0\.0 s$"):
        next(_proper_paths(g.adjacency, cmat, (0,), [], 4, 3, pcc.verify._Deadline(0.0)))


def _triangle_gadget(detour: bool):
    """The edges u-a and a-v (u=0, a=1, v=4) share color 1, so u-a-v is not
    proper at l=1, but the walk u-a-b-c-a-v around the triangle a, b=2, c=3
    is.  With ``detour``, the path 0-5-6-7-8-9-4, colored 2, 3, 2, 3, 2, 3
    and one edge longer than that walk, is the only proper u-v path."""
    colors = {(0, 1): 1, (1, 2): 2, (2, 3): 1, (1, 3): 3, (1, 4): 1}
    n = 5
    if detour:
        detour_path = [0, 5, 6, 7, 8, 9, 4]
        for i, (a, b) in enumerate(zip(detour_path, detour_path[1:])):
            colors[(min(a, b), max(a, b))] = 2 + i % 2
        n = 10
    g = Graph(n, colors)
    return g, EdgeColoring(colors)


def test_fallback_finds_path_behind_a_repeating_walk():
    g, c = _triangle_gadget(detour=True)
    walk = _shortest_proper_walks(g.adjacency, _color_matrix(g, c), 0, (4,), 1)[4]
    assert walk == (0, 1, 2, 3, 1, 4)
    path = find_distance_proper_path(g, c, 0, 4, 1)
    assert path == (0, 5, 6, 7, 8, 9, 4)
    cert = verify_coloring(g, c, 1)
    expect = next((p for p in itertools.combinations(range(g.n), 2)
                   if not proper_path_exists(g, c, *p, 1)), None)
    assert cert.failing_pair == expect
    assert expect is None or expect > (0, 4)
    assert cert.witnesses[(0, 4)] == (path,)


def test_fallback_refutes_when_every_walk_repeats_a_vertex():
    g, c = _triangle_gadget(detour=False)
    walk = _shortest_proper_walks(g.adjacency, _color_matrix(g, c), 0, (4,), 1)[4]
    assert walk == (0, 1, 2, 3, 1, 4)
    assert find_distance_proper_path(g, c, 0, 4, 1) is None
    assert not proper_path_exists(g, c, 0, 4, 1)
    cert = verify_coloring(g, c, 1)
    assert not cert.ok and cert.failing_pair == (0, 4)
    assert set(cert.witnesses) == {(0, 1), (0, 2), (0, 3)}
    assert first_failing_pair(g, c, 1) == (0, 4)


def test_scan_matches_oracle_on_random_graphs():
    # Sparse graphs with l+1 or l+2 colors give the most shortest proper
    # walks that repeat a vertex (the witness is then the DFS fallback's, and
    # is otherwise the walk itself); the count makes sure the fallback ran.
    rng = random.Random(21)
    fallbacks = 0
    for ell in (1, 2, 3):
        for _ in range(80):
            g = random_connected_graph(rng.randint(5, 9), rng, extra=0.2)
            c = random_coloring(g, ell + rng.randint(1, 2), rng)
            cmat = _color_matrix(g, c)
            failing = None
            # Each pair is searched from both ends: from the larger one, the
            # one-source table searches toward a smaller target.
            for u, v in itertools.permutations(range(g.n), 2):
                path = find_distance_proper_path(g, c, u, v, ell)
                assert (path is not None) == proper_path_exists(g, c, u, v, ell)
                walk = _shortest_proper_walks(g.adjacency, cmat, u, (v,), ell).get(v)
                if walk is not None and len(set(walk)) < len(walk):
                    fallbacks += 1
                elif walk != path:
                    pytest.fail(f"{(u, v)}: simple shortest walk {walk}, witness {path}")
                if path is None:
                    if u < v:
                        failing = failing or (u, v)
                    continue
                assert path[0] == u and path[-1] == v
                assert is_distance_proper_path(c, path, ell)  # raises unless simple
                assert window_proper(path_colors(c, path), ell)
            cert = verify_coloring(g, c, ell)
            assert cert.failing_pair == failing and cert.ok == (failing is None)
            assert first_failing_pair(g, c, ell) == failing
            for (u, v), paths in cert.witnesses.items():
                if (u, v) not in c.colors:
                    assert paths == (find_distance_proper_path(g, c, u, v, ell),)
    assert fallbacks > 0


def test_hypercube_six_at_window_two_decides():
    cert = verify_coloring(hypercube_graph(6), color_hypercube(6, 2).coloring, 2)
    assert cert.ok and len(cert.witnesses) == 64 * 63 // 2


def test_find_path_rejects_endpoints_outside_the_graph():
    g, c = wheel_graph(6), color_wheel(6, 2).coloring
    for u, v in ((-1, 3), (0, 99), (99, 0)):
        with pytest.raises(ValueError, match="endpoints"):
            find_distance_proper_path(g, c, u, v, 2)


def test_time_limit_must_be_a_number_at_least_zero():
    g = wheel_graph(9)
    c = EdgeColoring({e: 1 + (i % 4) for i, e in enumerate(g.edges)})
    for bad in (float("nan"), -1.0, -1e-9, True, False, "1", [1.0]):
        for k in (1, 2):
            with pytest.raises(ValueError, match="time_limit"):
                verify_coloring(g, c, 3, k=k, time_limit=bad)
    k9 = complete_graph(9)
    assert verify_coloring(k9, EdgeColoring({e: 1 for e in k9.edges}), 3, time_limit=0.0).ok


def test_first_failing_pair_checks_time_limit_as_verify_coloring_does():
    g = wheel_graph(9)
    c = EdgeColoring({e: 1 + (i % 4) for i, e in enumerate(g.edges)})
    for bad in (float("nan"), -1):
        with pytest.raises(ValueError, match=f"^time_limit must be >= 0, got {bad}$"):
            first_failing_pair(g, c, 3, time_limit=bad)
    for bad, shown in ((True, "True"), (False, "False"), ("1", "'1'")):
        with pytest.raises(ValueError, match=f"^time_limit must be a number, got {shown}$"):
            first_failing_pair(g, c, 3, time_limit=bad)
    with pytest.raises(VerificationTimeout, match=r"^search from vertex 0 .* 0\.0 s$"):
        first_failing_pair(g, c, 3, time_limit=0.0)
    k9 = complete_graph(9)
    assert first_failing_pair(k9, EdgeColoring({e: 1 for e in k9.edges}), 3, time_limit=0.0) is None


def test_window_and_k_must_be_ints():
    # A float window or k is refused with the value named, not read as its
    # floor: l = 2.9 read as 2 would certify a coloring that l = 3 refutes.
    g = cycle_graph(6)
    c = color_traceable(g, list(range(6)), 2).coloring
    for ell in (2.9, 2.0, "2", True):
        with pytest.raises(ValueError, match=f"window parameter must be an int >= 1, got {ell!r}"):
            verify_coloring(g, c, ell)
    for k in (1.5, 1.0, True):
        with pytest.raises(ValueError, match=f"k must be an int >= 1, got {k!r}"):
            verify_coloring(g, c, 2, k=k)
    for call in (
        lambda: first_failing_pair(g, c, 2.5),
        lambda: find_distance_proper_path(g, c, 0, 3, 2.5),
        lambda: is_distance_proper_path(c, (0, 1, 2), 2.5),
    ):
        with pytest.raises(ValueError, match="got 2.5"):
            call()
    assert verify_coloring(g, c, 2).ok and not verify_coloring(g, c, 3).ok


def test_disjoint_witnesses_match_combination_oracle():
    # Whole certificates for k = 2, 3 against the first interior-disjoint
    # combination of the sorted proper paths.  The graphs are Hamiltonian
    # cycles with random chords, so 2-connected; the counts make sure both
    # verdicts occur for each k, and pairs refuted after earlier pairs passed.
    rng = random.Random(31)
    verdicts = collections.Counter()
    late_failures = 0
    for _ in range(100):
        n = rng.randint(4, 7)
        order = rng.sample(range(n), n)
        edges = {tuple(sorted(e)) for e in zip(order, order[1:] + order[:1])}
        edges |= {e for e in itertools.combinations(range(n), 2) if rng.random() < 0.45}
        g = Graph(n, sorted(edges))
        c = random_coloring(g, rng.randint(3, 6), rng)
        for k in (2, 3):
            for ell in (1, 2, 3):
                cert = verify_coloring(g, c, ell, k=k)
                assert (cert.ok, cert.failing_pair, cert.witnesses) == disjoint_certificate(
                    g, c, ell, k
                )
                verdicts[k, cert.ok] += 1
                late_failures += not cert.ok and bool(cert.witnesses)
    assert len(verdicts) == 4 and min(verdicts.values()) >= 20 and late_failures >= 100


def test_k2_certificates_are_pinned():
    # SHA-256 of repr((ok, failing_pair, sorted witness items)), recorded
    # when the witnesses came from listing every proper path and picking
    # the first disjoint pair of that list.
    cases = [
        (wheel_graph(10), color_wheel(10, 2).coloring, 2,
         "5ffa8d92e75fb07244c094f61a447a208d6de710fe0800028078ab9cc734ae50"),
        (hypercube_graph(4), color_hypercube(4, 3).coloring, 3,
         "efc96308adfa5cee6c7d304bb0b0e95e21ad4e274615fb75dd812be9dcd815de"),
        (hypercube_graph(5), color_hypercube(5, 3).coloring, 3,
         "a808f60356bf2beee91e1f989832d98f040c21f4dd983487ba3f6f3e1658cc21"),
    ]
    for g, c, ell, expect in cases:
        cert = verify_coloring(g, c, ell, k=2)
        text = repr((cert.ok, cert.failing_pair, sorted(cert.witnesses.items())))
        assert hashlib.sha256(text.encode()).hexdigest() == expect


def test_hypercube_six_at_window_three_has_two_disjoint_witnesses():
    c = color_hypercube(6, 3).coloring
    cert = verify_coloring(hypercube_graph(6), c, 3, k=2)
    assert cert.ok and len(cert.witnesses) == 64 * 63 // 2
    for (u, v), (p, q) in cert.witnesses.items():
        assert p < q and p[0] == q[0] == u and p[-1] == q[-1] == v
        assert is_distance_proper_path(c, p, 3) and is_distance_proper_path(c, q, 3)
        assert not set(p[1:-1]) & set(q[1:-1])


def test_disjoint_search_levels_share_one_budget(monkeypatch):
    # A clock that ticks once per reading; the second level runs out, and
    # the timeout names the call's whole budget.
    ticks = itertools.count()
    monkeypatch.setattr(pcc.verify, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    levels = []
    proper_paths = pcc.verify._proper_paths

    def counting(*args):
        levels.append(args)
        return proper_paths(*args)

    monkeypatch.setattr(pcc.verify, "_proper_paths", counting)
    g, c = hypercube_graph(4), color_hypercube(4, 3).coloring
    with pytest.raises(VerificationTimeout) as err:
        verify_coloring(g, c, 3, k=2, time_limit=5.0)
    assert str(err.value) == "path search for pair (0, 1) exceeded the time budget of 5.0 s"
    # Every level's search gets the one deadline made on entry, at tick 0.
    assert len(levels) == 2 and levels[1][6] is levels[0][6]
    assert (levels[0][6].end, levels[0][6].budget) == (5.0, 5.0)


def test_time_limit_is_one_budget_for_the_whole_call(monkeypatch):
    # A clock that ticks once per reading.  The call reads it once on entry
    # and every search checks that one deadline, so a budget of t ticks runs
    # out at reading t + 1, however many sources or pairs came before.  A
    # budget per source or per pair would start afresh at each and certify
    # W_9 at k = 1 and k = 2.
    g, c = wheel_graph(9), color_wheel(9, 2).coloring
    assert verify_coloring(g, c, 2).ok and verify_coloring(g, c, 2, k=2).ok
    for k, time_limit, search in (
        (1, 2.0, "search from vertex 2"),
        (2, 40.0, "path search for pair (0, 5)"),
    ):
        ticks = itertools.count()
        monkeypatch.setattr(pcc.verify, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
        with pytest.raises(VerificationTimeout) as err:
            verify_coloring(g, c, 2, k=k, time_limit=time_limit)
        assert str(err.value) == f"{search} exceeded the time budget of {time_limit} s"
        assert next(ticks) == time_limit + 2


def test_time_limit_bounds_the_call_on_wall_time(monkeypatch):
    # color_cartesian's coloring of C_20 x C_20, taken with the constructor's
    # own check patched out.  The scan meets pairs whose shortest proper walk
    # repeats a vertex, and the DFS fallback on pair (11, 69) alone runs past
    # 1 s.  Budgets that restart for each source and each fallback let this
    # call run 8.4 s under time_limit=1.0 (2-CPU Xeon, Python 3.11); one
    # total budget must end it within 2 s.
    monkeypatch.setattr(pcc.construct, "first_failing_pair", lambda *args: None)
    c20 = cycle_graph(20)
    coloring = color_cartesian(c20, c20).coloring
    g = cartesian_product(c20, c20)
    start = time.monotonic()
    with contextlib.suppress(VerificationTimeout):
        verify_coloring(g, coloring, 2, time_limit=1.0)
    assert time.monotonic() - start < 2.0


def test_k1_certificates_are_pinned():
    # SHA-256 of repr((ok, failing_pair, sorted witness items)), recorded
    # when each source's pairs were decided by its own tuple-state BFS.  The
    # perturbed tree is refuted at (13, 18), so its certificate is partial.
    g40 = random_2connected(40, None, 7)
    tree = random_tree(30, 4)
    colors = dict(color_tree(tree, 2).coloring.colors)
    colors[(9, 13)] = colors[(9, 23)]
    cases = [
        (hypercube_graph(6), color_hypercube(6, 2).coloring, 2,
         "046a9fc06663c31c16c4576d16dd0dcb6169a6f40a09544d47ef11da4557512e"),
        (hypercube_graph(5), color_hypercube(5, 4).coloring, 4,
         "233e69d818e9ec5d850dfdf6c84e51f2ade5cf5f9b7688e9e25541d05bd16771"),
        (complete_bipartite_graph(4, 42), color_complete_bipartite(4, 42, 2).coloring, 2,
         "256828621064173999b83957128ca60b53ed43748f159355ff3047ea130c3509"),
        (wheel_graph(100), color_wheel(100, 2).coloring, 2,
         "cbd1342388c13a1ee63516c4adfd7456559bf3b5a25cadae7b8b10cb990fdf7c"),
        (g40, color_2connected(g40).coloring, 2,
         "3b939d46b12751c10ff1b5660f6fa8b9d2c72d3f3aff73a1ca20245f265b6c10"),
        (tree, EdgeColoring(colors), 2,
         "01c7e498baf8cb27ae81e1028d0c86e75d71d81dea1658265090e35429df1b06"),
    ]
    for g, c, ell, expect in cases:
        cert = verify_coloring(g, c, ell)
        text = repr((cert.ok, cert.failing_pair, sorted(cert.witnesses.items())))
        assert hashlib.sha256(text.encode()).hexdigest() == expect
    assert cert.failing_pair == (13, 18) and len(cert.witnesses) == 303


class _CountingSuccessors(list):
    """The per-state successor entries of a scan, counting the expansions
    that find a kept list to iterate instead of the adjacency."""

    reuses = 0

    def __getitem__(self, state):
        kept = list.__getitem__(self, state)
        if kept:
            _CountingSuccessors.reuses += 1
        return kept


def _count_reused_successor_lists(monkeypatch):
    class CountingTable(pcc.verify._WalkStateTable):
        def __init__(self, *args):
            super().__init__(*args)
            self.successors = _CountingSuccessors()

    monkeypatch.setattr(pcc.verify, "_WalkStateTable", CountingTable)
    monkeypatch.setattr(_CountingSuccessors, "reuses", 0)


def test_shared_state_scan_matches_per_source_reference(monkeypatch):
    # Whole certificates against one tuple-state search per source, on
    # 2-connected graphs whose sources share many states.  The colorings are
    # the constructor's, with 0-3 color classes merged and the colors
    # renamed to non-consecutive values; merging refutes some of them after
    # earlier sources passed.  The counts make sure kept successor lists were
    # iterated on most graphs, so the shared path is what was compared.
    _count_reused_successor_lists(monkeypatch)
    rng = random.Random(41)
    verdicts = collections.Counter()
    graphs_reusing = 0
    for _ in range(30):
        n = rng.randint(20, 60)
        g = random_2connected(n, rng.randint(n + n // 4, 2 * n), rng.randrange(10**6))
        colors = dict(color_2connected(g).coloring.colors)
        for _ in range(rng.randint(0, 3)):
            a, b = rng.sample(sorted(set(colors.values())), 2)
            colors = {e: a if x == b else x for e, x in colors.items()}
        used = sorted(set(colors.values()))
        rename = dict(zip(used, rng.sample(range(3, 90, 4), len(used))))
        c = EdgeColoring({e: rename[x] for e, x in colors.items()})
        before = _CountingSuccessors.reuses
        for ell in (1, 2, 3, 4):
            cert = verify_coloring(g, c, ell)
            assert (cert.ok, cert.failing_pair, cert.witnesses) == per_source_certificate(
                g, c, ell
            )
            verdicts[cert.ok, bool(cert.witnesses)] += 1
        graphs_reusing += _CountingSuccessors.reuses > before
    assert graphs_reusing >= 20
    assert verdicts[True, True] >= 30 and verdicts[False, True] >= 25


def test_reference_takes_only_the_color_matrix_and_the_dfs_from_the_verifier():
    # per_source_certificate checks the scans, so it must not share their
    # BFS: tests/oracles.py may take from pcc.verify only _color_matrix and
    # the DFS _proper_paths.  A plain `import pcc...` reaches every function
    # of pcc.verify, and so does `from pcc import verify`; a name taken from
    # the package counts when pcc.verify defines it.
    def from_verify(name):
        obj = getattr(pcc, name)
        return obj is pcc.verify or getattr(obj, "__module__", None) == "pcc.verify"

    source = pathlib.Path(__file__).with_name("oracles.py").read_text(encoding="utf-8")
    taken = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            taken += [a.name for a in node.names if a.name.split(".")[0] == "pcc"]
        elif isinstance(node, ast.ImportFrom) and node.module == "pcc.verify":
            taken += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "pcc":
            taken += [a.name for a in node.names if from_verify(a.name)]
    assert set(taken) <= {"_color_matrix", "_proper_paths"}, taken


def test_shared_state_scan_with_many_colors_stores_only_reached_states(monkeypatch):
    # Random colorings with 12-30 colors at l = 2-4 give many windows, most
    # of which meet few vertices: windows x n is 10-50x the states reached.
    # Whole certificates still match one tuple-state search per source, and
    # the table keeps one entry per distinct state in each per-state list.
    tables = []

    class RecordingTable(pcc.verify._WalkStateTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(pcc.verify, "_WalkStateTable", RecordingTable)
    rng = random.Random(43)
    states = slots = 0
    verdicts = collections.Counter()
    for _ in range(12):
        n = rng.randint(20, 60)
        g = random_2connected(n, rng.randint(n + n // 4, 2 * n), rng.randrange(10**6))
        top = rng.randint(12, 30)
        c = EdgeColoring({e: rng.randint(1, top) for e in g.edges})
        for ell in (2, 3, 4):
            cert = verify_coloring(g, c, ell)
            assert (cert.ok, cert.failing_pair, cert.witnesses) == per_source_certificate(
                g, c, ell
            )
            verdicts[cert.ok] += 1
            table = tables[-1]
            reached = list(zip(table.window, table.vertex))
            assert len(set(reached)) == len(reached)
            assert len(table.successors) == len(table.stamp) == len(table.pred) == len(reached)
            assert table.ids == {w * n + y: s for s, (w, y) in enumerate(reached)}
            states += len(reached)
            slots += len(table.windows) * n
    assert verdicts[True] >= 30 and slots > 20 * states


def test_shared_scan_timeout_names_a_source_iterating_kept_lists(monkeypatch):
    # A clock that ticks once per expansion that iterates a kept successor
    # list, so the budget is spent only on the shared path.  Sources 0 and 1
    # each pass three budget checks with the clock standing still: source 0
    # keeps no list and source 1 only builds them.  Source 2 is the first to
    # iterate kept lists; it runs out at its next check and is named.
    _count_reused_successor_lists(monkeypatch)
    clock = SimpleNamespace(monotonic=lambda: _CountingSuccessors.reuses)
    monkeypatch.setattr(pcc.verify, "time", clock)
    g, c = hypercube_graph(7), color_hypercube(7, 3).coloring
    with pytest.raises(VerificationTimeout) as err:
        verify_coloring(g, c, 3, time_limit=5.0)
    assert str(err.value) == "search from vertex 2 exceeded the time budget of 5.0 s"
    # A budget of 0 runs out at source 0, on its first budget check.
    ticks = itertools.count()
    monkeypatch.setattr(pcc.verify, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    with pytest.raises(VerificationTimeout) as err:
        verify_coloring(g, c, 3, time_limit=0.0)
    assert str(err.value) == "search from vertex 0 exceeded the time budget of 0.0 s"


def _verdict_corpus(seed, count):
    """Random trees, random 2-connected graphs and cycles on 4-16 vertices,
    each with 2-5 random colors, at l = 1-4."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 16)
        g = rng.choice(
            (
                lambda: random_tree(n, rng.randrange(10**6)),
                lambda: random_2connected(n, None, rng.randrange(10**6)),
                lambda: cycle_graph(n),
            )
        )()
        yield g, random_coloring(g, rng.randint(2, 5), rng), rng.randint(1, 4)


def _decision_pair(adjacency, cmat, n, ell):
    """The first failing pair of the exact search's decision scan, or None."""
    found = pcc.verify._failing_source(adjacency, cmat, n, ell)
    return found and (found[0], found[1][0])


def test_verdict_scan_matches_both_other_scans(monkeypatch):
    # first_failing_pair runs the table scan without witnesses; its verdict
    # must be the certificate's failing pair and the tuple-state decision
    # scan's.  Most random colorings are refuted early, so only a few reach
    # a walk that repeats a vertex; counting the fallback calls makes sure
    # some did, and that the fallback both found and refuted paths.
    calls = collections.Counter()

    def counting(*args):
        found = next(real(*args), None)
        calls[found is None] += 1
        yield from () if found is None else (found,)

    real = pcc.verify._proper_paths
    verdicts = collections.Counter()
    with_fallback = 0
    for g, c, ell in _verdict_corpus(47, 1500):
        before = sum(calls.values())
        monkeypatch.setattr(pcc.verify, "_proper_paths", counting)
        failing = first_failing_pair(g, c, ell)
        monkeypatch.setattr(pcc.verify, "_proper_paths", real)
        with_fallback += sum(calls.values()) > before
        assert failing == verify_coloring(g, c, ell).failing_pair
        assert failing == _decision_pair(g.adjacency, _color_matrix(g, c), g.n, ell)
        verdicts[failing is None] += 1
    assert verdicts[True] >= 150 and verdicts[False] >= 1000
    assert with_fallback >= 10 and calls[True] >= 3 and calls[False] >= 3


def test_decision_scan_falls_back_on_exactly_the_repeating_walks(monkeypatch):
    # The exact search's decision scan builds no walk: a reached target goes
    # to the DFS fallback when its state's mask is -1.  Its fallback calls
    # must be, in order, the pairs up to the failing one whose shortest walk
    # repeats a vertex, and on every source the masks must flag exactly the
    # targets whose walk from _shortest_proper_walks repeats a vertex.
    calls = []
    real = pcc.verify._proper_paths

    def counting(adjacency, cmat, prefix, prefix_colors, v, *rest):
        calls.append((prefix[0], v))
        return real(adjacency, cmat, prefix, prefix_colors, v, *rest)

    monkeypatch.setattr(pcc.verify, "_proper_paths", counting)
    fallbacks = refuted = flagged = 0
    for g, c, ell in _verdict_corpus(47, 1500):
        cmat = _color_matrix(g, c)
        calls.clear()
        failing = _decision_pair(g.adjacency, cmat, g.n, ell)
        fallbacks += len(calls)
        expect = []
        scanned = True
        for u in range(g.n - 1):
            targets = [v for v in range(u + 1, g.n) if not cmat[u][v]]
            walks = _shortest_proper_walks(g.adjacency, cmat, u, targets, ell)
            repeats = {v for v, walk in walks.items() if len(set(walk)) < len(walk)}
            reached, masks = pcc.verify._walk_states(g.adjacency, cmat, u, targets, ell)
            assert {v for v, j in reached.items() if masks[j] < 0} == repeats
            flagged += len(repeats)
            for v in targets:
                if scanned and v in repeats:
                    expect.append((u, v))
                scanned = scanned and (u, v) != failing
        assert calls == expect, (g.edges, ell)
        refuted += bool(calls) and calls[-1] == failing
    # 16 fallbacks, 9 of them refuting, and 34 flagged targets.
    assert fallbacks >= 10 and refuted >= 3 and flagged > 2 * fallbacks, (
        fallbacks, refuted, flagged)


def test_failing_source_cuts_off_only_unreached_failing_targets():
    # The decision scan's cut is its failing target followed by the later
    # targets of the same source that its one walk-state search never
    # reached; each of them has no proper path from the source.
    cuts = longer = 0
    for g, c, ell in _verdict_corpus(53, 1500):
        cmat = _color_matrix(g, c)
        found = pcc.verify._failing_source(g.adjacency, cmat, g.n, ell)
        assert (found and (found[0], found[1][0])) == first_failing_pair(g, c, ell)
        if found is None:
            continue
        u, cut = found
        targets = [v for v in range(u + 1, g.n) if not cmat[u][v]]
        reached, _ = pcc.verify._walk_states(g.adjacency, cmat, u, targets, ell)
        assert cut[1:] == [w for w in targets if w > cut[0] and w not in reached]
        for w in cut:
            assert not proper_path_exists(g, c, u, w, ell), (g.edges, u, w, ell)
        cuts += 1
        longer += len(cut) > 1
    # 1,195 cuts, 981 of them with more than one target.
    assert cuts >= 1000 and longer >= 900, (cuts, longer)


def test_repeating_walks_read_off_the_predecessor_chains():
    # The masks against the walks themselves, for every reached target of
    # every source, past the pair at which a scan would stop.  Random
    # 2-connected graphs with l+1 or l+2 colors give many walks that repeat
    # a vertex.
    rng = random.Random(59)
    repeats = 0
    for _ in range(200):
        ell, n = rng.randint(1, 4), rng.randint(10, 24)
        g = random_2connected(n, None, rng.randrange(10**6))
        c = random_coloring(g, ell + rng.randint(1, 2), rng)
        table = pcc.verify._WalkStateTable(g.adjacency, _color_matrix(g, c), ell)
        for u in range(g.n - 1):
            reached = table.reach(u, range(u + 1, g.n))
            walks = table.walks(reached)
            assert list(walks) == list(reached)
            expect = {v for v, walk in walks.items() if len(set(walk)) < len(walk)}
            assert table.repeating(reached) == expect
            repeats += len(expect)
    assert repeats >= 200


def _chain_corpus():
    """The 200 colored graphs of
    test_repeating_walks_read_off_the_predecessor_chains, with their
    tables, followed by wheels and complete bipartite graphs colored by
    their constructors, where one expansion of the hub reaches many
    targets."""
    rng = random.Random(59)
    for _ in range(200):
        ell, n = rng.randint(1, 4), rng.randint(10, 24)
        g = random_2connected(n, None, rng.randrange(10**6))
        c = random_coloring(g, ell + rng.randint(1, 2), rng)
        yield g, pcc.verify._WalkStateTable(g.adjacency, _color_matrix(g, c), ell)
    for n in (5, 12, 30):
        g, c = wheel_graph(n), color_wheel(n, 2).coloring
        yield g, pcc.verify._WalkStateTable(g.adjacency, _color_matrix(g, c), 2)
    for a, b, ell in ((2, 9, 2), (3, 20, 2), (4, 12, 3)):
        g, c = complete_bipartite_graph(a, b), color_complete_bipartite(a, b, ell).coloring
        yield g, pcc.verify._WalkStateTable(g.adjacency, _color_matrix(g, c), ell)


def test_targets_of_one_expansion_are_one_run_of_the_search_result():
    # walks and repeating read a state's walk once per run of targets with
    # the same predecessor.  That is sound only if the targets reached by
    # one expansion are consecutive in reach's result, so no predecessor
    # may start two runs.
    longest = 0
    for g, table in _chain_corpus():
        for u in range(g.n - 1):
            reached = table.reach(u, range(u + 1, g.n))
            runs = [
                (s, len(list(run)))
                for s, run in itertools.groupby(table.pred[t] for t in reached.values())
            ]
            assert len({s for s, _ in runs}) == len(runs), (g.edges, u)
            longest = max([longest] + [size for _, size in runs])
    assert longest >= 15


def test_first_reach_walks_of_at_most_four_edges_are_simple():
    # The certificate scan tests only walks of 5 or more edges for a
    # repeated vertex.  Every shorter walk must be simple, and some 5-edge
    # walk must repeat a vertex, so 4 is the largest bound that holds.
    short = repeating_five = 0
    for g, table in _chain_corpus():
        for u in range(g.n - 1):
            for walk in table.walks(table.reach(u, range(u + 1, g.n))).values():
                if len(walk) <= 5:
                    assert len(set(walk)) == len(walk), walk
                    short += 1
                elif len(walk) == 6:
                    repeating_five += len(set(walk)) < len(walk)
    assert short >= 10000 and repeating_five >= 1, (short, repeating_five)


def test_certificates_list_their_pairs_in_lexicographic_order():
    # The witness dict iterates its pairs in lexicographic order: all of
    # them in a full certificate, those before the failing pair in a
    # refuted one.  The pins above sort the items, so only this test sees
    # the order in which the pairs went in.
    kinds = collections.Counter()
    for g, c, ell in _verdict_corpus(61, 300):
        for k in (1, 2):
            cert = verify_coloring(g, c, ell, k=k)
            pairs = list(itertools.combinations(range(g.n), 2))
            end = len(pairs) if cert.ok else pairs.index(cert.failing_pair)
            assert list(cert.witnesses) == pairs[:end]
            kinds[k, cert.ok, bool(cert.witnesses)] += 1
    for k in (1, 2):
        assert kinds[k, True, True] >= 5 and kinds[k, False, True] >= 5, kinds


def test_verdict_scan_times_out_at_the_certificate_scans_source(monkeypatch):
    # A clock that ticks once per reading runs out each budget at its first
    # check, so both scans of the table stop at the first source that has a
    # non-adjacent target, with the same message.
    ticks = itertools.count()
    monkeypatch.setattr(pcc.verify, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    sources = collections.Counter()
    for g, c, ell in _verdict_corpus(53, 100):
        if g.m == g.n * (g.n - 1) // 2:
            continue
        with pytest.raises(VerificationTimeout) as cert_err:
            verify_coloring(g, c, ell, time_limit=0.0)
        with pytest.raises(VerificationTimeout) as verdict_err:
            first_failing_pair(g, c, ell, time_limit=0.0)
        assert str(verdict_err.value) == str(cert_err.value)
        sources[str(cert_err.value).split()[3]] += 1
    # Source 0 is adjacent to every other vertex of the star, so it is the
    # later source 1 that is named.
    star = Graph(6, [(0, v) for v in range(1, 6)] + [(1, 2)])
    c = EdgeColoring({e: 1 + i % 2 for i, e in enumerate(star.edges)})
    for scan in (verify_coloring, first_failing_pair):
        with pytest.raises(VerificationTimeout, match=r"^search from vertex 1 .* 0\.0 s$"):
            scan(star, c, 2, time_limit=0.0)
    assert len(sources) >= 2


def _tree_corpus(seed, count):
    """Random trees on 2-40 vertices, stars, paths and double stars."""
    rng = random.Random(seed)
    for _ in range(count):
        yield rng.choice(
            (
                lambda: random_tree(rng.randint(2, 40), rng.randrange(10**6)),
                lambda: star_graph(rng.randint(1, 12)),
                lambda: path_graph(rng.randint(2, 30)),
                lambda: double_star_graph(rng.randint(1, 6), rng.randint(1, 6)),
            )
        )()


def _first_pair_without_proper_path(g, c, ell):
    for u, v in itertools.combinations(range(g.n), 2):
        if not proper_path_exists(g, c, u, v, ell):
            return (u, v)
    return None


def test_tree_verdicts_from_short_paths_match_the_scans():
    # first_failing_pair decides a tree whose paths of at most l+1 edges are
    # all rainbow without the scan.  Each tree is colored by color_tree at
    # l = 1-4 (every one passes), by the same colorings with one edge given
    # a neighbouring edge's color (every one fails) and by random colorings.
    rng = random.Random(61)
    verdicts = collections.Counter()
    for t in _tree_corpus(61, 320):
        cases = []
        for ell in range(1, 5):
            colors = dict(color_tree(t, ell).coloring.colors)
            cases.append(("tree", colors, ell))
            if t.m >= 2:
                e = rng.choice(t.edges)
                f = rng.choice([f for f in t.edges if f != e and set(f) & set(e)])
                cases.append(("recolored", {**colors, e: colors[f]}, ell))
            cases.append(("random", random_coloring(t, rng.randint(2, 6), rng).colors, ell))
        for kind, colors, ell in cases:
            c = EdgeColoring(colors)
            failing = first_failing_pair(t, c, ell)
            assert failing == verify_coloring(t, c, ell).failing_pair, (kind, t.edges, ell)
            if t.n <= 14:
                assert failing == _first_pair_without_proper_path(t, c, ell)
            if kind != "random":
                assert (failing is None) == (kind == "tree")
            verdicts[kind, failing is None] += 1
    assert verdicts["tree", True] >= 100 and verdicts["recolored", False] >= 100
    assert verdicts["random", True] >= 100 and verdicts["random", False] >= 100, verdicts


def test_failing_tree_walk_matches_the_certificate_scan_up_to_200_vertices():
    # A failing tree's pair comes from one walk per source, not from the
    # table scan; on trees of up to 200 vertices, colored by color_tree with
    # one edge given a neighbouring edge's color or colored at random, it
    # must be the failing pair of verify_coloring's certificate scan.
    rng = random.Random(67)
    verdicts = collections.Counter()
    for _ in range(40):
        t = rng.choice(
            (
                lambda: random_tree(rng.randint(2, 200), rng.randrange(10**6)),
                lambda: path_graph(rng.randint(2, 200)),
                lambda: double_star_graph(rng.randint(1, 30), rng.randint(1, 30)),
            )
        )()
        for ell in range(1, 5):
            cases = [("random", random_coloring(t, rng.randint(2, 6), rng).colors)]
            if t.m >= 2:
                colors = dict(color_tree(t, ell).coloring.colors)
                e = rng.choice(t.edges)
                f = rng.choice([f for f in t.edges if f != e and set(f) & set(e)])
                cases.append(("recolored", {**colors, e: colors[f]}))
            for kind, colors in cases:
                c = EdgeColoring(colors)
                failing = first_failing_pair(t, c, ell)
                assert failing == verify_coloring(t, c, ell).failing_pair, (kind, t.edges, ell)
                verdicts[kind, failing is None] += 1
    assert verdicts["recolored", False] >= 100 and verdicts["random", False] >= 100, verdicts


def test_tree_verdicts_build_no_color_matrix(monkeypatch):
    # With no time limit a tree is decided from its edge colors alone;
    # an uncolored edge is refused with the color matrix's message.
    def refuse(*args):
        raise AssertionError("a tree verdict built the color matrix")

    t = random_tree(60, 5)
    good = color_tree(t, 2).coloring
    e, f = t.edges[0], next(f for f in t.edges[1:] if set(f) & set(t.edges[0]))
    bad = EdgeColoring({**good.colors, e: good.colors[f]})
    partial = EdgeColoring({g: c for g, c in good.colors.items() if g != t.edges[7]})
    expected = {
        (c, ell): verify_coloring(t, c, ell).failing_pair for c in (good, bad) for ell in (1, 2, 3)
    }
    with pytest.raises(ValueError) as matrix_err:
        verify_coloring(t, partial, 2)
    monkeypatch.setattr(pcc.verify, "_color_matrix", refuse)
    for (c, ell), failing in expected.items():
        assert first_failing_pair(t, c, ell) == failing
    with pytest.raises(ValueError) as rows_err:
        first_failing_pair(t, partial, 2)
    assert str(rows_err.value) == str(matrix_err.value)
    assert expected[good, 2] is None and expected[bad, 2] is not None


def test_disconnected_graph_with_n_minus_one_edges_is_no_tree():
    # A rainbow triangle plus an isolated vertex has m = n - 1 and rainbow
    # short paths, but vertex 3 is reached from nowhere.
    g = Graph(4, [(0, 1), (0, 2), (1, 2)])
    c = EdgeColoring({(0, 1): 1, (0, 2): 2, (1, 2): 3})
    for ell in range(1, 5):
        assert first_failing_pair(g, c, ell) == (0, 3)


def test_tree_verdict_skips_the_scan_only_without_a_time_limit(monkeypatch):
    # A tree with no time limit, passing or failing, is decided without the
    # table scan; a non-tree and any tree under a time limit run it once,
    # so failing pairs, fallbacks and timeouts stay those of verify_coloring.
    calls = []
    real = pcc.verify._certified_pairs

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pcc.verify, "_certified_pairs", counting)
    t = random_tree(30, 7)
    good = color_tree(t, 2).coloring
    e = t.edges[0]
    f = next(f for f in t.edges if f != e and set(f) & set(e))
    bad = EdgeColoring({**good.colors, e: good.colors[f]})
    w = wheel_graph(9)
    for g, c, time_limit, scans in (
        (t, good, None, 0),
        (t, bad, None, 0),
        (w, color_wheel(9, 2).coloring, None, 1),
        (t, good, 5.0, 1),
        (t, bad, 5.0, 1),
    ):
        expect = verify_coloring(g, c, 2).failing_pair
        calls.clear()
        assert first_failing_pair(g, c, 2, time_limit) == expect
        assert len(calls) == scans, (g.edges, time_limit)

    ticks = itertools.count()
    monkeypatch.setattr(pcc.verify, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    with pytest.raises(VerificationTimeout) as cert_err:
        verify_coloring(t, good, 2, time_limit=0.0)
    with pytest.raises(VerificationTimeout) as verdict_err:
        first_failing_pair(t, good, 2, time_limit=0.0)
    assert str(verdict_err.value) == str(cert_err.value)


def _diameter_two_corpus(seed):
    """The graphs of the paper's closed forms, all of diameter at most 2:
    K_m,n, complete multipartite graphs, wheels and joins H + K_1 of random
    connected H.  Each comes with its constructor's coloring (at l = 1 the
    window-2 one where the constructor needs l >= 2) and two random
    colorings of 2-4 colors, and each is verified at l = 1-4."""
    rng = random.Random(seed)
    graphs = []
    for m, n in ((1, 4), (2, 3), (2, 6), (3, 5), (4, 7)):
        g = complete_bipartite_graph(m, n)
        graphs.append((g, lambda ell, m=m, n=n: color_complete_bipartite(m, n, max(ell, 2))))
    for parts in ((1, 1, 1), (1, 2, 3), (2, 2, 3), (1, 1, 2, 4), (2, 3, 3, 3)):
        g = complete_multipartite_graph(parts)
        graphs.append((g, lambda ell, parts=parts: color_complete_multipartite(parts, ell)))
    for n in (3, 4, 6, 7, 9, 12):
        graphs.append((wheel_graph(n), lambda ell, n=n: color_wheel(n, max(ell, 2))))
    for n in (3, 5, 7, 9):
        g = join(random_connected_graph(n, rng), complete_graph(1))
        graphs.append((g, lambda ell, g=g: color_2connected(g)))
    for g, construct in graphs:
        randoms = [random_coloring(g, rng.randint(2, 4), rng) for _ in range(2)]
        for ell in (1, 2, 3, 4):
            for c in (construct(ell).coloring, *randoms):
                yield g, c, ell


def _recording_reach(monkeypatch):
    """Make every table record the sources it runs ``reach`` from, and
    return the list of those records, one per scan."""
    scans = []

    class RecordingTable(pcc.verify._WalkStateTable):
        def __init__(self, *args):
            super().__init__(*args)
            self.sources = []
            scans.append(self.sources)

        def reach(self, u, targets, deadline=None):
            self.sources.append(u)
            return super().reach(u, targets, deadline)

    monkeypatch.setattr(pcc.verify, "_WalkStateTable", RecordingTable)
    return scans


def test_two_edge_shortcut_keeps_certificates_and_verdicts(monkeypatch):
    # A source whose targets proper two-edge walks all reach is settled
    # from neighbour bitmasks without running reach.  Its certificate must
    # still be the one-search-per-source reference's, its witnesses the
    # walks (u, h, v) through the first hub h that allows v, and both scan
    # modes must skip the same sources, so that they stop at the same pair.
    scans = _recording_reach(monkeypatch)
    skipped = ran = mixed = 0
    verdicts = collections.Counter()
    for g, c, ell in _diameter_two_corpus(71):
        cert = verify_coloring(g, c, ell)
        assert (cert.ok, cert.failing_pair, cert.witnesses) == per_source_certificate(g, c, ell)
        cert_sources = scans[-1]
        # A time limit keeps a star on the table scan instead of the tree
        # verdict; both verdicts are the certificate's.
        assert first_failing_pair(g, c, ell) == cert.failing_pair
        assert first_failing_pair(g, c, ell, time_limit=60.0) == cert.failing_pair
        assert scans[-1] == cert_sources
        verdicts[cert.ok] += 1
        end = cert.failing_pair[0] + 1 if cert.failing_pair else g.n - 1
        with_targets = {
            u for u in range(end) if any(not g.has_edge(u, v) for v in range(u + 1, g.n))
        }
        assert set(cert_sources) <= with_targets
        for u in with_targets - set(cert_sources):
            for v in range(u + 1, g.n):
                (path,) = cert.witnesses[u, v]
                assert len(path) == (2 if g.has_edge(u, v) else 3)
        skipped += len(with_targets) - len(cert_sources)
        ran += len(cert_sources)
        mixed += bool(cert_sources) and len(cert_sources) < len(with_targets)
    assert verdicts[True] >= 150 and verdicts[False] >= 40, verdicts
    assert skipped >= 500 and ran >= 150 and mixed >= 40, (skipped, ran, mixed)


def test_two_edge_shortcut_checks_the_deadline_as_reach_would(monkeypatch):
    # A clock that ticks once per reading runs out the budget at the first
    # check.  Proper two-edge walks reach every target of every source of
    # K_2,3, so no search runs; source 0 is the first with a target, and the
    # shortcut's own check names it, with the message reach would raise, in
    # both scan modes.
    scans = _recording_reach(monkeypatch)
    g = complete_bipartite_graph(2, 3)
    c = color_complete_bipartite(2, 3, 2).coloring
    assert first_failing_pair(g, c, 2, time_limit=60.0) is None and scans[-1] == []
    ticks = itertools.count()
    monkeypatch.setattr(pcc.verify, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    for scan in (verify_coloring, first_failing_pair):
        with pytest.raises(VerificationTimeout) as err:
            scan(g, c, 2, time_limit=0.0)
        assert str(err.value) == "search from vertex 0 exceeded the time budget of 0.0 s"
        assert scans[-1] == []
