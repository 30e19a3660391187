import itertools
import random
import time

import pytest

import pcc.structure
from pcc.graphs import (
    Graph,
    InvariantViolation,
    Permutation,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    double_star_graph,
    hypercube_graph,
    normalize_edge,
    path_graph,
    permutation_graph,
    random_2connected,
    random_tree,
    star_graph,
    wheel_graph,
)
from pcc.structure import (
    _bfs,
    _shortest_cycle,
    automorphism_generators,
    bfs_tree,
    bridges,
    distances,
    ear_decomposition,
    eccentricity,
    hamiltonian_path,
    is_2_connected,
    is_star,
    max_subtree_size_with_diameter,
    minimally_2connected_spanning,
    open_twins,
    radius,
    sigma2_prime,
    twin_swaps,
)

from oracles import (
    bridges_by_removal,
    brute_force_automorphisms,
    brute_force_max_subtree,
    generated_group,
    hamiltonian_path_full_scan,
    minimally_2connected_by_rebuild,
    minimally_2connected_unpruned,
    random_connected_graph,
    shortest_cycle_unbounded,
    two_connected_by_definition,
)

PETERSEN = Graph(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
     (5, 7), (7, 9), (6, 9), (6, 8), (5, 8)],
)


def test_distances_examples():
    assert distances(cycle_graph(6), 0) == [0, 1, 2, 3, 2, 1]
    st4 = star_graph(4)
    assert distances(st4, 0) == [0, 1, 1, 1, 1]
    q3_dist = distances(Graph(8, [(x, x ^ (1 << b)) for x in range(8) for b in range(3) if x < x ^ (1 << b)]), 0)
    assert q3_dist == [bin(v).count("1") for v in range(8)]


def test_distances_mark_unreachable():
    g = Graph(3, [(0, 1)])
    assert distances(g, 0) == [0, 1, -1]


def test_eccentricity_radius():
    assert radius(path_graph(7)) == 3
    assert eccentricity(wheel_graph(5), 5) == 1
    assert radius(cycle_graph(5)) == 2
    with pytest.raises(ValueError):
        radius(Graph(3, [(0, 1)]))


def test_sigma2_prime():
    assert sigma2_prime(path_graph(4)) == 4
    for n in range(2, 7):
        assert sigma2_prime(star_graph(n)) == n + 1
    assert sigma2_prime(double_star_graph(3, 4)) == 7
    with pytest.raises(ValueError):
        sigma2_prime(Graph(3, []))


def test_two_connectivity_examples():
    assert is_2_connected(cycle_graph(3))
    assert not is_2_connected(path_graph(3))
    assert is_2_connected(wheel_graph(6))
    assert not is_2_connected(star_graph(4))
    assert not is_2_connected(path_graph(2))


def test_two_connectivity_matches_definition():
    rng = random.Random(4)
    cases = [random_connected_graph(rng.randint(3, 8), rng) for _ in range(40)]
    # The DFS starts only at vertex 0, so cover the inputs where a
    # single-root search could go wrong: too few vertices, several
    # components, vertex 0 isolated, the only cut vertex at the root, and a
    # pendant root.
    cases += [
        Graph(1),
        Graph(2),
        Graph(2, [(0, 1)]),
        Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
        Graph(4, [(1, 2), (2, 3), (1, 3)]),
        Graph(4, [(0, 1), (1, 2), (0, 2)]),
        Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]),
        Graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)]),
    ]
    for _ in range(200):
        n = rng.randint(1, 8)
        p = rng.random()
        cases.append(
            Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        )
    for g in cases:
        assert is_2_connected(g) == two_connected_by_definition(g), g.edges


def test_minimal_reduction_examples():
    for n in (3, 5, 8):
        assert minimally_2connected_spanning(cycle_graph(n)) == cycle_graph(n)
    h = minimally_2connected_spanning(complete_graph(4))
    assert h.m == 4  # a spanning 4-cycle
    assert is_2_connected(h)
    with pytest.raises(ValueError):
        minimally_2connected_spanning(path_graph(4))


def test_minimal_reduction_every_edge_critical():
    rng = random.Random(9)
    cases = [wheel_graph(5), complete_graph(5), complete_bipartite_graph(3, 4)]
    for seed in range(6):
        n = rng.randint(5, 12)
        from pcc.graphs import random_2connected

        cases.append(random_2connected(n, min(n * (n - 1) // 2, n + 4), seed=seed))
    for g in cases:
        h = minimally_2connected_spanning(g)
        assert h.n == g.n and set(h.edges) <= set(g.edges)
        assert two_connected_by_definition(h)
        for e in h.edges:
            rest = Graph(h.n, [x for x in h.edges if x != e])
            assert not two_connected_by_definition(rest), (g, e)


def test_minimal_reduction_matches_rebuild_oracle():
    rng = random.Random(12)
    for seed in range(200):
        n = rng.randint(3, 30)
        m = rng.randint(n, min(n * (n - 1) // 2, 3 * n))
        g = random_2connected(n, m, seed=seed)
        assert minimally_2connected_spanning(g) == minimally_2connected_by_rebuild(g), (n, m, seed)


def test_minimal_reduction_skips_degree_two_edges_and_matches_the_unpruned_scan(monkeypatch):
    # Edges with an end of degree 2 are kept without a lowpoint DFS; the
    # result is that of the scan that tests every edge, on graphs of up to
    # 120 vertices, four times the rebuild oracle's largest.
    runs = 0
    lowpoint = pcc.structure._lowpoint

    def counted(adjacency, found=None):
        nonlocal runs
        runs += 1
        return lowpoint(adjacency, found)

    monkeypatch.setattr(pcc.structure, "_lowpoint", counted)
    rng = random.Random(71)
    edges = 0
    for seed in range(80):
        n = rng.randint(4, 120)
        m = rng.randint(n, min(n * (n - 1) // 2, 4 * n))
        g = random_2connected(n, m, seed=seed)
        assert minimally_2connected_spanning(g) == minimally_2connected_unpruned(g), (n, m, seed)
        edges += g.m
    # One DFS per input for its own test, plus one per edge tested: 5,036
    # of the 11,359 edges are kept untested.
    skipped = edges - (runs - 80)
    assert skipped > edges // 3, (skipped, edges)


def _check_ear_decomposition(g, decomp):
    cyc = decomp.base_cycle
    assert len(cyc) >= 3
    for i in range(len(cyc)):
        assert g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)])
    covered_v = set(cyc)
    covered_e = {normalize_edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))}
    for ear in decomp.ears:
        assert len(ear) >= 3  # at least one internal vertex
        assert ear[0] in covered_v and ear[-1] in covered_v
        assert ear[0] != ear[-1]
        interior = ear[1:-1]
        assert covered_v.isdisjoint(interior)
        assert len(set(interior)) == len(interior)
        for a, b in zip(ear, ear[1:]):
            e = normalize_edge(a, b)
            assert g.has_edge(a, b) and e not in covered_e
            covered_e.add(e)
        covered_v.update(interior)
    assert covered_e == set(g.edges)
    assert covered_v == set(range(g.n))


def test_ear_decomposition_examples():
    d = ear_decomposition(cycle_graph(5))
    assert len(d.base_cycle) == 5 and d.ears == ()
    d = ear_decomposition(complete_bipartite_graph(2, 3))
    assert len(d.base_cycle) == 4 and len(d.ears) == 1 and len(d.ears[0]) == 3
    _check_ear_decomposition(complete_bipartite_graph(2, 3), d)


def test_ear_decomposition_of_reduced_prism():
    prism = permutation_graph(cycle_graph(5), Permutation((1, 2, 3, 4, 5)))
    reduced = minimally_2connected_spanning(prism)
    d = ear_decomposition(reduced)
    _check_ear_decomposition(reduced, d)
    # the deterministic reduction keeps 11 of 15 edges: one long ear
    assert reduced.m == 11 and len(d.ears) == 1


def test_ear_decomposition_rejects_forced_trivial_ear():
    # K_4 admits no decomposition whose ears all have an internal vertex.
    with pytest.raises(InvariantViolation):
        ear_decomposition(complete_graph(4))


def test_ear_decomposition_random_minimal_graphs():
    from pcc.graphs import random_2connected

    for seed in range(12):
        g = random_2connected(5 + seed % 6, None, seed=seed)
        h = minimally_2connected_spanning(g)
        _check_ear_decomposition(h, ear_decomposition(h))


def test_hamiltonian_path_examples():
    assert hamiltonian_path(path_graph(5)) == (0, 1, 2, 3, 4)
    assert hamiltonian_path(star_graph(3)) is None
    hp = hamiltonian_path(PETERSEN)
    assert hp is not None
    assert sorted(hp) == list(range(10))
    for a, b in zip(hp, hp[1:]):
        assert PETERSEN.has_edge(a, b)


def test_hamiltonian_path_single_vertex_and_disconnected():
    assert hamiltonian_path(Graph(1)) == (0,)
    assert hamiltonian_path(Graph(3, [(0, 1)])) is None


def test_hamiltonian_path_needs_no_recursion():
    # One backtracking step per path vertex: more than the recursion limit.
    assert hamiltonian_path(cycle_graph(1100)) == tuple(range(1100))


def test_hamiltonian_path_matches_full_scan_prune():
    # The prune checks only the neighbors of the old and the new tail; the
    # oracle rescans every vertex, so the two must return the same path.
    rng = random.Random(17)
    found = missing = 0
    for _ in range(300):
        extra = rng.choice((0.0, 0.1, 0.25, 0.5))
        g = random_connected_graph(rng.randint(2, 11), rng, extra)
        hp = hamiltonian_path(g)
        assert hp == hamiltonian_path_full_scan(g), g.edges
        found += hp is not None
        missing += hp is None
    assert found > 50 and missing > 50


def _cycles_joined_by_a_path(a: int, b: int, k: int) -> Graph:
    """C_a on 0..a-1 and C_b on a..a+b-1, with vertex 0 joined to vertex a
    by a path of k edges through k - 1 new vertices."""
    edges = [(i, (i + 1) % a) for i in range(a)]
    edges += [(a + i, a + (i + 1) % b) for i in range(b)]
    path = [0, *range(a + b, a + b + k - 1), a]
    edges += list(zip(path, path[1:]))
    return Graph(a + b + k - 1, [normalize_edge(*e) for e in edges])


def test_bridges_match_removal_oracle():
    # The lowpoint DFS names exactly the edges whose deletion disconnects
    # the graph, on random graphs, trees, cycles and pairs of cycles
    # joined by a path, in which the bridges are the path's edges.
    rng = random.Random(71)
    graphs = [random_connected_graph(rng.randint(2, 12), rng, extra)
              for _ in range(100) for extra in (0.1, 0.35)]
    graphs += [random_tree(n, seed) for n in range(1, 13) for seed in range(3)]
    graphs += [cycle_graph(n) for n in range(3, 10)]
    joined = [_cycles_joined_by_a_path(a, b, k) for a in (3, 4) for b in (3, 5) for k in (1, 2, 4)]
    for g in graphs + joined:
        assert bridges(g) == bridges_by_removal(g), g.edges
    for g, k in zip(joined, itertools.cycle((1, 2, 4))):
        assert len(bridges(g)) == k
    assert all(bridges(cycle_graph(n)) == [] for n in range(3, 10))
    # The random graphs have 347 bridges, and 65 of them have none.
    random_graphs = graphs[:200]
    assert sum(len(bridges(g)) for g in random_graphs) > 300
    assert sum(not bridges(g) for g in random_graphs) > 50


def test_max_subtree_examples():
    assert max_subtree_size_with_diameter(path_graph(10), 3)[0] == 3
    assert max_subtree_size_with_diameter(star_graph(5), 2)[0] == 5
    size, witness = max_subtree_size_with_diameter(double_star_graph(3, 3), 3)
    assert size == 5
    assert witness.m == 5
    assert set(witness.edges) == set(double_star_graph(3, 3).edges)


def test_max_subtree_matches_brute_force():
    for seed in range(15):
        t = random_tree(3 + seed % 8, seed=seed)
        for d in (1, 2, 3, 4):
            size, witness = max_subtree_size_with_diameter(t, d)
            assert size == brute_force_max_subtree(t, d), (t.edges, d)
            assert witness.m == size
            assert set(witness.edges) <= set(t.edges)


def _first_largest_ball_by_search(t, d):
    """The first largest ball, found by one bounded search per center."""
    best = []
    for centers in [(v,) for v in range(t.n)] if d % 2 == 0 else t.edges:
        ball = []
        pcc.structure._bfs(t.adjacency, centers, d // 2, order=ball)
        if len(ball) > len(best):
            best = ball
    return best


def test_radius_one_balls_are_sized_from_degrees(monkeypatch):
    # At d = 2 and 3 a ball has deg(v) + 1 vertices around a vertex v and
    # deg(a) + deg(b) around an edge ab, so only the first largest ball is
    # searched: a star takes one search, not one of its n - 1 leaves per
    # center.  The ball, in its search order, is the one a search per center
    # picks, on trees below and above the ball-storage threshold.
    for seed in range(60):
        t = random_tree(2 + seed * 3, seed=seed)
        for d in (2, 3):
            assert pcc.structure._largest_ball(t, d) == _first_largest_ball_by_search(t, d)
    searches = []
    real = pcc.structure._bfs

    def counting(adjacency, sources, reach=None, **kwargs):
        if reach is not None:
            searches.append(sources)
        return real(adjacency, sources, reach, **kwargs)

    monkeypatch.setattr(pcc.structure, "_bfs", counting)
    star = star_graph(4000)
    for d, centers in ((2, (0,)), (3, (0, 1))):
        searches.clear()
        size, witness = max_subtree_size_with_diameter(star, d)
        assert (size, witness.edges, searches) == (4000, star.edges, [centers])


def test_max_subtree_rejects_non_tree():
    with pytest.raises(ValueError):
        max_subtree_size_with_diameter(cycle_graph(4), 2)


def test_bfs_tree_depths():
    t = bfs_tree(wheel_graph(6), 6)
    assert t.depth == (1, 1, 1, 1, 1, 1, 0)
    assert is_star(star_graph(3)) and is_star(path_graph(2))
    assert not is_star(path_graph(4))


def test_bfs_reach_and_skip_match_distances_without_the_edge():
    rng = random.Random(31)
    for _ in range(60):
        g = random_connected_graph(rng.randint(2, 12), rng, rng.choice((0.0, 0.2, 0.5)))
        for e in g.edges:
            cut = Graph(g.n, [f for f in g.edges if f != e])
            from_end = [distances(cut, x) for x in e]
            for reach in (None, 0, 1, 2, 3):
                for sources in ((e[0],), (e[1],), e):
                    dist, parent = _bfs(g.adjacency, sources, reach, e)
                    for x in range(g.n):
                        near = [from_end[e.index(s)][x] for s in sources]
                        near = min((d for d in near if d != -1), default=-1)
                        if reach is not None and near > reach:
                            near = -1
                        assert dist[x] == near, (g.edges, e, reach, sources, x)
                        p = parent[x]
                        if dist[x] <= 0:
                            assert p == -1
                        else:
                            assert dist[p] == dist[x] - 1 and g.has_edge(p, x)
                            assert normalize_edge(p, x) != e


def test_bounded_bfs_with_order_stores_only_its_ball():
    # A bounded search that fills ``order`` on a graph of 100 or more
    # vertices keeps the reached vertices only, and every other vertex
    # reads -1, as in the lists of the same search.
    rng = random.Random(37)
    for _ in range(12):
        g = random_connected_graph(rng.randint(100, 130), rng, rng.choice((0.0, 0.02)))
        for e in rng.sample(g.edges, 12):
            for reach in (0, 1, 2, 3):
                for sources in ((e[0],), e):
                    order = []
                    ball_dist, ball_parent = _bfs(g.adjacency, sources, reach, e, order)
                    dist, parent = _bfs(g.adjacency, sources, reach, e)
                    reached = [x for x in range(g.n) if dist[x] != -1]
                    assert sorted(order) == sorted(ball_dist) == reached
                    assert len(ball_parent) == len(order) - len(sources)
                    assert [ball_dist[x] for x in range(g.n)] == dist
                    assert [ball_parent[x] for x in range(g.n)] == parent


def test_shortest_cycle_matches_unbounded_search():
    rng = random.Random(47)
    for seed in range(150):
        n = rng.randint(3, 16)
        g = random_2connected(n, rng.randint(n, min(n * (n - 1) // 2, 3 * n)), seed=seed)
        assert _shortest_cycle(g) == shortest_cycle_unbounded(g), g.edges
    for g in (cycle_graph(9), complete_graph(5), PETERSEN, complete_bipartite_graph(3, 4)):
        assert _shortest_cycle(g) == shortest_cycle_unbounded(g)
    with pytest.raises(ValueError):
        _shortest_cycle(random_tree(8, seed=2))


def _lcf_graph(n, shifts):
    # A Hamiltonian cycle 0..n-1 plus the chords i -> i + shifts[i mod len].
    edges = {normalize_edge(i, (i + 1) % n) for i in range(n)}
    edges |= {normalize_edge(i, (i + shifts[i % len(shifts)]) % n) for i in range(n)}
    return Graph(n, edges)


def _random_cubic_graph(n, rng):
    # Pairing model, redrawn until simple and connected.
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {normalize_edge(a, b) for a, b in zip(points[::2], points[1::2]) if a != b}
        if len(edges) == 3 * n // 2:
            g = Graph(n, edges)
            if -1 not in distances(g, 0):
                return g


def test_automorphism_generators_generate_the_whole_group():
    rng = random.Random(53)
    graphs = [random_connected_graph(rng.randint(1, 6), rng, extra=rng.choice((0.1, 0.3, 0.6)))
              for _ in range(120)]
    graphs += [hypercube_graph(3), wheel_graph(6), complete_bipartite_graph(2, 4), star_graph(5)]
    for g in graphs:
        group = brute_force_automorphisms(g)
        generators = automorphism_generators(g)
        assert set(generators) <= group, g.edges
        assert generated_group(generators, g.n) == group, g.edges
        assert set(twin_swaps(g)) <= group, g.edges
    generators = automorphism_generators(PETERSEN)
    edges = set(PETERSEN.edges)
    for image in generators:
        assert all(normalize_edge(image[a], image[b]) in edges for a, b in PETERSEN.edges)
    assert len(generated_group(generators, PETERSEN.n)) == 120


def test_automorphism_generators_of_rigid_cubic_graphs():
    frucht = _lcf_graph(12, [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2])
    cubic = _random_cubic_graph(30, random.Random(0))
    for g in (frucht, cubic):
        assert all(g.degree(v) == 3 for v in range(g.n))
        start = time.perf_counter()
        assert automorphism_generators(g) == []
        assert time.perf_counter() - start < 1.0


def test_twin_swaps_pair_consecutive_twins():
    # The star's leaves and each side of K_2,3 are open twins; the
    # triangle's vertices are closed twins; a path of four has none.
    assert twin_swaps(star_graph(3)) == [(0, 2, 1, 3), (0, 1, 3, 2)]
    assert twin_swaps(complete_bipartite_graph(2, 3)) == [
        (1, 0, 2, 3, 4), (0, 1, 3, 2, 4), (0, 1, 2, 4, 3)]
    assert twin_swaps(complete_graph(3)) == [(1, 0, 2), (0, 2, 1)]
    assert twin_swaps(path_graph(4)) == []


def test_open_twins_group_every_vertex_by_neighbourhood():
    assert open_twins(complete_bipartite_graph(2, 3)) == {(2, 3, 4): [0, 1], (0, 1): [2, 3, 4]}
    assert open_twins(path_graph(4)) == {(1,): [0], (0, 2): [1], (1, 3): [2], (2,): [3]}


def test_twin_classes_give_a_linear_number_of_maps():
    # The consecutive twin swaps generate every transposition of their
    # class, so a class of k twins adds k - 1 maps, not one per pair.
    for g, count in ((star_graph(80), 79), (complete_bipartite_graph(2, 40), 40)):
        generators = automorphism_generators(g)
        assert len(generators) == count
        edges = set(g.edges)
        for image in generators:
            assert all(normalize_edge(image[a], image[b]) in edges for a, b in g.edges)
