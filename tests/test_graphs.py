import copy
import pickle
import random

import pytest

from pcc import construct, exact, io, structure
from pcc.graphs import (
    EdgeColoring,
    FamilySpec,
    Graph,
    Permutation,
    cartesian_product,
    complete_bipartite_graph,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    double_star_graph,
    generate,
    hypercube_graph,
    join,
    path_graph,
    permutation_graph,
    random_2connected,
    random_tree,
    star_graph,
    wheel_graph,
)
from pcc.structure import is_2_connected, is_connected

from oracles import random_connected_graph


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(0, [])
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])


def test_graph_is_normalized_and_immutable():
    g = Graph(4, [(3, 1), (0, 2)])
    assert g.edges == ((0, 2), (1, 3))
    assert g.neighbors(1) == (3,)
    with pytest.raises(AttributeError):
        g.n = 5


def test_graph_and_coloring_copy_pickle_and_refuse_deletion():
    # Both are rebuilt through __init__, as the value records are, so a
    # copy is equal and as immutable as the original.
    g = Graph(4, [(3, 1), (0, 2)])
    c = EdgeColoring({(3, 1): 2, (0, 2): 1}, num_colors=4)
    for x in (g, c):
        for again in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(again) is type(x) and again == x and repr(again) == repr(x)
            with pytest.raises(AttributeError):
                again.n = 1
        for name in type(x).__slots__:
            with pytest.raises(AttributeError, match="is immutable"):
                delattr(x, name)
    assert g.m == 2 and g.has_edge(1, 3) and c.color(1, 3) == 2 and c.num_colors == 4
    assert pickle.loads(pickle.dumps(g)).adjacency == g.adjacency


def test_edge_coloring_validation():
    with pytest.raises(ValueError):
        EdgeColoring({(0, 1): 0})
    with pytest.raises(ValueError):
        EdgeColoring({(0, 1): 3}, num_colors=2)
    c = EdgeColoring({(1, 0): 2, (1, 2): 1})
    assert c.color(0, 1) == 2
    assert c.num_colors == 2
    assert c.used_colors() == {1, 2}


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Graph(3, [(0.7, 1)]), r"vertex 0\.7 on edge \(0\.7, 1\) is not an int"),
        (lambda: Graph(3, [(0, 2), (1, 2.0)]),
         r"vertex 2\.0 on edge \(1, 2\.0\) is not an int"),
        (lambda: Graph(3, [(True, 2)]), r"vertex True on edge \(True, 2\) is not an int"),
        (lambda: Graph(3, [("0", 1)]), r"vertex '0' on edge \('0', 1\) is not an int"),
        (lambda: EdgeColoring({(0, 1): 2.9}), r"color 2\.9 on edge \(0, 1\) is not an int"),
        (lambda: EdgeColoring({(0, 1): True}), r"color True on edge \(0, 1\) is not an int"),
        (lambda: EdgeColoring({(0, 1.5): 1}), r"vertex 1\.5 on edge \(0, 1\.5\) is not an int"),
        (lambda: EdgeColoring({(0, 1): 2}, num_colors=2.5),
         r"num_colors must be an int, got 2\.5"),
        (lambda: EdgeColoring({(0, 1): 1}, num_colors=True),
         r"num_colors must be an int, got True"),
    ],
)
def test_non_int_vertices_and_colors_are_rejected_not_floored(build, message):
    # int() would floor 2.9 to 2 and 0.7 to 0 and read True as 1.
    with pytest.raises(ValueError, match=message):
        build()


_P3 = path_graph(3)
_TWO_VERTICES = Graph(2, [])


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: io.read_graph("2 -1\n"), io.ParseError, "line 1: edge count must be >= 0, got -1"),
        (lambda: io.read_graph("3 1\n0 1\n1 2\n"), io.ParseError,
         "line 3: expected 1 edge lines, got 2"),
        (lambda: io.read_coloring("0 1 1\n1 2 2\n0 2 1\n", _P3), io.ParseError,
         "line 3: expected 2 lines, got 3"),
        (lambda: EdgeColoring({}), ValueError, "coloring must cover at least one edge"),
        (lambda: EdgeColoring({(0, 1): 1}, num_colors=0), ValueError,
         "num_colors=0 smaller than max used color 1"),
        (lambda: cycle_graph(2), ValueError, "cycle requires n >= 3, got 2"),
        (lambda: star_graph(0), ValueError, "star requires >= 1 leaf, got 0"),
        (lambda: complete_graph(0), ValueError, "complete graph requires n >= 1, got 0"),
        (lambda: complete_bipartite_graph(0, 1), ValueError,
         "complete bipartite requires m, n >= 1, got (0, 1)"),
        (lambda: random_tree(0), ValueError, "random tree requires n >= 1, got 0"),
        (lambda: random_2connected(2), ValueError,
         "random 2-connected graph requires n >= 3, got 2"),
        (lambda: random_2connected(4, 3), ValueError,
         "edge count m=3 must satisfy n <= m <= n(n-1)/2 = 6"),
        (lambda: random_2connected(4, 7), ValueError,
         "edge count m=7 must satisfy n <= m <= n(n-1)/2 = 6"),
        (lambda: generate(FamilySpec("complete_multipartite")), ValueError,
         "complete_multipartite requires parts"),
        (lambda: construct.color_tree(Graph(1, []), 2), ValueError,
         "tree coloring requires at least one edge"),
        (lambda: construct.color_wheel(5, 1), ValueError,
         "wheel coloring requires ell >= 2, got 1"),
        (lambda: construct.color_wheel(2, 2), ValueError, "wheel requires n >= 3, got 2"),
        (lambda: construct.color_hypercube(3, 1), ValueError,
         "hypercube coloring requires ell >= 2, got 1"),
        (lambda: construct.color_hypercube(0, 2), ValueError, "hypercube requires t >= 1, got 0"),
        (lambda: construct.color_join(_TWO_VERTICES, _P3), ValueError,
         "join coloring requires connected factors"),
        (lambda: construct.color_cartesian(_P3, _TWO_VERTICES), ValueError,
         "product coloring requires connected factors"),
        (lambda: construct.color_permutation_graph(_P3, (0, 1, 2), Permutation((2, 1)), 2),
         ValueError, "permutation length must match the vertex count"),
        (lambda: construct.balanced_split([1, 2]), ValueError,
         "balanced split requires at least 3 parts"),
        (lambda: structure.ear_decomposition(_P3), ValueError,
         "ear decomposition requires a 2-connected graph"),
        (lambda: structure.bfs_tree(_TWO_VERTICES, 0), ValueError,
         "BFS tree does not span the graph"),
        (lambda: structure.max_subtree_size_with_diameter(_P3, 0), ValueError,
         "diameter bound must be >= 1, got 0"),
        (lambda: exact.min_colors_exact(Graph(1, []), 2), ValueError,
         "exact search requires at least one edge"),
    ],
)
def test_input_errors_name_their_cause(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error and str(err.value) == message


def test_max_subtree_of_one_vertex_is_empty():
    t = Graph(1, [])
    assert structure.max_subtree_size_with_diameter(t, 2) == (0, t)


def test_int_subclass_vertices_and_colors_become_plain_ints():
    class Label(int):
        pass

    g = Graph(3, [(Label(2), Label(0))])
    c = EdgeColoring({(Label(0), Label(2)): Label(3)}, num_colors=Label(4))
    assert g.edges == ((0, 2),) and type(g.edges[0][0]) is int
    assert c.colors == {(0, 2): 3} and type(c.colors[(0, 2)]) is int
    assert type(c.num_colors) is int


def test_family_counts():
    assert (hypercube_graph(3).n, hypercube_graph(3).m) == (8, 12)
    assert (wheel_graph(5).n, wheel_graph(5).m) == (6, 10)
    assert (complete_bipartite_graph(2, 3).n, complete_bipartite_graph(2, 3).m) == (5, 6)
    assert path_graph(1).m == 0
    assert cycle_graph(3).m == 3
    assert star_graph(4).degree(0) == 4
    ds = double_star_graph(3, 4)
    assert (ds.degree(0), ds.degree(1), ds.n) == (3, 4, 7)
    assert complete_multipartite_graph([1, 1, 1]) == complete_graph(3)


def test_family_parameter_errors():
    with pytest.raises(ValueError):
        wheel_graph(2)
    with pytest.raises(ValueError):
        hypercube_graph(0)
    with pytest.raises(ValueError):
        double_star_graph(0, 2)
    with pytest.raises(ValueError):
        generate(FamilySpec("no_such_family", n=3))
    with pytest.raises(ValueError):
        generate(FamilySpec("wheel"))


@pytest.mark.parametrize("spec, name, value", [
    (FamilySpec("path", n=2.9), "n", 2.9),
    (FamilySpec("hypercube", t=True), "t", True),
    (FamilySpec("random_2connected", n=6, m=7.5), "m", 7.5),
    (FamilySpec("random_tree", n=6, seed=1.5), "seed", 1.5),
])
def test_generate_rejects_non_int_parameters(spec, name, value):
    # A float would be floored and a bool taken as 0 or 1.
    message = f"family '{spec.family}' parameter {name} must be an int, got {value!r}"
    with pytest.raises(ValueError, match=message):
        generate(spec)


def test_generate_dispatch_and_connectivity():
    specs = [
        FamilySpec("path", n=6),
        FamilySpec("cycle", n=6),
        FamilySpec("star", n=5),
        FamilySpec("wheel", n=7),
        FamilySpec("complete", n=5),
        FamilySpec("complete_bipartite", m=2, n=4),
        FamilySpec("complete_multipartite", parts=(1, 2, 3)),
        FamilySpec("hypercube", t=3),
        FamilySpec("double_star", n=3, m=4),
        FamilySpec("random_tree", n=9, seed=5),
        FamilySpec("random_2connected", n=7, m=10, seed=5),
    ]
    for spec in specs:
        g = generate(spec)
        assert is_connected(g), spec


def test_random_families_are_deterministic():
    assert random_tree(10, seed=3) == random_tree(10, seed=3)
    assert random_2connected(8, 12, seed=3) == random_2connected(8, 12, seed=3)
    assert random_tree(10, seed=3) != random_tree(10, seed=4)


def test_random_2connected_is_2_connected():
    for seed in range(10):
        g = random_2connected(6 + seed % 4, None, seed=seed)
        assert is_2_connected(g)


def test_join_counts():
    p2, p3 = path_graph(2), path_graph(3)
    assert join(p2, p2) == complete_graph(4)
    j = join(p3, p3)
    assert (j.n, j.m) == (6, 13)
    w4 = join(Graph(1), cycle_graph(4))
    assert (w4.n, w4.m) == (5, 8)


def test_cartesian_counts():
    p2, p3 = path_graph(2), path_graph(3)
    c4 = cartesian_product(p2, p2)
    assert (c4.n, c4.m) == (4, 4)
    assert all(c4.degree(v) == 2 for v in range(4))  # a 4-cycle
    assert (cartesian_product(p2, p3).n, cartesian_product(p2, p3).m) == (6, 7)
    k3 = complete_graph(3)
    assert cartesian_product(k3, k3).m == 18


def test_permutation_graph_counts():
    pg2 = permutation_graph(path_graph(2), Permutation((1, 2)))
    assert (pg2.n, pg2.m) == (4, 4)
    assert all(pg2.degree(v) == 2 for v in range(4))  # a 4-cycle
    pg = permutation_graph(path_graph(4), Permutation((2, 4, 1, 3)))
    assert (pg.n, pg.m) == (8, 10)
    prism = permutation_graph(cycle_graph(5), Permutation((1, 2, 3, 4, 5)))
    assert (prism.n, prism.m) == (10, 15)
    # matching edge v_i - u_{alpha(i)} for every i
    alpha = Permutation((2, 4, 1, 3))
    pg = permutation_graph(path_graph(4), alpha)
    for i in range(1, 5):
        assert pg.has_edge(i - 1, 4 + alpha(i) - 1)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        permutation_graph(path_graph(3), Permutation((1, 2)))


def test_operation_count_formulas_on_random_graphs():
    rng = random.Random(11)
    for _ in range(25):
        g = random_connected_graph(rng.randint(2, 6), rng)
        h = random_connected_graph(rng.randint(2, 6), rng)
        j = join(g, h)
        assert j.n == g.n + h.n
        assert j.m == g.m + h.m + g.n * h.n
        c = cartesian_product(g, h)
        assert c.n == g.n * h.n
        assert c.m == g.n * h.m + h.n * g.m
        image = list(range(1, g.n + 1))
        rng.shuffle(image)
        pg = permutation_graph(g, Permutation(tuple(image)))
        assert pg.n == 2 * g.n
        assert pg.m == 2 * g.m + g.n
