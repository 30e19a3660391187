import pytest
from hypothesis import given, settings, strategies as st

from pcc.graphs import EdgeColoring, Graph
from pcc.io import ParseError, read_coloring, read_graph, write_coloring, write_graph


def test_read_graph_p3():
    assert read_graph("3 2\n0 1\n1 2") == Graph(3, [(0, 1), (1, 2)])


def test_write_graph_p3():
    assert write_graph(Graph(3, [(0, 1), (1, 2)])) == "3 2\n0 1\n1 2\n"


def test_read_coloring_p3():
    g = read_graph("3 2\n0 1\n1 2")
    c = read_coloring("0 1 1\n1 2 2\n", g)
    assert c == EdgeColoring({(0, 1): 1, (1, 2): 2})
    assert c.num_colors == 2


@pytest.mark.parametrize(
    "text, line",
    [
        ("", 1),
        ("2", 1),
        ("3 2\n0 1", 3),
        ("3 1\nx y", 2),
        ("3 1\n0 5", 2),
        ("3 1\n1 0", 2),
        ("3 2\n0 1\n0 1", 3),
        ("1_1 2\n0 1\n1 +2\n", 1),
        ("11 2\n0 1\n1 +2\n", 3),
        ("3 2\n0 \u0661\n1 2\n", 2),
        ("3 2\n0 1\n1 \uff12\n", 3),
        ("3 1\n0 \u00b2", 2),
        ("3 1\n-0x1 1", 2),
        ("3 1\n0 --1", 2),
        ("3 1\n0 -", 2),
    ],
)
def test_graph_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        read_graph(text)
    assert err.value.line == line


def test_coloring_parse_errors():
    g = read_graph("3 2\n0 1\n1 2")
    with pytest.raises(ParseError) as err:
        read_coloring("0 1 1", g)
    assert err.value.line == 2  # uncolored edge
    with pytest.raises(ParseError):
        read_coloring("1 2 1\n0 1 1", g)  # order must match the graph file
    with pytest.raises(ParseError):
        read_coloring("0 1 0\n1 2 1", g)
    for text, line in [("0 1 1_0\n1 2 1", 1), ("0 1 1\n1 2 +1", 2),
                       ("0 1 1\n1 2 \u0661", 2), ("0 1 1\n1 2 1.0", 2)]:
        with pytest.raises(ParseError, match="non-integer field") as err:
            read_coloring(text, g)
        assert err.value.line == line
    with pytest.raises(ParseError, match="color must be >= 1, got -3") as err:
        read_coloring("0 1 1\n1 2 -3", g)
    assert err.value.line == 2
    with pytest.raises(ParseError, match="vertex count must be >= 1, got -3"):
        read_graph("-3 0\n")
    assert read_coloring("0 1 01\n1 2 2", g) == EdgeColoring({(0, 1): 1, (1, 2): 2})


def test_coloring_follows_ascending_edge_order_not_the_graph_file():
    # The graph file may list its edges in any order; a coloring follows
    # the graph's ascending edge order all the same.
    g = read_graph("3 2\n1 2\n0 1\n")
    assert g.edges == ((0, 1), (1, 2))
    assert read_coloring("0 1 2\n1 2 1\n", g) == EdgeColoring({(0, 1): 2, (1, 2): 1})
    with pytest.raises(ParseError) as err:
        read_coloring("1 2 1\n0 1 2\n", g)
    assert err.value.line == 1


@st.composite
def graphs_with_colorings(draw):
    n = draw(st.integers(min_value=1, max_value=50))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=60)) if possible else []
    g = Graph(n, edges)
    coloring = None
    if g.m:
        colors = draw(st.lists(st.integers(1, 5), min_size=g.m, max_size=g.m))
        coloring = EdgeColoring(dict(zip(g.edges, colors)))
    return g, coloring


@given(graphs_with_colorings())
@settings(max_examples=120, deadline=None)
def test_round_trip_identity(pair):
    g, coloring = pair
    assert read_graph(write_graph(g)) == g
    if coloring is not None:
        assert read_coloring(write_coloring(coloring, g), g) == coloring


def test_write_coloring_requires_total_map():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        write_coloring(EdgeColoring({(0, 1): 1}), g)
