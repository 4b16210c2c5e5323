"""Tests for the text graph format: parsing, errors, emission, round-trips."""

import random
from pathlib import Path

import pytest

from cpmatch.fixtures import altered_robot, cycling_graph, dancing_robot
from cpmatch.gen import random_matchable_graph, random_ordering
from cpmatch.graphio import ParseError, emit_graph, parse_graph
from cpmatch.graphs import EdgeOrdering, Graph, cut_edges, validate_cut_family

DATA = Path(__file__).resolve().parent.parent / "src" / "cpmatch" / "data"


def test_minimal_file():
    g, sigma = parse_graph("p edge 2 1\ne 0 1 7\n")
    assert g.n == 2 and g.m == 1
    assert g.edges == ((0, 1, 7),)
    assert sigma.rank == {(0, 1): 1}


def test_comments_blanks_and_explicit_ordering():
    text = """c a remark
c another remark

p edge 4 2

e 2 3 5
e 0 1 -4
o 0 1 1
o 2 3 2
"""
    g, sigma = parse_graph(text)
    assert g.edges == ((2, 3, 5), (0, 1, -4))
    assert sigma.rank == {(0, 1): 1, (2, 3): 2}


def test_default_ordering_is_file_order():
    g, sigma = parse_graph("p edge 4 2\ne 2 3 5\ne 0 1 4\n")
    assert sigma.rank == {(2, 3): 1, (0, 1): 2}


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("e 0 1 1\n", 1, "before the 'p edge' header"),
        ("p edge 2 1\np edge 2 1\n", 2, "repeated"),
        ("p graph 2 1\n", 1, "header must be"),
        ("p edge 2\n", 1, "header must be"),
        ("p edge -2 1\n", 1, "nonnegative"),
        ("p edge x 1\n", 1, "not an integer"),
        ("p edge 2 1\ne 0 0 1\n", 2, "loop at vertex 0"),
        ("p edge 2 2\ne 0 1 1\ne 1 0 2\n", 3, "duplicate edge"),
        ("p edge 2 1\ne 0 2 1\n", 2, "outside vertex range"),
        ("p edge 2 1\ne 0 1\n", 2, "edge line must be"),
        ("p edge 2 1\ne 0 1 1.5\n", 2, "not an integer"),
        ("p edge 2 1\nq 0 1 1\n", 2, "unknown line tag"),
        ("p edge 2 2\ne 0 1 1\n", 1, "declares 2 edges, file has 1"),
        ("p edge 3 2\ne 0 1 1\ne 1 2 1\no 0 1 1\no 1 0 2\n", 5, "ranked twice"),
        ("p edge 3 2\ne 0 1 1\ne 1 2 1\no 0 1 1\no 1 2 1\n", 5, "assigned twice"),
        ("p edge 2 1\ne 0 1 1\no 0 1 3\n", 3, "outside 1..1"),
        ("p edge 4 2\ne 0 1 1\ne 2 3 1\no 0 2 1\no 1 3 2\n", 4, "unknown edge"),
        ("p edge 4 2\ne 0 1 1\ne 2 3 1\no 0 1 1\n", 4, "covers 1 of 2"),
        ("c nothing here\n", 1, "missing 'p edge"),
        ("", 1, "missing 'p edge"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, message):
    with pytest.raises(ParseError, match=message) as info:
        parse_graph(text)
    assert info.value.line_no == line


def test_fixture_round_trips():
    for fn in (dancing_robot, altered_robot, cycling_graph):
        g, sigma, _ = fn()
        text = emit_graph(g, sigma, comments=["fixture"])
        g2, sigma2 = parse_graph(text)
        assert g2 == g
        assert sigma2 == sigma
        # Fixture files carry sigma as the e-line order, so no o lines.
        assert " o " not in f" {text}"


def test_round_trip_with_shuffled_ordering():
    rng = random.Random(13)
    for _ in range(10):
        g = random_matchable_graph(8, 14, 9, rng)
        sigma = random_ordering(g, rng)
        text = emit_graph(g, sigma)
        g2, sigma2 = parse_graph(text)
        assert g2 == g and sigma2 == sigma


def test_round_trip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def instances(draw):
        """A graph on n <= 12 vertices: any edge subset, in any file order
        and orientation, costs in -50..50, any edge ordering, and comments
        of arbitrary text."""
        n = draw(st.integers(0, 12))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        edges = tuple((*(e[::-1] if draw(st.booleans()) else e), draw(st.integers(-50, 50)))
                      for e in chosen)
        sigma = EdgeOrdering.from_sequence(draw(st.permutations(chosen)))
        return Graph(n, edges), sigma, draw(st.lists(st.text()))

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(instances())
    def round_trip(case):
        g, sigma, comments = case
        assert parse_graph(emit_graph(g, sigma, comments)) == (g, sigma)

    round_trip()


def test_emit_requires_matching_ordering():
    g = Graph(4, ((0, 1, 1), (2, 3, 1)))
    other = EdgeOrdering.from_sequence([(0, 1), (2, 3), (1, 2)])
    with pytest.raises(Exception, match="cover"):
        emit_graph(g, other)


def test_shipped_data_files_match_fixtures():
    """The fixtures read their graphs from the shipped files, so check the
    files against the frozen expectations: unit costs, every edge those name
    is an edge of the file, and every x vector has exactly the file's edges
    as keys (fixtures._vector adds a key for an unknown edge)."""
    for name, fn, size in [
        ("dancing_robot", dancing_robot, (16, 20)),
        ("altered_robot", altered_robot, (20, 25)),
        ("cycling", cycling_graph, (10, 18)),
    ]:
        g, sigma, exp = fn()
        assert (g, sigma) == parse_graph((DATA / f"{name}.g").read_text(encoding="utf-8"))
        assert (g.n, g.m) == size
        assert {cost for _, _, cost in g.edges} == {1}
        edges = set(g.edge_pairs())
        vectors = [v for v in vars(exp).values() if isinstance(v, dict)]
        families = [f for k, f in vars(exp).items() if k.startswith("family")]
        assert len(vectors) == (3 if name == "dancing_robot" else 2)
        for x in vectors:
            assert set(x) == edges
        for family in families:
            validate_cut_family(g, family)
        if name != "cycling":
            assert exp.matching <= edges and len(exp.matching) == g.n // 2
            assert set().union(*exp.matching) == set(range(g.n))
    g, _, exp = altered_robot()
    assert exp.nine_set_crossings == cut_edges(g, exp.nine_set)
    assert exp.nine_set_support_crossings < exp.nine_set_crossings
