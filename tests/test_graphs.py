"""Tests for graph construction, orderings, cuts, and odd-cycle structure."""

import random

import pytest

from cpmatch.graphs import (
    EdgeOrdering,
    Graph,
    GraphError,
    HalfIntegralityViolation,
    StructureViolation,
    cut_edges,
    is_laminar,
    normalize_edge,
    odd_cycles,
    support,
    validate_cut_family,
    vector_is_integral,
)
from cpmatch.rationals import HALF, rat


def triangle_pair():
    return Graph(6, ((0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)))


def test_edges_are_normalized_and_order_preserved():
    g = Graph(4, ((3, 0, 5), (1, 2, -2)))
    assert g.edges == ((0, 3, 5), (1, 2, -2))
    assert g.m == 2
    assert g.edge_pairs() == ((0, 3), (1, 2))
    assert g.cost_map() == {(0, 3): 5, (1, 2): -2}


def test_construction_rejects_bad_edges():
    with pytest.raises(GraphError, match="loop"):
        Graph(3, ((1, 1, 1),))
    with pytest.raises(GraphError, match="duplicate"):
        Graph(3, ((0, 1, 1), (1, 0, 2)))
    with pytest.raises(GraphError, match="range"):
        Graph(3, ((0, 3, 1),))
    with pytest.raises(GraphError, match="cost"):
        Graph(3, ((0, 1, rat(1, 2)),))
    with pytest.raises(GraphError, match="nonnegative"):
        Graph(-1, ())


def test_ordering_bijection_checks():
    g = Graph(4, ((0, 1, 1), (2, 3, 1)))
    sigma = EdgeOrdering.from_sequence([(2, 3), (1, 0)])
    assert sigma.rank == {(2, 3): 1, (0, 1): 2}
    assert sigma.order() == [(2, 3), (0, 1)]
    sigma.validate_for(g)
    with pytest.raises(GraphError, match="bijection"):
        EdgeOrdering({(0, 1): 1, (2, 3): 3})
    with pytest.raises(GraphError, match="cover"):
        EdgeOrdering({(0, 1): 1}).validate_for(g)


def test_cut_edges():
    g = triangle_pair()
    assert cut_edges(g, {0}) == {(0, 1), (0, 2)}
    assert cut_edges(g, {0, 1, 2}) == frozenset()
    assert cut_edges(g, {0, 3}) == {(0, 1), (0, 2), (3, 4), (3, 5)}
    with pytest.raises(GraphError, match="range"):
        cut_edges(g, {9})


def test_laminarity():
    assert is_laminar([])
    assert is_laminar([{0, 1, 2}, {3, 4}, {0, 1}])
    assert not is_laminar([{0, 1, 2}, {2, 3, 4}])


def test_validate_cut_family():
    g = Graph(8, tuple((i, (i + 1) % 8, 1) for i in range(8)))
    sets = validate_cut_family(g, [{0, 1, 2}, {4, 5, 6}])
    assert sets == [frozenset({0, 1, 2}), frozenset({4, 5, 6})]
    with pytest.raises(GraphError, match="even"):
        validate_cut_family(g, [{0, 1}])
    with pytest.raises(GraphError, match="size"):
        validate_cut_family(g, [{0}])
    with pytest.raises(GraphError, match="size"):
        validate_cut_family(g, [{0, 1, 2, 3, 4, 5, 6}])
    with pytest.raises(GraphError, match="range"):
        validate_cut_family(g, [{0, 1, 9}])
    with pytest.raises(GraphError, match="laminar"):
        validate_cut_family(g, [{0, 1, 2}, {2, 3, 4}])


def test_support_and_integrality():
    x = {(0, 1): rat(0), (1, 2): HALF, (2, 3): rat(1)}
    assert support(x) == {(1, 2), (2, 3)}
    assert not vector_is_integral(x)
    assert vector_is_integral({(0, 1): rat(1), (1, 2): rat(0)})


def test_odd_cycles_on_two_triangles():
    g = triangle_pair()
    x = {e: HALF for e in g.edge_pairs()}
    assert odd_cycles(g, x) == [(0, 1, 2), (3, 4, 5)]


def test_odd_cycles_ignores_integral_edges():
    g = Graph(5, ((0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1)))
    x = {(0, 1): HALF, (1, 2): HALF, (0, 2): HALF, (3, 4): rat(1)}
    assert odd_cycles(g, x) == [(0, 1, 2)]


def test_odd_cycles_canonical_orientation():
    # 5-cycle 0-4-1-3-2-0: starts at 0 and walks toward the smaller neighbor.
    g = Graph(5, ((0, 4, 1), (4, 1, 1), (1, 3, 1), (3, 2, 1), (2, 0, 1)))
    x = {e: HALF for e in g.edge_pairs()}
    assert odd_cycles(g, x) == [(0, 2, 3, 1, 4)]


def test_odd_cycles_rejects_other_denominators():
    g = Graph(2, ((0, 1, 1),))
    with pytest.raises(HalfIntegralityViolation) as info:
        odd_cycles(g, {(0, 1): rat(1, 3)})
    assert info.value.edge == (0, 1)
    assert info.value.value == rat(1, 3)
    assert "1/3" in str(info.value)


def test_odd_cycles_rejects_bad_degrees_and_even_cycles():
    g = Graph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1), (0, 2, 1)))
    star = {(0, 1): HALF, (0, 2): HALF, (0, 3): HALF}
    with pytest.raises(StructureViolation, match="meets 3 half edges"):
        odd_cycles(g, star)
    square = {(0, 1): HALF, (1, 2): HALF, (2, 3): HALF, (0, 3): HALF}
    with pytest.raises(StructureViolation, match="even cycle"):
        odd_cycles(g, square)


def test_odd_cycles_random_unions_decompose_exactly():
    rng = random.Random(2024)
    for _ in range(40):
        sizes = [rng.choice([3, 5, 7]) for _ in range(rng.randint(1, 3))]
        n = sum(sizes)
        labels = list(range(n))
        rng.shuffle(labels)
        edges = []
        expected_vertex_sets = []
        base = 0
        for size in sizes:
            cycle = labels[base : base + size]
            base += size
            expected_vertex_sets.append(frozenset(cycle))
            edges.extend(
                normalize_edge(cycle[i], cycle[(i + 1) % size]) for i in range(size)
            )
        g = Graph(n, tuple((u, v, 1) for u, v in edges))
        x = {e: HALF for e in g.edge_pairs()}
        cycles = odd_cycles(g, x)
        assert sorted(len(c) for c in cycles) == sorted(sizes)
        assert {frozenset(c) for c in cycles} == set(expected_vertex_sets)
        starts = [c[0] for c in cycles]
        assert starts == sorted(starts)
        for c in cycles:
            assert c[0] == min(c)
            assert c[1] == min(c[1], c[-1])
