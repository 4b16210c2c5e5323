"""Tests for the three counterexample fixtures and their frozen expectations.

The edge lists are pinned by checksum; the expected iterates are checked for
exact feasibility against the relaxations they are documented to solve.
"""

import hashlib

from cpmatch.fixtures import altered_robot, cycling_graph, dancing_robot
from cpmatch.graphs import cut_edges, odd_cycles, support
from cpmatch.matchlp import build_primal, stage_context
from cpmatch.oracle import brute_force_matchings, lex_tie_break
from cpmatch.rationals import rat

THIRD = rat(1, 3)
TWO_THIRDS = rat(2, 3)
FIFTH = rat(1, 5)

CHECKSUMS = {
    "dancing": "c712c83b46b814939ca6730bb1aae8ae89ebce6afbd09f35f3716f6331bc6eb4",
    "altered": "acf5644f8a7560921e26dc165effa8a400da8bb55050ff0504e9f024845e1893",
    "cycling": "4461f1135410748010f9f527f42841e9a5738f96c4c08549bfe9ae090117f64b",
}


def check_feasible(g, x, family):
    """Raise MatchingLpError unless x is feasible for the relaxation over
    family (stage_context checks every row of the primal model)."""
    stage_context(build_primal(g, g.cost_map(), family), x)


def edge_list_digest(g):
    canonical = "\n".join(f"{u} {v} {c}" for u, v, c in g.edges)
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_dancing_robot_shape():
    g, sigma, exp = dancing_robot()
    assert g.n == 16 and g.m == 20
    assert all(c == 1 for _, _, c in g.edges)
    assert sigma.rank[(1, 5)] == 1
    assert sigma.rank[(13, 15)] == 20
    assert edge_list_digest(g) == CHECKSUMS["dancing"]


def test_altered_robot_shape():
    g, sigma, exp = altered_robot()
    assert g.n == 20 and g.m == 25
    assert all(c == 1 for _, _, c in g.edges)
    assert sigma.rank[(1, 5)] == 1
    assert edge_list_digest(g) == CHECKSUMS["altered"]


def test_cycling_graph_shape():
    g, sigma, exp = cycling_graph()
    assert g.n == 10 and g.m == 18
    assert all(c == 1 for _, _, c in g.edges)
    assert sigma.rank[(5, 9)] == 1
    assert sigma.rank[(4, 8)] == 18
    assert edge_list_digest(g) == CHECKSUMS["cycling"]


def test_fixture_minimum_costs_and_tie_breaks():
    for fn in (dancing_robot, altered_robot, cycling_graph):
        g, sigma, exp = fn()
        best, matchings = brute_force_matchings(g)
        assert best == exp.min_cost
        if hasattr(exp, "matching"):
            assert exp.matching in matchings
            assert exp.matching == lex_tie_break(matchings, sigma)


def test_dancing_robot_expected_iterates_are_feasible():
    g, _, exp = dancing_robot()
    check_feasible(g, exp.iterate1, [])
    check_feasible(g, exp.iterate2, exp.family2)
    check_feasible(g, exp.iterate3, exp.family3)
    assert odd_cycles(g, exp.iterate1) == [(5, 13, 15), (10, 11, 14)]
    # Each iterate's odd cycles are exactly the sets of the next family.
    assert {frozenset(c) for c in odd_cycles(g, exp.iterate1)} == set(exp.family2)
    assert {frozenset(c) for c in odd_cycles(g, exp.iterate2)} == set(exp.family3)


def test_dancing_robot_iterate3_has_thirds():
    g, _, exp = dancing_robot()
    values = set(exp.iterate3.values())
    assert THIRD in values and TWO_THIRDS in values


def test_altered_robot_expected_iterates_are_feasible():
    g, _, exp = altered_robot()
    check_feasible(g, exp.iterate1, [])
    check_feasible(g, exp.iterate2, exp.family2)


def test_altered_robot_nine_set_crossings():
    g, _, exp = altered_robot()
    assert len(exp.nine_set) == 9
    crossings = cut_edges(g, exp.nine_set)
    assert crossings == exp.nine_set_crossings
    assert len(crossings) == 6
    # Five of the six crossings carry the 1/5 values; the remaining edge is
    # (2, 13). Membership in the actual third iterate is checked in the
    # solver tests, where that iterate exists.
    assert exp.nine_set_support_crossings < crossings
    assert len(exp.nine_set_support_crossings) == 5
    assert crossings - exp.nine_set_support_crossings == {(2, 13)}


def test_cycling_expected_supports():
    g, _, exp = cycling_graph()
    check_feasible(g, exp.iterate_a, [])
    check_feasible(g, exp.iterate_b, [])
    # Each support recurs against the family built from the other iterate.
    check_feasible(g, exp.iterate_a, exp.family_from_b)
    check_feasible(g, exp.iterate_b, exp.family_from_a)
    assert {frozenset(c) for c in odd_cycles(g, exp.iterate_a)} == set(exp.family_from_a)
    assert {frozenset(c) for c in odd_cycles(g, exp.iterate_b)} == set(exp.family_from_b)
    assert exp.detected_at == 4 and exp.repeat_of == 2
    assert support(exp.iterate_a) != support(exp.iterate_b)
