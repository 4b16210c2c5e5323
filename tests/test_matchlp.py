"""Tests for the matching relaxation and the distance-minimal dual program."""

import re

import pytest

from helpers import split_dual_solution, tableau_state, weighted_deviation

from cpmatch.graphs import Graph
from cpmatch.linprog import EQ, GE, LinearProgramError, Optimal, Tableau, solve
from cpmatch.matchlp import (
    MatchingLpError,
    build_closest_dual,
    build_primal,
    canonical_sets,
    stage_context,
)
from cpmatch.rationals import HALF, R0, R1, rat


def square():
    return Graph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)))


def bridged_triangles():
    return Graph(
        6,
        ((0, 1, 1), (1, 2, 2), (0, 2, 2), (2, 3, 3), (3, 4, 2), (4, 5, 1), (3, 5, 2)),
    )


def context(g, x, family):
    """The stage context of x, read off the relaxation of g over family."""
    return stage_context(build_primal(g, g.cost_map(), family), x)


def test_canonical_sets_order():
    family = [frozenset({4, 5, 6}), frozenset({0, 1, 2, 3, 4}), frozenset({0, 1, 2})]
    assert canonical_sets(family) == [
        frozenset({0, 1, 2}),
        frozenset({0, 1, 2, 3, 4}),
        frozenset({4, 5, 6}),
    ]


def test_primal_of_square_is_four_equality_rows():
    g = square()
    lp = build_primal(g, g.cost_map(), [])
    assert len(lp.rows) == 4
    assert all(row.relation == EQ and row.rhs == R1 for row in lp.rows)
    assert [row.id for row in lp.rows] == [("deg", v) for v in range(4)]
    out = solve(lp)
    assert isinstance(out, Optimal)
    assert out.objective == 2


def test_primal_cut_rows_follow_degree_rows():
    g = bridged_triangles()
    s = frozenset({0, 1, 2})
    lp = build_primal(g, g.cost_map(), [s])
    assert [row.id for row in lp.rows[:6]] == [("deg", v) for v in range(6)]
    cut_row = lp.rows[6]
    assert cut_row.id == ("cut", s)
    assert cut_row.relation == GE and cut_row.rhs == R1
    assert cut_row.coeffs == {(2, 3): R1}


def test_tight_sets():
    g = bridged_triangles()
    s = frozenset({0, 1, 2})
    matching = {(0, 1): R1, (2, 3): R1, (4, 5): R1}
    ctx = context(g, matching, [s])
    assert ctx.tight == [s]
    assert ctx.keys == (0, 1, 2, 3, 4, 5, s)
    # Each edge lists its endpoints, then the tight sets it crosses.
    assert ctx.crossing == {
        (0, 1): [0, 1], (1, 2): [1, 2], (0, 2): [0, 2], (2, 3): [2, 3, s],
        (3, 4): [3, 4], (4, 5): [4, 5], (3, 5): [3, 5],
    }
    assert ctx.support == {(0, 1), (2, 3), (4, 5)}
    # Triangles joined by three edges: the matching on those edges carries 3
    # across the cut, so the cut row is slack and s gets no dual key.
    g = Graph(6, ((0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1),
                  (0, 3, 1), (1, 4, 1), (2, 5, 1)))
    across = {(0, 3): R1, (1, 4): R1, (2, 5): R1}
    ctx = context(g, across, [s])
    assert ctx.tight == []
    assert ctx.keys == (0, 1, 2, 3, 4, 5)
    assert ctx.crossing[(0, 3)] == [0, 3]


def test_check_primal_feasible_rejections():
    g = square()
    good = {(0, 1): R1, (2, 3): R1}
    context(g, good, [])
    with pytest.raises(MatchingLpError, match="unknown edge"):
        context(g, {(0, 2): R1}, [])
    with pytest.raises(MatchingLpError, match="negative"):
        context(g, {(0, 1): -R1}, [])
    with pytest.raises(MatchingLpError, match="degree"):
        context(g, {(0, 1): R1}, [])
    with pytest.raises(MatchingLpError, match="vertex 1 has degree 2, not 1"):
        context(g, {(0, 1): R1, (1, 2): R1, (2, 3): R1}, [])
    g2 = bridged_triangles()
    halves = {
        (0, 1): HALF, (1, 2): HALF, (0, 2): HALF,
        (3, 4): HALF, (4, 5): HALF, (3, 5): HALF,
    }
    with pytest.raises(MatchingLpError, match="carries 0 < 1"):
        context(g2, halves, [{0, 1, 2}])


def test_closest_dual_feasible_points_are_optimal_duals():
    g = bridged_triangles()
    s = frozenset({0, 1, 2})
    x = {(0, 1): R1, (2, 3): R1, (4, 5): R1}
    lp = build_closest_dual(context(g, x, [s]), g.cost_map(), target={})
    out = solve(lp)
    assert isinstance(out, Optimal)
    pi, r = split_dual_solution(out.x)
    # Any feasible point is an optimal dual, so its value matches the primal.
    assert sum(pi[v] for v in range(g.n)) + pi[s] == 5
    # Tight rows pin the support exactly.
    assert pi[0] + pi[1] == 1
    assert pi[2] + pi[3] + pi[s] == 3
    assert pi[4] + pi[5] == 1
    assert pi[s] >= R0
    # At the optimum each r is exactly the deviation it bounds.
    for k in list(range(g.n)) + [s]:
        assert r[k] == abs(pi[k])
    assert out.objective == weighted_deviation({}, pi)


def test_closest_dual_tracks_target():
    g = square()
    x = {(0, 1): R1, (2, 3): R1, (1, 2): R0, (0, 3): R0}
    target = {0: HALF, 1: HALF, 2: HALF, 3: HALF}
    out = solve(build_closest_dual(context(g, x, []), g.cost_map(), target))
    pi, r = split_dual_solution(out.x)
    # The all-halves potential is itself an optimal dual, so the distance is 0.
    assert out.objective == R0
    assert pi == {0: HALF, 1: HALF, 2: HALF, 3: HALF}
    assert all(value == R0 for value in r.values())


def test_closest_dual_respects_nonsupport_capacities():
    g = Graph(4, ((0, 1, 1), (2, 3, 1), (0, 2, 0)))
    x = {(0, 1): R1, (2, 3): R1, (0, 2): R0}
    out = solve(build_closest_dual(context(g, x, []), g.cost_map(), target={0: rat(9)}))
    pi, _ = split_dual_solution(out.x)
    # pi(0) wants to reach 9 but the zero-cost non-support edge caps pi(0)+pi(2).
    assert pi[0] + pi[2] <= R0
    assert pi[0] + pi[1] == R1
    assert pi[2] + pi[3] == R1


def test_stage_chain_misuse_raises_before_a_wrong_model_is_solved():
    g = bridged_triangles()
    s = frozenset({0, 1, 2})
    x = {(0, 1): R1, (2, 3): R1, (4, 5): R1}
    cm = g.cost_map()
    ctx = context(g, x, [s])
    first = build_closest_dual(ctx, cm, {})
    unknown = "variant names an unknown sense, variable, row or relation"
    # A support edge gets a ("tight", e) equality, never an ("edge", e) row,
    # and frozenset({9}) is no dual key.
    for row in (("edge", (0, 1)), ("lo", frozenset({9}))):
        with pytest.raises(LinearProgramError, match=re.escape(unknown)):
            build_closest_dual(ctx, cm, {}, first, drop=[row])
    # Without a family s has no tight cut row, so no pi variable to free.
    plain = context(g, x, [])
    with pytest.raises(LinearProgramError, match=re.escape(unknown)):
        build_closest_dual(plain, cm, {}, build_closest_dual(plain, cm, {}), free=[s])
    # Dropping the equality is a model linprog builds, but the warm solve
    # refuses it before the tableau changes.
    tab = Tableau()
    assert isinstance(solve(first, start=tab), Optimal)
    wrong = build_closest_dual(ctx, cm, {}, first, drop=[("tight", (0, 1))])
    before = tableau_state(tab)
    with pytest.raises(LinearProgramError, match="start= takes a variant of the last model"):
        solve(wrong, start=tab)
    assert tableau_state(tab) == before


def test_dropped_rows_loosen_the_distance():
    g = square()
    x = {(0, 1): R1, (2, 3): R1, (1, 2): R0, (0, 3): R0}
    target = {0: rat(2)}
    ctx = context(g, x, [])
    first = build_closest_dual(ctx, g.cost_map(), target)
    plain = solve(first)
    lp = build_closest_dual(ctx, g.cost_map(), target, first, drop=[("lo", 0), ("hi", 0)])
    assert not {("lo", 0), ("hi", 0)} & {row.id for row in lp.rows}
    assert ("lo", 1) in {row.id for row in lp.rows}
    dropped = solve(lp)
    # With vertex 0's distance rows gone its deviation no longer costs anything.
    assert dropped.objective <= plain.objective
    pi, r = split_dual_solution(dropped.x)
    assert r[0] == R0


def test_weighted_deviation_sizes():
    s = frozenset({0, 1, 2})
    target = {0: R1, s: rat(2)}
    pi = {0: R0, s: R0}
    assert weighted_deviation(target, pi) == R1 + rat(2, 3)
