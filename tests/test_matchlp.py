"""Tests for the matching relaxation and the distance-minimal dual program."""

import pytest

from cpmatch.graphs import EdgeOrdering, Graph
from cpmatch.linprog import EQ, GE, Optimal, solve
from cpmatch.matchlp import (
    MatchingLpError,
    build_closest_dual,
    build_primal,
    canonical_sets,
    check_primal_feasible,
    split_dual_solution,
    stage_context,
    stage_cost,
    tight_sets,
    weighted_deviation,
)
from cpmatch.rationals import HALF, R0, R1, rat


def square():
    return Graph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)))


def bridged_triangles():
    return Graph(
        6,
        ((0, 1, 1), (1, 2, 2), (0, 2, 2), (2, 3, 3), (3, 4, 2), (4, 5, 1), (3, 5, 2)),
    )


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
    assert tight_sets(g, matching, [s]) == [s]
    halves = {
        (0, 1): HALF, (1, 2): HALF, (0, 2): HALF,
        (3, 4): HALF, (4, 5): HALF, (3, 5): HALF,
    }
    assert tight_sets(g, halves, [s]) == []


def test_check_primal_feasible_rejections():
    g = square()
    good = {(0, 1): R1, (2, 3): R1}
    check_primal_feasible(g, good, [])
    with pytest.raises(MatchingLpError, match="unknown edge"):
        check_primal_feasible(g, {(0, 2): R1}, [])
    with pytest.raises(MatchingLpError, match="negative"):
        check_primal_feasible(g, {(0, 1): -R1}, [])
    with pytest.raises(MatchingLpError, match="degree"):
        check_primal_feasible(g, {(0, 1): R1}, [])
    g2 = bridged_triangles()
    halves = {
        (0, 1): HALF, (1, 2): HALF, (0, 2): HALF,
        (3, 4): HALF, (4, 5): HALF, (3, 5): HALF,
    }
    with pytest.raises(MatchingLpError, match="carries 0 < 1"):
        check_primal_feasible(g2, halves, [{0, 1, 2}])


def test_stage_costs():
    g = square()
    sigma = EdgeOrdering.from_sequence([(1, 2), (0, 1), (2, 3), (0, 3)])
    costs = {(0, 1): 5, (1, 2): 7, (2, 3): 1, (0, 3): 2}
    assert stage_cost(g, costs, sigma, 0) == {
        (0, 1): rat(5), (1, 2): rat(7), (2, 3): rat(1), (0, 3): rat(2)
    }
    assert stage_cost(g, costs, sigma, 1) == {
        (0, 1): R0, (1, 2): R1, (2, 3): R0, (0, 3): R0
    }
    assert stage_cost(g, costs, sigma, 4) == {
        (0, 1): R0, (1, 2): R0, (2, 3): R0, (0, 3): R1
    }


def test_closest_dual_feasible_points_are_optimal_duals():
    g = bridged_triangles()
    s = frozenset({0, 1, 2})
    x = {(0, 1): R1, (2, 3): R1, (4, 5): R1}
    lp = build_closest_dual(stage_context(g, x, [s]), g.cost_map(), target={})
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
    out = solve(build_closest_dual(stage_context(g, x, []), g.cost_map(), target))
    pi, r = split_dual_solution(out.x)
    # The all-halves potential is itself an optimal dual, so the distance is 0.
    assert out.objective == R0
    assert pi == {0: HALF, 1: HALF, 2: HALF, 3: HALF}
    assert all(value == R0 for value in r.values())


def test_closest_dual_respects_nonsupport_capacities():
    g = Graph(4, ((0, 1, 1), (2, 3, 1), (0, 2, 0)))
    x = {(0, 1): R1, (2, 3): R1, (0, 2): R0}
    out = solve(build_closest_dual(stage_context(g, x, []), g.cost_map(), target={0: rat(9)}))
    pi, _ = split_dual_solution(out.x)
    # pi(0) wants to reach 9 but the zero-cost non-support edge caps pi(0)+pi(2).
    assert pi[0] + pi[2] <= R0
    assert pi[0] + pi[1] == R1
    assert pi[2] + pi[3] == R1


def test_stage_context_validation():
    g = bridged_triangles()
    s = frozenset({0, 1, 2})
    x = {(0, 1): R1, (2, 3): R1, (4, 5): R1}
    cm = g.cost_map()
    ctx = stage_context(g, x, [s])
    ctx.dropped_edges = {(0, 1)}
    with pytest.raises(MatchingLpError, match="support edge"):
        build_closest_dual(ctx, cm, {})
    ctx = stage_context(g, x, [])
    ctx.free_sets = {s}
    with pytest.raises(MatchingLpError, match="frees a set"):
        build_closest_dual(ctx, cm, {})
    ctx = stage_context(g, x, [s])
    ctx.dropped_lo = {frozenset({9})}
    with pytest.raises(MatchingLpError, match="unknown dual key"):
        build_closest_dual(ctx, cm, {})


def test_dropped_rows_loosen_the_distance():
    g = square()
    x = {(0, 1): R1, (2, 3): R1, (1, 2): R0, (0, 3): R0}
    target = {0: rat(2)}
    plain = solve(build_closest_dual(stage_context(g, x, []), g.cost_map(), target))
    ctx = stage_context(g, x, [])
    ctx.dropped_lo, ctx.dropped_hi = {0}, {0}
    dropped = solve(build_closest_dual(ctx, g.cost_map(), target))
    # With vertex 0's distance rows gone its deviation no longer costs anything.
    assert dropped.objective <= plain.objective
    pi, r = split_dual_solution(dropped.x)
    assert r[0] == R0


def test_weighted_deviation_sizes():
    s = frozenset({0, 1, 2})
    target = {0: R1, s: rat(2)}
    pi = {0: R0, s: R0}
    assert weighted_deviation(target, pi) == R1 + rat(2, 3)
