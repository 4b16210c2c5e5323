"""Tests for the matching relaxation and the distance-minimal dual program."""

import re
from fractions import Fraction

import pytest

from helpers import model_parts, split_dual_solution, tableau_state, weighted_deviation

from cpmatch import cpm
from cpmatch.cpm import solve_naive, solve_perturbed_reference, solve_unperturbed
from cpmatch.fixtures import altered_robot, cycling_graph, dancing_robot
from cpmatch.graphs import Graph
from cpmatch.linprog import EQ, GE, LinearProgramError, Optimal, Tableau, solve
from cpmatch.matchlp import (
    MatchingLpError,
    StageContext,
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


def fraction_stage_context(primal, x):
    """stage_context as it was written on rationals, each row summed and
    tested in Fraction arithmetic: the reference for the int version."""
    crossing = {var.name: [] for var in primal.variables}
    for e, value in x.items():
        if e not in crossing:
            raise MatchingLpError(f"vector names unknown edge {e}")
        if value < R0:
            raise MatchingLpError(f"negative value on edge {e}")
    keys = []
    for row in primal.rows:
        kind, key = row.id
        total = sum((x.get(e, R0) for e in row.coeffs), R0)
        if kind == "deg" and total != R1:
            raise MatchingLpError(f"vertex {key} has degree {total}, not 1")
        if kind == "cut" and total < R1:
            raise MatchingLpError(f"cut {sorted(key)} carries {total} < 1")
        if total == R1:
            keys.append(key)
            for e in row.coeffs:
                crossing[e].append(key)
    return StageContext(tuple(keys), [k for k in keys if isinstance(k, frozenset)], crossing,
                        {e for e in crossing if x.get(e, R0)})


def _outcome(read, primal, x):
    try:
        return read(primal, x)
    except MatchingLpError as exc:
        return str(exc)


def test_stage_context_matches_the_fraction_reading_on_the_fixtures():
    # The frozen iterates of the three fixtures, each over the family it was
    # solved with, and every (x, family) the three modes record on them.
    dr, ar = dancing_robot()[2], altered_robot()[2]
    frozen = {"dancing_robot": [(dr.iterate1, ()), (dr.iterate2, dr.family2),
                                (dr.iterate3, dr.family3)],
              "altered_robot": [(ar.iterate1, ()), (ar.iterate2, ar.family2)],
              "cycling": []}
    cases = 0
    for name, fixture in (("dancing_robot", dancing_robot), ("altered_robot", altered_robot),
                          ("cycling", cycling_graph)):
        g, sigma, _ = fixture()
        pairs = list(frozen[name])
        for solver in (solve_unperturbed, solve_perturbed_reference, solve_naive):
            pairs += [(rec.x, rec.family) for rec in solver(g, sigma).iterations]
        for x, family in pairs:
            primal = build_primal(g, g.cost_map(), family)
            ctx = _outcome(stage_context, primal, x)
            assert isinstance(ctx, StageContext)
            assert ctx == fraction_stage_context(primal, x)
            assert list(ctx.support) == list(fraction_stage_context(primal, x).support)
            cases += 1
    assert cases > 20
    # Each rejection keeps its message.
    g = square()
    for x in ({(0, 2): R1}, {(0, 1): -R1}, {(0, 1): R1}, {(0, 1): R1, (1, 2): HALF},
              {(0, 1): R1, (1, 2): R1, (2, 3): R1}):
        primal = build_primal(g, g.cost_map(), [])
        assert _outcome(stage_context, primal, x) == _outcome(fraction_stage_context, primal, x)


def two_bridged_triangles():
    """Triangles 0-1-2 and 3-4-5, joined by the edges (2, 3) and (1, 4)."""
    return Graph(6, ((0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1),
                     (2, 3, 1), (1, 4, 1)))


def test_stage_context_keeps_its_messages_on_fractional_sums():
    g = square()
    with pytest.raises(MatchingLpError, match="^vertex 1 has degree 3/2, not 1$"):
        context(g, {(0, 1): R1, (1, 2): HALF}, [])
    # x meets every degree row, but carries 1/4 + 1/4 across the cut of {0, 1, 2}.
    g = two_bridged_triangles()
    quarter, three_quarters = rat(1, 4), rat(3, 4)
    x = {(0, 1): three_quarters, (1, 2): quarter, (0, 2): quarter, (2, 3): HALF, (1, 4): R0,
         (3, 4): quarter, (3, 5): quarter, (4, 5): three_quarters}
    with pytest.raises(MatchingLpError, match=re.escape("cut [0, 1, 2] carries 1/2 < 1")):
        context(g, x, [{0, 1, 2}])


def test_stage_context_adds_and_compares_no_rationals(monkeypatch):
    # x is read as ints over one denominator: no row sum or test of
    # stage_context adds or compares a Fraction.
    g, _, exp = dancing_robot()
    primal = build_primal(g, g.cost_map(), [])
    assert HALF in exp.iterate1.values()
    counts = dict.fromkeys(["add", "compare"], 0)

    def counting(name, method):
        def wrapper(*args):
            counts[name] += 1
            return method(*args)
        return wrapper

    for method in ("__add__", "__radd__"):
        monkeypatch.setattr(Fraction, method, counting("add", getattr(Fraction, method)))
    for method in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, method, counting("compare", getattr(Fraction, method)))
    ctx = stage_context(primal, exp.iterate1)
    assert counts == {"add": 0, "compare": 0}
    # The counters do see rationals added and compared.
    assert HALF + HALF == R1 and counts == {"add": 1, "compare": 1}
    monkeypatch.undo()
    assert ctx == fraction_stage_context(primal, exp.iterate1)


def test_chained_primal_builds_share_the_degree_rows(monkeypatch):
    # Each iteration after the first builds its relaxation from the last
    # one's degree rows and variables, as objects; the model equals a fresh
    # build in every part, on every iteration of the fixtures in every mode.
    built, fresh = [], build_primal

    def chained(g, costs, family, last=None):
        assert last is (built[-1] if built else None)
        lp = fresh(g, costs, family, last)
        cold = fresh(g, costs, family)
        assert model_parts(lp) == model_parts(cold)
        assert lp.index == cold.index and lp.costs == cold.costs
        if last is not None:
            assert all(lp.rows[v] is last.rows[v] for v in range(g.n))
            assert all(a is b for a, b in zip(lp.variables, last.variables, strict=True))
        built.append(lp)
        return lp

    monkeypatch.setattr(cpm, "build_primal", chained)
    chains = 0
    for fixture in (dancing_robot, altered_robot, cycling_graph):
        g, sigma, _ = fixture()
        for solver in (solve_unperturbed, solve_perturbed_reference, solve_naive):
            del built[:]
            solver(g, sigma)
            assert len(built) >= 2
            chains += len(built) - 1
    assert chains > 10


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
    unknown = "variant names an unknown variable, row or relation"
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
