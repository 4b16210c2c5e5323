"""Tests for the staged-cost solver that replaces explicit perturbation."""

import hashlib
import random

import pytest

from helpers import random_perturbed_pair, sequential_stage_minima

import cpmatch
from cpmatch import errors, lexmin, perturb
from cpmatch.errors import StageSolveError
from cpmatch.fixtures import dancing_robot
from cpmatch.gen import random_matchable_graph, random_ordering
from cpmatch.lexmin import lex_min_optimal
from cpmatch.linprog import EQ, GE, LinearProgram
from cpmatch.matchlp import build_primal
from cpmatch.perturb import (
    DualSeries,
    PerturbedPair,
    SignViolation,
    series_first_sign,
    solve_perturbed_pair,
)
from cpmatch.rationals import R0, rat


def worked_pair():
    return PerturbedPair.build(
        a=[[1, 0, 1], [0, 1, 2]],
        b=[1, 1],
        costs=[[1, 1, 3], [4, 2, 0], [-2, -1, 1]],
        nonneg={0, 1},
    )


def test_worked_example_exact():
    sol = solve_perturbed_pair(worked_pair())
    half = rat(1, 2)
    assert sol.x == (half, rat(0), half)
    assert sol.stages[0].y == {0: rat(1), 1: rat(1)}
    assert sol.stages[1].y == {0: rat(4), 1: rat(-2)}
    assert sol.stages[2].y == {0: rat(-2), 1: rat(3, 2)}


def test_worked_example_stage_bookkeeping():
    sol = solve_perturbed_pair(worked_pair())
    s0, s1, s2 = sol.stages
    assert s0.kept_columns == (0, 1, 2) and s0.equality_rows == frozenset()
    # Both stage-0 duals are nonzero, so both rows become equalities; no dual
    # slack anywhere, so no column is dropped yet.
    assert s1.kept_columns == (0, 1, 2) and s1.equality_rows == {0, 1}
    # Stage 1 leaves strict slack on column 1 (reduced cost 2 - (-2) = 4 > 0).
    assert s2.kept_columns == (0, 2) and s2.equality_rows == {0, 1}
    assert [s.objective for s in sol.stages] == [rat(2), rat(2), rat(-1, 2)]
    assert sol.series.row_series(0) == (rat(1), rat(4), rat(-2))
    assert sol.series.row_series(1) == (rat(1), rat(-2), rat(3, 2))
    assert series_first_sign(sol.series.row_series(0)) > 0
    assert series_first_sign(sol.series.row_series(1)) > 0


def test_single_stage_pair():
    pair = PerturbedPair.build(
        a=[[1, 1]], b=[2], costs=[[1, 3]], nonneg={0, 1}
    )
    sol = solve_perturbed_pair(pair)
    assert sol.x == (rat(2), rat(0))
    assert len(sol.stages) == 1
    assert sol.stages[0].objective == 2


def test_series_helpers():
    assert series_first_sign((R0, rat(-1), rat(2))) == -1
    assert series_first_sign((R0, R0)) == 0
    assert series_first_sign((rat(2), rat(-5))) == 1
    series = DualSeries(({0: R0}, {0: rat(3)}))
    assert series.row_series(0) == (R0, rat(3))
    assert series_first_sign(series.row_series(0)) > 0
    assert not series_first_sign(DualSeries(({0: R0},)).row_series(0)) > 0


def test_sign_violation_message():
    err = SignViolation(("row", 2), (R0, rat(-1)))
    assert "row" in str(err) and "-1" in str(err)
    assert err.series == (R0, rat(-1))


def test_sign_violation_is_one_class():
    assert cpmatch.SignViolation is errors.SignViolation is perturb.SignViolation
    assert issubclass(errors.SignViolation, errors.InvariantViolation)


def test_build_validation():
    with pytest.raises(ValueError, match="column counts"):
        PerturbedPair.build(a=[[1, 2], [1]], b=[1, 1], costs=[[1, 2]], nonneg=set())
    with pytest.raises(ValueError, match="column counts"):
        PerturbedPair.build(a=[[1, 2]], b=[1], costs=[[1, 2, 3]], nonneg=set())
    with pytest.raises(ValueError, match="row count"):
        PerturbedPair.build(a=[[1, 2]], b=[1, 2], costs=[[1, 2]], nonneg=set())
    with pytest.raises(ValueError, match="out of range"):
        PerturbedPair.build(a=[[1, 2]], b=[1], costs=[[1, 2]], nonneg={5})
    # Sign-constrained columns are int indices: no float, bool or name.
    for bad in (0.5, True, "x"):
        with pytest.raises(ValueError, match="not ints or out of range"):
            PerturbedPair.build(a=[[1, 2]], b=[1], costs=[[1, 2]], nonneg={bad})
    # No cost stage: there is nothing to solve, with rows or without.
    with pytest.raises(ValueError, match="no cost stage"):
        PerturbedPair.build(a=[], b=[], costs=[], nonneg=set())
    with pytest.raises(ValueError, match="no cost stage"):
        PerturbedPair.build(a=[[1, 2]], b=[1], costs=[], nonneg={0})


def test_infeasible_stage_is_a_solve_error():
    pair = PerturbedPair.build(
        a=[[1], [-1]], b=[2, -1], costs=[[1]], nonneg={0}
    )
    with pytest.raises(StageSolveError, match="stage 0"):
        solve_perturbed_pair(pair)
    # So is a later stage that comes back unbounded: column 0 is free, and
    # stage 1 minimizes it.
    pair = PerturbedPair.build(a=[[0, 1]], b=[1], costs=[[0, 1], [1, 0]], nonneg={1})
    with pytest.raises(StageSolveError, match="stage 1 came back unbounded"):
        solve_perturbed_pair(pair)


def test_both_readers_solve_every_stage_through_the_staged_loop(monkeypatch):
    # perfbench's tracer counts lexmin and staged-pair solves by patching
    # lexmin.solve: each stage is one call there, and none follows the first
    # stage that is not optimal.
    calls = []
    real = lexmin.solve
    monkeypatch.setattr(lexmin, "solve", lambda lp, start=None: calls.append(lp) or real(lp, start))

    assert len(solve_perturbed_pair(worked_pair()).stages) == len(calls) == 3
    calls.clear()
    pair = PerturbedPair.build(a=[[0, 1]], b=[1], costs=[[0, 1], [1, 0], [0, 1]], nonneg={1})
    with pytest.raises(StageSolveError, match="stage 1 came back unbounded"):
        solve_perturbed_pair(pair)
    assert len(calls) == 2

    calls.clear()
    lp = LinearProgram(["a", "b"], {"b": 1}, [("r", {"b": 1}, GE, 1)])
    res = lex_min_optimal(lp, ["b", "a"])
    assert res.status == "optimal" and res.lp_solves == len(calls) == 3
    calls.clear()
    # The free column a has no floor on the optimal face: stages b and c
    # never run.
    lp = LinearProgram([("a", False), "b", "c"], {"b": 1}, [("r", {"b": 1}, GE, 1)])
    res = lex_min_optimal(lp, ["a", "b", "c"])
    assert res.status == "unbounded" and res.lp_solves == len(calls) == 2


def staged_pair_of(lp, order):
    """lp (a model of = and >= rows over nonnegative columns) as a
    staged pair: each = row split into two >= rows, stage 0 costing lp's
    objective and stage i the indicator of order[i - 1]."""
    names = [v.name for v in lp.variables]
    a, b = [], []
    for row in lp.rows:
        for sign in (1, -1) if row.relation == EQ else (1,):
            a.append([sign * row.coeffs.get(name, 0) for name in names])
            b.append(sign * row.rhs)
    costs = [[lp.objective.get(name, 0) for name in names]]
    costs += [[int(name == e) for name in names] for e in order]
    return PerturbedPair.build(a, b, costs, nonneg=set(range(len(names))))


def test_staged_pair_agrees_with_lexmin_on_matching_lps():
    # Staging the edge indicators in sigma's order after the costs is the
    # lexicographic minimum in that order, so both readers reach one x.
    rng = random.Random(29)
    cases = [dancing_robot()[:2]]
    for _ in range(30):
        n = rng.choice([6, 8, 10])
        g = random_matchable_graph(n, rng.randint(n // 2 + 2, min(n * (n - 1) // 2, 16)), 5, rng)
        cases.append((g, random_ordering(g, rng)))
    for g, sigma in cases:
        lp = build_primal(g, g.cost_map(), [])
        order = sigma.order()
        res = lex_min_optimal(lp, order)
        sol = solve_perturbed_pair(staged_pair_of(lp, order))
        assert res.status == "optimal"
        assert sol.x == tuple([res.optimum.value(v.name) for v in lp.variables])
        assert sol.stages[0].objective == res.objective


def test_random_pairs_match_sequential_face_oracle():
    rng = random.Random(31)
    for _ in range(30):
        pair = random_perturbed_pair(rng)
        sol = solve_perturbed_pair(pair)
        minima = sequential_stage_minima(pair)
        assert [s.objective for s in sol.stages] == minima
        # The one returned point attains every stage optimum at once.
        for cost, z in zip(pair.costs, minima):
            assert sum(c * v for c, v in zip(cost, sol.x)) == z


def test_random_pairs_satisfy_stagewise_complementary_slackness():
    rng = random.Random(32)
    for _ in range(30):
        pair = random_perturbed_pair(rng)
        sol = solve_perturbed_pair(pair)
        for j in pair.nonneg:
            assert sol.x[j] >= R0
        for i in range(pair.nrows):
            lhs = sum(pair.a[i][j] * sol.x[j] for j in range(pair.ncols))
            assert lhs >= pair.b[i]
        for stage, cost in zip(sol.stages, pair.costs):
            for i, y in stage.y.items():
                if y != R0:
                    lhs = sum(pair.a[i][j] * sol.x[j] for j in range(pair.ncols))
                    assert lhs == pair.b[i]
            for j in range(pair.ncols):
                if sol.x[j] != R0:
                    reduced = cost[j] - sum(
                        stage.y[i] * pair.a[i][j] for i in range(pair.nrows)
                    )
                    assert reduced == R0



def _stage_records_digest(solutions):
    """SHA-256 over every stage record's kept_columns, equality_rows, x, y
    and objective, values rendered as exact 'p/q' strings."""
    h = hashlib.sha256()
    for sol in solutions:
        for s in sol.stages:
            record = (
                s.kept_columns,
                sorted(s.equality_rows),
                [(j, str(v)) for j, v in sorted(s.x.items())],
                [(i, str(v)) for i, v in sorted(s.y.items())],
                str(s.objective),
            )
            h.update(repr(record).encode())
    return h.hexdigest()


# The duals of a stage need not be unique, so this pins the pivot path too:
# stage 0's cold start (a dual simplex from the slack basis on the shifted
# start costs, then phase 2) and the reoptimized later stages on the same
# Tableau.
STAGE_RECORDS_DIGEST = "2777a2652a57d0cff2a34e86d83b943184ad516b4fcf61aeb01deb2a9403fe5e"


def test_stage_records_are_pinned():
    rng = random.Random(2019)
    pairs = [random_perturbed_pair(rng) for _ in range(120)]
    solutions = [solve_perturbed_pair(pair) for pair in pairs]
    # The draws exercise both halves of the face rule.
    assert any(len(s.kept_columns) < pair.ncols
               for pair, sol in zip(pairs, solutions) for s in sol.stages)
    assert any(s.equality_rows for sol in solutions for s in sol.stages)
    assert _stage_records_digest(solutions) == STAGE_RECORDS_DIGEST
