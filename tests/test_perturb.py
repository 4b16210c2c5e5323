"""Tests for the staged-cost solver that replaces explicit perturbation."""

import random

import pytest

from helpers import random_perturbed_pair, sequential_stage_minima

from cpmatch.errors import StageSolveError
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


def test_build_validation():
    with pytest.raises(ValueError, match="column counts"):
        PerturbedPair.build(a=[[1, 2], [1]], b=[1, 1], costs=[[1, 2]], nonneg=set())
    with pytest.raises(ValueError, match="column counts"):
        PerturbedPair.build(a=[[1, 2]], b=[1], costs=[[1, 2, 3]], nonneg=set())
    with pytest.raises(ValueError, match="row count"):
        PerturbedPair.build(a=[[1, 2]], b=[1, 2], costs=[[1, 2]], nonneg=set())
    with pytest.raises(ValueError, match="out of range"):
        PerturbedPair.build(a=[[1, 2]], b=[1], costs=[[1, 2]], nonneg={5})


def test_infeasible_stage_is_a_solve_error():
    pair = PerturbedPair.build(
        a=[[1], [-1]], b=[2, -1], costs=[[1]], nonneg={0}
    )
    with pytest.raises(StageSolveError, match="stage 0"):
        solve_perturbed_pair(pair)


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
