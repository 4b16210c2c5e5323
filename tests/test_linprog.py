"""Tests for the exact two-phase simplex."""

import random

import pytest

from helpers import enumerate_minimum, random_bounded_lp, random_perturbed_pair

from cpmatch.linprog import (
    EQ,
    GE,
    LE,
    MAX,
    MIN,
    Infeasible,
    LinearProgram,
    LinearProgramError,
    Optimal,
    SolverInvariantError,
    Tableau,
    Unbounded,
    solve,
    verify_certificate,
)
from cpmatch.rationals import HALF, R0, R1, Rational, rat, shared


def test_single_bound_row():
    lp = LinearProgram(MIN, ["x"], {}, [("r", {"x": 1}, GE, 5)])
    out = solve(lp)
    assert isinstance(out, Optimal)
    assert out.objective == 0
    assert out.x["x"] == 5


def test_two_inequality_rows_with_free_variable():
    # min x1 + x2 + 3*x3, x1 + x3 >= 1, x2 + 2*x3 >= 1, x3 free
    lp = LinearProgram(
        MIN,
        [("x1", True), ("x2", True), ("x3", False)],
        {"x1": 1, "x2": 1, "x3": 3},
        [
            ("r1", {"x1": 1, "x3": 1}, GE, 1),
            ("r2", {"x2": 1, "x3": 2}, GE, 1),
        ],
    )
    out = solve(lp)
    assert out.x == {"x1": rat(1), "x2": rat(1), "x3": rat(0)}
    assert out.y == {"r1": rat(1), "r2": rat(1)}
    assert out.objective == 2


def test_equality_rows_force_free_variable_into_basis():
    # Same rows as equalities, costs chosen so the free variable must move.
    lp = LinearProgram(
        MIN,
        [("x1", True), ("x2", True), ("x3", False)],
        {"x1": 4, "x2": 2, "x3": 0},
        [
            ("r1", {"x1": 1, "x3": 1}, EQ, 1),
            ("r2", {"x2": 1, "x3": 2}, EQ, 1),
        ],
    )
    out = solve(lp)
    assert out.x == {"x1": rat(1, 2), "x2": rat(0), "x3": rat(1, 2)}
    assert out.y == {"r1": rat(4), "r2": rat(-2)}
    assert out.objective == 2


def test_square_equality_system_duals():
    # Fully determined system: x1 + x3 = 1, 2*x3 = 1.
    lp = LinearProgram(
        MIN,
        [("x1", True), ("x3", False)],
        {"x1": -2, "x3": 1},
        [
            ("r1", {"x1": 1, "x3": 1}, EQ, 1),
            ("r2", {"x3": 2}, EQ, 1),
        ],
    )
    out = solve(lp)
    assert out.x == {"x1": rat(1, 2), "x3": rat(1, 2)}
    assert out.y == {"r1": rat(-2), "r2": rat(3, 2)}
    assert out.objective == rat(-1, 2)


def test_max_sense_duals_flip_sign():
    lp = LinearProgram(
        MAX,
        ["x", "y"],
        {"x": 1, "y": 2},
        [
            ("cap", {"x": 1, "y": 1}, LE, 4),
            ("ycap", {"y": 1}, LE, 3),
        ],
    )
    out = solve(lp)
    assert out.objective == 7
    assert out.x == {"x": rat(1), "y": rat(3)}
    assert out.y["cap"] >= 0 and out.y["ycap"] >= 0


def test_infeasible():
    lp = LinearProgram(
        MIN,
        ["x"],
        {"x": 1},
        [("lo", {"x": 1}, GE, 2), ("hi", {"x": 1}, LE, 1)],
    )
    assert isinstance(solve(lp), Infeasible)


def test_unbounded():
    lp = LinearProgram(MIN, ["x"], {"x": -1}, [("lo", {"x": 1}, GE, 0)])
    assert isinstance(solve(lp), Unbounded)


def test_unbounded_free_variable_direction():
    lp = LinearProgram(MIN, [("x", False)], {"x": 1}, [])
    assert isinstance(solve(lp), Unbounded)


def test_free_variable_settles_negative():
    lp = LinearProgram(MIN, [("x", False)], {"x": 1}, [("lo", {"x": 1}, GE, -3)])
    out = solve(lp)
    assert out.x["x"] == -3
    assert out.objective == -3


def test_negative_rhs_rows_are_scaled():
    # -x - y <= -2 is x + y >= 2 in disguise.
    lp = LinearProgram(
        MIN,
        ["x", "y"],
        {"x": 3, "y": 5},
        [("r", {"x": -1, "y": -1}, LE, -2)],
    )
    out = solve(lp)
    assert out.objective == 6
    assert out.x == {"x": rat(2), "y": rat(0)}


def test_redundant_equality_rows_get_zero_dual():
    lp = LinearProgram(
        MIN,
        ["x", "y"],
        {"x": 1, "y": 1},
        [
            ("r1", {"x": 1, "y": 1}, EQ, 2),
            ("r2", {"x": 2, "y": 2}, EQ, 4),
        ],
    )
    out = solve(lp)
    assert out.objective == 2
    assert out.y["r1"] * 1 + out.y["r2"] * 2 == 1


def test_determinism_same_model_same_certificate():
    rng = random.Random(7)
    for _ in range(25):
        lp, _, _, _ = random_bounded_lp(rng)
        a = solve(lp)
        b = solve(lp)
        assert type(a) is type(b)
        if isinstance(a, Optimal):
            assert a.x == b.x
            assert a.y == b.y
            assert a.objective == b.objective


def test_validation_rejects_bad_models():
    with pytest.raises(LinearProgramError):
        LinearProgram(MIN, ["x", "x"], {}, [])
    with pytest.raises(LinearProgramError):
        LinearProgram(MIN, ["x"], {"z": 1}, [])
    with pytest.raises(LinearProgramError):
        LinearProgram(MIN, ["x"], {}, [("r", {"z": 1}, GE, 0)])
    with pytest.raises(LinearProgramError):
        LinearProgram(MIN, ["x"], {}, [("r", {"x": 1}, "<", 0)])
    with pytest.raises(LinearProgramError):
        LinearProgram(MIN, ["x"], {}, [("r", {"x": 1}, GE, 0), ("r", {"x": 1}, GE, 1)])
    with pytest.raises(LinearProgramError):
        LinearProgram("argmin", ["x"], {}, [])


def test_verification_rejects_tampered_certificate():
    lp = LinearProgram(MIN, ["x"], {"x": 1}, [("r", {"x": 1}, GE, 1)])
    out = solve(lp)
    bad = Optimal(x={"x": rat(2)}, y=out.y, objective=out.objective)
    with pytest.raises(SolverInvariantError):
        verify_certificate(lp, bad)
    bad = Optimal(x=out.x, y={"r": rat(-1)}, objective=out.objective)
    with pytest.raises(SolverInvariantError):
        verify_certificate(lp, bad)


def test_random_models_match_enumeration():
    rng = random.Random(20260814)
    optimal = infeasible = 0
    for _ in range(150):
        lp, rows, objective, n = random_bounded_lp(rng)
        out = solve(lp)
        expected = enumerate_minimum(n, rows, objective)
        if expected is None:
            assert isinstance(out, Infeasible)
            infeasible += 1
        else:
            assert isinstance(out, Optimal)
            assert out.objective == expected
            optimal += 1
    assert optimal >= 50
    assert infeasible >= 10


def beale_lp():
    # Beale (1955): the textbook largest-coefficient rule cycles on this
    # degenerate LP.
    return LinearProgram(
        MIN,
        ["x4", "x5", "x6", "x7"],
        {"x4": rat(-3, 4), "x5": 20, "x6": rat(-1, 2), "x7": 6},
        [
            ("r1", {"x4": rat(1, 4), "x5": -8, "x6": -1, "x7": 9}, LE, 0),
            ("r2", {"x4": rat(1, 2), "x5": -12, "x6": rat(-1, 2), "x7": 3}, LE, 0),
            ("r3", {"x6": 1}, LE, 1),
        ],
    )


def test_beale_cycling_lp_terminates_at_its_optimum():
    # Bland's rule must leave the degenerate vertex at the origin and stop
    # at the optimum.
    lp = beale_lp()
    out = solve(lp)
    assert isinstance(out, Optimal)
    assert out.objective == rat(-5, 4)
    assert out.x == {"x4": 1, "x5": 0, "x6": 1, "x7": 0}
    assert out.y == {"r1": 0, "r2": rat(-3, 2), "r3": rat(-5, 4)}
    verify_certificate(lp, out)


def test_common_values_come_back_as_shared_constants():
    # Every value below is computed by the simplex (2a = 1 gives a by
    # division), so identity with the constants shows the final lookup ran.
    lp = LinearProgram(
        MIN,
        ["a", ("b", False), "c", "d", ("e", False), "f"],
        {"a": 1, "b": -1, "c": 1, "d": 1, "e": -1, "f": 1},
        [
            ("half", {"a": 2}, EQ, 1),
            ("minus_half", {"b": 2}, EQ, -1),
            ("one", {"d": 1}, EQ, 1),
            ("minus_one", {"e": 1}, EQ, -1),
            ("loose", {"c": 1}, LE, 5),
            ("sevenths", {"f": 7}, EQ, 3),
        ],
    )
    out = solve(lp)
    minus_half, minus_one = shared(rat(-1, 2)), shared(rat(-1))
    assert minus_half == rat(-1, 2) and minus_one == -1
    assert out.x["a"] is HALF and out.y["half"] is HALF
    assert out.x["b"] is minus_half and out.y["minus_half"] is minus_half
    assert out.x["c"] is R0 and out.y["loose"] is R0
    assert out.x["d"] is R1 and out.y["one"] is R1
    assert out.x["e"] is minus_one and out.y["minus_one"] is minus_one
    assert out.x["f"] == rat(3, 7) and out.y["sevenths"] == rat(1, 7)
    assert shared(out.x["f"]) is out.x["f"]
    values = [*out.x.values(), *out.y.values()]
    assert all(type(v) is Rational for v in values)


def test_fresh_tableau_start_is_the_cold_solve():
    rng = random.Random(5)
    models = [beale_lp()] + [random_bounded_lp(rng)[0] for _ in range(30)]
    for _ in range(10):
        pair = random_perturbed_pair(rng)
        names = [("x", j) for j in range(pair.ncols)]
        models.append(LinearProgram(
            MAX,
            [(name, j in pair.nonneg) for j, name in enumerate(names)],
            {name: -c for name, c in zip(names, pair.costs[0])},
            [(i, dict(zip(names, pair.a[i])), GE, pair.b[i]) for i in range(pair.nrows)],
        ))
    for lp in models:
        tab = Tableau()
        a, b = solve(lp), solve(lp, start=tab)
        assert type(a) is type(b)
        assert (tab.lp, tab.status) == (lp, a.status)
        if isinstance(a, Optimal):
            assert (a.x, a.y, a.objective) == (b.x, b.y, b.objective)
    out = solve(beale_lp(), start=Tableau())
    assert out.x == {"x4": 1, "x5": 0, "x6": 1, "x7": 0}
    assert out.y == {"r1": 0, "r2": rat(-3, 2), "r3": rat(-5, 4)}


def _model(objective, extra_rows=(), sense=MIN):
    rows = [("cover", {"x": 1, "y": 1}, GE, 2), ("xcap", {"x": 1}, LE, 3)]
    return LinearProgram(sense, ["x", "y"], objective, rows + list(extra_rows))


def test_reoptimize_after_appended_rows():
    tab = Tableau()
    first = solve(_model({"x": 1, "y": 2}), start=tab)
    assert first.x == {"x": 2, "y": 0}
    # Both appended rows hold at (2, 0); one has a negative rhs. The new
    # objective moves along x + y = 2 to the other end, x = 0.
    rows = [("line", {"x": 1, "y": 1}, EQ, 2), ("neg", {"x": -1, "y": -1}, EQ, -2)]
    lp = _model({"y": 1}, rows, MAX)
    out = solve(lp, start=tab)
    cold = solve(lp)
    assert out.x == cold.x == {"x": 0, "y": 2}
    assert out.objective == cold.objective == 2
    verify_certificate(lp, out)
    # No appended rows: only the objective changes.
    out = solve(_model({"x": -1}, rows), start=tab)
    assert out.x == {"x": 2, "y": 0}


def test_reoptimize_rejects_a_model_that_does_not_extend_the_last_one():
    tab = Tableau()
    solve(_model({"x": 1, "y": 2}), start=tab)
    changed = LinearProgram(
        MIN, ["x", "y"], {"x": 1},
        [("cover", {"x": 1, "y": 1}, GE, 1), ("xcap", {"x": 1}, LE, 3)],
    )
    bad = [
        changed,
        _model({"x": 1}, [("ge", {"x": 1}, GE, 1)]),
        _model({"x": 1}, [("violated", {"y": 1}, EQ, 1)]),
        _model({"x": 1}, [("holds", {"x": 1}, EQ, 2), ("violated", {"x": 1}, EQ, 1)]),
        LinearProgram(MIN, ["x", "y", "z"], {"x": 1}, _model({}).rows),
        LinearProgram(MIN, ["x", "y"], {"x": 1}, _model({}).rows[:1]),
    ]
    for lp in bad:
        with pytest.raises(LinearProgramError):
            solve(lp, start=tab)
    # A rejected model leaves the tableau as it was.
    out = solve(_model({"y": 1}, [("holds", {"x": 1}, EQ, 2)]), start=tab)
    assert out.x == {"x": 2, "y": 0}


def test_no_reoptimization_after_infeasible_or_unbounded():
    infeasible = LinearProgram(
        MIN, ["x"], {"x": 1}, [("lo", {"x": 1}, GE, 2), ("hi", {"x": 1}, LE, 1)]
    )
    unbounded = LinearProgram(MIN, ["x"], {"x": -1}, [("lo", {"x": 1}, GE, 0)])
    for lp, outcome in ((infeasible, Infeasible), (unbounded, Unbounded)):
        tab = Tableau()
        assert isinstance(solve(lp, start=tab), outcome)
        with pytest.raises(LinearProgramError):
            solve(lp, start=tab)
