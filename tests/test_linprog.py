"""Tests for the exact simplex: models, certificates, starts and reoptimization."""

import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    _dual_slacks,
    enumerate_minimum,
    fraction_verify_certificate,
    model_parts,
    random_bounded_lp,
    random_perturbed_pair,
    record_runs,
    row_diff,
    tableau_state,
)

from cpmatch import lexmin, linprog
from cpmatch.lexmin import lex_min_optimal
from cpmatch.linprog import (
    EQ,
    GE,
    LE,
    Infeasible,
    LinearProgram,
    LinearProgramError,
    Optimal,
    Row,
    SolverInvariantError,
    Tableau,
    Unbounded,
    Variable,
    optimal_face,
    solve,
    verify_certificate,
)
from cpmatch.rationals import _SHARED, HALF, R0, R1, Rational, rat


def test_single_bound_row():
    lp = LinearProgram(["x"], {}, [("r", {"x": 1}, GE, 5)])
    out = solve(lp)
    assert isinstance(out, Optimal)
    assert out.objective == 0
    assert out.x["x"] == 5


def test_two_inequality_rows_with_free_variable():
    # min x1 + x2 + 3*x3, x1 + x3 >= 1, x2 + 2*x3 >= 1, x3 free
    lp = LinearProgram(
        [("x1", True), ("x2", True), ("x3", False)],
        {"x1": 1, "x2": 1, "x3": 3},
        [
            ("r1", {"x1": 1, "x3": 1}, GE, 1),
            ("r2", {"x2": 1, "x3": 2}, GE, 1),
        ],
    )
    out = solve(lp)
    # The optimal face is the edge from (1, 1, 0) to (1/2, 0, 1/2); the
    # cold start (x3 at start cost 0) ends at its second vertex.
    assert out.x == {"x1": HALF, "x2": rat(0), "x3": HALF}
    assert out.y == {"r1": rat(1), "r2": rat(1)}
    assert out.objective == 2


def test_equality_rows_force_free_variable_into_basis():
    # Same rows as equalities, costs chosen so the free variable must move.
    lp = LinearProgram(
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


def test_infeasible():
    lp = LinearProgram(
        ["x"],
        {"x": 1},
        [("lo", {"x": 1}, GE, 2), ("hi", {"x": 1}, LE, 1)],
    )
    assert isinstance(solve(lp), Infeasible)


def test_unbounded():
    lp = LinearProgram(["x"], {"x": -1}, [("lo", {"x": 1}, GE, 0)])
    assert isinstance(solve(lp), Unbounded)


def test_unbounded_free_variable_direction():
    lp = LinearProgram([("x", False)], {"x": 1}, [])
    assert isinstance(solve(lp), Unbounded)


def test_free_variable_settles_negative():
    lp = LinearProgram([("x", False)], {"x": 1}, [("lo", {"x": 1}, GE, -3)])
    out = solve(lp)
    assert out.x["x"] == -3
    assert out.objective == -3


def test_negative_rhs_rows_are_scaled():
    # -x - y <= -2 is x + y >= 2 in disguise.
    lp = LinearProgram(
        ["x", "y"],
        {"x": 3, "y": 5},
        [("r", {"x": -1, "y": -1}, LE, -2)],
    )
    out = solve(lp)
    assert out.objective == 6
    assert out.x == {"x": rat(2), "y": rat(0)}


def test_redundant_equality_rows_get_zero_dual():
    lp = LinearProgram(
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
        LinearProgram(["x", "x"], {}, [])
    with pytest.raises(LinearProgramError):
        LinearProgram(["x"], {"z": 1}, [])
    with pytest.raises(LinearProgramError):
        LinearProgram(["x"], {}, [("r", {"z": 1}, GE, 0)])
    with pytest.raises(LinearProgramError):
        LinearProgram(["x"], {}, [("r", {"x": 1}, "<", 0)])
    with pytest.raises(LinearProgramError):
        LinearProgram(["x"], {}, [("r", {"x": 1}, GE, 0), ("r", {"x": 1}, GE, 1)])


def test_verification_rejects_tampered_certificate():
    lp = LinearProgram(["x"], {"x": 1}, [("r", {"x": 1}, GE, 1)])
    out = solve(lp)
    bad = Optimal(x={"x": rat(2)}, y=out.y, objective=out.objective)
    with pytest.raises(SolverInvariantError):
        verify_certificate(lp, bad)
    bad = Optimal(x=out.x, y={"r": rat(-1)}, objective=out.objective)
    with pytest.raises(SolverInvariantError):
        verify_certificate(lp, bad)


def _one_row(variables, objective, coeffs, relation):
    return LinearProgram(variables, objective, [("r", coeffs, relation, 1)])


_GE = _one_row(["x"], {"x": 1}, {"x": 1}, GE)  # optimum x = 1, y = 1


def _cert(x, y, objective):
    return Optimal(x={k: rat(v) for k, v in x.items()},
                   y={k: rat(v) for k, v in y.items()}, objective=rat(objective))


# One certificate per rejection branch of verify_certificate, each passing
# every check before it, with the message it must raise.
REJECTED = [
    (_GE, _cert({}, {"r": 1}, 1), "missing primal value for 'x'"),
    (_GE, _cert({"x": -1}, {"r": 1}, 1), "negative value for 'x'"),
    (_GE, _cert({"x": 1}, {}, 1), "missing dual value for row 'r'"),
    (_one_row(["x"], {"x": -1}, {"x": 1}, LE), _cert({"x": 2}, {"r": -1}, -2),
     "row 'r' violated: 2 <= 1"),
    (_one_row(["x"], {"x": 1}, {"x": 1}, EQ), _cert({"x": 2}, {"r": 1}, 2),
     "row 'r' violated: 2 = 1"),
    (_one_row(["x"], {"x": 1}, {"x": rat(1, 3)}, GE), _cert({"x": 2}, {"r": 3}, 2),
     "row 'r' violated: 2/3 >= 1"),
    (_GE, _cert({"x": 1}, {"r": -1}, 1), "dual sign for row 'r'"),
    (_GE, _cert({"x": rat(3, 2)}, {"r": 1}, rat(3, 2)), "complementary slackness fails on row 'r'"),
    (_one_row([("x", False)], {"x": 1}, {"x": 1}, GE), _cert({"x": 1}, {"r": 0}, 1),
     "dual constraint for free 'x'"),
    (_GE, _cert({"x": 1}, {"r": 2}, 1), "dual constraint for 'x'"),
    (_one_row(["x"], {"x": -1}, {"x": 1}, LE), _cert({"x": 1}, {"r": 0}, -1),
     "dual constraint for 'x'"),
    (_one_row(["x", "y"], {"x": 1, "y": 2}, {"x": 1, "y": 1}, GE),
     _cert({"x": 0, "y": 1}, {"r": 1}, 2), "complementary slackness fails on 'y'"),
    (_GE, _cert({"x": 1}, {"r": 1}, 2), "objective value mismatch"),
]


def _verdict(check, lp, cert):
    """The message check raises SolverInvariantError with, or None."""
    try:
        check(lp, cert)
    except SolverInvariantError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("lp, cert, message", REJECTED)
def test_verification_rejects_each_broken_certificate(lp, cert, message):
    assert _verdict(verify_certificate, lp, cert) == message
    if message.startswith("missing dual"):
        with pytest.raises(KeyError):  # the reference reads y[row.id] directly
            fraction_verify_certificate(lp, cert)
    else:
        assert _verdict(fraction_verify_certificate, lp, cert) == message


def test_strong_duality_backs_up_the_dual_slacks(monkeypatch):
    # No certificate reaches this check while the slacks are right: rows with
    # y_i != 0 are tight and columns with x_j != 0 have d_j = 0, so
    # y.b = y.Ax = c.x - d.x = c.x. Slacks that wrongly read zero let y = 2
    # past every dual constraint; strong duality still rejects it.
    monkeypatch.setattr(linprog, "_dual_slacks", lambda lp, terms, dy, c, dc: (
        dict.fromkeys((v.name for v in lp.variables), 0), 1))
    verify_certificate(_GE, _cert({"x": 1}, {"r": 1}, 1))
    with pytest.raises(SolverInvariantError, match=r"^strong duality fails: 2 != 1$"):
        verify_certificate(_GE, _cert({"x": 1}, {"r": 2}, 1))


def _variants(rng, lp):
    """lp; lp with each row multiplied by a random positive rational; lp
    with its objective multiplied by one; and lp with x0 free above a floor
    row."""
    scaled = [Row(row.id, {k: c * f for k, c in row.coeffs.items()}, row.relation, row.rhs * f)
              for row in lp.rows for f in [rat(rng.randint(1, 3), rng.randint(1, 4))]]
    f = rat(rng.randint(1, 3), rng.randint(1, 4))
    free = [Variable(v.name, v.name != "x0") for v in lp.variables]
    floor = Row("floor", {"x0": 1}, GE, -rng.randint(0, 3))
    return [
        lp,
        LinearProgram(lp.variables, lp.objective, scaled),
        LinearProgram(lp.variables, {k: c * f for k, c in lp.objective.items()}, lp.rows),
        LinearProgram(free, lp.objective, [*lp.rows, floor]),
    ]


def test_integer_checker_agrees_with_the_fraction_checker():
    # Optimal certificates and single-entry tamperings of x, y and objective:
    # both checkers accept, or both raise the same message.
    rng = random.Random(20261018)
    shifts = [rat(1), rat(-1), rat(1, 2), rat(-1, 3), rat(5, 7), rat(-7, 4)]
    verdicts = []
    for _ in range(60):
        for lp in _variants(rng, random_bounded_lp(rng)[0]):
            out = solve(lp)
            if not isinstance(out, Optimal):
                continue
            certs = [out, Optimal(out.x, out.y, out.objective + rng.choice(shifts))]
            for key in out.x:
                certs.append(Optimal({**out.x, key: out.x[key] + rng.choice(shifts)},
                                     out.y, out.objective))
            for key in out.y:
                certs.append(Optimal(out.x, {**out.y, key: out.y[key] + rng.choice(shifts)},
                                     out.objective))
            for cert in certs:
                verdict = _verdict(verify_certificate, lp, cert)
                assert verdict == _verdict(fraction_verify_certificate, lp, cert)
                verdicts.append(verdict)
    kinds = {v and re.sub(" '.*", "", v) for v in verdicts}
    assert verdicts.count(None) >= 100
    assert kinds == {None, "negative value for", "row", "dual sign for row",
                     "complementary slackness fails on row", "dual constraint for free",
                     "dual constraint for", "complementary slackness fails on",
                     "objective value mismatch"}


def test_verification_rejects_tampered_ints():
    # The optimum of test_equality_rows_force_free_variable_into_basis is
    # unique on both sides: x = (1/2, 0, 1/2) as (1, 0, 1) over 2 and
    # y = (4, -2) over 1. Moving any one int of x or y, either denominator
    # or the objective must fail the check.
    lp = LinearProgram(
        [("x1", True), ("x2", True), ("x3", False)],
        {"x1": 4, "x2": 2, "x3": 0},
        [("r1", {"x1": 1, "x3": 1}, EQ, 1), ("r2", {"x2": 1, "x3": 2}, EQ, 1)],
    )
    out = solve(lp)
    assert (out.xs, out.dx, out.ys, out.dy) == ({"x1": 1, "x2": 0, "x3": 1}, 2,
                                                {"r1": 4, "r2": -2}, 1)
    bad = [Optimal.of_ints({**out.xs, k: v + 1}, out.dx, out.ys, out.dy, out.objective)
           for k, v in out.xs.items()]
    bad += [Optimal.of_ints(out.xs, out.dx, {**out.ys, k: v + 1}, out.dy, out.objective)
            for k, v in out.ys.items()]
    bad += [Optimal.of_ints(out.xs, out.dx + 1, out.ys, out.dy, out.objective),
            Optimal.of_ints(out.xs, out.dx, out.ys, out.dy + 1, out.objective),
            Optimal.of_ints(out.xs, out.dx, out.ys, out.dy, out.objective + 1)]
    assert verify_certificate(lp, Optimal.of_ints(out.xs, out.dx, out.ys, out.dy,
                                                  out.objective)) == out
    for cert in bad:
        with pytest.raises(SolverInvariantError):
            verify_certificate(lp, cert)


def test_optimal_maps_are_built_from_the_ints_on_first_read(monkeypatch):
    # solve's x and y, built from the tableau's ints, pass the reference
    # check on rationals, hold the shared instance of each value that has
    # one, and equal the optimum rebuilt from those rational maps. A lexmin
    # stage reads its one value without building either map.
    rng = random.Random(20261020)
    lexmin_stages = []
    real_solve = lexmin.solve

    def recording(lp, start=None):
        out = real_solve(lp, start=start)
        lexmin_stages.append(out)
        return out

    monkeypatch.setattr(lexmin, "solve", recording)
    shared = 0
    for _ in range(60):
        lp = random_bounded_lp(rng)[0]
        out = solve(lp)
        if not isinstance(out, Optimal):
            continue
        fraction_verify_certificate(lp, out)
        assert list(out.x) == [v.name for v in lp.variables]
        assert list(out.y) == [row.id for row in lp.rows]
        for v in [*out.x.values(), *out.y.values()]:
            assert type(v) is Rational
            if (v.numerator, v.denominator) in _SHARED:
                assert v is _SHARED[v.numerator, v.denominator]
                shared += 1
        assert Optimal(out.x, out.y, out.objective, out.slack, out.reduced) == out
        assert lex_min_optimal(lp, [v.name for v in lp.variables]).status == "optimal"
    assert shared >= 100 and len(lexmin_stages) >= 100
    assert not any({"x", "y"} & vars(out).keys() for out in lexmin_stages)


def test_solve_returns_the_checked_slacks_and_reduced_costs():
    # solve hands back what verify_certificate computed on integers: the
    # slack of each inequality row that is not tight at x, and each nonzero
    # reduced cost c_j - y.A_j, as the rationals the reference computes.
    rng = random.Random(20261019)
    seen = {LE: 0, GE: 0, "reduced": 0}
    for _ in range(60):
        for lp in _variants(rng, random_bounded_lp(rng)[0]):
            out = solve(lp)
            if not isinstance(out, Optimal):
                continue
            slack = {}
            for row in lp.rows:
                lhs = sum((c * out.x[name] for name, c in row.coeffs.items()), R0)
                if row.relation != EQ and lhs != row.rhs:
                    slack[row.id] = lhs - row.rhs if row.relation == GE else row.rhs - lhs
                    seen[row.relation] += 1
            reduced = {name: d for name, d in _dual_slacks(lp, out.y).items() if d}
            seen["reduced"] += len(reduced)
            assert out.slack == slack and out.reduced == reduced
            assert all(type(v) is Rational for v in [*slack.values(), *reduced.values()])
            assert verify_certificate(lp, Optimal(out.x, out.y, out.objective)) == out
    assert min(seen.values()) >= 50


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
    minus_half, minus_one = _SHARED[-1, 2], _SHARED[-1, 1]
    assert minus_half == rat(-1, 2) and minus_one == -1
    assert out.x["a"] is HALF and out.y["half"] is HALF
    assert out.x["b"] is minus_half and out.y["minus_half"] is minus_half
    assert out.x["c"] is R0 and out.y["loose"] is R0
    assert out.x["d"] is R1 and out.y["one"] is R1
    assert out.x["e"] is minus_one and out.y["minus_one"] is minus_one
    assert out.x["f"] == rat(3, 7) and out.y["sevenths"] == rat(1, 7)
    assert (3, 7) not in _SHARED
    values = [*out.x.values(), *out.y.values()]
    assert all(type(v) is Rational for v in values)


def test_models_keep_rational_values_as_given():
    # rat() passes a Fraction through, so a model built from another
    # model's rows shares their values instead of copying them.
    c = rat(7, 3)
    lp = LinearProgram(["x"], {"x": c}, [("r", {"x": c}, GE, c)])
    assert lp.objective["x"] is c and lp.rows[0].coeffs["x"] is c and lp.rows[0].rhs is c


_ONE_RATIONAL_TYPE = """
import json
from fractions import Fraction
import gmpy2
import cpmatch.rationals
from cpmatch import dancing_robot, solve_unperturbed
g, sigma, _ = dancing_robot()
result = solve_unperturbed(g, sigma)
values = [v for rec in result.iterations for v in rec.x.values()]
values += [v for rec in result.iterations for pi in rec.dual_stages for v in pi.values()]
print(json.dumps({
    "gmpy2": gmpy2.__file__,
    "rational_is_fraction": cpmatch.rationals.Rational is Fraction,
    "types": sorted({type(v).__name__ for v in values}),
    "count": len(values),
}))
"""


def test_an_importable_gmpy2_does_not_change_the_rational_type(tmp_path):
    # A gmpy2 module ahead of the package on the path (here a stand-in
    # whose mpq is a Fraction subclass) is never picked up: solver values
    # stay Fractions.
    (tmp_path / "gmpy2.py").write_text(
        "from fractions import Fraction\n\n\nclass mpq(Fraction):\n    pass\n", encoding="utf-8")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(src)]))
    run = subprocess.run([sys.executable, "-c", _ONE_RATIONAL_TYPE], env=env,
                         capture_output=True, text=True, check=True)
    report = json.loads(run.stdout)
    assert Path(report["gmpy2"]).parent == tmp_path
    assert report["rational_is_fraction"] is True
    assert report["types"] == ["Fraction"] and report["count"] > 100


def test_fresh_tableau_start_is_the_cold_solve():
    rng = random.Random(5)
    models = [beale_lp()] + [random_bounded_lp(rng)[0] for _ in range(30)]
    for _ in range(10):
        pair = random_perturbed_pair(rng)
        names = [("x", j) for j in range(pair.ncols)]
        models.append(LinearProgram(
            [(name, j in pair.nonneg) for j, name in enumerate(names)],
            dict(zip(names, pair.costs[0])),
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


def _model(objective, extra_rows=()):
    rows = [("cover", {"x": 1, "y": 1}, GE, 2), ("xcap", {"x": 1}, LE, 3)]
    return LinearProgram(["x", "y"], objective, rows + list(extra_rows))


def test_reoptimize_on_an_optimal_face():
    tab = Tableau()
    lp = _model({"x": 1, "y": 1})
    first = solve(lp, start=tab)
    assert first.x == {"x": 2, "y": 0} and first.y == {"cover": 1, "xcap": 0}
    # The face x + y = 2 fixes cover's slack (dual 1, so nonbasic) at zero
    # (appended = rows are refused: see the test below), and the new
    # objective moves along it to the other end, x = 0.
    face = optimal_face(lp, first, {})
    assert [row.relation for row in face.rows] == [EQ, LE]
    lp = lp.variant({"y": -1}, relations={"cover": EQ})
    assert model_parts(lp) == model_parts(face.variant({"y": -1}))
    out = solve(lp, start=tab)
    cold = solve(lp)
    assert out.x == cold.x == {"x": 0, "y": 2}
    assert out.objective == cold.objective == -2
    verify_certificate(lp, out)
    # Only the objective changes.
    out = solve(lp.variant({"x": -1}), start=tab)
    assert out.x == {"x": 2, "y": 0}


def test_reoptimize_rejects_a_model_that_does_not_extend_the_last_one():
    # start= takes the tableau's last model or a .variant of it, nothing
    # else: a model built afresh is refused even where it equals the last
    # model or a variant the tableau would take, and so are the older model,
    # a variant of it and a variant of another variant. Each refusal leaves
    # the tableau as it was.
    tab = Tableau()
    older = _model({"x": 1, "y": 2})
    solve(older, start=tab)
    last = older.variant(rhs={"cover": 3})
    assert solve(last, start=tab).x == {"x": 3, "y": 0}
    rows = [("cover", {"x": 1, "y": 1}, GE, 3), ("xcap", {"x": 1}, LE, 3)]
    line, neg = ("line", {"x": 1, "y": 1}, EQ, 3), ("neg", {"x": -1, "y": -1}, EQ, -3)
    bad = [
        # Equal to the last model, and to a variant of it with a new objective.
        LinearProgram(["x", "y"], {"x": 1, "y": 2}, rows),
        LinearProgram(["x", "y"], {"y": 1}, rows),
        # A changed coefficient, and rows in another order.
        LinearProgram(["x", "y"], {"x": 1}, [("cover", {"x": 1, "y": 2}, GE, 3), rows[1]]),
        LinearProgram(["x", "y"], {"x": 1}, rows[::-1]),
        # Appended rows: none is accepted, held at (3, 0) or not, among them
        # = rows on the face x + y = 3 (one with a negative rhs).
        LinearProgram(["x", "y"], {"x": 1}, [*rows, ("ge", {"x": 1}, GE, 1)]),
        LinearProgram(["x", "y"], {"x": 1}, [*rows, ("violated", {"y": 1}, EQ, 1)]),
        LinearProgram(["x", "y"], {"x": 1},
                      [*rows, ("holds", {"x": 1}, EQ, 3), ("violated", {"x": 1}, EQ, 1)]),
        LinearProgram(["x", "y"], {"y": 1}, [*rows, ("holds", {"x": 1}, EQ, 3)]),
        *[LinearProgram(["x", "y"], {"y": -1}, rows + extra)
          for extra in ([line, neg], [line], [neg])],
        # An appended copy of xcap, ahead of the kept rows, and a new variable.
        LinearProgram(["x", "y"], {"x": 1}, [("first", {"x": 1}, LE, 3), *rows]),
        LinearProgram(["x", "y", "z"], {"x": 1}, rows),
        # Not built from the last model by .variant.
        older,
        older.variant(rhs={"cover": 4}),
        last.variant(rhs={"cover": 4}).variant(rhs={"cover": 2}),
    ]
    for lp in bad:
        before = tableau_state(tab)
        with pytest.raises(LinearProgramError, match=r"\.variant"):
            solve(lp, start=tab)
        assert tableau_state(tab) == before
    # The tableau goes on from the last model.
    lp = last.variant(rhs={"cover": 4})
    assert solve(lp, start=tab).x == solve(lp).x == {"x": 3, "y": 1}


def test_no_reoptimization_after_infeasible_or_unbounded():
    infeasible = LinearProgram(
        ["x"], {"x": 1}, [("lo", {"x": 1}, GE, 2), ("hi", {"x": 1}, LE, 1)]
    )
    unbounded = LinearProgram(["x"], {"x": -1}, [("lo", {"x": 1}, GE, 0)])
    for lp, outcome in ((infeasible, Infeasible), (unbounded, Unbounded)):
        tab = Tableau()
        assert isinstance(solve(lp, start=tab), outcome)
        with pytest.raises(LinearProgramError):
            solve(lp, start=tab)


def _capped(objective, cover=2, rows=None):
    """min objective over x + y >= cover, x <= 3, y <= 3 (ids cover, xcap,
    ycap); the optimum of x + 2y at cover 2 is (2, 0), with x basic in the
    cover row and both cap slacks basic."""
    caps = [("xcap", {"x": 1}, LE, 3), ("ycap", {"y": 1}, LE, 3)]
    rows = [("cover", {"x": 1, "y": 1}, GE, cover)] + caps if rows is None else rows
    return LinearProgram(["x", "y"], objective, rows)


def test_reoptimize_restores_feasibility_by_a_dual_simplex():
    tab = Tableau()
    base = _capped({"x": 1, "y": 2})
    assert solve(base, start=tab).x == {"x": 2, "y": 0}
    # cover 4 pushes x past its cap: the dual simplex moves to (3, 1).
    lp = base.variant(rhs={"cover": 4})
    out = solve(lp, start=tab)
    assert out.x == solve(lp).x == {"x": 3, "y": 1} and out.objective == 5
    verify_certificate(lp, out)
    # Back to (2, 0); then one model drops xcap (its slack, 1, is basic),
    # frees x (basic) and lowers cover to 1.
    lp = lp.variant(rhs={"cover": 2})
    assert solve(lp, start=tab).x == {"x": 2, "y": 0}
    lp = lp.variant(rhs={"cover": 1}, drop_rows=["xcap"], free=["x"])
    assert model_parts(lp) == model_parts(LinearProgram(
        [("x", False), "y"], {"x": 1, "y": 2},
        [("cover", {"x": 1, "y": 1}, GE, 1), ("ycap", {"y": 1}, LE, 3)]))
    out = solve(lp, start=tab)
    assert out.x == {"x": 1, "y": 0} and out.y == {"cover": 1, "ycap": 0}
    # cover 7 exceeds both caps together: no column can enter.
    tab = Tableau()
    solve(base, start=tab)
    assert isinstance(solve(base.variant(rhs={"cover": 7}), start=tab), Infeasible)
    assert isinstance(solve(base.variant(rhs={"cover": 7})), Infeasible)
    # y fixed at zero and cover 4 at once: y's reduced cost under x alone is
    # negative, but a fixed column never enters, and x cannot pass its cap.
    tab = Tableau()
    solve(base, start=tab)
    lp = base.variant(rhs={"cover": 4}, drop_variables=["y"])
    assert [(row.id, row.coeffs) for row in lp.rows] == [
        ("cover", {"x": 1}), ("xcap", {"x": 1}), ("ycap", {})] and lp.objective == {"x": 1}
    assert isinstance(solve(lp, start=tab), Infeasible) and isinstance(solve(lp), Infeasible)


def test_reoptimize_keeps_the_reduced_costs_of_an_unchanged_objective(monkeypatch):
    # The z the last solve kept current is lp's while the objective stays,
    # so only a new objective recomputes reduced costs.
    calls = []
    reduced_costs = Tableau.reduced_costs

    def counting(self, costvec):
        calls.append(costvec)
        return reduced_costs(self, costvec)

    tab = Tableau()
    lp = _capped({"x": 1, "y": 2})
    solve(lp, start=tab)
    changes = [
        (dict(rhs={"cover": 4}), 0),  # rhs only: a dual simplex
        (dict(rhs={"cover": 1}), 0),
        (dict(objective={"x": 2, "y": 1}), 1),
        (dict(objective={"x": 4, "y": 2}, rhs={"cover": 2}), 1),
    ]
    for change, recomputed in changes:
        lp = lp.variant(**change)
        cold = solve(lp)
        monkeypatch.setattr(Tableau, "reduced_costs", counting)
        out = solve(lp, start=tab)
        monkeypatch.undo()
        assert len(calls) == recomputed
        assert (out.x, out.y, out.objective) == (cold.x, cold.y, cold.objective)
        del calls[:]


def test_reoptimize_scans_only_a_new_objective_for_dual_feasibility():
    # With the last objective, z is the last optimum's, dual feasible on
    # every column that can enter: the variant below drops ycap (its slack
    # is basic), frees x (basic) and pushes x past its cap, so a dual simplex
    # runs on that z and ends where a fresh solve does.
    tab = Tableau()
    base = _capped({"x": 1, "y": 2})
    assert solve(base, start=tab).x == {"x": 2, "y": 0}
    lp = base.variant(rhs={"cover": 4}, drop_rows=["ycap"], free=["x"])
    assert lp.diff.objective
    out, cold = solve(lp, start=tab), solve(lp)
    assert (out.x, out.y, out.objective) == (cold.x, cold.y, cold.objective)
    assert out.x == {"x": 3, "y": 1}
    # A new objective is scanned: y's reduced cost under it is negative at
    # the last basis, so with x past its cap the warm start is refused, and
    # the tableau stays as it was.
    tab = Tableau()
    solve(base, start=tab)
    before = tableau_state(tab)
    lp = base.variant(objective={"x": 1, "y": -1}, rhs={"cover": 4})
    with pytest.raises(LinearProgramError, match="needs a dual feasible basis"):
        solve(lp, start=tab)
    assert tableau_state(tab) == before


def test_models_take_a_validated_row_as_it_is():
    # Validation sets a row's scale and rhs ints, and Row(...) takes
    # neither, so a row that carries them is one a model validated: another
    # model keeps the object and only checks its names.
    with pytest.raises(TypeError):
        Row("r", {"x": 1}, GE, 1, scale=([1], 1))
    with pytest.raises(TypeError):
        Row("r", {"x": 1}, GE, 1, rhs_ints=(1, 1))
    given = Row("r", {"x": 1, "y": HALF}, GE, "3/2")
    assert given.scale is given.rhs_ints is None
    first = LinearProgram(["x", "y"], {"x": 1}, [given, ("s", {"y": 1}, LE, 2)])
    validated = first.rows[0]
    assert validated is not given and validated == Row("r", {"x": R1, "y": HALF}, GE, rat(3, 2))
    assert (validated.scale, validated.rhs_ints) == (([2, 1], 2), (3, 2))
    second = LinearProgram(["y", "x", "z"], {"z": -1}, [("t", {"z": 1}, LE, 1), *first.rows])
    assert all(a is b for a, b in zip(second.rows[1:], first.rows, strict=True))
    assert model_parts(second) == model_parts(LinearProgram(
        ["y", "x", "z"], {"z": -1},
        [("t", {"z": 1}, LE, 1), ("r", {"x": 1, "y": HALF}, GE, "3/2"), ("s", {"y": 1}, LE, 2)]))
    assert solve(second).x == {"y": 0, "x": rat(3, 2), "z": 1}
    # Another model's row that names a variable the new model lacks.
    with pytest.raises(LinearProgramError, match="row 'r' references unknown variable 'y'"):
        LinearProgram(["x"], {}, [validated])
    with pytest.raises(LinearProgramError, match="duplicate row id 'r'"):
        LinearProgram(["x", "y"], {}, [validated, validated])


def test_dual_simplex_leaves_by_the_lowest_basic_index(monkeypatch):
    # Two independent capped pairs; lowering both caps below the optimum
    # (2, 0, 2, 0) makes both cap slacks negative. Columns: x, y, z, w, then
    # the slacks of cover1, xcap, cover2, zcap (4-7): xcap's slack leaves
    # first, and y, the only column with a negative entry, enters.
    def model(cap):
        return LinearProgram(["x", "y", "z", "w"], {"x": 1, "y": 2, "z": 1, "w": 2}, [
            ("cover1", {"x": 1, "y": 1}, GE, 2), ("xcap", {"x": 1}, LE, cap),
            ("cover2", {"z": 1, "w": 1}, GE, 2), ("zcap", {"z": 1}, LE, cap),
        ])

    tab = Tableau()
    assert solve(model(3), start=tab).x == {"x": 2, "y": 0, "z": 2, "w": 0}
    pivots = []
    pivot = Tableau.pivot

    def recording(self, r, j, zrow=None):
        pivots.append((self.basis[r], j))
        pivot(self, r, j, zrow)

    monkeypatch.setattr(Tableau, "pivot", recording)
    out = solve(tab.lp.variant(rhs={"xcap": 1, "zcap": 1}), start=tab)
    assert out.x == {"x": 1, "y": 1, "z": 1, "w": 1}
    assert pivots == [(5, 1), (7, 3)]


def test_reoptimize_detects_an_inconsistent_redundant_row():
    # r2 is r1 doubled. Under the dual start both artificials start
    # positive; r1's leaves onto x, and r2's stays basic at 0 in a redundant
    # row, so r2's dual is 0. An rhs change that keeps the doubling keeps
    # that value at 0; one that breaks it makes the value nonzero.
    def model(rhs2, rhs1=2):
        return LinearProgram(["x", "y"], {"x": 1, "y": 2}, [
            ("r1", {"x": 1, "y": 1}, EQ, rhs1), ("r2", {"x": 2, "y": 2}, EQ, rhs2),
        ])

    tab = Tableau()
    out = solve(model(4), start=tab)
    assert out.x == {"x": 2, "y": 0} and out.y == {"r1": 1, "r2": 0}
    assert tab.basis[1] == tab.row_cols[1][0]  # r2's artificial
    out = solve(tab.lp.variant(rhs={"r1": 3, "r2": 6}), start=tab)
    assert out.x == solve(model(6, rhs1=3)).x == {"x": 3, "y": 0}
    assert isinstance(solve(model(5)), Infeasible)
    assert isinstance(solve(tab.lp.variant(rhs={"r1": 2, "r2": 5}), start=tab), Infeasible)


def test_reoptimize_rejects_misuse_and_stays_usable():
    # Each variant of the last model below changes what the basis cannot
    # carry over; reoptimize refuses it by its recorded Diff and leaves the
    # tableau as it was, and the tableau goes on solving variants.
    bad = [
        # cover is tight at (2, 0), so its slack is nonbasic.
        dict(drop_rows=["cover"]),
        # y = 0 is nonbasic, so its bound cannot be freed.
        dict(free=["y"]),
        # The basis is primal infeasible at cover 4, and y's reduced cost
        # under 2x + y is negative: no dual simplex can start.
        dict(objective={"x": 2, "y": 1}, rhs={"cover": 4}),
        # x = 2 is basic, so it cannot be dropped (fixed at zero).
        dict(drop_variables=["x"]),
        # xcap's slack (1) is basic, so xcap cannot become an equality; and
        # a <= row never becomes >=.
        dict(relations={"xcap": EQ}),
        dict(relations={"xcap": GE}),
    ]
    tab = Tableau()
    solve(_capped({"x": 1, "y": 2}), start=tab)
    for change in bad:
        lp = tab.lp.variant(**change)
        assert lp.diff.base() is tab.lp
        before = tableau_state(tab)
        with pytest.raises(LinearProgramError):
            solve(lp, start=tab)
        assert tableau_state(tab) == before
        good = tab.lp.variant(rhs={"cover": 3})
        assert solve(good, start=tab).x == solve(good).x == {"x": 3, "y": 0}
        assert solve(good.variant(rhs={"cover": 2}), start=tab).x == {"x": 2, "y": 0}

    # On the face of x + 2y at (2, 0), y (reduced cost 1) is dropped and
    # cover (dual 1) is an equality; neither comes back: a variant cannot
    # relax cover, nor add y, and the model before the face is older.
    lp = tab.lp
    face = optimal_face(lp, solve(lp, start=tab), {"x": -1})
    assert [v.name for v in face.variables] == ["x"]
    assert [row.relation for row in face.rows] == [EQ, LE, LE]
    assert solve(face, start=tab).x == {"x": 2}
    for lp in [face.variant(objective={}, relations={"cover": GE}), lp]:
        before = tableau_state(tab)
        with pytest.raises(LinearProgramError):
            solve(lp, start=tab)
        assert tableau_state(tab) == before
        assert solve(face, start=tab).x == {"x": 2}


def test_resolving_the_last_model_makes_no_pivot(monkeypatch):
    # tab.lp itself changes nothing: its optimum stands, so solving it again
    # on tab makes no pivot, gives back the same x, y and objective, leaves
    # the tableau as it was and is one solve call (one certificate check).
    pivots, checks = [], []
    pivot, verify = Tableau.pivot, linprog.verify_certificate

    def counting_pivot(self, r, j, zrow=None):
        pivots.append((r, j))
        pivot(self, r, j, zrow)

    def counting_verify(lp, opt, base, prior):
        checks.append(lp)
        return verify(lp, opt, base, prior)

    tab = Tableau()
    cold = _capped({"x": 1, "y": 2})
    warm = cold.variant(rhs={"cover": 4})  # a dual simplex: (3, 1)
    face = optimal_face(warm, solve(warm), {"y": 1})
    for lp in (cold, warm, face):
        first = solve(lp, start=tab)
        before = tableau_state(tab)
        monkeypatch.setattr(Tableau, "pivot", counting_pivot)
        monkeypatch.setattr(linprog, "verify_certificate", counting_verify)
        again = solve(lp, start=tab)
        monkeypatch.undo()
        assert pivots == [] and checks == [lp]
        assert (again.x, again.y, again.objective) == (first.x, first.y, first.objective)
        assert again == first and tableau_state(tab) == before
        del checks[:]
    assert face.diff.base() is warm and tab.lp is face


def test_variant_records_the_diff_the_row_comparison_finds():
    rng = random.Random(19)
    shared = {"variables": 0, "objective": 0, "index": 0}
    for _ in range(200):
        lp = random_bounded_lp(rng)[0]
        if rng.random() < 0.5:
            lp = lp.variant(free=[v.name for v in lp.variables if rng.random() < 0.3])
        ids, names = [row.id for row in lp.rows], [v.name for v in lp.variables]
        drop_rows = [i for i in ids if rng.random() < 0.2]
        kept = [i for i in ids if i not in drop_rows]
        rhs = {i: lp.rows[lp.index[i]].rhs + rng.choice([0, 0, 1, -2]) for i in kept
               if rng.random() < 0.5}
        relations = {i: rng.choice([LE, GE, EQ]) for i in kept if rng.random() < 0.3}
        drop = [n for n in names if rng.random() < 0.2]
        free = [n for n in names if n not in drop and rng.random() < 0.2]
        objective = None if rng.random() < 0.6 else {
            n: rng.randint(-2, 2) for n in names if n not in drop and rng.random() < 0.5}
        v = lp.variant(objective, rhs, relations, drop_rows, drop, free)
        assert v.diff == row_diff(lp, v)
        assert v.diff.base() is lp and lp.variant().diff.objective
        assert (v.variables is lp.variables) == (not drop and not free)
        assert (v.objective is lp.objective) == (objective is None and not set(drop) & set(
            lp.objective))
        assert (v.index is lp.index) == (not drop_rows)
        assert v.index == {row.id: p for p, row in enumerate(v.rows)}
        shared["variables"] += v.variables is lp.variables
        shared["objective"] += v.objective is lp.objective
        shared["index"] += v.index is lp.index
    assert min(shared.values()) >= 10


def test_variant_refuses_to_change_a_row_it_drops():
    lp = _capped({"x": 1, "y": 2})
    for bad in [dict(rhs={"xcap": 2}), dict(relations={"xcap": EQ}),
                dict(rhs={"xcap": 3}, relations={"ycap": EQ})]:
        with pytest.raises(LinearProgramError, match="rhs or relation of a row it drops"):
            lp.variant(drop_rows=["xcap"], **bad)
    assert [row.id for row in lp.variant(rhs={"ycap": 2}, drop_rows=["xcap"]).rows] == [
        "cover", "ycap"]


def _variant(lp, out, rng):
    """lp with some rhs values moved, some rows that are slack at out's
    optimum dropped and some positive (so basic) variables freed."""
    rhs, drop = {}, []
    for row in lp.rows:
        lhs = sum((c * out.x[name] for name, c in row.coeffs.items()), R0)
        if lhs != row.rhs and rng.random() < 0.4:
            drop.append(row.id)
        elif rng.random() < 0.7:
            rhs[row.id] = row.rhs + rng.randint(-4, 4)
    free = [v.name for v in lp.variables if v.nonnegative and out.x[v.name] > 0
            and rng.random() < 0.3]
    return lp.variant(rhs=rhs, drop_rows=drop, free=free)


def test_reoptimize_variants_match_cold_solves(monkeypatch):
    dual_outcomes = []
    dual_run = Tableau.dual_run

    def recording(self, z):
        dual_outcomes.append(dual_run(self, z))
        return dual_outcomes[-1]

    monkeypatch.setattr(Tableau, "dual_run", recording)
    rng = random.Random(11)
    models = [random_bounded_lp(rng)[0] for _ in range(60)]
    for _ in range(30):
        pair = random_perturbed_pair(rng)
        names = [("x", j) for j in range(pair.ncols)]
        models.append(LinearProgram(
            [(name, j in pair.nonneg) for j, name in enumerate(names)],
            dict(zip(names, pair.costs[0])),
            [(i, dict(zip(names, pair.a[i])), GE, pair.b[i]) for i in range(pair.nrows)],
        ))
    statuses = []
    for lp in models:
        tab = Tableau()
        out = solve(lp, start=tab)
        for _ in range(4):
            if not isinstance(out, Optimal):
                break
            lp = _variant(lp, out, rng)
            out, cold = solve(lp, start=tab), solve(lp)
            assert out.status == cold.status
            statuses.append(out.status)
            if isinstance(out, Optimal):
                assert out.objective == cold.objective
                verify_certificate(lp, out)
    assert {"optimal", "infeasible"} <= set(statuses)
    assert dual_outcomes.count(True) >= 10 and False in dual_outcomes


def _fixed_at_zero(lp, tab, rng):
    """lp, solved last on tab, with some nonbasic variables dropped, some
    inequalities whose slack is nonbasic made =, and a random objective;
    also the counts of dropped variables and tightened rows."""
    drop = {v.name for v in lp.variables
            if not tab.in_basis[tab.cols[v.name]] and rng.random() < 0.3}
    relations = {row.id: EQ for row, (col, _) in zip(lp.rows, tab.row_cols)
                 if row.relation != EQ and not tab.in_basis[col] and rng.random() < 0.5}
    objective = {v.name: rng.randint(-3, 3) for v in lp.variables if v.name not in drop}
    return (lp.variant(objective, relations=relations, drop_variables=drop),
            len(drop), len(relations))


def test_fixing_nonbasic_columns_matches_cold_solves():
    rng = random.Random(12)
    models = [random_bounded_lp(rng)[0] for _ in range(40)]
    for _ in range(40):
        pair = random_perturbed_pair(rng)
        names = [("x", j) for j in range(pair.ncols)]
        models.append(LinearProgram(
            [(name, j in pair.nonneg) for j, name in enumerate(names)],
            dict(zip(names, pair.costs[0])),
            [(i, dict(zip(names, pair.a[i])), GE, pair.b[i]) for i in range(pair.nrows)],
        ))
    dropped = tightened = solves = 0
    for lp in models:
        tab = Tableau()
        out = solve(lp, start=tab)
        for _ in range(3):
            if not isinstance(out, Optimal):
                break
            lp, d, t = _fixed_at_zero(lp, tab, rng)
            dropped, tightened = dropped + d, tightened + t
            out, cold = solve(lp, start=tab), solve(lp)
            assert out.status == cold.status
            if isinstance(out, Optimal):
                assert out.objective == cold.objective
                verify_certificate(lp, out)
                solves += 1
    assert dropped >= 40 and tightened >= 80 and solves >= 150


def test_dual_start_random_models_match_enumeration(monkeypatch):
    # Each random model with |c| (dual feasible at the slack basis as it is),
    # as drawn (signed costs) and with the drawn costs doubled: one
    # phase 2 run per optimal solve, none for an infeasible one. The costs
    # do not change feasibility, so an infeasible model is enumerated once.
    calls = record_runs(monkeypatch)
    rng = random.Random(20261018)
    optimal = infeasible = 0
    for _ in range(200):
        lp, rows, objective, n = random_bounded_lp(rng)
        names = [v.name for v in lp.variables]
        positive = [abs(c) for c in objective]
        low = enumerate_minimum(n, rows, positive)
        signed = None if low is None else enumerate_minimum(n, rows, objective)
        for costs, expected in [
            (positive, low),
            (objective, signed),
            ([2 * c for c in objective], None if signed is None else 2 * signed),
        ]:
            out = solve(LinearProgram(lp.variables, dict(zip(names, costs)), lp.rows))
            if expected is None:
                assert isinstance(out, Infeasible) and calls == []
                infeasible += 1
            else:
                assert isinstance(out, Optimal) and len(calls) == 1
                assert out.objective == expected
                optimal += 1
            del calls[:]
    assert optimal >= 200 and infeasible >= 60


def test_dual_start_makes_one_run_call_for_every_objective(monkeypatch):
    calls = record_runs(monkeypatch)
    for objective in [{"x": 1, "y": 2}, {}, {"x": 1, "y": -1}, {"x": -1, "y": -1}]:
        lp = LinearProgram(["x", "y"], objective, _capped({}).rows)
        out = solve(lp)
        assert len(calls) == 1
        assert isinstance(out, Optimal)
        del calls[:]


def test_shifted_start_costs_reach_the_optimum_before_phase_2(monkeypatch):
    # min -a - 2b subject to a + b = 1 starts on costs (1, 0): the dual run
    # brings b in, which is optimal. Start costs clipped to (0, 0) would
    # bring a in (lowest index) and leave phase 2 one pivot.
    # min -2a + b subject to a >= 1 (lo), 2a <= 2 (hi) and a + 2b >= 3
    # (cover) starts on costs (0, 3), and the slacks start at 0: a enters
    # on lo, cover takes lo's slack back in at ratio 0 ahead of b (3/2), and
    # hi then brings b in at (1, 1). A slack started at the shift 2 would
    # let b in first and leave phase 2 a degenerate pivot.
    calls = record_runs(monkeypatch)
    for rows, costs, x in [
        ([("r", {"a": 1, "b": 1}, EQ, 1)], {"a": -1, "b": -2}, {"a": 0, "b": 1}),
        ([("lo", {"a": -1}, LE, -1), ("hi", {"a": 2}, LE, 2),
          ("cover", {"a": 1, "b": 2}, GE, 3)], {"a": -2, "b": 1}, {"a": 1, "b": 1}),
    ]:
        for scale in (1, 2):
            lp = LinearProgram(["a", "b"], {k: scale * c for k, c in costs.items()}, rows)
            out = solve(lp)
            assert out.x == x and out.objective == scale * sum(costs[k] * x[k] for k in x)
            assert calls == [0]
            del calls[:]


def test_dual_start_flips_exactly_the_ge_rows():
    rows = [
        ("le+", {"x": 1}, LE, 3), ("le-", {"x": -1, "y": 1}, LE, -1),
        ("ge+", {"x": 1, "y": 1}, GE, 2), ("ge-", {"y": 1}, GE, -4),
        ("eq+", {"x": 1, "y": -1}, EQ, 1), ("eq-", {"x": -1, "y": 1}, EQ, -1),
    ]
    # The flips do not depend on the rhs signs, nor on a negative cost.
    for objective in [{"x": 1, "y": 1}, {"x": -1, "y": 1}]:
        lp = LinearProgram(["x", "y"], objective, rows)
        tab = Tableau()
        out = solve(lp, start=tab)
        assert [flip for _, flip in tab.row_cols] == [False, False, True, True, False, False]
        assert out.objective == solve(lp).objective
        verify_certificate(lp, out)


def test_dual_start_equality_rows():
    # The artificial of x - y = -1 starts at -1 and leaves onto y (entry
    # -1); that of -x + y = 1, the same row negated, starts at +1 and leaves
    # onto y (entry +1). Pivoting the positive one out onto the lowest
    # column, x, would set x = -1.
    for row in [("r", {"x": 1, "y": -1}, EQ, -1), ("r", {"x": -1, "y": 1}, EQ, 1)]:
        lp = LinearProgram(["x", "y"], {"x": 1, "y": 1}, [row, ("cap", {"y": 1}, LE, 5)])
        out = solve(lp)
        assert out.x == {"x": 0, "y": 1} and out.objective == 1
        assert out.y == {"r": row[1]["y"], "cap": 0}
    # x - y = 0 holds at the slack basis, so its artificial is basic at zero
    # after the dual run and is pivoted out onto x. Left basic, it would be
    # banned and nonzero once the rhs moves, and the reoptimization would
    # report the model infeasible.
    def model(rhs):
        return LinearProgram(["x", "y"], {"x": 1, "y": 1},
                             [("r", {"x": 1, "y": -1}, EQ, rhs), ("cap", {"x": 1}, LE, 5)])

    tab = Tableau()
    assert solve(model(0), start=tab).x == {"x": 0, "y": 0}
    out = solve(tab.lp.variant(rhs={"r": 2}), start=tab)
    assert out.x == solve(model(2)).x == {"x": 2, "y": 0}


def test_dual_start_free_columns_and_scaled_costs(monkeypatch):
    calls = record_runs(monkeypatch)
    # f is free at cost 0: it enters first (ratio 0) and settles at its cap.
    lp = LinearProgram(["x", ("f", False), "y"], {"x": 1, "y": 2}, [
        ("cover", {"x": 1, "f": 1}, GE, 3), ("fcap", {"f": 1}, LE, 1),
        ("floor", {"f": 1, "y": 1}, GE, -2),
    ])
    out = solve(lp)
    assert out.x == {"x": 2, "f": 1, "y": 0} and out.objective == 2
    assert out.y == {"cover": 1, "fcap": -1, "floor": 0}
    # f settles negative, at a cap below zero.
    lp = LinearProgram([("f", False), "x"], {"x": 1}, [
        ("fcap", {"f": 1}, LE, -3), ("link", {"x": 1, "f": 1}, GE, -1),
    ])
    assert solve(lp).x == {"f": -3, "x": 2}
    # Doubled costs keep x and double the objective and the duals.
    rows = _capped({}).rows
    low, high = (solve(LinearProgram(["x", "y"], {"x": 1, "y": 2}, rows)),
                 solve(LinearProgram(["x", "y"], {"x": 2, "y": 4}, rows)))
    assert low.x == high.x == {"x": 2, "y": 0} and high.objective == 4
    assert high.y == {k: 2 * v for k, v in low.y.items()}
    assert len(calls) == 4


def test_variant_rhs_with_a_new_denominator_is_checked_against_it():
    rows = [("cover", {"x": 1, "y": 2}, GE, 2), ("cap", {"x": 3}, LE, 4)]
    lp = LinearProgram(["x", "y"], {"x": 2, "y": 1}, rows)
    third = rat(1, 3)
    variant = lp.variant(rhs={"cover": third, "cap": third})
    fresh = LinearProgram(["x", "y"], {"x": 2, "y": 1},
                          [(i, coeffs, rel, third) for i, coeffs, rel, _ in rows])
    assert model_parts(variant) == model_parts(fresh)
    # The variant keeps each row's coefficient map and its integer scaling.
    for new, old in zip(variant.rows, lp.rows):
        assert new is not old and new.coeffs is old.coeffs and new.scale is old.scale
    best = solve(variant)
    assert best.x == solve(fresh).x == {"x": 0, "y": rat(1, 6)}
    assert best.objective == rat(1, 6)
    verify_certificate(variant, best)
    with pytest.raises(SolverInvariantError, match=re.escape("row 'cover' violated: 1/3 >= 2")):
        verify_certificate(lp, best)
    # Each violation reads the same on the variant as on the fresh model,
    # against the new rhs.
    for x, message in [
        ({"x": R0, "y": rat(1, 7)}, "row 'cover' violated: 2/7 >= 1/3"),
        ({"x": rat(1, 5), "y": rat(1, 15)}, "row 'cap' violated: 3/5 <= 1/3"),
    ]:
        bad = Optimal(x, best.y, 2 * x["x"] + x["y"])
        for model in (variant, fresh):
            with pytest.raises(SolverInvariantError, match=re.escape(message)):
                verify_certificate(model, bad)


def test_variant_shares_what_it_keeps_and_validates_what_it_changes():
    lp = LinearProgram(["x", "y", "z"], {"x": 1, "y": 1, "z": 1}, [
        ("a", {"x": 1, "y": HALF}, GE, 1), ("b", {"z": 1}, GE, 1), ("c", {"y": 1}, LE, 5)])
    assert lp.variant() is not lp and model_parts(lp.variant()) == model_parts(lp)
    assert all(new is old for new, old in zip(lp.variant().rows, lp.rows))
    v = lp.variant({"x": 1}, rhs={"b": 2}, relations={"a": EQ}, drop_rows=["c"],
                   drop_variables=["y"], free=["z"])
    fresh = LinearProgram(["x", ("z", False)], {"x": 1},
                          [("a", {"x": 1}, EQ, 1), ("b", {"z": 1}, GE, 2)])
    assert model_parts(v) == model_parts(fresh)
    # a loses y, so its map and scale are new; b keeps both.
    assert v.rows[0].coeffs is not lp.rows[0].coeffs and v.rows[0].scale == ([1], 1)
    assert lp.rows[0].scale == ([2, 1], 2)
    assert v.rows[1].coeffs is lp.rows[1].coeffs and v.rows[1].scale is lp.rows[1].scale
    for bad in [dict(objective={"w": 1}), dict(rhs={"d": 1}),
                dict(relations={"a": "=="}), dict(relations={"d": EQ}), dict(drop_rows=["d"]),
                dict(drop_variables=["w"]), dict(free=["w"]), dict(free=["y"], drop_variables=["y"]),
                dict(drop_variables=["y"], objective={"y": 1})]:
        with pytest.raises(LinearProgramError):
            lp.variant(**bad)


def _wide(rng, rows, objective):
    """The oracle's rows and objective with costs c + 2^-k (k up to 130) and
    every rhs moved by a fraction over a power of 3 past 30 bits."""
    objective = [Fraction(c) + Fraction(1, 2 ** rng.randint(1, 130)) for c in objective]
    rows = [(coeffs, rel, Fraction(rhs) + Fraction(rng.randint(-2, 2), 3 ** rng.randint(20, 60)))
            for coeffs, rel, rhs in rows]
    return rows, objective


def _oracle_lp(rows, objective, scale=1):
    """The model of the oracle's rows and objective, the objective times
    scale, so its optimum is scale times the oracle's minimum."""
    names = [f"x{j}" for j in range(len(objective))]
    return LinearProgram(
        names,
        {name: rat(scale * c.numerator, c.denominator) for name, c in zip(names, objective)},
        [(f"r{i}", {names[j]: c for j, c in enumerate(coeffs) if c}, rel,
          rat(rhs.numerator, rhs.denominator)) for i, (coeffs, rel, rhs) in enumerate(rows)],
    )


def test_wide_values_match_enumeration_on_an_int_tableau():
    # Each model cold, then warm with its objective doubled and new wide rhs
    # values, against the enumeration oracle; after every solve the tableau
    # holds Python ints only (never a rational or an int subclass). The
    # rhs width stays in the value column: the rows' coefficients stay
    # narrow while the values run wide.
    rng = random.Random(20261020)
    tab_types, bits, optimal, infeasible = set(), 0, 0, 0
    row_bits = value_bits = 0
    for _ in range(60):
        _, rows, objective, n = random_bounded_lp(rng)
        rows, objective = _wide(rng, rows, objective)
        tab = Tableau()
        for scale in (1, 2):
            if scale == 1:
                lp = _oracle_lp(rows, objective)
            else:
                rows = [(coeffs, rel, rhs + Fraction(rng.randint(-2, 2), 5 ** rng.randint(20, 50)))
                        for coeffs, rel, rhs in rows]
                lp = lp.variant({k: 2 * c for k, c in lp.objective.items()},
                                rhs={f"r{i}": rat(rhs.numerator, rhs.denominator)
                                     for i, (*_, rhs) in enumerate(rows)})
                assert model_parts(lp) == model_parts(_oracle_lp(rows, objective, 2))
            out = solve(lp, start=tab)
            expected = enumerate_minimum(n, rows, objective)
            tab_types |= {type(v) for row in tab.rows for v in row}
            tab_types |= {type(v) for pair in tab.values for v in pair}
            row_bits = max(row_bits, *[abs(v).bit_length() for row in tab.rows for v in row])
            value_bits = max(value_bits, *[abs(v).bit_length() for pair in tab.values for v in pair])
            if expected is None:
                assert isinstance(out, Infeasible)
                infeasible += 1
                break
            assert out.objective == scale * expected
            assert verify_certificate(lp, out) == out
            tab_types |= {type(v) for v in tab.z}
            bits = max(bits, out.objective.denominator.bit_length())
            optimal += 1
    assert tab_types == {int}
    assert bits > 120 and optimal >= 40 and infeasible >= 5
    assert row_bits <= 16 and value_bits > 60, (row_bits, value_bits)
