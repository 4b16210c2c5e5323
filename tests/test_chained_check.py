"""The chained certificate check (linprog._chained_check) against the full
check it stands in for (linprog._full_check) and the rational reference
(helpers.fraction_verify_certificate): the same verdict, message, slack and
reduced maps on every chained solve, one rejection per branch, and no link
from a checked optimum back to its base's."""

from __future__ import annotations

import gc
import random
import sys
import weakref
from pathlib import Path

import pytest
from helpers import fraction_verify_certificate, random_bounded_lp

from cpmatch import linprog
from cpmatch.cpm import solve_naive, solve_perturbed_reference, solve_unperturbed
from cpmatch.fixtures import altered_robot, cycling_graph, dancing_robot
from cpmatch.lexmin import lex_min_optimal
from cpmatch.linprog import (
    EQ,
    GE,
    LE,
    LinearProgram,
    Optimal,
    SolverInvariantError,
    Tableau,
    solve,
    verify_certificate,
)
from cpmatch.rationals import R0

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import instances  # noqa: E402


def _verdict(check, lp, opt):
    """check's Optimal, or the message of the SolverInvariantError it raises."""
    try:
        return check(lp, opt)
    except SolverInvariantError as exc:
        return str(exc)


@pytest.fixture
def chained(monkeypatch):
    """Check every solve whose model is a variant of the tableau's checked
    base three ways: the chained check (on every certificate, whatever
    moved), the full check and the rational reference. Counts the chained
    checks that accepted and those that left the certificate to the full
    check."""
    monkeypatch.setattr(linprog, "_CHAINED_SHARE", 1)
    seen = {"accepted": 0, "declined": 0}
    verify = linprog.verify_certificate

    def checking(lp, opt, base=None, prior=None):
        if prior is None or lp.diff is None or lp.diff.base() is not base:
            return verify(lp, opt, base, prior)
        full = _verdict(linprog._full_check, lp, opt)
        reference = _verdict(fraction_verify_certificate, lp, opt)
        assert reference == (full if isinstance(full, str) else None)
        mine = linprog._chained_check(lp, opt, base, prior)
        seen["declined" if mine is None else "accepted"] += 1
        assert mine is None or mine == full
        assert _verdict(lambda lp, opt: verify(lp, opt, base, prior), lp, opt) == full
        return full

    monkeypatch.setattr(linprog, "verify_certificate", checking)
    return seen


@pytest.mark.parametrize("fixture", [dancing_robot, altered_robot, cycling_graph])
def test_chained_checks_match_the_full_check_on_the_fixtures(chained, fixture):
    g, sigma, _ = fixture()
    for solver in (solve_unperturbed, solve_perturbed_reference, solve_naive):
        solver(g, sigma)
    assert chained["accepted"] > 2 * g.m


@pytest.mark.parametrize("workload", ["cuts", "integral"])
def test_chained_checks_match_the_full_check_on_glued_and_bipartite_graphs(chained, workload):
    for inst in instances.build_pool(workload, 1, [])[:6]:
        solve_unperturbed(inst.graph, inst.sigma)
    assert chained["accepted"] > 60


def _same_objective_variant(lp, out, rng):
    """lp with some rhs values moved, some rows slack at out dropped and some
    positive (basic) variables freed: a variant a warm solve takes."""
    rhs, drop = {}, []
    for row in lp.rows:
        lhs = sum((c * out.x[name] for name, c in row.coeffs.items()), R0)
        if lhs != row.rhs and rng.random() < 0.3:
            drop.append(row.id)
        elif rng.random() < 0.3:
            rhs[row.id] = row.rhs + rng.randint(-2, 2)
    free = [v.name for v in lp.variables if v.nonnegative and out.x[v.name] > 0
            and rng.random() < 0.3]
    return lp.variant(rhs=rhs, drop_rows=drop, free=free)


def test_chained_checks_match_the_full_check_on_random_chains(chained):
    # Lexmin chains (each face a new objective) and chains of warm variants
    # that move rhs values, drop rows and free bounds.
    rng = random.Random(20261020)
    for _ in range(40):
        lp = random_bounded_lp(rng)[0]
        tab = Tableau()
        assert lex_min_optimal(lp, [v.name for v in lp.variables], start=tab).status
        tab = Tableau()
        out = solve(lp, start=tab)
        for _ in range(4):
            if not isinstance(out, Optimal):
                break
            lp = _same_objective_variant(lp, out, rng)
            out = solve(lp, start=tab)
    assert chained["accepted"] > 150


# A model whose variant below moves x on one entry and keeps y:
# x = (2, 0, 1, 0), y = (2, 1, 0, 0), then x = (3, 0, 1, 0) at r1 >= 3.
BASE_ROWS = [("r1", {"a": 1, "b": 1}, GE, 2), ("r2", {"b": 1, "c": 1}, GE, 1),
             ("r3", {"a": 1, "c": 1, "d": 1}, LE, 6), ("r4", {"c": 1, "d": -1}, EQ, 1)]
COSTS = {"a": 2, "b": 3, "c": 1, "d": 4}


def _checked_base():
    """A fresh base model solved on a fresh tableau: (base, tableau), the
    tableau holding base's checked optimum."""
    base = LinearProgram(["a", "b", "c", "d"], COSTS, BASE_ROWS)
    tab = Tableau()
    solve(base, start=tab)
    return base, tab


def _tampered(out):
    """out with one int of x or y moved, either denominator moved, or the
    objective moved: (what, certificate) pairs."""
    yield from ((("x", k), Optimal.of_ints({**out.xs, k: v + 1}, out.dx, out.ys, out.dy,
                                           out.objective)) for k, v in out.xs.items())
    yield from ((("y", k), Optimal.of_ints(out.xs, out.dx, {**out.ys, k: v + 1}, out.dy,
                                           out.objective)) for k, v in out.ys.items())
    yield "dx", Optimal.of_ints(out.xs, 2 * out.dx, out.ys, out.dy, out.objective)
    yield "dy", Optimal.of_ints(out.xs, out.dx, out.ys, 2 * out.dy, out.objective)
    yield "objective", Optimal.of_ints(out.xs, out.dx, out.ys, out.dy, out.objective + 1)


def _rejected_alike(lp, cert, prior):
    """The chained check refuses cert against prior, lp's base's checked
    optimum, and verify_certificate raises the message the full check and
    the rational reference raise."""
    base = lp.diff.base()
    assert linprog._chained_check(lp, cert, base, prior) is None
    message = _verdict(lambda lp, opt: verify_certificate(lp, opt, base, prior), lp, cert)
    assert isinstance(message, str)
    assert message == _verdict(linprog._full_check, lp, cert)
    assert message == _verdict(fraction_verify_certificate, lp, cert)
    return message


def test_each_tampered_entry_of_a_chained_optimum_is_rejected(monkeypatch):
    # Moved and unmoved x entries, y entries, either denominator and the
    # claimed objective, each tampered in turn on a chained optimum the
    # chained check accepts.
    monkeypatch.setattr(linprog, "_CHAINED_SHARE", 1)
    base, tab = _checked_base()
    prior = tab.checked
    lp = base.variant(rhs={"r1": 3})
    out = solve(lp, start=tab)
    assert linprog._chained_check(lp, out, base, prior) == out
    moved = linprog._moved(out.xs, out.dx, prior.xs, prior.dx)
    assert moved == ["a"] and linprog._moved(out.ys, out.dy, prior.ys, prior.dy) == []
    messages = {what: _rejected_alike(lp, cert, prior) for what, cert in _tampered(out)}
    assert messages == {
        ("x", "a"): "complementary slackness fails on row 'r1'",
        ("x", "b"): "complementary slackness fails on row 'r1'",
        ("x", "c"): "complementary slackness fails on row 'r2'",
        ("x", "d"): "row 'r4' violated: 0 = 1",
        ("y", "r1"): "dual constraint for 'a'",
        ("y", "r2"): "dual constraint for 'b'",
        ("y", "r3"): "dual sign for row 'r3'",
        ("y", "r4"): "dual constraint for 'c'",
        "dx": "row 'r1' violated: 3/2 >= 3",
        "dy": "complementary slackness fails on 'a'",
        "objective": "objective value mismatch",
    }


def test_model_changes_under_an_unchanged_claim_are_rejected(monkeypatch):
    # The base's own optimum claimed for a variant that moved a rhs,
    # dropped a row with a nonzero y, freed a bound with a nonzero reduced
    # cost, changed the objective or dropped a variable with a nonzero x.
    monkeypatch.setattr(linprog, "_CHAINED_SHARE", 1)
    base, tab = _checked_base()
    prior = tab.checked
    assert prior.ys["r2"] and prior.reduced == {"d": 4}
    cases = {
        "rhs": (base.variant(rhs={"r3": 2}), "row 'r3' violated: 3 <= 2"),
        "dropped row": (base.variant(drop_rows=["r2"]), "complementary slackness fails on 'c'"),
        "freed bound": (base.variant(free=["d"]), "dual constraint for free 'd'"),
        "objective": (base.variant(objective={**COSTS, "a": 1}), "dual constraint for 'a'"),
    }
    # A second model, where e carries x = 2 at cost 0 and the row r3 with
    # rhs 0 carries y = 1, so neither c.x nor y.b moves when they go.
    zero = LinearProgram(["a", "b", "e"], {"a": 1, "b": 1},
                         [("r1", {"a": 1, "e": 1}, GE, 3), ("r2", {"e": 1}, LE, 2),
                          ("r3", {"b": 1, "e": -1}, GE, 0)])
    zero_tab = Tableau()
    assert solve(zero, start=zero_tab).x == {"a": 1, "b": 2, "e": 2}
    assert zero_tab.checked.y["r3"] == 1
    cases.update({
        "dropped variable": (zero.variant(drop_variables=["e"]), "row 'r1' violated: 1 >= 3"),
        "dropped row at rhs 0": (zero.variant(drop_rows=["r3"]),
                                 "complementary slackness fails on 'b'"),
    })
    priors = {base: prior, zero: zero_tab.checked}
    for what, (lp, expected) in cases.items():
        prior = priors[lp.diff.base()]
        xs = {k: v for k, v in prior.xs.items() if k not in lp.diff.dropped}
        ys = {k: v for k, v in prior.ys.items() if k in lp.index}
        cert = Optimal.of_ints(xs, prior.dx, ys, prior.dy, prior.objective)
        message = _rejected_alike(lp, cert, prior)
        assert message == expected, what


def test_a_chained_optimum_keeps_no_reference_to_its_base_optimum(monkeypatch):
    # The chained check reads the tableau's checked optimum of the base, and
    # the optimum it returns, which the tableau keeps instead, holds only
    # ints, dicts and triples: once the base is gone, nothing keeps the
    # base or its optimum alive.
    monkeypatch.setattr(linprog, "_CHAINED_SHARE", 1)
    accepted = []
    chained_check = linprog._chained_check

    def recording(lp, opt, base, prior):
        out = chained_check(lp, opt, base, prior)
        accepted.append(out is not None)
        return out

    monkeypatch.setattr(linprog, "_chained_check", recording)
    base, tab = _checked_base()
    prior = weakref.ref(tab.checked)
    lp = base.variant(rhs={"r1": 3})
    out = solve(lp, start=tab)
    assert accepted == [True] and out is tab.checked
    del base
    gc.collect()
    assert lp.diff.base() is None and prior() is None


def test_a_failed_check_leaves_the_tableau_sound(monkeypatch):
    # A check that raises leaves the tableau with no checked optimum, so
    # the next warm solve hands nothing over (x and y are built afresh from
    # the basis, not taken from the optimum that failed) and gets the full
    # check, not the chained one a checked prior would give it here.
    base, tab = _checked_base()
    lp = base.variant(rhs={"r1": 3})
    full, claims = linprog._full_check, []

    def failing_once(model, opt):
        claims.append(opt)
        if len(claims) == 1:
            raise SolverInvariantError("injected")
        return full(model, opt)

    monkeypatch.setattr(linprog, "_full_check", failing_once)
    with pytest.raises(SolverInvariantError, match="injected"):
        solve(lp, start=tab)
    assert (tab.lp, tab.status, tab.checked) == (lp, "optimal", None)
    monkeypatch.setattr(linprog, "_CHAINED_SHARE", 1)
    monkeypatch.setattr(linprog, "_chained_check", lambda *args: pytest.fail("chained check"))
    variant = lp.variant(rhs={"r3": 7})  # only r3's basic slack moves: no pivot
    out = solve(variant, start=tab)
    failed, claim = claims
    assert claim.xs is not failed.xs and claim.ys is not failed.ys
    assert out is tab.checked and out == solve(variant)
