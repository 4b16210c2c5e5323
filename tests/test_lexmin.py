"""Tests for lexicographic minimization over the optimal face."""

import random

import pytest

from helpers import random_perturbed_pair

from cpmatch.fixtures import dancing_robot
from cpmatch.gen import random_matchable_graph, random_ordering
from cpmatch.graphs import Graph
from cpmatch.lexmin import lex_min_optimal, staged_optima
from cpmatch.linprog import (
    EQ, GE, LE, LinearProgram, Optimal, Row, Tableau, Unbounded, solve,
)
from cpmatch.matchlp import build_primal
from cpmatch.rationals import R0, R1, rat


def test_square_matching_example():
    # Unit-cost 4-cycle, edges minimized in the order
    # (0,1), (1,2), (2,3), (0,3): the first edge is forced to 0, which
    # leaves exactly the matching {(1,2), (0,3)}.
    g = Graph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)))
    lp = build_primal(g, g.cost_map(), [])
    order = [(0, 1), (1, 2), (2, 3), (0, 3)]
    res = lex_min_optimal(lp, order)
    assert res.status == "optimal"
    assert res.objective == 2
    assert res.lp_solves == 5
    assert res.values == {(0, 1): R0, (1, 2): R1, (2, 3): R0, (0, 3): R1}


def test_order_changes_the_point():
    g = Graph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)))
    lp = build_primal(g, g.cost_map(), [])
    res = lex_min_optimal(lp, [(1, 2), (0, 1), (2, 3), (0, 3)])
    assert res.values == {(0, 1): R1, (1, 2): R0, (2, 3): R1, (0, 3): R0}


def test_lexmin_faces_keep_no_earlier_face_alive():
    # A face's Diff refers to the face before it weakly: once the stages
    # are done the tableau holds the last face, and nothing holds the one
    # before, so the faces do not chain back to the first.
    g, sigma, _ = dancing_robot()
    lp = build_primal(g, g.cost_map(), [])
    tab = Tableau()
    res = lex_min_optimal(lp, sigma.order(), start=tab)
    assert res.status == "optimal" and res.lp_solves == g.m + 1
    assert tab.lp is not lp and tab.lp.diff.base() is None


def test_order_must_be_a_permutation():
    lp = LinearProgram(["a", "b"], {"a": 1}, [("r", {"a": 1, "b": 1}, GE, 1)])
    with pytest.raises(ValueError, match="permutation"):
        lex_min_optimal(lp, ["a"])
    with pytest.raises(ValueError, match="permutation"):
        lex_min_optimal(lp, ["a", "a"])
    with pytest.raises(ValueError, match="permutation"):
        lex_min_optimal(lp, ["a", "c"])


def test_infeasible_and_unbounded_propagate():
    lp = LinearProgram(
        ["a"], {"a": 1},
        [("r1", {"a": 1}, GE, 2), ("r2", {"a": -1}, GE, 0)],
    )
    res = lex_min_optimal(lp, ["a"])
    assert res.status == "infeasible"
    assert res.values is None
    assert res.lp_solves == 1

    lp = LinearProgram(
        [("a", False), ("b", True)], {"b": 1}, [("r", {"b": 1}, GE, 1)]
    )
    # The free variable has no floor on the optimal face.
    res = lex_min_optimal(lp, ["a", "b"])
    assert res.status == "unbounded"
    assert res.lp_solves == 2


def test_staged_optima_stops_after_the_first_failed_stage():
    # Stage 0 and the face minimizing b are optimal; a is free with no floor
    # on that face, so its stage is unbounded and the last objective is
    # never solved.
    lp = LinearProgram([("a", False), "b"], {"b": 1}, [("r", {"b": 1}, GE, 1)])
    stages = list(staged_optima(lp, [{"b": R1}, {"a": R1}, {"b": R1}]))
    assert [type(out) for _, out in stages] == [Optimal, Optimal, Unbounded]
    assert stages[0][0] is lp
    assert [dict(model.objective) for model, _ in stages[1:]] == [{"b": R1}, {"a": R1}]
    assert stages[1][1].value("b") == R1


def test_result_lies_on_the_optimal_face():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.choice([4, 6])
        max_m = n * (n - 1) // 2
        m = rng.randint(n // 2 + 1, max_m)
        g = random_matchable_graph(n, m, 9, rng)
        lp = build_primal(g, g.cost_map(), [])
        base = solve(lp)
        assert isinstance(base, Optimal)
        order = random_ordering(g, rng).order()
        res = lex_min_optimal(lp, order)
        assert res.status == "optimal"
        assert res.objective == base.objective
        cost = g.cost_map()
        assert sum(res.values[e] * cost[e] for e in g.edge_pairs()) == base.objective


def test_matches_explicit_power_of_two_perturbation():
    # The lexicographic minimum in rank order equals the unique optimum
    # after bumping each cost by 2**(-rank).
    rng = random.Random(11)
    for _ in range(20):
        n = rng.choice([4, 6])
        max_m = n * (n - 1) // 2
        m = rng.randint(n // 2 + 1, max_m)
        g = random_matchable_graph(n, m, 9, rng)
        sigma = random_ordering(g, rng)
        order = sigma.order()
        lp = build_primal(g, g.cost_map(), [])
        res = lex_min_optimal(lp, order)
        assert res.status == "optimal"

        bumped = {
            e: rat(c) + rat(1, 2 ** sigma.rank[(u, v)])
            for (u, v, c) in g.edges
            for e in [(u, v)]
        }
        out = solve(build_primal(g, bumped, []))
        assert isinstance(out, Optimal)
        assert out.x == res.values


def cold_lex_min(lp, order):
    """The reference, as (status, values, objective): lexmin by appended
    rows, each stage solved cold (no start). A stage model is lp's rows plus
    one row pinning the optimal objective and one row pinning each variable
    already minimized. lex_min_optimal solves optimal faces on one tableau
    instead; both reach the unique lexmin point."""
    first = solve(lp)
    if not isinstance(first, Optimal):
        return first.status, None, None
    rows = list(lp.rows)
    rows.append(Row(("lex", "objective"), dict(lp.objective), EQ, first.objective))
    values = {}
    for name in order:
        out = solve(LinearProgram(lp.variables, {name: R1}, rows))
        if not isinstance(out, Optimal):
            return out.status, None, None
        values[name] = out.x[name]
        rows.append(Row(("lex", "fix", name), {name: R1}, EQ, values[name]))
    return "optimal", values, first.objective


def assert_matches_cold(lp, order):
    res = lex_min_optimal(lp, order)
    assert (res.status, res.values, res.objective) == cold_lex_min(lp, order)
    return res


def test_warm_stages_match_cold_stages_on_matching_lps():
    rng = random.Random(2026)
    for trial in range(24):
        n = rng.choice([6, 8])
        m = rng.randint(n // 2 + 2, min(n * (n - 1) // 2, 14))
        g = random_matchable_graph(n, m, 5, rng)
        family = []
        if trial % 2:
            inner = frozenset(rng.sample(range(n), 3))
            family.append(inner)
            if n == 8:
                family.append(inner | frozenset(rng.sample(sorted(set(range(n)) - inner), 2)))
        lp = build_primal(g, g.cost_map(), family)
        order = random_ordering(g, rng).order()
        res = assert_matches_cold(lp, order)
        assert res.lp_solves == m + 1


def test_warm_stages_match_cold_stages_on_a_fractional_fixture():
    # dancing_robot's second relaxation has a half-integral optimum under
    # its two cut rows.
    g, sigma, exp = dancing_robot()
    lp = build_primal(g, g.cost_map(), exp.family2)
    res = assert_matches_cold(lp, sigma.order())
    assert res.values == exp.iterate2


def test_warm_stages_match_cold_stages_on_hand_made_models():
    # Negative costs, a free variable, negative right-hand sides: the
    # optimal face is a + b = 4, 1 <= b, 0 <= a <= 2, c = a + 1.
    lp = LinearProgram(
        ["a", "b", ("c", False)],
        {"a": -1, "b": -1},
        [
            ("cap", {"a": 1, "b": 1}, LE, 4),
            ("link", {"a": 1, "c": -1}, EQ, -1),
            ("ceil", {"c": 1}, LE, 3),
            ("floor", {"b": -1}, LE, -1),
        ],
    )
    assert assert_matches_cold(lp, ["a", "b", "c"]).values == {"a": 0, "b": 4, "c": 1}
    assert assert_matches_cold(lp, ["b", "c", "a"]).values == {"a": 2, "b": 2, "c": 3}
    assert assert_matches_cold(lp, ["c", "a", "b"]).values == {"a": 0, "b": 4, "c": 1}

    # Two free variables that settle negative on the face x + y = -2.
    lp = LinearProgram(
        [("x", False), ("y", False)],
        {"x": 1, "y": 1},
        [
            ("sum", {"x": 1, "y": 1}, GE, -2),
            ("xlo", {"x": 1}, GE, -5),
            ("ylo", {"y": 1}, GE, -5),
        ],
    )
    assert assert_matches_cold(lp, ["x", "y"]).values == {"x": -5, "y": 3}
    assert assert_matches_cold(lp, ["y", "x"]).values == {"x": 3, "y": -5}

    # Unbounded stage and infeasible model keep their status.
    lp = LinearProgram([("a", False), "b"], {"b": 1}, [("r", {"b": 1}, GE, 1)])
    assert assert_matches_cold(lp, ["a", "b"]).status == "unbounded"
    lp = LinearProgram(["a"], {}, [("r1", {"a": 1}, GE, 2), ("r2", {"a": 1}, LE, 1)])
    assert assert_matches_cold(lp, ["a"]).status == "infeasible"


def test_warm_stages_match_cold_stages_on_random_models():
    # Free columns, >= rows with negative right-hand sides, signed costs.
    rng = random.Random(31)
    for _ in range(40):
        pair = random_perturbed_pair(rng)
        names = [("x", j) for j in range(pair.ncols)]
        cost = {name: c for name, c in zip(names, pair.costs[0]) if c}
        lp = LinearProgram(
            [(name, j in pair.nonneg) for j, name in enumerate(names)],
            cost,
            [
                (("row", i), {names[j]: c for j, c in enumerate(pair.a[i]) if c}, GE, pair.b[i])
                for i in range(pair.nrows)
            ],
        )
        rng.shuffle(names)
        assert assert_matches_cold(lp, names).status == "optimal"


def test_lexmin_builds_one_tableau_per_call(monkeypatch):
    builds = []
    build = Tableau.build

    def counting_build(self, lp):
        builds.append(lp)
        return build(self, lp)

    monkeypatch.setattr(Tableau, "build", counting_build)
    g = Graph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)))
    lp = build_primal(g, g.cost_map(), [])
    res = lex_min_optimal(lp, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert res.lp_solves == 5
    assert builds == [lp]
    lex_min_optimal(lp, [(1, 2), (0, 1), (2, 3), (0, 3)])
    assert builds == [lp, lp]
    # A tableau that has just solved lp carries on: no build at all.
    tab = Tableau()
    solve(lp, start=tab)
    assert lex_min_optimal(lp, [(0, 1), (1, 2), (2, 3), (0, 3)], start=tab) == res
    assert builds == [lp, lp, lp]


def test_lexmin_keeps_the_probe_tableau_size():
    # Each stage only fixes columns of the probe's tableau at zero, so no
    # stage adds a row or a column to it.
    g, sigma, exp = dancing_robot()
    lp = build_primal(g, g.cost_map(), exp.family2)
    tab = Tableau()
    solve(lp, start=tab)
    size = (len(tab.rows), len(tab.nonneg))
    res = lex_min_optimal(lp, sigma.order(), start=tab)
    assert res.values == exp.iterate2 and res.lp_solves == g.m + 1
    assert (len(tab.rows), len(tab.nonneg)) == size
