"""Tests for the three solver modes against the fixtures and each other."""

import hashlib
import random
import sys
from pathlib import Path

import pytest
from helpers import model_parts, random_bounded_lp, row_diff, tableau_state

from cpmatch import cpm, lexmin, linprog
from cpmatch.cpm import (
    default_iteration_cap,
    extract_matching,
    solve_naive,
    solve_perturbed_reference,
    solve_unperturbed,
)
from cpmatch.errors import IterationCapExceeded, NoPerfectMatching
from cpmatch.fixtures import altered_robot, cycling_graph, dancing_robot
from cpmatch.gen import random_matchable_graph, random_ordering
from cpmatch.graphs import EdgeOrdering, Graph, cut_edges, support
from cpmatch.linprog import (
    EQ,
    GE,
    LE,
    MAX,
    MIN,
    LinearProgram,
    LinearProgramError,
    Optimal,
    Row,
    Tableau,
    Variable,
)
from cpmatch.oracle import brute_force_matchings, lex_tie_break
from cpmatch.perturb import SignViolation
from cpmatch.rationals import HALF, R0, R1, rat, rat_str

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import instances  # noqa: E402


def k2():
    g = Graph(2, ((0, 1, 7),))
    return g, EdgeOrdering.from_sequence([(0, 1)])


def two_triangles():
    g = Graph(6, ((0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)))
    return g, EdgeOrdering.from_sequence(g.edge_pairs())


def test_single_edge_all_modes():
    g, sigma = k2()
    res = solve_unperturbed(g, sigma)
    assert res.matching == {(0, 1)} and res.cost == 7
    assert len(res.iterations) == 1
    assert res.total_lp_solves == 2 * g.m + 3 == 5
    ref = solve_perturbed_reference(g, sigma)
    assert ref.matching == res.matching and ref.cost == 7
    naive = solve_naive(g, sigma)
    assert naive.stop_reason == "Integral"
    assert naive.matching == {(0, 1)} and naive.cost == 7
    assert naive.total_lp_solves == 2  # lexmin only, no dual after the stop
    assert naive.iterations[0].dual_stages == ()


def test_square_lexmin_selection():
    g = Graph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)))
    sigma = EdgeOrdering.from_sequence([(0, 1), (1, 2), (2, 3), (0, 3)])
    res = solve_unperturbed(g, sigma)
    assert res.matching == {(1, 2), (0, 3)}
    assert res.cost == 2
    assert solve_perturbed_reference(g, sigma).matching == res.matching


def test_no_perfect_matching_raises():
    g, sigma = two_triangles()
    with pytest.raises(NoPerfectMatching):
        solve_unperturbed(g, sigma)
    with pytest.raises(NoPerfectMatching):
        solve_perturbed_reference(g, sigma)
    naive = solve_naive(g, sigma)
    assert naive.stop_reason == "NoPerfectMatching"
    assert naive.matching is None and naive.cost is None
    # One fractional iteration, then the cut rows expose the infeasibility.
    assert len(naive.iterations) == 1
    assert naive.total_lp_solves == 9
    # An odd vertex count is caught before any solve.
    for n in (3, 5):
        g = Graph(n, tuple((v, (v + 1) % n, 1) for v in range(n)))
        sigma = EdgeOrdering.from_sequence(g.edge_pairs())
        with pytest.raises(NoPerfectMatching, match="odd number of vertices"):
            solve_unperturbed(g, sigma)
        with pytest.raises(NoPerfectMatching, match="odd number of vertices"):
            solve_perturbed_reference(g, sigma)
        naive = solve_naive(g, sigma)
        assert naive.stop_reason == "NoPerfectMatching"
        assert naive.iterations == () and naive.total_lp_solves == 0


def test_iteration_cap():
    g, sigma, _ = dancing_robot()
    with pytest.raises(IterationCapExceeded):
        solve_unperturbed(g, sigma, iteration_cap=1)
    with pytest.raises(IterationCapExceeded):
        solve_perturbed_reference(g, sigma, iteration_cap=2)
    assert default_iteration_cap(g) == 2109


def test_extract_matching_validation():
    assert extract_matching({(0, 1): R1, (1, 2): R0}, n=2) == {(0, 1)}
    with pytest.raises(ValueError):
        extract_matching({(0, 1): HALF})
    with pytest.raises(ValueError):
        extract_matching({(0, 1): R1, (1, 2): R1})
    with pytest.raises(ValueError):
        extract_matching({(0, 1): R1}, n=4)


def _stage_digest(rec, stages=None):
    """SHA-256 of one iteration's first `stages` dual stages (all when None),
    each written as sorted 'key:value' pairs (a set key is its sorted
    vertices joined with '+')."""

    def key(k):
        return str(k) if isinstance(k, int) else "+".join(str(v) for v in sorted(k))

    text = "|".join(
        ",".join(f"{key(k)}:{rat_str(v)}" for k, v in sorted(stage.items(), key=lambda kv: key(kv[0])))
        for stage in rec.dual_stages[:stages]
    )
    return hashlib.sha256(text.encode()).hexdigest()


#: Stage duals of unperturbed dancing_robot, one digest per iteration. The
#: closest-dual optimum is not unique, so these pin the simplex pivot path
#: (a cold stage 0, then each stage warm-started from the last one by a dual
#: simplex), not just the algorithm. A change of pivot path, such as the
#: warm starts of ROADMAP item 2, may re-pin them on purpose; x and the
#: families must not move with them.
DANCING_ROBOT_STAGE_DIGESTS = (
    "61ae81bf0a13cdba5344bec5fecbba49fc8c0bd35cb9532048bdc5afc58de5e2",
    "4186f794335103fe9745c46b82c6b8d6f547ab7d36a8a28f128c2466fca6e9c9",
    "69e3a41469c55a7904a46560bc00057b0b8722cc5cbc714fbd7289fa5cd6a59c",
)

#: The same digests over stage 0 alone. Stage 0 is solved cold on a fresh
#: tableau, so a warm start of the later stages must not move these.
DANCING_ROBOT_STAGE0_DIGESTS = (
    "b3bdf8fba14043e55cbda5868d3b4296ec06b9ab8f144a7fcd80c013c66f6457",
    "8a7b2f529b9f8759030b47b7d605f1ebe95f147bd39b99b52a24037c5b9545b4",
    "f9f41f5eb31da94adcaadb3147a5fa358194faab0c92ebcbd8ad11fb7c24e6e8",
)

#: The same digests for the two single-stage modes: perturbed dancing_robot
#: and naive cycling. Naive mode's fourth iteration stops on the repeat before
#: its dual solve, so its stage list is empty (the digest of no text). A
#: perturbed stage is a cold solve, so its digests pin the cold start's path
#: (a dual simplex from the slack basis, as its costs are nonnegative).
PERTURBED_DANCING_ROBOT_STAGE_DIGESTS = (
    "74f11f78322e05d54d20fcdadddda15e66fc855dd222eb223015383c4bea17f5",
    "8bdaff9570adc767c56baff14be2348ff8e8bdf7bb0729876aba0548db764ef8",
    "a6a11bccf95bf9dbc7c2fc39f320f59cc07b622b212cea122cdb6d68eb34559d",
)
NAIVE_CYCLING_STAGE_DIGESTS = (
    "cd6874866c70da0cae024115d5d6842a9f2280a69845dcd0e0159083fdd14271",
    "43d3c039e49c1d02e0c74d00f9fa45c8b5451ee5ca3eb295036fdc902e33ed3c",
    "82dacaf9d46af91ecb7b5ac0927e8523d073cd8b68c8488e8b341793eb635d67",
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
)


def _tamper_closest_duals(monkeypatch, edit):
    """Route cpm.solve through edit(lp, x, slack, call) on every
    closest-dual optimum, where x and slack are copies of its primal values
    and row slacks that edit may change and call counts those solves from 0:
    a faulty solve, seen only by cpm. Returns the list of the non-None
    values edit returned."""
    real = cpm.solve
    calls, broken = [], []

    def tampered(lp, *args, **kwargs):
        out = real(lp, *args, **kwargs)
        if isinstance(out, Optimal) and ("r", 0) in out.x:
            x, slack = dict(out.x), dict(out.slack)
            what = edit(lp, x, slack, len(calls))
            if what is not None:
                broken.append(what)
            calls.append(lp)
            out = Optimal(x, out.y, out.objective, slack, out.reduced)
        return out

    monkeypatch.setattr(cpm, "solve", tampered)
    return broken


def test_negative_first_stage_value_raises_sign_violation(monkeypatch):
    # A faulty closest-dual solve that leaves vertex 0's lo residual at -1 in
    # the first stage: the first nonzero of its series is negative.
    def edit(lp, x, slack, call):
        x[("r", 0)] = -x[("pi", 0)] - 1
        slack[("lo", 0)] = rat(-1)

    _tamper_closest_duals(monkeypatch, edit)
    g, sigma = k2()
    for solver in (solve_unperturbed, solve_perturbed_reference):
        with pytest.raises(SignViolation) as err:
            solver(g, sigma)
        assert err.value.what == ("lo", 0)
        assert err.value.series == (rat(-1),)


def _break_hi(lp, x, slack, call):
    # pi_0 = r_0 + 1 leaves the hi row pi_0 - r_0 <= 0 at slack -1, while the
    # lo row r_0 + pi_0 >= 0 stays positive.
    x[("pi", 0)] = x[("r", 0)] + 1
    slack[("hi", 0)] = rat(-1)
    return ("hi", 0)


def _break_hi_at_stage_1(lp, x, slack, call):
    # Stage 0 of k2 gives pi_0 = 7 = r_0: the hi row is tight and stays, the
    # lo row is dropped.
    return _break_hi(lp, x, slack, call) if call == 1 else None


def _break_edge(lp, x, slack, call):
    # Raising pi_0 past the capacity of the non-support edge (0, 2), with
    # r_0 = |pi_0| so vertex 0's distance rows hold, leaves the edge row
    # pi_0 + pi_2 <= c at slack -1.
    (cap,) = [row.rhs for row in lp.rows if row.id == ("edge", (0, 2))]
    x[("pi", 0)] = cap - x[("pi", 2)] + 1
    x[("r", 0)] = abs(x[("pi", 0)])
    slack[("edge", (0, 2))] = rat(-1)
    return ("edge", (0, 2))


def _break_set(lp, x, slack, call):
    # The first stage with a tight set S (iteration 2, where S is new and its
    # target is 0) reports pi_S = -1 and r_S = 1: S's distance rows hold, so
    # only its sign bound fails, and the solve raises at once.
    sets = [name[1] for name in x if name[0] == "pi" and isinstance(name[1], frozenset)]
    if sets:
        x[("pi", sets[0])], x[("r", sets[0])] = rat(-1), R1
        return ("cut", sets[0])
    return None


def _one_non_support_edge():
    g = Graph(4, ((0, 1, 1), (2, 3, 1), (0, 2, 5)))
    return g, EdgeOrdering.from_sequence(g.edge_pairs())


@pytest.mark.parametrize(
    "instance, edit, solvers, series",
    [
        (k2, _break_hi, (solve_unperturbed, solve_perturbed_reference), (rat(-1),)),
        (k2, _break_hi_at_stage_1, (solve_unperturbed,), (R0, rat(-1))),
        (_one_non_support_edge, _break_edge, (solve_unperturbed, solve_perturbed_reference),
         (rat(-1),)),
        (lambda: dancing_robot()[:2], _break_set, (solve_unperturbed, solve_perturbed_reference),
         (rat(-1),)),
    ],
    ids=["hi", "hi-stage-1", "edge", "cut"],
)
def test_sign_rule_covers_every_row_and_bound(monkeypatch, instance, edit, solvers, series):
    broken = _tamper_closest_duals(monkeypatch, edit)
    g, sigma = instance()
    for solver in solvers:
        broken.clear()
        with pytest.raises(SignViolation) as err:
            solver(g, sigma)
        assert err.value.what == broken[-1]
        assert err.value.series == series


def test_two_tableau_builds_per_iteration(monkeypatch):
    # The probe's tableau carries on into lexmin, and stage 0's into the
    # later stages, so each iteration builds (cold-solves) two tableaus in
    # every mode: probe or lexmin stage 0, and closest-dual stage 0.
    builds = []
    build = Tableau.build

    def counting_build(self, lp):
        builds.append(lp)
        return build(self, lp)

    monkeypatch.setattr(Tableau, "build", counting_build)
    g, sigma, _ = dancing_robot()
    for solver in (solve_unperturbed, solve_perturbed_reference, solve_naive):
        builds.clear()
        res = solver(g, sigma)
        assert len(res.iterations) == 3
        assert len(builds) == 2 * len(res.iterations)


def _fresh_closest_dual(ctx, costs, target):
    """The closest-dual stage model on ctx written out row by row, then
    filtered by ctx's dropped rows and freed sets, as one fresh model."""
    keys = ctx.keys
    rows = []
    for k in keys:
        rows.append((("lo", k), {("r", k): 1, ("pi", k): 1}, GE, target.get(k, 0)))
        rows.append((("hi", k), {("r", k): -1, ("pi", k): 1}, LE, target.get(k, 0)))
    for e, ks in ctx.crossing.items():
        kind, relation = ("tight", EQ) if e in ctx.support else ("edge", LE)
        rows.append(((kind, e), {("pi", k): 1 for k in ks}, relation, costs[e]))
    return LinearProgram(
        MIN,
        [(("pi", k), isinstance(k, frozenset) and k not in ctx.free_sets) for k in keys]
        + [(("r", k), True) for k in keys],
        {("r", k): rat(1, 1 if isinstance(k, int) else len(k)) for k in keys},
        [row for row in rows if row[0] not in ctx.dropped],
    )


def _fresh_face(lp, opt, objective):
    """lp's optimal face at opt, every row filtered and copied afresh."""
    keep = {v.name for v in lp.variables if v.name not in opt.reduced}
    return LinearProgram(
        MIN,
        [v for v in lp.variables if v.name in keep],
        {name: c for name, c in objective.items() if name in keep},
        [Row(row.id, {name: c for name, c in row.coeffs.items() if name in keep},
             EQ if opt.y[row.id] else row.relation, row.rhs) for row in lp.rows],
    )


def test_stage_models_are_variants_equal_to_fresh_models(monkeypatch):
    # Every closest-dual stage and every lexmin face is a variant of the
    # model before it; each must hold what a fresh LinearProgram builds from
    # the same inputs, and share the coefficient map of every row it does
    # not re-filter.
    models = []
    build_closest_dual, optimal_face = cpm.build_closest_dual, lexmin.optimal_face

    def closest(ctx, costs, target):
        last = ctx.model
        lp = build_closest_dual(ctx, costs, target)
        models.append((lp, lp if last is None else last, _fresh_closest_dual(ctx, costs, target)))
        return lp

    def face(lp, opt, objective):
        out = optimal_face(lp, opt, objective)
        models.append((out, lp, _fresh_face(lp, opt, objective)))
        return out

    # A fresh model with one coefficient changed is not a variant of the
    # last one: reoptimizing must refuse it and leave the tableau as it was.
    refused = []

    def solving(lp, start=None):
        if start is not None and start.status == "optimal":
            row = next(row for row in lp.rows if row.coeffs)
            name, c = next(iter(row.coeffs.items()))
            changed = Row(row.id, {**row.coeffs, name: c + 1}, row.relation, row.rhs)
            bad = LinearProgram(lp.sense, lp.variables, lp.objective,
                                [changed if r is row else r for r in lp.rows])
            before = tableau_state(start)
            with pytest.raises(LinearProgramError):
                linprog.solve(bad, start=start)
            assert tableau_state(start) == before
            refused.append(bad)
        return linprog.solve(lp, start=start)

    monkeypatch.setattr(cpm, "build_closest_dual", closest)
    monkeypatch.setattr(lexmin, "optimal_face", face)
    monkeypatch.setattr(cpm, "solve", solving)
    monkeypatch.setattr(lexmin, "solve", solving)
    solves = iterations = 0
    for workload in ("cuts", "integral"):
        for inst in instances.build_pool(workload, 1, [])[:10]:
            res = solve_unperturbed(inst.graph, inst.sigma)
            solves, iterations = solves + res.total_lp_solves, iterations + len(res.iterations)
    refiltered = 0
    for lp, parent, fresh in models:
        assert model_parts(lp) == model_parts(fresh)
        names = {v.name for v in lp.variables}
        kept = {row.id: row.coeffs for row in parent.rows}
        for row in lp.rows:
            assert (row.coeffs is kept[row.id]) == (kept[row.id].keys() <= names)
            refiltered += row.coeffs is not kept[row.id]
    # Of each iteration's 2m + 3 solves, the probe and closest-dual stage 0
    # are cold; the other 2m + 1 each reoptimize onto a model recorded here.
    assert len(models) == len(refused) == solves - 2 * iterations
    assert refiltered > 0


def test_recorded_diffs_solve_like_fresh_models(monkeypatch):
    # Every warm solve takes the tableau's last model itself or a variant of
    # it whose recorded Diff is the one the row comparison (helpers.row_diff)
    # reads off the rows, as for an equal model built afresh. Exactly the
    # lexmin faces and the closest-dual stages after stage 0 take a recorded
    # Diff; every other warm solve is lexmin stage 0 re-solving the probe's
    # model, which changes nothing.
    made, counts = {}, dict.fromkeys(["warm", "recorded", "faces", "stages"], 0)
    build_closest_dual, optimal_face = cpm.build_closest_dual, lexmin.optimal_face

    def closest(ctx, costs, target):
        later = ctx.model is not None
        lp = build_closest_dual(ctx, costs, target)
        if later:
            counts["stages"] += 1
            made[id(lp)] = lp
        return lp

    def face(lp, opt, objective):
        out = optimal_face(lp, opt, objective)
        counts["faces"] += 1
        made[id(out)] = out
        return out

    def solving(lp, start=None):
        if start is not None and start.status == "optimal":
            recorded = lp is not start.lp
            assert recorded == (made.pop(id(lp), None) is lp)
            if recorded:
                assert lp.diff.base is start.lp and lp.diff == row_diff(start.lp, lp)
            counts["warm"] += 1
            counts["recorded"] += recorded
        return linprog.solve(lp, start=start)

    monkeypatch.setattr(cpm, "build_closest_dual", closest)
    monkeypatch.setattr(lexmin, "optimal_face", face)
    monkeypatch.setattr(cpm, "solve", solving)
    monkeypatch.setattr(lexmin, "solve", solving)
    runs = [(solver, *fixture()[:2]) for fixture in (dancing_robot, altered_robot, cycling_graph)
            for solver in (solve_unperturbed, solve_perturbed_reference, solve_naive)]
    runs += [(solve_unperturbed, inst.graph, inst.sigma) for workload in ("cuts", "integral")
             for inst in instances.build_pool(workload, 1, [])[:10]]
    for solver, g, sigma in runs:
        solver(g, sigma)
    assert not made and counts["faces"] > 500 and counts["stages"] > 500
    assert counts["recorded"] == counts["faces"] + counts["stages"] < counts["warm"]


def test_single_stage_modes_pin_their_duals():
    g, sigma, _ = dancing_robot()
    ref = solve_perturbed_reference(g, sigma)
    assert all(len(r.dual_stages) == 1 for r in ref.iterations)
    assert tuple(_stage_digest(r) for r in ref.iterations) == PERTURBED_DANCING_ROBOT_STAGE_DIGESTS
    g, sigma, _ = cycling_graph()
    naive = solve_naive(g, sigma)
    assert [len(r.dual_stages) for r in naive.iterations] == [1, 1, 1, 0]
    assert tuple(_stage_digest(r) for r in naive.iterations) == NAIVE_CYCLING_STAGE_DIGESTS


def test_dancing_robot_unperturbed_trace():
    g, sigma, exp = dancing_robot()
    res = solve_unperturbed(g, sigma)
    assert res.matching == exp.matching
    assert res.cost == exp.min_cost == 8
    assert len(res.iterations) == 3
    assert res.total_lp_solves == 3 * (2 * g.m + 3) == 129
    r1, r2, r3 = res.iterations
    assert r1.family == ()
    assert r1.x == exp.iterate1
    assert set(r2.family) == set(exp.family2)
    assert r2.x == exp.iterate2
    # Unlike the naive mode, the real algorithm keeps the two previous sets
    # (their stage dual series stay positive) and grows each fresh odd cycle
    # by the maximal kept set it touches, so the third family has four sets.
    assert set(r3.family) == set(exp.family2) | {
        frozenset({8, 9, 10, 11, 14}),
        frozenset({0, 1, 4, 5, 12, 13, 15}),
    }
    # The final, integral iteration still runs every stage solve.
    assert all(len(r.dual_stages) == g.m + 1 for r in res.iterations)
    assert all(r.lp_solves == 2 * g.m + 3 for r in res.iterations)
    assert tuple(_stage_digest(r) for r in res.iterations) == DANCING_ROBOT_STAGE_DIGESTS
    assert tuple(_stage_digest(r, 1) for r in res.iterations) == DANCING_ROBOT_STAGE0_DIGESTS
    assert all(r1.dual_stages[0][v] == HALF for v in range(g.n))


def test_dancing_robot_modes_agree():
    g, sigma, exp = dancing_robot()
    res = solve_unperturbed(g, sigma)
    ref = solve_perturbed_reference(g, sigma)
    assert ref.matching == res.matching
    assert ref.cost == res.cost
    assert len(ref.iterations) == len(res.iterations)
    assert all(
        a.x == b.x and set(a.family) == set(b.family)
        for a, b in zip(res.iterations, ref.iterations)
    )
    assert ref.total_lp_solves == 2 * len(ref.iterations)
    # Results share objects instead of holding equal copies: x is keyed by
    # the ordering's own edge tuples and holds the shared 0, 1/2 and 1, and a
    # vertex dual that did not move keeps the previous iteration's object.
    held = {id(e) for e in sigma.rank}
    for rec in (*res.iterations, *ref.iterations):
        assert all(id(e) in held for e in rec.x)
        assert all(any(v is c for c in (R0, HALF, R1)) for v in rec.x.values())
    for before, after in zip(ref.iterations, ref.iterations[1:]):
        old, new = before.dual_stages[0], after.dual_stages[0]
        moved = [v for v in range(g.n) if new[v] is not old[v]]
        assert all(new[v] != old[v] for v in moved) and len(moved) < g.n
    best, matchings = brute_force_matchings(g)
    assert best == res.cost
    assert res.matching == lex_tie_break(matchings, sigma)


def test_dancing_robot_naive_reaches_thirds():
    g, sigma, exp = dancing_robot()
    naive = solve_naive(g, sigma)
    assert naive.stop_reason == "HalfIntegralityViolation"
    assert "1/3" in naive.detail
    assert naive.matching is None
    assert [r.index for r in naive.iterations] == [1, 2, 3]
    assert naive.iterations[0].x == exp.iterate1
    assert naive.iterations[1].x == exp.iterate2
    assert set(naive.iterations[1].family) == set(exp.family2)
    assert naive.iterations[2].x == exp.iterate3
    assert set(naive.iterations[2].family) == set(exp.family3)
    assert naive.total_lp_solves == 3 * (g.m + 2) == 66


def test_altered_robot_unperturbed():
    g, sigma, exp = altered_robot()
    res = solve_unperturbed(g, sigma)
    assert res.matching == exp.matching
    assert res.cost == exp.min_cost == 10
    assert len(res.iterations) == 3
    assert res.total_lp_solves == 3 * (2 * g.m + 3) == 159
    ref = solve_perturbed_reference(g, sigma)
    assert ref.matching == res.matching
    assert all(a.x == b.x for a, b in zip(res.iterations, ref.iterations))
    best, matchings = brute_force_matchings(g)
    assert best == 10
    assert res.matching == lex_tie_break(matchings, sigma)


def test_altered_robot_naive_reaches_fifths():
    g, sigma, exp = altered_robot()
    naive = solve_naive(g, sigma)
    assert naive.stop_reason == "HalfIntegralityViolation"
    assert "1/5" in naive.detail
    assert naive.iterations[0].x == exp.iterate1
    assert naive.iterations[1].x == exp.iterate2
    assert set(naive.iterations[1].family) == set(exp.family2)
    assert set(naive.iterations[2].family) == set(exp.family3)
    it3 = naive.iterations[2].x
    denominators = {int(rat(v).denominator) for v in it3.values() if v}
    assert 5 in denominators
    # The five support crossings of the nine-vertex cut carry exactly 1/5.
    crossings = cut_edges(g, exp.nine_set)
    assert {e for e in crossings if it3[e]} == exp.nine_set_support_crossings
    assert all(it3[e] == rat(1, 5) for e in exp.nine_set_support_crossings)
    assert naive.total_lp_solves == 3 * (g.m + 2) == 81


def test_cycling_unperturbed_terminates():
    g, sigma, exp = cycling_graph()
    res = solve_unperturbed(g, sigma)
    assert res.cost == exp.min_cost == 5
    assert len(res.iterations) == 3
    assert res.total_lp_solves == 3 * (2 * g.m + 3) == 117
    ref = solve_perturbed_reference(g, sigma)
    assert ref.matching == res.matching
    assert all(a.x == b.x for a, b in zip(res.iterations, ref.iterations))
    best, matchings = brute_force_matchings(g)
    assert best == 5
    assert res.matching == lex_tie_break(matchings, sigma)


def test_cycling_naive_alternates_and_gets_caught():
    g, sigma, exp = cycling_graph()
    naive = solve_naive(g, sigma)
    assert naive.stop_reason == "CyclingDetected"
    assert naive.repeat_of == exp.repeat_of == 2
    assert len(naive.iterations) == exp.detected_at == 4
    assert naive.detail == "iteration 4 repeats iteration 2"
    assert naive.matching is None and naive.cost is None

    recs = naive.iterations
    # Whichever of the two documented supports comes first, the other one
    # follows and the pair alternates exactly.
    if recs[0].x == exp.iterate_a:
        first, second = exp.iterate_a, exp.iterate_b
        fam_first, fam_second = exp.family_from_a, exp.family_from_b
    else:
        first, second = exp.iterate_b, exp.iterate_a
        fam_first, fam_second = exp.family_from_b, exp.family_from_a
    assert [r.x for r in recs] == [first, second, first, second]
    assert recs[0].family == ()
    assert set(recs[1].family) == set(fam_first)
    assert set(recs[2].family) == set(fam_second)
    assert set(recs[3].family) == set(fam_first)
    assert support(first) != support(second)
    # Detection happens before the dual solve of the repeated iteration.
    assert recs[3].dual_stages == ()
    assert naive.total_lp_solves == 3 * (g.m + 2) + (g.m + 1) == 79


def test_cycling_naive_duals_sit_at_one_half():
    # On this instance the distance-minimal dual is the same at every
    # iteration: one half on every vertex, zero on every cut set.
    g, sigma, _ = cycling_graph()
    naive = solve_naive(g, sigma)
    for rec in naive.iterations:
        for stage in rec.dual_stages:
            for key, value in stage.items():
                if isinstance(key, int):
                    assert value == HALF
                else:
                    assert value == R0


def test_cycling_naive_respects_max_iterations():
    g, sigma, _ = cycling_graph()
    naive = solve_naive(g, sigma, max_iterations=2)
    assert naive.stop_reason == "MaxIterationsReached"
    assert len(naive.iterations) == 2
    assert naive.total_lp_solves == 2 * (g.m + 2) == 40


def test_random_sweep_modes_and_oracle_agree():
    rng = random.Random(77)
    for _ in range(15):
        n = rng.choice([6, 8])
        m = rng.randint(n // 2 + 2, min(2 * n, n * (n - 1) // 2))
        g = random_matchable_graph(n, m, 10, rng)
        sigma = random_ordering(g, rng)
        res = solve_unperturbed(g, sigma)
        ref = solve_perturbed_reference(g, sigma)
        assert res.matching == ref.matching
        assert res.cost == ref.cost
        best, matchings = brute_force_matchings(g)
        assert res.cost == best
        assert res.matching == lex_tie_break(matchings, sigma)
        assert res.total_lp_solves == len(res.iterations) * (2 * g.m + 3)


@pytest.mark.parametrize("workload", ["cuts", "integral"])
def test_negative_costs_keep_the_matching(workload):
    # A shift by -5 makes every edge cost negative, so the cold start raises
    # the costs back by 5 (see linprog). Every perfect matching has n/2
    # edges, so the shift moves each cost by the same 5n/2 and keeps the
    # lexicographic choice among the ties.
    for inst in instances.build_pool(workload, 1, [])[:6]:
        g, sigma = inst.graph, inst.sigma
        shifted = Graph(g.n, tuple((u, v, c - 5) for u, v, c in g.edges))
        best, matchings = brute_force_matchings(shifted)
        for solver in (solve_unperturbed, solve_perturbed_reference):
            res = solver(g, sigma)
            low = solver(shifted, sigma)
            assert low.matching == res.matching == lex_tie_break(matchings, sigma)
            assert low.cost == res.cost - 5 * g.n // 2 == best


def _pivot_path_models(rng):
    """random_bounded_lp models, each followed by its MAX twin (objective
    negated) with x0 free above a floor row."""
    for _ in range(40):
        lp = random_bounded_lp(rng)[0]
        yield lp
        free = [Variable(v.name, v.name != "x0") for v in lp.variables]
        floor = Row("floor", {"x0": 1}, GE, -rng.randint(0, 3))
        yield LinearProgram(MAX, free, {k: -c for k, c in lp.objective.items()}, [*lp.rows, floor])


def _warm_variant(lp, out, rng):
    """lp with some rhs values moved, some rows slack at out dropped, some
    positive (basic) variables freed, and the sense flipped with the
    objective negated (the same cost vector, so the basis stays dual
    feasible)."""
    rhs, drop = {}, []
    for row in lp.rows:
        lhs = sum((c * out.x[name] for name, c in row.coeffs.items()), R0)
        if lhs != row.rhs and rng.random() < 0.4:
            drop.append(row.id)
        elif rng.random() < 0.7:
            rhs[row.id] = row.rhs + rng.randint(-4, 4)
    free = [v.name for v in lp.variables if v.nonnegative and out.x[v.name] > 0
            and rng.random() < 0.3]
    sense, objective = lp.sense, lp.objective
    if rng.random() < 0.5:
        sense, objective = MAX if sense == MIN else MIN, {k: -c for k, c in objective.items()}
    return lp.variant(sense, objective, rhs=rhs, drop_rows=drop, free=free)


#: SHA-256 of (leaving basic column, entering column) for every pivot of
#: the three fixtures in all three modes, then of 80 random models (MIN and
#: MAX, with a free column) and three warm variants of each. It pins the
#: simplex's pivot choices themselves, whatever the tableau stores.
PIVOT_PATH_DIGEST = "e8b97145268b0bb4e555101998aec86c8ea5634b595393cf0b63d1d36fd6fc18"


def test_pivot_path_is_pinned(monkeypatch):
    path = []
    pivot = Tableau.pivot

    def recording(self, r, j, zrow=None):
        path.append((self.basis[r], j))
        return pivot(self, r, j, zrow)

    monkeypatch.setattr(Tableau, "pivot", recording)
    for fixture in (dancing_robot, altered_robot, cycling_graph):
        g, sigma, _ = fixture()
        for solver in (solve_unperturbed, solve_perturbed_reference, solve_naive):
            solver(g, sigma)
            path.append("|")
    fixture_pivots = len(path)
    rng = random.Random(20261019)
    statuses = []
    for lp in _pivot_path_models(rng):
        tab = Tableau()
        out = linprog.solve(lp, start=tab)
        statuses.append(out.status)
        for _ in range(3):
            if not isinstance(out, Optimal):
                break
            lp = _warm_variant(lp, out, rng)
            out = linprog.solve(lp, start=tab)
            statuses.append((out.status, lp.sense))
        path.append("|")
    assert fixture_pivots > 1000 and len(path) - fixture_pivots > 200
    assert {("optimal", MIN), ("optimal", MAX), ("infeasible", MIN),
            ("infeasible", MAX)} <= set(statuses)
    digest = hashlib.sha256(repr(path).encode()).hexdigest()
    assert digest == PIVOT_PATH_DIGEST


def test_records_give_back_the_dicts_the_loop_built(monkeypatch):
    # A record stores x and the stage duals as value tuples; its x and
    # dual_stages properties must give back the dicts the loop built, equal,
    # in the same key order and holding the same key and value objects, so
    # the sharing _reuse_targets sets up stays visible.
    built = []
    stage_duals, dense = cpm._stage_duals, cpm._dense

    def capture_stages(*args):
        out = stage_duals(*args)
        built[-1][1] = tuple(out[0])
        return out

    def capture_x(edges, values):
        x = dense(edges, values)
        built.append([x, ()])
        return x

    monkeypatch.setattr(cpm, "_stage_duals", capture_stages)
    monkeypatch.setattr(cpm, "_dense", capture_x)
    shared = 0
    for fixture in (dancing_robot, altered_robot, cycling_graph):
        g, sigma, _ = fixture()
        for solver in (solve_unperturbed, solve_perturbed_reference, solve_naive):
            built.clear()
            recs = solver(g, sigma).iterations
            assert len(recs) == len(built) and len({id(rec.edges) for rec in recs}) == 1
            for rec, (x, stages) in zip(recs, built):
                assert len(rec.dual_stages) == len(stages)
                for new, old in [(rec.x, x), *zip(rec.dual_stages, stages)]:
                    assert new == old and list(new) == list(old)
                    assert all(a is b for a, b in zip(new, old))
                    assert all(a is b for a, b in zip(new.values(), old.values()))
                distinct = {}
                for values in rec.dual_values:
                    assert distinct.setdefault(values, values) is values
                shared += len(rec.dual_values) - len(distinct)
    assert shared > 20
