"""Tests for the three solver modes against the fixtures and each other."""

import hashlib
import random

import pytest

from cpmatch import cpm
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
from cpmatch.linprog import Optimal
from cpmatch.oracle import brute_force_matchings, lex_tie_break
from cpmatch.perturb import SignViolation
from cpmatch.rationals import HALF, R0, R1, rat, rat_str


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


def _stage_digest(rec):
    """SHA-256 of one iteration's dual stages, each written as sorted
    'key:value' pairs (a set key is its sorted vertices joined with '+')."""

    def key(k):
        return str(k) if isinstance(k, int) else "+".join(str(v) for v in sorted(k))

    text = "|".join(
        ",".join(f"{key(k)}:{rat_str(v)}" for k, v in sorted(stage.items(), key=lambda kv: key(kv[0])))
        for stage in rec.dual_stages
    )
    return hashlib.sha256(text.encode()).hexdigest()


#: Stage duals of unperturbed dancing_robot, one digest per iteration. The
#: closest-dual optimum is not unique, so these pin the simplex pivot path
#: (Bland's rule on the tableau as built today), not just the algorithm. A
#: change of pivot path, such as the warm starts of ROADMAP item 3, may
#: re-pin them on purpose; x and the families must not move with them.
DANCING_ROBOT_STAGE_DIGESTS = (
    "a8275a43a4d21757beedcd4760b8ebf61359f2e03bef40b0f8761b12b4643411",
    "aef1e55649b579f49f90105faf8a6335d6e2aedce7880e7a5b774cf6bb7b3329",
    "79d289403babc21e29259f14314b0da2ea48665bccedcf392433ae6074ce9d3d",
)

#: The same digests for the two single-stage modes: perturbed dancing_robot
#: and naive cycling. Naive mode's fourth iteration stops on the repeat before
#: its dual solve, so its stage list is empty (the digest of no text).
PERTURBED_DANCING_ROBOT_STAGE_DIGESTS = (
    "f74d84e4b9ef8a36266c5459f034511394dc7169b7f831db36a0d5c9d3daa5e1",
    "be4261335b5fe7fcca8577116ae17702db0cadfb92060b9a6b9fb17e3fba7c27",
    "efdc7d5287d0df1ed852585e778ebd5240593ad021f0da90ea531638e67492f1",
)
NAIVE_CYCLING_STAGE_DIGESTS = (
    "cd6874866c70da0cae024115d5d6842a9f2280a69845dcd0e0159083fdd14271",
    "43d3c039e49c1d02e0c74d00f9fa45c8b5451ee5ca3eb295036fdc902e33ed3c",
    "82dacaf9d46af91ecb7b5ac0927e8523d073cd8b68c8488e8b341793eb635d67",
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
)


def test_negative_first_stage_value_raises_sign_violation(monkeypatch):
    # A faulty closest-dual solve that leaves vertex 0's lo residual at -1 in
    # the first stage: the first nonzero of its series is negative.
    real = cpm.solve

    def tampered(lp, *args, **kwargs):
        out = real(lp, *args, **kwargs)
        if isinstance(out, Optimal) and ("r", 0) in out.x:
            x = dict(out.x)
            x[("r", 0)] = -x[("pi", 0)] - 1
            out = Optimal(x, out.y, out.objective)
        return out

    monkeypatch.setattr(cpm, "solve", tampered)
    g, sigma = k2()
    for solver in (solve_unperturbed, solve_perturbed_reference):
        with pytest.raises(SignViolation) as err:
            solver(g, sigma)
        assert err.value.what == ("lo", 0)
        assert err.value.series == (rat(-1),)


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
