"""Cutting-plane solvers for minimum-cost perfect matching, in three modes.

solve_unperturbed is the real algorithm: each iteration takes the
lexicographically minimal optimum of the current relaxation (in a fixed edge
order), then runs one distance-minimal dual solve per cost stage, where stage
0 carries the true costs and stage i >= 1 carries the indicator of the edge
ranked i. The stage duals decide which cuts keep positive weight; those cuts,
plus one grown set per odd cycle in the fractional support, form the next
relaxation. Cost perturbation is thereby emulated exactly, with no perturbed
numbers anywhere.

solve_perturbed_reference is the classical variant it must agree with: it
really adds 2**(-rank) to each edge cost and solves plain LPs.

solve_naive drops both tie-breaking mechanisms' justifications down to one
documented diagnostic: lexmin primal plus a single closest-dual per
iteration, recording everything and stopping on integrality, on a detected
repeat of the (x, family) pair, or on loss of the half-integral odd-cycle
structure, instead of treating those as errors.

Every iteration of every mode appends an IterationRecord holding the family
at solve time, the full primal vector, the dual stage vectors, and the exact
number of LP solves spent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import (
    FamilyViolation,
    IterationCapExceeded,
    NoPerfectMatching,
    StageSolveError,
)
from .graphs import (
    Edge,
    EdgeOrdering,
    Graph,
    GraphError,
    HalfIntegralityViolation,
    StructureViolation,
    odd_cycles,
    validate_cut_family,
    vector_is_integral,
)
from .lexmin import lex_min_optimal
from .linprog import Infeasible, Optimal, solve
from .matchlp import (
    StageContext,
    build_closest_dual,
    build_primal,
    canonical_sets,
    split_dual_solution,
    stage_cost,
    tight_sets,
)
from .perturb import SignViolation, series_first_sign
from .rationals import R0, R1, Rational, rat


@dataclass(frozen=True, slots=True)
class IterationRecord:
    index: int
    family: tuple[frozenset[int], ...]
    x: dict
    dual_stages: tuple[dict, ...]
    lp_solves: int


@dataclass(frozen=True, slots=True)
class MatchingResult:
    algorithm: str
    matching: frozenset[Edge]
    cost: int
    iterations: tuple[IterationRecord, ...]
    total_lp_solves: int


@dataclass(frozen=True, slots=True)
class NaiveTrace:
    stop_reason: str
    detail: str | None
    repeat_of: int | None
    iterations: tuple[IterationRecord, ...]
    total_lp_solves: int
    matching: frozenset[Edge] | None
    cost: int | None


def default_iteration_cap(g: Graph) -> int:
    """Generous bound on cutting-plane iterations; exceeding it is a bug."""
    return math.ceil(32 * g.n * math.log2(g.n + 1)) + 16


def extract_matching(x: Mapping[Edge, object], n: int | None = None) -> frozenset[Edge]:
    """The support of an integral vector, checked to be a perfect matching."""
    chosen = set()
    covered: set[int] = set()
    vertices: set[int] = set()
    for e, value in x.items():
        vertices.update(e)
        if value == R0:
            continue
        if value != R1:
            raise ValueError(f"edge {e} carries non-integral value {value}")
        u, v = e
        if u in covered or v in covered:
            raise ValueError(f"edge {e} doubles up on a covered vertex")
        covered.update(e)
        chosen.add(e)
    expected = set(range(n)) if n is not None else vertices
    if covered != expected:
        missing = sorted(expected - covered)
        raise ValueError(f"vertices {missing} are not covered")
    return frozenset(chosen)


def _edge_keys(g: Graph, sigma: EdgeOrdering) -> tuple[Edge, ...]:
    """g's edges in graph order, as the tuple objects sigma already holds, so
    every iteration record keys its x by them instead of by m new tuples."""
    held = {e: e for e in sigma.rank}
    return tuple(held[e] for e in g.edge_pairs())


def _dense(edges: Sequence[Edge], values: Mapping[Edge, object]) -> dict:
    return {e: values.get(e, R0) for e in edges}


def _reuse_targets(pi: dict, target: Mapping) -> dict:
    """pi with each value that equals the target's value under its key
    replaced by the target's object, so successive iterations share the dual
    values that did not move instead of holding equal copies."""
    return {k: target[k] if k in target and target[k] == v else v for k, v in pi.items()}


def _expand_family(g: Graph, x: Mapping[Edge, object], positive_sets) -> set:
    """Next cut family: the still-positive sets plus one grown set per odd
    cycle of the half-valued support (the cycle's vertices together with
    every maximal positive set meeting it)."""
    cycles = odd_cycles(g, x)
    maximal = [
        s for s in positive_sets if not any(s < t for t in positive_sets)
    ]
    family = set(positive_sets)
    for cyc in cycles:
        members = set(cyc)
        grown = set(cyc)
        for s in maximal:
            if members & s:
                grown |= s
        family.add(frozenset(grown))
    try:
        validate_cut_family(g, family)
    except GraphError as exc:
        raise FamilyViolation(str(exc)) from exc
    return family


def _matching_cost(g: Graph, matching: frozenset[Edge]) -> int:
    costs = g.cost_map()
    return sum(costs[e] for e in matching)


def _restrict_target(values: Mapping, family: set) -> dict:
    return {
        k: v
        for k, v in values.items()
        if v and (isinstance(k, int) or k in family)
    }


def _stage_duals(g, sigma, costs, family, x, gammas):
    """One closest-dual solve per stage, threading the drop context through.

    Returns (stage pi vectors, sets with positive series, solve count).
    Raises SignViolation when any tracked stage series starts negative.
    """
    m = g.m
    f_x = tight_sets(g, x, family)
    keys = list(range(g.n)) + f_x
    pairs = g.edge_pairs()
    supp = {e for e in pairs if x.get(e, R0)}
    crossing = {
        e: [e[0], e[1]] + [s for s in f_x if (e[0] in s) != (e[1] in s)]
        for e in pairs
    }

    ctx = StageContext()
    stage_pis: list[dict] = []
    lo_residuals = {k: [] for k in keys}
    hi_residuals = {k: [] for k in keys}
    edge_slacks = {e: [] for e in pairs if e not in supp}
    solves = 0
    for i in range(m + 1):
        ci = stage_cost(g, costs, sigma, i)
        lp = build_closest_dual(g, ci, family, x, gammas[i], ctx)
        out = solve(lp)
        solves += 1
        if not isinstance(out, Optimal):
            raise StageSolveError(f"dual stage {i} came back {out.status}")
        pi, r = split_dual_solution(out.x)
        pi = _reuse_targets(pi, gammas[i])
        stage_pis.append(pi)

        for k in keys:
            goal = rat(gammas[i].get(k, R0))
            lo = r[k] + pi[k] - goal
            hi = goal - (pi[k] - r[k])
            lo_residuals[k].append(lo)
            hi_residuals[k].append(hi)
            if lo:
                ctx.dropped_lo.add(k)
            if hi:
                ctx.dropped_hi.add(k)
        for e, ks in crossing.items():
            if e in supp:
                continue
            slack = ci[e] - sum((pi[k] for k in ks), R0)
            edge_slacks[e].append(slack)
            if slack:
                ctx.dropped_edges.add(e)
        for s in f_x:
            if pi[s]:
                ctx.free_sets.add(s)

    for k in keys:
        if series_first_sign(lo_residuals[k]) < 0:
            raise SignViolation(("lo", k), lo_residuals[k])
        if series_first_sign(hi_residuals[k]) < 0:
            raise SignViolation(("hi", k), hi_residuals[k])
    positive = set()
    for s in f_x:
        sign = series_first_sign([pi.get(s, R0) for pi in stage_pis])
        if sign < 0:
            raise SignViolation(("cut", s), [pi.get(s, R0) for pi in stage_pis])
        if sign > 0:
            positive.add(s)
    for e, slacks in edge_slacks.items():
        if series_first_sign(slacks) < 0:
            raise SignViolation(("edge", e), slacks)
    return stage_pis, positive, solves


def solve_unperturbed(
    g: Graph, sigma: EdgeOrdering, iteration_cap: int | None = None
) -> MatchingResult:
    """Cutting-plane matching with staged duals standing in for perturbation."""
    sigma.validate_for(g)
    costs = g.cost_map()
    edges = _edge_keys(g, sigma)
    order = sigma.order()
    m = g.m
    cap = default_iteration_cap(g) if iteration_cap is None else iteration_cap
    gammas: list[dict] = [{} for _ in range(m + 1)]
    family: set[frozenset[int]] = set()
    records: list[IterationRecord] = []
    total = 0
    while True:
        index = len(records) + 1
        if index > cap:
            raise IterationCapExceeded(f"no integral optimum after {cap} iterations")
        lp = build_primal(g, costs, family)
        probe = solve(lp)
        total += 1
        if isinstance(probe, Infeasible):
            raise NoPerfectMatching("the relaxation is infeasible")
        if not isinstance(probe, Optimal):
            raise StageSolveError("the relaxation came back unbounded")
        lex = lex_min_optimal(lp, order)
        total += lex.lp_solves
        if lex.status != "optimal":
            raise StageSolveError(f"lexicographic stage came back {lex.status}")
        x = _dense(edges, lex.values)
        stage_pis, positive, dual_solves = _stage_duals(
            g, sigma, costs, family, x, gammas
        )
        total += dual_solves
        records.append(
            IterationRecord(
                index=index,
                family=tuple(canonical_sets(family)),
                x=x,
                dual_stages=tuple(stage_pis),
                lp_solves=1 + lex.lp_solves + dual_solves,
            )
        )
        family = _expand_family(g, x, positive)
        gammas = [_restrict_target(pi, family) for pi in stage_pis]
        if vector_is_integral(x):
            break
    matching = extract_matching(x, g.n)
    return MatchingResult(
        algorithm="unperturbed",
        matching=matching,
        cost=_matching_cost(g, matching),
        iterations=tuple(records),
        total_lp_solves=total,
    )


def solve_perturbed_reference(
    g: Graph, sigma: EdgeOrdering, iteration_cap: int | None = None
) -> MatchingResult:
    """The explicit-perturbation variant: adds 2**(-rank) to each edge cost,
    solves plain relaxations, and reports costs against the original values."""
    sigma.validate_for(g)
    costs = g.cost_map()
    edges = _edge_keys(g, sigma)
    perturbed = {
        e: rat(costs[e]) + rat(1, 2 ** sigma.rank[e]) for e in g.edge_pairs()
    }
    cap = default_iteration_cap(g) if iteration_cap is None else iteration_cap
    family: set[frozenset[int]] = set()
    gamma: dict = {}
    records: list[IterationRecord] = []
    total = 0
    while True:
        index = len(records) + 1
        if index > cap:
            raise IterationCapExceeded(f"no integral optimum after {cap} iterations")
        lp = build_primal(g, perturbed, family)
        out = solve(lp)
        total += 1
        if isinstance(out, Infeasible):
            raise NoPerfectMatching("the relaxation is infeasible")
        if not isinstance(out, Optimal):
            raise StageSolveError("the relaxation came back unbounded")
        x = _dense(edges, out.x)
        dlp = build_closest_dual(g, perturbed, family, x, gamma)
        dout = solve(dlp)
        total += 1
        if not isinstance(dout, Optimal):
            raise StageSolveError(f"closest dual came back {dout.status}")
        pi, _ = split_dual_solution(dout.x)
        pi = _reuse_targets(pi, gamma)
        records.append(
            IterationRecord(
                index=index,
                family=tuple(canonical_sets(family)),
                x=x,
                dual_stages=(pi,),
                lp_solves=2,
            )
        )
        positive = {k for k, v in pi.items() if isinstance(k, frozenset) and v > R0}
        family = _expand_family(g, x, positive)
        gamma = _restrict_target(pi, family)
        if vector_is_integral(x):
            break
    matching = extract_matching(x, g.n)
    return MatchingResult(
        algorithm="perturbed",
        matching=matching,
        cost=_matching_cost(g, matching),
        iterations=tuple(records),
        total_lp_solves=total,
    )


def solve_naive(
    g: Graph, sigma: EdgeOrdering, max_iterations: int = 50
) -> NaiveTrace:
    """Diagnostic mode: no perturbation and no stage series, just lexmin
    primal plus one closest dual per iteration. Never raises on the failure
    patterns it exists to exhibit; they become stop reasons."""
    sigma.validate_for(g)
    costs = g.cost_map()
    edges = _edge_keys(g, sigma)
    order = sigma.order()
    family: set[frozenset[int]] = set()
    gamma: dict = {}
    records: list[IterationRecord] = []
    seen: dict = {}
    total = 0
    stop = "MaxIterationsReached"
    detail = None
    repeat_of = None
    matching = None
    for index in range(1, max_iterations + 1):
        lp = build_primal(g, costs, family)
        lex = lex_min_optimal(lp, order)
        total += lex.lp_solves
        if lex.status == "infeasible":
            stop = "NoPerfectMatching"
            break
        if lex.status != "optimal":
            raise StageSolveError(f"lexicographic stage came back {lex.status}")
        x = _dense(edges, lex.values)
        family_key = tuple(canonical_sets(family))
        if vector_is_integral(x):
            records.append(IterationRecord(index, family_key, x, (), lex.lp_solves))
            matching = extract_matching(x, g.n)
            stop = "Integral"
            break
        state = (tuple(sorted(x.items())), frozenset(family))
        if state in seen:
            records.append(IterationRecord(index, family_key, x, (), lex.lp_solves))
            stop = "CyclingDetected"
            repeat_of = seen[state]
            detail = f"iteration {index} repeats iteration {seen[state]}"
            break
        seen[state] = index
        dlp = build_closest_dual(g, costs, family, x, gamma)
        dout = solve(dlp)
        total += 1
        if not isinstance(dout, Optimal):
            raise StageSolveError(f"closest dual came back {dout.status}")
        pi, _ = split_dual_solution(dout.x)
        pi = _reuse_targets(pi, gamma)
        records.append(
            IterationRecord(index, family_key, x, (pi,), lex.lp_solves + 1)
        )
        positive = {k for k, v in pi.items() if isinstance(k, frozenset) and v > R0}
        try:
            family = _expand_family(g, x, positive)
        except (HalfIntegralityViolation, StructureViolation, FamilyViolation) as exc:
            stop = type(exc).__name__
            detail = str(exc)
            break
        gamma = _restrict_target(pi, family)
    return NaiveTrace(
        stop_reason=stop,
        detail=detail,
        repeat_of=repeat_of,
        iterations=tuple(records),
        total_lp_solves=total,
        matching=matching,
        cost=None if matching is None else _matching_cost(g, matching),
    )
