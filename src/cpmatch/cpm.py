"""Cutting-plane solvers for minimum-cost perfect matching, in three modes.

All three run one loop. Each iteration solves the relaxation over the current
cut family, picks a point x of its optimal face, runs one distance-minimal
dual solve per stage cost vector, and records the iteration. The sets whose
stage-dual series is positive, plus one grown set per odd cycle in the
half-valued support of x, form the next family; an integral x ends the run.
The modes differ only in how x is picked, in the stage costs, and in naive
mode's stops:

solve_unperturbed is the real algorithm. x is the lexicographically minimal
optimum (in a fixed edge order), taken after a probe solve. Stage 0 carries
the true costs and stage i >= 1 the indicator of the edge ranked i. Cost
perturbation is thereby emulated exactly, with no perturbed numbers anywhere.

solve_perturbed_reference is the classical variant it must agree with: it
really adds 2**(-rank) to each edge cost, takes the optimum of one plain
solve as x, and has the perturbed costs as its one stage.

solve_naive drops both tie-breaking mechanisms' justifications down to one
documented diagnostic: lexmin primal plus the true costs as its one stage.
It checks for an integral x and for a repeat of the (x, family) pair before
its dual solve, and reports no perfect matching, the iteration cap or the
loss of the half-integral odd-cycle structure as stop reasons instead of
raising them.

A graph with an odd number of vertices has no perfect matching; every mode
says so before any solve.

Every iteration of every mode appends an IterationRecord holding the family
at solve time, the full primal vector, the dual stage vectors, and the exact
number of LP solves spent. Records are stored lean, since callers may keep
many results: x as a tuple of values over the run's edge tuple (one object
shared by all its records), and the stage duals as their keys, once per
iteration, plus one value tuple per stage, equal tuples held once. The x and
dual_stages properties rebuild the dicts, with the same keys in the same
order and the same value objects the loop produced.
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
from .linprog import Infeasible, Optimal, Tableau, solve
from .matchlp import (
    build_closest_dual,
    build_primal,
    canonical_sets,
    split_dual_solution,
    stage_context,
    stage_cost,
)
from .perturb import SignViolation
from .rationals import R0, R1, rat


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """One iteration, stored lean (see the module docstring): x_values over
    edges, and one tuple of dual_values per stage over dual_keys."""
    index: int
    family: tuple[frozenset[int], ...]
    edges: tuple[Edge, ...]
    x_values: tuple
    dual_keys: tuple
    dual_values: tuple[tuple, ...]
    lp_solves: int

    @property
    def x(self) -> dict:
        """The primal vector, keyed by edge in graph order."""
        return dict(zip(self.edges, self.x_values))

    @property
    def dual_stages(self) -> tuple[dict, ...]:
        """Each stage's dual vector as a dict, keys in dual_keys order."""
        return tuple([dict(zip(self.dual_keys, values)) for values in self.dual_values])


def _record(index: int, family: tuple, edges: tuple, x: dict, stage_pis: Sequence[dict],
            lp_solves: int) -> IterationRecord:
    """The IterationRecord of primal vector x (_dense over the run's edge
    tuple, so in its order) and stage dual vectors stage_pis, which share
    their keys (in order), each distinct value tuple held once."""
    keys = tuple(stage_pis[0]) if stage_pis else ()
    held: dict = {}
    values = []
    for pi in stage_pis:
        if tuple(pi) != keys:
            raise StageSolveError("dual stages of one iteration differ in their keys")
        v = tuple(pi.values())
        values.append(held.setdefault(v, v))
    return IterationRecord(index, family, edges, tuple(x.values()), keys, tuple(values), lp_solves)


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


#: solve_naive's iteration cap, and the CLI's for --algorithm naive.
NAIVE_ITERATION_CAP = 50


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
    return tuple([held[e] for e in g.edge_pairs()])


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


def _stage_duals(primal, stages, x, targets):
    """One closest-dual solve per stage cost vector, all on one StageContext
    read off the rows of primal, the relaxation x solves; targets[i] is
    stage i's target from the last iteration. Stage 0 is solved cold; each
    later stage is a variant of the stage before it (see build_closest_dual)
    and reoptimizes the same Tableau by the Diff it recorded (see linprog),
    since it only changes right-hand sides, drops rows whose slack is
    nonzero and frees positive sets' bounds, which keeps the last basis
    dual feasible.

    An inequality row of the stage model, or a set's sign bound, stays in the
    stages until its value (the row's slack at the stage optimum, read off
    the solve's certificate check as out.slack, or the set's pi) is first
    nonzero. That value decides the sign of its stage series: a negative one
    raises SignViolation (the certificate-checked rows and bounds forbid it,
    so only a faulty solve can), a positive one drops the row or bound from
    all later stages. Returns the stage pi vectors and the sets whose bound
    was dropped, which are those with a positive series.

    perturb.solve_perturbed_pair cannot run these stages: it fixes A and b
    and stages only the objective, while here the stages drop rows and
    bounds and take targets carried over from the previous iteration.
    """
    ctx = stage_context(primal, x)
    tab = Tableau()
    stage_pis: list[dict] = []
    for i, (ci, target) in enumerate(zip(stages, targets)):
        lp = build_closest_dual(ctx, ci, target)
        out = solve(lp, start=tab)
        if not isinstance(out, Optimal):
            raise StageSolveError(f"dual stage {i} came back {out.status}")
        pi, _ = split_dual_solution(out.x)
        stage_pis.append(_reuse_targets(pi, target))

        for row_id, slack in out.slack.items():
            _drop_if_nonzero(ctx.dropped, row_id, row_id, slack, i)
        for s in ctx.tight:
            if s not in ctx.free_sets:
                _drop_if_nonzero(ctx.free_sets, s, ("cut", s), pi[s], i)
    return stage_pis, ctx.free_sets


def _drop_if_nonzero(dropped: set, key, what, value, stage: int) -> None:
    """Add key to dropped when value, the first nonzero of series `what`
    (every earlier stage gave 0), is positive; raise when it is negative."""
    if value:
        if value < 0:
            raise SignViolation(what, (R0,) * stage + (value,))
        dropped.add(key)


def _cutting_planes(g: Graph, sigma: EdgeOrdering, mode: str, cap: int | None) -> NaiveTrace:
    """The loop behind all three modes (see the module docstring).

    The outcome comes back as a NaiveTrace; outside naive mode every stop
    other than "Integral" is raised instead.
    """
    sigma.validate_for(g)
    costs = g.cost_map()
    edges = _edge_keys(g, sigma)
    order = sigma.order()
    if mode == "perturbed":
        costs = {e: rat(c) + rat(1, 2 ** sigma.rank[e]) for e, c in costs.items()}
    stages = [costs]
    if mode == "unperturbed":
        stages = [stage_cost(g, costs, sigma, i) for i in range(g.m + 1)]
    cap = default_iteration_cap(g) if cap is None else cap
    family: set[frozenset[int]] = set()
    targets: list[dict] = [{} for _ in stages]
    records: list[IterationRecord] = []
    seen: dict = {}
    total = 0
    stop, detail, repeat_of, matching = "Integral", None, None, None
    try:
        if g.n % 2:
            raise NoPerfectMatching("the graph has an odd number of vertices")
        while True:
            index = len(records) + 1
            if index > cap:
                raise IterationCapExceeded(f"no integral optimum after {cap} iterations")
            before = total
            lp = build_primal(g, costs, family)
            tab = Tableau()
            if mode != "naive":
                probe = solve(lp, start=tab)
                total += 1
                if isinstance(probe, Infeasible):
                    raise NoPerfectMatching("the relaxation is infeasible")
                if not isinstance(probe, Optimal):
                    raise StageSolveError("the relaxation came back unbounded")
                point = probe.x
            if mode != "perturbed":
                lex = lex_min_optimal(lp, order, start=tab)
                total += lex.lp_solves
                if lex.status == "infeasible":
                    raise NoPerfectMatching("the relaxation is infeasible")
                if lex.status != "optimal":
                    raise StageSolveError(f"lexicographic stage came back {lex.status}")
                point = lex.values
            x = _dense(edges, point)
            family_key = tuple(canonical_sets(family))
            if mode == "naive":
                state = (tuple(sorted(x.items())), frozenset(family))
                if vector_is_integral(x) or state in seen:
                    records.append(_record(index, family_key, edges, x, (), total - before))
                    if state in seen:
                        stop, repeat_of = "CyclingDetected", seen[state]
                        detail = f"iteration {index} repeats iteration {repeat_of}"
                    break
                seen[state] = index
            stage_pis, positive = _stage_duals(lp, stages, x, targets)
            total += len(stage_pis)
            records.append(_record(index, family_key, edges, x, stage_pis, total - before))
            family = _expand_family(g, x, positive)
            targets = [_restrict_target(pi, family) for pi in stage_pis]
            if vector_is_integral(x):
                break
    except (NoPerfectMatching, IterationCapExceeded) as exc:
        if mode != "naive":
            raise
        stop = "NoPerfectMatching" if isinstance(exc, NoPerfectMatching) else "MaxIterationsReached"
    except (HalfIntegralityViolation, StructureViolation, FamilyViolation) as exc:
        if mode != "naive":
            raise
        stop, detail = type(exc).__name__, str(exc)
    if stop == "Integral":
        matching = extract_matching(x, g.n)
    return NaiveTrace(
        stop_reason=stop,
        detail=detail,
        repeat_of=repeat_of,
        iterations=tuple(records),
        total_lp_solves=total,
        matching=matching,
        cost=None if matching is None else _matching_cost(g, matching),
    )


def _matching_result(algorithm: str, trace: NaiveTrace) -> MatchingResult:
    return MatchingResult(
        algorithm=algorithm,
        matching=trace.matching,
        cost=trace.cost,
        iterations=trace.iterations,
        total_lp_solves=trace.total_lp_solves,
    )


def solve_unperturbed(
    g: Graph, sigma: EdgeOrdering, iteration_cap: int | None = None
) -> MatchingResult:
    """Cutting-plane matching with staged duals standing in for perturbation."""
    return _matching_result("unperturbed", _cutting_planes(g, sigma, "unperturbed", iteration_cap))


def solve_perturbed_reference(
    g: Graph, sigma: EdgeOrdering, iteration_cap: int | None = None
) -> MatchingResult:
    """The explicit-perturbation variant: adds 2**(-rank) to each edge cost,
    solves plain relaxations, and reports costs against the original values."""
    return _matching_result("perturbed", _cutting_planes(g, sigma, "perturbed", iteration_cap))


def solve_naive(
    g: Graph, sigma: EdgeOrdering, max_iterations: int = NAIVE_ITERATION_CAP
) -> NaiveTrace:
    """Diagnostic mode: no perturbation and no stage series, just lexmin
    primal plus one closest dual per iteration. Never raises on the failure
    patterns it exists to exhibit; they become stop reasons."""
    return _cutting_planes(g, sigma, "naive", max_iterations)
