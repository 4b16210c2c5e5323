"""LP builders for the perfect-matching relaxation and its distance-minimal
duals.

The primal P over a cut family F has one nonnegative variable per edge,
degree equality rows, and one >=1 cut row per family member. The dual side is
never written down directly; instead we build the "closest optimal dual"
program: among all duals that are optimal against a fixed primal optimum x,
pick the one minimizing the size-weighted distance sum(|target(S) - pi(S)|/|S|)
to a target vector via auxiliary r(S) variables. Stage variants drop rows or
relax variable bounds according to an accumulated context, which is how the
staged emulation of an infinitesimal cost perturbation reuses one builder.
The context also holds what all stages against one x share (tight sets,
dual keys, crossing lists, support), so it is computed once per x.

Keys for dual quantities are vertex ids (ints) for singleton cuts and
frozensets for family cuts. Sets in F whose cut row is slack at x get no dual
variable at all: any optimal dual must give them weight zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .graphs import Edge, EdgeOrdering, Graph, cut_edges, validate_cut_family
from .linprog import EQ, GE, LE, MIN, LinearProgram
from .rationals import R0, R1, rat

DualKey = int | frozenset


class MatchingLpError(ValueError):
    """Inconsistent inputs to an LP builder (infeasible x, bad context)."""


def canonical_sets(family) -> list[frozenset[int]]:
    """The family's sets in the one order used everywhere: cut rows, tight
    sets and IterationRecord.family sort by (min, size, sorted members)."""
    return sorted(
        (frozenset(s) for s in family), key=lambda s: (min(s), len(s), sorted(s))
    )


def build_primal(g: Graph, costs: Mapping[Edge, object], family) -> LinearProgram:
    """Min-cost relaxation: degree equalities plus >=1 rows for each cut."""
    sets = validate_cut_family(g, family)
    pairs = g.edge_pairs()
    rows = []
    incident: dict[int, dict] = {v: {} for v in range(g.n)}
    for u, v in pairs:
        incident[u][(u, v)] = R1
        incident[v][(u, v)] = R1
    for v in range(g.n):
        rows.append((("deg", v), incident[v], EQ, R1))
    for s in canonical_sets(sets):
        rows.append((("cut", s), {e: R1 for e in cut_edges(g, s)}, GE, R1))
    objective = {e: rat(costs[e]) for e in pairs}
    return LinearProgram(MIN, [(e, True) for e in pairs], objective, rows)


def tight_sets(g: Graph, x: Mapping[Edge, object], family) -> list[frozenset[int]]:
    """The family members whose cut row holds with equality at x."""
    out = []
    for s in canonical_sets(family):
        if sum((x.get(e, R0) for e in cut_edges(g, s)), R0) == R1:
            out.append(s)
    return out


def crossing_keys(g: Graph, sets) -> dict[Edge, list[DualKey]]:
    """For each edge in graph order, the dual keys of the cuts it crosses:
    its two endpoints, then each member of `sets` in the order given."""
    keys: dict[Edge, list[DualKey]] = {(u, v): [u, v] for u, v in g.edge_pairs()}
    for s in sets:
        for e in cut_edges(g, s):
            keys[e].append(s)
    return keys


def check_primal_feasible(g: Graph, x: Mapping[Edge, object], family) -> None:
    """Exact feasibility of x for the relaxation; raises on any violation."""
    pairs = set(g.edge_pairs())
    for e, value in x.items():
        if e not in pairs:
            raise MatchingLpError(f"vector names unknown edge {e}")
        if value < R0:
            raise MatchingLpError(f"negative value on edge {e}")
    degree = {v: R0 for v in range(g.n)}
    for (u, v) in pairs:
        value = x.get((u, v), R0)
        degree[u] += value
        degree[v] += value
    for v, total in degree.items():
        if total != R1:
            raise MatchingLpError(f"vertex {v} has degree {total}, not 1")
    for s in canonical_sets(family):
        total = sum((x.get(e, R0) for e in cut_edges(g, s)), R0)
        if total < R1:
            raise MatchingLpError(f"cut {sorted(s)} carries {total} < 1")


@dataclass
class StageContext:
    """What the closest-dual stages of one iteration share, plus the drop
    sets they accumulate.

    keys are the dual keys (vertices, then the tight sets in canonical
    order), tight the family sets whose cut row is tight at x, crossing the
    dual keys of each edge (see crossing_keys) and support the edges with
    x(e) > 0. dropped_lo / dropped_hi hold dual keys whose distance rows are
    gone, dropped_edges holds non-support edges whose capacity row is gone,
    and free_sets holds tight sets whose nonnegativity bound is gone.
    """

    keys: list[DualKey]
    tight: list[frozenset[int]]
    crossing: dict[Edge, list[DualKey]]
    support: set[Edge]
    dropped_lo: set = field(default_factory=set)
    dropped_hi: set = field(default_factory=set)
    dropped_edges: set = field(default_factory=set)
    free_sets: set = field(default_factory=set)


def stage_context(g: Graph, x: Mapping[Edge, object], family) -> StageContext:
    """The shared part of every closest-dual stage against primal optimum x,
    with no rows or bounds dropped yet; raises if x is infeasible."""
    check_primal_feasible(g, x, family)
    tight = tight_sets(g, x, family)
    crossing = crossing_keys(g, tight)
    return StageContext(
        keys=list(range(g.n)) + tight,
        tight=tight,
        crossing=crossing,
        support={e for e in crossing if x.get(e, R0)},
    )


def stage_cost(g: Graph, costs: Mapping[Edge, int], sigma: EdgeOrdering, i: int) -> dict:
    """Stage-i objective on edges: the real costs at stage 0, afterwards the
    indicator of the edge holding rank i."""
    if i == 0:
        return {e: rat(costs[e]) for e in g.edge_pairs()}
    return {e: (R1 if sigma.rank[e] == i else R0) for e in g.edge_pairs()}


def build_closest_dual(
    ctx: StageContext, costs: Mapping[Edge, object], target: Mapping[DualKey, object]
) -> LinearProgram:
    """The distance-minimal dual program against the primal optimum ctx was
    built for.

    Feasible points are exactly the optimal duals of the relaxation (tight
    rows on the support enforce complementary slackness); the objective picks
    the one closest to `target` in the size-weighted L1 sense. The drop sets
    of `ctx` remove rows and bounds for the stage variants; omitted keys of
    `target` read 0.
    """
    if ctx.dropped_edges & ctx.support:
        raise MatchingLpError("context drops a support edge row")
    if not ctx.free_sets <= set(ctx.tight):
        raise MatchingLpError("context frees a set without a tight cut row")
    key_set = set(ctx.keys)
    for key in (ctx.dropped_lo | ctx.dropped_hi):
        if key not in key_set:
            raise MatchingLpError(f"context references unknown dual key {key!r}")

    def size(key: DualKey) -> int:
        return 1 if isinstance(key, int) else len(key)

    keys = ctx.keys
    variables = [(("pi", k), isinstance(k, frozenset) and k not in ctx.free_sets) for k in keys]
    variables += [(("r", k), True) for k in keys]
    objective = {("r", k): rat(1, size(k)) for k in keys}

    rows = []
    for k in keys:
        goal = rat(target.get(k, R0))
        if k not in ctx.dropped_lo:
            rows.append(((("lo", k)), {("r", k): R1, ("pi", k): R1}, GE, goal))
        if k not in ctx.dropped_hi:
            rows.append(((("hi", k)), {("r", k): -R1, ("pi", k): R1}, LE, goal))
    for e, ks in ctx.crossing.items():
        coeffs = {("pi", k): R1 for k in ks}
        if e in ctx.support:
            rows.append((("tight", e), coeffs, EQ, rat(costs[e])))
        elif e not in ctx.dropped_edges:
            rows.append((("edge", e), coeffs, LE, rat(costs[e])))
    return LinearProgram(MIN, variables, objective, rows)


def split_dual_solution(values: Mapping) -> tuple[dict, dict]:
    """Split an LP solution of build_closest_dual into (pi, r) maps."""
    pi = {name[1]: v for name, v in values.items() if name[0] == "pi"}
    r = {name[1]: v for name, v in values.items() if name[0] == "r"}
    return pi, r


def weighted_deviation(target: Mapping[DualKey, object], pi: Mapping[DualKey, object]) -> object:
    """sum over keys of |target - pi| / |S|, the distance the dual minimizes."""
    total = R0
    for k in set(target) | set(pi):
        size = 1 if isinstance(k, int) else len(k)
        diff = rat(target.get(k, R0)) - rat(pi.get(k, R0))
        total += abs(diff) / size
    return total
