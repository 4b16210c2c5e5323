"""LP builders for the perfect-matching relaxation and its distance-minimal
duals.

The primal P over a cut family F has one nonnegative variable per edge,
degree equality rows, and one >=1 cut row per family member. The dual side is
never written down directly; instead we build the "closest optimal dual"
program: among all duals that are optimal against a fixed primal optimum x,
pick the one minimizing the size-weighted distance sum(|target(S) - pi(S)|/|S|)
to a target vector via auxiliary r(S) variables. The stages against one x
write their model once: each later stage is a variant
(LinearProgram.variant) of the stage before it, passed back in with the
rows and sign bounds to drop and the edges and keys whose rows may move,
and reads only those, so the staged emulation of an infinitesimal cost
perturbation pays per stage for what changed.
What all stages against one x share (tight sets, dual keys, crossing
lists, support) is a read-only StageContext. It is read off the rows of
the primal model that x solves, in one pass per x, so only build_primal
works out which edges cross which cut.

Keys for dual quantities are vertex ids (ints) for singleton cuts and
frozensets for family cuts. Sets in F whose cut row is slack at x get no dual
variable at all: any optimal dual must give them weight zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Mapping

from .graphs import Edge, Graph, cut_edges, validate_cut_family
from .linprog import EQ, GE, LE, LinearProgram, unit_row
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
    """Min-cost relaxation: degree equalities plus one >=1 row per set of
    family, in family's order (cpm passes the canonical tuple its records
    hold, see canonical_sets). Every row is written by linprog.unit_row, so
    the model takes each as it is (see linprog)."""
    sets = validate_cut_family(g, family)
    pairs = g.edge_pairs()
    incident: dict[int, dict] = {v: {} for v in range(g.n)}
    for u, v in pairs:
        incident[u][(u, v)] = 1
        incident[v][(u, v)] = 1
    rows = [unit_row(("deg", v), incident[v], EQ, R1) for v in range(g.n)]
    for s in sets:
        rows.append(unit_row(("cut", s), dict.fromkeys(cut_edges(g, s), 1), GE, R1))
    return LinearProgram([(e, True) for e in pairs], {e: rat(costs[e]) for e in pairs}, rows)


@dataclass(frozen=True)
class StageContext:
    """What the closest-dual stages of one iteration share, read off the
    primal model's rows (see stage_context): keys are the dual keys
    (vertices, then the tight sets in canonical order), the tuple that
    cpm's IterationRecord keeps as its dual_keys, tight the family
    sets whose cut row is tight at x, crossing the keys of the rows each
    edge appears in (its two endpoints, then the tight sets it crosses), in
    graph edge order, and support the edges with x(e) > 0. The stage chain
    itself (the last model, the rows and bounds dropped) is the caller's;
    see build_closest_dual.
    """

    keys: tuple[DualKey, ...]
    tight: list[frozenset[int]]
    crossing: dict[Edge, list[DualKey]]
    support: set[Edge]


def stage_context(primal: LinearProgram, xs: Mapping[Edge, int], den: int) -> StageContext:
    """The shared part of every closest-dual stage against the primal
    optimum x, read off the rows of primal = build_primal(g, costs, family)
    in one pass; raises if x is not feasible for primal. x comes as ints xs
    over one positive denominator den, the form linprog.Optimal holds it in
    (xs, dx), an edge xs lacks reading 0, so each row sum and test is
    integer arithmetic."""
    crossing: dict[Edge, list[DualKey]] = {var.name: [] for var in primal.variables}
    for e, num in xs.items():
        if e not in crossing:
            raise MatchingLpError(f"vector names unknown edge {e}")
        if num < 0:
            raise MatchingLpError(f"negative value on edge {e}")
    keys: list[DualKey] = []
    value, zeros = xs.get, repeat(0)
    for row in primal.rows:
        kind, key = row.id
        total = sum(map(value, row.coeffs, zeros))
        if kind == "deg" and total != den:
            raise MatchingLpError(f"vertex {key} has degree {rat(total, den)}, not 1")
        if kind == "cut" and total < den:
            raise MatchingLpError(f"cut {sorted(key)} carries {rat(total, den)} < 1")
        if total == den:  # every degree row, and the cut rows tight at x
            keys.append(key)
            for e in row.coeffs:
                crossing[e].append(key)
    return StageContext(
        keys=tuple(keys),
        tight=[k for k in keys if isinstance(k, frozenset)],
        crossing=crossing,
        support={e for e in crossing if xs.get(e)},
    )


def build_closest_dual(
    ctx: StageContext, costs: Mapping[Edge, object], target: Mapping[DualKey, object],
    last: LinearProgram | None = None, drop=(), free=(), moved=(),
) -> LinearProgram:
    """The distance-minimal dual program against the primal optimum ctx was
    built for.

    Feasible points are exactly the optimal duals of the relaxation (tight
    rows on the support enforce complementary slackness); the objective picks
    the one closest to `target` in the size-weighted L1 sense. Omitted keys
    of `costs` and of `target` read 0, so the indicator of one edge e is
    the one-entry map {e: 1}. Without `last` the whole model is written,
    each row by linprog.unit_row (every coefficient is +-1), so the model
    takes its rows as they are and validates no coefficient.
    With `last`, an earlier stage's model, the result is a variant of it that
    leaves out the inequality rows with ids in `drop`, frees the sign bounds
    of the tight sets in `free`, and reads only the rows of `moved`, the
    edges (tuples) and dual keys whose cost or target may differ from the
    ones last's rows hold: each such row last keeps (an edge's row, a key's
    lo and hi rows) takes its value from costs or target, and the variant
    records which moved (see linprog). Every other row keeps last's
    right-hand side. A row or set the model does not hold, named in `drop`
    or `free`, raises LinearProgramError from the variant, and a dropped
    equality row from the warm solve (see linprog).
    """
    keys = ctx.keys
    if last is None:
        pi = {k: ("pi", k) for k in keys}
        r = {k: ("r", k) for k in keys}
        variables = [(pi[k], isinstance(k, frozenset)) for k in keys]
        variables += [(r[k], True) for k in keys]
        objective = {r[k]: R1 if isinstance(k, int) else rat(1, len(k)) for k in keys}
        rows = []
        for k in keys:
            t = target.get(k, R0)
            rows.append(unit_row(("lo", k), {r[k]: 1, pi[k]: 1}, GE, t))
            rows.append(unit_row(("hi", k), {r[k]: -1, pi[k]: 1}, LE, t))
        for e, ks in ctx.crossing.items():
            kind, relation = ("tight", EQ) if e in ctx.support else ("edge", LE)
            rows.append(unit_row((kind, e), dict.fromkeys(map(pi.__getitem__, ks), 1),
                                 relation, costs.get(e, R0)))
        return LinearProgram(variables, objective, rows)
    rhs, index = {}, last.index
    for key in moved:
        if isinstance(key, tuple):  # an edge
            b, ids = costs.get(key, R0), (("tight" if key in ctx.support else "edge", key),)
        else:
            b, ids = target.get(key, R0), (("lo", key), ("hi", key))
        for row_id in ids:
            if row_id in index and row_id not in drop:
                rhs[row_id] = b
    return last.variant(rhs=rhs, drop_rows=drop, free=[("pi", s) for s in free])
