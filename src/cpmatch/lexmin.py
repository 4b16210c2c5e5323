"""Lexicographically minimal optimum of an LP, by repeated exact solves.

Stage 0 solves the model. Each later stage minimizes one variable, visited
in the caller's order, over the optimal face of the stage before it
(linprog.optimal_face), which pins every variable minimized so far. A
variable the face has already dropped is zero on it: its stage keeps an
empty objective, value 0. That is one solve per variable plus one, always:
later stages are never skipped even when a value is already forced, so the
solve count is a fixed function of the model size. The result is the unique
point of the optimal face that is lexicographically smallest in the given
variable order.

A face is a variant of the stage before it that only fixes nonbasic
columns of the last optimum at zero (dropped variables, and the slacks of
rows made ``=``), so all stages reoptimize one Tableau of the model's size:
stage 0 is the only cold solve, and every later stage runs phase 2 alone.
A caller's Tableau whose last model is the model itself makes stage 0 a
re-solve of it with no pivot. Each stage is still one solve() call,
counted as one LP solve, and its certificate is checked against its stage
model. The result does not depend on the pivot path, since it is unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from .linprog import LinearProgram, Optimal, Tableau, optimal_face, solve
from .rationals import R0, R1, Rational


@dataclass(frozen=True)
class LexMinResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    values: dict | None
    objective: Rational | None
    lp_solves: int


def lex_min_optimal(
    lp: LinearProgram, order: Sequence[Hashable], start: Tableau | None = None
) -> LexMinResult:
    """Lexicographic minimum over the optimal face, in `order`.

    `order` must enumerate every variable exactly once. Infeasible or
    unbounded models propagate as a LexMinResult with that status. The
    stages run on `start` when given (see linprog's start=): a Tableau whose
    last model is lp, solved to Optimal, re-solves it at stage 0 with no
    pivot.
    """
    names = [v.name for v in lp.variables]
    if len(order) != len(names) or set(order) != set(names):
        raise ValueError("order must be a permutation of the model's variables")

    tab = Tableau() if start is None else start
    out = solve(lp, start=tab)
    solves = 1
    if not isinstance(out, Optimal):
        return LexMinResult(out.status, None, None, solves)

    objective, stage, values = out.objective, lp, {}
    for name in order:
        stage = optimal_face(stage, out, {name: R1})
        out = solve(stage, start=tab)
        solves += 1
        if not isinstance(out, Optimal):
            # The face is nonempty, so only unboundedness can occur here
            # (a free variable with no floor on the optimal face).
            return LexMinResult(out.status, None, None, solves)
        values[name] = out.x.get(name, R0)
    return LexMinResult("optimal", values, objective, solves)
