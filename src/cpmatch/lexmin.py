"""Lexicographically minimal optimum of an LP, by repeated exact solves.

Stage 0 finds the optimal value; the objective is then frozen as an equality
row and each variable, visited in the caller's order, is minimized and pinned
in turn. That is one solve per variable plus one, always: later stages are
never skipped even when a value is already forced, so the solve count is a
fixed function of the model size. The result is the unique point of the
optimal face that is lexicographically smallest in the given variable order.

Each stage only appends one equality row that the previous optimum already
satisfies, so all stages reoptimize one Tableau: stage 0 is the only cold
two-phase solve (none when the caller passes a Tableau that has just solved
the model), and every later stage pivots its new row in at value zero
and runs phase 2 alone. Each stage is still one solve() call, counted as one
LP solve, and its certificate is checked against the full stage model. The
result does not depend on the pivot path, since it is unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from .linprog import EQ, MIN, LinearProgram, Optimal, Row, Tableau, solve
from .rationals import R1, Rational


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
    stages run on `start` when given (see linprog's start=): a Tableau that
    has just solved lp to Optimal makes stage 0 a reoptimization too.
    """
    names = [v.name for v in lp.variables]
    if len(order) != len(names) or set(order) != set(names):
        raise ValueError("order must be a permutation of the model's variables")

    tab = Tableau() if start is None else start
    first = solve(lp, start=tab)
    solves = 1
    if not isinstance(first, Optimal):
        return LexMinResult(first.status, None, None, solves)

    rows = list(lp.rows)
    rows.append(Row(("lex", "objective"), dict(lp.objective), EQ, first.objective))
    values: dict = {}
    for name in order:
        stage = LinearProgram(MIN, lp.variables, {name: R1}, rows)
        out = solve(stage, start=tab)
        solves += 1
        if not isinstance(out, Optimal):
            # The face is nonempty, so only unboundedness can occur here
            # (a free variable with no floor on the optimal face).
            return LexMinResult(out.status, None, None, solves)
        values[name] = out.x[name]
        rows.append(Row(("lex", "fix", name), {name: R1}, EQ, values[name]))
    return LexMinResult("optimal", values, first.objective, solves)
