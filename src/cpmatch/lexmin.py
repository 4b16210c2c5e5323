"""Staged optima over optimal faces, and the lexicographic minimum they give.

staged_optima is the one staged-face loop. Stage 0 solves the model, and
each later stage minimizes the next objective over the optimal face of the
stage before (linprog.optimal_face: rows with a nonzero dual become
equalities, variables with a nonzero reduced cost are dropped). A face only
fixes nonbasic columns of the last optimum at zero, so all stages
reoptimize one Tableau of the model's size: stage 0 is the only cold solve
(or a re-solve with no pivot, on a Tableau whose last model is the model),
and every later stage runs phase 2 alone. Each stage is one solve() call,
counted as one LP solve, with its certificate checked against its model.

lex_min_optimal stages each variable in the caller's order, so each face
pins one more; a variable a face has dropped is zero on it (an empty
objective, value 0). That is one solve per variable plus one, always: no
stage is skipped even when its value is forced. The last stage's optimum is
the unique lexicographically smallest point of the optimal face, so the
result is that checked Optimal itself: its x is the point, read on its ints
(xs over dx) or by value(name), which is 0 on a name a face dropped. No
stage builds an x or y map (a face reads only which duals and reduced costs
are nonzero). The point does not depend on the pivot path, since it is
unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .linprog import LinearProgram, LPOutcome, Optimal, Tableau, optimal_face, solve
from .rationals import R1, Rational


@dataclass(frozen=True)
class LexMinResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    optimum: Optimal | None  # the last stage's: its x is the point
    objective: Rational | None
    lp_solves: int


def staged_optima(lp: LinearProgram, objectives: Iterable[Mapping],
                  start: Tableau | None = None) -> Iterator[tuple[LinearProgram, LPOutcome]]:
    """(model, outcome) of lp, then of each objective over the optimal face
    of the stage before, all on `start` (a fresh Tableau when None). Stops
    after the first outcome that is not Optimal."""
    tab = Tableau() if start is None else start
    yield lp, (out := solve(lp, start=tab))
    for objective in objectives:
        if not isinstance(out, Optimal):
            return
        lp = optimal_face(lp, out, objective)
        yield lp, (out := solve(lp, start=tab))


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

    stages = staged_optima(lp, ({name: R1} for name in order), start)
    _, first = next(stages)
    out, solves = first, 1
    for solves, (_, out) in enumerate(stages, 2):
        pass
    if not isinstance(out, Optimal):
        # A later face is nonempty, so past stage 0 only unboundedness can
        # occur (a free variable with no floor on the optimal face).
        return LexMinResult(out.status, None, None, solves)
    return LexMinResult("optimal", out, first.objective, solves)
