"""Staged exact solving of an infinitesimally perturbed LP pair.

The object of interest is min (c_0 + eps*c_1 + ... + eps^k*c_k).x subject to
A x >= b with a subset of the columns sign-constrained, for a symbolic
infinitesimal eps > 0. Nothing here ever materializes eps: stage p solves an
ordinary LP with objective c_p over the optimal face of stage p - 1, by
lexmin.staged_optima (which explains the faces and the one Tableau). The
stage-k primal solution, padded with zeros on dropped columns, is THE
optimum of the perturbed problem, and the per-stage duals form its dual's
coefficient series in powers of eps.

The sign rule for that series: reading a fixed row's values stage by stage,
the first nonzero must be positive, otherwise the series is not a valid
nonnegative infinitesimal dual and SignViolation fires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import SignViolation, StageSolveError
from .lexmin import staged_optima
from .linprog import EQ, GE, LinearProgram, Optimal
from .linprog import solve  # noqa: F401  (perfbench/tracing.py patches perturb.solve)
from .rationals import R0, Rational, rat


@dataclass(frozen=True)
class PerturbedPair:
    """A x >= b, staged costs c_0..c_k, columns in `nonneg` sign-constrained."""

    a: tuple[tuple[Rational, ...], ...]
    b: tuple[Rational, ...]
    costs: tuple[tuple[Rational, ...], ...]
    nonneg: frozenset[int]

    @classmethod
    def build(cls, a, b, costs, nonneg) -> "PerturbedPair":
        a = tuple([tuple([rat(v) for v in row]) for row in a])
        b = tuple([rat(v) for v in b])
        costs = tuple([tuple([rat(v) for v in c]) for c in costs])
        if not costs:
            raise ValueError("no cost stage")
        width = {len(row) for row in a} | {len(c) for c in costs}
        if len(width) > 1:
            raise ValueError("inconsistent column counts")
        if len(a) != len(b):
            raise ValueError("row count mismatch")
        ncols = width.pop() if width else 0
        bad = [j for j in nonneg if type(j) is not int or not 0 <= j < ncols]
        if bad:
            raise ValueError(f"sign-constrained columns not ints or out of range: {bad}")
        return cls(a, b, costs, frozenset(nonneg))

    @property
    def nrows(self) -> int:
        return len(self.a)

    @property
    def ncols(self) -> int:
        return len(self.a[0]) if self.a else len(self.costs[0])


@dataclass(frozen=True)
class DualSeries:
    """Per-stage dual vectors y_0..y_k, each dense over the original rows."""

    stages: tuple[dict, ...]

    def row_series(self, row) -> tuple:
        return tuple([stage[row] for stage in self.stages])


def series_first_sign(series: Sequence) -> int:
    """-1, 0, or 1 according to the first nonzero entry (0 when all zero)."""
    for value in series:
        if value > 0:
            return 1
        if value < 0:
            return -1
    return 0


@dataclass(frozen=True)
class StageRecord:
    index: int
    kept_columns: tuple[int, ...]
    equality_rows: frozenset[int]
    x: dict
    y: dict
    objective: Rational


@dataclass(frozen=True)
class PerturbedSolution:
    x: tuple[Rational, ...]
    series: DualSeries
    stages: tuple[StageRecord, ...]


def solve_perturbed_pair(pair: PerturbedPair) -> PerturbedSolution:
    """Run the stages and return the perturbed optimum with its dual series.

    Raises StageSolveError when any stage is infeasible or unbounded and
    SignViolation when the assembled series breaks the sign rule.
    """
    columns = [(j, j in pair.nonneg) for j in range(pair.ncols)]
    rows = [(i, {j: a for j, a in enumerate(pair.a[i]) if a}, GE, pair.b[i])
            for i in range(pair.nrows)]
    lp = LinearProgram(columns, dict(enumerate(pair.costs[0])), rows)
    stages: list[StageRecord] = []
    later = (dict(enumerate(cost)) for cost in pair.costs[1:])
    for p, (lp, out) in enumerate(staged_optima(lp, later)):
        if not isinstance(out, Optimal):
            raise StageSolveError(f"stage {p} came back {out.status}")
        equality_rows = frozenset(row.id for row in lp.rows if row.relation == EQ)
        kept = tuple([v.name for v in lp.variables])
        stages.append(StageRecord(p, kept, equality_rows, dict(out.x), dict(out.y), out.objective))

    x = tuple([stages[-1].x.get(j, R0) for j in range(pair.ncols)])
    series = DualSeries(tuple([stage.y for stage in stages]))

    _check_solution(pair, x, series)
    return PerturbedSolution(x=x, series=series, stages=tuple(stages))


def _check_solution(pair: PerturbedPair, x, series: DualSeries) -> None:
    for j in pair.nonneg:
        if x[j] < R0:
            raise StageSolveError(f"column {j} settled negative: {x[j]}")
    for i in range(pair.nrows):
        lhs = sum((a * v for a, v in zip(pair.a[i], x) if a), R0)
        if lhs < pair.b[i]:
            raise StageSolveError(f"row {i} violated by the padded solution")
        row_series = series.row_series(i)
        if series_first_sign(row_series) < 0:
            raise SignViolation(("row", i), row_series)
