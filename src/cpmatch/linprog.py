"""Exact-rational linear programs and a deterministic two-phase simplex.

Models are row-oriented: named variables (nonnegative or free), an objective
with a sense, and relational rows over the variables. solve() returns both a
primal optimum and a matching dual vector, all in exact rationals, and checks
the certificate (feasibility, complementary slackness, strong duality) on
every call before handing it back. Values equal to 0, +-1, +-1/2 or +-2 come
back as the shared instances from rationals.shared.

solve(lp, start=tab) continues on the Tableau tab: a fresh one gets a cold
two-phase solve and keeps its result. After an Optimal outcome the next model
must be the last one plus appended ``=`` rows on the same variables that the
last optimum satisfies (objective and sense may change); they are pivoted in
at value zero and only phase 2 runs, and the optimum is certificate-checked
like any other. Any other model, or any model after an Infeasible or
Unbounded outcome, raises LinearProgramError instead of solving cold.

Pivot selection is Bland's rule (lowest eligible index), so runs are
reproducible and cycling is impossible. Free variables participate directly:
a free variable may enter in either direction and never leaves the basis,
which bounds its pivots and preserves termination.

Dual sign conventions, for a minimization problem:
    >= row: y >= 0,  <= row: y <= 0,  = row: y free,
and for every variable, c_j - y.A_j >= 0 (nonnegative) or == 0 (free).
For maximization the signs flip (``<=`` rows carry y >= 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Mapping, Sequence

from .errors import InvariantViolation
from .rationals import R0, R1, Rational, rat, shared

MIN = "min"
MAX = "max"
LE = "<="
EQ = "="
GE = ">="

_RELATIONS = (LE, EQ, GE)


class LinearProgramError(ValueError):
    """Malformed model: unknown variable, duplicate name or row id, bad sense."""


class SolverInvariantError(InvariantViolation):
    """The solver produced a certificate that fails exact verification."""


@dataclass(frozen=True)
class Variable:
    name: Hashable
    nonnegative: bool = True


@dataclass(frozen=True)
class Row:
    id: Hashable
    coeffs: Mapping[Hashable, Any]
    relation: str
    rhs: Any


class LinearProgram:
    """An immutable exact-rational LP in row form."""

    def __init__(
        self,
        sense: str,
        variables: Iterable[Variable | tuple[Hashable, bool] | Hashable],
        objective: Mapping[Hashable, Any],
        rows: Iterable[Row | tuple],
    ):
        if sense not in (MIN, MAX):
            raise LinearProgramError(f"unknown sense {sense!r}")
        self.sense = sense

        self.variables: list[Variable] = []
        for spec in variables:
            if isinstance(spec, Variable):
                var = spec
            elif isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[1], bool):
                var = Variable(spec[0], spec[1])
            else:
                var = Variable(spec, True)
            self.variables.append(var)
        names = [v.name for v in self.variables]
        self._index = {name: j for j, name in enumerate(names)}
        if len(self._index) != len(names):
            raise LinearProgramError("duplicate variable name")

        self.objective = {name: rat(c) for name, c in objective.items()}
        for name in self.objective:
            if name not in self._index:
                raise LinearProgramError(f"objective references unknown variable {name!r}")

        self.rows: list[Row] = []
        seen_ids = set()
        for spec in rows:
            row = spec if isinstance(spec, Row) else Row(*spec)
            if row.relation not in _RELATIONS:
                raise LinearProgramError(f"unknown relation {row.relation!r} in row {row.id!r}")
            coeffs = {name: rat(c) for name, c in row.coeffs.items()}
            for name in coeffs:
                if name not in self._index:
                    raise LinearProgramError(
                        f"row {row.id!r} references unknown variable {name!r}"
                    )
            row = Row(row.id, coeffs, row.relation, rat(row.rhs))
            if row.id in seen_ids:
                raise LinearProgramError(f"duplicate row id {row.id!r}")
            seen_ids.add(row.id)
            self.rows.append(row)

    def variable_index(self, name: Hashable) -> int:
        return self._index[name]


@dataclass(frozen=True)
class Optimal:
    status = "optimal"
    x: dict
    y: dict
    objective: Rational


@dataclass(frozen=True)
class Infeasible:
    status = "infeasible"


@dataclass(frozen=True)
class Unbounded:
    status = "unbounded"


LPOutcome = Optimal | Infeasible | Unbounded


def solve(lp: LinearProgram, start: Tableau | None = None) -> LPOutcome:
    """Solve exactly, on a fresh Tableau or on ``start`` (see the module
    docstring); on Optimal the (x, y, objective) certificate is verified."""
    outcome = (Tableau() if start is None else start).optimize(lp)
    if isinstance(outcome, Optimal):
        verify_certificate(lp, outcome)
    return outcome


class Tableau:
    """One model's simplex state: standard form, basis, Bland pivot loop.

    Columns are the variables, one slack per inequality row, then one
    artificial per row without a +e_i slack; each row ends with its rhs.
    """

    def __init__(self) -> None:
        self.lp: LinearProgram | None = None
        self.status: str | None = None

    def optimize(self, lp: LinearProgram) -> LPOutcome:
        """Solve lp cold on a fresh tableau, else as an extension of the last model."""
        if self.status is None:
            feasible = self.build(lp)
        elif self.status == "optimal":
            self.extend(lp)
            feasible = True
        else:
            raise LinearProgramError(f"cannot reoptimize after an {self.status} solve")
        outcome = self.phase2(lp) if feasible else Infeasible()
        self.lp, self.status = lp, outcome.status
        return outcome

    def build(self, lp: LinearProgram) -> bool:
        """Standard form of lp, then phase 1; False when lp is infeasible."""
        nvar = len(lp.variables)
        # Append a slack per inequality, scale rhs nonnegative, then give
        # every row an identity column (reusing the slack when it already
        # is +e_i, otherwise adding an artificial).
        m = len(lp.rows)
        dense_rows: list[list[Rational]] = []
        rhs: list[Rational] = []
        flips: list[bool] = []
        for row in lp.rows:
            vec = [R0] * nvar
            for name, c in row.coeffs.items():
                vec[lp.variable_index(name)] = c
            flip = row.rhs < 0
            if flip:
                vec = [-c for c in vec]
            dense_rows.append(vec)
            rhs.append(-row.rhs if flip else row.rhs)
            flips.append(flip)

        nonneg = [v.nonnegative for v in lp.variables]
        slack_col: list[int | None] = [None] * m
        for i, row in enumerate(lp.rows):
            if row.relation == EQ:
                continue
            sign = R1 if row.relation == LE else -R1
            if flips[i]:
                sign = -sign
            col = len(nonneg)
            slack_col[i] = col
            nonneg.append(True)
            for k in range(m):
                dense_rows[k].append(sign if k == i else R0)

        identity_col: list[int] = [0] * m
        artificial: set[int] = set()
        for i in range(m):
            j = slack_col[i]
            if j is not None and dense_rows[i][j] == R1:
                identity_col[i] = j
            else:
                col = len(nonneg)
                nonneg.append(True)
                artificial.add(col)
                for k in range(m):
                    dense_rows[k].append(R1 if k == i else R0)
                identity_col[i] = col

        self.rows = [dense_rows[i] + [rhs[i]] for i in range(m)]
        self.basis = list(identity_col)
        self.in_basis = [False] * len(nonneg)
        for j in self.basis:
            self.in_basis[j] = True
        self.nonneg, self.artificial = nonneg, artificial
        self.identity_col, self.flips = identity_col, flips

        # Phase 1: drive the artificial variables to zero.
        if artificial:
            z = self.reduced_costs([R1 if j in artificial else R0 for j in range(len(nonneg))])
            if self.run(z, banned=set()) == "unbounded":
                raise SolverInvariantError("phase-1 objective cannot be unbounded")
            if any(self.rows[i][-1] for i, b in enumerate(self.basis) if b in artificial):
                return False
            self.drive_out(range(m))
        return True

    def extend(self, lp: LinearProgram) -> None:
        """Append the = rows by which lp extends the last model, each with an
        artificial that is then pivoted out. Reduced against the basis, a
        row's rhs is its rhs minus its value at the last optimum: it must be
        0, so no value moves."""
        k = len(self.lp.rows)
        if (
            lp.variables != self.lp.variables
            or lp.rows[:k] != self.lp.rows
            or any(row.relation != EQ for row in lp.rows[k:])
        ):
            raise LinearProgramError("start= takes the last model plus appended = rows")
        new = []
        for row in lp.rows[k:]:
            coeffs = [R0] * len(self.nonneg)
            for name, c in row.coeffs.items():
                coeffs[lp.variable_index(name)] = c
            vec = self.reduced_costs(coeffs)
            vec[-1] += row.rhs
            if vec[-1]:
                raise LinearProgramError(f"the last optimum violates appended row {row.id!r}")
            new.append(vec)

        m, ncols = len(self.rows), len(self.nonneg)
        for i, vec in enumerate(self.rows + new):
            vec[-1:-1] = [R1 if i == m + t else R0 for t in range(len(new))]
        arts = range(ncols, ncols + len(new))
        self.rows += new
        self.basis += arts
        self.identity_col += arts
        self.flips += [False] * len(new)
        self.nonneg += [True] * len(new)
        self.in_basis += [True] * len(new)
        self.artificial.update(arts)
        self.drive_out(range(m, len(self.rows)))

    def drive_out(self, rows: Iterable[int]) -> None:
        """Pivot each basic artificial of `rows` out at value zero, onto the
        lowest nonbasic real column with a nonzero entry."""
        for i in rows:
            if self.basis[i] not in self.artificial:
                continue
            row = self.rows[i]
            for j in range(len(self.nonneg)):
                if j in self.artificial or self.in_basis[j]:
                    continue
                if row[j]:
                    self.pivot(i, j)
                    break
            # A row with no eligible pivot column is redundant; its
            # artificial stays basic at value zero and never re-enters.

    # Both updates below touch only the nonzero columns of the row being
    # subtracted: a - f*0 == a, so the arithmetic (and with it the Bland
    # pivot path) is the same as a dense update, at a fraction of the cost.
    def pivot(self, r: int, j: int, zrow: list[Rational] | None = None) -> None:
        tableau = self.rows
        prow = tableau[r]
        piv = prow[j]
        if piv != R1:
            nonzero = [(k, v / piv) for k, v in enumerate(prow) if v]
            for k, v in nonzero:
                prow[k] = v
        else:
            nonzero = [(k, v) for k, v in enumerate(prow) if v]
        for row in tableau if zrow is None else (*tableau, zrow):
            if row is prow:
                continue
            f = row[j]
            if f:
                for k, b in nonzero:
                    row[k] -= f * b
        self.in_basis[self.basis[r]] = False
        self.in_basis[j] = True
        self.basis[r] = j

    def reduced_costs(self, costvec: list[Rational]) -> list[Rational]:
        z = list(costvec) + [R0]
        for i, b in enumerate(self.basis):
            cb = costvec[b]
            if cb:
                for k, t in enumerate(self.rows[i]):
                    if t:
                        z[k] -= cb * t
        return z

    def run(self, zrow: list[Rational], banned: set[int]) -> str:
        tableau, basis, in_basis, nonneg = self.rows, self.basis, self.in_basis, self.nonneg
        ncols, m = len(nonneg), len(tableau)
        while True:
            enter = -1
            direction = R1
            for j in range(ncols):
                if in_basis[j] or j in banned:
                    continue
                rc = zrow[j]
                if nonneg[j]:
                    if rc < R0:
                        enter, direction = j, R1
                        break
                elif rc:
                    enter = j
                    direction = R1 if rc < R0 else -R1
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            best = None
            for i in range(m):
                if not nonneg[basis[i]]:
                    continue
                t = direction * tableau[i][enter]
                if t > R0:
                    ratio = tableau[i][-1] / t
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return "unbounded"
            self.pivot(leave, enter, zrow)

    def phase2(self, lp: LinearProgram) -> LPOutcome:
        """Phase 2 on lp's objective from the current feasible basis."""
        minimize = lp.sense == MIN
        cost = [R0] * len(self.nonneg)
        for name, c in lp.objective.items():
            cost[lp.variable_index(name)] = c if minimize else -c
        z = self.reduced_costs(cost)
        if self.run(z, banned=self.artificial) == "unbounded":
            return Unbounded()

        xvals = [R0] * len(self.nonneg)
        for i, b in enumerate(self.basis):
            xvals[b] = self.rows[i][-1]
        x = {v.name: shared(xvals[j]) for j, v in enumerate(lp.variables)}

        y = {}
        for i, row in enumerate(lp.rows):
            yi = -z[self.identity_col[i]]
            if self.flips[i]:
                yi = -yi
            if not minimize:
                yi = -yi
            y[row.id] = shared(yi)

        objective = sum((lp.objective[name] * x[name] for name in lp.objective), R0)
        return Optimal(x=x, y=y, objective=objective)


def verify_certificate(lp: LinearProgram, opt: Optimal) -> None:
    """Exact optimality check: feasibility both sides, CS, strong duality."""
    x, y = opt.x, opt.y
    minimize = lp.sense == MIN
    for var in lp.variables:
        if var.name not in x:
            raise SolverInvariantError(f"missing primal value for {var.name!r}")
        if var.nonnegative and x[var.name] < R0:
            raise SolverInvariantError(f"negative value for {var.name!r}")

    ydotb = R0
    for row in lp.rows:
        lhs = sum((c * x[name] for name, c in row.coeffs.items()), R0)
        ok = lhs == row.rhs if row.relation == EQ else (
            lhs <= row.rhs if row.relation == LE else lhs >= row.rhs
        )
        if not ok:
            raise SolverInvariantError(f"row {row.id!r} violated: {lhs} {row.relation} {row.rhs}")
        yi = y[row.id]
        if row.relation != EQ:
            upper = (row.relation == LE) == minimize
            if upper and yi > R0:
                raise SolverInvariantError(f"dual sign for row {row.id!r}")
            if not upper and yi < R0:
                raise SolverInvariantError(f"dual sign for row {row.id!r}")
        if yi and lhs != row.rhs:
            raise SolverInvariantError(f"complementary slackness fails on row {row.id!r}")
        ydotb += yi * row.rhs

    slack_by_var = {v.name: lp.objective.get(v.name, R0) for v in lp.variables}
    for row in lp.rows:
        yi = y[row.id]
        if yi:
            for name, c in row.coeffs.items():
                slack_by_var[name] -= yi * c
    for var in lp.variables:
        d = slack_by_var[var.name]
        if not var.nonnegative:
            if d != R0:
                raise SolverInvariantError(f"dual constraint for free {var.name!r}")
        else:
            if (d < R0) if minimize else (d > R0):
                raise SolverInvariantError(f"dual constraint for {var.name!r}")
            if x[var.name] and d:
                raise SolverInvariantError(f"complementary slackness fails on {var.name!r}")

    cost = sum((c * x[name] for name, c in lp.objective.items()), R0)
    if cost != opt.objective:
        raise SolverInvariantError("objective value mismatch")
    if ydotb != cost:
        raise SolverInvariantError(f"strong duality fails: {ydotb} != {cost}")
