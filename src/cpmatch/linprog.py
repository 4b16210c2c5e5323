"""Exact-rational linear programs and a deterministic primal and dual simplex.

Models are row-oriented: named variables (nonnegative or free), an objective
with a sense, and relational rows over the variables. solve() returns both a
primal optimum and a matching dual vector, all in exact rationals, and checks
the certificate (feasibility, complementary slackness, strong duality)
exactly, on scaled integers, on every solve before handing it back. The
Optimal it returns also carries what that check computed: the slack of each
inequality row that is not tight, and each nonzero reduced cost.

The simplex itself runs fraction-free: each tableau row, and the row of
reduced costs, is a list of Python ints over one positive int denominator
(see Tableau), in the style of Bareiss (1968). Models' rationals become ints
when a tableau is built or its costs or rhs change, and rationals are
formed again only for the x, y and objective of an Optimal. Each of those
values is looked up by (numerator, denominator) among the shared instances
of rationals._SHARED (0, +-1, +-1/2, +-2) before a new one is built.

A cold solve has one start: the all-slack basis, which flips each >= row
and gives each = row a banned artificial, and a dual simplex from it on
start costs that are dual feasible there. A nonnegative column's start cost
is its cost (MIN as is, MAX negated) raised by the magnitude of the most
negative such cost, or by 0 when none is negative; free columns start at 0.
The dual run ends at a feasible basis (or proves lp infeasible), artificials
left basic at zero are pivoted out, and phase 2 runs on lp's own costs from
there. On nonnegative costs the start costs are lp's. A matching
relaxation's degree rows force sum x = n/2, so the shift adds the same
constant to every feasible point's cost: the dual run on a relaxation with
negative edge costs ends at an optimum of the relaxation itself.

solve(lp, start=tab) continues on the Tableau tab: a fresh one gets a cold
solve and keeps its result. After an Optimal outcome the next model may
change the objective, sense and rhs values, drop rows whose slack is basic,
free bounds of basic columns, and fix nonbasic columns at zero: drop a
nonbasic variable, or make ``=`` an inequality whose slack is nonbasic (as
optimal_face does). A negative basic value B^-1 b starts the dual simplex
(leave by the lowest basic index, enter by the least ratio z_j/|a|, then
lowest index) that needs lp's objective dual feasible; phase 2 follows. Any
other model (new rows or variables among them), or any model after an
Infeasible or Unbounded outcome, raises LinearProgramError before the
tableau changes, instead of solving cold.

LinearProgram(...) validates and copies its input; no model changes after
that. lp.variant(...) derives a model with new pieces (sense, objective, rhs
values and relations by row id, rows dropped by id, variables dropped or freed
by name) and validates only those. It shares each unchanged row with lp, keeps
a row's coefficient map when only its rhs or relation changes, and re-filters
only rows that touch a dropped variable. Each map's integer scaling
(Row.scale) is computed once, so verify_certificate scales only the rhs, and
reoptimization accepts a kept row that holds the last model's map by identity.

Pivot selection is Bland's rule (lowest eligible index), so runs are
reproducible and cycling is impossible. Every sign, ratio and tie it
decides is decided exactly on the ints by cross-multiplication, so the
pivot path is the one an exact rational tableau takes. Free variables
participate directly: a free variable may enter in either direction and
never leaves the basis, which bounds its pivots and preserves termination.

Dual sign conventions, for a minimization problem:
    >= row: y >= 0,  <= row: y <= 0,  = row: y free,
and for every variable, c_j - y.A_j >= 0 (nonnegative) or == 0 (free).
For maximization the signs flip (``<=`` rows carry y >= 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm
from typing import Any, Collection, Hashable, Iterable, Mapping

from .errors import InvariantViolation
from .rationals import _SHARED, R0, Rational, rat

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
    #: coeffs' values over their lcm denominator, (nums, den), set on validation
    scale: tuple | None = field(default=None, compare=False, repr=False)


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
        known = {v.name for v in self.variables}
        if len(known) != len(self.variables):
            raise LinearProgramError("duplicate variable name")

        self.objective = {name: rat(c) for name, c in objective.items()}
        for name in self.objective:
            if name not in known:
                raise LinearProgramError(f"objective references unknown variable {name!r}")

        self.rows: list[Row] = []
        seen_ids = set()
        for spec in rows:
            row_id, given, relation, rhs = (
                (spec.id, spec.coeffs, spec.relation, spec.rhs) if isinstance(spec, Row) else spec)
            if relation not in _RELATIONS:
                raise LinearProgramError(f"unknown relation {relation!r} in row {row_id!r}")
            coeffs = {name: rat(c) for name, c in given.items()}
            for name in coeffs:
                if name not in known:
                    raise LinearProgramError(
                        f"row {row_id!r} references unknown variable {name!r}"
                    )
            row = Row(row_id, coeffs, relation, rat(rhs), _integers(coeffs.values()))
            if row_id in seen_ids:
                raise LinearProgramError(f"duplicate row id {row_id!r}")
            seen_ids.add(row_id)
            self.rows.append(row)

    def variant(self, sense=None, objective=None, rhs=None, relations=None,
                drop_rows=(), drop_variables=(), free=()) -> LinearProgram:
        """This model with the given pieces changed (see the module docstring)."""
        rhs, relations = rhs or {}, relations or {}
        drop, free, drop_rows = set(drop_variables), set(free), set(drop_rows)
        lp = object.__new__(LinearProgram)
        lp.sense = self.sense if sense is None else sense
        lp.variables = [Variable(v.name, False) if v.name in free else v
                        for v in self.variables if v.name not in drop]
        names = {v.name for v in lp.variables}
        lp.objective = ({k: rat(c) for k, c in objective.items()} if objective is not None
                        else {k: c for k, c in self.objective.items() if k in names})
        lp.rows = []
        for row in self.rows:
            if row.id not in drop_rows:
                coeffs, scale = row.coeffs, row.scale
                if drop and not drop.isdisjoint(coeffs):
                    coeffs = {k: c for k, c in coeffs.items() if k not in drop}
                    scale = _integers(coeffs.values())
                b, rel = rat(rhs.get(row.id, row.rhs)), relations.get(row.id, row.relation)
                same = coeffs is row.coeffs and rel == row.relation and b == row.rhs
                lp.rows.append(row if same else Row(row.id, coeffs, rel, b, scale))
        if (lp.sense not in (MIN, MAX) or len(names) + len(drop) != len(self.variables)
                or not free <= names or not lp.objective.keys() <= names
                or not rhs.keys() | relations.keys() | drop_rows <= {row.id for row in self.rows}
                or not set(relations.values()) <= set(_RELATIONS)):
            raise LinearProgramError("variant names an unknown sense, variable, row or relation")
        return lp


@dataclass(frozen=True)
class Optimal:
    """An optimum (x, y, objective). solve returns it checked, with what
    verify_certificate computed: slack maps each inequality row that is not
    tight at x to its slack (rhs - lhs for <=, lhs - rhs for >=), reduced
    maps each variable whose reduced cost c_j - y.A_j is nonzero to it; both
    None on an unchecked optimum."""
    status = "optimal"
    x: dict
    y: dict
    objective: Rational
    slack: dict | None = None
    reduced: dict | None = None


@dataclass(frozen=True)
class Infeasible:
    status = "infeasible"


@dataclass(frozen=True)
class Unbounded:
    status = "unbounded"


LPOutcome = Optimal | Infeasible | Unbounded


def solve(lp: LinearProgram, start: Tableau | None = None) -> LPOutcome:
    """Solve exactly, on a fresh Tableau or on ``start`` (see the module
    docstring); an Optimal outcome comes back as verify_certificate returns it."""
    outcome = (Tableau() if start is None else start).optimize(lp)
    if isinstance(outcome, Optimal):
        return verify_certificate(lp, outcome)
    return outcome


class Tableau:
    """One model's simplex state: standard form, basis, Bland pivot loop.

    Columns are the built model's variables (cols maps each name to its
    column), one slack per inequality row, then one artificial per ``=``
    row. Each row is a list of Python ints: one entry per column, then the
    rhs (negated on a flipped, ``>=``, row), then the row's positive
    denominator, which every other entry is over. z, the reduced costs of
    the last model (kept current through the last solve's pivots), has the
    same shape; its rhs entry is minus the objective value.

    A pivot on (r, j) divides row r by its entry p_j and sets each other
    row i with a_j != 0 to (a_k p_j - a_j p_k) / (d_i p_j), written with
    gcd(a_j, p_j) taken out; a row whose denominator is not 1 is then
    divided by the gcd of its entries. Every sign test and ratio comparison
    runs on these ints by cross-multiplication, so the pivot path is the one
    exact rationals take; rationals are formed only for the x, y and
    objective phase2 returns.

    banned holds the columns that never enter (artificials, dropped rows'
    slacks, columns fixed at zero); row_cols holds each model row's
    (identity column: its slack, or an = row's artificial; flip).
    """

    def __init__(self) -> None:
        self.lp: LinearProgram | None = None
        self.status: str | None = None

    def optimize(self, lp: LinearProgram) -> LPOutcome:
        """Solve lp cold on a fresh tableau, else as a variant of the last model."""
        if self.status is None:
            z = self.build(lp)
        elif self.status == "optimal":
            z = self.reoptimize(lp)
        else:
            raise LinearProgramError(f"cannot reoptimize after an {self.status} solve")
        outcome = Infeasible() if z is None else self.phase2(lp, z)
        self.lp, self.status, self.z = lp, outcome.status, z
        return outcome

    def build(self, lp: LinearProgram) -> list[int] | None:
        """Standard form of lp, then a feasible basis; lp's reduced costs,
        or None when lp is infeasible. The basis comes from a dual simplex
        from the all-slack basis on the start costs (see the module
        docstring), which are dual feasible there."""
        nvar = len(lp.variables)
        self.cols = {v.name: j for j, v in enumerate(lp.variables)}
        # Columns: the variables, one slack per inequality row, then one
        # artificial per = row. Each >= row is flipped (negated), so every
        # inequality row's slack is its +e_i identity column; the artificials
        # are banned.
        ncols = nvar + len(lp.rows)
        nslack = sum(row.relation != EQ for row in lp.rows)
        artificial = range(nvar + nslack, ncols)
        slacks, artificials = iter(range(nvar, nvar + nslack)), iter(artificial)
        identity_col = [next(artificials if row.relation == EQ else slacks) for row in lp.rows]
        flips = [row.relation == GE for row in lp.rows]

        self.rows = []
        for row, flip, b in zip(lp.rows, flips, identity_col):
            # The row over the lcm of its coefficient (Row.scale) and rhs
            # denominators.
            (nums, den), q = row.scale, row.rhs.denominator
            d = lcm(den, q)
            sign, f = -1 if flip else 1, d // den
            t = [0] * ncols + [sign * row.rhs.numerator * (d // q), d]
            for name, c in zip(row.coeffs, nums):
                t[self.cols[name]] = sign * f * c
            t[b] = d
            self.rows.append(t)
        self.nonneg = [v.nonnegative for v in lp.variables] + [True] * (ncols - nvar)
        self.basis, self.banned = list(identity_col), set(artificial)
        self.in_basis = [False] * ncols
        for j in identity_col:
            self.in_basis[j] = True
        self.row_cols = list(zip(identity_col, flips))

        cost = self.cost_vector(lp)
        shift = -min([R0] + [c for c, v in zip(cost, lp.variables) if v.nonnegative])
        # The slack basis costs 0, so the start costs are their own reduced
        # costs (the rhs entry is minus the objective value).
        start = [c + shift if v.nonnegative else R0 for c, v in zip(cost, lp.variables)]
        z, dz = _integers(start + [R0] * (ncols - nvar + 1))
        if not self.dual_run(z + [dz]):
            return None
        # Pivot each artificial still basic (at value zero) out, onto the
        # lowest nonbasic real column with a nonzero entry. A row with no
        # such column is redundant; its artificial stays basic at value zero
        # and never re-enters.
        for i, row in enumerate(self.rows):
            if self.basis[i] in artificial:
                j = next((j for j, t in enumerate(row[:-2])
                          if t and j not in artificial and not self.in_basis[j]), None)
                if j is not None:
                    self.pivot(i, j)
        return self.reduced_costs(cost)

    def reoptimize(self, lp: LinearProgram) -> list[int] | None:
        """Carry the last optimal basis over to lp, a variant of the last
        model (see the module docstring); lp's reduced costs, or None when
        lp is infeasible."""
        old, nonneg, in_basis, cols = self.lp, self.nonneg, self.in_basis, self.cols
        index = {row.id: i for i, row in enumerate(old.rows)}
        kept = [index.get(row.id, -1) for row in lp.rows]
        names = {v.name for v in lp.variables}
        if -1 in kept or kept != sorted(kept) or not names <= {v.name for v in old.variables}:
            raise LinearProgramError("start= takes a variant of the last model (see linprog)")
        dropped = [v.name for v in old.variables if v.name not in names]
        pairs = [(i, old.rows[i], row) for i, row in zip(kept, lp.rows)]
        tightened = [(i, row) for i, o, row in pairs if row.relation != o.relation]
        fixed = {cols[name] for name in dropped} | {self.row_cols[i][0] for i, _ in tightened}
        freed = {cols[v.name]: v.nonnegative for v in lp.variables
                 if v.nonnegative != nonneg[cols[v.name]]}
        gone = {self.row_cols[i][0]: old.rows[i].relation for i in set(index.values()) - set(kept)}
        if (  # each kept row: the last model's (the same map, or an equal one), on lp's variables
            any(row.coeffs is not o.coeffs and row.coeffs != {
                k: c for k, c in o.coeffs.items() if k in names} for _, o, row in pairs)
            or any(row.relation != EQ for _, row in tightened)
            or any(in_basis[j] for j in fixed)
            or any(nn or not in_basis[j] for j, nn in freed.items())
            or any(relation == EQ or not in_basis[j] for j, relation in gone.items())
        ):
            raise LinearProgramError("start= takes a variant of the last model (see linprog)")
        # B^-1 b moves by B^-1 (b - b_old); a dropped row's rhs never reaches
        # a kept row's value, because its slack is basic and in no other row.
        # The moves are ints over one denominator dd, so row t's new rhs is
        # values[r] over t's denominator times dd.
        changes = [(self.row_cols[i][0], o.rhs - row.rhs if self.row_cols[i][1] else row.rhs - o.rhs)
                   for i, o, row in pairs if row is not o and row.rhs != o.rhs]
        moves, dd = _integers([v for _, v in changes])
        delta = [(c, v) for (c, _), v in zip(changes, moves)]
        shifts = ([sum(t[c] * v for c, v in delta if t[c]) for t in self.rows] if delta
                  else [0] * len(self.rows))
        values = [t[-2] * dd + s for t, s in zip(self.rows, shifts)]
        live = [(r, j) for r, j in enumerate(self.basis) if j not in gone]
        if any(values[r] for r, j in live if j in self.banned):
            return None
        negative = any(values[r] < 0 and nonneg[j] and j not in freed for r, j in live)
        # Dropped rows' basic slacks cost 0, so the z the last solve kept
        # current is lp's when the objective is; its rhs entry (the
        # objective value) is never read.
        z = (self.z if lp.sense == old.sense and lp.objective == old.objective
             else self.reduced_costs(self.cost_vector(lp)))
        if negative and any((zj < 0 if nonneg[j] else zj) for j, zj in enumerate(z[:-2])
                            if not in_basis[j] and j not in self.banned and j not in fixed):
            raise LinearProgramError("start= needs a dual feasible basis for lp's objective")

        self.nonneg = [nn and j not in freed for j, nn in enumerate(nonneg)]
        for j in gone:
            in_basis[j] = False
        for t, s, v in zip(self.rows, shifts, values):
            if s:
                if dd != 1:
                    t[:] = [a * dd for a in t]
                t[-2] = v
                if t[-1] != 1:
                    _reduce(t)
        self.banned |= fixed | gone.keys()
        self.rows, self.basis = [self.rows[r] for r, _ in live], [j for _, j in live]
        self.row_cols = [self.row_cols[i] for i in kept]
        return z if not negative or self.dual_run(z) else None

    # The update below touches only the nonzero columns of the pivot row,
    # unless a row's denominator grows (then every entry is rescaled first):
    # a - f*0 == a, so the arithmetic (and with it the Bland pivot path) is
    # the same as a dense update, at a fraction of the cost.
    def pivot(self, r: int, j: int, zrow: list[int] | None = None) -> None:
        tableau = self.rows
        prow = tableau[r]
        nonzero = [(k, v) for k, v in enumerate(prow) if v]
        nonzero.pop()  # the denominator
        # The pivot row over its pivot entry, divided by its gcd: column j
        # holds e over e, where e > 0 is the row's new denominator.
        g = gcd(*[v for _, v in nonzero])  # a list: see graphs.Graph.edge_pairs
        if prow[j] < 0:
            g = -g
        if g != 1:
            nonzero = [(k, v // g) for k, v in nonzero]
            for k, v in nonzero:
                prow[k] = v
        e = prow[-1] = prow[j]
        for row in tableau if zrow is None else (*tableau, zrow):
            if row is prow:
                continue
            f = row[j]
            if f:
                # row - (f/e) prow, over row's denominator times e/gcd(f, e).
                if e != 1:
                    h = gcd(f, e)
                    f //= h
                    if h != e:
                        m = e // h
                        row[:] = [a * m for a in row]
                for k, b in nonzero:
                    row[k] -= f * b
                if row[-1] != 1:
                    _reduce(row)
        self.in_basis[self.basis[r]] = False
        self.in_basis[j] = True
        self.basis[r] = j

    def cost_vector(self, lp: LinearProgram) -> list[Rational]:
        """lp's objective over the tableau columns, negated for MAX."""
        cost = [R0] * len(self.nonneg)
        for name, c in lp.objective.items():
            cost[self.cols[name]] = c if lp.sense == MIN else -c
        return cost

    def reduced_costs(self, costvec: list[Rational]) -> list[int]:
        """c - c_B B^-1 A as a row of ints over one denominator (rhs entry:
        minus the objective value), for the rational cost vector costvec."""
        c, dc = _integers(costvec)
        basic = [(row, c[b]) for b, row in zip(self.basis, self.rows) if c[b]]
        d = lcm(*[row[-1] for row, _ in basic])
        z = [cj * d for cj in c] + [0, dc * d]
        for row, cb in basic:
            f = cb * (d // row[-1])
            for k, t in enumerate(row[:-1]):
                if t:
                    z[k] -= f * t
        _reduce(z)
        return z

    def run(self, zrow: list[int]) -> str:
        """Primal simplex (Bland's rule) on reduced costs zrow from a
        feasible basis; banned columns never enter."""
        tableau, basis, in_basis, nonneg = self.rows, self.basis, self.in_basis, self.nonneg
        banned = self.banned
        ncols, m = len(nonneg), len(tableau)
        while True:
            enter = -1
            direction = 1
            for j in range(ncols):
                if in_basis[j] or j in banned:
                    continue
                rc = zrow[j]
                if nonneg[j]:
                    if rc < 0:
                        enter, direction = j, 1
                        break
                elif rc:
                    enter = j
                    direction = 1 if rc < 0 else -1
                    break
            if enter < 0:
                return "optimal"
            # The least ratio value/entry; both share the row's denominator,
            # so it is rhs/t, compared by cross-multiplying (t > 0).
            leave = -1
            for i in range(m):
                if not nonneg[basis[i]]:
                    continue
                t = direction * tableau[i][enter]
                if t > 0:
                    b = tableau[i][-2]
                    if leave < 0 or b * best_t < best_b * t or (
                        b * best_t == best_b * t and basis[i] < basis[leave]
                    ):
                        best_b, best_t, leave = b, t, i
            if leave < 0:
                return "unbounded"
            self.pivot(leave, enter, zrow)

    def dual_run(self, z: list[int]) -> bool:
        """Dual simplex from dual feasible reduced costs z (rule in the module
        docstring; a free column's ratio is 0); False when lp is infeasible.
        A row leaves while its basic value is negative on a nonnegative
        column or nonzero on a banned one; the entering column's entry in
        that row has the value's sign (either sign on a free column)."""
        rows, basis, nonneg, banned = self.rows, self.basis, self.nonneg, self.banned
        while leaving := [(b, r) for r, b in enumerate(basis)
                          if (v := rows[r][-2]) and (v < 0 and nonneg[b] or b in banned)]:
            r = min(leaving)[1]
            up = rows[r][-2] > 0
            # z_j / |a_j| over the common positive factor (row den / z den),
            # least by cross-multiplying, then lowest j.
            enter = -1
            for j, a in enumerate(rows[r][:-2]):
                if a and ((a > 0) == up or not nonneg[j]) and j not in banned:
                    a = abs(a)
                    if enter < 0 or z[j] * best_a < best_z * a:
                        best_z, best_a, enter = z[j], a, j
            if enter < 0:
                return False
            self.pivot(r, enter, z)
        return True

    def phase2(self, lp: LinearProgram, z: list[int]) -> LPOutcome:
        """Phase 2 from the current feasible basis, on lp's reduced costs z."""
        minimize = lp.sense == MIN
        if self.run(z) == "unbounded":
            return Unbounded()

        xvals = [R0] * len(self.nonneg)
        for b, row in zip(self.basis, self.rows):
            if row[-2]:
                xvals[b] = _rational(row[-2], row[-1])
        x = {v.name: xvals[self.cols[v.name]] for v in lp.variables}

        dz = z[-1]
        y = {row.id: _rational(-z[col] if flip != minimize else z[col], dz)
             for (col, flip), row in zip(self.row_cols, lp.rows)}

        objective = sum((c * x[name] for name, c in lp.objective.items() if x[name]), R0)
        return Optimal(x=x, y=y, objective=objective)


def _reduce(row: list[int]) -> None:
    """Divide an int row (its denominator last) by the gcd of its entries."""
    g = gcd(*row)
    if g != 1:
        row[:] = [v // g for v in row]


def _rational(num: int, den: int) -> Rational:
    """num/den, as the shared instance when it is one (see rationals._SHARED)."""
    g = gcd(num, den)
    if g != 1:
        num, den = num // g, den // g
    q = _SHARED.get((num, den))
    return rat(num, den) if q is None else q


def verify_certificate(lp: LinearProgram, opt: Optimal) -> Optimal:
    """Exact optimality check: feasibility both sides, CS, strong duality.
    Returns opt with its slack and reduced maps (see Optimal) filled in.

    x, y and the objective are scaled once each to integers over their least
    common denominator, each row by the lcm of its coefficient and rhs
    denominators (from the row's stored coefficient scale, Row.scale, so
    only the rhs is scaled here), so every row sum and every relation, sign and
    complementary-slackness test runs on ints; rationals are formed only for
    error messages, the returned slacks and reduced costs, and the objective
    and strong-duality comparisons."""
    x, y = opt.x, opt.y
    minimize = lp.sense == MIN
    for var in lp.variables:
        if var.name not in x:
            raise SolverInvariantError(f"missing primal value for {var.name!r}")
        if var.nonnegative and x[var.name].numerator < 0:
            raise SolverInvariantError(f"negative value for {var.name!r}")
    for row in lp.rows:
        if row.id not in y:
            raise SolverInvariantError(f"missing dual value for row {row.id!r}")

    names = [v.name for v in lp.variables]
    xn, dx = _integers([x[name] for name in names])
    xs = dict(zip(names, xn))
    ys, dy = _integers([y[row.id] for row in lp.rows])
    ydotb: dict[int, int] = {}  # y.b as integers over dy * s, by row scale s
    terms = []  # (row, y_i * dy, coefficients * s, s) where y_i != 0
    slack = {}
    for row, yi in zip(lp.rows, ys):
        (nums, den), q = row.scale, row.rhs.denominator
        s = lcm(den, q)
        a, rhs = nums if s == den else [c * (s // den) for c in nums], row.rhs.numerator * (s // q)
        lhs, b = sum(c * xs[name] for name, c in zip(row.coeffs, a)), rhs * dx
        relation = row.relation
        if not (lhs == b if relation == EQ else lhs <= b if relation == LE else lhs >= b):
            raise SolverInvariantError(
                f"row {row.id!r} violated: {rat(lhs, s * dx)} {relation} {row.rhs}")
        if relation != EQ and (yi > 0 if (relation == LE) == minimize else yi < 0):
            raise SolverInvariantError(f"dual sign for row {row.id!r}")
        if lhs != b:
            if yi:
                raise SolverInvariantError(f"complementary slackness fails on row {row.id!r}")
            slack[row.id] = rat(b - lhs if relation == LE else lhs - b, s * dx)
        elif yi:
            terms.append((row, yi, a, s))
            ydotb[s] = ydotb.get(s, 0) + yi * rhs

    c, dc = _integers(list(lp.objective.values()))
    d, den = _dual_slacks(lp, terms, dy, c, dc)
    reduced = {}
    for var in lp.variables:
        dj = d[var.name]
        if dj:
            if not var.nonnegative:
                raise SolverInvariantError(f"dual constraint for free {var.name!r}")
            if (dj < 0) if minimize else (dj > 0):
                raise SolverInvariantError(f"dual constraint for {var.name!r}")
            if xs[var.name]:
                raise SolverInvariantError(f"complementary slackness fails on {var.name!r}")
            reduced[var.name] = rat(dj, den)

    cost = rat(sum(cj * xs[name] for name, cj in zip(lp.objective, c)), dc * dx)
    if cost != opt.objective:
        raise SolverInvariantError("objective value mismatch")
    dual = sum((rat(v, dy * s) for s, v in ydotb.items()), R0)
    if dual != cost:
        raise SolverInvariantError(f"strong duality fails: {dual} != {cost}")
    return Optimal(x, y, opt.objective, slack, reduced)


def _integers(values: Collection) -> tuple[list, int]:
    """values as integers over their least common denominator: (nums, den)."""
    dens = [v.denominator for v in values]
    den = lcm(*dens)
    if den == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (den // q) for v, q in zip(values, dens)], den


def _dual_slacks(lp: LinearProgram, terms: list, dy: int, c: list, dc: int) -> tuple[dict, int]:
    """c_j - y.A_j for every variable of lp, its reduced cost under y, as
    integers over one positive common denominator: (by name, den), so signs
    and zeros are exact. terms holds (row, y_i * dy, row coefficients * s, s)
    for each row with y_i != 0, and c the objective's values times dc, all
    integers."""
    den = lcm(dc, dy * lcm(*[s for *_, s in terms]))
    d = dict.fromkeys((v.name for v in lp.variables), 0)
    f = den // dc
    for name, cj in zip(lp.objective, c):
        d[name] = cj * f
    for row, yi, a, s in terms:
        f = yi * (den // (dy * s))
        for name, aij in zip(row.coeffs, a):
            d[name] -= f * aij
    return d, den


def optimal_face(lp: LinearProgram, opt: Optimal, objective: Mapping) -> LinearProgram:
    """lp's optimal face, at opt as solve returned it (checked), as a MIN
    model with the given objective (on the face's variables). By
    complementary slackness with opt.y, every optimum is zero on a variable
    in opt.reduced (a nonzero reduced cost), which the face drops, and tight
    on a row with a nonzero dual, which becomes ``=``."""
    keep = {v.name for v in lp.variables if v.name not in opt.reduced}
    return lp.variant(MIN, {name: c for name, c in objective.items() if name in keep},
                      relations={row.id: EQ for row in lp.rows if opt.y[row.id]},
                      drop_variables=opt.reduced)
