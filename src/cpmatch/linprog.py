"""Exact-rational linear programs and a deterministic primal and dual simplex.

Models are row-oriented minimization problems: named variables
(nonnegative or free), an objective whose minimum is sought (for a maximum,
negate it), and relational rows over the variables. solve() returns both a
primal optimum and a matching dual vector, exact, and checks the certificate
(feasibility, complementary slackness, strong duality) exactly, on integers,
on every solve before handing it back. The Optimal it returns also carries
what that check computed: the slack of each inequality row that is not
tight, and each nonzero reduced cost.

The simplex itself runs fraction-free: each tableau row of B^-1 A, and the
row of reduced costs, is a list of Python ints over one positive int
denominator (see Tableau), in the style of Bareiss (1968). B^-1 b has its
own column of values, each an int pair (numerator, denominator) in lowest
terms, so a wide right-hand side (a perturbed cost c + 2^-rank, a
half-integral target) widens only its value and never rescales a row's
coefficients. Models' rationals become ints when a model piece is
validated (each row's coefficients and the objective are scaled to ints
once, and each rhs is read as its numerator and denominator, Row.rhs_ints)
and when a tableau's rhs change. The optimum stays on ints
too: phase2 hands x and y to verify_certificate as ints over one
denominator each, and rationals are formed again only where a caller reads
them (Optimal.x, .y, .value(name), .slack, .reduced). Each x and y value is
looked up by (numerator, denominator) among the shared instances of
rationals._SHARED (0, +-1, +-1/2, +-2) before a new one is built.

A cold solve has one start: the all-slack basis, which flips each >= row
and gives each = row a banned artificial, and a dual simplex from it on
start costs that are dual feasible there. A nonnegative column's start cost
is its cost raised by the magnitude of the most negative such cost, or by 0
when none is negative; free columns start at 0.
The dual run ends at a feasible basis (or proves lp infeasible), artificials
left basic at zero are pivoted out, and phase 2 runs on lp's own costs from
there. On nonnegative costs the start costs are lp's. A matching
relaxation's degree rows force sum x = n/2, so the shift adds the same
constant to every feasible point's cost: the dual run on a relaxation with
negative edge costs ends at an optimum of the relaxation itself.

solve(lp, start=tab) continues on the Tableau tab: a fresh one gets a cold
solve and keeps its result. After an Optimal outcome tab takes two kinds of
model: tab.lp itself, whose optimum stands (phase 2 makes no pivot), and
lp = tab.lp.variant(...), read by the Diff it recorded (lp.diff.base() is
tab.lp: a Diff refers to its base weakly, so a chain of variants keeps no
earlier model alive, and the tableau holds the one base it reads). The
variant may change the objective and rhs values, drop rows whose
slack is basic, free bounds of basic columns, and fix nonbasic columns at
zero: drop a nonbasic variable, or make an inequality ``=`` when its
slack is nonbasic (as optimal_face does). A negative basic value
B^-1 b starts the dual simplex (leave by the lowest basic index, enter by
the least ratio z_j/|a|, then lowest index) that needs lp's objective dual
feasible; phase 2 follows. Any other model (one built afresh, a variant of
an older model), a variant that changes more, and any model after an
Infeasible or Unbounded outcome raise LinearProgramError before the
tableau changes, instead of solving cold.

A chained solve pays for what its Diff and its pivots changed. reoptimize
applies the rhs moves by column, visiting only the rows where a moved
row's identity column is nonzero. When neither the warm start nor phase 2
pivots, phase2 hands over tab.checked, the optimum the check last accepted
on tab, with only the basic values that moved, and with y less the dropped
rows when the objective is the last one. solve passes that prior and its
model, tab.lp, to verify_certificate, which reads only its arguments and
checks a variant against the prior: it finds which x and y entries moved
by comparing the claim with the prior, and re-tests every row and column
whose inputs (rhs, relation, bound, x on the row, y on the column, cost)
moved. That is complete because each test reads only its own row's or
column's inputs: the rest pass as they did for the prior. More than a few
moved entries go to the full check, which every cold solve gets too, and
so does the next solve after a check that raised (tab.checked is then
None). The checked optimum keeps no link to the prior.

LinearProgram(...) validates and copies its input; no model changes after
that (a model only memoizes its column index, see _chained_check). A Row
that a model validated (one that carries Row.scale) is taken as
it is, its names checked against the new model's variables, so models that
share rows validate each row once. lp.variant(...) derives a model with new
pieces (objective, rhs values and relations by row id, rows dropped
by id, variables dropped or freed by name) and validates only those (an rhs
or relation for a row it drops is an error). It shares each unchanged row
with lp, keeps a row's coefficient map when only its rhs or relation
changes, and re-filters only rows that touch a dropped variable; it shares
lp's variable list, objective and row index when they stay. Each row's coefficient scaling (Row.scale) and the objective's
(LinearProgram.costs) are computed once, when the piece is validated, and
shared with the variants that keep it; an rhs that moves keeps its row's
scale. The variant visits only the rows it is given, and records each rhs
move new - old as ints from the two values' numerators and denominators
(Diff.rhs, Row.rhs_ints), so no rational is compared or subtracted.

Pivot selection is Bland's rule (lowest eligible index), so runs are
reproducible and cycling is impossible. Every sign, ratio and tie it
decides is decided exactly on the ints by cross-multiplication, so the
pivot path is the one an exact rational tableau takes. Free variables
participate directly: a free variable may enter in either direction and
never leaves the basis, which bounds its pivots and preserves termination.

Dual sign conventions:
    >= row: y >= 0,  <= row: y <= 0,  = row: y free,
and for every variable, c_j - y.A_j >= 0 (nonnegative) or == 0 (free).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat
from math import gcd, lcm
from operator import is_, itemgetter, mul
from typing import Any, Collection, Hashable, Iterable, Mapping
from weakref import ref

from .errors import InvariantViolation
from .rationals import _SHARED, Rational, rat

LE = "<="
EQ = "="
GE = ">="

_RELATIONS = (LE, EQ, GE)


class LinearProgramError(ValueError):
    """Malformed model: unknown variable, duplicate name or row id, bad relation."""


class SolverInvariantError(InvariantViolation):
    """The solver produced a certificate that fails exact verification."""


@dataclass(frozen=True)
class Variable:
    name: Hashable
    nonnegative: bool = True


@dataclass(frozen=True)
class Row:
    """One model row, coeffs . x relation rhs. Only the coefficients are
    scaled to ints (scale); the rhs keeps its own denominator, which a
    Tableau holds in its value column and verify_certificate reads apart,
    both from rhs_ints, so neither reads the rational. Only validation sets
    scale and rhs_ints (Row(...) takes neither), so a row that carries them
    is one a model has validated, and another model takes it as it is."""
    id: Hashable
    coeffs: Mapping[Hashable, Any]
    relation: str
    rhs: Any
    #: coeffs' values over their lcm denominator, (nums, den), set on validation
    scale: tuple | None = field(default=None, init=False, compare=False, repr=False)
    #: rhs as (numerator, denominator), set on validation and with a moved rhs
    rhs_ints: tuple | None = field(default=None, init=False, compare=False, repr=False)


def _row(row_id: Hashable, coeffs: Mapping, relation: str, rhs: Any,
         scale: tuple, rhs_ints: tuple) -> Row:
    """A validated Row, built field by field instead of through the frozen
    dataclass __init__."""
    row = object.__new__(Row)
    vars(row).update(id=row_id, coeffs=coeffs, relation=relation, rhs=rhs,
                     scale=scale, rhs_ints=rhs_ints)
    return row


class LinearProgram:
    """An immutable exact-rational LP in row form: the minimum of the
    objective over the rows.

    Besides the model it keeps only _columns, the column index of its rows,
    once a variant's check has read it (see _chained_check), shared by the
    variants."""

    _columns: tuple | None = None

    def __init__(
        self,
        variables: Iterable[Variable | tuple[Hashable, bool] | Hashable],
        objective: Mapping[Hashable, Any],
        rows: Iterable[Row | tuple],
    ):
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
        self.costs = _integers(self.objective.values())  # (c, dc), in objective order
        for name in self.objective:
            if name not in known:
                raise LinearProgramError(f"objective references unknown variable {name!r}")

        self.rows: list[Row] = []
        self.index: dict = {}  # row id -> position
        self.diff: Diff | None = None
        for spec in rows:
            if isinstance(spec, Row) and spec.scale is not None:
                # Validated by another model: only its names are new here.
                row, row_id, coeffs = spec, spec.id, spec.coeffs
            else:
                row = None
                row_id, given, relation, rhs = (
                    (spec.id, spec.coeffs, spec.relation, spec.rhs) if isinstance(spec, Row)
                    else spec)
                if relation not in _RELATIONS:
                    raise LinearProgramError(f"unknown relation {relation!r} in row {row_id!r}")
                coeffs = {name: rat(c) for name, c in given.items()}
            if not known.issuperset(coeffs):
                name = next(name for name in coeffs if name not in known)
                raise LinearProgramError(f"row {row_id!r} references unknown variable {name!r}")
            if row is None:
                b = rat(rhs)
                row = _row(row_id, coeffs, relation, b, _integers(coeffs.values()),
                           (b.numerator, b.denominator))
            if row_id in self.index:
                raise LinearProgramError(f"duplicate row id {row_id!r}")
            self.index[row_id] = len(self.rows)
            self.rows.append(row)

    def variant(self, objective=None, rhs=None, relations=None,
                drop_rows=(), drop_variables=(), free=()) -> LinearProgram:
        """This model with the given pieces changed (see the module docstring);
        its .diff records them against this model."""
        rhs, relations = rhs or {}, relations or {}
        drop, free, drop_rows = set(drop_variables), set(free), set(drop_rows)
        changed = rhs.keys() | relations.keys()
        lp = object.__new__(LinearProgram)
        lp.variables, freed = self.variables, set()
        if drop or free:
            lp.variables = [Variable(v.name, False) if v.name in free else v
                            for v in self.variables if v.name not in drop]
        if free:
            freed = {v.name for v in self.variables if v.nonnegative and v.name in free}
        lp.objective = ({k: rat(c) for k, c in objective.items()} if objective is not None
                        else {k: c for k, c in self.objective.items() if k not in drop}
                        if drop & self.objective.keys() else self.objective)
        lp.costs = (self.costs if lp.objective is self.objective
                    else _integers(lp.objective.values()))
        names = {v.name for v in lp.variables} if drop or free or objective else None
        if (names is not None and (
                len(names) + len(drop) != len(self.variables) or not free <= names
                or not lp.objective.keys() <= names)
                or not changed | drop_rows <= self.index.keys()
                or not set(relations.values()) <= set(_RELATIONS)):
            raise LinearProgramError("variant names an unknown variable, row or relation")
        if not drop_rows.isdisjoint(changed):
            raise LinearProgramError("variant changes the rhs or relation of a row it drops")
        kept = ([i for i, row in enumerate(self.rows) if row.id not in drop_rows] if drop_rows
                else list(range(len(self.rows))))
        lp.rows = [self.rows[i] for i in kept] if drop_rows else list(self.rows)
        lp.index = {row.id: p for p, row in enumerate(lp.rows)} if drop_rows else self.index
        for p, row in enumerate(lp.rows if drop else ()):
            if not drop.isdisjoint(row.coeffs):
                coeffs = {k: c for k, c in row.coeffs.items() if k not in drop}
                lp.rows[p] = _row(row.id, coeffs, row.relation, row.rhs,
                                  _integers(coeffs.values()), row.rhs_ints)
        rhs_moves, relation_moves = [], []
        for p in sorted([lp.index[row_id] for row_id in changed]):
            row = lp.rows[p]
            b, rel = rat(rhs.get(row.id, row.rhs)), relations.get(row.id, row.relation)
            old = row.rhs_ints
            ints = old if b is row.rhs else (b.numerator, b.denominator)
            num, den = (0, 1) if ints is old else _plus(ints, -old[0], old[1])
            if num:
                rhs_moves.append((kept[p], num, den))
            if rel != row.relation:
                relation_moves.append((kept[p], rel))
            if num or rel != row.relation:
                lp.rows[p] = _row(row.id, row.coeffs, rel, b if num else row.rhs, row.scale,
                                  ints if num else old)
        lp.diff = Diff(ref(self), kept, rhs_moves, relation_moves, drop, freed,
                       sorted([self.index[i] for i in drop_rows]),
                       lp.objective is self.objective or lp.objective == self.objective)
        return lp


@dataclass
class Diff:
    """What LinearProgram.variant changed against base, a weak reference to
    the model it varies (see the module docstring): base's position of
    each of its rows (kept), (base position, num, den) for each row whose
    rhs moved by num/den in lowest terms (rhs), (base position, new
    relation) for each row whose relation moved (relations), the variables
    dropped, the names whose bound was freed, base's positions of the rows
    dropped (gone), and whether the objective is base's."""
    base: ref
    kept: list[int]
    rhs: list[tuple]
    relations: list[tuple]
    dropped: set
    freed: set
    gone: list[int]
    objective: bool
    _rhs_moves: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def rhs_moves(self) -> tuple[list, int]:
        """rhs's moves as ints over one denominator, in rhs's order."""
        if self._rhs_moves is None:
            dd = lcm(*[den for _, _, den in self.rhs])
            self._rhs_moves = [num * (dd // den) for _, num, den in self.rhs], dd
        return self._rhs_moves


class Optimal:
    """An optimum: x (variable name -> value), y (row id -> dual value) and
    the objective value. x is held as ints xs over one positive denominator
    dx, and y as ys over dy: phase2 hands over the tableau's ints
    (Optimal.of_ints), and Optimal(x, y, objective) scales rational maps
    once. .x and .y build the rational maps on first read, each value the
    shared instance of rationals._SHARED when it is one; value(name) reads
    one x value without building x.

    solve returns it checked, with what verify_certificate computed: slack
    maps each inequality row that is not tight at x to its slack (rhs - lhs
    for <=, lhs - rhs for >=), reduced maps each variable whose reduced cost
    c_j - y.A_j is nonzero to it; both None on an unchecked optimum. Both
    are held as (key, numerator, denominator) triples and built on first
    read too. Two optima are equal when their x, y, objective, slack and
    reduced are.
    """
    status = "optimal"

    def __init__(self, x: Mapping, y: Mapping, objective: Rational,
                 slack: Mapping | None = None, reduced: Mapping | None = None):
        xs, self.dx = _integers(x.values())
        ys, self.dy = _integers(y.values())
        self.xs, self.ys, self.objective = dict(zip(x, xs)), dict(zip(y, ys)), objective
        self.slacks, self.reduced_costs = [
            None if m is None else [(k, v.numerator, v.denominator) for k, v in m.items()]
            for m in (slack, reduced)]

    @classmethod
    def of_ints(cls, xs: dict, dx: int, ys: dict, dy: int, objective: Rational,
                slacks: list | None = None, reduced_costs: list | None = None) -> Optimal:
        """The optimum x = xs over dx, y = ys over dy, with slack and reduced
        as (key, numerator, denominator) triples."""
        opt = object.__new__(cls)
        opt.xs, opt.dx, opt.ys, opt.dy, opt.objective = xs, dx, ys, dy, objective
        opt.slacks, opt.reduced_costs = slacks, reduced_costs
        return opt

    def value(self, name: Hashable) -> Rational:
        """x's value at name (0 for a name x lacks), without building x."""
        return _rational(self.xs.get(name, 0), self.dx)

    @cached_property
    def x(self) -> dict:
        return {k: _rational(v, self.dx) for k, v in self.xs.items()}

    @cached_property
    def y(self) -> dict:
        return {k: _rational(v, self.dy) for k, v in self.ys.items()}

    @cached_property
    def slack(self) -> dict | None:
        return _from_triples(self.slacks)

    @cached_property
    def reduced(self) -> dict | None:
        return _from_triples(self.reduced_costs)

    def _parts(self) -> tuple:
        return self.x, self.y, self.objective, self.slack, self.reduced

    def __eq__(self, other) -> bool:
        return isinstance(other, Optimal) and self._parts() == other._parts()

    def __repr__(self) -> str:
        return f"Optimal{self._parts()!r}"


def _from_triples(triples: list | None) -> dict | None:
    return None if triples is None else {k: rat(num, den) for k, num, den in triples}


@dataclass(frozen=True)
class Infeasible:
    status = "infeasible"


@dataclass(frozen=True)
class Unbounded:
    status = "unbounded"


LPOutcome = Optimal | Infeasible | Unbounded


def solve(lp: LinearProgram, start: Tableau | None = None) -> LPOutcome:
    """Solve exactly, on a fresh Tableau or on ``start`` (see the module
    docstring); an Optimal outcome comes back as verify_certificate returns
    it, checked against the tableau's last model and checked optimum, and
    the tableau keeps it as its checked optimum."""
    tab = Tableau() if start is None else start
    base, prior = tab.lp, tab.checked
    outcome = tab.optimize(lp)
    if isinstance(outcome, Optimal):
        outcome = tab.checked = verify_certificate(lp, outcome, base, prior)
    return outcome


class Tableau:
    """One model's simplex state: standard form, basis, Bland pivot loop.

    Columns are the built model's variables (cols maps each name to its
    column), one slack per inequality row, then one artificial per ``=``
    row. Each row holds B^-1 A as a list of Python ints: one entry per
    column, then the row's positive denominator, which every other entry is
    over. values holds B^-1 b apart from the rows: each row's basic value as
    a (numerator, denominator) pair in lowest terms, denominator > 0 (a
    flipped, ``>=``, row starts at minus its rhs). z, the reduced costs of
    the last model (kept current through the last solve's pivots), is a row
    of the same shape.

    A pivot on (r, j) divides row r by its entry p_j and sets each other
    row i with a_j != 0 to (a_k p_j - a_j p_k) / (d_i p_j), written with
    gcd(a_j, p_j) taken out; a row whose denominator is not 1 is then
    divided by the gcd of its entries. Row r's value becomes the entering
    value, its old value over p_j / d_r, and each other row's value moves
    by a_j / d_i times it. A right-hand side's denominator thus stays in
    the value column and never scales a row. Every sign test and ratio
    comparison runs on these ints by cross-multiplication, so the pivot
    path is the one exact rationals take; phase2 returns the optimum on
    ints too (see Optimal), and only its objective value is a rational.

    banned holds the columns that never enter (artificials, dropped rows'
    slacks, columns fixed at zero); row_cols holds each model row's
    (identity column: its slack, or an = row's artificial; flip).

    checked is the last model's optimum as verify_certificate accepted it,
    which solve stores; None until then, and after any other outcome.
    """

    def __init__(self) -> None:
        self.lp: LinearProgram | None = None
        self.status: str | None = None
        self.checked: Optimal | None = None

    def optimize(self, lp: LinearProgram) -> LPOutcome:
        """Solve lp cold on a fresh tableau, else as a variant of the last model."""
        if self.status is None:
            z, carry = self.build(lp), None
        elif self.status == "optimal":
            z, carry = self.reoptimize(lp)
        else:
            raise LinearProgramError(f"cannot reoptimize after an {self.status} solve")
        outcome = Infeasible() if z is None else self.phase2(lp, z, carry)
        self.lp, self.status, self.z, self.checked = lp, outcome.status, z, None
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

        self.rows, self.values = [], []
        for row, flip, b in zip(lp.rows, flips, identity_col):
            # The coefficients over their lcm denominator (Row.scale); the
            # rhs's ints (Row.rhs_ints) are already in lowest terms.
            a, d = row.scale
            sign = -1 if flip else 1
            t = [0] * ncols + [d]
            for name, c in zip(row.coeffs, a):
                t[self.cols[name]] = sign * c
            t[b] = d
            self.rows.append(t)
            self.values.append((sign * row.rhs_ints[0], row.rhs_ints[1]))
        self.nonneg = [v.nonnegative for v in lp.variables] + [True] * (ncols - nvar)
        self.basis, self.banned = list(identity_col), set(artificial)
        self.in_basis = [False] * ncols
        for j in identity_col:
            self.in_basis[j] = True
        self.row_cols = list(zip(identity_col, flips))

        # The slack basis costs 0, so lp's costs are their own reduced costs
        # there; the start costs shift them (see the module docstring).
        z = self.reduced_costs(lp)
        shift = -min([0] + [zj for zj, nn in zip(z[:nvar], self.nonneg) if nn])
        z[:nvar] = [zj + shift if nn else 0 for zj, nn in zip(z[:nvar], self.nonneg)]
        if not self.dual_run(z):
            return None
        # Pivot each artificial still basic (at value zero) out, onto the
        # lowest nonbasic real column with a nonzero entry. A row with no
        # such column is redundant; its artificial stays basic at value zero
        # and never re-enters.
        for i, row in enumerate(self.rows):
            if self.basis[i] in artificial:
                j = next((j for j, t in enumerate(row[:-1])
                          if t and j not in artificial and not self.in_basis[j]), None)
                if j is not None:
                    self.pivot(i, j)
        return self.reduced_costs(lp)

    def reoptimize(self, lp: LinearProgram) -> tuple[list[int] | None, tuple | None]:
        """Carry the last optimal basis over to lp, the last model or a
        variant of it (see the module docstring), by the Diff lp.variant
        recorded: (lp's reduced costs, or None when lp is infeasible; the
        carry). Unless the dual simplex runs, the carry is what phase2
        hands over: the variables dropped, the ids of the rows dropped, and
        (column, value) for each basic value that moved; else None."""
        old, nonneg, in_basis, cols = self.lp, self.nonneg, self.in_basis, self.cols
        if lp is old:
            return self.z, ((), (), [])
        diff = lp.diff
        if diff is None or diff.base() is not old:
            raise LinearProgramError(
                "start= takes the tableau's last model or a .variant of it (see linprog)")
        fixed = {cols[name] for name in diff.dropped}
        if diff.relations:
            fixed |= {self.row_cols[i][0] for i, _ in diff.relations}
        freed = {cols[name] for name in diff.freed}
        gone = {self.row_cols[i][0]: old.rows[i].relation for i in diff.gone}
        if (
            diff.relations and any(relation != EQ for _, relation in diff.relations)
            or fixed and any(in_basis[j] for j in fixed)
            or freed and any(not in_basis[j] for j in freed)
            or gone and any(relation == EQ or not in_basis[j] for j, relation in gone.items())
        ):
            raise LinearProgramError("start= takes a variant of the last model (see linprog)")
        # B^-1 b moves by B^-1 (b - b_old), by column: each moved row's
        # identity column, over the rows where it is nonzero. A dropped
        # row's rhs never reaches a kept row's value, because its slack is
        # basic and in no other row. The moves are ints over one denominator
        # dd, so row r's value moves by its sum over r's denominator times dd.
        moves, dd = diff.rhs_moves
        rows, basis, values = self.rows, self.basis, list(self.values)
        sums: dict[int, int] = {}
        for (i, _, _), m in zip(diff.rhs, moves):
            c, flip = self.row_cols[i]
            if flip:
                m = -m
            for r in compress(range(len(rows)), map(itemgetter(c), rows)):
                sums[r] = sums.get(r, 0) + rows[r][c] * m
        moved = [r for r, s in sums.items() if s]
        for r in moved:
            values[r] = _plus(values[r], sums[r], rows[r][-1] * dd)
        # The last basis was primal feasible, so only a moved value can make
        # a banned basic column (an artificial) nonzero, which leaves lp
        # infeasible, or a nonnegative one negative.
        if any(values[r][0] for r in moved if basis[r] in self.banned):
            return None, None
        negative = any(values[r][0] < 0 and nonneg[j] and j not in freed and j not in gone
                       for r in moved for j in [basis[r]])
        # Dropped rows' basic slacks cost 0, so the z the last solve kept
        # current is lp's when the objective is; then z is dual feasible as
        # it was (fixed columns are banned, freed columns and dropped rows'
        # slacks basic), so only a new objective is scanned.
        z = self.z if diff.objective else self.reduced_costs(lp)
        if negative and not diff.objective and any(
                (zj < 0 if nonneg[j] else zj) for j, zj in enumerate(z[:-1])
                if not in_basis[j] and j not in self.banned and j not in fixed):
            raise LinearProgramError("start= needs a dual feasible basis for lp's objective")

        carry = None if negative else (diff.dropped, [old.rows[i].id for i in diff.gone],
                                       [(basis[r], values[r]) for r in moved])
        if freed:
            self.nonneg = [nn and j not in freed for j, nn in enumerate(nonneg)]
        for j in gone:
            in_basis[j] = False
        self.banned |= fixed | gone.keys()
        if gone:
            live = [r for r, j in enumerate(basis) if j not in gone]
            self.rows, self.basis = [rows[r] for r in live], [basis[r] for r in live]
            values = [values[r] for r in live]
            self.row_cols = [self.row_cols[i] for i in diff.kept]
        self.values = values
        return (z if not negative or self.dual_run(z) else None), carry

    # The update below touches only the nonzero columns of the pivot row,
    # unless a row's denominator grows (then every entry is rescaled first):
    # a - f*0 == a, so the arithmetic (and with it the Bland pivot path) is
    # the same as a dense update, at a fraction of the cost.
    def pivot(self, r: int, j: int, zrow: list[int] | None = None) -> None:
        tableau, values = self.rows, self.values
        prow = tableau[r]
        # The entering value: row r's value over its entry p / d_r.
        p, (num, den) = prow[j], values[r]
        if num:
            num, den = num * prow[-1], den * p
            g = gcd(num, den) if den > 0 else -gcd(num, den)
            values[r] = num, den = num // g, den // g
        nonzero = [(k, prow[k]) for k in compress(range(len(prow) - 1), prow)]
        # The pivot row over its pivot entry, divided by its gcd: column j
        # holds e over e, where e > 0 is the row's new denominator.
        g = gcd(*[v for _, v in nonzero])  # a list: see graphs.Graph.edge_pairs
        if p < 0:
            g = -g
        if g != 1:
            nonzero = [(k, v // g) for k, v in nonzero]
            for k, v in nonzero:
                prow[k] = v
        e = prow[-1] = prow[j]
        for i, row in enumerate(tableau if zrow is None else (*tableau, zrow)):
            if row is prow:
                continue
            f = row[j]
            if f:
                # The value minus (f / d_i) times the entering value, on
                # ints alone when every denominator is 1 (z has no value).
                if num and row is not zrow:
                    v, q = values[i]
                    values[i] = ((v - f * num, 1) if q == 1 == row[-1] == den
                                 else _plus(values[i], -f * num, row[-1] * den))
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

    def reduced_costs(self, lp: LinearProgram) -> list[int]:
        """c - c_B B^-1 A as a row of ints over one positive denominator,
        for lp's objective, read from its ints lp.costs."""
        c, dc = lp.costs
        cols = self.cols
        cost = [0] * len(self.nonneg)
        for name, cj in zip(lp.objective, c):
            cost[cols[name]] = cj
        basic = [(row, cost[b]) for b, row in zip(self.basis, self.rows) if cost[b]]
        d = lcm(*[row[-1] for row, _ in basic])
        z = ([cj * d for cj in cost] if d != 1 else cost) + [dc * d]
        for row, cb in basic:
            f = cb * (d // row[-1])
            for k in compress(range(len(row) - 1), row):
                z[k] -= f * row[k]
        _reduce(z)
        return z

    def run(self, zrow: list[int]) -> int | None:
        """Primal simplex (Bland's rule) on reduced costs zrow from a
        feasible basis; banned columns never enter. Returns the number of
        pivots made, or None when lp is unbounded."""
        tableau, basis, in_basis, nonneg = self.rows, self.basis, self.in_basis, self.nonneg
        banned, values = self.banned, self.values
        ncols, m = len(nonneg), len(tableau)
        pivots = 0
        while True:
            enter = -1
            direction = 1
            for j in compress(range(ncols), zrow):  # a zero reduced cost never enters
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
                return pivots
            # The least ratio value / entry, (b/q) / (t/d) = b d / (q t),
            # compared by cross-multiplying (t > 0).
            leave = -1
            for i in range(m):
                if not nonneg[basis[i]]:
                    continue
                row = tableau[i]
                t = direction * row[enter]
                if t > 0:
                    b, q = values[i]
                    b, t = b * row[-1], t * q
                    if leave < 0 or b * best_t < best_b * t or (
                        b * best_t == best_b * t and basis[i] < basis[leave]
                    ):
                        best_b, best_t, leave = b, t, i
            if leave < 0:
                return None
            self.pivot(leave, enter, zrow)
            pivots += 1

    def dual_run(self, z: list[int]) -> bool:
        """Dual simplex from dual feasible reduced costs z (rule in the module
        docstring; a free column's ratio is 0); False when lp is infeasible.
        A row leaves while its basic value is negative on a nonnegative
        column or nonzero on a banned one; the entering column's entry in
        that row has the value's sign (either sign on a free column)."""
        rows, basis, nonneg, banned, values = (
            self.rows, self.basis, self.nonneg, self.banned, self.values)
        while leaving := min(((b, r) for r, b in enumerate(basis)
                              if (v := values[r][0]) and (v < 0 and nonneg[b] or b in banned)),
                             default=None):
            r = leaving[1]
            up = values[r][0] > 0
            # z_j / |a_j| over the common positive factor (row den / z den),
            # least by cross-multiplying, then lowest j.
            enter, row = -1, rows[r]
            for j in compress(range(len(row) - 1), row):
                a = row[j]
                if ((a > 0) == up or not nonneg[j]) and j not in banned:
                    a = abs(a)
                    if enter < 0 or z[j] * best_a < best_z * a:
                        best_z, best_a, enter = z[j], a, j
            if enter < 0:
                return False
            self.pivot(r, enter, z)
        return True

    def phase2(self, lp: LinearProgram, z: list[int], carry: tuple | None) -> LPOutcome:
        """Phase 2 from the current feasible basis, on lp's reduced costs z;
        the optimum comes back on the tableau's ints (see Optimal).

        When neither phase 2 nor the warm start made a pivot, the checked
        optimum is handed over with what moved (reoptimize's carry): x less
        the variables dropped, with each moved basic value, and y, when z
        is the last solve's own, less the rows dropped. Every other optimum,
        and every one on a tableau with no checked optimum, is built from
        the basis."""
        pivots = self.run(z)
        if pivots is None:
            return Unbounded()
        last = None if pivots or carry is None else self.checked
        nvar, x = len(self.cols), None
        if last is not None:
            dropped, gone, moved = carry
            x, dx, y, dy = last.xs, last.dx, last.ys, last.dy
            if dropped or moved:
                x = dict(x)
                for name in dropped:
                    del x[name]
                for j, (num, den) in moved:
                    if j < nvar:
                        if dx % den:  # a new denominator: build x afresh
                            x = None
                            break
                        x[self.names[j]] = num * (dx // den)
        if x is None:
            # Each basic variable's value, already in lowest terms, over
            # their lcm. Only lp's variables have columns below len(cols)
            # that can be basic (a dropped variable's column is banned and
            # nonbasic).
            values = {b: v for b, v in zip(self.basis, self.values) if v[0] and b < nvar}
            dx = lcm(*[d for _, d in values.values()])
            cols = self.cols
            x = {v.name: 0 if (t := values.get(cols[v.name])) is None else t[0] * (dx // t[1])
                 for v in lp.variables}
        if last is None or z is not self.z:
            # y: each row's identity column of z, signed by its flip.
            y = {row.id: z[col] if flip else -z[col]
                 for (col, flip), row in zip(self.row_cols, lp.rows)}
            dy = z[-1]
        elif gone:
            y = dict(y)
            for row_id in gone:
                del y[row_id]
        c, dc = lp.costs
        objective = _rational(sum(map(mul, c, map(x.__getitem__, lp.objective))), dc * dx)
        return Optimal.of_ints(x, dx, y, dy, objective)

    @cached_property
    def names(self) -> list:
        """The built model's variable names, by column."""
        return list(self.cols)


def _plus(value: tuple, num: int, den: int) -> tuple:
    """value, a (numerator, denominator) pair in lowest terms, plus num/den
    (den > 0), in lowest terms."""
    n, q = value
    n, q = n * den + num * q, q * den
    g = gcd(n, q)
    return n // g, q // g


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


def verify_certificate(lp: LinearProgram, opt: Optimal, base: LinearProgram | None = None,
                       prior: Optimal | None = None) -> Optimal:
    """Exact optimality check: feasibility both sides, CS, strong duality.
    Returns opt with its slack and reduced maps (see Optimal) filled in.

    It reads its arguments alone: the model, opt's ints (x as xs over dx,
    y as ys over dy) and, when given, prior, an optimum this check accepted
    for the model base (solve passes the tableau's last model and its
    checked optimum). When base is lp, prior's ints pass again as they did
    (a re-solve of the model), with its slacks and reduced costs. When lp
    is a variant of base (lp.diff.base() is base), the check is chained
    (_chained_check): it compares opt's ints with the prior's to find the x
    and y entries that moved, reads lp's Diff and costs for the rhs,
    relations, bounds, costs, rows and variables that moved, and re-tests
    every row and column with a moved input. It is complete
    because each row or column test reads only that row's or column's
    inputs, so a row or column whose inputs did not move passes as it did
    for the prior, and keeps the prior's slack or reduced cost; c.x is
    summed afresh and y.b is the prior's moved by what moved, and the
    objective and strong-duality tests run on both. Any certificate
    neither accepts goes to the full check (_full_check), which every
    other optimum gets too, and which raises its error; so a chained
    solve gets the full check's verdict and message. The returned optimum
    holds no link to the prior."""
    if prior is not None and base is lp:
        if (opt.xs, opt.dx, opt.ys, opt.dy, opt.objective) == (
                prior.xs, prior.dx, prior.ys, prior.dy, prior.objective):
            return Optimal.of_ints(opt.xs, opt.dx, opt.ys, opt.dy, opt.objective,
                                   prior.slacks, prior.reduced_costs)
    elif prior is not None and base is not None and lp.diff and lp.diff.base() is base:
        checked = _chained_check(lp, opt, base, prior)
        if checked is not None:
            return checked
    return _full_check(lp, opt)


def _full_check(lp: LinearProgram, opt: Optimal) -> Optimal:
    """verify_certificate on every row and column of lp.

    Each row is read as its coefficients' stored integer scaling
    (Row.scale: ints over their lcm denominator s) and its rhs p/q in
    lowest terms, compared over s * dx * q; y.b is summed by rhs
    denominator q. The objective is read as lp.costs. Both scalings are
    computed once per model piece, so every row sum and every relation,
    sign, complementary-slackness, objective and strong-duality test runs
    on ints; rationals are formed only for error messages."""
    xs, dx, ys, dy = opt.xs, opt.dx, opt.ys, opt.dy
    for var in lp.variables:
        if var.name not in xs:
            raise SolverInvariantError(f"missing primal value for {var.name!r}")
        if var.nonnegative and xs[var.name] < 0:
            raise SolverInvariantError(f"negative value for {var.name!r}")
    for row in lp.rows:
        if row.id not in ys:
            raise SolverInvariantError(f"missing dual value for row {row.id!r}")

    ydotb: dict[int, int] = {}  # y.b as integers over dy * q, by rhs denominator q
    terms = []  # (row, y_i * dy, coefficients * s, s) where y_i != 0
    slacks = []
    value = xs.__getitem__
    for row in lp.rows:
        yi = ys[row.id]
        a, s = row.scale
        p, q = row.rhs_ints
        # Both sides over s * dx * q.
        lhs, b = sum(map(mul, a, map(value, row.coeffs))), p * s * dx
        if q != 1:
            lhs *= q
        relation = row.relation
        if not (lhs == b if relation == EQ else lhs <= b if relation == LE else lhs >= b):
            raise SolverInvariantError(
                f"row {row.id!r} violated: {rat(lhs, s * dx * q)} {relation} {row.rhs}")
        if relation != EQ and (yi > 0 if relation == LE else yi < 0):
            raise SolverInvariantError(f"dual sign for row {row.id!r}")
        if lhs != b:
            if yi:
                raise SolverInvariantError(f"complementary slackness fails on row {row.id!r}")
            slacks.append((row.id, b - lhs if relation == LE else lhs - b, s * dx * q))
        elif yi:
            terms.append((row, yi, a, s))
            ydotb[q] = ydotb.get(q, 0) + yi * p

    c, dc = lp.costs
    d, den = _dual_slacks(lp, terms, dy, c, dc)
    reduced_costs = []
    for var in lp.variables:
        dj = d[var.name]
        if dj:
            if not var.nonnegative:
                raise SolverInvariantError(f"dual constraint for free {var.name!r}")
            if dj < 0:
                raise SolverInvariantError(f"dual constraint for {var.name!r}")
            if xs[var.name]:
                raise SolverInvariantError(f"complementary slackness fails on {var.name!r}")
            reduced_costs.append((var.name, dj, den))

    # c.x over dc * dx against the claimed objective, and y.b over dy * Q
    # (Q the lcm of the rhs denominators q) against c.x, all by
    # cross-multiplying.
    cost, objective = sum(map(mul, c, map(value, lp.objective))), opt.objective
    if cost * objective.denominator != objective.numerator * dc * dx:
        raise SolverInvariantError("objective value mismatch")
    scale = lcm(*ydotb)
    dual = sum([v * (scale // q) for q, v in ydotb.items()])
    if dual * dc * dx != cost * dy * scale:
        raise SolverInvariantError(
            f"strong duality fails: {rat(dual, dy * scale)} != {rat(cost, dc * dx)}")
    return Optimal.of_ints(xs, dx, ys, dy, objective, slacks, reduced_costs)


#: _chained_check takes a certificate while at most one of this many of its
#: x and y entries moved.
_CHAINED_SHARE = 8


def _chained_check(lp: LinearProgram, opt: Optimal, base: LinearProgram,
                   prior: Optimal) -> Optimal | None:
    """verify_certificate for lp = base.variant(...) from prior, an optimum
    checked for base: opt with its slacks and reduced costs, or None to
    leave opt to the full check.

    It is complete because each test of the full check reads only one row's
    or one column's inputs, and it finds on its own which inputs moved.
    lp's Diff gives the rhs, relations, bounds, rows and variables that
    changed, and comparing lp's costs with base's gives the costs that
    moved. Comparing opt's ints with the prior's gives the x and y entries
    that moved, and opt must claim exactly lp's variables and rows. Every
    row whose rhs, relation or y moved, or whose x moved on its
    coefficients (a dropped variable that was nonzero counts), is tested
    again, and so is every column whose cost, bound or x moved, or whose
    rows' y moved (a dropped row that had a nonzero y counts). Any other row
    or column has the prior's inputs, so it passes as it did for the prior,
    with the prior's slack or reduced cost. Columns are read through
    _column_index, built from the first model of a chain that needs it and
    shared by its variants. c.x is summed again, and y.b is the prior's
    (its objective, by strong duality) moved by the rows whose y or rhs
    moved or that were dropped.

    Past one x and y entry in _CHAINED_SHARE moved, one pass over the model
    costs less than re-testing their rows and columns, so the certificate
    goes to the full check; so does a model too small to let three entries
    move, whose full check costs less than the chained check's fixed part.
    The rows the Diff moved or dropped count against the same budget, so a
    variant that moved too many goes to the full check before the prior is
    read."""
    diff = lp.diff
    budget = (len(lp.variables) + len(lp.rows)) // _CHAINED_SHARE
    if budget < 3 or len(diff.rhs) + len(diff.relations) + len(diff.gone) > budget:
        return None
    xs, dx, ys, dy = opt.xs, opt.dx, opt.ys, opt.dy
    pxs, pys, old_rows = prior.xs, prior.ys, base.rows
    dropped, gone = diff.dropped, [old_rows[i] for i in diff.gone]
    if (len(pxs) != len(base.variables) or len(pys) != len(old_rows)
            or len(xs) != len(lp.variables) or len(ys) != len(lp.rows)
            or dropped and not dropped.isdisjoint(xs)
            or gone and any(row.id in ys for row in gone)):
        return None
    try:  # a key outside the prior's is not lp's
        moved_y = _moved(ys, dy, pys, prior.dy)
        if len(moved_y) > budget:
            return None
        moved_x = _moved(xs, dx, pxs, prior.dx)
    except KeyError:
        return None
    if len(moved_x) + len(moved_y) > budget:
        return None
    if base._columns is None:
        base._columns = _column_index(base)
    lp._columns = scale, columns, free = base._columns
    if diff.freed:
        lp._columns = scale, columns, free = scale, columns, free | diff.freed
    index, rows = lp.index, lp.rows

    # The rows and columns to test again, each once, in the order first met.
    # A ``=`` row whose y alone moved passes again: its lhs and rhs did not
    # move, and its y is free. A row id the index holds but lp dropped is
    # passed over.
    moved_b = [old_rows[i].id for i, _, _ in diff.rhs]
    test = moved_b + [old_rows[i].id for i, _ in diff.relations]
    for name in moved_x:
        test += columns[name][0]
    for name in dropped:
        if pxs[name]:
            test += columns[name][0]
    test += [row_id for row_id in moved_y if rows[index[row_id]].relation != EQ]
    names = moved_x + list(diff.freed)
    for row_id in moved_y:
        names += rows[index[row_id]].coeffs
    for row in gone:
        if pys[row.id]:
            names += [name for name in row.coeffs if name not in dropped]
    c, dc = lp.costs
    costs = dict(zip(lp.objective, c))
    if not diff.objective:
        old_c, old_dc = base.costs
        old_costs = dict(zip(base.objective, old_c))
        names += [name for name, cj in costs.items() if cj * old_dc != old_costs.get(name, 0) * dc]
        names += [name for name, cj in old_costs.items()
                  if cj and name not in costs and name not in dropped]

    value = xs.__getitem__
    retest, slacks = dict.fromkeys(test), []
    for row_id in retest:
        p = index.get(row_id)
        if p is None:
            continue
        row = rows[p]
        yi, relation = ys[row_id], row.relation
        a, s = row.scale
        p, q = row.rhs_ints
        lhs, b = sum(map(mul, a, map(value, row.coeffs))), p * s * dx
        if q != 1:
            lhs *= q
        if lhs == b:
            if relation != EQ and (yi > 0 if relation == LE else yi < 0):
                return None
        elif relation == EQ or yi or (lhs < b) != (relation == LE):
            return None
        else:
            slacks.append((row_id, b - lhs if relation == LE else lhs - b, s * dx * q))
    # c_j - y.A_j over den, with A_j's entries over scale; a row the index
    # holds but lp dropped reads y = 0.
    den = lcm(dc, dy * scale)
    fc, fy, get, zeros = den // dc, den // (dy * scale), ys.get, repeat(0)
    recheck, reduced_costs = dict.fromkeys(names), []
    for name in recheck:
        xj, (ids, coeffs) = xs[name], columns[name]
        dj = costs.get(name, 0) * fc - fy * sum(map(mul, coeffs, map(get, ids, zeros)))
        if name in free:
            if dj:
                return None
        elif xj < 0:
            return None
        elif dj:
            if dj < 0 or xj:
                return None
            reduced_costs.append((name, dj, den))

    # c.x over dc * dx against the claimed objective. y.b against c.x:
    # y.b is the prior's objective P/Q plus y_i (b_i - b0_i) for each rhs
    # moved and (y_i - y0_i) b0_i for each y moved (a dropped row's y_i is
    # 0), summed over the lcm of their denominators.
    cost, objective = sum(map(mul, c, map(value, lp.objective))), opt.objective
    if cost * objective.denominator != objective.numerator * dc * dx:
        return None
    # The rhs moves are ints over dd, so their part is over dy * dd; the y
    # moves' part is over dy * pdy * (the lcm of their b0 denominators).
    moves, dd = diff.rhs_moves
    first = sum(map(mul, map(ys.__getitem__, moved_b), moves)) if moved_b else 0
    second: dict[int, int] = {}
    pdy = prior.dy
    for row_id, yi in [*[(row_id, ys[row_id]) for row_id in moved_y],
                       *[(row.id, 0) for row in gone]]:
        bp, bq = old_rows[base.index[row_id]].rhs_ints
        if num := (yi * pdy - pys[row_id] * dy) * bp:
            second[bq] = second.get(bq, 0) + num
    common = lcm(*second)
    d1, d2 = dy * dd, dy * pdy * common
    p, q = prior.objective.numerator, prior.objective.denominator
    total = p * d1 * d2 + (first * d2 + sum([v * (common // k) for k, v in second.items()]) * d1) * q
    if total * dc * dx != cost * q * d1 * d2:
        return None

    if retest or gone:
        stale = retest.keys() | {row.id for row in gone} if gone else retest
        slacks[:0] = [t for t in prior.slacks if t[0] not in stale]
    else:
        slacks = prior.slacks
    if recheck or dropped:
        reduced_costs[:0] = [t for t in prior.reduced_costs
                             if t[0] not in recheck and t[0] not in dropped]
    else:
        reduced_costs = prior.reduced_costs
    return Optimal.of_ints(xs, dx, ys, dy, objective, slacks, reduced_costs)


def _moved(new: dict, den: int, old: dict, old_den: int) -> list:
    """The keys of new (ints over den) whose value differs from old's (ints
    over old_den); a KeyError when old lacks one."""
    if new is old and den == old_den:
        return []
    if len(new) == len(old) and all(map(is_, new, old)):
        # The same key objects in the same order (a phase 2 optimum after
        # the last one): compared by position, no key is hashed.
        if den == old_den:
            return [k for k, v, w in zip(new, new.values(), old.values()) if v != w]
        return [k for k, v, w in zip(new, new.values(), old.values()) if v * old_den != w * den]
    if den == old_den:
        return [k for k, v in new.items() if v != old[k]]
    return [k for k, v in new.items() if v * old_den != old[k] * den]


def _column_index(lp: LinearProgram) -> tuple[int, dict, frozenset]:
    """lp's columns: (S, each variable -> (its rows' ids, its coefficients
    there times S), the names of the free variables), S the lcm of the
    rows' scale denominators (Row.scale)."""
    scale = lcm(*[row.scale[1] for row in lp.rows])
    columns: dict = {v.name: ([], []) for v in lp.variables}
    for row in lp.rows:
        a, s = row.scale
        f = scale // s
        for name, aj in zip(row.coeffs, a):
            ids, coeffs = columns[name]
            ids.append(row.id)
            coeffs.append(aj * f)
    return scale, columns, frozenset([v.name for v in lp.variables if not v.nonnegative])


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
    """lp's optimal face, at opt as solve returned it (checked), as a
    model with the given objective (on the face's variables). By
    complementary slackness with opt.y, every optimum is zero on a variable
    in opt.reduced (a nonzero reduced cost), which the face drops, and tight
    on a row with a nonzero dual, which becomes ``=``."""
    drop = {name for name, _, _ in opt.reduced_costs}
    keep = {v.name for v in lp.variables if v.name not in drop}
    return lp.variant({name: c for name, c in objective.items() if name in keep},
                      relations={row.id: EQ for row in lp.rows
                                 if row.relation != EQ and opt.ys[row.id]},
                      drop_variables=drop)
