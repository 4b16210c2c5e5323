"""Shared test helpers: random model generators, brute-force oracles and
references.

The oracles here stay independent of the package's own solver paths: plain
fractions.Fraction arithmetic and exhaustive enumeration, nothing reused from
cpmatch.linprog internals. row_diff, the row comparison each recorded
linprog.Diff is checked against, reads only the models' rows.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Mapping

from cpmatch.linprog import (
    EQ,
    GE,
    LE,
    MIN,
    Diff,
    LinearProgram,
    Optimal,
    SolverInvariantError,
    Tableau,
    solve,
)
from cpmatch.perturb import PerturbedPair
from cpmatch.rationals import R0


def tableau_state(tab: Tableau) -> tuple:
    """Everything a Tableau holds between solves, copied."""
    return (tab.lp, tab.status, [list(t) for t in tab.rows], list(tab.basis), set(tab.banned),
            list(tab.row_cols), list(tab.nonneg), list(tab.in_basis), list(tab.z), dict(tab.cols))


def model_parts(lp: LinearProgram) -> tuple:
    """Everything a model holds, in order, its rows' stored coefficient
    scales too: equal for a variant and the fresh model it stands for."""
    return (lp.sense, [(v.name, v.nonnegative) for v in lp.variables], list(lp.objective.items()),
            [(row.id, list(row.coeffs.items()), row.relation, row.rhs, row.scale)
             for row in lp.rows])


def row_diff(base: LinearProgram, lp: LinearProgram) -> Diff:
    """lp's Diff against base, read off their rows: the reference for the
    one LinearProgram.variant records. lp must keep base's rows in order,
    each with base's coefficients on lp's variables, add no variable and
    bound none that base leaves free."""
    kept = [base.index[row.id] for row in lp.rows]
    names = {v.name for v in lp.variables}
    bounds = {v.name: v.nonnegative for v in base.variables}
    assert kept == sorted(kept) and names <= bounds.keys()
    assert all(bounds[v.name] or not v.nonnegative for v in lp.variables)
    pairs = [(i, base.rows[i], row) for i, row in zip(kept, lp.rows)]
    assert all(row.coeffs == {k: c for k, c in o.coeffs.items() if k in names}
               for _, o, row in pairs)
    return Diff(base, kept,
                [(i, row.rhs - o.rhs) for i, o, row in pairs if row.rhs != o.rhs],
                [(i, row.relation) for i, o, row in pairs if row.relation != o.relation],
                bounds.keys() - names,
                {v.name for v in lp.variables if bounds[v.name] and not v.nonnegative},
                sorted(set(range(len(base.rows))) - set(kept)),
                lp.sense == base.sense and lp.objective == base.objective)


def _solve_square(system, n):
    """Solve an n x n rational linear system; None when singular."""
    m = [list(coeffs) + [rhs] for coeffs, rhs in system]
    for col in range(n):
        piv = next((k for k in range(col, n) if m[k][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        m[col] = [v / pv for v in m[col]]
        for k in range(n):
            if k != col and m[k][col]:
                f = m[k][col]
                m[k] = [a - f * b for a, b in zip(m[k], m[col])]
    return [m[i][n] for i in range(n)]


def enumerate_minimum(n, rows, objective):
    """Minimum of a bounded LP over x >= 0 by basic-solution enumeration.

    rows: list of (coeffs, relation, rhs) with relation in {"<=", "=", ">="}.
    Requires a bounded feasible region (the generators below add a box row),
    so every feasible instance attains its optimum at a vertex, and every
    vertex solves some n-subset of active constraints. Returns the exact
    minimum as a Fraction, or None when infeasible.
    """
    pool = [([Fraction(c) for c in coeffs], Fraction(rhs)) for coeffs, _, rhs in rows]
    for j in range(n):
        pool.append(([Fraction(int(i == j)) for i in range(n)], Fraction(0)))
    best = None
    for subset in combinations(range(len(pool)), n):
        point = _solve_square([pool[i] for i in subset], n)
        if point is None or any(v < 0 for v in point):
            continue
        feasible = True
        for coeffs, rel, rhs in rows:
            lhs = sum(Fraction(c) * v for c, v in zip(coeffs, point))
            if (rel == "<=" and lhs > rhs) or (rel == ">=" and lhs < rhs) or (
                rel == "=" and lhs != rhs
            ):
                feasible = False
                break
        if not feasible:
            continue
        value = sum(Fraction(c) * v for c, v in zip(objective, point))
        if best is None or value < best:
            best = value
    return best


def record_runs(monkeypatch) -> list[int]:
    """Record each Tableau.run call (phase 2), in order, as the number of
    pivots it made: a cold solve makes one call when it reaches a feasible
    basis, none when the model is infeasible."""
    calls = []
    pivots = [0]
    run, pivot = Tableau.run, Tableau.pivot

    def counting(self, *args):
        pivots[0] += 1
        return pivot(self, *args)

    def recording(self, zrow):
        before = pivots[0]
        out = run(self, zrow)
        calls.append(pivots[0] - before)
        return out

    monkeypatch.setattr(Tableau, "pivot", counting)
    monkeypatch.setattr(Tableau, "run", recording)
    return calls


def random_bounded_lp(rng: random.Random):
    """A small random minimization LP with a box row forcing boundedness.

    Returns (LinearProgram, oracle_rows, objective_list, n). All variables
    nonnegative, so enumerate_minimum is a sound oracle.
    """
    n = rng.randint(2, 4)
    m = rng.randint(1, 4)
    rows = []
    for i in range(m):
        coeffs = [rng.randint(-4, 4) for _ in range(n)]
        rel = rng.choice([LE, LE, GE, GE, EQ])
        rhs = rng.randint(-6, 6)
        rows.append((coeffs, rel, rhs))
    rows.append(([1] * n, LE, rng.randint(3, 10)))
    objective = [rng.randint(-5, 5) for _ in range(n)]

    names = [f"x{j}" for j in range(n)]
    lp = LinearProgram(
        MIN,
        [(name, True) for name in names],
        {name: c for name, c in zip(names, objective)},
        [
            (f"r{i}", {names[j]: c for j, c in enumerate(coeffs) if c}, rel, rhs)
            for i, (coeffs, rel, rhs) in enumerate(rows)
        ],
    )
    return lp, rows, objective, n


def random_perturbed_pair(
    rng: random.Random, max_rows: int = 4, max_cols: int = 5, max_free: int | None = None
) -> PerturbedPair:
    """A random staged-cost pair whose feasible region is a nonempty polytope.

    Feasibility comes from writing b as A applied to a known point minus
    nonnegative slack; boundedness from floor rows on the free columns plus
    one ceiling row on the column sum, so every stage attains its optimum.
    Total row count is max_rows + (number of free columns) + 1; pass max_free
    to bound it.
    """
    ncols = rng.randint(2, max_cols)
    nrows = rng.randint(1, max_rows)
    nonneg = {j for j in range(ncols) if rng.random() < 0.7}
    if max_free is not None:
        while ncols - len(nonneg) > max_free:
            nonneg.add(rng.choice([j for j in range(ncols) if j not in nonneg]))
    a = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
    x0 = [rng.randint(0, 2) if j in nonneg else rng.randint(-1, 2) for j in range(ncols)]
    b = [
        sum(a[i][j] * x0[j] for j in range(ncols)) - rng.randint(0, 2)
        for i in range(nrows)
    ]
    for j in range(ncols):
        if j not in nonneg:
            floor = [0] * ncols
            floor[j] = 1
            a.append(floor)
            b.append(-3)
    a.append([-1] * ncols)
    b.append(-10)
    stages = rng.randint(1, 3) + 1
    costs = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(stages)]
    return PerturbedPair.build(a=a, b=b, costs=costs, nonneg=nonneg)


def sequential_stage_minima(pair: PerturbedPair) -> list:
    """Stage optima computed the straightforward way, as an oracle.

    Minimize each stage cost over the intersection of the original rows with
    the equality slices c_q x = z_q of all earlier stages, keeping every
    column throughout. No row or column ever gets dropped, so agreement with
    the drop-based solver is meaningful.
    """
    variables = [(("x", j), j in pair.nonneg) for j in range(pair.ncols)]
    rows = [
        (
            ("row", i),
            {("x", j): pair.a[i][j] for j in range(pair.ncols) if pair.a[i][j]},
            GE,
            pair.b[i],
        )
        for i in range(pair.nrows)
    ]
    minima = []
    for p, cost in enumerate(pair.costs):
        objective = {("x", j): cost[j] for j in range(pair.ncols) if cost[j]}
        out = solve(LinearProgram(MIN, variables, objective, rows))
        assert isinstance(out, Optimal), f"stage {p} oracle came back {out.status}"
        minima.append(out.objective)
        rows = rows + [(("face", p), objective, EQ, out.objective)]
    return minima


def fraction_verify_certificate(lp: LinearProgram, opt: Optimal) -> None:
    """The reference certificate check: linprog.verify_certificate as it was
    on rationals, before it moved to scaled integers, kept verbatim (it reads
    y[row.id] directly, so a missing dual raises KeyError here)."""
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
        if row.relation != EQ and (yi > R0 if (row.relation == LE) == minimize else yi < R0):
            raise SolverInvariantError(f"dual sign for row {row.id!r}")
        if yi and lhs != row.rhs:
            raise SolverInvariantError(f"complementary slackness fails on row {row.id!r}")
        ydotb += yi * row.rhs

    slack_by_var = _dual_slacks(lp, y)
    for var in lp.variables:
        d = slack_by_var[var.name]
        if d and not var.nonnegative:
            raise SolverInvariantError(f"dual constraint for free {var.name!r}")
        if (d < R0) if minimize else (d > R0):
            raise SolverInvariantError(f"dual constraint for {var.name!r}")
        if x[var.name] and d:
            raise SolverInvariantError(f"complementary slackness fails on {var.name!r}")

    cost = sum((c * x[name] for name, c in lp.objective.items()), R0)
    if cost != opt.objective:
        raise SolverInvariantError("objective value mismatch")
    if ydotb != cost:
        raise SolverInvariantError(f"strong duality fails: {ydotb} != {cost}")


def _dual_slacks(lp: LinearProgram, y: Mapping) -> dict:
    """c_j - y.A_j for every variable of lp: its reduced cost under y."""
    d = {v.name: lp.objective.get(v.name, R0) for v in lp.variables}
    for row in lp.rows:
        yi = y[row.id]
        if yi:
            for name, c in row.coeffs.items():
                d[name] -= yi * c
    return d
