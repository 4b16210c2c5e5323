"""Output checks, run after the timed region.

Each check returns a list of failure messages; an empty list means the
solve is counted as correct. Oracle answers and cross-mode solves are
computed once per distinct instance and cached on the Checker.
"""

from __future__ import annotations


class Checker:
    def __init__(self, workload: str):
        """`reference` solves in perturbed mode, the others unperturbed.
        Outside `reference`, each distinct instance is solved again in
        perturbed mode, the cheap one, and the answers must agree (solving
        `reference` again unperturbed would cost ~15x its timed work). `cuts` and
        `integral` also check the shape their generators guarantee: >= 2
        iterations with a non-empty family, and exactly one iteration."""
        self.workload = workload
        self.mode = "perturbed" if workload == "reference" else "unperturbed"
        self._seen: dict[str, tuple] = {}

    def check(self, inst, res) -> list[str]:
        """A repeated solve of an instance must equal its first solve, and
        inherits that solve's verdict."""
        key = _summary(res)
        if inst.name in self._seen:
            first, verdict = self._seen[inst.name]
            if key != first:
                return [f"{inst.name}: repeated solve disagrees with the first"]
            return verdict
        verdict = self._first_check(inst, res)
        self._seen[inst.name] = key, verdict
        return verdict

    def _first_check(self, inst, res) -> list[str]:
        from cpmatch import (
            brute_force_matchings,
            lex_tie_break,
            solve_perturbed_reference,
        )

        g, sigma = inst.graph, inst.sigma
        bad = []
        best, matchings = brute_force_matchings(g)
        if res.cost != best:
            bad.append(f"cost {res.cost} != oracle {best}")
        elif res.matching != lex_tie_break(matchings, sigma):
            bad.append("matching is not the oracle's lex tie-break")
        iters = len(res.iterations)
        per_iter = 2 * g.m + 3 if self.mode == "unperturbed" else 2
        if res.total_lp_solves != iters * per_iter:
            bad.append(f"{res.total_lp_solves} LP solves != {iters}*{per_iter}")
        if sum(rec.lp_solves for rec in res.iterations) != res.total_lp_solves:
            bad.append("per-iteration LP solves do not add up to the total")
        if self.workload == "cuts" and (iters < 2 or not any(r.family for r in res.iterations)):
            bad.append(f"only {iters} iteration(s) or no cut family")
        if self.workload == "integral" and iters != 1:
            bad.append(f"{iters} iterations, the instance is bipartite")
        if self.mode == "unperturbed":
            other = solve_perturbed_reference(g, sigma)
            if (other.cost, other.matching) != (res.cost, res.matching):
                bad.append("unperturbed and perturbed answers differ")
        if inst.fixture:
            bad += _check_fixture(inst, res)
        return [f"{inst.name}: {msg}" for msg in bad]


def _summary(res) -> tuple:
    return (
        res.cost,
        res.matching,
        res.total_lp_solves,
        tuple((tuple(sorted(map(sorted, r.family))), tuple(sorted(r.x.items()))) for r in res.iterations),
    )


def _check_fixture(inst, res) -> list[str]:
    """Compare against the frozen data in cpmatch.fixtures. Both modes visit
    the same iterates, so the dancing_robot iterates apply to either."""
    from cpmatch import cycling_graph, dancing_robot

    g, sigma, exp = {"cycling": cycling_graph, "dancing_robot": dancing_robot}[inst.fixture]()
    bad = []
    if (g, sigma) != (inst.graph, inst.sigma):
        bad.append("parsed fixture file differs from cpmatch.fixtures")
    if res.cost != exp.min_cost:
        bad.append(f"cost {res.cost} != frozen {exp.min_cost}")
    if inst.fixture == "dancing_robot":
        its = res.iterations
        if res.matching != exp.matching:
            bad.append("matching differs from the frozen one")
        if len(its) != 3:
            bad.append(f"{len(its)} iterations, frozen run has 3")
        elif (its[0].x, set(its[1].family), its[1].x) != (exp.iterate1, set(exp.family2), exp.iterate2):
            bad.append("iterates differ from the frozen ones")
    return bad
