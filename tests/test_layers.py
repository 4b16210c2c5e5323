"""The per-layer split of the traced benchmark run, checked on the solver.

perfbench/tracing.py patches names in cpmatch.cpm (solve, lex_min_optimal,
build_primal, build_closest_dual, odd_cycles, validate_cut_family) and
attributes each LP solve to the probe, lexmin or the stage duals. These
tests fail if the solver stops calling through those names or the layers
stop adding up to the solve counts criterion 7 pins. The shared part of the
closest-dual stages is checked to be built once per iteration.
"""

import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import instances  # noqa: E402
from tracing import Tracer  # noqa: E402

from cpmatch import matchlp  # noqa: E402
from cpmatch.cpm import (  # noqa: E402
    solve_naive,
    solve_perturbed_reference,
    solve_unperturbed,
)


def traced(solver):
    """Solve the first cuts-pool instance under a Tracer: (graph, result,
    tracer)."""
    inst = instances.build_pool("cuts", 1, [])[0]
    tracer = Tracer()
    tracer.install()
    try:
        res = solver(inst.graph, inst.sigma)
    finally:
        tracer.uninstall()
    return inst.graph, res, tracer


def layer_counts(tracer):
    return {
        layer: sum(1 for s in tracer.solves if s.layer == layer)
        for layer in ("probe", "lexmin", "stage_duals")
    }


def check_common(res, tracer):
    assert tracer.span_count("linprog.verify") == len(tracer.solves)
    assert tracer.span_count("linprog.solve") == len(tracer.solves)
    assert res.total_lp_solves == len(tracer.solves)
    assert tracer.span_count("matchlp.build_primal") == len(res.iterations)
    assert tracer.span_count("graphs.validate_cut_family") > 0


def test_unperturbed_layers():
    g, res, tracer = traced(solve_unperturbed)
    iters = len(res.iterations)
    assert iters >= 2
    assert layer_counts(tracer) == {
        "probe": iters,
        "lexmin": iters * (g.m + 1),
        "stage_duals": iters * (g.m + 1),
    }
    assert tracer.span_count("lexmin") == iters
    assert tracer.span_count("matchlp.build_closest_dual") == iters * (g.m + 1)
    assert tracer.span_count("graphs.odd_cycles") == iters
    check_common(res, tracer)


def test_perturbed_layers():
    g, res, tracer = traced(solve_perturbed_reference)
    iters = len(res.iterations)
    assert iters >= 2
    assert layer_counts(tracer) == {"probe": iters, "lexmin": 0, "stage_duals": iters}
    assert tracer.span_count("lexmin") == 0
    assert tracer.span_count("matchlp.build_closest_dual") == iters
    assert tracer.span_count("graphs.odd_cycles") == iters
    check_common(res, tracer)


def test_naive_layers():
    g, res, tracer = traced(solve_naive)
    iters = len(res.iterations)
    duals = sum(len(r.dual_stages) for r in res.iterations)
    assert layer_counts(tracer) == {
        "probe": 0,
        "lexmin": iters * (g.m + 1),
        "stage_duals": duals,
    }
    assert tracer.span_count("lexmin") == iters
    assert tracer.span_count("matchlp.build_closest_dual") == duals
    check_common(res, tracer)


def test_stage_context_built_once_per_iteration(monkeypatch):
    calls = []
    real = matchlp.tight_sets

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(matchlp, "tight_sets", counted)
    inst = instances.build_pool("cuts", 1, [])[0]
    res = solve_unperturbed(inst.graph, inst.sigma)
    assert len(res.iterations) >= 2
    assert len(calls) == len(res.iterations)
