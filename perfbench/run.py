"""cpmatch benchmark: exact matching solves in a closed loop.

    python3 perfbench/run.py --workload cuts --seed 1 --seconds 35 --trace 0

Run from the root of a cpmatch checkout; the solver is imported from
./src. One process, one thread: each instance is solved after the previous
one returns, through the public API only. Outputs are checked after the
timed region. Timings are gated in "cal", units of a fixed calibration
kernel run next to each solve (see timed_run). The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import instances
from checks import Checker
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 9

#: Typical calibration kernel time on the machine the bounds were set on
#: (2 vCPUs, Python 3.11.7); setup_s is reported at this kernel speed.
CAL_REF_S = 0.015


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=instances.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _purge_cpmatch() -> None:
    for name in [m for m in sys.modules if m == "cpmatch" or m.startswith("cpmatch.")]:
        del sys.modules[name]


def _setup(workload: str, seed: int):
    """Import cpmatch afresh (after _purge_cpmatch), parse the fixture files,
    generate the pool."""
    cpmatch = importlib.import_module("cpmatch")
    fixtures = instances.parse_fixtures(Path(cpmatch.__file__).parent / "data")
    return instances.build_pool(workload, seed, fixtures)


def _solver(workload: str):
    import cpmatch

    if workload == "reference":
        return cpmatch.solve_perturbed_reference
    return cpmatch.solve_unperturbed


def _solve_one(solver, inst):
    """(result or None, seconds, error text or None)."""
    t0 = time.perf_counter()
    try:
        res = solver(inst.graph, inst.sigma)
    except Exception:  # a failed solve is counted, not fatal
        return None, time.perf_counter() - t0, traceback.format_exc()
    return res, time.perf_counter() - t0, None


def _check_all(checker, done) -> list[str]:
    """One entry per solve in done ((inst, res, s, err) tuples): its failure
    message, or "" when the output passed every check."""
    return [
        f"{inst.name}: raised\n{err}" if err else "; ".join(checker.check(inst, res))
        for inst, res, _, err in done
    ]


def calibration_kernel() -> None:
    """A fixed piece of exact-rational work that shares no code with cpmatch:
    Gauss-Jordan elimination of a 14x15 Fraction matrix, 12-18 ms on the
    2-vCPU machine the bounds were set on."""
    n = 14
    a = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 4) for j in range(n + 1)]
         for i in range(n)]
    for i in range(n):
        a[i][i] += 7
    for k in range(n):
        row = [v / a[k][k] for v in a[k]]
        a[k] = row
        for r in range(n):
            f = a[r][k]
            if r != k and f:
                a[r] = [x - f * y for x, y in zip(a[r], row)]


def timed_run(workload, pool, seconds):
    """Solve pool instances in order until the time is up.

    After each solve, outside its timing, the calibration kernel runs once.
    Each solve time is also expressed in "cal": divided by the median of the
    kernel times just before it, just after it and one solve later, which
    follows the machine's speed at the time of that solve."""
    solver = _solver(workload)
    gc.collect()
    done = []
    cal = []
    deadline = time.perf_counter() + seconds
    i = 0
    while not done or time.perf_counter() < deadline:
        inst = pool[i % len(pool)]
        i += 1
        done.append((inst, *_solve_one(solver, inst)))
        t0 = time.perf_counter()
        calibration_kernel()
        cal.append(time.perf_counter() - t0)

    verdicts = _check_all(Checker(workload), done)
    solve_s = [s for _, _, s, _ in done]
    in_cal = _in_cal(solve_s, cal)
    ok = [k for k, bad in enumerate(verdicts) if not bad]
    # With no correct solve (the run then reports correct: false) the
    # percentiles fall back to all solves, so the result stays valid JSON.
    picked = ok or range(len(done))
    cal_p50, cal_p90 = _p50_p90([in_cal[k] for k in picked])
    s_p50, s_p90 = _p50_p90([solve_s[k] for k in picked])
    metrics = {
        "solve_p50_cal": (cal_p50, "cal"),
        "solve_p90_cal": (cal_p90, "cal"),
        "instances_per_kcal": (1000 * len(ok) / sum(in_cal), "1/kcal"),
    }
    raw = {
        "solve_s_p50": (s_p50, "s"),
        "solve_s_p90": (s_p90, "s"),
        "instances_per_s": (len(ok) / sum(solve_s), "1/s"),
        "cal_s": (statistics.median(cal), "s"),
    }
    return done, verdicts, [], metrics, raw


def _timed_with_kernel(fn):
    """(fn(), fn's wall seconds, the calibration kernel's wall seconds right
    after it)."""
    t0 = time.perf_counter()
    out = fn()
    t1 = time.perf_counter()
    calibration_kernel()
    return out, t1 - t0, time.perf_counter() - t1


def _in_cal(seconds: list[float], cal: list[float]) -> list[float]:
    """Each time divided by the median of the kernel times just before it,
    just after it and one item later (cal[k] is the kernel run after item k)."""
    return [s / statistics.median(cal[max(0, k - 1) : k + 2]) for k, s in enumerate(seconds)]


def _p50_p90(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def traced_run(workload, pool, seconds):
    """Cycle the workload's trace set: one untraced pass, then traced passes
    until the time is up (at least one). Counts must repeat in every pass."""
    solver = _solver(workload)
    trace_set = pool[: instances.TRACE_SET[workload]]
    gc.collect()
    deadline = time.perf_counter() + seconds
    t0 = time.perf_counter()
    done = [(inst, *_solve_one(solver, inst)) for inst in trace_set]
    untraced_wall = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    passes = []
    solve_times = []
    try:
        while not passes or time.perf_counter() < deadline:
            tracer.reset()
            t0 = time.perf_counter()
            results = [(inst, *_solve_one(solver, inst)) for inst in trace_set]
            wall = time.perf_counter() - t0
            done += results
            solve_times += [r.seconds for r in tracer.solves]
            passes.append((wall, _pass_metrics(tracer, results)))
    finally:
        tracer.uninstall()

    verdicts = _check_all(Checker(workload), done)
    failures = []
    counts = [{k: v for k, (v, unit) in m.items() if unit != "s"} for _, m in passes]
    if any(c != counts[0] for c in counts):
        failures.append("layer counts differ between traced passes")
    first = passes[0][1]
    if first["linprog.verify.calls"][0] != first["linprog.solve.calls"][0]:
        failures.append("linprog.verify.calls != linprog.solve.calls")
    if first["cpm.lp_solves"][0] != first["linprog.solve.calls"][0]:
        failures.append("solver-reported LP solves != solves seen by the tracer")

    # Counts are equal in every pass (checked above); seconds take the median.
    metrics = {}
    for name, (value, unit) in first.items():
        if unit == "s":
            value = statistics.median(m[name][0] for _, m in passes)
        metrics[name] = (value, unit)
    metrics["linprog.solve.s_p50"] = (statistics.median(solve_times), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(w for w, _ in passes) - untraced_wall, "s"
    )
    return done, verdicts, failures, metrics, {}


def _pass_metrics(tracer: Tracer, results) -> dict:
    solves = tracer.solves
    by = {k: [s for s in solves if s.layer == k] for k in ("probe", "lexmin", "stage_duals")}
    solve_s = sum(s.seconds for s in solves)
    verify_s = tracer.span_total("linprog.verify")
    ok = [r for _, r, _, err in results if not err]
    return {
        "linprog.solve.calls": (len(solves), "count"),
        "linprog.solve.s": (solve_s, "s"),
        "linprog.simplex.s": (solve_s - verify_s, "s"),
        "linprog.verify.calls": (tracer.span_count("linprog.verify"), "count"),
        "linprog.verify.s": (verify_s, "s"),
        "linprog.value_bits_max": (max((s.bits for s in solves), default=0), "bits"),
        "linprog.rows_mean": (statistics.fmean([s.rows for s in solves] or [0]), "rows"),
        "linprog.cols_mean": (statistics.fmean([s.cols for s in solves] or [0]), "cols"),
        "cpm.probe.solves": (len(by["probe"]), "count"),
        "cpm.probe.s": (sum(s.seconds for s in by["probe"]), "s"),
        "lexmin.solves": (len(by["lexmin"]), "count"),
        "lexmin.s": (tracer.span_total("lexmin"), "s"),
        "lexmin.self_s": (tracer.span_self("lexmin"), "s"),
        "cpm.stage_duals.solves": (len(by["stage_duals"]), "count"),
        "cpm.stage_duals.s": (sum(s.seconds for s in by["stage_duals"]), "s"),
        "matchlp.build_primal.s": (tracer.span_total("matchlp.build_primal"), "s"),
        "matchlp.build_closest_dual.s": (tracer.span_total("matchlp.build_closest_dual"), "s"),
        "graphs.odd_cycles.s": (tracer.span_total("graphs.odd_cycles"), "s"),
        "graphs.validate_cut_family.s": (tracer.span_total("graphs.validate_cut_family"), "s"),
        "cpm.iterations": (sum(len(r.iterations) for r in ok), "count"),
        "cpm.family_size_max": (
            max((len(rec.family) for r in ok for rec in r.iterations), default=0), "count"
        ),
        "cpm.lp_solves": (sum(r.total_lp_solves for r in ok), "count"),
    }


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "cpmatch" / "__init__.py").is_file():
        print(f"perfbench: no cpmatch package under {SRC}; run from a cpmatch checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setups = []
    for _ in range(SETUP_REPEATS):
        _purge_cpmatch()
        setups.append(_timed_with_kernel(lambda: _setup(args.workload, args.seed)))
    pool = setups[-1][0]
    setup_s = [s for _, s, _ in setups]
    import cpmatch.rationals

    env = {
        "backend": type(cpmatch.rationals.R0).__name__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("env " + json.dumps(env, sort_keys=True))

    run = traced_run if args.trace else timed_run
    done, verdicts, run_failures, metrics, raw = run(args.workload, pool, args.seconds)
    if not args.trace:
        in_cal = _in_cal(setup_s, [k for _, _, k in setups])
        metrics["setup_s"] = (statistics.median(in_cal) * CAL_REF_S, "s")
        raw["setup_wall_s"] = (statistics.median(setup_s), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        )

    failures = [v for v in verdicts if v] + run_failures
    for msg in failures:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    attempted = len(done)
    failed = min(len(failures), attempted)
    print(f"samples {attempted} solves of {len({i.name for i, *_ in done})} instances")
    print(f"failed_frac {failed / attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    for name, (value, unit) in raw.items():
        print(f"raw {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
