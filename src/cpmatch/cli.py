"""Command-line front end.

Subcommands:

    cpmatch solve <file> [--algorithm unperturbed|perturbed|naive]
                         [--trace OUT] [--validate] [--max-iter N]
    cpmatch gen --vertices N --edges M [--max-cost C] [--seed S] [--output F]

Exit codes: 0 success, 1 unreadable or malformed graph file, 2 no perfect
matching, 3 violated solver invariant, 4 oracle mismatch under --validate,
64 usage errors, 73 an output file (--trace, --output) cannot be written.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .cpm import (
    IterationRecord,
    MatchingResult,
    NaiveTrace,
    solve_naive,
    solve_perturbed_reference,
    solve_unperturbed,
)
from .errors import InvariantViolation, NoPerfectMatching
from .gen import random_matchable_graph, random_ordering
from .graphio import ParseError, emit_graph, parse_graph
from .graphs import Graph
from .oracle import brute_force_matchings
from .rationals import rat_str

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NO_MATCHING = 2
EXIT_INVARIANT = 3
EXIT_VALIDATE = 4
EXIT_USAGE = 64
EXIT_CANTCREAT = 73

ORACLE_LIMIT = 14


def _dual_key(key) -> str:
    if isinstance(key, int):
        return str(key)
    return "+".join(str(v) for v in sorted(key))


def _iteration_json(rec: IterationRecord) -> dict:
    return {
        "index": rec.index,
        "family": [sorted(s) for s in sorted(rec.family, key=sorted)],
        "x": {f"{u}-{v}": rat_str(val) for (u, v), val in sorted(rec.x.items())},
        "dualStages": [
            {_dual_key(k): rat_str(v) for k, v in sorted(stage.items(), key=lambda kv: _dual_key(kv[0]))}
            for stage in rec.dual_stages
        ],
        "lpSolves": rec.lp_solves,
    }


def _trace_json(result: MatchingResult | NaiveTrace) -> dict:
    naive = isinstance(result, NaiveTrace)
    top = {
        "algorithm": "naive" if naive else result.algorithm,
        "totalLpSolves": result.total_lp_solves,
        "result": result.stop_reason if naive else sorted(f"{u}-{v}" for u, v in result.matching),
        "cost": result.cost,
    }
    if naive:
        if result.detail is not None:
            top["detail"] = result.detail
        if result.repeat_of is not None:
            top["repeatOf"] = result.repeat_of
    top["iterations"] = [_iteration_json(r) for r in result.iterations]
    return top


def _validate(g: Graph, matching, cost, err) -> int:
    if g.n > ORACLE_LIMIT:
        print(f"validate skipped (n = {g.n} > {ORACLE_LIMIT})", file=err)
        return EXIT_OK
    if matching is None:
        print("validate skipped (no matching produced)", file=err)
        return EXIT_OK
    best, minimizers = brute_force_matchings(g)
    if best is None:
        print("validate mismatch: oracle found no perfect matching", file=err)
        return EXIT_VALIDATE
    if cost != best:
        print(f"validate mismatch: cost {cost}, oracle minimum {best}", file=err)
        return EXIT_VALIDATE
    if matching not in minimizers:
        print("validate mismatch: matching is not a minimum-cost matching", file=err)
        return EXIT_VALIDATE
    print("validate ok", file=err)
    return EXIT_OK


def _write(path: str, text: str, err) -> bool:
    """Write text to path; on failure report it on err and return False."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=err)
        return False
    return True


def _cmd_solve(args, out, err) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {args.file}: {exc}", file=err)
        return EXIT_PARSE
    try:
        g, sigma = parse_graph(text)
    except ParseError as exc:
        print(f"{args.file}: {exc}", file=err)
        return EXIT_PARSE

    try:
        if args.algorithm == "unperturbed":
            result = solve_unperturbed(g, sigma, iteration_cap=args.max_iter)
        elif args.algorithm == "perturbed":
            result = solve_perturbed_reference(g, sigma, iteration_cap=args.max_iter)
        else:
            cap = args.max_iter if args.max_iter is not None else 50
            result = solve_naive(g, sigma, max_iterations=cap)
    except NoPerfectMatching as exc:
        print(f"no perfect matching: {exc}", file=err)
        return EXIT_NO_MATCHING
    except InvariantViolation as exc:
        print(f"invariant violated: {type(exc).__name__}: {exc}", file=err)
        return EXIT_INVARIANT

    if isinstance(result, NaiveTrace):
        print(f"stop {result.stop_reason}", file=out)
        if result.detail:
            print(f"detail {result.detail}", file=out)
        if result.repeat_of is not None:
            print(f"repeat-of {result.repeat_of}", file=out)
    matching, cost = result.matching, result.cost
    if matching is not None:
        for u, v in sorted(matching):
            print(f"matching {u} {v}", file=out)
        print(f"cost {cost}", file=out)
    print(f"iterations {len(result.iterations)}", file=out)
    print(f"lp-solves {result.total_lp_solves}", file=out)

    if args.trace:
        text = json.dumps(_trace_json(result), indent=2) + "\n"
        if not _write(args.trace, text, err):
            return EXIT_CANTCREAT

    if args.validate:
        status = _validate(g, matching, cost, err)
        if status != EXIT_OK:
            return status
    if isinstance(result, NaiveTrace) and result.stop_reason == "NoPerfectMatching":
        return EXIT_NO_MATCHING
    return EXIT_OK


def _cmd_gen(args, out, err) -> int:
    rng = random.Random(args.seed)
    try:
        g = random_matchable_graph(args.vertices, args.edges, args.max_cost, rng)
    except ValueError as exc:
        print(f"cannot generate: {exc}", file=err)
        return EXIT_USAGE
    sigma = random_ordering(g, rng)
    text = emit_graph(g, sigma, comments=[
        f"random instance: vertices={args.vertices} edges={args.edges}"
        f" max-cost={args.max_cost} seed={args.seed}"
    ])
    if args.output:
        if not _write(args.output, text, err):
            return EXIT_CANTCREAT
    else:
        out.write(text)
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpmatch",
        description="Exact cutting-plane minimum-cost perfect matching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a graph file")
    solve.add_argument("file", help="graph file in the text format")
    solve.add_argument(
        "--algorithm",
        choices=("unperturbed", "perturbed", "naive"),
        default="unperturbed",
    )
    solve.add_argument("--trace", metavar="OUT", help="write a JSON trace here")
    solve.add_argument(
        "--validate",
        action="store_true",
        help=f"check the result against exhaustive search (n <= {ORACLE_LIMIT})",
    )
    solve.add_argument("--max-iter", type=_positive_int, default=None, metavar="N")

    gen = sub.add_parser("gen", help="generate a random matchable instance")
    gen.add_argument("--vertices", type=int, required=True)
    gen.add_argument("--edges", type=int, required=True)
    gen.add_argument("--max-cost", type=int, default=10)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", metavar="FILE", help="write here instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_USAGE
    if args.command == "solve":
        return _cmd_solve(args, sys.stdout, sys.stderr)
    return _cmd_gen(args, sys.stdout, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
