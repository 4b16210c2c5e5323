"""Exact cutting-plane minimum-cost perfect matching.

The solver keeps every number rational, takes lexicographically minimal
optima in a fixed edge order, and replaces cost perturbation with staged
dual solves, so the history-dependent tie-breaking of the perturbed method
is reproduced without any perturbed arithmetic. A classical perturbed
variant and an intentionally under-determined naive mode ship alongside it
for cross-checking and for exhibiting the failure patterns the design rules
out.
"""

from .cpm import (
    IterationRecord,
    MatchingResult,
    NaiveTrace,
    default_iteration_cap,
    extract_matching,
    solve_naive,
    solve_perturbed_reference,
    solve_unperturbed,
)
from .errors import (
    FamilyViolation,
    InvariantViolation,
    IterationCapExceeded,
    NoPerfectMatching,
    SignViolation,
    StageSolveError,
)
from .fixtures import altered_robot, cycling_graph, dancing_robot
from .gen import random_matchable_graph, random_ordering
from .graphio import ParseError, emit_graph, parse_graph
from .graphs import (
    Edge,
    EdgeOrdering,
    Graph,
    GraphError,
    HalfIntegralityViolation,
    StructureViolation,
    cut_edges,
    odd_cycles,
)
from .oracle import brute_force_matchings, lex_tie_break
from .perturb import (
    DualSeries,
    PerturbedPair,
    PerturbedSolution,
    solve_perturbed_pair,
)
from .rationals import rat, rat_str

__version__ = "0.1.0"

__all__ = [
    "DualSeries",
    "Edge",
    "EdgeOrdering",
    "FamilyViolation",
    "Graph",
    "GraphError",
    "HalfIntegralityViolation",
    "InvariantViolation",
    "IterationCapExceeded",
    "IterationRecord",
    "MatchingResult",
    "NaiveTrace",
    "NoPerfectMatching",
    "ParseError",
    "PerturbedPair",
    "PerturbedSolution",
    "SignViolation",
    "StageSolveError",
    "StructureViolation",
    "altered_robot",
    "brute_force_matchings",
    "cut_edges",
    "cycling_graph",
    "dancing_robot",
    "default_iteration_cap",
    "emit_graph",
    "extract_matching",
    "lex_tie_break",
    "odd_cycles",
    "parse_graph",
    "random_matchable_graph",
    "random_ordering",
    "rat",
    "rat_str",
    "solve_naive",
    "solve_perturbed_pair",
    "solve_perturbed_reference",
    "solve_unperturbed",
]
