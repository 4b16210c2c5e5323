"""Seeded instance pools for the three benchmark workloads.

Every pool is a pure function of (workload, seed). The solver only ever sees
the generated graphs and edge orderings. From cpmatch this module uses only
the graph types, the file parser and the public generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("cuts", "integral", "reference")

#: Odd-cycle lengths used to tile n vertices (an even number of cycles).
CYCLE_SHAPES = {
    6: (3, 3),
    8: (5, 3),
    10: (5, 5),
    12: (3, 3, 3, 3),
    14: (5, 3, 3, 3),
    16: (5, 5, 3, 3),
}

# One size per workload: a median over a mix of sizes sits inside a single
# size class and moves with the few samples that class gets in a run.
CUTS_N = 8
INTEGRAL_N = 10

# Pool lengths exceed what one 35 s run solves on the Fraction backend (about
# 30, 75 and 230 solves), so a run sees distinct instances; a faster solver
# wraps around to the start of its pool.
CUTS_POOL = 48
INTEGRAL_POOL = 96
REFERENCE_GLUED_POOL = 320

#: Instances at the head of each pool that the traced run cycles over.
TRACE_SET = {"cuts": 3, "integral": 3, "reference": 5}

FIXTURE_FILES = ("cycling", "dancing_robot")


@dataclass(frozen=True)
class Instance:
    name: str
    graph: object
    sigma: object
    #: Name of the shipped fixture this instance was parsed from, if any.
    fixture: str | None = None


def glued_odd_cycles(n: int, rng: random.Random):
    """A graph whose unit-cost edges tile the vertices with odd cycles.

    The vertices are split into an even number of odd cycles of length 3 and
    5 (CYCLE_SHAPES). Cycle edges cost 1; consecutive cycles are joined by a
    bridge and n // 3 extra chords are added, each costing 2..4. The
    relaxation's first optimum is then forced to 1/2 on every cycle edge, so
    every instance needs at least two iterations and a non-empty cut family.
    The bridges pair the cycles up, so a perfect matching always exists.
    """
    from cpmatch.gen import random_ordering
    from cpmatch.graphs import Graph, normalize_edge

    lengths = list(CYCLE_SHAPES[n])
    rng.shuffle(lengths)
    perm = list(range(n))
    rng.shuffle(perm)
    cycles = []
    start = 0
    for length in lengths:
        cycles.append(perm[start : start + length])
        start += length
    costs = {}
    for cyc in cycles:
        for k, u in enumerate(cyc):
            costs[normalize_edge(u, cyc[(k + 1) % len(cyc)])] = 1
    for a, b in zip(cycles, cycles[1:]):
        costs[normalize_edge(rng.choice(a), rng.choice(b))] = rng.randint(2, 4)
    chords = n // 3
    while chords:
        e = normalize_edge(*rng.sample(range(n), 2))
        if e not in costs:
            costs[e] = rng.randint(2, 4)
            chords -= 1
    edges = sorted(costs.items())
    rng.shuffle(edges)
    g = Graph(n, tuple((u, v, c) for (u, v), c in edges))
    return g, random_ordering(g, rng)


def random_integral(n: int, rng: random.Random):
    """A cpmatch.gen instance (costs 1..10, 5n/4 edges) drawn until it is
    bipartite. The bipartite matching polytope is integral, so the
    lexicographic optimum is integral at iteration 1 and the cut family stays
    empty on every instance, not on most (about 1 in 12 unconditioned draws
    took a second iteration at 2-3x the time)."""
    from cpmatch.gen import random_matchable_graph, random_ordering

    while True:
        g = random_matchable_graph(n, 5 * n // 4, 10, rng)
        if _is_bipartite(g):
            return g, random_ordering(g, rng)


def _is_bipartite(g) -> bool:
    side = {}
    adj = {v: [] for v in range(g.n)}
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    for root in range(g.n):
        if root in side:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in side:
                    side[w] = 1 - side[u]
                    stack.append(w)
                elif side[w] == side[u]:
                    return False
    return True


def parse_fixtures(data_dir: Path) -> list[Instance]:
    """The shipped fixture graphs, parsed from their .g files."""
    from cpmatch.graphio import parse_graph

    out = []
    for name in FIXTURE_FILES:
        g, sigma = parse_graph((data_dir / f"{name}.g").read_text())
        out.append(Instance(name, g, sigma, fixture=name))
    return out


def _glued_pool(seed: int, count: int) -> list[Instance]:
    rng = random.Random(f"glued-{seed}")
    out = []
    for i in range(count):
        g, sigma = glued_odd_cycles(CUTS_N, rng)
        out.append(Instance(f"glued{i}", g, sigma))
    return out


def build_pool(workload: str, seed: int, fixtures: list[Instance]) -> list[Instance]:
    """The ordered instance sequence a run cycles through."""
    if workload == "cuts":
        return _glued_pool(seed, CUTS_POOL)
    if workload == "reference":
        return fixtures + _glued_pool(seed, REFERENCE_GLUED_POOL)
    if workload == "integral":
        rng = random.Random(f"integral-{seed}")
        out = []
        for i in range(INTEGRAL_POOL):
            g, sigma = random_integral(INTEGRAL_N, rng)
            out.append(Instance(f"gen{i}", g, sigma))
        return out
    raise ValueError(f"unknown workload {workload!r}")
