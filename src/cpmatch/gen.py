"""Random instances with a perfect matching guaranteed by construction."""

from __future__ import annotations

import random

from .graphs import EdgeOrdering, Graph, normalize_edge


def random_matchable_graph(n: int, m: int, max_cost: int, rng: random.Random) -> Graph:
    """A random n-vertex, m-edge graph containing a hidden perfect matching.

    A random pairing of the vertices goes in first, then random extra edges;
    costs are uniform on 1..max_cost and the final edge order is shuffled.
    """
    if n <= 0 or n % 2:
        raise ValueError("vertex count must be positive and even")
    if not (n // 2 <= m <= n * (n - 1) // 2):
        raise ValueError(f"edge count {m} impossible for {n} vertices")
    if max_cost < 1:
        raise ValueError("max_cost must be at least 1")

    perm = list(range(n))
    rng.shuffle(perm)
    edges = {normalize_edge(perm[2 * i], perm[2 * i + 1]) for i in range(n // 2)}
    pool = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in edges
    ]
    rng.shuffle(pool)
    edges.update(pool[: m - len(edges)])
    ordered = sorted(edges)
    rng.shuffle(ordered)
    return Graph(n, tuple([(u, v, rng.randint(1, max_cost)) for u, v in ordered]))


def random_ordering(g: Graph, rng: random.Random) -> EdgeOrdering:
    """A uniformly random rank bijection over the graph's edges."""
    pairs = list(g.edge_pairs())
    rng.shuffle(pairs)
    return EdgeOrdering.from_sequence(pairs)
