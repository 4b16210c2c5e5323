"""Brute-force perfect-matching oracle, independent of the LP machinery.

Used to certify solver answers on small instances: exhaustive enumeration
over the adjacency structure, plain integer arithmetic, nothing shared with
the cutting-plane path.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Edge, EdgeOrdering, Graph, normalize_edge


def brute_force_matchings(g: Graph, cap: int = 20) -> tuple[int | None, list[frozenset[Edge]]]:
    """All minimum-cost perfect matchings by exhaustive search.

    Returns (minimum cost, every matching attaining it); (None, []) when the
    graph has no perfect matching. Guarded by a vertex cap because the search
    is exponential.
    """
    if g.n > cap:
        raise ValueError(f"refusing exhaustive search on {g.n} > {cap} vertices")
    if g.n % 2:
        return None, []
    adjacency: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for u, v, _ in g.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    costs = g.cost_map()

    found: list[tuple[int, frozenset[Edge]]] = []
    chosen: list[Edge] = []

    def search(uncovered: frozenset[int]) -> None:
        if not uncovered:
            total = sum(costs[e] for e in chosen)
            found.append((total, frozenset(chosen)))
            return
        u = min(uncovered)
        for v in adjacency[u]:
            if v in uncovered:
                chosen.append(normalize_edge(u, v))
                search(uncovered - {u, v})
                chosen.pop()

    search(frozenset(range(g.n)))
    if not found:
        return None, []
    best = min(total for total, _ in found)
    return best, [m for total, m in found if total == best]


def lex_tie_break(matchings: Sequence[frozenset[Edge]], sigma: EdgeOrdering) -> frozenset[Edge]:
    """The matching whose incidence vector, read in rank order, is smallest.

    Equivalently: greedily avoid the lowest-ranked edges. This is the unique
    selection an infinitesimal 2**(-rank) cost bump would make among ties.
    """
    if not matchings:
        raise ValueError("no matchings to break ties among")
    order = sigma.order()
    return min(matchings, key=lambda m: tuple([int(e in m) for e in order]))
