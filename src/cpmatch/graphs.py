"""Undirected graphs with integer costs, edge orderings, and the exact
structure checks the cutting-plane loop relies on (cuts, laminarity,
half-integral support decomposition)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import InvariantViolation
from .rationals import HALF, R0, R1

Edge = tuple[int, int]


class GraphError(ValueError):
    """Bad graph construction input (loops, duplicates, range errors)."""


class HalfIntegralityViolation(InvariantViolation):
    """An edge value outside {0, 1/2, 1} where half-integrality is promised."""

    def __init__(self, edge: Edge, value):
        super().__init__(f"edge {edge} carries non-half-integral value {value}")
        self.edge = edge
        self.value = value


class StructureViolation(InvariantViolation):
    """The half-valued support is not a disjoint union of odd cycles."""

    def __init__(self, message: str, vertices=()):
        super().__init__(message)
        self.vertices = frozenset(vertices)


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph; edges carry integer costs.

    Edge order is significant (it is the default file order and the default
    variable order of the matching relaxation).
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("vertex count must be nonnegative")
        seen = set()
        normalized = []
        for u, v, cost in self.edges:
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u}, {v}) outside vertex range")
            try:
                integral = int(cost) == cost
            except (TypeError, ValueError, OverflowError):  # None, NaN, inf, "1.5"
                integral = False
            if not integral:
                raise GraphError(f"edge ({u}, {v}) has non-integer cost {cost!r}")
            e = normalize_edge(u, v)
            if e in seen:
                raise GraphError(f"duplicate edge {e}")
            seen.add(e)
            normalized.append((e[0], e[1], int(cost)))
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_pairs(self) -> tuple[Edge, ...]:
        # From a list: tuple() of a generator resizes its result, which
        # leaves one more tuple on CPython's free list per call.
        return tuple([(u, v) for u, v, _ in self.edges])

    def cost_map(self) -> dict[Edge, int]:
        return {(u, v): c for u, v, c in self.edges}


@dataclass(frozen=True)
class EdgeOrdering:
    """A bijection from edges to ranks 1..m; rank 1 is minimized first."""

    rank: Mapping[Edge, int]

    def __post_init__(self):
        ranks = sorted(
            r for r in self.rank.values() if isinstance(r, int) and not isinstance(r, bool)
        )
        if ranks != list(range(1, len(self.rank) + 1)):
            raise GraphError("ranks must be ints forming a bijection onto 1..m")

    @classmethod
    def from_sequence(cls, edges: Iterable[Edge]) -> "EdgeOrdering":
        return cls({normalize_edge(*e): i for i, e in enumerate(edges, start=1)})

    def validate_for(self, g: Graph) -> None:
        if set(self.rank) != set(g.edge_pairs()):
            raise GraphError("ordering does not cover exactly the graph's edges")

    def order(self) -> list[Edge]:
        return sorted(self.rank, key=self.rank.__getitem__)


def cut_edges(g: Graph, s: Iterable[int]) -> frozenset[Edge]:
    """Edges with exactly one endpoint in s."""
    s = frozenset(s)
    for v in s:
        if not (0 <= v < g.n):
            raise GraphError(f"cut member {v} outside vertex range")
    return frozenset((u, v) for u, v, _ in g.edges if (u in s) != (v in s))


def is_laminar(family: Iterable[frozenset[int]]) -> bool:
    """True when every pair of sets is nested or disjoint."""
    sets = [frozenset(s) for s in family]
    for i, a in enumerate(sets):
        for b in sets[i + 1 :]:
            inter = a & b
            if inter and not (a <= b or b <= a):
                return False
    return True


def validate_cut_family(g: Graph, family: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    """Check odd cardinality, size bounds 3..n-3, vertex range, laminarity."""
    sets = []
    for s in family:
        sset = frozenset(s)
        for v in sset:
            if not (0 <= v < g.n):
                raise GraphError(f"cut set member {v} outside vertex range")
        if len(sset) % 2 == 0:
            raise GraphError(f"cut set {sorted(sset)} has even cardinality")
        if not (3 <= len(sset) <= g.n - 3):
            raise GraphError(f"cut set {sorted(sset)} violates size bounds")
        sets.append(sset)
    if not is_laminar(sets):
        raise GraphError("cut family is not laminar")
    return sets


def support(x: Mapping[Edge, object]) -> frozenset[Edge]:
    """Edges carrying a nonzero value."""
    return frozenset(e for e, v in x.items() if v)


def vector_is_integral(x: Mapping[Edge, object]) -> bool:
    return all(v == R0 or v == R1 for v in x.values())


def odd_cycles(g: Graph, x: Mapping[Edge, object]) -> list[tuple[int, ...]]:
    """Decompose the half-valued support into disjoint odd cycles.

    Raises HalfIntegralityViolation when any value leaves {0, 1/2, 1} and
    StructureViolation when the half edges do not form disjoint odd cycles.
    Cycles are returned in a canonical orientation (starting at their lowest
    vertex, toward its smaller neighbor), sorted by lowest vertex.
    """
    half_adj: dict[int, list[int]] = {}
    for e, value in x.items():
        if value == R0 or value == R1:
            continue
        if value != HALF:
            raise HalfIntegralityViolation(e, value)
        u, v = e
        half_adj.setdefault(u, []).append(v)
        half_adj.setdefault(v, []).append(u)

    for v, nbrs in half_adj.items():
        if len(nbrs) != 2:
            raise StructureViolation(
                f"vertex {v} meets {len(nbrs)} half edges", half_adj
            )

    cycles = []
    visited: set[int] = set()
    for start in sorted(half_adj):
        if start in visited:
            continue
        a, b = sorted(half_adj[start])
        cycle = [start]
        prev, cur = start, a
        while cur != start:
            cycle.append(cur)
            nxt = [w for w in half_adj[cur] if w != prev]
            prev, cur = cur, nxt[0]
        visited.update(cycle)
        if len(cycle) % 2 == 0:
            raise StructureViolation(
                f"half edges around vertex {start} form an even cycle", cycle
            )
        cycles.append(tuple(cycle))
    return cycles
