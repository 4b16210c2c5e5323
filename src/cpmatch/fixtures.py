"""Bundled regression instances with documented iterate data.

Three hand-built unit-cost graphs exercise the interesting behaviors: a
16-vertex instance whose naive run loses half-integrality at its third
iterate, a 20-vertex variant whose naive run reaches denominator-5 values,
and a 10-vertex instance on which the naive run cycles with period two. Each
graph and its tie-break order are read from the package's data/<name>.g file,
the one copy the CLI also solves. Each fixture ships the documented
per-iteration expectations used by the tests; expectations are tagged by
iteration index (1-based, family recorded at solve time).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib.resources import files

from .graphio import parse_graph
from .graphs import Edge, EdgeOrdering, Graph, normalize_edge
from .rationals import HALF, R0, R1, rat

THIRD = rat(1, 3)
TWO_THIRDS = rat(2, 3)


def _shipped(name: str) -> tuple[Graph, EdgeOrdering]:
    """The graph and ordering of the package's data/<name>.g, read on each
    call (not at import, and not cached: each call returns fresh objects)."""
    return parse_graph((files("cpmatch") / "data" / f"{name}.g").read_text(encoding="utf-8"))


def _vector(g: Graph, **groups) -> dict[Edge, object]:
    values = {"units": R1, "halves": HALF, "thirds": THIRD, "two_thirds": TWO_THIRDS}
    x = {e: R0 for e in g.edge_pairs()}
    for name, edges in groups.items():
        for e in edges:
            x[normalize_edge(*e)] = values[name]
    return x


def _sets(*vertex_groups) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(s) for s in vertex_groups)


@dataclass(frozen=True)
class DancingRobotExpected:
    matching: frozenset[Edge]
    min_cost: int
    iterate1: dict
    family2: frozenset
    iterate2: dict
    family3: frozenset
    iterate3: dict


@dataclass(frozen=True)
class AlteredRobotExpected:
    """nine_set is the 9-vertex cut whose boundary pins the 1/5 values:
    it has 6 crossing edges in the graph, of which exactly 5 carry value in
    the denominator-5 iterate (the third one of the naive mode)."""

    matching: frozenset[Edge]
    min_cost: int
    iterate1: dict
    family2: frozenset
    iterate2: dict
    family3: frozenset
    nine_set: frozenset[int]
    nine_set_crossings: frozenset[Edge]
    nine_set_support_crossings: frozenset[Edge]


@dataclass(frozen=True)
class CyclingExpected:
    """The naive loop alternates between two supports; which one appears
    first depends on lexmin tie-breaking, so the pair is kept unordered.
    family_from_a / family_from_b are the cut families induced by the odd
    cycles of the matching iterate."""

    min_cost: int
    iterate_a: dict
    iterate_b: dict
    family_from_a: frozenset
    family_from_b: frozenset
    detected_at: int
    repeat_of: int


def dancing_robot() -> tuple[Graph, EdgeOrdering, DancingRobotExpected]:
    """16 vertices, 20 unit edges; naive mode reaches denominator 3 at
    iteration 3, the real solvers finish at cost 8."""
    g, sigma = _shipped("dancing_robot")
    iterate1 = _vector(
        g,
        units=[(4, 12), (8, 9), (0, 1), (2, 6), (3, 7)],
        halves=[(5, 13), (5, 15), (10, 14), (10, 11), (11, 14), (13, 15)],
    )
    family2 = _sets({5, 13, 15}, {10, 11, 14})
    iterate2 = _vector(
        g,
        units=[(2, 6), (3, 7), (10, 14)],
        halves=[
            (4, 12), (8, 9), (0, 12), (0, 1), (1, 5),
            (4, 13), (5, 15), (8, 11), (9, 11), (13, 15),
        ],
    )
    family3 = _sets({8, 9, 11}, {0, 1, 4, 5, 12, 13, 15})
    iterate3 = _vector(
        g,
        units=[(8, 9), (2, 6)],
        thirds=[
            (0, 3), (1, 5), (4, 11), (5, 13),
            (5, 15), (7, 12), (10, 11), (11, 14),
        ],
        two_thirds=[(4, 12), (0, 1), (3, 7), (10, 14), (13, 15)],
    )
    expected = DancingRobotExpected(
        matching=frozenset(
            normalize_edge(*e)
            for e in [(8, 9), (0, 12), (1, 5), (2, 6), (4, 11), (3, 7), (10, 14), (13, 15)]
        ),
        min_cost=8,
        iterate1=iterate1,
        family2=family2,
        iterate2=iterate2,
        family3=family3,
        iterate3=iterate3,
    )
    return g, sigma, expected


def altered_robot() -> tuple[Graph, EdgeOrdering, AlteredRobotExpected]:
    """20 vertices, 25 unit edges; a 4-cycle grafted where an edge used to
    be makes the naive mode produce denominator-5 values."""
    g, sigma = _shipped("altered_robot")
    iterate1 = _vector(
        g,
        units=[(4, 12), (8, 9), (0, 16), (2, 6), (3, 7), (1, 17), (18, 19)],
        halves=[(5, 13), (5, 15), (10, 14), (10, 11), (11, 14), (13, 15)],
    )
    family2 = _sets({5, 13, 15}, {10, 11, 14})
    iterate2 = _vector(
        g,
        units=[(2, 6), (3, 7), (10, 14), (18, 19)],
        halves=[
            (4, 12), (8, 9), (0, 12), (0, 16), (1, 5), (4, 13),
            (5, 15), (8, 11), (9, 11), (13, 15), (16, 17), (1, 17),
        ],
    )
    nine_set = frozenset({0, 1, 4, 5, 12, 13, 15, 16, 17})
    family3 = _sets({8, 9, 11}, nine_set)
    expected = AlteredRobotExpected(
        matching=frozenset(
            normalize_edge(*e)
            for e in [
                (8, 9), (0, 12), (1, 5), (2, 6), (3, 7),
                (4, 11), (10, 14), (13, 15), (16, 17), (18, 19),
            ]
        ),
        min_cost=10,
        iterate1=iterate1,
        family2=family2,
        iterate2=iterate2,
        family3=family3,
        nine_set=nine_set,
        nine_set_crossings=frozenset(
            normalize_edge(*e)
            for e in [(0, 3), (2, 13), (4, 11), (7, 12), (16, 18), (17, 19)]
        ),
        nine_set_support_crossings=frozenset(
            normalize_edge(*e)
            for e in [(0, 3), (4, 11), (7, 12), (16, 18), (17, 19)]
        ),
    )
    return g, sigma, expected


def cycling_graph() -> tuple[Graph, EdgeOrdering, CyclingExpected]:
    """10 vertices, 18 unit edges; the naive mode alternates between two
    fractional supports forever and is caught at its first exact repeat."""
    g, sigma = _shipped("cycling")
    iterate_a = _vector(
        g,
        units=[(4, 8), (2, 6)],
        halves=[(1, 5), (0, 9), (5, 7), (0, 3), (1, 7), (3, 9)],
    )
    iterate_b = _vector(
        g,
        units=[(0, 9), (1, 7)],
        halves=[(5, 6), (4, 8), (2, 5), (3, 4), (3, 8), (2, 6)],
    )
    expected = CyclingExpected(
        min_cost=5,
        iterate_a=iterate_a,
        iterate_b=iterate_b,
        family_from_a=_sets({1, 5, 7}, {0, 3, 9}),
        family_from_b=_sets({2, 5, 6}, {3, 4, 8}),
        detected_at=4,
        repeat_of=2,
    )
    return g, sigma, expected
