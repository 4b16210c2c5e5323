"""Read and write graphs in a line-oriented text format.

The format is deliberately close to DIMACS and trivially diffable:

    c free-text comment
    p edge <n> <m>
    e <u> <v> <cost>
    o <u> <v> <rank>

Vertices are 0-based, costs are integers. The edge ordering defaults to the
order of the `e` lines; `o` lines override it and, when present, must assign
each edge exactly one rank with the ranks forming 1..m.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import Edge, EdgeOrdering, Graph, normalize_edge


class ParseError(ValueError):
    """A malformed graph file; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _ints(line_no: int, tokens: Sequence[str], what: str) -> list[int]:
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise ParseError(line_no, f"{what}: {tok!r} is not an integer") from None
    return out


def parse_graph(text: str) -> tuple[Graph, EdgeOrdering]:
    """Parse the text format above into a graph and an edge ordering."""
    n = None
    m = None
    header_line = 0
    edges: list[tuple[int, int, int]] = []
    seen: set[Edge] = set()
    ranks: dict[Edge, int] = {}
    used_ranks: set[int] = set()
    rank_lines: dict[Edge, int] = {}
    last_line = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        tag = tokens[0]
        if tag == "p":
            if n is not None:
                raise ParseError(line_no, "repeated 'p' header")
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError(line_no, "header must be 'p edge <n> <m>'")
            n, m = _ints(line_no, tokens[2:], "header")
            if n < 0 or m < 0:
                raise ParseError(line_no, "counts must be nonnegative")
            header_line = line_no
            continue
        if n is None:
            raise ParseError(line_no, f"'{tag}' line before the 'p edge' header")
        if tag == "e":
            if len(tokens) != 4:
                raise ParseError(line_no, "edge line must be 'e <u> <v> <cost>'")
            u, v, cost = _ints(line_no, tokens[1:], "edge line")
            if u == v:
                raise ParseError(line_no, f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(line_no, f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            e = normalize_edge(u, v)
            if e in seen:
                raise ParseError(line_no, f"duplicate edge {e}")
            seen.add(e)
            edges.append((e[0], e[1], cost))
        elif tag == "o":
            if len(tokens) != 4:
                raise ParseError(line_no, "ordering line must be 'o <u> <v> <rank>'")
            u, v, rank = _ints(line_no, tokens[1:], "ordering line")
            e = normalize_edge(u, v)
            if e in rank_lines:
                raise ParseError(line_no, f"edge {e} ranked twice")
            if rank in used_ranks:
                raise ParseError(line_no, f"rank {rank} assigned twice")
            used_ranks.add(rank)
            rank_lines[e] = line_no
            ranks[e] = rank
        else:
            raise ParseError(line_no, f"unknown line tag {tag!r}")

    if n is None:
        raise ParseError(max(last_line, 1), "missing 'p edge <n> <m>' header")
    if len(edges) != m:
        raise ParseError(header_line, f"header declares {m} edges, file has {len(edges)}")

    g = Graph(n, tuple(edges))
    pairs = g.edge_pairs()
    if ranks:
        for e, line_no in rank_lines.items():
            if e not in seen:
                raise ParseError(line_no, f"ordering names unknown edge {e}")
            if not (1 <= ranks[e] <= m):
                raise ParseError(line_no, f"rank {ranks[e]} outside 1..{m}")
        missing = [e for e in pairs if e not in ranks]
        if missing:
            raise ParseError(
                max(rank_lines.values()),
                f"ordering covers {len(ranks)} of {m} edges (first missing: {missing[0]})",
            )
        sigma = EdgeOrdering(ranks)
    else:
        sigma = EdgeOrdering.from_sequence(pairs)
    sigma.validate_for(g)
    return g, sigma


def emit_graph(g: Graph, sigma: EdgeOrdering | None = None, comments: Iterable[str] = ()) -> str:
    """Render a graph (and optionally its ordering) in the text format.

    `o` lines are emitted only when the ordering differs from the order of
    the `e` lines, so parse(emit(g, sigma)) round-trips exactly. Each line of
    a comment, as parse_graph splits lines, becomes one `c` line.
    """
    lines = [f"c {line}" for c in comments for line in c.splitlines()]
    lines.append(f"p edge {g.n} {g.m}")
    lines.extend(f"e {u} {v} {cost}" for u, v, cost in g.edges)
    if sigma is not None:
        sigma.validate_for(g)
        if sigma.order() != list(g.edge_pairs()):
            for (u, v) in sigma.order():
                lines.append(f"o {u} {v} {sigma.rank[(u, v)]}")
    return "\n".join(lines) + "\n"
