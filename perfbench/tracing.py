"""Per-layer spans for the traced run, recorded from outside the solver.

The solver modules bind what they import by name (`from .linprog import
solve`), so a wrapper only sees a call if it replaces the name in the module
that makes the call. Tracer.install patches these public names:

    cpm.solve, lexmin.solve, perturb.solve     -> "linprog.solve" spans
    linprog.verify_certificate                 -> "linprog.verify" (called by solve)
    cpm.lex_min_optimal                        -> "lexmin"
    cpm.build_primal, cpm.build_closest_dual   -> "matchlp.*"
    cpm.odd_cycles, cpm.validate_cut_family,
    matchlp.validate_cut_family                -> "graphs.*"

Private functions (the simplex itself, the stage-dual loop) are not wrapped;
simplex time is solve time minus verify time, and stage-dual time is the time
of the closest-dual solves. Each solve is attributed by the model it gets:
one made inside a lexmin span (its rows carry ("lex", ...) ids after stage 0)
is a lexmin solve, one whose variables are ("pi", k) is a closest-dual
solve, and any other is the primal probe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    #: Child span time, for self time.
    child_s: float = 0.0


@dataclass
class SolveRecord:
    layer: str  # "probe" | "lexmin" | "stage_duals"
    seconds: float
    rows: int
    cols: int
    bits: int


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    solves: list[SolveRecord] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple] = field(default_factory=list)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start
        return span

    def _in(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _solve(self, fn):
        def wrapper(lp, *args, **kwargs):
            layer = _layer(lp, self._in("lexmin"))
            idx = self._open("linprog.solve")
            try:
                out = fn(lp, *args, **kwargs)
            finally:
                span = self._close(idx)
            self.solves.append(
                SolveRecord(
                    layer, span.end - span.start, len(lp.rows), len(lp.variables), _bits(out)
                )
            )
            return out

        return wrapper

    def install(self) -> None:
        from cpmatch import cpm, lexmin, linprog, matchlp, perturb

        plan = [
            (cpm, "solve", self._solve),
            (lexmin, "solve", self._solve),
            (perturb, "solve", self._solve),
            (linprog, "verify_certificate", lambda f: self._span("linprog.verify", f)),
            (cpm, "lex_min_optimal", lambda f: self._span("lexmin", f)),
            (cpm, "build_primal", lambda f: self._span("matchlp.build_primal", f)),
            (cpm, "build_closest_dual", lambda f: self._span("matchlp.build_closest_dual", f)),
            (cpm, "odd_cycles", lambda f: self._span("graphs.odd_cycles", f)),
            (cpm, "validate_cut_family", lambda f: self._span("graphs.validate_cut_family", f)),
            (matchlp, "validate_cut_family", lambda f: self._span("graphs.validate_cut_family", f)),
        ]
        for module, name, wrap in plan:
            original = getattr(module, name)
            self._patched.append((module, name, original))
            setattr(module, name, wrap(original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.solves.clear()

    def span_count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def span_total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def span_self(self, name: str) -> float:
        return sum(s.end - s.start - s.child_s for s in self.spans if s.name == name)


def _layer(lp, in_lexmin: bool) -> str:
    if in_lexmin or any(isinstance(r.id, tuple) and r.id[:1] == ("lex",) for r in lp.rows):
        return "lexmin"
    if any(isinstance(v.name, tuple) and v.name[:1] == ("pi",) for v in lp.variables):
        return "stage_duals"
    return "probe"


def _bits(out) -> int:
    """Largest numerator or denominator bit length in an optimal certificate."""
    x = getattr(out, "x", None)
    if x is None:
        return 0
    values = list(x.values()) + list(out.y.values()) + [out.objective]
    return max(
        (max(int(v.numerator).bit_length(), int(v.denominator).bit_length()) for v in values),
        default=0,
    )
