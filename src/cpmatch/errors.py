"""Exception hierarchy shared across the package.

InvariantViolation covers every "the mathematics was violated" condition; the
CLI maps the whole family to a single exit code. NoPerfectMatching is a normal
outcome for graphs without one, not a fault.
"""

from __future__ import annotations


class InvariantViolation(Exception):
    """An exact invariant that should hold by theory failed at runtime."""


class NoPerfectMatching(Exception):
    """The graph admits no perfect matching (relaxation became infeasible)."""


class IterationCapExceeded(InvariantViolation):
    """The cutting-plane loop ran past its iteration cap; indicates a bug."""


class StageSolveError(InvariantViolation):
    """A staged LP that theory promises solvable came back infeasible or
    unbounded."""


class SignViolation(InvariantViolation):
    """A stage series whose first nonzero value is negative."""

    def __init__(self, what, series):
        super().__init__(f"first nonzero stage value on {what!r} is negative: {series}")
        self.what = what
        self.series = tuple(series)


class FamilyViolation(InvariantViolation):
    """A cut family update produced sets violating oddness, size bounds, or
    laminarity."""
