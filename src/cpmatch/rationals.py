"""Exact rational arithmetic shared by every solver path.

Every number that flows through the LP machinery is an arbitrary-precision
fractions.Fraction; floats never appear. Fractions stay canonical: positive
denominator, numerator and denominator coprime.
"""

from __future__ import annotations

from fractions import Fraction

#: The rational type every solver value has (for isinstance checks in tests).
Rational = Fraction

R0 = Fraction(0)
R1 = Fraction(1)
HALF = Fraction(1, 2)

#: One canonical instance of each value an exact solve returns most often,
#: keyed by (numerator, denominator), so a lookup never hashes a rational.
_SHARED = {
    (q.numerator, q.denominator): q
    for q in (R0, R1, -R1, HALF, -HALF, Fraction(2), Fraction(-2))
}


def rat(numerator, denominator=None):
    """Build a canonical rational from ints, a rational, or a 'p/q' string;
    a value that already is one comes back as itself."""
    if denominator is None:
        return numerator if type(numerator) is Fraction else Fraction(numerator)
    return Fraction(numerator, denominator)


def rat_str(value) -> str:
    """Render exactly, as 'p/q' or plain 'p' when the denominator is 1."""
    return str(Fraction(value))
