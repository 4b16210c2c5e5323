"""Exact rational arithmetic shared by every solver path.

Every number that flows through the LP machinery is an arbitrary-precision
rational; floats never appear. The backend is gmpy2.mpq when available (much
faster pivots) and fractions.Fraction otherwise. Both keep values canonical:
positive denominator, numerator and denominator coprime.
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as _backend
except ImportError:
    _backend = Fraction

#: The concrete rational type in use (for isinstance checks in tests).
Rational = type(_backend(0))

R0 = _backend(0)
R1 = _backend(1)
HALF = _backend(1, 2)

#: One canonical instance of each value an exact solve returns most often,
#: keyed by (numerator, denominator), so a lookup never hashes a rational.
_SHARED = {
    (q.numerator, q.denominator): q
    for q in (R0, R1, -R1, HALF, -HALF, _backend(2), _backend(-2))
}


def rat(numerator, denominator=None):
    """Build a canonical rational from ints, a rational, or a 'p/q' string;
    a value that already is one comes back as itself."""
    if denominator is None:
        return numerator if type(numerator) is Rational else _backend(numerator)
    return _backend(numerator, denominator)


def rat_str(value) -> str:
    """Render exactly, as 'p/q' or plain 'p' when the denominator is 1."""
    return str(_backend(value))


def shared(value):
    """The canonical instance of value when it is 0, +-1, +-1/2 or +-2, else
    value itself; results that hold many such values then hold one object
    each instead of one per entry."""
    return _SHARED.get((value.numerator, value.denominator), value)
