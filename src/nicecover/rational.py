"""Exact rational arithmetic.

Values are plain `fractions.Fraction` instances: unbounded integers, the
denominator always positive and coprime to the numerator, so equality is
component-wise and the rendered text is canonical.  Nothing in the library
ever rounds.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, ZeroDenominator

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


_RATIONAL_RE = re.compile(r"(-?)(\d+)(?:/(\d+)|\.(\d+))?")


def parse_rational(text: str) -> Rational:
    """Parse `p`, `p/q`, or a finite decimal such as `0.15`, all exactly."""
    m = _RATIONAL_RE.fullmatch(text.strip())
    if m is None:
        raise ParseError(f"not a rational: {text!r}")
    sign_s, whole_s, den_s, frac_s = m.groups()
    sign = -1 if sign_s else 1
    if den_s is not None:
        if int(den_s) == 0:
            raise ZeroDenominator(text.strip())
        return Fraction(sign * int(whole_s), int(den_s))
    if frac_s is not None:
        scale = 10 ** len(frac_s)
        return Fraction(sign * (int(whole_s) * scale + int(frac_s)), scale)
    return Fraction(sign * int(whole_s))


def parse_natural(text: str) -> int:
    """Parse a decimal natural number (no sign)."""
    s = text.strip()
    if not s.isdecimal():
        raise ParseError(f"not a natural number: {text!r}")
    return int(s)


def render(q: Rational) -> str:
    """Canonical text `p/q`; a denominator of 1 is elided."""
    return str(q)


def pow2(exp: int) -> Rational:
    """2**exp as an exact rational; exp may be negative."""
    if exp >= 0:
        return Fraction(2**exp)
    return Fraction(1, 2**-exp)
