"""Exact rational arithmetic.

Values are plain `fractions.Fraction` instances: unbounded integers, the
denominator always positive and coprime to the numerator, so equality is
component-wise and the rendered text is canonical.  Nothing in the library
ever rounds.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import ParseError, ZeroDenominator

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


_RATIONAL_RE = re.compile(r"(-?)(\d+)(?:/(\d+)|\.(\d+))?")

# CPython (3.11, and 3.10.7 on) refuses to convert an int to or from more
# decimal digits than sys.get_int_max_str_digits(): 4300 by default, 640
# at the least.  Longer numbers are converted in pieces of at most
# _PIECE_DIGITS digits, or _PIECE_BITS bits, which no setting refuses.
_PIECE_DIGITS = 600
_PIECE_BITS = 1900  # 2^1900 < 10^600


def _int(digits: str) -> int:
    """int(digits) for a decimal string of any length."""
    if len(digits) <= _PIECE_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _int(digits[:-k]) * 10**k + _int(digits[-k:])


def _decimal(n: int) -> str:
    """str(n) for a natural number of any size."""
    if n.bit_length() <= _PIECE_BITS:
        return str(n)
    k = n.bit_length() * 3 // 20  # under half of n's digits, so high > 0
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def parse_rational(text: str) -> Rational:
    """Parse `p`, `p/q`, or a finite decimal such as `0.15`, all exactly."""
    m = _RATIONAL_RE.fullmatch(text.strip())
    if m is None:
        raise ParseError(f"not a rational: {text!r}")
    sign_s, whole_s, den_s, frac_s = m.groups()
    sign = -1 if sign_s else 1
    if den_s is not None:
        den = _int(den_s)
        if den == 0:
            raise ZeroDenominator(text.strip())
        return Fraction(sign * _int(whole_s), den)
    if frac_s is not None:
        scale = 10 ** len(frac_s)
        return Fraction(sign * (_int(whole_s) * scale + _int(frac_s)), scale)
    return Fraction(sign * _int(whole_s))


def parse_natural(text: str) -> int:
    """Parse a decimal natural number (no sign) that the interpreter can convert."""
    s = text.strip()
    if not s.isdecimal():
        raise ParseError(f"not a natural number: {text!r}")
    try:
        return int(s)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError(f"natural number of {len(s)} digits is over the interpreter's"
                         f" limit of {sys.get_int_max_str_digits()}") from None


def render(q: Rational) -> str:
    """Canonical text `p/q`; a denominator of 1 is elided."""
    try:
        return str(q)
    except ValueError:  # a part longer than the interpreter's digit limit
        text = ("-" if q < 0 else "") + _decimal(abs(q.numerator))
        return text if q.denominator == 1 else f"{text}/{_decimal(q.denominator)}"


def pow2(exp: int) -> Rational:
    """2**exp as an exact rational; exp may be negative."""
    if exp >= 0:
        return Fraction(2**exp)
    return Fraction(1, 2**-exp)
