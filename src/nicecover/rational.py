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
from math import gcd

from .errors import ParseError, ZeroDenominator

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


# sign, whole part, denominator, decimal digits; for patterns that embed a rational
RATIONAL_PATTERN = r"(-?)(\d+)(?:/(\d+)|\.(\d+))?"
_RATIONAL_RE = re.compile(RATIONAL_PATTERN)

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


def ratio_of(sign_s: str, whole_s: str, den_s: str | None, frac_s: str | None, to_int=int) -> tuple[int, int]:
    """(numerator, denominator) written by the four groups of a RATIONAL_PATTERN
    match, not in lowest terms; the denominator may be 0.  Parts past the
    interpreter's digit limit are converted again, with `to_int` = `_int`."""
    try:
        whole = -to_int(whole_s) if sign_s else to_int(whole_s)
        if den_s is not None:
            return whole, to_int(den_s)
        if frac_s is not None:
            frac = -to_int(frac_s) if sign_s else to_int(frac_s)
            return whole * 10 ** len(frac_s) + frac, 10 ** len(frac_s)
        return whole, 1
    except ValueError:  # a part past the interpreter's digit limit
        return ratio_of(sign_s, whole_s, den_s, frac_s, _int)


def parse_ratio(text: str) -> tuple[int, int]:
    """Parse `p`, `p/q`, or a finite decimal such as `0.15` into ints
    (numerator, positive denominator), exactly but not in lowest terms."""
    m = _RATIONAL_RE.fullmatch(text.strip())
    if m is None:
        raise ParseError(f"not a rational: {text!r}")
    numerator, denominator = ratio_of(*m.groups())
    if denominator == 0:
        raise ZeroDenominator(text.strip())
    return numerator, denominator


def parse_rational(text: str) -> Rational:
    """Parse `p`, `p/q`, or a finite decimal such as `0.15`, all exactly."""
    numerator, denominator = parse_ratio(text)
    return Fraction(numerator) if denominator == 1 else Fraction(numerator, denominator)


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


def render_ratio(numerator: int, denominator: int) -> str:
    """`render` of numerator / denominator, a positive denominator, without building a Fraction."""
    g = gcd(numerator, denominator)
    try:
        return f"{numerator // g}" if g == denominator else f"{numerator // g}/{denominator // g}"
    except ValueError:  # a part longer than the interpreter's digit limit
        return render(Fraction(numerator, denominator))


def pow2(exp: int) -> Rational:
    """2**exp as an exact rational; exp may be negative."""
    if exp >= 0:
        return Fraction(2**exp)
    return Fraction(1, 2**-exp)
