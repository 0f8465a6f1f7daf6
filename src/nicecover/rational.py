"""Exact rational arithmetic.

Values are plain `fractions.Fraction` instances: unbounded integers, the
denominator always positive and coprime to the numerator, so equality is
component-wise and the rendered text is canonical.  Nothing in the library
ever rounds.  `record` makes the small frozen value classes of every layer,
and `input_lines` reads the lines of every input file.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from io import StringIO
from math import gcd
from os import PathLike
from typing import Iterator

from .errors import BudgetExceeded, ParseError

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


# CPython (3.11, and 3.10.7 on) refuses to convert an int to or from more
# decimal digits than sys.get_int_max_str_digits(): 4300 by default, 640
# at the least.  Every number is read by `_int` and written by `render` in
# pieces of at most _PIECE_DIGITS digits, or _PIECE_BITS bits, which no
# setting refuses, so no answer depends on the setting.
_PIECE_DIGITS = 600
_PIECE_BITS = 1900  # 2^1900 < 10^600
_NATURAL_DIGITS = 4300  # read by `parse_natural`: CPython's default limit, not in sys.int_info before 3.10.7


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


def parse_ratio(text: str) -> tuple[int, int]:
    """Parse `p`, `p/q`, or a finite decimal such as `0.15` into ints
    (numerator, positive denominator), exactly but not in lowest terms.

    p is an optional `-` and decimal digits; q and the decimal places are
    digits, of any length.
    """
    s = text.strip()
    negative = s.startswith("-")
    body = s[1:] if negative else s
    whole, mark, part = body.partition("/")
    if not mark:
        whole, mark, part = body.partition(".")
    if not whole.isdecimal() or (mark and not part.isdecimal()):
        raise ParseError(f"not a rational: {text!r}")
    numerator, denominator = _int(whole), (_int(part) if mark else 1)
    if mark == ".":
        numerator, denominator = numerator * 10 ** len(part) + denominator, 10 ** len(part)
    elif denominator == 0:
        raise ParseError(s)
    return (-numerator if negative else numerator), denominator


def parse_rational(text: str) -> Rational:
    """Parse `p`, `p/q`, or a finite decimal such as `0.15`, all exactly."""
    numerator, denominator = parse_ratio(text)
    return Fraction(numerator) if denominator == 1 else Fraction(numerator, denominator)


def parse_natural(text: str) -> int:
    """Parse a decimal natural number (no sign) of at most _NATURAL_DIGITS digits."""
    s = text.strip()
    if not s.isdecimal():
        raise ParseError(f"not a natural number: {text!r}")
    if len(s) > _NATURAL_DIGITS:
        raise ParseError(f"natural number of {len(s)} digits is over the interpreter's limit of {_NATURAL_DIGITS}")
    return _int(s)


def render(q: Rational | int) -> str:
    """Canonical text `p/q`; a denominator of 1 is elided, so an int prints as str() would."""
    return _render(q.numerator, q.denominator)


def render_ratio(numerator: int, denominator: int) -> str:
    """`render` of numerator / denominator, a positive denominator, without building a Fraction."""
    g = gcd(numerator, denominator)
    return _render(numerator // g, denominator // g)


def _render(numerator: int, denominator: int) -> str:
    """`render` of numerator / denominator in lowest terms, a positive denominator."""
    if numerator.bit_length() <= _PIECE_BITS and denominator.bit_length() <= _PIECE_BITS:
        return f"{numerator}" if denominator == 1 else f"{numerator}/{denominator}"
    text = ("-" if numerator < 0 else "") + _decimal(abs(numerator))
    return text if denominator == 1 else f"{text}/{_decimal(denominator)}"


def pow2(exp: int) -> Rational:
    """2**exp as an exact rational; exp may be negative."""
    if exp >= 0:
        return Fraction(2**exp)
    return Fraction(1, 2**-exp)


def record(cls):
    """Make `cls` a frozen value class of its annotated fields, as `dataclass(frozen=True)` would, without
    importing `dataclasses` and with it `inspect`.  `__init__` takes the fields in order, by position or
    keyword, then calls `__post_init__` if the class has one.  A record equals only a record of its class
    with equal fields, and hashes and prints as `Name(field=value, ...)`."""
    names = tuple(cls.__annotations__)  # strings, under `from __future__ import annotations`
    scope = {"_set": object.__setattr__}
    exec(f"def __init__(self, {', '.join(names)}):\n"
         + "".join(f" _set(self, {name!r}, {name})\n" for name in names)
         + (" self.__post_init__()\n" if hasattr(cls, "__post_init__") else " pass\n")
         + f"def values(self): return ({''.join(f'self.{name}, ' for name in names)})\n", scope)
    values = scope["values"]

    def frozen(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot change {name!r}")

    cls.__init__, cls.__setattr__, cls.__delattr__ = scope["__init__"], frozen, frozen
    cls.__eq__ = lambda self, other: values(self) == values(other) if other.__class__ is self.__class__ else NotImplemented
    cls.__hash__ = lambda self: hash(values(self))
    cls.__repr__ = lambda self: f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, names, values(self)))})"
    return cls


# Lines of every kind in one input: twice the 10^6 + 2 of a certificate at cover.MAX_NET_POINTS.
MAX_INPUT_LINES = 2 * 10**6
# Characters in one line, not counting its end: above the ~589,000 of a `selected` line that lists
# all cover.MAX_COVER_ELEMENTS elements, so that a line in memory costs a few MB at most.
MAX_LINE_CHARS = 10**6
# Characters in one input, line ends included: about twice the 31,888,946 of a certificate of
# cover.MAX_NET_POINTS + 1 net lines, the largest input the tests read.  `cover subcover` writes no certificate
# that could be longer, and peaks near 85 MB on the longest it may write, 4,096 lines at a time.
MAX_INPUT_CHARS = 2**26
Source = str | PathLike  # what `input_lines` reads: text, or a path


def input_lines(source: Source) -> Iterator[tuple[int, str]]:
    """(line number, line stripped of surrounding whitespace) for each line of `source`: text, or a path,
    opened here and closed when its lines end or the caller stops reading them.  A line ends at a line feed,
    a carriage return or both, as `open` splits a file by default, and at nothing else.  A line past
    MAX_INPUT_LINES, longer than MAX_LINE_CHARS, or past MAX_INPUT_CHARS characters of input, line ends
    included, raises BudgetExceeded before it is yielded, and no more than MAX_LINE_CHARS + 1 of it are read."""
    with StringIO(source, newline=None) if isinstance(source, str) else open(source) as lines:
        chars = 0
        for line_no, line in enumerate(iter(partial(lines.readline, MAX_LINE_CHARS + 1), ""), 1):
            chars += len(line)
            if line_no > MAX_INPUT_LINES:
                raise BudgetExceeded(f"input has more than MAX_INPUT_LINES = {MAX_INPUT_LINES} lines")
            if len(line) > MAX_LINE_CHARS and line[-1] != "\n":
                raise BudgetExceeded(f"input line {line_no} has more than MAX_LINE_CHARS = {MAX_LINE_CHARS} characters")
            if chars > MAX_INPUT_CHARS:
                raise BudgetExceeded(f"input has more than MAX_INPUT_CHARS = {MAX_INPUT_CHARS} characters")
            yield line_no, line.strip()
