"""Constructive real numbers: an approximation program plus a regulator.

A value is a pair of total deterministic procedures.  `approx(i)` yields
the i-th rational approximation; `regulator(n)` yields an index m such
that any two approximations taken at indices >= m differ by strictly less
than 2^-n.  The regulator is not assumed monotone.  Everything here is
exact: approximations are rationals and all comparisons are rational
comparisons.

Equality of two constructive reals is undecidable, so none is offered;
`compare_apart` is the decidable surrogate that either certifies an order
or certifies the two values are within 2^-n of each other.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cache, lru_cache
from typing import Callable, Iterable

from .rational import Rational, pow2, record


@record
class CRN:
    """A constructive real: approximation sequence plus regulator.

    Instances are immutable and evaluation is pure, so values can be
    shared freely between threads.
    """

    approx: Callable[[int], Rational]
    regulator: Callable[[int], int]

    def __add__(self, other: "CRN") -> "CRN":
        return add(self, other)

    def __sub__(self, other: "CRN") -> "CRN":
        return sub(self, other)

    def __mul__(self, other: "CRN") -> "CRN":
        return mul(self, other)


def from_rational(q: Rational) -> CRN:
    """Embed a rational as the constant sequence; the regulator is constantly 0."""
    return CRN(approx=lambda i: q, regulator=lambda n: 0)


def approx_to(x: CRN, n: int) -> Rational:
    """A rational within 2^-(n+1), hence strictly within 2^-n, of the value.

    Queries at level n+1: the pairwise regulator bound at that level turns
    into a gap-to-limit bound of 2^-(n+1) by letting one index grow.
    """
    if n < 0:
        raise ValueError("precision level must be non-negative")
    return x.approx(x.regulator(n + 1))


def _node(approx: Callable[[int], Rational], regulator: Callable[[int], int]) -> CRN:
    """A composite that answers once per query where a DAG shares it (Boehm,
    Cartwright, Riggle & O'Donnell, "Exact real arithmetic: a case study in
    higher order programming", 1986).  One query asks every node at one
    index, so `approx` keeps one answer; paths shift the level by different
    amounts, so `regulator` keeps every level it is asked (a cache that grows
    with those levels and is freed with the node).  Both are pure, so racing
    threads may compute an answer twice but never a wrong one.
    """
    return CRN(approx=lru_cache(maxsize=1)(approx), regulator=cache(regulator))


def add(x: CRN, y: CRN) -> CRN:
    """Pointwise sum.

    The regulator queries both inputs one level deeper, since
    2^-(n+1) + 2^-(n+1) = 2^-n.
    """
    return _node(lambda i: x.approx(i) + y.approx(i),
                 lambda n: max(x.regulator(n + 1), y.regulator(n + 1)))


def sub(x: CRN, y: CRN) -> CRN:
    """Pointwise difference; same regulator arithmetic as `add`."""
    return _node(lambda i: x.approx(i) - y.approx(i),
                 lambda n: max(x.regulator(n + 1), y.regulator(n + 1)))


def negate(x: CRN) -> CRN:
    """Pointwise negation; the regulator, and what it remembers, is that of `x`."""
    return CRN(approx=lru_cache(maxsize=1)(lambda i: -x.approx(i)), regulator=x.regulator)


def mul(x: CRN, y: CRN) -> CRN:
    """Pointwise product.

    The regulator shift is computed from magnitude bounds taken at level 0:
    with B = |level-0 approximation| + 1 each factor is bounded by its B at
    every index the shifted regulator admits, and the smallest k with
    2^k >= B_x + B_y + 1 makes (B_x + B_y) * 2^-(n+k) < 2^-n.
    """
    bound_x = abs(approx_to(x, 0)) + 1
    bound_y = abs(approx_to(y, 0)) + 1
    shift = (math.ceil(bound_x + bound_y + 1) - 1).bit_length()
    return _node(lambda i: x.approx(i) * y.approx(i),
                 lambda n: max(x.regulator(n + shift), y.regulator(n + shift)))


class Apartness(Enum):
    LESS = "less"
    GREATER = "greater"
    INDISTINGUISHABLE = "indistinguishable"


def compare_apart(x: CRN, y: CRN, n: int) -> Apartness:
    """Three-way comparison at resolution 2^-n.

    LESS / GREATER certify a strict order of the underlying values;
    INDISTINGUISHABLE certifies |x - y| <= 2^-n.
    """
    if n < 0:
        raise ValueError("precision level must be non-negative")
    a = approx_to(x, n + 2)
    b = approx_to(y, n + 2)
    gap = pow2(-(n + 1))
    if b - a > gap:
        return Apartness.LESS
    if a - b > gap:
        return Apartness.GREATER
    return Apartness.INDISTINGUISHABLE


@record
class Violation:
    """One failed pairwise check: |approx(i) - approx(j)| did not stay under 2^-level."""

    level: int
    i: int
    j: int
    gap: Rational


@record
class ValidationReport:
    levels: tuple[int, ...]
    probes_per_level: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def probe_offsets(count: int) -> list[int]:
    """Deterministic probe schedule 0, 1, 2, 4, 8, ... of the requested length."""
    offsets = [0, 1, 2]
    while len(offsets) < count:
        offsets.append(offsets[-1] * 2)
    return offsets[:count]


def validate_regulator(
    x: CRN, levels: Iterable[int], probes_per_level: int = 4
) -> ValidationReport:
    """Spot-check the regulator law on a deterministic probe schedule.

    For each level n, indices regulator(n) + {0, 1, 2, 4, ...} are sampled
    and every pair is required to differ by strictly less than 2^-n.  The
    schedule never assumes the regulator is monotone.  Every violating
    pair is reported.
    """
    if probes_per_level < 2:
        raise ValueError("probes_per_level must be at least 2")
    level_list = tuple(levels)
    offsets = probe_offsets(probes_per_level)
    violations: list[Violation] = []
    for n in level_list:
        base = x.regulator(n)
        indices = [base + off for off in offsets]
        values = [x.approx(i) for i in indices]
        bound = pow2(-n)
        for a in range(len(indices)):
            for b in range(a + 1, len(indices)):
                gap = abs(values[a] - values[b])
                if not gap < bound:
                    violations.append(Violation(n, indices[a], indices[b], gap))
    return ValidationReport(level_list, probes_per_level, tuple(violations))
