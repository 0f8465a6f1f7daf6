"""Finite subcovers of [0, 1] from interval covers, with checkable certificates.

A cover is a finite list of open rational intervals whose union must
contain [0, 1] with room to spare: every point of [0, 1], endpoints
included, needs a whole neighbourhood inside a single element.  The
pipeline computes an exact uniform containment radius (the Lebesgue
number of the cover), lays down a finite net of that spacing, assigns
each net point an element containing its ball, and packages the result as
a certificate that an independent sweep can verify with rational
arithmetic alone.

Every step is a sorted sweep: the Lebesgue number walks the elements in
midpoint order (O(k log k) for k elements), coverage checks walk the
intervals once in order of left end (O(k log k), or O(N log N) for the N
balls of a certificate's net), and net assignment keeps a heap of
candidate elements while walking the ascending net (O((N + k) log k)).
`lebesgue_candidates` evaluated with `uniform_radius_at` is the
brute-force O(k^3) reference the Lebesgue sweep is tested against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import (
    BudgetExceeded,
    NoContainingElement,
    NonpositiveRadius,
    NotACover,
    NotNiceCover,
    ParseError,
)
from .rational import ONE, ZERO, Rational, parse_rational, render


@dataclass(frozen=True)
class OpenInterval:
    lo: Rational
    hi: Rational

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"interval needs lo < hi, got ({self.lo}, {self.hi})")

    def contains_point(self, x: Rational) -> bool:
        return self.lo < x < self.hi

    def contains_ball(self, center: Rational, radius: Rational) -> bool:
        # (c - r, c + r) subset of (lo, hi) iff lo <= c - r and c + r <= hi.
        return self.lo <= center - radius and center + radius <= self.hi


CoverList = Sequence[OpenInterval]


def parse_cover(text: str) -> list[OpenInterval]:
    """One interval per line as `lo hi` (rationals or exact decimals); `#` comments."""
    intervals: list[OpenInterval] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        code = line.split("#", 1)[0].strip()
        if not code:
            continue
        parts = code.split()
        if len(parts) != 2:
            raise ParseError(f"line {line_no}: expected `lo hi`, got {code!r}")
        lo = parse_rational(parts[0])
        hi = parse_rational(parts[1])
        if not lo < hi:
            raise ParseError(f"line {line_no}: interval needs lo < hi")
        intervals.append(OpenInterval(lo, hi))
    if not intervals:
        raise ParseError("cover file contains no intervals")
    return intervals


def load_cover(path: str | Path) -> list[OpenInterval]:
    return parse_cover(Path(path).read_text())


def uniform_radius_at(cover: CoverList, x: Rational) -> Rational:
    """Largest r with (x - r, x + r) inside some single element.

    This is max over elements of min(x - lo, hi - x); non-positive when no
    element strictly contains x.  O(k) per point.
    """
    return max(min(x - e.lo, e.hi - x) for e in cover)


def lebesgue_candidates(cover: CoverList) -> list[Rational]:
    """The finite point set on which the radius envelope attains its minimum.

    The per-point radius is a maximum of tent functions with slopes +1 and
    -1, so over [0, 1] its minimum sits at 0, at 1, or at a crossing of an
    ascending piece (x - lo_j) with a descending piece (hi_k - x), which
    solves to (lo_j + hi_k) / 2.  Element endpoints falling inside [0, 1]
    are included as well.  Sorted, for deterministic scans.

    There are O(k^2) candidates, so evaluating `uniform_radius_at` on all
    of them is O(k^3).  Kept as the brute-force reference that the
    acceptance gate and the tests check `lebesgue_number` against.
    """
    candidates = {ZERO, ONE}
    for e in cover:
        for v in (e.lo, e.hi):
            if ZERO <= v <= ONE:
                candidates.add(v)
    for e1 in cover:
        for e2 in cover:
            mid = (e1.lo + e2.hi) / 2
            if ZERO <= mid <= ONE:
                candidates.add(mid)
    return sorted(candidates)


def lebesgue_number(cover: CoverList) -> Rational:
    """Exact uniform containment radius of the cover over [0, 1].

    Returns the minimum over [0, 1] of the radius envelope (see
    `uniform_radius_at`).  A positive result L certifies that around every
    point of [0, 1] the open L-ball fits inside some single element; a
    non-positive minimum is proof that some point has no interior margin
    at all, which is reported as NotACover with the smallest such point.

    An element's margin min(x - lo, hi - x) rises up to its midpoint and
    falls after it.  So between two consecutive midpoints, in midpoint
    order, the envelope is max(x - A, B - x): A is the smallest lo of the
    elements whose midpoint is still ahead, B the largest hi of those
    already passed.  That is a V with its bottom at (A + B) / 2, so its
    minimum on the piece is at that bottom clamped to the piece.  Before
    the first midpoint the envelope is x - A and after the last it is
    B - x, so there the minimum is at 0 or at 1.  One sort, a suffix
    minimum and a prefix maximum make this O(k log k).  The candidates
    ascend and `min` keeps the first of equal values, so the witness is the
    smallest minimiser, as in a scan of the sorted `lebesgue_candidates`.
    """
    if not cover:
        raise ValueError("cover must be nonempty")
    order = sorted(cover, key=lambda e: e.lo + e.hi)
    mids = [(e.lo + e.hi) / 2 for e in order]
    ahead_lo = list(accumulate((e.lo for e in reversed(order)), min))[::-1]
    passed_hi = list(accumulate((e.hi for e in order), max))
    candidates = []
    if mids[0] >= ZERO:
        candidates.append((ZERO, -ahead_lo[0]))
    for i in range(1, len(order)):
        left, right = max(mids[i - 1], ZERO), min(mids[i], ONE)
        if left <= right:
            a, b = ahead_lo[i], passed_hi[i - 1]
            x = min(max((a + b) / 2, left), right)
            candidates.append((x, max(x - a, b - x)))
    if mids[-1] <= ONE:
        candidates.append((ONE, passed_hi[-1] - ONE))
    witness, best = min(candidates, key=itemgetter(1))
    if best <= 0:
        raise NotACover(
            f"point {render(witness)} of [0,1] has no interior margin "
            f"(best radius {render(best)})"
        )
    return best


class ConstantModulus:
    """Containment-radius oracle that answers the same radius everywhere."""

    def __init__(self, radius: Rational):
        self.radius = radius

    def radius_at(self, x: Rational) -> Rational:
        return self.radius


class LebesgueModulus:
    """Radius oracle derived from the cover itself: its exact Lebesgue number.

    The number is computed on first query and reused; by construction the
    answer is identical at every point.
    """

    def __init__(self, cover: CoverList):
        self._cover = tuple(cover)
        self._radius: Rational | None = None

    def radius_at(self, x: Rational) -> Rational:
        if self._radius is None:
            self._radius = lebesgue_number(self._cover)
        return self._radius


class OracleModulus:
    """Arbitrary radius procedure, for adversarial testing of the pipeline."""

    def __init__(self, fn: Callable[[Rational], Rational]):
        self._fn = fn

    def radius_at(self, x: Rational) -> Rational:
        return self._fn(x)


NiceModulus = ConstantModulus | LebesgueModulus | OracleModulus

DEFAULT_SAMPLE_POINTS: tuple[Rational, ...] = (ZERO, Rational(1, 2), ONE)


def extract_constant_radius(
    modulus: NiceModulus, sample_points: Sequence[Rational] = DEFAULT_SAMPLE_POINTS
) -> Rational:
    """Sample the radius oracle and insist on one positive answer.

    A legitimate uniform modulus answers identically everywhere, so any
    two samples that disagree expose the oracle as no such thing; the
    disagreeing pair is reported as the NotNiceCover witness.
    """
    points = list(sample_points)
    if not points:
        raise ValueError("need at least one sample point")
    first = modulus.radius_at(points[0])
    for p in points[1:]:
        value = modulus.radius_at(p)
        if value != first:
            raise NotNiceCover(points[0], p, first, value)
    if first <= 0:
        raise NonpositiveRadius(f"common radius {render(first)} is not positive")
    return first


MAX_NET_POINTS = 10**6


def build_eps_net(eps: Rational) -> list[Rational]:
    """The grid 0, eps, 2*eps, ... capped at 1, with 1 appended when missed.

    Every point of [0, 1] ends up strictly within eps of some net point,
    and the net has at most ceil(1/eps) + 1 points, ascending.  A net of
    more than MAX_NET_POINTS points raises BudgetExceeded before any point
    is built.
    """
    if eps <= 0:
        raise NonpositiveRadius(f"net spacing {render(eps)} is not positive")
    count = int(ONE // eps)
    hits_one = eps * count == ONE
    size = count + 1 if hits_one else count + 2
    if size > MAX_NET_POINTS:
        raise BudgetExceeded(
            f"net spacing {render(eps)} needs {size} points, "
            f"more than MAX_NET_POINTS = {MAX_NET_POINTS}"
        )
    net = [eps * k for k in range(count + 1)]
    if not hits_one:
        net.append(ONE)
    return net


def find_containing_element(
    cover: CoverList, center: Rational, radius: Rational
) -> int:
    """Smallest element index whose interval contains the ball around `center`.

    O(k) scan; `extract_finite_subcover` calls it only for a ball that no
    element contains, to raise NoContainingElement.
    """
    if radius <= 0:
        raise NonpositiveRadius(f"ball radius {render(radius)} is not positive")
    for index, e in enumerate(cover):
        if e.contains_ball(center, radius):
            return index
    raise NoContainingElement(
        f"ball ({render(center - radius)}, {render(center + radius)}) "
        f"fits no cover element"
    )


@dataclass(frozen=True)
class SubcoverCertificate:
    """Everything needed to re-check a finite subcover without trusting us.

    `assignments` pairs a net-point index with the cover-element index
    whose interval contains that net point's radius ball; `selected` is
    the deduplicated sorted list of the assigned elements.
    """

    radius: Rational
    net: tuple[Rational, ...]
    assignments: tuple[tuple[int, int], ...]
    selected: tuple[int, ...]


def extract_finite_subcover(
    cover: CoverList,
    modulus: NiceModulus,
    sample_points: Sequence[Rational] = DEFAULT_SAMPLE_POINTS,
) -> SubcoverCertificate:
    """The whole pipeline: radius, net, per-point assignment, certificate.

    Each net point is assigned the smallest index whose element contains
    its ball, the answer `find_containing_element` gives.  First-match
    assignment and the fixed net make the certificate byte-reproducible
    for identical inputs.

    Element j contains the ball around c exactly when c lies in
    [lo_j + r, hi_j - r].  The net ascends, so an element joins a min-heap
    of indices once its lower bound is <= c, and leaves it for good once
    its upper bound is < c; the heap's top is then the first match.
    O((N + k) log k) for N net points and k elements.
    """
    if not cover:
        raise ValueError("cover must be nonempty")
    radius = extract_constant_radius(modulus, sample_points)
    net = build_eps_net(radius)
    centres = [(e.lo + radius, e.hi - radius) for e in cover]
    by_lo = sorted(range(len(cover)), key=lambda j: centres[j][0])
    joined = 0
    heap: list[int] = []
    assignments = []
    for k, point in enumerate(net):
        while joined < len(by_lo) and centres[by_lo[joined]][0] <= point:
            heapq.heappush(heap, by_lo[joined])
            joined += 1
        while heap and centres[heap[0]][1] < point:
            heapq.heappop(heap)
        element = heap[0] if heap else find_containing_element(cover, point, radius)
        assignments.append((k, element))
    selected = tuple(sorted({element for _, element in assignments}))
    return SubcoverCertificate(radius, tuple(net), tuple(assignments), selected)


@dataclass(frozen=True)
class Covered:
    pass


@dataclass(frozen=True)
class Uncovered:
    witness: Rational


def verify_subcover(cover: CoverList, selected: Sequence[int]) -> Covered | Uncovered:
    """Exact sweep deciding whether the selected elements cover [0, 1].

    `selected` may be in any order and may repeat indices; an index out of
    range raises ValueError.  See `_reach` for the sweep and its witness.
    O(k log k) for k selected elements.
    """
    spans = []
    for index in selected:
        if not 0 <= index < len(cover):
            raise ValueError(f"element index {index} out of range")
        spans.append((cover[index].lo, cover[index].hi))
    return _reach(spans)


def _reach(spans: Iterable[tuple[Rational, Rational]]) -> Covered | Uncovered:
    """Whether the open intervals (lo, hi), given in any order, cover [0, 1].

    Walks the intervals by lo, keeping `reach`: [0, reach) lies inside the
    intervals walked so far and none of them extends past reach.  An
    interval with lo < reach moves reach up to its hi when that is further.
    The first interval with lo >= reach ends the walk, and every later one
    starts at least as far, so no interval contains reach: it is the least
    point >= 0 outside all of them.  That point (0, a gap endpoint, or 1)
    is the witness, unless it lies past 1.  O(k log k) for k intervals.
    """
    reach = ZERO
    for lo, hi in sorted(spans, key=itemgetter(0)):
        if not lo < reach:
            break
        if hi > reach:
            reach = hi
    return Covered() if reach > ONE else Uncovered(reach)


def render_certificate(certificate: SubcoverCertificate) -> str:
    lines = [f"r={render(certificate.radius)}"]
    for net_index, element in certificate.assignments:
        lines.append(f"net {render(certificate.net[net_index])} -> element {element}")
    lines.append("selected " + ",".join(str(j) for j in certificate.selected))
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> SubcoverCertificate:
    """Inverse of `render_certificate`; raises ParseError on anything off."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("r="):
        raise ParseError("certificate must start with `r=<rational>`")
    radius = parse_rational(lines[0][len("r=") :])
    net: list[Rational] = []
    assignments: list[tuple[int, int]] = []
    selected: tuple[int, ...] | None = None
    for line in lines[1:]:
        if line.startswith("net "):
            if selected is not None:
                raise ParseError("net line after the selected line")
            body = line[len("net ") :]
            if " -> element " not in body:
                raise ParseError(f"bad net line: {line!r}")
            point_text, element_text = body.split(" -> element ", 1)
            if not element_text.strip().isdigit():
                raise ParseError(f"bad element index in: {line!r}")
            assignments.append((len(net), int(element_text)))
            net.append(parse_rational(point_text))
        elif line.startswith("selected"):
            if selected is not None:
                raise ParseError("duplicate selected line")
            body = line[len("selected") :].strip()
            parts = [p for p in body.split(",") if p.strip()]
            if not all(p.strip().isdigit() for p in parts):
                raise ParseError(f"bad selected line: {line!r}")
            selected = tuple(int(p) for p in parts)
        else:
            raise ParseError(f"unrecognized certificate line: {line!r}")
    if selected is None:
        raise ParseError("certificate has no selected line")
    return SubcoverCertificate(radius, tuple(net), tuple(assignments), selected)


def load_certificate(path: str | Path) -> SubcoverCertificate:
    return parse_certificate(Path(path).read_text())


def verify_certificate(cover: CoverList, certificate: SubcoverCertificate) -> list[str]:
    """Full independent re-check of a certificate against a cover.

    Returns a list of human-readable problems; an empty list means the
    certificate is valid.  Checks, all in exact arithmetic: the radius is
    positive, every net point's ball sits inside its assigned element, the
    selected list matches the assignments, the net with this radius leaves
    no point of [0, 1] farther than the radius from a net point, and the
    selected elements really cover [0, 1].

    Both coverage checks are the `_reach` sweep: the net's balls
    (c - r, c + r), in whatever order and with whatever repeats the
    certificate lists them, and the selected elements.  O(N log N + k log k)
    for N net points and k elements.
    """
    problems: list[str] = []
    r = certificate.radius
    if r <= 0:
        problems.append(f"radius {render(r)} is not positive")
        return problems

    if [k for k, _ in certificate.assignments] != list(range(len(certificate.net))):
        problems.append("assignments do not list each net point exactly once, in order")
    balls = [(c - r, c + r) for c in certificate.net]
    for net_index, element in certificate.assignments:
        if not 0 <= element < len(cover):
            problems.append(f"assignment {net_index}: element {element} out of range")
            continue
        if not 0 <= net_index < len(balls):
            problems.append(f"assignment {net_index}: net point {net_index} out of range")
            continue
        lo, hi = balls[net_index]
        e = cover[element]
        if not (e.lo <= lo and hi <= e.hi):  # `contains_ball`, on the ball built once
            problems.append(
                f"ball ({render(lo)}, {render(hi)}) around net point "
                f"{render(certificate.net[net_index])} is not inside element {element} "
                f"({render(e.lo)}, {render(e.hi)})"
            )

    expected_selected = tuple(sorted({j for _, j in certificate.assignments}))
    if certificate.selected != expected_selected:
        problems.append(
            "selected list does not match the set of assigned elements"
        )

    density = _reach(balls)
    if isinstance(density, Uncovered):
        problems.append(
            f"net with radius {render(r)} leaves {render(density.witness)} uncovered"
        )

    in_range = [j for _, j in certificate.assignments if 0 <= j < len(cover)]
    coverage = verify_subcover(cover, sorted(set(in_range)))
    if isinstance(coverage, Uncovered):
        problems.append(
            f"selected elements leave {render(coverage.witness)} uncovered"
        )
    return problems
