"""Finite subcovers of [0, 1] from interval covers, with checkable certificates.

A cover is a finite list of open rational intervals whose union must
contain [0, 1] with room to spare: every point of [0, 1], endpoints
included, needs a whole neighbourhood inside a single element.  The
pipeline computes an exact uniform containment radius (the Lebesgue
number of the cover), lays down a finite net of that spacing, assigns
each net point an element containing its ball, and packages the result as
a certificate that an independent sweep can verify with rational
arithmetic alone.

Checks are sorted sweeps: O(k log k) for k elements, O(N log N) for the N
points of a net.  Extraction reads elements in order, up to the last it
needs, and holds only the net's unassigned runs and its claims.
`lebesgue_candidates` evaluated with `uniform_radius_at` is the
brute-force O(k^3) reference the Lebesgue sweep is tested against.

No Fraction is built per net point.  A net is ints over its own unit D,
the lcm of the radius's denominator and the points' as written (D is the
radius's denominator for an extracted grid); the r-ball around x / D
fits element j exactly when x lies between two ints worked out once per
element (`_ball_bounds`), and certificate text is read into and written
from those ints.  A net line is read once, by its pieces: the point before
the first ` -> element `, read by `parse_ratio`, and a decimal element
index after it.  Sweeps that compare cover ends with each other write
them over their least common denominator, or compare the Fractions past
_END_BITS, as pairwise coprime denominators reach.  A certificate is
refused at its first net line past MAX_NET_POINTS, and when its points
would take more than MAX_SCALED_BITS bits beyond the radius's denominator
over their common one, before any point is built.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from itertools import accumulate, chain, islice, repeat
from math import lcm
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from . import rational
from .errors import (
    BudgetExceeded,
    NoContainingElement,
    NonpositiveRadius,
    NotACover,
    NotNiceCover,
    ParseError,
)
from .rational import ONE, ZERO, Rational, Source, _int, input_lines, parse_ratio, parse_rational, record, render, render_ratio


@record
class OpenInterval:
    lo: Rational
    hi: Rational

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("interval needs lo < hi")

    def contains_point(self, x: Rational) -> bool:
        return self.lo < x < self.hi

    def contains_ball(self, center: Rational, radius: Rational) -> bool:
        # (c - r, c + r) subset of (lo, hi) iff lo <= c - r and c + r <= hi.
        return self.lo <= center - radius and center + radius <= self.hi


CoverList = Sequence[OpenInterval]


MAX_SCALED_BITS = 2**28
MAX_COVER_ELEMENTS = 10**5
# Past this many bits of ends over their common denominator, the sweeps
# compare the Fractions: on covers with a distinct prime denominator per
# end, that is as fast at about 2^22 bits and faster beyond.
_END_BITS = 2**21


def _over_unit(numerators: Sequence[int], denominators: Sequence[int], unit: int, cap: int) -> tuple[list[int], int] | None:
    """The rationals n / d as ints over their least common unit with `unit`,
    and that unit; None when those ints would need more than `cap` bits
    beyond what they need over `unit` alone."""
    scale = dict.fromkeys(denominators)
    bits = unit.bit_length()
    for d in scale:
        unit = lcm(unit, d)
        if len(numerators) * (unit.bit_length() - bits) > cap:
            return None
    for d in scale:
        scale[d] = unit // d
    return [n * scale[d] for n, d in zip(numerators, denominators)], unit


def _common_unit(values: Sequence[Rational]) -> tuple[list, int]:
    """The values as ints over their least common denominator, and that unit.

    Past _END_BITS the values come back unchanged with unit 1, so a sweep
    that compares them only with each other, 0 and `unit` needs one body
    for both kinds.
    """
    return _over_unit([v.numerator for v in values], [v.denominator for v in values], 1, _END_BITS) or (
        list(values), 1)


def parse_cover(source: Source) -> list[OpenInterval]:
    """One interval per line as `lo hi` (rationals or exact decimals); `#` comments.  `source` is text,
    an open text file or a path, read by `input_lines`.  More than MAX_COVER_ELEMENTS intervals raise
    BudgetExceeded before any is read, so a file past the cap is refused even with a malformed line; a
    malformed line raises ParseError naming its line number."""
    lines = ((line_no, code) for line_no, line in input_lines(source) if (code := line.split("#", 1)[0].rstrip()))
    codes = list(islice(lines, MAX_COVER_ELEMENTS + 1))  # the interval lines, not yet parsed
    if len(codes) > MAX_COVER_ELEMENTS:
        raise BudgetExceeded(f"cover has more than MAX_COVER_ELEMENTS = {MAX_COVER_ELEMENTS} intervals")
    intervals: list[OpenInterval] = []
    for line_no, code in codes:
        parts = code.split()
        try:
            if len(parts) != 2:
                raise ParseError(f"expected `lo hi`, got {code!r}")
            intervals.append(OpenInterval(parse_rational(parts[0]), parse_rational(parts[1])))
        except ValueError as exc:  # a ParseError, or OpenInterval refusing lo >= hi
            raise ParseError(f"line {line_no}: {exc}") from None
    if not intervals:
        raise ParseError("cover file contains no intervals")
    return intervals


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
    ends, unit = _common_unit([v for e in cover for v in (e.lo, e.hi)])
    # In doubled coordinates, point x is 2·x·unit: a midpoint is lo + hi
    # and a V's bottom a + b, so nothing is divided.
    order = sorted(zip(ends[::2], ends[1::2]), key=sum)
    mids = [lo + hi for lo, hi in order]
    ahead_lo = list(accumulate((lo for lo, _ in reversed(order)), min))[::-1]
    passed_hi = list(accumulate((hi for _, hi in order), max))
    one = 2 * unit
    candidates = []
    if mids[0] >= 0:
        candidates.append((0, -2 * ahead_lo[0]))
    for i in range(1, len(order)):
        left, right = max(mids[i - 1], 0), min(mids[i], one)
        if left <= right:
            a, b = ahead_lo[i], passed_hi[i - 1]
            x = min(max(a + b, left), right)
            candidates.append((x, max(x - 2 * a, 2 * b - x)))
    if mids[-1] <= one:
        candidates.append((one, 2 * passed_hi[-1] - one))
    witness, best = min(candidates, key=itemgetter(1))
    if best <= 0:
        raise NotACover(
            f"point {render(Rational(witness, one))} of [0,1] has no interior margin "
            f"(best radius {render(Rational(best, one))})"
        )
    return Rational(best, one)


class ConstantModulus:
    """Containment-radius oracle that answers the same radius everywhere."""

    def __init__(self, radius: Rational):
        self.radius = radius

    def radius_at(self, x: Rational) -> Rational:
        return self.radius


class LebesgueModulus(ConstantModulus):
    """Radius oracle derived from the cover itself: its exact Lebesgue number.

    The number is computed when the oracle is built, so by construction the
    answer is identical at every point.
    """

    def __init__(self, cover: CoverList):
        super().__init__(lebesgue_number(cover))


class OracleModulus:
    """Arbitrary radius procedure, for adversarial testing of the pipeline."""

    def __init__(self, fn: Callable[[Rational], Rational]):
        self._fn = fn

    def radius_at(self, x: Rational) -> Rational:
        return self._fn(x)


NiceModulus = ConstantModulus | LebesgueModulus | OracleModulus

DEFAULT_SAMPLE_POINTS: tuple[Rational, ...] = (ZERO, Rational(1, 2), ONE)


def extract_constant_radius(modulus: NiceModulus) -> Rational:
    """Sample the radius oracle at DEFAULT_SAMPLE_POINTS and insist on one positive answer.

    A legitimate uniform modulus answers identically everywhere, so any
    two samples that disagree expose the oracle as no such thing; the
    disagreeing pair is reported as the NotNiceCover witness.
    """
    first = modulus.radius_at(DEFAULT_SAMPLE_POINTS[0])
    for p in DEFAULT_SAMPLE_POINTS[1:]:
        value = modulus.radius_at(p)
        if value != first:
            raise NotNiceCover(DEFAULT_SAMPLE_POINTS[0], p, first, value)
    if first <= 0:
        raise NonpositiveRadius(f"common radius {render(first)} is not positive")
    return first


MAX_NET_POINTS = 10**6


def _net_size(eps: Rational) -> int:
    """The number of points of `build_eps_net(eps)`; BudgetExceeded past MAX_NET_POINTS."""
    if eps <= 0:
        raise NonpositiveRadius(f"net spacing {render(eps)} is not positive")
    if (size := -(-eps.denominator // eps.numerator) + 1) > MAX_NET_POINTS:
        raise BudgetExceeded(f"net spacing {render(eps)} needs {render(size)} points, "
                             f"more than MAX_NET_POINTS = {MAX_NET_POINTS}")
    return size


def _grid(eps: Rational) -> list[int]:
    """The points of `build_eps_net(eps)` as ints over eps's denominator, once `_net_size` has counted them."""
    _net_size(eps)
    p, q = eps.numerator, eps.denominator
    return [*range(0, q + 1, p), *([q] if q % p else [])]


def build_eps_net(eps: Rational) -> list[Rational]:
    """The grid 0, eps, 2*eps, ... capped at 1, with 1 appended when missed.

    Every point of [0, 1] ends up strictly within eps of some net point,
    and the net has at most ceil(1/eps) + 1 points, ascending.  A net of
    more than MAX_NET_POINTS points raises BudgetExceeded before any point
    is built.
    """
    return [Rational(x, eps.denominator) for x in _grid(eps)]


def find_containing_element(
    cover: CoverList, center: Rational, radius: Rational
) -> int:
    """Smallest element index whose interval contains the ball around `center`.

    O(k) scan; the reference for the first-match assignment of
    `extract_finite_subcover`, which raises the same NoContainingElement.
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


def _ball_bounds(cover: CoverList, r: int, unit: int) -> tuple[list[int], list[int]]:
    """Ints low_j, high_j such that the ball of radius r / unit around x / unit
    fits element j exactly when low_j <= x <= high_j: as x and r are ints,
    lo + r / unit <= x / unit iff ceil(lo * unit) + r <= x, and likewise
    x <= floor(hi * unit) - r."""
    return ([r - (-e.lo.numerator * unit // e.lo.denominator) for e in cover],
            [e.hi.numerator * unit // e.hi.denominator - r for e in cover])


@record
class SubcoverCertificate:
    """Everything needed to re-check a finite subcover without trusting us.

    Net point k is points[k] / unit, where `unit` is the radius's
    denominator for an extracted net and, for a parsed one, the lcm of it
    and the point denominators as written; `net` gives the points as
    rationals.  elements[k] is the index of the cover element whose
    interval contains the radius ball around net point k.  `selected` is
    the deduplicated sorted list of the assigned elements.  The sequences
    are tuples.
    """

    radius: Rational
    points: tuple[int, ...]
    unit: int
    elements: tuple[int, ...]
    selected: tuple[int, ...]

    def __post_init__(self):
        if len(self.points) != len(self.elements):
            raise ValueError(f"{len(self.points)} net points but {len(self.elements)} assigned elements")

    @property
    def net(self) -> tuple[Rational, ...]:
        return tuple(Rational(x, self.unit) for x in self.points)


def extract_finite_subcover(cover: Iterable[OpenInterval], modulus: NiceModulus) -> SubcoverCertificate:
    """The whole pipeline: radius, net, per-point assignment, certificate.

    Each net point is assigned the smallest index whose element contains
    its ball, the answer `find_containing_element` gives.  First-match
    assignment and the fixed net make the certificate byte-reproducible
    for identical inputs.

    The search reads the elements of any iterable, endless ones too, in
    order until every net point is assigned.  The net ascends, so the points
    whose ball fits an element are one run, found by bisection from
    `_ball_bounds`; the element claims those of them that are still
    unassigned.  Only the unassigned points, as ascending disjoint runs, and
    the claims are kept, not the elements.  If the elements run out, the
    least unassigned point's ball fits none of them: NoContainingElement.
    Reading an element past MAX_COVER_ELEMENTS raises BudgetExceeded, and so does, before any net point is
    built, a radius whose certificate could have a line or a length that `parse_certificate` would refuse.
    """
    radius = extract_constant_radius(modulus)
    size = _net_size(radius)
    # A net line `net x/q -> element j` has 16 characters, a point of at most 2d + 1 as 0 <= x <= q, and an index
    # below MAX_COVER_ELEMENTS, of at most 5 digits; d, from bit lengths, is at least the digit count of the
    # radius's numerator and denominator.  The `r=` line is shorter, and the `selected` line needs no bound: it
    # has at most 6 characters a net point, and 9 + 6 * MAX_COVER_ELEMENTS = 600,009 < MAX_LINE_CHARS in all.
    d = max(radius.numerator.bit_length(), radius.denominator.bit_length()) * 30103 // 100000 + 1
    if (longest := 2 * d + 22) > rational.MAX_LINE_CHARS:
        raise BudgetExceeded(f"certificate lines may need {longest} characters, "
                             f"more than MAX_LINE_CHARS = {rational.MAX_LINE_CHARS}")
    if (chars := (size + 2) * (longest + 1) + 6 * size) > rational.MAX_INPUT_CHARS:
        raise BudgetExceeded(f"certificate of {size} net lines may need {chars} characters, "
                             f"more than MAX_INPUT_CHARS = {rational.MAX_INPUT_CHARS}")
    points, unit = _grid(radius), radius.denominator
    free, claims = [(0, len(points))], []
    for j, e in enumerate(cover):
        if j == MAX_COVER_ELEMENTS:
            raise BudgetExceeded(f"net point {render(Rational(points[free[0][0]], unit))} is unassigned after "
                                 f"MAX_COVER_ELEMENTS = {MAX_COVER_ELEMENTS} cover elements")
        (low,), (high,) = _ball_bounds((e,), radius.numerator, unit)
        start, stop = bisect_left(points, low), bisect_right(points, high)
        first = bisect_right(free, start, key=itemgetter(1))
        end = bisect_left(free, stop, first, key=itemgetter(0))
        if start < stop and first < end:
            claims += ((max(a, start), min(b, stop), j) for a, b in free[first:end])
            free[first:end] = [(a, b) for a, b in ((free[first][0], start), (stop, free[end - 1][1])) if a < b]
            if not free:
                break
    else:
        c = Rational(points[free[0][0]], unit)
        raise NoContainingElement(f"ball ({render(c - radius)}, {render(c + radius)}) fits no cover element")
    claims.sort()
    elements = tuple(chain.from_iterable(repeat(j, b - a) for a, b, j in claims))
    return SubcoverCertificate(radius, tuple(points), unit, elements, tuple(sorted({j for _, _, j in claims})))


@record
class Covered:
    pass


@record
class Uncovered:
    witness: Rational


def verify_subcover(cover: CoverList, selected: Sequence[int]) -> Covered | Uncovered:
    """Exact sweep deciding whether the selected elements cover [0, 1].

    `selected` may be in any order and may repeat indices; an index out of
    range raises ValueError.  See `_reach` for the sweep and its witness.
    O(k log k) for k selected elements.
    """
    chosen = []
    for index in selected:
        if not 0 <= index < len(cover):
            raise ValueError(f"selected index {index} out of range")
        chosen += (cover[index].lo, cover[index].hi)
    scaled, unit = _common_unit(chosen)
    return _reach(sorted(zip(scaled[::2], scaled[1::2])), unit)


def _reach(spans: Iterable[tuple], unit: int) -> Covered | Uncovered:
    """Whether the open intervals (lo, hi) over `unit`, in order of lo, cover [0, 1].

    Walks the intervals keeping `reach`: [0, reach) lies inside the
    intervals walked so far and none of them extends past reach.  An
    interval with lo < reach moves reach up to its hi when that is further.
    The first interval with lo >= reach ends the walk, and every later one
    starts at least as far, so no interval contains reach: it is the least
    point >= 0 outside all of them.  That point (0, a gap endpoint, or 1)
    is the witness, unless it lies past 1.
    """
    reach = 0
    for lo, hi in spans:
        if not lo < reach:
            break
        if hi > reach:
            reach = hi
    return Covered() if reach > unit else Uncovered(Rational(reach, unit))


def render_certificate(certificate: SubcoverCertificate) -> Iterator[str]:
    """The lines of the text `parse_certificate` reads, each with its line end."""
    unit = certificate.unit
    yield f"r={render(certificate.radius)}\n"
    yield from (f"net {render_ratio(x, unit)} -> element {j}\n" for x, j in zip(certificate.points, certificate.elements))
    yield "selected " + ",".join(str(j) for j in certificate.selected) + "\n"


def parse_certificate(source: Source) -> SubcoverCertificate:
    """Inverse of `render_certificate`.  `source` is text, an open text file or a path, read once by
    `input_lines` up to its first bad line: a line out of place or malformed raises ParseError naming its
    line number, and a net line past MAX_NET_POINTS raises BudgetExceeded."""
    radius = selected = None
    numerators, denominators, elements, shared = [], [], [], {}  # `shared`: one int per distinct denominator
    for line_no, line in filter(itemgetter(1), input_lines(source)):  # the lines that are not blank
        try:
            if not line.startswith(("r=",) if radius is None else ("net ", "selected") if selected is None else ()):
                raise ParseError(f"unexpected certificate line: {line!r}")
            if radius is None:
                radius = parse_rational(line[len("r=") :])
            elif line.startswith("net "):
                if len(elements) == MAX_NET_POINTS:
                    raise BudgetExceeded(f"certificate has more than MAX_NET_POINTS = {MAX_NET_POINTS} net lines")
                point_text, arrow, element_text = line[len("net ") :].partition(" -> element ")
                if not (arrow and element_text.strip().isdecimal()):
                    raise ParseError(f"bad net line: {line!r}")
                numerator, denominator = parse_ratio(point_text)
                numerators.append(numerator)
                denominators.append(shared.setdefault(denominator, denominator))
                elements.append(_int(element_text.strip()))
            else:
                parts = [p.strip() for p in line[len("selected") :].split(",") if p.strip()]
                if not all(p.isdecimal() for p in parts):
                    raise ParseError(f"bad selected line: {line!r}")
                selected = tuple(map(_int, parts))
        except ParseError as exc:
            raise ParseError(f"line {line_no}: {exc}") from None
    if selected is None:
        raise ParseError("certificate ends before its `selected` line")
    if (scaled := _over_unit(numerators, denominators, radius.denominator, MAX_SCALED_BITS)) is None:
        raise BudgetExceeded(f"{render(len(numerators))} net points over their common denominator need more than "
                             f"MAX_SCALED_BITS = {MAX_SCALED_BITS} bits beyond the radius's denominator")
    points, unit = scaled
    return SubcoverCertificate(radius, tuple(points), unit, tuple(elements), selected)


def verify_certificate(cover: CoverList, certificate: SubcoverCertificate) -> list[str]:
    """Full independent re-check of a certificate against a cover.

    Returns a list of human-readable problems; an empty list means the
    certificate is valid.  Checks, all in exact arithmetic: the radius is
    positive, every net point's ball sits inside its assigned element, the
    selected list matches the assigned elements, the net with this radius
    leaves no point of [0, 1] farther than the radius from a net point,
    and the assigned elements really cover [0, 1].

    In the net's unit, each point is compared with its element's
    `_ball_bounds`, and density is the `_reach` sweep over the balls
    (c - r, c + r), whatever their order and repeats.  Coverage is
    `verify_subcover` of the assigned elements in range.  O(N log N + k log k).
    """
    r = certificate.radius
    if r <= 0:
        return [f"radius {render(r)} is not positive"]
    problems: list[str] = []
    points, unit, elements = certificate.points, certificate.unit, certificate.elements
    r_int = r.numerator * (unit // r.denominator)
    lows, highs = _ball_bounds(cover, r_int, unit)
    k = len(lows)
    for i in [i for i, (x, j) in enumerate(zip(points, elements)) if not (0 <= j < k and lows[j] <= x <= highs[j])]:
        j, c = elements[i], Rational(points[i], unit)
        if not 0 <= j < k:
            problems.append(f"assignment {i}: element {render(j)} out of range")
        else:
            e = cover[j]
            problems.append(
                f"ball ({render(c - r)}, {render(c + r)}) around net point "
                f"{render(c)} is not inside element {j} ({render(e.lo)}, {render(e.hi)})"
            )

    assigned = sorted(set(elements))
    if certificate.selected != tuple(assigned):
        problems.append("selected list does not match the set of assigned elements")

    density = _reach(((x - r_int, x + r_int) for x in sorted(points)), unit)
    if isinstance(density, Uncovered):
        problems.append(f"net with radius {render(r)} leaves {render(density.witness)} uncovered")

    coverage = verify_subcover(cover, [j for j in assigned if 0 <= j < k])
    if isinstance(coverage, Uncovered):
        problems.append(f"selected elements leave {render(coverage.witness)} uncovered")
    return problems
