"""Waiting sequences, halting probes, and bisection discontinuity search.

Two constructions live here.  The waiting sequence tracks a convergent
target sequence until a monitored machine run halts and then freezes,
which encodes the halting behaviour of the run in the limit of a
constructive real.  The bisection engine takes a discrete-valued map whose
endpoint labels differ and halves the interval while keeping the labels
apart, converging to a discontinuity point.  Both are exact and fully
deterministic.  Every waiting verdict is backed by an actual step-counted
run.  Bisection labels the two endpoints, which must differ; one
`Transcript` holds every row after them in closed form, for the printed
rows and the limit's deeper ones alike, and `bisect_step`, which labels
each midpoint, is the reference those rows agree with.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from math import lcm
from pathlib import Path

from .crn import CRN
from .errors import BudgetExceeded, NotSeparated, ParseError
from .machine import Halted, Program, RunOutcome, parse_program, run_for
from .rational import ONE, Rational, parse_natural, parse_rational, pow2, record, render, render_ratio

# Row i of a transcript holds rationals of about i bits, so a transcript of
# n rows holds about n^2 / 2 bits.  The cap holds for printed transcripts
# and for the rows a bisection limit reads on demand alike.
MAX_BISECT_STEPS = 10**4

# Default cap on the machine steps of one waiting entry.  The entry at
# index i runs i steps and is a rational of about i bits, so the cap bounds
# both the run and the size of the answer.
MAX_WAITING_STEPS = 10**5


def geometric_targets() -> CRN:
    """The built-in target sequence 1 - 2^-i with regulator n -> n."""
    return CRN(approx=lambda i: ONE - pow2(-i), regulator=lambda n: n)


def parse_targets(name: str) -> CRN:
    if name.strip() == "geometric":
        return geometric_targets()
    raise ParseError(f"unknown target sequence {name!r} (expected: geometric)")


@record
class StairMap:
    """Label of t is the number of thresholds that are <= t."""

    thresholds: tuple[Rational, ...]

    def label(self, t: Rational) -> int:
        return sum(1 for c in self.thresholds if c <= t)


def StepMap(threshold: Rational) -> StairMap:
    """Labels 0 strictly below the threshold and 1 at and above it."""
    return StairMap((threshold,))


def parse_oracle(spec: str) -> StairMap:
    """Parse `step@<rational>` or `stair:<r1>,<r2>,...`."""
    s = spec.strip()
    if s.startswith("step@"):
        return StepMap(parse_rational(s[len("step@") :]))
    if s.startswith("stair:"):
        parts = [p for p in s[len("stair:") :].split(",") if p.strip()]
        if not parts:
            raise ParseError("stair oracle needs at least one threshold")
        return StairMap(tuple(parse_rational(p) for p in parts))
    raise ParseError(f"unknown oracle {spec!r} (expected step@<r> or stair:<r1>,...)")


def waiting_crn(
    program: Program,
    input_value: int,
    targets: CRN,
    max_steps: int = MAX_WAITING_STEPS,
) -> CRN:
    """Track `targets` until the monitored run halts, then stay frozen.

    The entry at index i runs the program for exactly i steps: while that
    run is still going the i-th target is returned, and once it halts at
    step k every entry from then on is the k-th target.  The regulator is
    inherited from `targets`: freezing only ever replaces an index by the
    smaller k, and a compared pair is either both frozen (gap zero) or
    both still inside the regulator's safe region.

    `max_steps` (default MAX_WAITING_STEPS) caps the machine work a
    single entry may do; deeper queries raise BudgetExceeded instead of
    running longer.
    """

    def entry(i: int) -> Rational:
        if i > max_steps:
            raise BudgetExceeded(f"index {render(i)} needs {render(i)} steps; cap is {render(max_steps)}")
        outcome = run_for(program, input_value, i)
        if isinstance(outcome, Halted):
            return targets.approx(outcome.steps)
        return targets.approx(i)

    return CRN(approx=entry, regulator=targets.regulator)


def halting_reduction(
    program: Program,
    input_value: int,
    targets: CRN,
    probe_precision: int,
) -> RunOutcome:
    """Probe a waiting value at finite precision; the verdict is step-certified.

    The level-`probe_precision` approximation of the waiting value is
    decided by a run of exactly s = targets.regulator(probe_precision + 1)
    steps, and that one run is all this does; its outcome is the verdict.
    `Halted` gives the exact halting step inside that window; otherwise
    all that is known, and all that is claimed, is `StillRunning(s)`: no
    halt happened within s steps.
    """
    return run_for(program, input_value, targets.regulator(probe_precision + 1))


def bisect_step(pair: tuple[Rational, Rational], f: StairMap) -> tuple[Rational, Rational]:
    """One halving that keeps the endpoint labels different.

    The upper half (mid, hi) is preferred whenever the midpoint label
    differs from the label at hi; otherwise the midpoint label equals the
    one at hi and so differs from the one at lo, and the lower half is
    taken.  The fixed preference keeps transcripts deterministic even when
    the midpoint label differs from both endpoints.  This labels all three
    points; it is the reference the closed-form `Transcript` rows agree with.
    """
    lo, hi = pair
    label_lo, label_hi = f.label(lo), f.label(hi)
    if label_lo == label_hi:
        raise NotSeparated(
            f"labels agree at both endpoints: f({render(lo)}) = f({render(hi)})"
        )
    mid = (lo + hi) / 2
    return (mid, hi) if f.label(mid) != label_hi else (lo, mid)


@record
class TranscriptRow:
    index: int
    lo: Rational
    hi: Rational
    branch: str  # "init" | "upper" | "lower"


class Transcript(Sequence[TranscriptRow]):
    """Rows 0..steps of iterated bisect_step from (lo, hi), each in closed form
    and built only when it is read.

    A label counts the thresholds <= t, so a step keeps the upper half
    exactly when some threshold lies in (mid, hi].  Every row therefore
    encloses c, the largest threshold in (lo, hi].  With w = hi - lo
    and u = (c - lo) / w in (0, 1], row i is lo + k_i * w / 2^i with
    k_i = ceil(u * 2^i) - 1, and it kept the upper half exactly when k_i is
    odd.  Only lo and hi are labelled, once, to check they are separated.
    `row` answers past `steps` too; steps and rows are capped at MAX_BISECT_STEPS.
    """

    def __init__(self, f: StairMap, lo: Rational, hi: Rational, steps: int):
        if steps < 0:
            raise ValueError("steps must be a natural number")
        if steps > MAX_BISECT_STEPS:
            raise BudgetExceeded(
                f"transcript of {render(steps)} steps is longer than MAX_BISECT_STEPS = {MAX_BISECT_STEPS}"
            )
        if not lo < hi:
            raise ValueError("bisection needs lo < hi")
        if f.label(lo) == f.label(hi):
            raise NotSeparated(
                f"labels agree at both endpoints: f({render(lo)}) = f({render(hi)})"
            )
        width = hi - lo
        u = (max(c for c in f.thresholds if lo < c <= hi) - lo) / width
        self._p, self._q = u.numerator, u.denominator
        # lo and w over their least common denominator
        self._den = lcm(lo.denominator, width.denominator)
        self._lo = lo.numerator * (self._den // lo.denominator)
        self._w = width.numerator * (self._den // width.denominator)
        self._len = steps + 1

    def ends(self, i: int) -> tuple[int, int, int, str]:
        """Row i as ints: lo and hi over one denominator, and its branch."""
        if i > MAX_BISECT_STEPS:
            raise BudgetExceeded(
                f"bisection row {render(i)} is past MAX_BISECT_STEPS = {MAX_BISECT_STEPS}"
            )
        k = -((-self._p << i) // self._q) - 1
        branch = "init" if i == 0 else "upper" if k & 1 else "lower"
        base = (self._lo << i) + k * self._w
        return base, base + self._w, self._den << i, branch

    def row(self, i: int) -> TranscriptRow:
        lo, hi, den, branch = self.ends(i)
        return TranscriptRow(i, Rational(lo, den), Rational(hi, den), branch)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int | slice) -> TranscriptRow | list[TranscriptRow]:
        found = range(self._len)[i]  # a slice gives a list of rows, as list(self)[i] does
        return list(map(self.row, found)) if isinstance(i, slice) else self.row(found)

    def lines(self) -> Iterator[str]:
        """The rows as TSV lines `index lo hi branch`.  A row renders only the
        endpoint that moved; an upper row keeps hi's text, a lower row lo's."""
        for i in range(self._len):
            lo_num, hi_num, den, branch = self.ends(i)
            if branch != "lower":
                lo = render_ratio(lo_num, den)
            if branch != "upper":
                hi = render_ratio(hi_num, den)
            yield f"{i}\t{lo}\t{hi}\t{branch}\n"


def bisect_to_precision(
    f: StairMap, lo: Rational, hi: Rational, steps: int
) -> tuple[CRN, Transcript]:
    """Run `steps` halvings; return the limit as a CRN plus the transcript.

    The transcript covers rows 0..steps and satisfies, exactly, width
    halving, nesting, and label separation at every row; it is a lazy
    sequence that builds a row only when it is read.  The returned CRN
    reads rows past `steps` when deeper approximations are requested.  Its
    regulator, the least i >= 0 with (hi - lo) * 2^-i < 2^-m, is max(0, m + j)
    for the least j with hi - lo < 2^j, which bit lengths give up to one.
    A transcript of more than MAX_BISECT_STEPS halvings, and a lazy row
    past that index, raise BudgetExceeded.
    """
    transcript = Transcript(f, lo, hi, steps)
    width = hi - lo
    j = width.numerator.bit_length() - width.denominator.bit_length()
    if not width < pow2(j):
        j += 1
    return CRN(approx=lambda i: transcript.row(i).lo, regulator=lambda m: max(0, m + j)), transcript


def bisect_limit(f: StairMap, lo: Rational, hi: Rational) -> CRN:
    """The bisection limit alone, with the transcript left implicit."""
    return bisect_to_precision(f, lo, hi, 0)[0]


def expression_builtins() -> dict[str, Callable[[Sequence[str]], CRN]]:
    """Named constructors available inside value expressions.

    `waiting(PROG_FILE, INPUT[, TARGETS])` builds a waiting value over the
    named target sequence (default geometric), each entry capped at
    MAX_WAITING_STEPS steps; `bisect_limit(ORACLE, LO, HI)`
    builds a bisection limit.
    """
    return {"waiting": _waiting_builtin, "bisect_limit": _bisect_limit_builtin}


def _waiting_builtin(args: Sequence[str]) -> CRN:
    if len(args) not in (2, 3):
        raise ParseError("waiting expects (PROG_FILE, INPUT[, TARGETS])")
    try:
        program = parse_program(Path(args[0]))
    except OSError as exc:
        raise ParseError(f"cannot read program {args[0]!r}: {exc}") from exc
    input_value = parse_natural(args[1])
    targets = parse_targets(args[2]) if len(args) == 3 else geometric_targets()
    return waiting_crn(program, input_value, targets)


def _bisect_limit_builtin(args: Sequence[str]) -> CRN:
    if len(args) < 3:
        raise ParseError("bisect_limit expects (ORACLE, LO, HI)")
    # a stair oracle carries commas of its own; the final two arguments
    # are always LO and HI, everything before them is the oracle
    f = parse_oracle(",".join(args[:-2]))
    lo = parse_rational(args[-2])
    hi = parse_rational(args[-1])
    return bisect_limit(f, lo, hi)
