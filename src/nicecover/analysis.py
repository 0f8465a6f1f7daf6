"""Waiting sequences, halting probes, and bisection discontinuity search.

Two constructions live here.  The waiting sequence tracks a convergent
target sequence until a monitored machine run halts and then freezes,
which encodes the halting behaviour of the run in the limit of a
constructive real.  The bisection engine takes a discrete-valued map whose
endpoint labels differ and halves the interval while keeping the labels
apart, converging to a discontinuity point.  Both are exact and fully
deterministic, and every verdict they produce is backed by an actual
step-counted run or label evaluation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Sequence

from .crn import CRN
from .errors import BudgetExceeded, NotSeparated, ParseError
from .machine import Halted, Program, load_program, run_for
from .rational import ONE, Rational, parse_natural, parse_rational, pow2, render

# Row i of a transcript holds rationals of about i bits, so a transcript of
# n rows holds about n^2 / 2 bits.  The cap holds for printed transcripts
# and for the rows a bisection limit builds lazily alike.
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


@dataclass(frozen=True)
class StepMap:
    """Labels 0 strictly below the threshold and 1 at and above it."""

    threshold: Rational

    def label(self, t: Rational) -> int:
        return 0 if t < self.threshold else 1


@dataclass(frozen=True)
class StairMap:
    """Label of t is the number of thresholds that are <= t."""

    thresholds: tuple[Rational, ...]

    def label(self, t: Rational) -> int:
        return sum(1 for c in self.thresholds if c <= t)


DiscreteMap = StepMap | StairMap


def parse_oracle(spec: str) -> DiscreteMap:
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
            raise BudgetExceeded(f"index {i} needs {i} steps; cap is {max_steps}")
        outcome = run_for(program, input_value, i)
        if isinstance(outcome, Halted):
            return targets.approx(outcome.steps)
        return targets.approx(i)

    return CRN(approx=entry, regulator=targets.regulator)


@dataclass(frozen=True)
class HaltsAt:
    steps: int


@dataclass(frozen=True)
class NoHaltWithin:
    steps: int


def halting_reduction(
    program: Program,
    input_value: int,
    targets: CRN,
    probe_precision: int,
) -> HaltsAt | NoHaltWithin:
    """Probe a waiting value at finite precision; the verdict is step-certified.

    The level-`probe_precision` approximation of the waiting value is
    decided by a run of exactly s = targets.regulator(probe_precision + 1)
    steps, and that one run is all this does.  A halt inside that window
    is reported with its exact step count; otherwise all that is known,
    and all that is claimed, is that no halt happened within s steps.
    """
    probed_steps = targets.regulator(probe_precision + 1)
    outcome = run_for(program, input_value, probed_steps)
    if isinstance(outcome, Halted):
        return HaltsAt(outcome.steps)
    return NoHaltWithin(probed_steps)


def bisect_step(
    pair: tuple[Rational, Rational],
    f: DiscreteMap,
    labels: tuple[int, int] | None = None,
) -> tuple[Rational, Rational] | tuple[tuple[Rational, Rational], tuple[int, int]]:
    """One halving that keeps the endpoint labels different.

    The upper half (mid, hi) is preferred whenever the midpoint label
    differs from the label at hi; otherwise the midpoint label equals the
    one at hi and so differs from the one at lo, and the lower half is
    taken.  The fixed preference keeps transcripts deterministic even when
    the midpoint label differs from both endpoints.

    Without `labels` the next pair is returned.  A caller that already
    knows the labels of lo and hi passes them as `labels`; then only the
    midpoint is labelled, and the next pair comes back with its labels,
    as `(pair, labels)`, ready for the following step.
    """
    lo, hi = pair
    label_lo, label_hi = (f.label(lo), f.label(hi)) if labels is None else labels
    if label_lo == label_hi:
        raise NotSeparated(
            f"labels agree at both endpoints: f({render(lo)}) = f({render(hi)})"
        )
    mid = (lo + hi) / 2
    label_mid = f.label(mid)
    if label_mid != label_hi:
        halved, kept = (mid, hi), (label_mid, label_hi)
    else:
        halved, kept = (lo, mid), (label_lo, label_mid)
    return halved if labels is None else (halved, kept)


@dataclass(frozen=True)
class TranscriptRow:
    index: int
    lo: Rational
    hi: Rational
    branch: str  # "init" | "upper" | "lower"


class _BisectionChain:
    """Nested pairs extended on demand, at most MAX_BISECT_STEPS of them.

    The labels of the last row's endpoints are carried to the next step,
    so each new row labels its midpoint alone.  Extension is guarded by a
    lock so concurrent queries of the limit see one consistent chain;
    answers do not depend on timing.
    """

    def __init__(self, f: DiscreteMap, lo: Rational, hi: Rational):
        if not lo < hi:
            raise ValueError("bisection needs lo < hi")
        self._labels = (f.label(lo), f.label(hi))  # of the last row's endpoints
        if self._labels[0] == self._labels[1]:
            raise NotSeparated(
                f"labels agree at both endpoints: f({render(lo)}) = f({render(hi)})"
            )
        self._f = f
        self._rows = [TranscriptRow(0, lo, hi, "init")]
        self._lock = threading.Lock()

    def row(self, i: int) -> TranscriptRow:
        if i > MAX_BISECT_STEPS:
            raise BudgetExceeded(
                f"bisection row {i} is past MAX_BISECT_STEPS = {MAX_BISECT_STEPS}"
            )
        with self._lock:
            while len(self._rows) <= i:
                last = self._rows[-1]
                (nxt_lo, nxt_hi), self._labels = bisect_step(
                    (last.lo, last.hi), self._f, self._labels
                )
                branch = "upper" if nxt_lo != last.lo else "lower"
                self._rows.append(TranscriptRow(len(self._rows), nxt_lo, nxt_hi, branch))
            return self._rows[i]


def _chain_crn(chain: _BisectionChain, width0: Rational) -> CRN:
    """The limit of `chain`, whose row i has width width0 * 2^-i.

    The regulator is the least i >= 0 with width0 * 2^-i < 2^-m.  With j
    the least integer such that width0 < 2^j, that is max(0, m + j); the
    bit lengths of width0's numerator and denominator give j up to one.
    """
    j = width0.numerator.bit_length() - width0.denominator.bit_length()
    if not width0 < pow2(j):
        j += 1
    return CRN(approx=lambda i: chain.row(i).lo, regulator=lambda m: max(0, m + j))


def bisect_to_precision(
    f: DiscreteMap, lo: Rational, hi: Rational, steps: int
) -> tuple[CRN, list[TranscriptRow]]:
    """Run `steps` halvings; return the limit as a CRN plus the transcript.

    The transcript covers rows 0..steps and satisfies, exactly, width
    halving, nesting, and label separation at every row.  The returned CRN
    keeps bisecting lazily past `steps` when deeper approximations are
    requested; its regulator is the first index at which the initial width
    scaled by 2^-i drops below 2^-m.  A transcript of more than
    MAX_BISECT_STEPS halvings, and a lazy row past that index, raise
    BudgetExceeded.
    """
    if steps < 0:
        raise ValueError("steps must be a natural number")
    if steps > MAX_BISECT_STEPS:
        raise BudgetExceeded(
            f"transcript of {steps} steps is longer than MAX_BISECT_STEPS = {MAX_BISECT_STEPS}"
        )
    chain = _BisectionChain(f, lo, hi)
    rows = [chain.row(i) for i in range(steps + 1)]
    return _chain_crn(chain, hi - lo), rows


def bisect_limit(f: DiscreteMap, lo: Rational, hi: Rational) -> CRN:
    """The bisection limit alone, with the transcript left implicit."""
    limit, _ = bisect_to_precision(f, lo, hi, 0)
    return limit


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
        program = load_program(args[0])
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
