"""Exception types shared across the library.  This module imports none of it: an error is worded where raised.

One ParseError covers all malformed text, machine programs included, and
run-time domain failures (mathematical preconditions that do not hold) have
a hierarchy of their own, so the CLI can map them to distinct exit codes.
"""


class ParseError(ValueError):
    """Malformed textual input: a rational (a zero denominator too), expression, oracle, cover,
    certificate or machine program."""


class DomainError(Exception):
    """Base class for run-time failures of a mathematical precondition."""


class BudgetExceeded(DomainError):
    """A computation would need more work than its cap allows.

    See `rational.MAX_INPUT_LINES`, `rational.MAX_INPUT_CHARS`, `rational.MAX_LINE_CHARS`,
    `cover.MAX_NET_POINTS`, `cover.MAX_SCALED_BITS`, `cover.MAX_COVER_ELEMENTS`, `analysis.MAX_BISECT_STEPS`,
    `analysis.MAX_WAITING_STEPS`, `machine.MAX_INSTRUCTIONS`, `machine.MAX_DOVETAIL_INPUTS`,
    `machine.MAX_DOVETAIL_REGISTERS` and `machine.MAX_INTERPRETED_STEPS`.
    """


class NotSeparated(DomainError):
    """Bisection needs endpoints that receive different labels."""


class NotACover(DomainError):
    """The interval family admits no positive uniform containment radius on [0, 1]."""


class NotNiceCover(DomainError):
    """A containment-radius oracle answered radius_p at p and radius_q, a different radius, at q."""

    def __init__(self, message, p, q, radius_p, radius_q):
        super().__init__(message)
        self.p, self.q, self.radius_p, self.radius_q = p, q, radius_p, radius_q


class NonpositiveRadius(DomainError):
    """A radius that has to be positive was zero or negative."""


class NoContainingElement(DomainError):
    """No cover element contains the requested ball."""
