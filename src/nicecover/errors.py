"""Exception types shared across the library.

Parse-level problems (malformed text, bad program files) and run-time
domain failures (mathematical preconditions that do not hold) are kept in
separate hierarchies so the CLI can map them to distinct exit codes.
"""


class ZeroDenominator(ZeroDivisionError):
    """A rational was given a zero denominator."""


class ParseError(ValueError):
    """Malformed textual input: rational, expression, oracle, cover or certificate."""


class InvalidProgram(ValueError):
    """A machine program failed to load: bad instruction, label, or register."""


class DomainError(Exception):
    """Base class for run-time failures of a mathematical precondition."""


class BudgetExceeded(DomainError):
    """A computation would need more work than its cap allows.

    See `cover.MAX_NET_POINTS`, `analysis.MAX_BISECT_STEPS`,
    `analysis.MAX_WAITING_STEPS` and `machine.MAX_DOVETAIL_INPUTS`.
    """


class NotSeparated(DomainError):
    """Bisection needs endpoints that receive different labels."""


class NotACover(DomainError):
    """The interval family admits no positive uniform containment radius on [0, 1]."""


class NotNiceCover(DomainError):
    """A containment-radius oracle answered differently at two points."""

    def __init__(self, p, q, radius_p, radius_q):
        from .rational import render  # rational imports this module

        super().__init__(
            f"radius oracle disagrees: {render(radius_p)} at {render(p)} "
            f"vs {render(radius_q)} at {render(q)}"
        )
        self.p = p
        self.q = q
        self.radius_p = radius_p
        self.radius_q = radius_q


class NonpositiveRadius(DomainError):
    """A radius that has to be positive was zero or negative."""


class NoContainingElement(DomainError):
    """No cover element contains the requested ball."""
