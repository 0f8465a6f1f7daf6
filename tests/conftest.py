"""Shared program texts, the certificate bounds of `cover subcover`, and the acceptance summary hook."""

import pytest

from nicecover.machine import parse_program


def certificate_bounds(radius):
    """The longest line and the length that `cover subcover` allows for the certificate of a net of `radius`,
    worked out before the net is built: 2d + 22 characters, for d worked out from the bit lengths of the
    radius's numerator and denominator, and (N + 2)(2d + 23) + 6N for the N points of the net."""
    d = max(radius.numerator.bit_length(), radius.denominator.bit_length()) * 30103 // 100000 + 1
    size = -(-radius.denominator // radius.numerator) + 1
    return 2 * d + 22, (size + 2) * (2 * d + 23) + 6 * size


# Counts register 0 down to zero: halts at step 3v + 2 for input v.
COUNTDOWN_TEXT = """\
# drain register 0, then stop
loop: JZ 0 end
      DEC 0
      GOTO loop
end:  HALT
"""

# Never halts, for any input.
LOOPER_TEXT = """\
loop: GOTO loop
"""

# Never halts.  Each outer lap sets register 1 to 2 for the inner loop to drain, too few laps to close, so
# every step runs one by one.
NEST_TEXT = """\
outer: INC 1
       INC 1
inner: JZ 1 next
       DEC 1
       GOTO inner
next:  GOTO outer
"""

# Halts exactly when the input is not a multiple of 3.
MOD3_TEXT = """\
top:  JZ 0 spin
      DEC 0
      JZ 0 done
      DEC 0
      JZ 0 done
      DEC 0
      GOTO top
spin: GOTO spin
done: HALT
"""

# Characters at which str.splitlines() ends a line but a file read in text mode does not
NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.fixture
def countdown():
    return parse_program(COUNTDOWN_TEXT)


@pytest.fixture
def looper():
    return parse_program(LOOPER_TEXT)


@pytest.fixture
def mod3():
    return parse_program(MOD3_TEXT)


@pytest.fixture
def countdown_file(tmp_path):
    path = tmp_path / "countdown.cm"
    path.write_text(COUNTDOWN_TEXT)
    return path


@pytest.fixture
def looper_file(tmp_path):
    path = tmp_path / "looper.cm"
    path.write_text(LOOPER_TEXT)
    return path


# Filled in by the acceptance module; echoed after the run so the verdict
# lines survive pytest's output capture.
ACCEPTANCE_RESULTS: list[tuple[str, bool]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
