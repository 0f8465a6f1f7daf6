"""Resource contract of the commands: hostile input ends in its exact exit
code within a wall time and an address-space limit, never in a traceback,
and a refusal (exit 1) names the cap it hit.  Each cap is met at the cap and
one past it.  A case may also bound its exact stdout (with an empty stderr,
unless it gives the stderr too) or the length and SHA-256 of a long stdout,
its wall time below the 10 s default, and its own peak resident memory.

Each case runs one at a time, through a small launcher process.  The
launcher forks a child, sets the limits on it alone, runs the command in it,
waits for it with `os.wait4` and reports its exit status and peak RSS.  A
child's peak RSS starts at its parent's resident size, so a peak measured
from the launcher is the command's own, whatever ran before it and however
large pytest has grown.  Cases that take about a second or more are marked
`slow` and run apart from tier-1: `pytest -m slow`.
"""

import hashlib
import os
import re
import resource
import signal
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

from conftest import COUNTDOWN_TEXT, LOOPER_TEXT, NEST_TEXT, certificate_bounds
from nicecover.analysis import MAX_BISECT_STEPS, MAX_WAITING_STEPS
from nicecover.cover import (MAX_COVER_ELEMENTS, MAX_NET_POINTS, MAX_SCALED_BITS, ConstantModulus,
                             extract_finite_subcover, lebesgue_number, parse_cover, render_certificate)
from nicecover.expressions import MAX_DEPTH
from nicecover.machine import (MAX_DOVETAIL_INPUTS, MAX_DOVETAIL_REGISTERS, MAX_INSTRUCTIONS, MAX_INTERPRETED_STEPS,
                               MAX_REGISTER, MAX_TRACED_STEPS)
from nicecover.rational import MAX_INPUT_CHARS, MAX_INPUT_LINES, MAX_LINE_CHARS, render

ADDRESS_SPACE = 512 * 2**20
WALL_SECONDS = 10
SRC = str(Path(__file__).resolve().parents[1] / "src")
CAP_NAMED = re.compile(r"(MAX_[A-Z_]+ = \d+|cap is \d+)")
# `python -S -c LAUNCHER REPORT SECONDS ARGV...` runs `python -m nicecover ARGV...` in a child under the
# address-space limit and a real-time timer of SECONDS, which a child keeps across exec and whose SIGALRM
# ends it, then writes the child's exit status and peak RSS in KB to the file descriptor REPORT.
LAUNCHER = f"""
import os, resource, signal, sys
report, seconds, *argv = sys.argv[1:]
pid = os.fork()
if pid == 0:
    os.close(int(report))
    resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE}))
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    os.execv(sys.executable, [sys.executable, "-m", "nicecover", *argv])
_, status, usage = os.wait4(pid, 0)
os.write(int(report), f"{{os.waitstatus_to_exitcode(status)}} {{usage.ru_maxrss}}".encode())
"""


def labels(count):
    return "".join(f"l{i}:\n" for i in range(count)) + "HALT\n"


def transfers(count, length):
    # `count` loops in a row, loop i moving register i % 2 into the other one, then HALT, padded with HALTs to
    # `length` instructions: input v halts at step count * (4v + 1) + 1, and each loop header traces one lap
    loops = "".join(f"l{i}: JZ {i % 2} n{i}\nDEC {i % 2}\nINC {1 - i % 2}\nGOTO l{i}\nn{i}:\n" for i in range(count))
    return loops + "HALT\n" * (length - 4 * count)


# The table of traced laps holds MAX_TRACED_STEPS // length laps for a program of `length` instructions.  HEADERS
# is the most loops of `transfers` whose laps it holds at once, in a program of TRANSFERS_LENGTH instructions.
HEADERS = max(h for h in range(1, isqrt(MAX_TRACED_STEPS)) if h * (4 * h + 1) <= MAX_TRACED_STEPS)
TRANSFERS_LENGTH = MAX_TRACED_STEPS // HEADERS
TRANSFER_INPUTS = range(10**6, 10**6 + 100)


def intervals(count):
    # element i is (-1/(i+1), (i+2)/(i+1)): each one alone covers [0, 1]
    return "".join(f"-1/{i + 1} {i + 2}/{i + 1}\n" for i in range(1, count + 1))


def certificate(unit):
    # the net of radius 1/unit, each point assigned to element 0
    return f"r=1/{unit}\n" + "".join(f"net {x}/{unit} -> element 0\n" for x in range(unit + 1)) + "selected 0\n"


def padded(pad, body, past):
    # `pad` lines before `body`, MAX_INPUT_LINES lines in all and `past` more
    return pad * (MAX_INPUT_LINES + past - body.count("\n")) + body


def widened(body, past):
    # one blank line of MAX_LINE_CHARS spaces and `past` more, before `body`
    return " " * (MAX_LINE_CHARS + past) + "\n" + body


def filled(body, past):
    # comment lines of at most MAX_LINE_CHARS characters after `body`: MAX_INPUT_CHARS characters in all and `past` more
    lines, rest = divmod(MAX_INPUT_CHARS + past - len(body), MAX_LINE_CHARS)
    return body + ("#" * (MAX_LINE_CHARS - 1) + "\n") * lines + ("#" * (rest - 1) + "\n" if rest else "")


def odd_primes(below):
    sieve = bytearray([1]) * below
    for n in range(3, isqrt(below) + 1, 2):
        if sieve[n]:
            sieve[n * n :: 2 * n] = bytes(len(range(n * n, below, 2 * n)))
    return [n for n in range(3, below, 2) if sieve[n]]


def coprime_net(count):
    # `count` net points with the first odd primes as denominators, 1/p for all but the last, which is (p - 1)/p:
    # at radius 1/2 each ball fits the cover `whole`, and together they cover [0, 1]
    primes = odd_primes(10**5)[:count]
    points = [f"1/{p}" for p in primes[:-1]] + [f"{primes[-1] - 1}/{primes[-1]}"]
    return "r=1/2\n" + "".join(f"net {x} -> element 0\n" for x in points) + "selected 0\n"


def most_coprime_points():
    # n points of `coprime_net` are refused when n times the bits that their common denominator adds to the
    # radius's denominator 2 is past MAX_SCALED_BITS: the most that are not
    unit = 2
    for n, p in enumerate(odd_primes(10**5), 1):
        unit *= p
        if n * (unit.bit_length() - 2) > MAX_SCALED_BITS:
            return n - 1


# 1/2 + 1/10^5 + 1/(10^2000 + 1) and 1/2 - 1/10^5 - 1/(10^2000 + 3): an 8 KB cover whose certificate would have
# 100,001 net lines of about 8,000 characters
EIGHT_KB = (Fraction(1, 2) + Fraction(1, 10**5) + Fraction(1, 10**2000 + 1),
            Fraction(1, 2) - Fraction(1, 10**5) - Fraction(1, 10**2000 + 3))
# a net of MAX_NET_POINTS points with the widest lines that `cover subcover` writes: its radius's denominator is
# just under 2^63, and from 2^63 on the certificate could pass MAX_INPUT_CHARS
WIDEST = Fraction(9 * 10**12 + 1, (9 * 10**12 + 1) * (MAX_NET_POINTS - 2) + 1)


# Input files by name, each built in the cases' folder the first time a case names it.
FILES = {
    "countdown": lambda: COUNTDOWN_TEXT,
    "looper": lambda: LOOPER_TEXT,
    "nest": lambda: NEST_TEXT,
    # one instruction per line up to the cap, and one past it
    "at-cap": lambda: "INC 1\n" * (MAX_INSTRUCTIONS - 1) + "HALT\n",
    "past-cap": lambda: "INC 1\n" * MAX_INSTRUCTIONS + "HALT\n",
    # a long program: a dovetail's run states must not grow with its length
    "long": lambda: "INC 1\n" * 3000 + "HALT\n",
    # the largest register, whose runs each hold 1,024 registers in a dovetail, and one past it
    "wide": lambda: f"INC {MAX_REGISTER}\nHALT\n",
    "wider": lambda: f"INC {MAX_REGISTER + 1}\nHALT\n",
    # as many loop headers as the table of traced laps holds, and one more, in a program of the same length
    "headers-at-cap": lambda: transfers(HEADERS, TRANSFERS_LENGTH),
    "headers-past-cap": lambda: transfers(HEADERS + 1, TRANSFERS_LENGTH),
    # label-only lines up to the cap, one past it, and 20 times the cap
    "labels-at-cap": lambda: labels(MAX_INSTRUCTIONS),
    "labels-past-cap": lambda: labels(MAX_INSTRUCTIONS + 1),
    "labels-2e6": lambda: labels(2 * 10**6),
    "two": lambda: "-1/10 6/10\n4/10 11/10\n",
    "whole": lambda: "-1 2\n",
    "cover-at-cap": lambda: intervals(MAX_COVER_ELEMENTS),
    "cover-past-cap": lambda: intervals(MAX_COVER_ELEMENTS + 1),
    "cover-1e6": lambda: intervals(10**6),
    "small-cert": lambda: certificate(4),
    # net lines up to the cap, and one past it
    "cert-at-cap": lambda: certificate(MAX_NET_POINTS - 1),
    "cert-past-cap": lambda: certificate(MAX_NET_POINTS),
    # what `cover subcover` prints for `two` at a net of MAX_NET_POINTS points
    "two-cert-at-cap": lambda: "".join(render_certificate(
        extract_finite_subcover(parse_cover(FILES["two"]()), ConstantModulus(Fraction(1, MAX_NET_POINTS - 1))))),
    # comment or blank lines before a valid body: MAX_INPUT_LINES lines in all, one more, and 10^7 in all
    "cover-comments-at-cap": lambda: padded("#\n", "-1 2\n", 0),
    "cover-comments-past-cap": lambda: padded("#\n", "-1 2\n", 1),
    "cover-comments-1e7": lambda: "#\n" * 10**7 + "-1 2\n",
    "cover-blanks-at-cap": lambda: padded("\n", "-1 2\n", 0),
    "cover-blanks-past-cap": lambda: padded("\n", "-1 2\n", 1),
    "prog-comments-at-cap": lambda: padded("#\n", "HALT\n", 0),
    "prog-comments-past-cap": lambda: padded("#\n", "HALT\n", 1),
    "prog-comments-1e7": lambda: "#\n" * 10**7 + "HALT\n",
    "prog-blanks-at-cap": lambda: padded("\n", "HALT\n", 0),
    "prog-blanks-past-cap": lambda: padded("\n", "HALT\n", 1),
    "cert-blanks-at-cap": lambda: padded("\n", certificate(4), 0),
    "cert-blanks-past-cap": lambda: padded("\n", certificate(4), 1),
    # a line of MAX_LINE_CHARS characters before a valid body, and one of a character more
    "cover-line-at-cap": lambda: widened("-1 2\n", 0),
    "cover-line-past-cap": lambda: widened("-1 2\n", 1),
    "prog-line-at-cap": lambda: widened("HALT\n", 0),
    "prog-line-past-cap": lambda: widened("HALT\n", 1),
    "cert-line-at-cap": lambda: widened(certificate(4), 0),
    "cert-line-past-cap": lambda: widened(certificate(4), 1),
    # MAX_INPUT_CHARS characters of input, and one more
    "cover-chars-at-cap": lambda: filled("-1 2\n", 0),
    "cover-chars-past-cap": lambda: filled("-1 2\n", 1),
    "eight-kb": lambda: f"-1 {EIGHT_KB[0]}\n{EIGHT_KB[1]} 2\n",
    # nets of pairwise coprime denominators, the most points within MAX_SCALED_BITS and one more
    "scaled-bits-at-cap": lambda: coprime_net(most_coprime_points()),
    "scaled-bits-past-cap": lambda: coprime_net(most_coprime_points() + 1),
}
LAST = str(MAX_DOVETAIL_INPUTS - 1)
WIDE_RUNS = MAX_DOVETAIL_REGISTERS // (MAX_REGISTER + 1)
TOO_LONG = f"budget-exceeded input line 1 has more than MAX_LINE_CHARS = {MAX_LINE_CHARS} characters\n"
TOO_MANY_LINES = f"budget-exceeded input has more than MAX_INPUT_LINES = {MAX_INPUT_LINES} lines\n"
TOO_MANY_CHARS = f"budget-exceeded input has more than MAX_INPUT_CHARS = {MAX_INPUT_CHARS} characters\n"


def case(argv, code, slow=False, name=None, **bounds):
    """A case of `run_bounded`; `bounds` are its optional `stdout`, `stderr`, `digest`, `seconds` and `peak_mb`."""
    return pytest.param(argv, code, bounds, marks=[pytest.mark.slow] if slow else [], id=name or " ".join(argv)[:80])


MACHINE_CASES = [
    case(["machine", "run", "--prog", "at-cap", "--input", "0", "--budget", "10"], 0),
    case(["machine", "run", "--prog", "past-cap", "--input", "0", "--budget", "10"], 1, seconds=2,
         stdout=f"budget-exceeded program has more than MAX_INSTRUCTIONS = {MAX_INSTRUCTIONS} instructions\n"),
    case(["machine", "dovetail", "--prog", "past-cap", "--inputs", "0..3", "--budget", "10"], 1),
    case(["waiting", "approx", "--prog", "past-cap", "--input", "0", "--prec", "4"], 1),
    case(["reduce", "--prog", "past-cap", "--input", "0", "--prec", "4"], 1),
    case(["machine", "run", "--prog", "countdown", "--input", "9" * 4300, "--budget", "9" * 4300], 0),
    case(["machine", "dovetail", "--prog", "long", "--inputs", "0.." + LAST, "--budget", "1"], 0, stdout="", peak_mb=128),
    case(["machine", "dovetail", "--prog", "wide", "--inputs", "0.." + LAST, "--budget", "1"], 1, seconds=2,
         stdout=f"budget-exceeded {MAX_DOVETAIL_INPUTS} inputs of 1024 registers each need more than "
                f"MAX_DOVETAIL_REGISTERS = {MAX_DOVETAIL_REGISTERS} registers\n"),
    case(["machine", "dovetail", "--prog", "countdown", "--inputs", f"0..{MAX_DOVETAIL_INPUTS}", "--budget", "1"], 1),
    # the most runs of the widest program that MAX_DOVETAIL_REGISTERS holds, and one more
    case(["machine", "dovetail", "--prog", "wide", "--inputs", f"0..{WIDE_RUNS - 1}", "--budget", "1"], 0, stdout="",
         seconds=2, peak_mb=128),
    case(["machine", "dovetail", "--prog", "wide", "--inputs", f"0..{WIDE_RUNS}", "--budget", "1"], 1, seconds=2,
         stdout=f"budget-exceeded {WIDE_RUNS + 1} inputs of {MAX_REGISTER + 1} registers each need more than "
                f"MAX_DOVETAIL_REGISTERS = {MAX_DOVETAIL_REGISTERS} registers\n"),
    # every run of the widest dovetail advances, to its halt at step 3v + 2
    case(["machine", "dovetail", "--prog", "countdown", "--inputs", "0.." + LAST, "--budget", "1000000000000"], 0,
         slow=True, seconds=5, peak_mb=96,
         stdout="".join(f"input={v} steps={3 * v + 2}\n" for v in range(MAX_DOVETAIL_INPUTS))),
    case(["waiting", "approx", "--prog", "looper", "--input", "0", "--prec", "1000000"], 1),
    # precision n reads the entry at index n + 1, which runs n + 1 steps
    case(["waiting", "approx", "--prog", "looper", "--input", "0", "--prec", str(MAX_WAITING_STEPS - 1)], 0, seconds=2,
         stdout=f"{render(1 - Fraction(1, 2**MAX_WAITING_STEPS))} ± 2^-{MAX_WAITING_STEPS - 1}\n"),
    case(["waiting", "approx", "--prog", "looper", "--input", "0", "--prec", str(MAX_WAITING_STEPS)], 1, seconds=2,
         stdout=f"budget-exceeded index {MAX_WAITING_STEPS + 1} needs {MAX_WAITING_STEPS + 1} steps; "
                f"cap is {MAX_WAITING_STEPS}\n"),
    case(["machine", "run", "--prog", "wide", "--input", "0", "--budget", "10"], 0, stdout="halted steps=2\n"),
    case(["machine", "run", "--prog", "wider", "--input", "0", "--budget", "10"], 2, stdout="",
         stderr=f"error: line 1: register {MAX_REGISTER + 1} is above MAX_REGISTER = {MAX_REGISTER}\n"),
    # every step of `nest` runs one by one
    case(["machine", "run", "--prog", "nest", "--input", "0", "--budget", str(MAX_INTERPRETED_STEPS)], 0, slow=True,
         seconds=5, stdout=f"still-running budget={MAX_INTERPRETED_STEPS}\n"),
    case(["machine", "run", "--prog", "nest", "--input", "0", "--budget", str(MAX_INTERPRETED_STEPS + 1)], 1, slow=True,
         seconds=5, stdout=f"budget-exceeded more than MAX_INTERPRETED_STEPS = {MAX_INTERPRETED_STEPS} steps would "
                           f"run one by one\n"),
    # all runs of a dovetail share the table, which the program past the cap keeps clearing and tracing again
    *(case(["machine", "dovetail", "--prog", f"headers-{at}", "--inputs",
            f"{TRANSFER_INPUTS[0]}..{TRANSFER_INPUTS[-1]}", "--budget", str(10**12)], 0, seconds=2, peak_mb=32,
           stdout="".join(f"input={v} steps={count * (4 * v + 1) + 1}\n" for v in TRANSFER_INPUTS))
      for at, count in [("at-cap", HEADERS), ("past-cap", HEADERS + 1)]),
    case(["reduce", "--prog", "nest", "--input", "0", "--prec", "1000000000"], 1, slow=True),
    case(["reduce", "--prog", "countdown", "--input", "9" * 4300, "--prec", "40"], 0),
    case(["machine", "run", "--prog", "labels-at-cap", "--input", "0", "--budget", "10"], 0),
    case(["machine", "run", "--prog", "labels-past-cap", "--input", "0", "--budget", "10"], 1),
    case(["machine", "run", "--prog", "labels-2e6", "--input", "0", "--budget", "10"], 1, slow=True, seconds=2,
         stdout=f"budget-exceeded program has more than MAX_INSTRUCTIONS = {MAX_INSTRUCTIONS} labels\n"),
    case(["waiting", "approx", "--prog", "at-cap", "--input", "0", "--prec", "4"], 0),
    case(["reduce", "--prog", "at-cap", "--input", "0", "--prec", "4"], 0),
    *(case(["machine", "run", "--prog", f"prog-{pad}-{at}", "--input", "0", "--budget", "10"], code)
      for pad in ("comments", "blanks") for at, code in [("at-cap", 0), ("past-cap", 1)]),
    # the other commands that read a program, on comment-line files
    *(case([*command, "--prog", f"prog-comments-{at}", *rest], code, slow=True)
      for command, rest in [(["machine", "dovetail"], ["--inputs", "0..3", "--budget", "10"]),
                            (["waiting", "approx"], ["--input", "0", "--prec", "4"]),
                            (["reduce"], ["--input", "0", "--prec", "4"])]
      for at, code in [("at-cap", 0), ("past-cap", 1)]),
    case(["machine", "run", "--prog", "prog-comments-1e7", "--input", "0", "--budget", "10"], 1, slow=True, seconds=2,
         stdout=TOO_MANY_LINES),
    case(["machine", "run", "--prog", "prog-line-at-cap", "--input", "0", "--budget", "10"], 0, peak_mb=32),
    case(["machine", "run", "--prog", "prog-line-past-cap", "--input", "0", "--budget", "10"], 1, peak_mb=32,
         stdout=TOO_LONG),
]


def nested(levels):
    # each parenthesis pair is one level, and so is the literal inside
    return "(" * (levels - 1) + "1" + ")" * (levels - 1)


APPROX = ["crn", "approx", "--prec", "3", "--expr"]
# about 120 KB, under Linux's 128 KiB limit on one argument
FLAT_TERMS = 30_000
FLAT_SUM = " + ".join(["1"] * FLAT_TERMS)

BISECT = ["--oracle", "step@1/3", "--lo", "0", "--hi", "1", "--transcript", "rows.tsv"]
# the enclosure of 1/3 after n halvings of [0, 1] is (floor(2^n / 3) / 2^n, that + 2^-n)
LO, WIDTH = Fraction(2**MAX_BISECT_STEPS // 3, 2**MAX_BISECT_STEPS), Fraction(1, 2**MAX_BISECT_STEPS)
LIMIT = ["crn", "approx", "--expr", "bisect_limit(step@1/3, 0, 1)", "--prec"]
COVER_COMMANDS = [["lebesgue"], ["subcover", "--modulus", "const:1/4"], ["verify", "--selected", "0"],
                  ["verify-cert", "--cert", "small-cert"]]
TOO_MANY_INTERVALS = f"budget-exceeded cover has more than MAX_COVER_ELEMENTS = {MAX_COVER_ELEMENTS} intervals\n"
OTHER_CASES = [
    case(["rat", nested(MAX_DEPTH)], 0, name=f"rat nested {MAX_DEPTH} levels"),
    case(["rat", nested(MAX_DEPTH + 1)], 2, name=f"rat nested {MAX_DEPTH + 1} levels"),
    case([*APPROX, nested(MAX_DEPTH)], 0, name=f"crn approx nested {MAX_DEPTH} levels", seconds=2, peak_mb=32,
         stdout="1 ± 2^-3\n"),
    case([*APPROX, nested(MAX_DEPTH + 1)], 2, name=f"crn approx nested {MAX_DEPTH + 1} levels", seconds=2, peak_mb=32),
    # refused at the join past the cap, before the rest of the tree is built
    *(case([*command, FLAT_SUM], 2, name=f"{name} flat sum of {FLAT_TERMS} terms", seconds=2, peak_mb=32)
      for name, command in [("rat", ["rat"]), ("crn approx", APPROX)]),
    case(["rat", "9" * 4301], 0, name="rat 4301 digits"),
    # the limit's approximation at precision n reads row n + 2
    case([*LIMIT, str(MAX_BISECT_STEPS - 2)], 0),
    case([*LIMIT, str(MAX_BISECT_STEPS - 1)], 1, stdout=f"budget-exceeded bisection row {MAX_BISECT_STEPS + 1} "
         f"is past MAX_BISECT_STEPS = {MAX_BISECT_STEPS}\n"),
    case(["bisect", "--steps", str(MAX_BISECT_STEPS), *BISECT], 0, slow=True, peak_mb=64,
         stdout=f"steps={MAX_BISECT_STEPS}\nlo={LO}\nhi={LO + WIDTH}\nwidth={WIDTH}\n"),
    case(["bisect", "--steps", str(MAX_BISECT_STEPS + 1), *BISECT], 1),
    # nets of MAX_NET_POINTS points and of one more; the certificate is written a few thousand lines at a time
    case(["cover", "subcover", "--cover", "two", "--modulus", f"const:1/{MAX_NET_POINTS - 1}"], 0, slow=True, peak_mb=100,
         digest=(30115060, "3aae890815f3f907558537e7bda69e173039c0efaf5e9fe33a8eb2a5913ae0c7")),
    case(["cover", "subcover", "--cover", "two", "--modulus", f"const:1/{MAX_NET_POINTS}"], 1,
         stdout=f"budget-exceeded net spacing 1/{MAX_NET_POINTS} needs {MAX_NET_POINTS + 1} points, "
                f"more than MAX_NET_POINTS = {MAX_NET_POINTS}\n"),
    case(["cover", "verify-cert", "--cover", "two", "--cert", "two-cert-at-cap"], 0, slow=True, stdout="certificate-ok\n",
         peak_mb=150),
    *(case(["cover", *command, "--cover", "cover-at-cap"], 0, slow=True) for command in COVER_COMMANDS),
    *(case(["cover", *command, "--cover", "cover-past-cap"], 1) for command in COVER_COMMANDS),
    # ten times the cap is refused as soon, by a command that needs one element and one that needs all
    *(case(["cover", *command, "--cover", "cover-1e6"], 1, slow=True, seconds=2, stdout=TOO_MANY_INTERVALS)
      for command in COVER_COMMANDS[:2]),
    case(["cover", "verify-cert", "--cover", "whole", "--cert", "cert-at-cap"], 0, slow=True),
    case(["cover", "verify-cert", "--cover", "whole", "--cert", "cert-past-cap"], 1),
    *(case(["cover", "lebesgue", "--cover", f"cover-{pad}-{at}"], code)
      for pad in ("comments", "blanks") for at, code in [("at-cap", 0), ("past-cap", 1)]),
    # the other commands that read a cover alone, on comment-line files
    *(case(["cover", *command, "--cover", f"cover-comments-{at}"], code, slow=True)
      for command in COVER_COMMANDS[1:3] for at, code in [("at-cap", 0), ("past-cap", 1)]),
    case(["cover", "lebesgue", "--cover", "cover-comments-1e7"], 1, slow=True, seconds=2, peak_mb=64,
         stdout=TOO_MANY_LINES),
    case(["cover", "verify-cert", "--cover", "whole", "--cert", "cert-blanks-at-cap"], 0),
    case(["cover", "verify-cert", "--cover", "whole", "--cert", "cert-blanks-past-cap"], 1),
    case(["cover", "verify-cert", "--cover", "cover-comments-past-cap", "--cert", "small-cert"], 1),
    case(["cover", "lebesgue", "--cover", "cover-line-at-cap"], 0, peak_mb=32),
    case(["cover", "lebesgue", "--cover", "cover-line-past-cap"], 1, peak_mb=32, stdout=TOO_LONG),
    case(["cover", "verify-cert", "--cover", "whole", "--cert", "cert-line-at-cap"], 0, peak_mb=32),
    case(["cover", "verify-cert", "--cover", "whole", "--cert", "cert-line-past-cap"], 1, peak_mb=32, stdout=TOO_LONG),
    case(["cover", "lebesgue", "--cover", "cover-chars-at-cap"], 0, seconds=2, peak_mb=32, stdout="lebesgue-number=1\n"),
    case(["cover", "lebesgue", "--cover", "cover-chars-past-cap"], 1, seconds=2, peak_mb=32, stdout=TOO_MANY_CHARS),
    case(["cover", "verify-cert", "--cover", "cover-chars-past-cap", "--cert", "small-cert"], 1, seconds=2, peak_mb=32,
         stdout=TOO_MANY_CHARS),
    # `cover subcover` bounds the certificate from the radius before it builds the net: an 8 KB cover whose
    # certificate would have 800 MB is refused at once, and the longest certificate it may write stays in bounds
    case(["cover", "subcover", "--cover", "eight-kb"], 1, seconds=2, peak_mb=32,
         stdout=f"budget-exceeded certificate of 100001 net lines may need "
                f"{certificate_bounds(lebesgue_number(parse_cover(FILES['eight-kb']())))[1]} characters, "
                f"more than MAX_INPUT_CHARS = {MAX_INPUT_CHARS}\n"),
    case(["cover", "subcover", "--cover", "two", "--modulus", f"const:{WIDEST}"], 0, slow=True, seconds=5, peak_mb=128),
    case(["cover", "verify-cert", "--cover", "whole", "--cert", "scaled-bits-at-cap"], 0, seconds=2, peak_mb=128,
         stdout="certificate-ok\n"),
    case(["cover", "verify-cert", "--cover", "whole", "--cert", "scaled-bits-past-cap"], 1, seconds=2, peak_mb=32,
         stdout=f"budget-exceeded {most_coprime_points() + 1} net points over their common denominator need more than "
                f"MAX_SCALED_BITS = {MAX_SCALED_BITS} bits beyond the radius's denominator\n"),
]


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs")


def run_bounded(folder, argv, code, stdout=None, stderr="", digest=None, seconds=WALL_SECONDS, peak_mb=None):
    """Run the command in `folder`, where each input file it names is built first, and hold it to its bounds."""
    for name in set(argv) & FILES.keys():
        if not (folder / name).exists():
            (folder / name).write_text(FILES[name]())
    read, write = os.pipe()
    with open(read) as report:
        try:
            done = subprocess.run([sys.executable, "-S", "-c", LAUNCHER, str(write), str(seconds), *argv],
                                  capture_output=True, text=True, cwd=folder, env={**os.environ, "PYTHONPATH": SRC},
                                  pass_fds=[write])
        finally:
            os.close(write)
        assert done.returncode == 0, done.stderr
        status, peak_kb = map(int, report.read().split())
    assert status != -signal.SIGALRM, f"over {seconds} s"
    assert "Traceback" not in done.stderr, done.stderr
    assert status == code, (done.stdout, done.stderr)
    if code == 1:
        assert done.stdout.startswith("budget-exceeded ") and CAP_NAMED.search(done.stdout), done.stdout
    if stdout is not None:
        assert (done.stdout, done.stderr) == (stdout, stderr)
    if digest is not None:
        assert (len(done.stdout), hashlib.sha256(done.stdout.encode()).hexdigest(), done.stderr) == (*digest, stderr)
    if peak_mb is not None:
        assert peak_kb < peak_mb * 1024, f"peak RSS {peak_kb / 1024:.0f} MB, over {peak_mb} MB"


@pytest.mark.parametrize("argv,code,bounds", MACHINE_CASES)
def test_machine_command_stays_bounded(folder, argv, code, bounds):
    run_bounded(folder, argv, code, **bounds)


@pytest.mark.parametrize("argv,code,bounds", OTHER_CASES)
def test_command_stays_bounded(folder, argv, code, bounds):
    run_bounded(folder, argv, code, **bounds)


def test_a_peak_is_the_childs_own(folder):
    ballast = bytearray(200 * 2**20)
    ballast[:: resource.getpagesize()] = bytes(len(ballast) // resource.getpagesize())  # every page written
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss >= 200 * 1024
    run_bounded(folder, ["rat", "1/2"], 0, stdout="1/2\n", peak_mb=64)
