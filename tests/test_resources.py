"""Resource contract of the commands: hostile input ends in its exact exit
code within a wall timeout and an address-space limit, never in a traceback,
and a refusal (exit 1) names the cap it hit.  Each cap is met at the cap and
one past it.

Each case runs in its own child process, one at a time.  The limits are
set on the child alone, from `preexec_fn`.  Cases that take about a second
or more are marked `slow` and run apart from tier-1: `pytest -m slow`.
"""

import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import COUNTDOWN_TEXT, LOOPER_TEXT, NEST_TEXT
from nicecover.analysis import MAX_BISECT_STEPS
from nicecover.cover import MAX_COVER_ELEMENTS, MAX_NET_POINTS
from nicecover.expressions import MAX_DEPTH
from nicecover.machine import MAX_DOVETAIL_INPUTS, MAX_INSTRUCTIONS
from nicecover.rational import MAX_INPUT_LINES

ADDRESS_SPACE = 512 * 2**20
WALL_SECONDS = 10
SRC = str(Path(__file__).resolve().parents[1] / "src")
CAP_NAMED = re.compile(r"(MAX_[A-Z_]+ = \d+|cap is \d+)")


def labels(count):
    return "".join(f"l{i}:\n" for i in range(count)) + "HALT\n"


def intervals(count):
    # element i is (-1/(i+1), (i+2)/(i+1)): each one alone covers [0, 1]
    return "".join(f"-1/{i + 1} {i + 2}/{i + 1}\n" for i in range(1, count + 1))


def certificate(unit):
    # the net of radius 1/unit, each point assigned to element 0
    return f"r=1/{unit}\n" + "".join(f"net {x}/{unit} -> element 0\n" for x in range(unit + 1)) + "selected 0\n"


def padded(pad, body, past):
    # `pad` lines before `body`, MAX_INPUT_LINES lines in all and `past` more
    return pad * (MAX_INPUT_LINES + past - body.count("\n")) + body


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
    # the largest register: every run of a dovetail holds 1,024 of them
    "wide": lambda: "INC 1023\nHALT\n",
    # label-only lines up to the cap, and one past it
    "labels-at-cap": lambda: labels(MAX_INSTRUCTIONS),
    "labels-past-cap": lambda: labels(MAX_INSTRUCTIONS + 1),
    "two": lambda: "-1/10 6/10\n4/10 11/10\n",
    "whole": lambda: "-1 2\n",
    "cover-at-cap": lambda: intervals(MAX_COVER_ELEMENTS),
    "cover-past-cap": lambda: intervals(MAX_COVER_ELEMENTS + 1),
    "small-cert": lambda: certificate(4),
    # net lines up to the cap, and one past it
    "cert-at-cap": lambda: certificate(MAX_NET_POINTS - 1),
    "cert-past-cap": lambda: certificate(MAX_NET_POINTS),
    # comment or blank lines before a valid body: MAX_INPUT_LINES lines in all, and one more
    "cover-comments-at-cap": lambda: padded("#\n", "-1 2\n", 0),
    "cover-comments-past-cap": lambda: padded("#\n", "-1 2\n", 1),
    "cover-blanks-at-cap": lambda: padded("\n", "-1 2\n", 0),
    "cover-blanks-past-cap": lambda: padded("\n", "-1 2\n", 1),
    "prog-comments-at-cap": lambda: padded("#\n", "HALT\n", 0),
    "prog-comments-past-cap": lambda: padded("#\n", "HALT\n", 1),
    "prog-blanks-at-cap": lambda: padded("\n", "HALT\n", 0),
    "prog-blanks-past-cap": lambda: padded("\n", "HALT\n", 1),
    "cert-blanks-at-cap": lambda: padded("\n", certificate(4), 0),
    "cert-blanks-past-cap": lambda: padded("\n", certificate(4), 1),
}
LAST = str(MAX_DOVETAIL_INPUTS - 1)

CASES = [
    (["machine", "run", "--prog", "at-cap", "--input", "0", "--budget", "10"], 0),
    (["machine", "run", "--prog", "past-cap", "--input", "0", "--budget", "10"], 1),
    (["machine", "dovetail", "--prog", "past-cap", "--inputs", "0..3", "--budget", "10"], 1),
    (["waiting", "approx", "--prog", "past-cap", "--input", "0", "--prec", "4"], 1),
    (["reduce", "--prog", "past-cap", "--input", "0", "--prec", "4"], 1),
    (["machine", "run", "--prog", "countdown", "--input", "9" * 4300, "--budget", "9" * 4300], 0),
    (["machine", "dovetail", "--prog", "long", "--inputs", "0.." + LAST, "--budget", "1"], 0),
    (["machine", "dovetail", "--prog", "wide", "--inputs", "0.." + LAST, "--budget", "1"], 1),
    (["machine", "dovetail", "--prog", "countdown", "--inputs", f"0..{MAX_DOVETAIL_INPUTS}", "--budget", "1"], 1),
    (["waiting", "approx", "--prog", "looper", "--input", "0", "--prec", "1000000"], 1),
    (["reduce", "--prog", "nest", "--input", "0", "--prec", "1000000000"], 1),
    (["reduce", "--prog", "countdown", "--input", "9" * 4300, "--prec", "40"], 0),
    (["machine", "run", "--prog", "labels-at-cap", "--input", "0", "--budget", "10"], 0),
    (["machine", "run", "--prog", "labels-past-cap", "--input", "0", "--budget", "10"], 1),
    (["waiting", "approx", "--prog", "at-cap", "--input", "0", "--prec", "4"], 0),
    (["reduce", "--prog", "at-cap", "--input", "0", "--prec", "4"], 0),
    *((["machine", "run", "--prog", f"prog-{pad}-{at}", "--input", "0", "--budget", "10"], code)
      for pad in ("comments", "blanks") for at, code in [("at-cap", 0), ("past-cap", 1)]),
]


def nested(levels):
    # each parenthesis pair is one level, and so is the literal inside
    return "(" * (levels - 1) + "1" + ")" * (levels - 1)


def case(argv, code, slow=False, name=None):
    return pytest.param(argv, code, marks=[pytest.mark.slow] if slow else [], id=name or " ".join(argv)[:80])


BISECT = ["--oracle", "step@1/3", "--lo", "0", "--hi", "1", "--transcript", "rows.tsv"]
LIMIT = ["crn", "approx", "--expr", "bisect_limit(step@1/3, 0, 1)", "--prec"]
COVER_COMMANDS = [["lebesgue"], ["subcover", "--modulus", "const:1/4"], ["verify", "--selected", "0"],
                  ["verify-cert", "--cert", "small-cert"]]
OTHER_CASES = [
    case(["rat", nested(MAX_DEPTH)], 0, name=f"rat nested {MAX_DEPTH} levels"),
    case(["rat", nested(MAX_DEPTH + 1)], 2, name=f"rat nested {MAX_DEPTH + 1} levels"),
    case(["rat", "9" * 4301], 0, name="rat 4301 digits"),
    # the limit's approximation at precision n reads row n + 2
    case([*LIMIT, str(MAX_BISECT_STEPS - 2)], 0),
    case([*LIMIT, str(MAX_BISECT_STEPS - 1)], 1),
    case(["bisect", "--steps", str(MAX_BISECT_STEPS), *BISECT], 0, slow=True),
    case(["bisect", "--steps", str(MAX_BISECT_STEPS + 1), *BISECT], 1),
    # nets of MAX_NET_POINTS points and of one more
    case(["cover", "subcover", "--cover", "two", "--modulus", f"const:1/{MAX_NET_POINTS - 1}"], 0, slow=True),
    case(["cover", "subcover", "--cover", "two", "--modulus", f"const:1/{MAX_NET_POINTS}"], 1),
    *(case(["cover", *command, "--cover", "cover-at-cap"], 0, slow=True) for command in COVER_COMMANDS),
    *(case(["cover", *command, "--cover", "cover-past-cap"], 1) for command in COVER_COMMANDS),
    case(["cover", "verify-cert", "--cover", "whole", "--cert", "cert-at-cap"], 0, slow=True),
    case(["cover", "verify-cert", "--cover", "whole", "--cert", "cert-past-cap"], 1),
    *(case(["cover", "lebesgue", "--cover", f"cover-{pad}-{at}"], code)
      for pad in ("comments", "blanks") for at, code in [("at-cap", 0), ("past-cap", 1)]),
    case(["cover", "verify-cert", "--cover", "whole", "--cert", "cert-blanks-at-cap"], 0),
    case(["cover", "verify-cert", "--cover", "whole", "--cert", "cert-blanks-past-cap"], 1),
    case(["cover", "verify-cert", "--cover", "cover-comments-past-cap", "--cert", "small-cert"], 1),
]


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs")


def run_bounded(folder, argv, code):
    """Run the command in `folder`, where each input file it names is built first."""
    for name in set(argv) & FILES.keys():
        if not (folder / name).exists():
            (folder / name).write_text(FILES[name]())
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-m", "nicecover", *argv], capture_output=True, text=True,
                          cwd=folder, env=env, preexec_fn=_limit_child, timeout=WALL_SECONDS)
    assert "Traceback" not in done.stderr, done.stderr
    assert done.returncode == code, (done.stdout, done.stderr)
    if code == 1:
        assert done.stdout.startswith("budget-exceeded ") and CAP_NAMED.search(done.stdout), done.stdout


@pytest.mark.parametrize("argv,code", CASES, ids=[" ".join(argv)[:80] for argv, _ in CASES])
def test_machine_command_stays_bounded(folder, argv, code):
    run_bounded(folder, argv, code)


@pytest.mark.parametrize("argv,code", OTHER_CASES)
def test_command_stays_bounded(folder, argv, code):
    run_bounded(folder, argv, code)
