"""Resource contract of the machine commands: hostile input ends in exit 0 or
1 within a wall timeout and an address-space limit, never in a traceback,
and a refusal names the cap it hit.

Each case runs in its own child process, one at a time.  The limits are
set on the child alone, from `preexec_fn`.
"""

import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import COUNTDOWN_TEXT, LOOPER_TEXT, NEST_TEXT
from nicecover.machine import MAX_DOVETAIL_INPUTS, MAX_INSTRUCTIONS

ADDRESS_SPACE = 512 * 2**20
WALL_SECONDS = 10
SRC = str(Path(__file__).resolve().parents[1] / "src")
CAP_NAMED = re.compile(r"(MAX_[A-Z_]+ = \d+|cap is \d+)")

PROGRAMS = {
    "countdown": COUNTDOWN_TEXT,
    "looper": LOOPER_TEXT,
    "nest": NEST_TEXT,
    # one instruction per line up to the cap, and one past it
    "at-cap": "INC 1\n" * (MAX_INSTRUCTIONS - 1) + "HALT\n",
    "past-cap": "INC 1\n" * MAX_INSTRUCTIONS + "HALT\n",
    # a long program: a dovetail's run states must not grow with its length
    "long": "INC 1\n" * 3000 + "HALT\n",
    # the largest register: every run of a dovetail holds 1,024 of them
    "wide": "INC 1023\nHALT\n",
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
]


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.fixture(scope="module")
def program_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("programs")
    for name, text in PROGRAMS.items():
        (folder / f"{name}.cm").write_text(text)
    return folder


@pytest.mark.parametrize("argv,code", CASES, ids=[" ".join(argv)[:80] for argv, _ in CASES])
def test_machine_command_stays_bounded(program_files, argv, code):
    argv = [str(program_files / f"{arg}.cm") if arg in PROGRAMS else arg for arg in argv]
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-m", "nicecover", *argv], capture_output=True, text=True,
                          env=env, preexec_fn=_limit_child, timeout=WALL_SECONDS)
    assert "Traceback" not in done.stderr, done.stderr
    assert done.returncode == code, (done.stdout, done.stderr)
    if code == 1:
        assert done.stdout.startswith("budget-exceeded ") and CAP_NAMED.search(done.stdout), done.stdout
