"""A byte-identity corpus of the `nicecover` command line.

A case is an argv list run through `cli.dispatch` in this process.  The corpus, `tests/corpus.json`, stores
the input files and, per case, its argv and what it gave: the exit code, stdout, stderr and each file it wrote.
Text of at most SHORT characters is stored in full; longer text as its length, its first SHORT characters and
its SHA-256.  `{dir}` stands for the directory the input files are written to, in arguments and output alike.

    PYTHONPATH=src python tests/corpus.py --check   # replay; name the first case that differs, with a diff
    PYTHONPATH=src python tests/corpus.py --write   # run every case again and store what it gives now

`--check` needs the standard library alone; `tests/test_corpus.py` runs it under pytest.  The cases are
drawn from SEED, and `--write` makes the same cases and files again on any interpreter.  Writing is a
deliberate act: a change that alters any stored byte says in CHANGES.md which cases changed, and why.
"""

from __future__ import annotations

import difflib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from nicecover.cli import dispatch

CORPUS = Path(__file__).with_name("corpus.json")
DIR = "{dir}"
SHORT = 400
SEED = 29

PROGRAMS = {
    "countdown.cm": "# drain register 0, then stop\nloop: JZ 0 end\n      DEC 0\n      GOTO loop\nend:  HALT\n",
    "looper.cm": "loop: GOTO loop\n",
    "mod3.cm": "top:  JZ 0 spin\n      DEC 0\n      JZ 0 done\n      DEC 0\n      JZ 0 done\n      DEC 0\n"
               "      GOTO top\nspin: GOTO spin\ndone: HALT\n",
    "nest.cm": "outer: INC 1\n       INC 1\ninner: JZ 1 next\n       DEC 1\n       GOTO inner\nnext:  GOTO outer\n",
    "double.cm": "loop: JZ 0 end\n  DEC 0\n  INC 1\n  INC 1\n  GOTO loop\nend: HALT\n",
    "fall-off.cm": "INC 0\nINC 1\n",
    "lower-crlf.cm": "loop: jz 0 end\r\n dec 0\r\n goto loop\r\nend: halt\r\n",
    "register-at-cap.cm": "INC 1023\nHALT\n",
}
BAD_PROGRAMS = {
    "empty.cm": "",
    "comments.cm": "# nothing\n\n   # here\n",
    "duplicate-label.cm": "a: HALT\na: HALT\n",
    "unknown-op.cm": "INC 0\nFOO 1\n",
    "arity.cm": "INC\n",
    "jz-arity.cm": "JZ 0\nHALT\n",
    "unknown-label.cm": "GOTO nowhere\n",
    "bad-register.cm": "INC x\n",
    "unicode-register.cm": "INC ²\n",
    "negative-register.cm": "DEC -1\n",
    "label-past-end.cm": "HALT\nend:\n",
    "register-past-cap.cm": "INC 1024\nHALT\n",
    "register-digits.cm": "INC " + "9" * 5000 + "\n",
    "not-utf8.cm": b"INC 0\n\xff\xfeHALT\n",
}
COVERS = {
    "two.txt": "-1/10 6/10\n4/10 11/10\n",
    "decimal.txt": "-0.1 0.6\n0.4 1.1\n",
    "three.txt": "# three overlapping intervals\n-1/4 2/5\n\n1/3 3/4   # the middle\n2/3 5/4\n",
    "farey.txt": "".join(f"{a - 1}/8 {a + 1}/8\n" for a in range(9)),
    "single.txt": "-1 2\n",
    "crlf.txt": "-1/10 6/10\r\n4/10 11/10\r\n",
    "long-ends.txt": f"-1 {'1' + '0' * 4400}/{'3' + '0' * 4400}\n2/5 {'7' * 4500}/{'3' * 4500}\n",
}
BAD_COVERS = {
    "gap.txt": "-1/10 1/2\n1/2 11/10\n",
    "closed-end.txt": "0 11/10\n",
    "zero-denominator.txt": "-1/0 2\n",
    "zero-denominator-2.txt": "-1 2\n0 3/0\n",
    "reversed.txt": "-1 2\n1 0\n",
    "three-fields.txt": "-1 2 3\n",
    "words.txt": "lo hi\n",
    "empty.txt": "",
    "comments-only.txt": "# no intervals\n\n",
    "not-utf8.txt": b"-1 2\n\xff\n",
}
# (certificate file, cover it was made from, --modulus or None); made by `cover subcover` when written
CERTIFICATES = [("two-lebesgue.cert", "two.txt", None), ("two-twentieth.cert", "two.txt", "const:1/20"),
                ("three-lebesgue.cert", "three.txt", None), ("farey-sixteenth.cert", "farey.txt", "const:1/16")]
# certificates for `two.txt` whose net points are written over denominators that do not divide the radius's:
# a valid one, and one whose ball around 2/3 is outside its element 0
SCATTERED = "".join(f"net {x} -> element {j}\n" for x, j in [
    ("0", 0), ("1/7", 0), ("2/7", 0), ("3/7", 0), ("1/2", 0), ("3/5", 1), ("2/3", 1), ("7/9", 1), ("8/9", 1), ("1", 1)])
SCATTERED_CERTIFICATES = {
    "two-scattered.cert": f"r=1/10\n{SCATTERED}selected 0,1\n",
    "two-scattered-outside.cert": f"r=1/10\n{SCATTERED.replace('2/3 -> element 1', '2/3 -> element 0')}selected 0,1\n"}
MODULI = ["lebesgue", "const:1/10", "const:1/8", "const:1/64", "const:1/2", "const:0", "const:-1/3"]


def stored(text: str) -> str | dict:
    """`text` as the corpus stores it: in full up to SHORT characters, else by length, head and digest."""
    if len(text) <= SHORT:
        return text
    return {"chars": len(text), "head": text[:SHORT], "sha256": hashlib.sha256(text.encode()).hexdigest()}


def run(argv: list[str], directory: str) -> dict:
    """What `nicecover *argv` gives with the input files in `directory`, which stands as {dir} in argv and output.
    It runs in `directory`, so each file it writes there, by a relative path too, is read and removed.  Runs with
    200 columns for argparse's usage text: at 80 columns, Python 3.11 and 3.13 wrap the longest usage lines at
    other places.  The interpreter's limit on int-string conversion is left as it is: no answer depends on it."""
    before = set(os.listdir(directory))
    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "200"
    try:
        os.chdir(directory)
        with redirect_stdout(out), redirect_stderr(err):
            code = dispatch([arg.replace(DIR, directory) for arg in argv])
    except Exception as exc:  # escaped dispatch: stored as it is, so that a change to it shows
        code = f"uncaught {type(exc).__name__}: {exc}"
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    wrote = {}
    for name in sorted(set(os.listdir(directory)) - before):
        path = Path(directory, name)
        wrote[name] = stored(path.read_bytes().decode("utf-8", "replace"))
        path.unlink()
    return {"exit": code, "stdout": stored(out.getvalue().replace(directory, DIR)),
            "stderr": stored(err.getvalue().replace(directory, DIR)), "wrote": wrote}


def write_files(files: dict, directory: str) -> None:
    for name, content in files.items():
        data = bytes.fromhex(content["hex"]) if isinstance(content, dict) else content.encode()
        Path(directory, name).write_bytes(data)


def replay(path: str | None = None) -> str | None:
    """Run every stored case, or those of one command path, such as `cover-verify` or `usage`, as case ids begin;
    a report of the first that differs, with a diff, or None when none does."""
    corpus = load()
    with tempfile.TemporaryDirectory() as directory:
        write_files(corpus["files"], directory)
        for case in (case for case in corpus["cases"] if path in (None, command_path(case))):
            got = {"id": case["id"], "argv": case["argv"], **run(case["argv"], directory)}
            if got != case:
                expected, actual = (json.dumps(c, indent=1, ensure_ascii=False).splitlines() for c in (case, got))
                diff = "\n".join(difflib.unified_diff(expected, actual, "stored", "now", lineterm=""))
                return f"case {case['id']} differs: nicecover {' '.join(case['argv'])}\n{diff}"
    return None


def load() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def command_path(case: dict) -> str:
    """The command path a case's id begins with: `cover-verify` for `cover-verify-007`."""
    return case["id"].rsplit("-", 1)[0]


# Making the corpus: input files and seeded cases.


def _literal(rng: random.Random) -> str:
    kind = rng.choices(range(6), weights=(4, 4, 2, 1, 1, 1))[0]
    if kind == 0:
        return str(rng.randrange(100))
    if kind == 1:
        return f"{rng.randrange(100)}/{rng.randrange(1, 100)}"
    if kind == 2:
        return f"{rng.randrange(10)}.{rng.randrange(1000):03d}"
    if kind == 3:
        return f"{rng.randrange(10)}/0"
    if kind == 4:
        return str(rng.randrange(10**40))
    return f"{rng.randrange(1, 10**12)}/{rng.randrange(1, 10**12)}"


def _expression(rng: random.Random, depth: int = 0, leaf=_literal) -> str:
    if depth > 3 or rng.random() < 0.3:
        return leaf(rng)
    kind = rng.choice("+-*pn")
    if kind == "p":
        return f"({_expression(rng, depth + 1, leaf)})"
    if kind == "n":
        return f"-{_expression(rng, depth + 1, leaf)}"
    return f"{_expression(rng, depth + 1, leaf)} {kind} {_expression(rng, depth + 1, leaf)}"


def _mangle(rng: random.Random, text: str, alphabet: str = "()+-*/., x1²٣") -> str:
    """`text` with one character deleted, inserted or replaced."""
    i = rng.randrange(len(text) + 1)
    kind = rng.randrange(3)
    if kind == 0 and text:
        return text[: max(i - 1, 0)] + text[max(i - 1, 0) + 1 :]
    return text[:i] + rng.choice(alphabet) + text[i + (kind == 2) :]


def _ratio(rng: random.Random, lo: int = -2, hi: int = 3) -> str:
    q = rng.choice([1, 2, 3, 4, 5, 7, 8, 10, 16, 100])
    return f"{rng.randrange(lo * q, hi * q)}/{q}"


def _oracle(rng: random.Random) -> str:
    kind = rng.randrange(8)
    if kind < 4:
        return f"step@{_ratio(rng, 0, 1)}"
    if kind < 7:
        return "stair:" + ",".join(_ratio(rng, 0, 1) for _ in range(rng.randrange(1, 4)))
    return rng.choice(["step@1/0", "stair:", "stair:1/2,x", "jump@1/2", "step@", "stair:1/3,,2/3"])


def _certificates(directory: str) -> dict[str, str]:
    """The certificate files: each of CERTIFICATES as `cover subcover` writes it, and mutants of them."""
    files = {}
    for name, cover, modulus in CERTIFICATES:
        out = io.StringIO()
        with redirect_stdout(out):
            code = dispatch(["cover", "subcover", "--cover", str(Path(directory, cover))]
                            + (["--modulus", modulus] if modulus else []))
        if code != 0:
            raise RuntimeError(f"no certificate for {cover} at {modulus or 'lebesgue'}: exit {code}")
        files[name] = out.getvalue()
    lines = files["two-lebesgue.cert"].splitlines(keepends=True)  # r=, 11 net lines, selected
    mutants = {
        "zero-radius": ["r=0\n"] + lines[1:],
        "negative-radius": ["r=-1/10\n"] + lines[1:],
        "zero-denominator-radius": ["r=1/0\n"] + lines[1:],
        "large-radius": ["r=1/2\n"] + lines[1:],
        "small-radius": ["r=1/100\n"] + lines[1:],
        "zero-denominator-point": lines[:3] + ["net 1/0 -> element 0\n"] + lines[4:],
        "word-point": lines[:3] + ["net x -> element 0\n"] + lines[4:],
        "bad-arrow": lines[:3] + ["net 1/5 => element 0\n"] + lines[4:],
        "element-out-of-range": lines[:3] + ["net 1/5 -> element 7\n"] + lines[4:],
        "element-swapped": lines[:2] + [lines[2].replace("element 0", "element 1")] + lines[3:],
        "point-dropped": lines[:5] + lines[6:],
        "point-doubled": lines[:5] + lines[5:6] * 2 + lines[6:],
        "points-reversed": lines[:1] + lines[-2:0:-1] + lines[-1:],
        "selected-missing": lines[:-1],
        "selected-extra": lines[:-1] + ["selected 0,1,2\n"],
        "selected-short": lines[:-1] + ["selected 0\n"],
        "selected-word": lines[:-1] + ["selected 0,a\n"],
        "selected-empty": lines[:-1] + ["selected\n"],
        "line-after-selected": lines + ["net 0 -> element 0\n"],
        "radius-missing": lines[1:],
        "radius-twice": lines[:1] + lines,
        "blank-lines": [line + "\n" for line in lines],
        "crlf": [line.replace("\n", "\r\n") for line in lines],
        "decimal-points": [line.replace("net 1/2 ", "net 0.5 ") for line in lines],
        "unreduced-points": [line.replace("net 1/5 ", "net 2/10 ") for line in lines],
        "empty": [],
    }
    files.update((f"two-{name}.cert", "".join(text)) for name, text in mutants.items())
    rng = random.Random(SEED)
    valid = text = files["two-twentieth.cert"]
    for k in range(24):  # runs of three edits, each run from the valid text
        text = _mangle(rng, text if k % 3 else valid, "0123456789/-.,>\n x")
        files[f"two-twentieth-mangled-{k:02d}.cert"] = text
    return files


def make() -> dict:
    """The input files and the cases, drawn from SEED."""
    files = {**PROGRAMS, **BAD_PROGRAMS, **COVERS, **BAD_COVERS}
    with tempfile.TemporaryDirectory() as directory:
        write_files(_encoded(files), directory)
        files.update(_certificates(directory))
    rng = random.Random(SEED)
    cases: dict[str, list[list[str]]] = {}

    def add(path: str, *argv: str) -> None:
        cases.setdefault(path, []).append(list(argv))

    programs, bad_programs = list(PROGRAMS), list(BAD_PROGRAMS)
    # rat
    for text in ["1/2 + 1/3", "2/4 + 2/4", "0.15 * 20", "(1 - 1/3) * 3/2", "7", "0", "1/0", "2 + 3/0", "1 +", "(",
                 ")", "1 2", "x", "1.", ".5", "1/-2", "٣", "1 / 2", "1/2/3", "", " ", "waiting(a, 1)", "f(",
                 "(" * 199 + "1" + ")" * 199, "(" * 200 + "1" + ")" * 200, "-" * 198 + "1", "-" * 200 + "1",
                 "+".join(["1"] * 200), "+".join(["1"] * 201), "*".join([str(10**40 + 7)] * 150)]:
        add("rat", "rat", *(["--"] if text.startswith("-") else []), text)
    add("rat", "rat", "-1/2")
    add("rat", "rat", "1", "2")
    for _ in range(70):
        text = _expression(rng)
        add("rat", "rat", "--", text if rng.random() < 0.7 else _mangle(rng, text))

    # crn approx
    def call(rng: random.Random) -> str:
        if rng.random() < 0.5:
            return _literal(rng)
        if rng.random() < 0.5:
            program = rng.choice(["countdown.cm", "looper.cm", "mod3.cm", "double.cm"])
            return f"waiting({DIR}/{program}, {rng.randrange(6)})"
        return f"bisect_limit({_oracle(rng)}, {_ratio(rng, -1, 1)}, {_ratio(rng, 1, 2)})"

    for text, prec in [("1/3", "10"), ("1/0", "4"), (f"waiting({DIR}/countdown.cm, 2)", "10"),
                       (f"waiting({DIR}/countdown.cm, 2) + bisect_limit(step@1/3, 0, 1)", "10"),
                       (f"waiting({DIR}/missing.cm, 2)", "4"), (f"waiting({DIR}/unknown-op.cm, 2)", "4"),
                       (f"waiting({DIR}/not-utf8.cm, 2)", "4"), (f"waiting({DIR}/countdown.cm)", "4"),
                       (f"waiting({DIR}/countdown.cm, 2, harmonic)", "4"), (f"waiting({DIR}/looper.cm, 1/0)", "4"),
                       ("bisect_limit(step@1/3, 0)", "4"), ("bisect_limit(step@1/0, 0, 1)", "4"),
                       ("bisect_limit(step@5, 0, 1)", "4"), ("bisect_limit(stair:1/4,1/2, 0, 1)", "12"),
                       ("sqrt(2)", "4"), ("1/3", "x"), ("1/3", "-1"), ("1/3", "9" * 4301),
                       ("(" * 199 + "1" + ")" * 199, "3"), ("(" * 200 + "1" + ")" * 200, "3")]:
        add("crn approx", "crn", "approx", "--expr", text, "--prec", prec)
    for _ in range(45):
        text = _expression(rng, leaf=call)
        add("crn approx", "crn", "approx", "--expr", text if rng.random() < 0.85 else _mangle(rng, text),
            "--prec", str(rng.randrange(25)))

    # machine run and machine dovetail
    for name in bad_programs + ["missing.cm", "", "register-at-cap.cm"]:
        add("machine run", "machine", "run", "--prog", f"{DIR}/{name}", "--input", "3", "--budget", "100")
        add("machine dovetail", "machine", "dovetail", "--prog", f"{DIR}/{name}", "--inputs", "0..3",
            "--budget", "100")
    for flags in [("--input", "x", "--budget", "1"), ("--input", "1", "--budget", "-1"),
                  ("--input", "1/2", "--budget", "1"), ("--input", "9" * 4301, "--budget", "1"), ("--input", "1"),
                  ("--budget", "1"), ("--input", "1", "--budget", "10000000000000000")]:
        add("machine run", "machine", "run", "--prog", f"{DIR}/countdown.cm", *flags)
    for _ in range(45):
        add("machine run", "machine", "run", "--prog", f"{DIR}/{rng.choice(programs)}", "--input",
            str(rng.randrange(40)), "--budget", str(rng.choice([0, 1, 5, 10, 100, 1000, 10**6, 10**12])))
    add("machine run", "machine", "run", "--prog", f"{DIR}/countdown.cm", "--input", "2", "--budget", "100")
    for inputs, budget in [("3..1", "10"), ("a..b", "10"), ("1..", "10"), ("0..3", "0"), ("0..100000", "1"),
                           ("0..99999", "1"), ("5..5", "100"), ("0.." + "9" * 4301, "1")]:
        add("machine dovetail", "machine", "dovetail", "--prog", f"{DIR}/countdown.cm", "--inputs", inputs,
            "--budget", budget)
    for _ in range(35):
        first = rng.randrange(12)
        add("machine dovetail", "machine", "dovetail", "--prog", f"{DIR}/{rng.choice(programs)}",
            "--inputs", f"{first}..{first + rng.randrange(10)}",
            "--budget", str(rng.choice([1, 7, 50, 300, 2000, 10**5])))

    # waiting approx and reduce
    for name in bad_programs[:6] + ["missing.cm"]:
        add("waiting approx", "waiting", "approx", "--prog", f"{DIR}/{name}", "--input", "2", "--prec", "4")
        add("reduce", "reduce", "--prog", f"{DIR}/{name}", "--input", "2", "--prec", "4")
    for flags in [("--targets", "harmonic"), ("--max-steps", "0"), ("--max-steps", "5"), ("--max-steps", "x"),
                  ("--prec", "x"), ("--prec", "1/0")]:
        add("waiting approx", "waiting", "approx", "--prog", f"{DIR}/looper.cm", "--input", "2", "--prec", "8", *flags)
    for flags in [("--targets", "harmonic"), ("--oracle", "step@1/0"), ("--oracle", "jump@1/2"),
                  ("--oracle", "stair:"), ("--oracle", "stair:1/4,3/4"), ("--prec", "x"), ("--input", "-1")]:
        add("reduce", "reduce", "--prog", f"{DIR}/looper.cm", "--input", "2", "--prec", "8", *flags)
    for _ in range(38):
        add("waiting approx", "waiting", "approx", "--prog", f"{DIR}/{rng.choice(programs)}",
            "--input", str(rng.randrange(12)), "--prec", str(rng.randrange(30)),
            *(["--max-steps", str(rng.choice([3, 20, 1000]))] if rng.random() < 0.3 else []))
        add("reduce", "reduce", "--prog", f"{DIR}/{rng.choice(programs)}", "--input", str(rng.randrange(12)),
            "--prec", str(rng.randrange(20)), *(["--oracle", _oracle(rng)] if rng.random() < 0.4 else []))

    # bisect, with and without a transcript
    transcript = ["--transcript", f"{DIR}/transcript.tsv"]
    for flags in [("step@1/3", "0", "1", "10000"), ("step@1/3", "0", "1", "10001"), ("step@1/3", "0", "1", "0"),
                  ("step@1/3", "1", "1", "4"), ("step@1/3", "1", "0", "4"), ("step@5", "0", "1", "4"),
                  ("step@1/0", "0", "1", "4"), ("step@1/3", "1/0", "1", "4"), ("step@1/3", "0", "2/0", "4"),
                  ("stair:1/4,1/2,3/4", "0", "1", "12"), ("step@1/3", "0", "1", "x"), ("step@1/3", "0", "1", "-1"),
                  ("step@1/3", "0.1", "0.9", "20"), ("step@1/3", "--", "1", "4")]:
        add("bisect", "bisect", "--oracle", flags[0], "--lo", flags[1], "--hi", flags[2], "--steps", flags[3])
    for flags in [("step@1/3", "0", "1", "10001"), ("step@1/3", "0", "1", "0"), ("step@5", "0", "1", "4"),
                  ("stair:1/4,1/2,3/4", "0", "1", "12"), ("step@1/3", "0", "1", "300")]:
        add("bisect transcript", "bisect", "--oracle", flags[0], "--lo", flags[1], "--hi", flags[2], "--steps",
            flags[3], *transcript)
    add("bisect transcript", "bisect", "--oracle", "step@1/3", "--lo", "0", "--hi", "1", "--steps", "4",
        "--transcript", f"{DIR}/missing/transcript.tsv")
    add("bisect transcript", "bisect", "--oracle", "step@1/3", "--lo", "0", "--hi", "1", "--steps", "4",
        "--transcript", DIR)
    for _ in range(55):
        path = "bisect transcript" if rng.random() < 0.5 else "bisect"
        add(path, "bisect", "--oracle", _oracle(rng), f"--lo={_ratio(rng, -1, 1)}", f"--hi={_ratio(rng, 0, 2)}",
            "--steps", str(rng.randrange(41)), *(transcript if path != "bisect" else []))

    # cover lebesgue, subcover, verify and verify-cert
    covers, bad_covers = list(COVERS), list(BAD_COVERS)
    for name in covers + bad_covers + ["missing.txt", "", "two-lebesgue.cert"]:
        add("cover lebesgue", "cover", "lebesgue", "--cover", f"{DIR}/{name}")
    for name in covers[:4]:
        for modulus in MODULI:
            add("cover subcover", "cover", "subcover", "--cover", f"{DIR}/{name}", "--modulus", modulus)
    for name in bad_covers + ["missing.txt"]:
        add("cover subcover", "cover", "subcover", "--cover", f"{DIR}/{name}")
    for flags in [("--modulus", "const:1/0"), ("--modulus", "const:x"), ("--modulus", "harmonic"),
                  ("--modulus", "const:1/1000000"), ("--modulus", "const:1/" + "9" * 4400),
                  ("--samples", "0,1/2,1"), ("--samples", "1/0"), ("--samples", ",")]:
        add("cover subcover", "cover", "subcover", "--cover", f"{DIR}/two.txt", *flags)
    for _ in range(20):
        add("cover subcover", "cover", "subcover", "--cover", f"{DIR}/{rng.choice(covers)}",
            "--modulus", f"const:{rng.randrange(1, 4)}/{rng.randrange(2, 60)}")
    for name in covers + bad_covers:
        add("cover verify", "cover", "verify", "--cover", f"{DIR}/{name}", "--selected", "0,1")
    for selected in ["1,0", "0", "1", "0,0,1", "2", "0,x", "", ",", "1/0", "9" * 4301, " 0 , 1 "]:
        add("cover verify", "cover", "verify", "--cover", f"{DIR}/two.txt", "--selected", selected)
    for _ in range(30):
        name = rng.choice(covers)
        size = sum(1 for line in COVERS[name].splitlines() if line.split("#")[0].strip())
        add("cover verify", "cover", "verify", "--cover", f"{DIR}/{name}", "--selected",
            ",".join(str(rng.randrange(size + 1)) for _ in range(rng.randrange(1, size + 2))))
    certificates = [name for name in files if name.endswith(".cert")]
    for name in certificates:
        add("cover verify-cert", "cover", "verify-cert", "--cover", f"{DIR}/{name.split('-')[0]}.txt",
            "--cert", f"{DIR}/{name}")
    for cover, cert in [("decimal.txt", "two-lebesgue.cert"), ("three.txt", "two-lebesgue.cert"),
                        ("gap.txt", "two-lebesgue.cert"), ("zero-denominator.txt", "two-lebesgue.cert"),
                        ("two.txt", "missing.cert"), ("two.txt", ""), ("two.txt", "two.txt"),
                        ("two.txt", "not-utf8.txt"), ("farey.txt", "three-lebesgue.cert")]:
        add("cover verify-cert", "cover", "verify-cert", "--cover", f"{DIR}/{cover}", "--cert", f"{DIR}/{cert}")

    # a lone "--" option value is a usage error, and after a bare "--" it is an operand
    add("bisect", "bisect", "--oracle", "step@1/3", "--lo=--", "--hi", "1", "--steps", "4")
    add("bisect transcript", "bisect", "--oracle", "step@1/3", "--lo", "0", "--hi", "1", "--steps", "2",
        "--transcript=--")
    add("cover lebesgue", "cover", "lebesgue", "--cover=--")
    add("crn approx", "crn", "approx", "--expr", "1/2", "--prec=--")
    add("crn approx", "crn", "approx", "--expr=--", "--prec", "4")
    add("rat", "rat", "--", "--x=--")
    add("rat", "rat", "1", "--x=--")

    # no command path: usage errors
    for argv in [[], ["frobnicate"], ["cover"], ["machine", "halt"], ["rat"], ["crn", "approx", "--expr", "1"],
                 ["cover", "verify", "--cover"], ["bisect", "--oracle", "step@1/3"]]:
        add("usage", *argv)
    # appended, so that the cases above keep their ids: net points over denominators that do not divide the
    # radius's, and `cover verify` where the element whose end is the witness is repeated and listed last
    files.update(SCATTERED_CERTIFICATES)
    for name in SCATTERED_CERTIFICATES:
        add("cover verify-cert", "cover", "verify-cert", "--cover", f"{DIR}/two.txt", "--cert", f"{DIR}/{name}")
    for name, selected in [("two.txt", "1,1"), ("gap.txt", "1,0,0"), ("three.txt", "2,0,0"), ("farey.txt", "2,0,0"),
                           ("farey.txt", "8,6,4,2,0,4,0"), ("long-ends.txt", "0,0")]:
        add("cover verify", "cover", "verify", "--cover", f"{DIR}/{name}", "--selected", selected)
    return {"files": _encoded(files), "cases": [{"id": f"{path.replace(' ', '-')}-{i:03d}", "argv": argv}
                                                for path, argvs in cases.items() for i, argv in enumerate(argvs)]}


def _encoded(files: dict) -> dict:
    return {name: {"hex": content.hex()} if isinstance(content, bytes) else content for name, content in files.items()}


def write() -> None:
    """Run every case of `make()` and store it with what it gave, in CORPUS, one case a line."""
    corpus = make()
    took = []
    with tempfile.TemporaryDirectory() as directory:
        write_files(corpus["files"], directory)
        for case in corpus["cases"]:
            start = time.perf_counter()
            case.update(run(case["argv"], directory))
            took.append((time.perf_counter() - start, case["id"]))
    lines = [json.dumps(case, ensure_ascii=False) for case in corpus["cases"]]
    CORPUS.write_text('{"files": ' + json.dumps(corpus["files"], ensure_ascii=False, indent=1)
                      + ',\n"cases": [\n' + ",\n".join(lines) + "\n]}\n", encoding="utf-8")
    print(f"wrote {len(lines)} cases in {sum(t for t, _ in took):.2f} s; slowest: "
          + ", ".join(f"{name} {t:.3f} s" for t, name in sorted(took)[-5:]))


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        write()
        return 0
    if argv == ["--check"]:
        start = time.perf_counter()
        report = replay()
        if report is not None:
            print(report)
            return 1
        print(f"{len(load()['cases'])} cases replayed, no difference, in {time.perf_counter() - start:.2f} s")
        return 0
    print("usage: python tests/corpus.py --check | --write", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
