"""The README's command-line examples, run through `dispatch` and compared byte for byte.

Every ```sh block of the README that opens with `$ ` is a shell
transcript (the install block is not).  A line that starts with `$ ` is
a command; the lines after it, up to the next command, are what it
prints.  `> FILE` sends a command's standard output to FILE.
`$ echo $?` shows the exit status of the command before it; a command
that no such line follows must exit 0.  `$ cat FILE` shows a file: one
that no earlier command wrote is an input and is created from the text
shown, and one that a command wrote must hold exactly that text.
"""

import re
import shlex
from pathlib import Path

from nicecover.cli import dispatch

README = Path(__file__).resolve().parent.parent / "README.md"


def transcript() -> list[tuple[list[str], str]]:
    """(argv, shown text) for every command of every sh block, in README order."""
    steps: list[tuple[list[str], list[str]]] = []
    for block in re.findall(r"^```sh\n(\$ .*?)^```$", README.read_text(), re.M | re.S):
        for line in block.splitlines():
            if line.startswith("$ "):
                steps.append((shlex.split(line[2:]), []))
            else:
                steps[-1][1].append(line)
    return [(argv, "".join(line + "\n" for line in shown)) for argv, shown in steps]


def test_every_readme_command(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    steps = transcript()
    commands = [argv for argv, _ in steps if argv[0] == "nicecover"]
    assert len(commands) == len(re.findall(r"^\$ nicecover ", README.read_text(), re.M)) > 0
    for i, (argv, shown) in enumerate(steps):
        if argv[0] == "cat":
            path = tmp_path / argv[1]
            if not path.exists():
                path.write_text(shown)
            assert path.read_text() == shown, argv
        elif argv == ["echo", "$?"]:
            assert steps[i - 1][0][0] == "nicecover", "`echo $?` must follow a command"
        else:
            assert argv[0] == "nicecover", argv
            target = None
            if ">" in argv:
                target, argv = argv[argv.index(">") + 1], argv[: argv.index(">")]
            code = dispatch(argv[1:])
            captured = capsys.readouterr()
            out = captured.out
            if target is not None:
                (tmp_path / target).write_text(out)
                out = ""
            following = steps[i + 1] if i + 1 < len(steps) else None
            want_code = int(following[1]) if following and following[0] == ["echo", "$?"] else 0
            assert (code, out + captured.err) == (want_code, shown), argv
