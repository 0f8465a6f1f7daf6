"""Command-line interface.

Exit status: 0 on success, 1 when a mathematical precondition fails at
run time (including a failed verification), 2 on usage or parse errors.
All rationals are printed canonically and output is byte-deterministic
for identical inputs.
"""

from __future__ import annotations

import argparse
import re
import sys
from itertools import islice, takewhile
from pathlib import Path
from typing import Sequence

from . import analysis, cover as cover_mod, crn, expressions, machine
from .errors import DomainError, ParseError
from .rational import Rational, parse_natural, parse_rational, render


def _parse_inputs(text: str) -> range:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text.strip())
    if m is None:
        raise ParseError(f"expected A..B, got {text!r}")
    first, last = parse_natural(m.group(1)), parse_natural(m.group(2))
    if last < first:
        raise ParseError(f"empty input range {text!r}")
    return range(first, last + 1)


def _parse_selected(text: str) -> list[int]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts or not all(p.isdecimal() for p in parts):
        raise ParseError(f"expected comma-separated indices, got {text!r}")
    return [parse_natural(p) for p in parts]


def _parse_modulus(text: str):
    """`lebesgue` or `const:<r>`, as a function from a cover to its modulus; cover is read only in that call."""
    s = text.strip()
    if s == "lebesgue":
        return lambda intervals: cover_mod.LebesgueModulus(intervals)
    if s.startswith("const:"):
        radius = parse_rational(s[len("const:") :])
        return lambda intervals: cover_mod.ConstantModulus(radius)
    raise ParseError(f"expected `lebesgue` or `const:<rational>`, got {text!r}")


def _parse_samples(text: str) -> tuple[Rational, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ParseError("expected comma-separated rationals")
    return tuple(parse_rational(p) for p in parts)


def _parse_targets(text: str):  # analysis is read per call, so building the parser runs no layer
    return analysis.parse_targets(text)


def _parse_oracle(text: str):
    return analysis.parse_oracle(text)


class _Parser(argparse.ArgumentParser):
    """The CLI's one adapter of argparse: a refused value in its parser's words, quoted choices, no lone "--"."""

    def parse_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        # an option's value may not be "--" (`--lo=--`); after a bare "--" every argument is an operand
        if any(arg.startswith("--") and arg.partition("=")[2] == "--" for arg in takewhile("--".__ne__, args)):
            self.exit(2, 'error: "--" is not accepted as an argument value\n')
        return super().parse_args(args, namespace)

    def _get_value(self, action, text):  # argparse would turn a ParseError into "invalid ... value"
        try:
            return text if action.type is None else action.type(text)
        except ParseError as exc:
            raise argparse.ArgumentError(action, str(exc))

    def _check_value(self, action, value):  # choices quoted, as by argparse on Python 3.10-3.13.0, not 3.13.13
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from {', '.join(map(repr, action.choices))})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nicecover",
        description="Exact constructive analysis on [0,1]: computable reals, "
        "a step-counted machine sandbox, bisection, and verified finite subcovers.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    rat = commands.add_parser("rat", help="evaluate an exact rational expression")
    rat.set_defaults(run=_cmd_rat)
    rat.add_argument("expr", help="expression over rationals with + - * and parentheses")

    crn_cmd = commands.add_parser("crn", help="constructive real values")
    crn_sub = crn_cmd.add_subparsers(dest="subcommand", required=True)
    crn_approx = crn_sub.add_parser("approx", help="approximate a value expression")
    crn_approx.set_defaults(run=_cmd_crn_approx)
    crn_approx.add_argument("--expr", required=True, help="value expression; builtins: waiting(...), bisect_limit(...)")
    crn_approx.add_argument("--prec", required=True, type=parse_natural, help="precision level n; answer is within 2^-n")

    machine_cmd = commands.add_parser("machine", help="counter-machine sandbox")
    machine_sub = machine_cmd.add_subparsers(dest="subcommand", required=True)
    machine_run = machine_sub.add_parser("run", help="run a program under a step budget")
    machine_run.set_defaults(run=_cmd_machine_run)
    machine_run.add_argument("--prog", required=True, help="program file")
    machine_run.add_argument("--input", required=True, type=parse_natural)
    machine_run.add_argument("--budget", required=True, type=parse_natural)
    machine_dovetail = machine_sub.add_parser("dovetail", help="enumerate halting inputs")
    machine_dovetail.set_defaults(run=_cmd_machine_dovetail)
    machine_dovetail.add_argument("--prog", required=True, help="program file")
    machine_dovetail.add_argument("--inputs", required=True, type=_parse_inputs, help="inclusive range A..B")
    machine_dovetail.add_argument("--budget", required=True, type=parse_natural, help="total steps across all runs")

    waiting_cmd = commands.add_parser("waiting", help="waiting-sequence values")
    waiting_sub = waiting_cmd.add_subparsers(dest="subcommand", required=True)
    waiting_approx = waiting_sub.add_parser("approx", help="approximate a waiting value")
    waiting_approx.set_defaults(run=_cmd_waiting_approx)
    waiting_approx.add_argument("--prog", required=True, help="monitored program file")
    waiting_approx.add_argument("--input", required=True, type=parse_natural)
    waiting_approx.add_argument("--targets", default="geometric", type=_parse_targets)
    waiting_approx.add_argument("--prec", required=True, type=parse_natural)
    waiting_approx.add_argument(
        "--max-steps", type=parse_natural, default=None,
        help="cap on machine steps per entry (default 100000)",  # analysis.MAX_WAITING_STEPS, pinned by a test
    )

    reduce_cmd = commands.add_parser("reduce", help="step-certified halting probe of a waiting value")
    reduce_cmd.set_defaults(run=_cmd_reduce)
    reduce_cmd.add_argument("--prog", required=True, help="monitored program file")
    reduce_cmd.add_argument("--input", required=True, type=parse_natural)
    reduce_cmd.add_argument("--prec", required=True, type=parse_natural, help="probe precision level")
    reduce_cmd.add_argument("--targets", default="geometric", type=_parse_targets)
    reduce_cmd.add_argument("--oracle", default="step@1/2", type=_parse_oracle,
                            help="validated, but does not change the verdict")

    bisect_cmd = commands.add_parser("bisect", help="bisection search for a discontinuity")
    bisect_cmd.set_defaults(run=_cmd_bisect)
    bisect_cmd.add_argument("--oracle", required=True, type=_parse_oracle, help="step@<r> or stair:<r1>,...")
    bisect_cmd.add_argument("--lo", required=True, type=parse_rational)
    bisect_cmd.add_argument("--hi", required=True, type=parse_rational)
    bisect_cmd.add_argument("--steps", required=True, type=parse_natural)
    bisect_cmd.add_argument("--transcript", default=None, help="write the transcript to this TSV file")

    cover_cmd = commands.add_parser("cover", help="interval covers and finite subcovers")
    cover_sub = cover_cmd.add_subparsers(dest="subcommand", required=True)
    cover_lebesgue = cover_sub.add_parser("lebesgue", help="exact uniform containment radius")
    cover_lebesgue.set_defaults(run=_cmd_cover_lebesgue)
    cover_lebesgue.add_argument("--cover", required=True, help="cover file")
    cover_subcover = cover_sub.add_parser("subcover", help="extract a certified finite subcover")
    cover_subcover.set_defaults(run=_cmd_cover_subcover)
    cover_subcover.add_argument("--cover", required=True, help="cover file")
    cover_subcover.add_argument("--modulus", default="lebesgue", type=_parse_modulus, help="lebesgue | const:<r>")
    cover_subcover.add_argument("--samples", type=_parse_samples, help="validated, but does not change the certificate")
    cover_verify = cover_sub.add_parser("verify", help="check that selected elements cover [0,1]")
    cover_verify.set_defaults(run=_cmd_cover_verify)
    cover_verify.add_argument("--cover", required=True, help="cover file")
    cover_verify.add_argument("--selected", required=True, type=_parse_selected)
    cover_verify_cert = cover_sub.add_parser("verify-cert", help="re-check a subcover certificate")
    cover_verify_cert.set_defaults(run=_cmd_cover_verify_cert)
    cover_verify_cert.add_argument("--cover", required=True, help="cover file")
    cover_verify_cert.add_argument("--cert", required=True, help="certificate file")

    return parser


def _kebab(exc: DomainError) -> str:
    name = type(exc).__name__
    return re.sub(r"(?<!^)(?=[A-Z])", "-", name).lower()


def _cmd_rat(args) -> int:
    node = expressions.parse_expression(args.expr)
    print(render(expressions.eval_rational(node)))
    return 0


def _cmd_crn_approx(args) -> int:
    node = expressions.parse_expression(args.expr)
    value = expressions.evaluate(node, lambda: analysis.expression_builtins())  # runs analysis only at a call
    if not isinstance(value, Rational):  # a call-free expression folds to its exact value
        value = crn.approx_to(value, args.prec)
    print(f"{render(value)} ± 2^-{render(args.prec)}")
    return 0


def _cmd_machine_run(args) -> int:
    program = machine.parse_program(Path(args.prog))
    outcome = machine.run_for(program, args.input, args.budget)
    if isinstance(outcome, machine.Halted):
        print(f"halted steps={render(outcome.steps)}")
    else:
        print(f"still-running budget={render(outcome.budget)}")
    return 0


def _cmd_machine_dovetail(args) -> int:
    program = machine.parse_program(Path(args.prog))
    for input_value, steps in machine.dovetail_enumerate(program, args.inputs, args.budget):
        print(f"input={render(input_value)} steps={render(steps)}")
    return 0


def _cmd_waiting_approx(args) -> int:
    program = machine.parse_program(Path(args.prog))
    max_steps = analysis.MAX_WAITING_STEPS if args.max_steps is None else args.max_steps
    value = analysis.waiting_crn(program, args.input, args.targets, max_steps=max_steps)
    print(f"{render(crn.approx_to(value, args.prec))} ± 2^-{render(args.prec)}")
    return 0


def _cmd_reduce(args) -> int:
    program = machine.parse_program(Path(args.prog))
    verdict = analysis.halting_reduction(program, args.input, args.targets, args.prec)
    if isinstance(verdict, machine.Halted):
        print(f"halts-at steps={render(verdict.steps)}")
    else:
        print(f"no-halt-within steps={render(verdict.budget)}")
    return 0


def _cmd_bisect(args) -> int:
    limit, rows = analysis.bisect_to_precision(args.oracle, args.lo, args.hi, args.steps)
    del limit  # the enclosure below is the printed result
    if args.transcript is not None:
        with Path(args.transcript).open("w") as transcript:
            transcript.writelines(rows.lines())
    last = rows[-1]
    print(f"steps={args.steps}")
    print(f"lo={render(last.lo)}")
    print(f"hi={render(last.hi)}")
    print(f"width={render(last.hi - last.lo)}")
    return 0


def _cmd_cover_lebesgue(args) -> int:
    intervals = cover_mod.parse_cover(Path(args.cover))
    print(f"lebesgue-number={render(cover_mod.lebesgue_number(intervals))}")
    return 0


def _cmd_cover_subcover(args) -> int:
    intervals = cover_mod.parse_cover(Path(args.cover))
    certificate = cover_mod.extract_finite_subcover(intervals, args.modulus(intervals))
    lines = cover_mod.render_certificate(certificate)
    while chunk := "".join(islice(lines, 4096)):
        sys.stdout.write(chunk)
    return 0


def _cmd_cover_verify(args) -> int:
    intervals = cover_mod.parse_cover(Path(args.cover))
    verdict = cover_mod.verify_subcover(intervals, args.selected)
    if isinstance(verdict, cover_mod.Covered):
        print("covered")
        return 0
    print(f"uncovered {render(verdict.witness)}")
    return 1


def _cmd_cover_verify_cert(args) -> int:
    intervals = cover_mod.parse_cover(Path(args.cover))
    certificate = cover_mod.parse_certificate(Path(args.cert))
    problems = cover_mod.verify_certificate(intervals, certificate)
    if not problems:
        print("certificate-ok")
        return 0
    for problem in problems:
        print(f"certificate-invalid: {problem}")
    return 1


def dispatch(argv: Sequence[str]) -> int:
    """Route argv to a command; returns the exit status instead of exiting."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return exc.code

    try:
        return args.run(args)
    except DomainError as exc:
        print(f"{_kebab(exc)} {exc}".rstrip())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
