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
from itertools import islice
from pathlib import Path
from typing import Sequence

from . import analysis, cover as cover_mod, crn, expressions, machine
from .errors import DomainError, ParseError
from .rational import Rational, parse_natural, parse_rational, render


def _flag(parse):
    """Adapt a parser to argparse; its error message is kept as it is.

    argparse would turn a bare ValueError into "invalid ... value".
    """

    def flag(text: str):
        try:
            return parse(text)
        except ParseError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return flag


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


def _parse_modulus(text: str) -> Rational | None:
    """`lebesgue` gives None; `const:<r>` gives the constant radius r."""
    s = text.strip()
    if s == "lebesgue":
        return None
    if s.startswith("const:"):
        return parse_rational(s[len("const:") :])
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    crn_approx.add_argument("--prec", required=True, type=_flag(parse_natural), help="precision level n; answer is within 2^-n")

    machine_cmd = commands.add_parser("machine", help="counter-machine sandbox")
    machine_sub = machine_cmd.add_subparsers(dest="subcommand", required=True)
    machine_run = machine_sub.add_parser("run", help="run a program under a step budget")
    machine_run.set_defaults(run=_cmd_machine_run)
    machine_run.add_argument("--prog", required=True, help="program file")
    machine_run.add_argument("--input", required=True, type=_flag(parse_natural))
    machine_run.add_argument("--budget", required=True, type=_flag(parse_natural))
    machine_dovetail = machine_sub.add_parser("dovetail", help="enumerate halting inputs")
    machine_dovetail.set_defaults(run=_cmd_machine_dovetail)
    machine_dovetail.add_argument("--prog", required=True, help="program file")
    machine_dovetail.add_argument("--inputs", required=True, type=_flag(_parse_inputs), help="inclusive range A..B")
    machine_dovetail.add_argument("--budget", required=True, type=_flag(parse_natural), help="total steps across all runs")

    waiting_cmd = commands.add_parser("waiting", help="waiting-sequence values")
    waiting_sub = waiting_cmd.add_subparsers(dest="subcommand", required=True)
    waiting_approx = waiting_sub.add_parser("approx", help="approximate a waiting value")
    waiting_approx.set_defaults(run=_cmd_waiting_approx)
    waiting_approx.add_argument("--prog", required=True, help="monitored program file")
    waiting_approx.add_argument("--input", required=True, type=_flag(parse_natural))
    waiting_approx.add_argument("--targets", default="geometric", type=_flag(_parse_targets))
    waiting_approx.add_argument("--prec", required=True, type=_flag(parse_natural))
    waiting_approx.add_argument(
        "--max-steps", type=_flag(parse_natural), default=None,
        help="cap on machine steps per entry (default 100000)",  # analysis.MAX_WAITING_STEPS, pinned by a test
    )

    reduce_cmd = commands.add_parser("reduce", help="step-certified halting probe of a waiting value")
    reduce_cmd.set_defaults(run=_cmd_reduce)
    reduce_cmd.add_argument("--prog", required=True, help="monitored program file")
    reduce_cmd.add_argument("--input", required=True, type=_flag(parse_natural))
    reduce_cmd.add_argument("--prec", required=True, type=_flag(parse_natural), help="probe precision level")
    reduce_cmd.add_argument("--targets", default="geometric", type=_flag(_parse_targets))
    reduce_cmd.add_argument("--oracle", default="step@1/2", type=_flag(_parse_oracle),
                            help="validated, but does not change the verdict")

    bisect_cmd = commands.add_parser("bisect", help="bisection search for a discontinuity")
    bisect_cmd.set_defaults(run=_cmd_bisect)
    bisect_cmd.add_argument("--oracle", required=True, type=_flag(_parse_oracle), help="step@<r> or stair:<r1>,...")
    bisect_cmd.add_argument("--lo", required=True, type=_flag(parse_rational))
    bisect_cmd.add_argument("--hi", required=True, type=_flag(parse_rational))
    bisect_cmd.add_argument("--steps", required=True, type=_flag(parse_natural))
    bisect_cmd.add_argument("--transcript", default=None, help="write the transcript to this TSV file")

    cover_cmd = commands.add_parser("cover", help="interval covers and finite subcovers")
    cover_sub = cover_cmd.add_subparsers(dest="subcommand", required=True)
    cover_lebesgue = cover_sub.add_parser("lebesgue", help="exact uniform containment radius")
    cover_lebesgue.set_defaults(run=_cmd_cover_lebesgue)
    cover_lebesgue.add_argument("--cover", required=True, help="cover file")
    cover_subcover = cover_sub.add_parser("subcover", help="extract a certified finite subcover")
    cover_subcover.set_defaults(run=_cmd_cover_subcover)
    cover_subcover.add_argument("--cover", required=True, help="cover file")
    cover_subcover.add_argument("--modulus", default=None, type=_flag(_parse_modulus), help="lebesgue | const:<r>")
    cover_subcover.add_argument(
        "--samples", default=None, type=_flag(_parse_samples),
        help="constancy sample points, comma-separated",
    )
    cover_verify = cover_sub.add_parser("verify", help="check that selected elements cover [0,1]")
    cover_verify.set_defaults(run=_cmd_cover_verify)
    cover_verify.add_argument("--cover", required=True, help="cover file")
    cover_verify.add_argument("--selected", required=True, type=_flag(_parse_selected))
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
    print(f"{render(value)} ± 2^-{args.prec}")
    return 0


def _cmd_machine_run(args) -> int:
    program = machine.parse_program(Path(args.prog))
    outcome = machine.run_for(program, args.input, args.budget)
    if isinstance(outcome, machine.Halted):
        print(f"halted steps={outcome.steps}")
    else:
        print(f"still-running budget={outcome.budget}")
    return 0


def _cmd_machine_dovetail(args) -> int:
    program = machine.parse_program(Path(args.prog))
    for input_value, steps in machine.dovetail_enumerate(program, args.inputs, args.budget):
        print(f"input={input_value} steps={steps}")
    return 0


def _cmd_waiting_approx(args) -> int:
    program = machine.parse_program(Path(args.prog))
    max_steps = analysis.MAX_WAITING_STEPS if args.max_steps is None else args.max_steps
    value = analysis.waiting_crn(program, args.input, args.targets, max_steps=max_steps)
    print(f"{render(crn.approx_to(value, args.prec))} ± 2^-{args.prec}")
    return 0


def _cmd_reduce(args) -> int:
    program = machine.parse_program(Path(args.prog))
    verdict = analysis.halting_reduction(program, args.input, args.targets, args.prec)
    # the window, targets.regulator(prec + 1), may have more digits than str() allows
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
    if args.modulus is None:
        modulus = cover_mod.LebesgueModulus(intervals)
    else:
        modulus = cover_mod.ConstantModulus(args.modulus)
    certificate = cover_mod.extract_finite_subcover(intervals, modulus)
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
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # argparse before 3.13 drops a lone "--" value (as in `--lo=--`) and
    # stores [] without calling the type; no type here returns [] itself
    if any(value == [] for value in vars(args).values()):
        print('error: "--" is not accepted as an argument value', file=sys.stderr)
        return 2

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
