"""Step-counted counter machine: parsing, bounded runs, dovetailed enumeration.

The instruction set is INC r | DEC r | JZ r label | GOTO label | HALT.
Registers hold unbounded naturals and DEC of zero leaves zero.  One
instruction is one step.  A run either halts (HALT executes, or control
falls off the end) or exhausts its step budget; both outcomes carry exact
step counts, which is what makes every higher-level construction in this
library reproducible.

Runs are exact but not literal: an innermost loop whose next laps provably
take the same path is applied in closed form (laps times lap length steps,
laps times the lap's register deltas), in the manner of the macro steps of
Marxen & Buntrock, "Attacking the Busy Beaver 5" (1990).
"""

from __future__ import annotations

import re
from bisect import bisect_left, insort
from collections import defaultdict
from itertools import islice
from pathlib import Path
from typing import Iterable, TextIO

from .errors import BudgetExceeded, InvalidProgram, ParseError
from .rational import input_lines, parse_natural, record

# Per instruction: the kinds of its operands (r a register, l a label),
# and what it takes, as a wrong operand count is reported.
_OPERANDS = {
    "INC": ("r", "one register"),
    "DEC": ("r", "one register"),
    "JZ": ("rl", "a register and a label"),
    "GOTO": ("l", "a label"),
    "HALT": ("", "no arguments"),
}
OPS = tuple(_OPERANDS)
_INC, _DEC, _JZ, _GOTO, _HALT = range(len(OPS))

# Registers are a dense list per run, so the largest index sets its size.
MAX_REGISTER = 1023
MAX_INSTRUCTIONS = 10**5
# A dovetail holds one run state per input, all at once: the inputs, and
# the registers of all its runs together, are capped.
MAX_DOVETAIL_INPUTS = 10**5
MAX_DOVETAIL_REGISTERS = 10**7
# Steps run one by one, per run_for or dovetail; steps applied in closed form are free.
MAX_INTERPRETED_STEPS = 10**7

_LABEL_RE = re.compile(r"([A-Za-z_]\w*):")


@record
class Program:
    # (opcode, register, target) per instruction; target is the resolved
    # instruction index for JZ / GOTO, unused fields are 0
    code: tuple[tuple[int, int, int], ...]
    register_count: int


@record
class Halted:
    steps: int


@record
class StillRunning:
    budget: int


RunOutcome = Halted | StillRunning


def parse_program(source: str | TextIO) -> Program:
    """Parse a program, text or an open text file read by `input_lines`: one instruction per line,
    `name:` label prefixes, `#` comments, decimal register indices up to MAX_REGISTER.  More than
    MAX_INSTRUCTIONS instructions, or labels, raise BudgetExceeded before any operand is read."""
    labels: dict[str, int] = {}
    raw: list[tuple[str, list[str], int]] = []  # (op, args, source line)
    for line_no, line in input_lines(source):
        code = line.split("#", 1)[0].strip()
        while code:
            m = _LABEL_RE.match(code)
            if m is None:
                break
            name = m.group(1)
            if name in labels:
                raise InvalidProgram(f"line {line_no}: duplicate label {name!r}")
            if len(labels) == MAX_INSTRUCTIONS:
                raise BudgetExceeded(f"program has more than MAX_INSTRUCTIONS = {MAX_INSTRUCTIONS} labels")
            labels[name] = len(raw)
            code = code[m.end() :].strip()
        if not code:
            continue
        if len(raw) == MAX_INSTRUCTIONS:
            raise BudgetExceeded(f"program has more than MAX_INSTRUCTIONS = {MAX_INSTRUCTIONS} instructions")
        tokens = code.split()
        raw.append((tokens[0].upper(), tokens[1:], line_no))

    if not raw:
        raise InvalidProgram("program has no instructions")
    for name, index in labels.items():
        if index >= len(raw):
            raise InvalidProgram(f"label {name!r} points past the last instruction")

    instructions: list[tuple[int, int, int]] = []
    for op, args, line_no in raw:
        if op not in _OPERANDS:
            raise InvalidProgram(f"line {line_no}: unknown instruction {op!r}")
        kinds, takes = _OPERANDS[op]
        if len(args) != len(kinds):
            raise InvalidProgram(f"line {line_no}: {op} takes {takes}")
        reg = target = 0
        for kind, token in zip(kinds, args):
            if kind == "l":
                if token not in labels:
                    raise InvalidProgram(f"line {line_no}: unknown label {token!r}")
                target = labels[token]
            elif not token.isdecimal():
                raise InvalidProgram(f"line {line_no}: bad register {token!r}")
            else:
                try:
                    reg = parse_natural(token)
                except ParseError as exc:
                    raise InvalidProgram(f"line {line_no}: {exc}") from None
                if reg > MAX_REGISTER:
                    raise InvalidProgram(f"line {line_no}: register {reg} is above MAX_REGISTER = {MAX_REGISTER}")
        instructions.append((OPS.index(op), reg, target))

    return Program(tuple(instructions), register_count=max(reg for _, reg, _ in instructions) + 1)


def load_program(path: str | Path) -> Program:
    with Path(path).open() as lines:
        return parse_program(lines)


def _repeat_lap(
    code: tuple[tuple[int, int, int], ...], registers: list[int], header: int, room: int
) -> tuple[int, int]:
    """Run the loop at `header` as many whole laps as provably repeat.

    One lap is traced on the side from `header`: a forward path that ends
    with a backward jump, so it is at most len(code) steps long.  Unless
    that jump returns to `header` within `room` steps, nothing is changed
    and (0, 0) is returned.  Otherwise every JZ/DEC read v of a register
    whose lap delta is d reads v + j*d in lap j, and lap j takes the same
    path as long as each read keeps its zero-ness: v > 0 stays positive,
    v == 0 needs d == 0.  The largest such number of laps that fits in
    `room` is applied to `registers` in place; returns (laps, lap length).
    """
    end = len(code)
    delta: dict[int, int] = {}
    reads: list[tuple[int, int]] = []
    pc = header
    length = 0
    while length < room:
        op, reg, target = code[pc]
        length += 1
        if op == _INC:
            delta[reg] = delta.get(reg, 0) + 1
            pc += 1
        elif op == _DEC:
            value = registers[reg] + delta.get(reg, 0)
            reads.append((reg, value))
            if value:
                delta[reg] = delta.get(reg, 0) - 1
            pc += 1
        elif op == _HALT:
            return 0, 0
        else:
            if op == _JZ:
                value = registers[reg] + delta.get(reg, 0)
                reads.append((reg, value))
            if op == _GOTO or not value:
                if target <= pc:
                    if target != header:
                        return 0, 0
                    break
                pc = target
                continue
            pc += 1
        if pc >= end:
            return 0, 0
    else:
        return 0, 0

    laps = room // length
    for reg, value in reads:
        d = delta.get(reg, 0)
        if value and d < 0:
            laps = min(laps, (value - 1) // -d + 1)
        elif d and not value:
            laps = min(laps, 1)
    for reg, d in delta.items():
        registers[reg] += laps * d
    return laps, length


class MachineState:
    """Mutable state of a single run, moved forward by `advance`: its
    registers, position and step count, nothing else.  Separate runs never
    share state, so distinct runs are safe on distinct threads.
    """

    def __init__(self, program: Program, input_value: int):
        if input_value < 0:
            raise ValueError("input must be a natural number")
        self.program = program
        self.registers = [0] * program.register_count
        self.registers[0] = input_value
        self.pc = 0
        self.steps = 0
        self.halted = False

    def advance(self, limit: int, cap: int | None = None) -> int:
        """Run until the machine halts or `steps` reaches `limit`; return the
        number of steps this call ran one by one.

        A backward jump to the same header as the previous backward jump
        closes one lap of an innermost loop; the laps that provably repeat
        are then applied in closed form by `_repeat_lap`.  When fewer than
        two laps could be applied, that header is not traced again for a
        doubling number of arrivals, so loops whose path keeps changing run
        at the plain loop's speed.  This loop detection lives only for the
        call, keyed by the headers it reaches.  A run that would need more
        than `cap` steps run one by one (default MAX_INTERPRETED_STEPS)
        raises BudgetExceeded instead; the check is the loop's own bound.
        """
        if self.halted:
            return 0
        code = self.program.code
        end = len(code)
        regs = self.registers
        # per header reached: arrivals to skip before tracing a lap again, and the back-off
        skip: dict[int, int] = defaultdict(int)
        backoff: dict[int, int] = defaultdict(int)
        pc, steps, header = self.pc, self.steps, -1
        start, closed = steps, 0
        stop = min(limit, start + (MAX_INTERPRETED_STEPS if cap is None else cap))
        while steps < stop:
            op, reg, target = code[pc]
            steps += 1
            if op == _INC:
                regs[reg] += 1
                pc += 1
            elif op == _DEC:
                if regs[reg]:
                    regs[reg] -= 1
                pc += 1
            elif op == _HALT:
                self.halted = True
                break
            elif op == _GOTO or not regs[reg]:
                if target <= pc:
                    if target != header:
                        header = target
                    elif skip[target]:
                        skip[target] -= 1
                    else:
                        laps, length = _repeat_lap(code, regs, target, limit - steps)
                        steps += laps * length
                        closed += laps * length
                        stop = min(limit, stop + laps * length)
                        if laps < 2:
                            backoff[target] = skip[target] = 2 * backoff[target] or 1
                        else:
                            backoff[target] = 0
                pc = target
                continue
            else:
                pc += 1
            if pc >= end:
                self.halted = True
                break
        self.pc, self.steps = pc, steps
        if steps < limit and not self.halted:
            raise BudgetExceeded(
                f"more than MAX_INTERPRETED_STEPS = {MAX_INTERPRETED_STEPS} steps would run one by one"
            )
        return steps - start - closed


def run_for(program: Program, input_value: int, budget: int) -> RunOutcome:
    """Run with the input in register 0 for at most `budget` steps.

    Deterministic: identical arguments always give the identical outcome,
    and a halt reported with step count k is reproduced by any budget >= k.
    More than MAX_INTERPRETED_STEPS steps run one by one raise BudgetExceeded.
    """
    if budget < 0:
        raise ValueError("budget must be a natural number")
    state = MachineState(program, input_value)
    state.advance(budget)
    return Halted(state.steps) if state.halted else StillRunning(budget)


def dovetail_enumerate(
    program: Program, inputs: Iterable[int], total_budget: int
) -> list[tuple[int, int]]:
    """Enumerate the halting inputs by interleaving.

    Round-robin schedule: every sweep gives each still-pending input one
    additional step, in increasing input order.  The pair (input, k) is
    emitted the moment that input halts at its k-th step; the sweep stops
    as soon as `total_budget` steps have been spent across all runs.  The
    emission order is therefore fully deterministic: sorted by halting
    step, ties broken by input.

    The sweep is not run step by step.  Every input is advanced to a
    common horizon m, doubled until the steps spent up to m reach the
    budget or every input has halted; a later halt cannot be emitted.  An
    input halting at step k takes that step after sum_j min(k_j, k - 1)
    steps of earlier sweeps plus one for each smaller input still pending,
    and it is emitted while that count is below `total_budget`.

    More than MAX_DOVETAIL_INPUTS inputs, repeats included, or distinct
    inputs times registers per run above MAX_DOVETAIL_REGISTERS, are refused
    before any run starts, and more than MAX_INTERPRETED_STEPS steps run one
    by one over all the runs raise BudgetExceeded.
    """
    if total_budget < 1:
        raise ValueError("total budget must be at least 1")
    values = list(islice(inputs, MAX_DOVETAIL_INPUTS + 1))
    if len(values) > MAX_DOVETAIL_INPUTS:
        raise BudgetExceeded(f"more inputs than MAX_DOVETAIL_INPUTS = {MAX_DOVETAIL_INPUTS}")
    values = sorted(set(values))
    if len(values) * program.register_count > MAX_DOVETAIL_REGISTERS:
        raise BudgetExceeded(f"{len(values)} inputs of {program.register_count} registers each need more than "
                             f"MAX_DOVETAIL_REGISTERS = {MAX_DOVETAIL_REGISTERS} registers")
    if not values:
        return []
    states = [MachineState(program, v) for v in values]
    horizon = max(1, total_budget // len(states))
    interpreted = 0
    while True:
        for state in states:
            interpreted += state.advance(horizon, MAX_INTERPRETED_STEPS - interpreted)
        if sum(state.steps for state in states) >= total_budget or all(
            state.halted for state in states
        ):
            break
        horizon *= 2

    halts = sorted((state.steps, position) for position, state in enumerate(states) if state.halted)
    emitted: list[tuple[int, int]] = []
    earlier: list[int] = []  # positions of inputs halted in an earlier sweep, ascending
    earlier_steps = 0
    retired = 0
    for k, position in halts:
        while halts[retired][0] < k:
            earlier_steps += halts[retired][0]
            insort(earlier, halts[retired][1])
            retired += 1
        spent = earlier_steps + (k - 1) * (len(states) - len(earlier))
        spent += position - bisect_left(earlier, position)
        if spent >= total_budget:
            break
        emitted.append((values[position], k))
    return emitted
