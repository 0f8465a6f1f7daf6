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
Marxen & Buntrock, "Attacking the Busy Beaver 5" (1990).  A traced lap is
kept per loop header, for one run or one dovetail, and applied again while
its register tests keep their answers.
"""

from __future__ import annotations

import re
from bisect import bisect_left, insort
from collections import defaultdict
from itertools import islice
from typing import Iterable

from .errors import BudgetExceeded, ParseError
from .rational import Source, input_lines, parse_natural, record, render

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
# A table of traced laps holds one lap per loop header, each at most len(code) steps long;
# it is cleared before it could hold more steps than this.
MAX_TRACED_STEPS = 2**18

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


def parse_program(source: Source) -> Program:
    """Parse a program, text or a path, read by `input_lines`: one instruction per line, `name:` label
    prefixes, `#` comments, decimal register indices up to MAX_REGISTER.  A malformed program raises
    ParseError, and more than MAX_INSTRUCTIONS instructions, or labels, BudgetExceeded before any operand."""
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
                raise ParseError(f"line {line_no}: duplicate label {name!r}")
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
        raise ParseError("program has no instructions")
    for name, index in labels.items():
        if index >= len(raw):
            raise ParseError(f"label {name!r} points past the last instruction")

    instructions: list[tuple[int, int, int]] = []
    for op, args, line_no in raw:
        if op not in _OPERANDS:
            raise ParseError(f"line {line_no}: unknown instruction {op!r}")
        kinds, takes = _OPERANDS[op]
        if len(args) != len(kinds):
            raise ParseError(f"line {line_no}: {op} takes {takes}")
        reg = target = 0
        for kind, token in zip(kinds, args):
            if kind == "l":
                if token not in labels:
                    raise ParseError(f"line {line_no}: unknown label {token!r}")
                target = labels[token]
            elif not token.isdecimal():
                raise ParseError(f"line {line_no}: bad register {token!r}")
            else:
                try:
                    reg = parse_natural(token)
                except ParseError as exc:
                    raise ParseError(f"line {line_no}: {exc}") from None
                if reg > MAX_REGISTER:
                    raise ParseError(f"line {line_no}: register {render(reg)} is above MAX_REGISTER = {MAX_REGISTER}")
        instructions.append((OPS.index(op), reg, target))

    return Program(tuple(instructions), register_count=max(reg for _, reg, _ in instructions) + 1)


def _repeat_lap(
    code: tuple[tuple[int, int, int], ...], registers: list[int], header: int, room: int, laps: dict, trace: bool
) -> tuple[int, int]:
    """Run the loop at `header` as many whole laps as provably repeat.

    `laps` maps a header to its traced lap: (length, register deltas, reads),
    where a read (register, offset, zero, d) is a JZ/DEC that reads register +
    offset, was zero or not when traced, and whose register moves by d per
    lap.  The lap holds, that is, takes the same path, as long as every read
    keeps its zero-ness.  When the header has no lap that holds, nothing is
    changed and (0, 0) is returned, unless `trace` is set: then one lap is
    traced on the side, a forward path from `header` that ends with a
    backward jump, so at most len(code) steps long, and it replaces the
    header's lap if that jump returns to `header` (else the header's lap is
    dropped and (0, 0) returned).  Lap j reads v + j*d for a read of v, and
    takes the same path while v > 0 stays positive and v == 0 has d == 0.
    The largest such number of laps that fits in `room` is applied to
    `registers` in place; returns (laps, lap length).
    """
    lap = laps.get(header)
    if lap is None or any((registers[reg] + offset == 0) != zero for reg, offset, zero, _ in lap[2]):
        if not trace:
            return 0, 0
        laps.pop(header, None)
        end = len(code)
        delta: dict[int, int] = {}
        reads: dict[tuple[int, int], bool] = {}  # (register, offset) -> read zero
        pc = header
        length = 0
        while True:
            op, reg, target = code[pc]
            length += 1
            if op == _INC:
                delta[reg] = delta.get(reg, 0) + 1
                pc += 1
            elif op == _DEC:
                offset = delta.get(reg, 0)
                reads[reg, offset] = zero = registers[reg] + offset == 0
                if not zero:
                    delta[reg] = offset - 1
                pc += 1
            elif op == _HALT:
                return 0, 0
            else:
                if op == _JZ:
                    offset = delta.get(reg, 0)
                    reads[reg, offset] = zero = registers[reg] + offset == 0
                if op == _GOTO or zero:
                    if target <= pc:
                        if target != header:
                            return 0, 0
                        break
                    pc = target
                    continue
                pc += 1
            if pc >= end:
                return 0, 0
        # one lap per header, each at most len(code) steps: the table stays within MAX_TRACED_STEPS
        if (len(laps) + 1) * end > MAX_TRACED_STEPS:
            laps.clear()
        lap = laps[header] = (length, tuple(delta.items()),
                              tuple((reg, offset, zero, delta.get(reg, 0)) for (reg, offset), zero in reads.items()))

    length, delta_items, lap_reads = lap
    count = room // length
    for reg, offset, zero, d in lap_reads:
        if not zero and d < 0:
            count = min(count, (registers[reg] + offset - 1) // -d + 1)
        elif zero and d:
            count = min(count, 1)
    for reg, d in delta_items:
        registers[reg] += count * d
    return count, length


class MachineState:
    """Mutable state of a single run, moved forward by `advance`: its
    registers, position and step count, nothing else.  Separate runs never
    share state, so distinct runs are safe on distinct threads; a table of
    traced laps passed to `advance` belongs to one thread.
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

    def advance(self, limit: int, cap: int | None = None, laps: dict | None = None) -> int:
        """Run until the machine halts or `steps` reaches `limit`; return the
        number of steps this call ran one by one.

        Loops go to `_repeat_lap`, which applies the laps that provably repeat
        in closed form, from `laps`, the table of traced laps.  At a backward
        jump to the same header as the previous one, a lap is traced when the
        table has none that holds; when fewer than two laps could be applied
        there, the header is not tried again for a doubling number of such
        arrivals, so loops whose path keeps changing run at the plain loop's
        speed.  At the first arrival at a header, a lap in the table that
        holds is applied, and none is traced.  Without `laps` the table lives
        for this call, which is all of one `run_for`; `dovetail_enumerate`
        passes one table to all its runs and passes, since a lap depends only
        on the program and on the zero-ness of its reads.  A run that would
        need more than `cap` steps run one by one (default
        MAX_INTERPRETED_STEPS) raises BudgetExceeded instead; the check is the
        loop's own bound.
        """
        if self.halted:
            return 0
        code = self.program.code
        end = len(code)
        regs = self.registers
        laps = {} if laps is None else laps
        # per header reached: arrivals to skip before trying its lap again, and the back-off
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
                    if target == header and skip[target]:
                        skip[target] -= 1
                    elif target == header or target in laps:
                        count, length = _repeat_lap(code, regs, target, limit - steps, laps, target == header)
                        steps += count * length
                        closed += count * length
                        stop = min(limit, stop + count * length)
                        if count > 1:
                            backoff[target] = 0
                        elif target == header:
                            backoff[target] = skip[target] = 2 * backoff[target] or 1
                    header = target
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

    The sweep is not run step by step.  Pass by pass, every input is
    advanced to a common horizon m, until the steps spent up to m reach the
    budget or every input has halted; a later halt cannot be emitted, so
    any such m gives the same pairs.  With h = max(1, total_budget // W)
    for W inputs, pass j goes to the larger of h * 2^j and the least horizon
    that could spend the rest of the budget, m + ceil((total_budget - spent)
    / pending) from the previous m (the first pass: ceil(total_budget / W)).
    So no pass stops short of the budget by a rounding, and no run goes
    past where plain doubling from h would take it, unless every run has
    halted by then.  All runs and passes share one table of traced laps.
    An input halting at step k takes that step after sum_j min(k_j, k - 1)
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
    laps: dict = {}
    doubled = max(1, total_budget // len(states))
    horizon = spent = interpreted = 0
    pending = len(states)
    while True:
        horizon = max(doubled, horizon - (spent - total_budget) // pending)  # ceil((budget - spent) / pending) more
        for state in states:
            interpreted += state.advance(horizon, MAX_INTERPRETED_STEPS - interpreted, laps)
        spent = sum(state.steps for state in states)
        pending = sum(not state.halted for state in states)
        if spent >= total_budget or not pending:
            break
        doubled *= 2

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
