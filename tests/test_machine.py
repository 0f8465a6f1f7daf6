import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COUNTDOWN_TEXT, LOOPER_TEXT, MOD3_TEXT, NEST_TEXT, NOT_LINE_ENDS
from nicecover import machine
from nicecover.errors import BudgetExceeded, ParseError
from nicecover.machine import (
    MAX_DOVETAIL_INPUTS,
    MAX_DOVETAIL_REGISTERS,
    MAX_INSTRUCTIONS,
    MAX_REGISTER,
    Halted,
    MachineState,
    StillRunning,
    dovetail_enumerate,
    parse_program,
    run_for,
)

# No closed-form loop: the path through `a` alternates between the INC 1
# lap and the DEC 1 / DEC 0 lap, 8 steps per unit of the input.
ALTERNATING_TEXT = """a:   JZ 1 b
     DEC 1
     DEC 0
     JZ 0 end
     GOTO a
b:   INC 1
     GOTO a
end: HALT
"""

# SQUARE in the benchmark: each outer lap with register 0 at i moves i - 1 units to register 1
# and back, 8i - 4 steps, so input v halts at step 4v^2 + 2.
SQUARE_TEXT = """outer: JZ 0 end
       DEC 0
mv:    JZ 0 back
       DEC 0
       INC 1
       GOTO mv
back:  JZ 1 outer
       DEC 1
       INC 0
       GOTO back
end:   HALT
"""


class ReferenceState:
    """The plain interpreter: one instruction per `step()`, nothing skipped."""

    def __init__(self, program, input_value):
        self.code = program.code
        self.registers = [0] * program.register_count
        self.registers[0] = input_value
        self.pc = 0
        self.steps = 0
        self.halted = False

    def step(self):
        if self.halted:
            return
        opcode, reg, target = self.code[self.pc]
        self.steps += 1
        op = machine.OPS[opcode]
        if op == "INC":
            self.registers[reg] += 1
            self.pc += 1
        elif op == "DEC":
            self.registers[reg] = max(0, self.registers[reg] - 1)
            self.pc += 1
        elif op == "JZ":
            self.pc = target if self.registers[reg] == 0 else self.pc + 1
        elif op == "GOTO":
            self.pc = target
        else:  # HALT
            self.halted = True
            return
        if self.pc >= len(self.code):
            self.halted = True


def reference_run_for(program, input_value, budget):
    state = ReferenceState(program, input_value)
    while state.steps < budget:
        state.step()
        if state.halted:
            return Halted(state.steps)
    return StillRunning(budget)


def reference_dovetail(program, inputs, total_budget):
    """Round robin, one step per pending input per sweep, in input order."""
    pending = [(i, ReferenceState(program, i)) for i in sorted(set(inputs))]
    emitted = []
    total = 0
    while pending and total < total_budget:
        survivors = []
        for position, (input_value, state) in enumerate(pending):
            if total >= total_budget:
                survivors.extend(pending[position:])
                break
            state.step()
            total += 1
            if state.halted:
                emitted.append((input_value, state.steps))
            else:
                survivors.append((input_value, state))
        pending = survivors
    return emitted


@st.composite
def programs(draw):
    """Programs of 1-8 instructions over registers 0-2, every label used."""
    size = draw(st.integers(1, 8))
    lines = []
    for index in range(size):
        op = draw(st.sampled_from(["INC", "DEC", "JZ", "GOTO", "HALT"]))
        reg = draw(st.integers(0, 2))
        target = draw(st.integers(0, size - 1))
        args = {"INC": f" {reg}", "DEC": f" {reg}", "JZ": f" {reg} l{target}",
                "GOTO": f" l{target}", "HALT": ""}[op]
        lines.append(f"l{index}: {op}{args}\n")
    return parse_program("".join(lines))


@st.composite
def loop_nests(draw):
    """Loop nests 2-3 deep over registers 0-2, as SQUARE in the benchmark and NEST_TEXT are.

    A loop is a head label, a body of INC/DEC lines and inner loops, and a
    GOTO back to the head.  An inner loop tests a register, mostly at its
    head, counts it down and moves it into another one; it leaves when the
    register is zero, to just past the loop or, as SQUARE's second inner
    loop does, to the head of the loop around it.  Two inner loops of one
    loop mostly move a register there and back, as SQUARE's do, so a lap
    traced in one outer lap meets other register values in the next.  The
    outermost loop counts the input down, or never leaves, as NEST_TEXT's
    does not.  Every loop but an innermost one holds one or two inner loops,
    and the program ends with HALT.
    """
    names = iter(range(10))
    moves = st.sampled_from([(a, b) for a in range(3) for b in range(3) if a != b])

    def loop(depth, around, move):
        """The text of a loop; `move` is the (source, destination) of an inner loop's registers."""
        n = next(names)
        reg, to = move
        leaves = around is not None or draw(st.sampled_from([True, True, True, False]))
        body = [f"INC {to}\n"] if around else []
        body += [f"{draw(st.sampled_from(['INC', 'INC', 'DEC']))} {draw(st.sampled_from([to, 3 - reg - to]))}\n"
                 for _ in range(draw(st.integers(0, 2)))]
        if depth > 1:
            there = draw(moves)
            inner = [there] if draw(st.booleans()) else [there, there[::-1]]
            if len(inner) == 1 and draw(st.booleans()):
                inner.append(draw(moves))
            for step in inner:
                body.insert(draw(st.integers(0, len(body))), loop(depth - 1, f"h{n}", step))
        if leaves:
            leave = draw(st.sampled_from([f"x{n}"] * 5 + ([around] if around else [])))
            at = draw(st.sampled_from([0, 0, 0, draw(st.integers(0, len(body)))]))
            body[at:at] = [f"JZ {reg} {leave}\n", f"DEC {reg}\n"]
        return f"h{n}:\n" + "".join(body) + f"GOTO h{n}\nx{n}:\n"

    prefix = "".join(f"INC {r}\n" for r in draw(st.lists(st.integers(1, 2), max_size=2)))
    return parse_program(prefix + loop(draw(st.integers(2, 3)), None, (0, draw(st.integers(1, 2)))) + "HALT\n")


class TestParsing:
    def test_countdown_shape(self, countdown):
        ops = [machine.OPS[opcode] for opcode, _, _ in countdown.code]
        assert ops == ["JZ", "DEC", "GOTO", "HALT"]
        assert countdown.register_count == 1
        assert countdown.code[0][2] == 3  # end: label
        assert countdown.code[2][2] == 0  # loop: label

    def test_comments_blank_lines_and_case(self):
        program = parse_program("# leading comment\n\n  inc 1  # trailing\nhalt\n")
        assert [machine.OPS[opcode] for opcode, _, _ in program.code] == ["INC", "HALT"]
        assert program.register_count == 2

    def test_label_on_own_line(self):
        program = parse_program("start:\nINC 0\nGOTO start\n")
        assert program.code[1] == (machine.OPS.index("GOTO"), 0, 0)

    def test_stacked_labels(self):
        program = parse_program("a: b: HALT\nGOTO a\nGOTO b\n")
        assert program.code[1][2] == 0
        assert program.code[2][2] == 0

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "# only a comment\n",
            "NOP\n",
            "INC\n",
            "INC 1 2\n",
            "INC x\n",
            "DEC -1\n",
            "JZ 0\n",
            "JZ 0 nowhere\n",
            "GOTO\n",
            "GOTO nowhere\n",
            "HALT 0\n",
            "a: HALT\na: HALT\n",
            "HALT\nend:\n",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(ParseError):
            parse_program(text)

    def test_load_program(self, countdown_file):
        assert parse_program(countdown_file) == parse_program(COUNTDOWN_TEXT)

    @pytest.mark.parametrize("char", NOT_LINE_ENDS)
    def test_lines_end_as_in_a_file(self, tmp_path, char):
        path = tmp_path / "prog.cm"
        text = f"# note{char}HALT\r\nloop: DEC 0{char}\rJZ 0 loop\n"
        path.write_bytes(text.encode())
        assert parse_program(text) == parse_program(path) == parse_program("loop: DEC 0\nJZ 0 loop\n")
        for text, error in [(f"INC 0{char}HALT\n", "line 1: INC takes one register"),
                            (f"#{char}\nNOP\n", "line 2: unknown instruction 'NOP'")]:
            path.write_bytes(text.encode())
            for source in (text, path):
                with pytest.raises(ParseError, match=f"^{error}$"):
                    parse_program(source)

    def test_non_ascii_digit_register_is_invalid(self):
        with pytest.raises(ParseError, match="^line 1: bad register '²'$"):
            parse_program("INC ²\n")

    def test_register_cap(self):
        assert parse_program(f"INC {MAX_REGISTER}\n").register_count == MAX_REGISTER + 1
        with pytest.raises(ParseError, match="^line 2: register 1024 is above MAX_REGISTER = 1023$"):
            parse_program("HALT\nJZ 1024 end\nend: HALT\n")
        with pytest.raises(ParseError, match="MAX_REGISTER"):
            parse_program("INC 1000000000\n")

    def test_instruction_cap(self, monkeypatch):
        assert MAX_INSTRUCTIONS == 10**5
        monkeypatch.setattr(machine, "MAX_INSTRUCTIONS", 3)
        # label-only lines, blank lines and comments hold no instruction
        at_cap = "# three\na: INC 0\n\nb:\nDEC 0  # two\nGOTO a\n"
        assert len(parse_program(at_cap).code) == 3
        # refused before any operand is read: the unknown instruction is never reported
        with pytest.raises(BudgetExceeded, match="^program has more than MAX_INSTRUCTIONS = 3 instructions$"):
            parse_program("NOP 1\n" + at_cap)

    def test_label_cap(self, monkeypatch):
        monkeypatch.setattr(machine, "MAX_INSTRUCTIONS", 3)
        # three labels on one instruction; comment-only lines count for nothing
        at_cap = "a:\n# one\nb: c:\n" + "#\n" * 10 + "HALT\n"
        assert parse_program(at_cap).code == ((machine.OPS.index("HALT"), 0, 0),)
        # refused in the label pass: the unknown instruction is never reported
        with pytest.raises(BudgetExceeded, match="^program has more than MAX_INSTRUCTIONS = 3 labels$"):
            parse_program("NOP 1\nd:\n" + at_cap)


class TestSemantics:
    def test_input_lands_in_register_zero(self, countdown):
        state = MachineState(countdown, 5)
        assert state.registers[0] == 5
        assert state.registers == [5] or state.registers[1:] == []

    def test_inc_and_spare_registers(self):
        program = parse_program("INC 2\nHALT\n")
        state = MachineState(program, 9)
        state.advance(1)
        assert state.registers == [9, 0, 1]

    def test_dec_on_zero_is_noop(self):
        program = parse_program("DEC 0\nHALT\n")
        state = MachineState(program, 0)
        state.advance(1)
        assert state.registers[0] == 0
        assert run_for(program, 0, 10) == Halted(2)

    def test_halt_counts_as_a_step(self):
        assert run_for(parse_program("HALT\n"), 0, 10) == Halted(1)

    def test_falling_off_the_end_halts(self):
        assert run_for(parse_program("INC 0\n"), 0, 10) == Halted(1)
        assert run_for(parse_program("INC 0\nINC 0\n"), 0, 10) == Halted(2)

    def test_countdown_step_counts(self, countdown):
        # v decrements cost 3 steps each (JZ, DEC, GOTO), plus final JZ + HALT
        for v in range(6):
            assert run_for(countdown, v, 1000) == Halted(3 * v + 2)

    def test_budget_boundary(self, countdown):
        assert run_for(countdown, 2, 7) == StillRunning(7)
        assert run_for(countdown, 2, 8) == Halted(8)
        assert run_for(countdown, 2, 9) == Halted(8)

    def test_budget_zero(self, countdown):
        assert run_for(countdown, 3, 0) == StillRunning(0)

    def test_looper_never_halts(self, looper):
        assert run_for(looper, 0, 1000) == StillRunning(1000)

    def test_budget_monotonicity(self, countdown):
        for v in range(4):
            outcomes = [run_for(countdown, v, b) for b in range(20)]
            halt_step = None
            for b, outcome in enumerate(outcomes):
                if halt_step is None and isinstance(outcome, Halted):
                    halt_step = outcome.steps
                    assert halt_step == b or halt_step < b
                if halt_step is not None:
                    assert outcome == Halted(halt_step)
                else:
                    assert outcome == StillRunning(b)


class TestDovetail:
    def test_countdown_family(self, countdown):
        result = dovetail_enumerate(countdown, range(0, 4), 1000)
        assert result == [(0, 2), (1, 5), (2, 8), (3, 11)]

    def test_emission_order_is_by_steps_then_input(self, mod3):
        result = dovetail_enumerate(mod3, range(0, 10), 200)
        assert result == [(1, 4), (2, 6), (4, 11), (5, 13), (7, 18), (8, 20)]
        assert result == sorted(result, key=lambda pair: (pair[1], pair[0]))

    def test_non_halting_inputs_are_silent(self, looper):
        assert dovetail_enumerate(looper, range(0, 6), 500) == []

    def test_budget_prefix_property(self, countdown):
        full = dovetail_enumerate(countdown, range(0, 4), 1000)
        for budget in (1, 2, 5, 10, 20, 50):
            partial = dovetail_enumerate(countdown, range(0, 4), budget)
            assert partial == full[: len(partial)]

    def test_budget_must_be_positive(self, countdown):
        with pytest.raises(ValueError):
            dovetail_enumerate(countdown, range(0, 4), 0)

    def test_inputs_normalized(self, countdown):
        expected = dovetail_enumerate(countdown, range(0, 3), 1000)
        assert dovetail_enumerate(countdown, [2, 0, 1, 1, 0], 1000) == expected

    def test_input_count_cap(self, countdown, monkeypatch):
        assert MAX_DOVETAIL_INPUTS == 10**5
        with monkeypatch.context() as patched:
            patched.setattr(machine, "MachineState", None)  # building any run state would fail
            with pytest.raises(BudgetExceeded, match="^more inputs than MAX_DOVETAIL_INPUTS = 100000$"):
                dovetail_enumerate(countdown, range(10**9), 10)
        monkeypatch.setattr(machine, "MAX_DOVETAIL_INPUTS", 4)
        assert dovetail_enumerate(countdown, range(4), 1000) == [(0, 2), (1, 5), (2, 8), (3, 11)]
        with pytest.raises(BudgetExceeded, match="= 4$"):
            dovetail_enumerate(countdown, [0, 1, 2, 3, 3], 1000)  # repeats count

    def test_register_count_cap(self, monkeypatch):
        assert MAX_DOVETAIL_REGISTERS == 10**7
        program = parse_program("INC 3\nHALT\n")  # 4 registers per run
        monkeypatch.setattr(machine, "MAX_DOVETAIL_REGISTERS", 12)
        assert dovetail_enumerate(program, [0, 1, 2, 2], 100) == [(0, 2), (1, 2), (2, 2)]  # repeats run once
        with monkeypatch.context() as patched:
            patched.setattr(machine, "MachineState", None)  # building any run state would fail
            with pytest.raises(BudgetExceeded, match="^4 inputs of 4 registers each need more than "
                                                     "MAX_DOVETAIL_REGISTERS = 12 registers$"):
                dovetail_enumerate(program, range(4), 100)

    def test_run_state_is_registers_position_and_steps(self):
        # 3,001 instructions over 2,000 inputs: nothing a dovetail holds per input grows with the program
        program = parse_program("INC 1\n" * 3000 + "HALT\n")
        state = MachineState(program, 0)
        assert vars(state).keys() == {"program", "registers", "pc", "steps", "halted"}
        tracemalloc.start()
        try:
            assert dovetail_enumerate(program, range(2000), 1) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_consumes_at_most_total_budget(self, countdown):
        # with only 6 total steps nothing past the first halt can be seen
        assert dovetail_enumerate(countdown, range(0, 4), 6) == [(0, 2)]

    def test_one_pass_spends_the_budget(self, countdown, monkeypatch):
        # 20 runs that halt at 302-359 steps: 51 = ceil(1001 / 20) steps each spend the budget in one pass,
        # where 50 = floor(1001 / 20) would leave one step for a second pass over all of them
        limits = []

        def spy(state, limit, *args):
            limits.append(limit)
            return advance(state, limit, *args)

        advance = MachineState.advance
        monkeypatch.setattr(MachineState, "advance", spy)
        assert dovetail_enumerate(countdown, range(100, 120), 1001) == []
        assert limits == [51] * 20

    @pytest.mark.parametrize("inputs,budget", [(range(7), 100), (range(3, 10), 61), (range(0, 30, 3), 333),
                                               (range(1, 30, 3), 2**40 + 1)])
    def test_later_passes_spend_the_rest(self, countdown, mod3, inputs, budget):
        # the widths do not divide the budgets, and the short runs halt inside the first pass
        for program in (countdown, mod3):
            assert dovetail_enumerate(program, inputs, budget) == reference_dovetail(program, inputs, budget)


class TestClosedFormLoops:
    def test_countdown_at_a_trillion(self, countdown):
        assert run_for(countdown, 10**12, 10**13) == Halted(3 * 10**12 + 2)
        assert run_for(countdown, 10**12, 3 * 10**12 + 1) == StillRunning(3 * 10**12 + 1)

    def test_looper_for_a_quadrillion_steps(self, looper):
        assert run_for(looper, 0, 10**15) == StillRunning(10**15)

    def test_alternating_path_is_exact(self):
        assert run_for(parse_program(ALTERNATING_TEXT), 120000, 10**6) == Halted(960000)

    def test_laps_that_cannot_repeat_back_off(self, monkeypatch):
        traced = []

        def counting_repeat_lap(*args):
            traced.append(args[2])
            return repeat_lap(*args)

        repeat_lap = machine._repeat_lap
        monkeypatch.setattr(machine, "_repeat_lap", counting_repeat_lap)
        assert run_for(parse_program(ALTERNATING_TEXT), 120000, 10**6) == Halted(960000)
        # 240,000 laps close at header 0; a doubling back-off traces about log2 of that
        assert traced and set(traced) == {0} and len(traced) <= 20

    def test_state_after_a_closed_form_stop(self, countdown):
        state = MachineState(countdown, 10**9)
        state.advance(3 * 10**6 + 1)
        assert (state.registers, state.pc, state.steps) == ([10**9 - 10**6], 1, 3 * 10**6 + 1)
        state.advance(10**10)
        assert state.halted and state.steps == 3 * 10**9 + 2

    def test_lap_that_falls_off_the_end(self):
        # the lap traced once register 0 is zero leaves by JZ and runs off the program
        program = parse_program("loop: JZ 0 end\nDEC 0\nGOTO loop\nend: INC 1\n")
        for v in (0, 1, 2, 3, 10**12):
            assert run_for(program, v, 10**13) == Halted(3 * v + 2)

    def test_square_steps(self):
        square = parse_program(SQUARE_TEXT)
        for v in (0, 1, 2, 7, 1000):
            assert run_for(square, v, 10**7) == Halted(4 * v * v + 2)

    def test_a_dovetail_traces_each_loop_once(self, monkeypatch):
        # 10 runs of about 100 outer laps each: the laps of both inner loops come from one trace each
        traced = []

        def spy(code, registers, header, room, laps, trace):
            lap = laps.get(header)
            answer = repeat_lap(code, registers, header, room, laps, trace)
            if laps.get(header) is not lap:
                traced.append(header)
            return answer

        repeat_lap = machine._repeat_lap
        monkeypatch.setattr(machine, "_repeat_lap", spy)
        square = parse_program(SQUARE_TEXT)
        assert dovetail_enumerate(square, range(100, 110), 10**9) == [(v, 4 * v * v + 2) for v in range(100, 110)]
        assert sorted(traced) == [2, 6]

    def test_the_lap_table_is_bounded(self, monkeypatch):
        # room for one lap of the whole program: the table keeps the latest lap traced
        square = parse_program(SQUARE_TEXT)
        monkeypatch.setattr(machine, "MAX_TRACED_STEPS", len(square.code))
        laps = {}
        state = MachineState(square, 50)
        state.advance(10**6, laps=laps)
        assert state.halted and state.steps == 4 * 50**2 + 2 and list(laps) == [6]

    def test_dovetail_with_huge_budgets(self, countdown, looper):
        assert dovetail_enumerate(countdown, range(4), 10**15) == [(0, 2), (1, 5), (2, 8), (3, 11)]
        assert dovetail_enumerate(looper, range(50), 10**15) == []


class TestInterpretedStepCap:
    """Steps run one by one are capped per run_for or dovetail; closed-form steps are not."""

    def test_outer_loop_runs_into_the_cap(self, monkeypatch):
        monkeypatch.setattr(machine, "MAX_INTERPRETED_STEPS", 10**4)
        nest = parse_program(NEST_TEXT)
        assert run_for(nest, 0, 10**4) == StillRunning(10**4)
        with pytest.raises(BudgetExceeded, match="^more than MAX_INTERPRETED_STEPS = 10000 steps would run one by one$"):
            run_for(nest, 0, 10**12)
        with pytest.raises(BudgetExceeded, match="MAX_INTERPRETED_STEPS = 10000"):
            dovetail_enumerate(nest, range(3), 10**12)
        # a dovetail shares the cap among its runs: each of these runs about 8,000 steps one by one
        alternating = parse_program(ALTERNATING_TEXT)
        assert run_for(alternating, 1000, 10**6) == Halted(8000)
        with pytest.raises(BudgetExceeded, match="MAX_INTERPRETED_STEPS = 10000"):
            dovetail_enumerate(alternating, range(1000, 1003), 10**6)

    def test_the_cap_is_exact(self, monkeypatch):
        program = parse_program(ALTERNATING_TEXT)
        interpreted = MachineState(program, 1200).advance(10**6)
        assert 0 < interpreted <= 9600
        monkeypatch.setattr(machine, "MAX_INTERPRETED_STEPS", interpreted)
        assert run_for(program, 1200, 10**6) == Halted(9600)
        monkeypatch.setattr(machine, "MAX_INTERPRETED_STEPS", interpreted - 1)
        with pytest.raises(BudgetExceeded):
            run_for(program, 1200, 10**6)

    def test_closed_form_steps_are_free(self, countdown, looper, monkeypatch):
        monkeypatch.setattr(machine, "MAX_INTERPRETED_STEPS", 100)
        assert run_for(countdown, 10**12, 10**13) == Halted(3 * 10**12 + 2)
        assert run_for(looper, 0, 10**15) == StillRunning(10**15)
        assert dovetail_enumerate(countdown, range(4), 10**15) == [(0, 2), (1, 5), (2, 8), (3, 11)]


# Loop nests apply a lap traced in one outer lap to later ones; 2,000 examples each run with `pytest -m slow`.
NEST_EXAMPLES = [150, pytest.param(2000, marks=pytest.mark.slow)]


def check_resumes_exactly(program, input_value, increments, laps=None):
    state, reference = MachineState(program, input_value), ReferenceState(program, input_value)
    for increment in increments:
        state.advance(state.steps + increment, laps=laps)
        while reference.steps < state.steps:
            reference.step()
        assert (state.registers, state.pc, state.steps, state.halted) == (
            reference.registers, reference.pc, reference.steps, reference.halted)


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(programs(), st.integers(0, 60), st.integers(0, 3000))
    def test_run_for(self, program, input_value, budget):
        assert run_for(program, input_value, budget) == reference_run_for(program, input_value, budget)

    @settings(max_examples=150, deadline=None)
    @given(programs(), st.integers(0, 60), st.integers(0, 12), st.integers(1, 3000))
    def test_dovetail_enumerate(self, program, first, width, budget):
        inputs = range(first, first + width)
        assert dovetail_enumerate(program, inputs, budget) == reference_dovetail(program, inputs, budget)

    @settings(max_examples=150, deadline=None)
    @given(programs(), st.integers(0, 60), st.lists(st.integers(0, 400), min_size=1, max_size=8))
    def test_advance_resumes_exactly(self, program, input_value, increments):
        check_resumes_exactly(program, input_value, increments)

    @pytest.mark.parametrize("examples", NEST_EXAMPLES)
    def test_run_for_on_loop_nests(self, examples):
        @settings(max_examples=examples, deadline=None)
        @given(loop_nests(), st.integers(0, 8), st.integers(0, 5000))
        def check(program, input_value, budget):
            assert run_for(program, input_value, budget) == reference_run_for(program, input_value, budget)

        check()

    @pytest.mark.parametrize("examples", NEST_EXAMPLES)
    def test_dovetail_enumerate_on_loop_nests(self, examples):
        @settings(max_examples=examples, deadline=None)
        @given(loop_nests(), st.integers(0, 8), st.integers(0, 10), st.integers(1, 5000))
        def check(program, first, width, budget):
            inputs = range(first, first + width)
            assert dovetail_enumerate(program, inputs, budget) == reference_dovetail(program, inputs, budget)

        check()

    @pytest.mark.parametrize("examples", NEST_EXAMPLES)
    def test_advance_resumes_exactly_on_loop_nests(self, examples):
        # one table of traced laps for all the calls, as a dovetail keeps one for all its passes
        @settings(max_examples=examples, deadline=None)
        @given(loop_nests(), st.integers(0, 8), st.lists(st.integers(0, 400), min_size=1, max_size=8))
        def check(program, input_value, increments):
            check_resumes_exactly(program, input_value, increments, laps={})

        check()
