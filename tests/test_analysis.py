from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import COUNTDOWN_TEXT
from nicecover.analysis import (
    MAX_BISECT_STEPS,
    MAX_WAITING_STEPS,
    StairMap,
    StepMap,
    bisect_limit,
    bisect_step,
    bisect_to_precision,
    expression_builtins,
    geometric_targets,
    halting_reduction,
    parse_oracle,
    parse_targets,
    waiting_crn,
)
from nicecover import analysis, cover, crn, machine
from nicecover.crn import approx_to, validate_regulator
from nicecover.errors import BudgetExceeded, NonpositiveRadius, NotSeparated, ParseError
from nicecover.machine import Halted, StillRunning, run_for
from nicecover.rational import pow2, render

THIRD = Fraction(1, 3)


class TestTargets:
    def test_geometric_values(self):
        g = geometric_targets()
        for i in range(11):
            assert g.approx(i) == 1 - pow2(-i)
        assert g.regulator(7) == 7

    def test_geometric_regulator_law(self):
        assert validate_regulator(geometric_targets(), levels=range(0, 16)).ok

    def test_parse_targets(self):
        assert parse_targets("geometric").approx(3) == Fraction(7, 8)
        with pytest.raises(ParseError):
            parse_targets("arithmetic")


class TestDiscreteMaps:
    def test_step_map(self):
        f = StepMap(THIRD)
        assert f.label(Fraction(0)) == 0
        assert f.label(THIRD - Fraction(1, 1000)) == 0
        assert f.label(THIRD) == 1
        assert f.label(Fraction(1)) == 1

    def test_stair_map(self):
        f = StairMap((Fraction(1, 4), Fraction(3, 4)))
        values = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
        assert [f.label(v) for v in values] == [0, 1, 1, 2, 2]

    def test_parse_oracle(self):
        assert parse_oracle("step@1/2") == StepMap(Fraction(1, 2))
        assert parse_oracle("stair:1/4,3/4") == StairMap((Fraction(1, 4), Fraction(3, 4)))

    @pytest.mark.parametrize("spec", ["", "step@", "stair:", "foo", "step@x", "stair:1/2,x"])
    def test_parse_oracle_rejects(self, spec):
        with pytest.raises(ParseError):
            parse_oracle(spec)

    def test_parse_oracle_zero_denominator(self):
        with pytest.raises(ParseError, match="^1/0$"):
            parse_oracle("step@1/0")


class TestWaiting:
    def test_halting_run_freezes(self, countdown):
        w = waiting_crn(countdown, 2, geometric_targets())  # halts at step 8
        for i in range(8):
            assert w.approx(i) == 1 - pow2(-i)
        for i in (8, 9, 20, 64):
            assert w.approx(i) == Fraction(255, 256)

    def test_non_halting_run_tracks_targets(self, looper):
        w = waiting_crn(looper, 0, geometric_targets())
        for i in (0, 1, 10, 64):
            assert w.approx(i) == 1 - pow2(-i)

    def test_regulator_is_inherited_and_valid(self, countdown, looper):
        for w in (
            waiting_crn(countdown, 2, geometric_targets()),
            waiting_crn(countdown, 0, geometric_targets()),
            waiting_crn(looper, 5, geometric_targets()),
        ):
            assert w.regulator(9) == 9
            assert validate_regulator(w, levels=range(0, 12)).ok

    def test_approx_to_bounds(self, countdown, looper):
        halting = waiting_crn(countdown, 2, geometric_targets())
        for n in range(12):
            assert abs(approx_to(halting, n) - Fraction(255, 256)) <= pow2(-n)
        running = waiting_crn(looper, 0, geometric_targets())
        for n in range(12):
            assert abs(approx_to(running, n) - 1) <= pow2(-n)

    def test_default_step_cap(self, looper):
        w = waiting_crn(looper, 0, geometric_targets())
        n = MAX_WAITING_STEPS - 1  # reads entry n + 1, the deepest one allowed
        assert approx_to(w, n) == 1 - pow2(-(n + 1))
        with pytest.raises(BudgetExceeded, match=f"^index {n + 2} needs {n + 2} steps; cap is {MAX_WAITING_STEPS}$"):
            approx_to(w, n + 1)

    def test_max_steps_cap(self, looper):
        w = waiting_crn(looper, 0, geometric_targets(), max_steps=5)
        assert w.approx(5) == Fraction(31, 32)
        with pytest.raises(BudgetExceeded):
            w.approx(6)
        with pytest.raises(BudgetExceeded):
            approx_to(w, 6)  # needs index 7


class TestHaltingReduction:
    def test_halt_inside_window(self, countdown):
        assert halting_reduction(
            countdown, 2, geometric_targets(), 10
        ) == Halted(8)

    def test_no_halt_reported_with_window(self, looper):
        assert halting_reduction(
            looper, 0, geometric_targets(), 10
        ) == StillRunning(11)

    def test_window_too_small_for_late_halt(self, countdown):
        assert halting_reduction(
            countdown, 2, geometric_targets(), 5
        ) == StillRunning(6)

    def test_verdicts_are_step_certified(self, countdown, looper, mod3):
        cases = [(countdown, 2), (countdown, 0), (looper, 3), (mod3, 6), (mod3, 7)]
        for program, input_value in cases:
            for prec in (0, 3, 9, 20):
                verdict = halting_reduction(
                    program, input_value, geometric_targets(), prec
                )
                if isinstance(verdict, Halted):
                    assert run_for(program, input_value, verdict.steps) == verdict
                else:
                    assert run_for(program, input_value, verdict.budget) == verdict
                    assert verdict.budget == geometric_targets().regulator(prec + 1)

    def test_runs_the_machine_once(self, countdown, looper, monkeypatch):
        calls = []

        def counting_run_for(*args):
            calls.append(args)
            return run_for(*args)

        monkeypatch.setattr(analysis, "run_for", counting_run_for)
        for program in (countdown, looper):
            calls.clear()
            halting_reduction(program, 2, geometric_targets(), 10)
            assert calls == [(program, 2, 11)]


class TestBisectStep:
    def test_step_oracle_sequence(self):
        f = StepMap(THIRD)
        lo, hi = Fraction(0), Fraction(1)
        seen = [(lo, hi)]
        for _ in range(3):
            lo, hi = bisect_step((lo, hi), f)
            seen.append((lo, hi))
        assert seen == [
            (Fraction(0), Fraction(1)),
            (Fraction(0), Fraction(1, 2)),
            (Fraction(1, 4), Fraction(1, 2)),
            (Fraction(1, 4), Fraction(3, 8)),
        ]

    def test_stair_oracle_prefers_upper_half(self):
        f = StairMap((Fraction(1, 4), Fraction(3, 4)))
        assert bisect_step((Fraction(0), Fraction(1)), f) == (Fraction(1, 2), Fraction(1))
        assert bisect_step((Fraction(1, 2), Fraction(1)), f) == (Fraction(1, 2), Fraction(3, 4))

    def test_not_separated(self):
        with pytest.raises(NotSeparated):
            bisect_step((Fraction(1, 2), Fraction(1)), StepMap(THIRD))

    def test_labels_stay_separated(self):
        f = StepMap(THIRD)
        lo, hi = Fraction(0), Fraction(1)
        for _ in range(20):
            lo, hi = bisect_step((lo, hi), f)
            assert f.label(lo) != f.label(hi)


class CountingMap:
    """A discrete map that records every point it labels."""

    def __init__(self, f):
        self.f = f
        self.points = []

    @property
    def thresholds(self):
        return self.f.thresholds

    def label(self, t):
        self.points.append(t)
        return self.f.label(t)


positive_widths = st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6)
unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=1000)


@st.composite
def separated_bisections(draw):
    """(map, lo, hi) with one threshold in (lo, hi], so the endpoint labels differ."""
    lo = draw(st.fractions(min_value=-2, max_value=2, max_denominator=100))
    hi = lo + draw(positive_widths)
    inside = lo + (hi - lo) * draw(unit_fractions.filter(bool))
    if draw(st.booleans()):
        return StepMap(inside), lo, hi
    others = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=1000), max_size=4))
    return StairMap(tuple(sorted([inside, *others]))), lo, hi


def loop_regulator(width, m):
    """The bisection limit's regulator as a search: the least i >= 0 with width * 2^-i < 2^-m."""
    i = 0
    while not width * pow2(-i) < pow2(-m):
        i += 1
    return i


def plain_transcript(f, lo, hi, steps):
    """The transcript rows as iterated bisect_step, which labels every midpoint, gives them."""
    plain, pair = [f"0\t{render(lo)}\t{render(hi)}\tinit"], (lo, hi)
    for i in range(1, steps + 1):
        lo_before, pair = pair[0], bisect_step(pair, f)
        branch = "upper" if pair[0] != lo_before else "lower"
        plain.append(f"{i}\t{render(pair[0])}\t{render(pair[1])}\t{branch}")
    return plain


def rendered(rows):
    return [f"{r.index}\t{render(r.lo)}\t{render(r.hi)}\t{r.branch}" for r in rows]


def tsv(lines):
    return "".join(f"{line}\n" for line in lines)


def assert_lines_past_the_digit_limit(steps):
    # every row's denominator has more than 4,300 digits, so render_ratio takes its fallback
    f, lo, hi = StepMap(THIRD), Fraction(1, 3**9100), Fraction(1)
    _, rows = bisect_to_precision(f, lo, hi, steps)
    assert "".join(rows.lines()) == tsv(plain_transcript(f, lo, hi, steps))


class TestLabelCarryingChain:
    @given(separated_bisections(), st.integers(0, 60))
    def test_transcript_matches_plain_steps(self, bisection, steps):
        f, lo, hi = bisection
        _, rows = bisect_to_precision(f, lo, hi, steps)
        assert rendered(rows) == plain_transcript(f, lo, hi, steps)

    @given(separated_bisections(), st.integers(0, 300))
    def test_lines_match_the_rows(self, bisection, steps):
        # lines() renders only the endpoint that moved; the rows render both
        f, lo, hi = bisection
        _, rows = bisect_to_precision(f, lo, hi, steps)
        assert "".join(rows.lines()) == tsv(rendered(rows))

    @pytest.mark.parametrize(
        "f,lo,hi",
        [
            (StepMap(THIRD), Fraction(0), Fraction(1)),
            # unsorted, repeated and outside (lo, hi]
            (StairMap((Fraction(3, 4), Fraction(1, 4), Fraction(3, 4), Fraction(5), Fraction(-2))), Fraction(0), Fraction(1)),
            (StepMap(Fraction(1)), Fraction(0), Fraction(1)),
            (StairMap((Fraction(1, 4), Fraction(1), Fraction(0))), Fraction(0), Fraction(1)),
            (StairMap((THIRD, THIRD + pow2(-60))), Fraction(0), Fraction(1)),
            (StepMap(Fraction(-1, 5)), Fraction(-7, 3), Fraction(5, 11)),
            (StairMap((Fraction(5, 11), Fraction(-7, 3), Fraction(-2, 9), Fraction(1, 2))), Fraction(-7, 3), Fraction(5, 11)),
        ],
        ids=["step-third", "stair-unsorted", "step-at-hi", "stair-at-hi", "stair-2^-60-apart",
             "step-off-grid", "stair-off-grid"],
    )
    def test_closed_form_matches_plain_steps_at_2000_rows(self, f, lo, hi):
        value, rows = bisect_to_precision(f, lo, hi, 2000)
        plain = plain_transcript(f, lo, hi, 2000)
        assert rendered(rows) == plain
        assert "".join(rows.lines()) == tsv(plain)
        # the limit reads the transcript's rows, and past them it closes in on the largest threshold
        assert approx_to(value, 1990) == rows[value.regulator(1991)].lo
        assert abs(approx_to(value, 2500) - max(c for c in f.thresholds if lo < c <= hi)) <= pow2(-2500)

    def test_lines_past_the_digit_limit(self):
        assert_lines_past_the_digit_limit(300)

    @pytest.mark.slow
    def test_two_thousand_lines_past_the_digit_limit(self):
        assert_lines_past_the_digit_limit(2000)

    def test_one_label_per_row(self):
        # only the two endpoints are ever labelled, however many rows are read
        for steps in (0, 1, 50, 2000):
            f = CountingMap(StairMap((Fraction(1, 4), Fraction(3, 4))))
            value, rows = bisect_to_precision(f, Fraction(0), Fraction(1), steps)
            approx_to(value, MAX_BISECT_STEPS - 2)
            assert len(rows) == steps + 1
            assert f.points == [Fraction(0), Fraction(1)]

    @given(positive_widths, st.integers(-40, 300))
    def test_regulator_matches_the_search(self, width, m):
        assert bisect_limit(StepMap(width / 2), Fraction(0), width).regulator(m) == loop_regulator(width, m)

    @pytest.mark.parametrize("k", range(-12, 13))
    @pytest.mark.parametrize("m", [-5, 0, 7])
    def test_regulator_at_powers_of_two(self, k, m):
        # width 2^k is where the bit-length guess needs its correction
        width = pow2(k)
        assert bisect_limit(StepMap(width / 2), Fraction(0), width).regulator(m) == loop_regulator(width, m)


class TestBisectToPrecision:
    @pytest.mark.parametrize(
        "oracle,limit",
        [
            (StepMap(THIRD), THIRD),
            (StepMap(Fraction(1, 7)), Fraction(1, 7)),
            (StairMap((Fraction(1, 4), Fraction(3, 4))), Fraction(3, 4)),
        ],
    )
    def test_transcript_invariants(self, oracle, limit):
        value, rows = bisect_to_precision(oracle, Fraction(0), Fraction(1), 24)
        assert len(rows) == 25
        assert (rows[0].index, rows[0].lo, rows[0].hi, rows[0].branch) == (0, 0, 1, "init")
        for i, row in enumerate(rows):
            assert row.index == i
            assert row.hi - row.lo == pow2(-i)
            assert oracle.label(row.lo) != oracle.label(row.hi)
            assert row.lo <= limit <= row.hi
            if i:
                assert rows[i - 1].lo <= row.lo and row.hi <= rows[i - 1].hi
                assert row.branch in ("lower", "upper")
                if row.branch == "upper":
                    assert row.lo > rows[i - 1].lo
                else:
                    assert row.lo == rows[i - 1].lo

    def test_limit_crn_accuracy_and_regulator(self):
        value = bisect_limit(StepMap(THIRD), Fraction(0), Fraction(1))
        for n in (0, 5, 17, 40):
            assert abs(approx_to(value, n) - THIRD) <= pow2(-n)
        assert validate_regulator(value, levels=range(0, 20)).ok

    def test_chain_reuse_is_consistent(self):
        value, _ = bisect_to_precision(StepMap(THIRD), Fraction(0), Fraction(1), 0)
        deep = approx_to(value, 40)
        shallow = approx_to(value, 5)
        fresh = bisect_limit(StepMap(THIRD), Fraction(0), Fraction(1))
        assert shallow == approx_to(fresh, 5)
        assert deep == approx_to(fresh, 40)

    def test_off_grid_interval(self):
        lo, hi = Fraction(1, 10), Fraction(9, 10)
        value, rows = bisect_to_precision(StepMap(THIRD), lo, hi, 16)
        for row in rows:
            assert row.hi - row.lo == (hi - lo) * pow2(-row.index)
            assert row.lo <= THIRD <= row.hi
        assert abs(approx_to(value, 30) - THIRD) <= pow2(-30)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            bisect_to_precision(StepMap(THIRD), Fraction(0), Fraction(1), -1)

    def test_unseparated_endpoints_rejected(self):
        with pytest.raises(NotSeparated):
            bisect_to_precision(StepMap(THIRD), Fraction(1, 2), Fraction(1), 3)

    def test_transcript_length_cap(self):
        with pytest.raises(BudgetExceeded, match="MAX_BISECT_STEPS = 10000$"):
            bisect_to_precision(StepMap(THIRD), Fraction(0), Fraction(1), MAX_BISECT_STEPS + 1)

    def test_rows_are_a_lazy_sequence(self, monkeypatch):
        built = []
        row = analysis.Transcript.row
        monkeypatch.setattr(analysis.Transcript, "row", lambda transcript, i: built.append(i) or row(transcript, i))
        _, rows = bisect_to_precision(StepMap(THIRD), Fraction(0), Fraction(1), 4)
        assert len(rows) == 5 and built == []
        assert rows[-1] == rows[4] == analysis.TranscriptRow(4, Fraction(5, 16), Fraction(3, 8), "upper")
        assert rows[-5] == rows[0] == analysis.TranscriptRow(0, Fraction(0), Fraction(1), "init")
        assert built == [4, 4, 0, 0]
        for i in (5, -6, 10**30):
            with pytest.raises(IndexError):
                rows[i]
        listed = list(rows)
        assert [r.index for r in listed] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("part", [slice(1, 3), slice(-4, -1), slice(-2, None), slice(None, None, 2),
                                      slice(None, None, -2), slice(-1, 0, -3), slice(3, 1), slice(-1, -3)], ids=str)
    def test_a_slice_is_a_list_of_rows(self, part):
        _, rows = bisect_to_precision(StepMap(THIRD), Fraction(0), Fraction(1), 5)
        assert rows[part] == list(rows)[part]

    def test_lazy_rows_past_the_cap_are_refused(self):
        value = bisect_limit(StepMap(THIRD), Fraction(0), Fraction(1))
        n = MAX_BISECT_STEPS - 2  # reads row n + 2, the last one allowed
        assert abs(approx_to(value, n) - THIRD) < pow2(-n)
        with pytest.raises(BudgetExceeded, match=f"^bisection row {n + 3} is past MAX_BISECT_STEPS = 10000$"):
            approx_to(value, n + 1)


class TestExpressionBuiltins:
    def test_names(self):
        assert set(expression_builtins()) == {"waiting", "bisect_limit"}

    def test_waiting_builtin(self, countdown_file):
        value = expression_builtins()["waiting"]([str(countdown_file), "2"])
        assert approx_to(value, 10) == Fraction(255, 256)

    def test_waiting_builtin_arity(self):
        with pytest.raises(ParseError):
            expression_builtins()["waiting"](["only-one"])

    def test_bisect_builtin_keeps_stair_commas(self):
        value = expression_builtins()["bisect_limit"](["stair:1/4", "3/4", "0", "1"])
        assert abs(approx_to(value, 12) - Fraction(3, 4)) <= pow2(-12)


# Argument checks of the library that no command reaches: each call raises its own exception and message.
COUNTDOWN = machine.parse_program(COUNTDOWN_TEXT)
HALF = crn.from_rational(Fraction(1, 2))


@pytest.mark.parametrize("call,error,message", [
    (lambda: cover.lebesgue_number([]), ValueError, "cover must be nonempty"),
    (lambda: cover.find_containing_element(cover.parse_cover("-1 2\n"), THIRD, Fraction(0)), NonpositiveRadius,
     "ball radius 0 is not positive"),
    (lambda: crn.approx_to(HALF, -1), ValueError, "precision level must be non-negative"),
    (lambda: crn.compare_apart(HALF, HALF, -1), ValueError, "precision level must be non-negative"),
    (lambda: crn.validate_regulator(HALF, levels=range(3), probes_per_level=1), ValueError,
     "probes_per_level must be at least 2"),
    (lambda: machine.MachineState(COUNTDOWN, -1), ValueError, "input must be a natural number"),
    (lambda: machine.run_for(COUNTDOWN, 0, -1), ValueError, "budget must be a natural number"),
], ids=["lebesgue_number", "find_containing_element", "approx_to", "compare_apart", "validate_regulator",
        "MachineState", "run_for"])
def test_library_argument_checks(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert (type(raised.value), str(raised.value)) == (error, message)
