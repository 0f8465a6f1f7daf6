import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import NOT_LINE_ENDS
from nicecover import rational
from nicecover.analysis import TranscriptRow
from nicecover.cover import Covered, OpenInterval, parse_certificate, parse_cover
from nicecover.crn import CRN
from nicecover.errors import BudgetExceeded, ParseError
from nicecover.expressions import eval_rational, parse_expression
from nicecover.machine import Halted, StillRunning, parse_program
from nicecover.rational import (
    MAX_INPUT_CHARS,
    MAX_INPUT_LINES,
    MAX_LINE_CHARS,
    ONE,
    ZERO,
    input_lines,
    parse_natural,
    parse_rational,
    pow2,
    render,
)

rationals = st.fractions(max_denominator=10**6)


def value_of(text):
    return eval_rational(parse_expression(text))


def operand(q):
    return f"({render(q)})"


class TestParseRational:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3", Fraction(3)),
            ("-3", Fraction(-3)),
            ("0", ZERO),
            ("3/4", Fraction(3, 4)),
            ("-3/4", Fraction(-3, 4)),
            ("2/4", Fraction(1, 2)),
            ("0/5", ZERO),
            ("0.25", Fraction(1, 4)),
            ("-0.5", Fraction(-1, 2)),
            ("2.50", Fraction(5, 2)),
            ("10.125", Fraction(81, 8)),
            ("  1/2  ", Fraction(1, 2)),
        ],
    )
    def test_accepted(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize(
        "text",
        ["", "  ", "a", "1/2/3", "1.2.3", "--1", "+1", "1 /2", "1/", "1.", ".5", "1e3"],
    )
    def test_rejected(self, text):
        with pytest.raises(ParseError):
            parse_rational(text)

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="^1/0$"):
            parse_rational("1/0")

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(render(q)) == q


class TestArith:
    # exact +, -, * on rationals, through the expression evaluator the CLI uses
    def test_exact_results(self):
        assert value_of("1/3 + 1/6") == Fraction(1, 2)
        assert value_of("1/3 - 1/6") == Fraction(1, 6)
        assert value_of("2/3 * 3/4") == Fraction(1, 2)

    @given(rationals, rationals)
    def test_add_commutes(self, a, b):
        x, y = operand(a), operand(b)
        assert value_of(f"{x} + {y}") == a + b == value_of(f"{y} + {x}")

    @given(rationals, rationals)
    def test_mul_commutes(self, a, b):
        x, y = operand(a), operand(b)
        assert value_of(f"{x} * {y}") == a * b == value_of(f"{y} * {x}")

    @given(rationals, rationals)
    def test_sub_inverts_add(self, a, b):
        x, y = operand(a), operand(b)
        assert value_of(f"{x} + {y} - {y}") == a


class TestParseNatural:
    def test_accepted(self):
        assert parse_natural("0") == 0
        assert parse_natural("17") == 17
        assert parse_natural(" 5 ") == 5

    @pytest.mark.parametrize("text", ["-1", "1/2", "", "x", "1.0", "²"])
    def test_rejected(self, text):
        with pytest.raises(ParseError):
            parse_natural(text)


def decimal_by_loop(n: int) -> str:
    """Decimal text of n >= 0, 18 digits at a time: a reference that never
    converts a long int to or from text in one piece."""
    chunks = []
    while n:
        n, low = divmod(n, 10**18)
        chunks.append(f"{low:018d}")
    return "".join(reversed(chunks)).lstrip("0") or "0"


# past CPython's default limit of 4300 digits on int <-> str conversions
# and across the pieces the conversion is split into
LONG_NATURALS = [10**k + d for k in (599, 600, 601, 4299, 4300, 4301, 9000, 30000) for d in (-1, 0, 1)] + [
    2**14501 - 1, 3**40000, 7**25000 + 10**600]


class TestLongNumbers:
    @pytest.mark.parametrize("n", LONG_NATURALS, ids=lambda n: f"{n.bit_length()}bits")
    def test_render_and_parse(self, n):
        den = 10**4400 + 7
        for q, text in [
            (Fraction(n), decimal_by_loop(n)),
            (Fraction(-n), "-" + decimal_by_loop(n)),
            (Fraction(n, den), f"{decimal_by_loop(n)}/{decimal_by_loop(den)}"),
            (Fraction(-1, n + 1), f"-1/{decimal_by_loop(n + 1)}"),
        ]:
            assert render(q) == text
            assert parse_rational(text) == q

    def test_parse_long_decimal_fraction(self):
        digits = "9" * 5000
        assert parse_rational(f"-1.{digits}") == -(2 - Fraction(1, 10**5000))

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit on this interpreter")
    def test_smallest_digit_limit(self):
        q = Fraction(3**3000, 10**900 + 1)
        text = f"{decimal_by_loop(3**3000)}/{decimal_by_loop(10**900 + 1)}"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert render(q) == text
            assert parse_rational(text) == q
        finally:
            sys.set_int_max_str_digits(limit)


class TestRender:
    def test_denominator_one_elided(self):
        assert render(Fraction(3)) == "3"
        assert render(ZERO) == "0"
        assert render(Fraction(-7)) == "-7"

    def test_fraction_form(self):
        assert render(Fraction(1, 2)) == "1/2"
        assert render(Fraction(-1, 2)) == "-1/2"
        assert render(Fraction(10, 4)) == "5/2"


class TestPow2:
    def test_values(self):
        assert pow2(0) == ONE
        assert pow2(3) == Fraction(8)
        assert pow2(-2) == Fraction(1, 4)

    @given(st.integers(min_value=-64, max_value=64), st.integers(min_value=-64, max_value=64))
    def test_exponent_law(self, a, b):
        assert pow2(a) * pow2(b) == pow2(a + b)


class TestRecord:
    """`record`, the frozen value classes of every layer, behaves as `dataclass(frozen=True)` did."""

    def test_equal_only_within_one_class(self):
        assert Halted(8) == Halted(steps=8)
        assert Halted(8) != Halted(9)
        assert Halted(8) != StillRunning(8)
        assert Halted(8) != 8 and Halted(8).__eq__(8) is NotImplemented
        assert Covered() == Covered()

    def test_equal_records_hash_equal(self):
        assert hash(Halted(8)) == hash(Halted(8))
        assert hash(OpenInterval(Fraction(0), Fraction(1, 2))) == hash(OpenInterval(Fraction(0), Fraction(2, 4)))
        assert len({TranscriptRow(0, ZERO, ONE, "init"), TranscriptRow(0, ZERO, ONE, "init"), Covered()}) == 2

    def test_repr_names_every_field(self):
        assert repr(Halted(8)) == "Halted(steps=8)"
        assert repr(OpenInterval(Fraction(-1, 10), Fraction(6, 10))) == "OpenInterval(lo=Fraction(-1, 10), hi=Fraction(3, 5))"
        assert repr(TranscriptRow(2, Fraction(1, 4), Fraction(1, 2), "lower")) == (
            "TranscriptRow(index=2, lo=Fraction(1, 4), hi=Fraction(1, 2), branch='lower')")
        assert repr(Covered()) == "Covered()"

    def test_fields_cannot_change(self):
        halted = Halted(8)
        with pytest.raises(AttributeError):
            halted.steps = 9
        with pytest.raises(AttributeError):
            del halted.steps
        with pytest.raises(AttributeError):
            halted.other = 1
        assert halted == Halted(8)

    def test_post_init_runs(self):
        with pytest.raises(ValueError, match="interval needs lo < hi"):
            OpenInterval(Fraction(1), Fraction(0))

    def test_fields_by_keyword_and_position(self):
        approx, regulator = (lambda i: ONE), (lambda n: 0)
        value = CRN(approx=approx, regulator=regulator)
        assert (value.approx, value.regulator) == (approx, regulator) and value == CRN(approx, regulator)
        with pytest.raises(TypeError):
            Halted()
        with pytest.raises(TypeError):
            Halted(8, steps=8)


class TestInputLines:
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_lines_end_at_line_feeds_and_carriage_returns(self, end):
        text = f" a b {end}{end}\tc{end}d"
        assert list(input_lines(text)) == [(1, "a b"), (2, ""), (3, "c"), (4, "d")]

    @pytest.mark.parametrize("char", NOT_LINE_ENDS)
    def test_text_is_split_as_a_file_is(self, tmp_path, char):
        text = f"a{char}b\r\nc{char}\rd{char}\n"
        path = tmp_path / "lines.txt"
        path.write_bytes(text.encode())
        assert list(input_lines(text)) == list(input_lines(path)) == [(1, f"a{char}b"), (2, "c"), (3, "d")]

    def test_every_line_counts_against_the_cap(self, monkeypatch):
        assert MAX_INPUT_LINES == 2 * 10**6
        monkeypatch.setattr(rational, "MAX_INPUT_LINES", 3)
        assert list(input_lines("#\n\n#")) == [(1, "#"), (2, ""), (3, "#")]
        lines = input_lines("#\n\n#\n\n")
        assert next(lines) == (1, "#") and next(lines) == (2, "") and next(lines) == (3, "#")
        with pytest.raises(BudgetExceeded, match="^input has more than MAX_INPUT_LINES = 3 lines$"):
            next(lines)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_every_character_counts_against_the_input_cap(self, tmp_path, monkeypatch, end):
        assert MAX_INPUT_CHARS == 2**26
        monkeypatch.setattr(rational, "MAX_INPUT_CHARS", 8)
        text = f" a{end}{end}bc{end}"  # a line's end counts as one character, as a file is read
        path = tmp_path / "lines.txt"
        path.write_bytes(text.encode())
        assert list(input_lines(text)) == list(input_lines(path)) == [(1, "a"), (2, ""), (3, "bc")]
        assert list(input_lines(text + "d")) == [(1, "a"), (2, ""), (3, "bc"), (4, "d")]
        lines = input_lines(text + "de")
        assert [next(lines) for _ in range(3)] == [(1, "a"), (2, ""), (3, "bc")]
        with pytest.raises(BudgetExceeded, match="^input has more than MAX_INPUT_CHARS = 8 characters$"):
            next(lines)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_a_line_past_the_length_cap_is_refused(self, tmp_path, monkeypatch, end):
        assert MAX_LINE_CHARS == 10**6
        monkeypatch.setattr(rational, "MAX_LINE_CHARS", 4)
        at_cap = f" ab {end}wxyz"  # a line's end does not count
        assert list(input_lines(at_cap)) == [(1, "ab"), (2, "wxyz")]
        text = f"{at_cap}{end}vwxyz{end}"
        path = tmp_path / "lines.txt"
        path.write_bytes(text.encode())
        for source in (text, path):
            lines = input_lines(source)
            assert next(lines) == (1, "ab") and next(lines) == (2, "wxyz")
            with pytest.raises(BudgetExceeded, match="^input line 3 has more than MAX_LINE_CHARS = 4 characters$"):
                next(lines)
        with pytest.raises(BudgetExceeded):
            list(input_lines("vwxyz"))

    @pytest.mark.parametrize("parse,text,error", [
        (parse_certificate, "r=1/2\nnet x -> element 0\n" + "net 0 -> element 0\n" * 10 + "selected 0\n",
         ParseError("line 2: not a rational: 'x'")),
        (parse_program, "a: HALT\na: HALT\n" + "HALT\n" * 10, ParseError("line 2: duplicate label 'a'")),
        (parse_cover, "-1 2\n1 0\n" + "-1 2\n" * 10, ParseError("line 2: interval needs lo < hi")),
    ], ids=["certificate", "program", "cover"])
    def test_a_path_is_closed_when_its_reader_stops(self, tmp_path, monkeypatch, parse, text, error):
        opened = []
        monkeypatch.setattr(rational, "open", lambda path: opened.append(open(path)) or opened[-1], raising=False)
        path = tmp_path / "input.txt"
        path.write_text(text)
        with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
            parse(path)
        lines = input_lines(path)
        assert next(lines) == (1, text.split("\n")[0]) and next(lines)[0] == 2
        del lines  # stopped at line 2
        assert list(input_lines(path))[-1][0] == text.count("\n")  # read to the end
        assert len(opened) == 3 and all(file.closed for file in opened)
