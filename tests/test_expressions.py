from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nicecover.crn import approx_to, from_rational
from nicecover.errors import ParseError
from nicecover.expressions import MAX_DEPTH, eval_crn, eval_rational, parse_expression
from nicecover.rational import render

F = Fraction
rationals = st.fractions(max_denominator=10**6)


def value_of(text):
    return eval_rational(parse_expression(text))


class TestRationalEvaluation:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1/2 + 1/3", F(5, 6)),
            ("1 + 2*3", F(7)),
            ("(1 + 2)*3", F(9)),
            ("1/2 - 1/4 - 1/8", F(1, 8)),
            ("-(1/2 - 1/4)", F(-1, 4)),
            ("-2 * -3", F(6)),
            ("--2", F(2)),
            ("0.1 + 0.2", F(3, 10)),
            ("2/4", F(1, 2)),
            ("7", F(7)),
            ("  1  +  1  ", F(2)),
            ("2*(0.5 - 1/4)", F(1, 2)),
        ],
    )
    def test_values(self, text, expected):
        assert value_of(text) == expected
        assert approx_to(eval_crn(parse_expression(text), {}), 8) == expected

    @pytest.mark.parametrize(
        "text",
        ["", "1 +", "(1", "1)", "* 2", "1 ** 2", "foo", "1 2", "1 / 2", "a + 1", "1..2"],
    )
    def test_rejected(self, text):
        with pytest.raises(ParseError):
            parse_expression(text)

    @given(rationals, rationals, rationals)
    def test_distributes(self, a, b, c):
        x, y, z = (f"({render(q)})" for q in (a, b, c))
        assert value_of(f"{x} * ({y} + {z})") == value_of(f"{x} * {y} + {x} * {z}")

    @pytest.mark.parametrize(
        "text",
        [
            "(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH,
            "-" * MAX_DEPTH + "1",
            " + ".join(["1"] * (MAX_DEPTH + 1)),
            "(2 * " * (MAX_DEPTH // 2) + "1" + ")" * (MAX_DEPTH // 2),
        ],
        ids=["parens", "unary-minus", "flat-sum", "mixed"],
    )
    def test_one_level_past_the_depth_cap_is_rejected(self, text):
        with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels"):
            parse_expression(text)

    def test_literal_slash_binds_tighter_than_anything(self):
        # 1/2*3 is (1/2) * 3, not 1/(2*3)
        assert value_of("1/2*3") == F(3, 2)

    def test_calls_not_allowed_in_rat_mode(self):
        node = parse_expression("waiting(x, 1)")
        with pytest.raises(ParseError):
            eval_rational(node)


class TestCrnEvaluation:
    def builtins(self):
        return {"five": lambda args: from_rational(F(5) + sum(F(a) for a in args))}

    def test_plain_arithmetic(self):
        value = eval_crn(parse_expression("1/3 + 1/3"), {})
        assert approx_to(value, 8) == F(2, 3)

    def test_builtin_call(self):
        value = eval_crn(parse_expression("five() * 2"), self.builtins())
        assert approx_to(value, 4) == F(10)

    def test_builtin_receives_raw_args(self):
        value = eval_crn(parse_expression("five(1, 2)"), self.builtins())
        assert approx_to(value, 4) == F(8)

    def test_unknown_builtin(self):
        with pytest.raises(ParseError):
            eval_crn(parse_expression("nope()"), self.builtins())

    def test_nested_parens_inside_call_args(self):
        seen = []

        def spy(args):
            seen.append(tuple(args))
            return from_rational(F(0))

        eval_crn(parse_expression("f(a(b,c), d)"), {"f": spy})
        assert seen == [("a(b,c)", "d")]
