from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicecover import crn
from nicecover.analysis import expression_builtins
from nicecover.crn import CRN, approx_to, from_rational
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
        assert approx_to(eval_crn(parse_expression(text), dict), 8) == expected

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

    @pytest.mark.parametrize(
        "text,tree",
        [
            ("1 - 2 - 3", ("sub", ("sub", ("rat", F(1)), ("rat", F(2))), ("rat", F(3)))),
            ("1 - 2 * 3", ("sub", ("rat", F(1)), ("mul", ("rat", F(2)), ("rat", F(3))))),
            ("-2 * 3", ("mul", ("neg", ("rat", F(2))), ("rat", F(3)))),
            ("--1", ("neg", ("neg", ("rat", F(1))))),
            ("(1)", ("rat", F(1))),
            ("f ( a(b,c) , , d )", ("call", "f", ["a(b,c)", "d"])),
        ],
    )
    def test_trees(self, text, tree):
        assert parse_expression(text) == tree

    @pytest.mark.parametrize(
        "text,message",
        [
            ("(1", "expected ')' at position 2 in expression"),
            ("1 2", "trailing input at position 2: '1 2'"),
            ("1 +", "unexpected character '' at position 3"),
            ("f 1", "expected '(' at position 2 in expression"),
            ("f(1", "unterminated call f(...)"),
            ("1..2", "trailing input at position 1: '1..2'"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(ParseError) as raised:
            parse_expression(text)
        assert str(raised.value) == message

    def test_calls_not_allowed_in_rat_mode(self):
        node = parse_expression("waiting(x, 1)")
        with pytest.raises(ParseError):
            eval_rational(node)


class TestCrnEvaluation:
    def builtins(self):
        return {"five": lambda args: from_rational(F(5) + sum(F(a) for a in args))}

    def test_plain_arithmetic(self):
        value = eval_crn(parse_expression("1/3 + 1/3"), dict)
        assert approx_to(value, 8) == F(2, 3)

    def test_builtins_are_read_only_at_a_call(self):
        def table():
            tables.append(self.builtins())
            return tables[-1]

        tables = []
        assert approx_to(eval_crn(parse_expression("-(1/3 + 1/3) * 3"), table), 8) == F(-2)
        assert tables == []
        assert approx_to(eval_crn(parse_expression("five() * five(1)"), table), 4) == F(30)
        assert len(tables) == 2

    def test_builtin_call(self):
        value = eval_crn(parse_expression("five() * 2"), self.builtins)
        assert approx_to(value, 4) == F(10)

    def test_builtin_receives_raw_args(self):
        value = eval_crn(parse_expression("five(1, 2)"), self.builtins)
        assert approx_to(value, 4) == F(8)

    def test_unknown_builtin(self):
        with pytest.raises(ParseError):
            eval_crn(parse_expression("nope()"), self.builtins)

    def test_nested_parens_inside_call_args(self):
        seen = []

        def spy(args):
            seen.append(tuple(args))
            return from_rational(F(0))

        eval_crn(parse_expression("f(a(b,c), d)"), lambda: {"f": spy})
        assert seen == [("a(b,c)", "d")]


def unfolded_crn(node, builtins):
    """The reference evaluator: one CRN node per operator, literals included."""
    kind = node[0]
    if kind == "rat":
        return crn.from_rational(node[1])
    if kind == "neg":
        return crn.negate(unfolded_crn(node[1], builtins))
    if kind == "call":
        return builtins[node[1]](node[2])
    left = unfolded_crn(node[1], builtins)
    right = unfolded_crn(node[2], builtins)
    if kind == "add":
        return crn.add(left, right)
    if kind == "sub":
        return crn.sub(left, right)
    return crn.mul(left, right)


def drift(args):
    """1/3 + (-1)^i / 2^i: an approximation that moves with i, regulator n + c."""
    c = int(args[0])
    return CRN(approx=lambda i: F(1, 3) + F((-1) ** i, 2**i), regulator=lambda n: n + c)


DIFFERENTIAL_BUILTINS = {**expression_builtins(), "drift": drift}

# (text, exact value or None when the text calls a builtin)
literals = st.one_of(
    st.integers(0, 99).map(lambda n: (str(n), F(n))),
    st.tuples(st.integers(0, 99), st.integers(1, 64)).map(lambda t: (f"{t[0]}/{t[1]}", F(*t))),
    st.tuples(st.integers(0, 9), st.integers(0, 999)).map(lambda t: (f"{t[0]}.{t[1]:03d}", t[0] + F(t[1], 1000))),
)
signed_literals = st.tuples(st.booleans(), literals).map(
    lambda t: (f"-{t[1][0]}", -t[1][1]) if t[0] else t[1])
calls = st.one_of(
    st.integers(2, 6).map(lambda c: (f"drift({c})", None)),
    st.sampled_from(["step@1/3, 0, 1", "step@7/10, -1, 2", "stair:1/4,3/4, 0, 1"]).map(
        lambda args: (f"bisect_limit({args})", None)),
)


def _combine(op, left, right):
    text = f"({left[0]} {op} {right[0]})"
    if left[1] is None or right[1] is None:
        return text, None
    return text, left[1] + right[1] if op == "+" else left[1] - right[1] if op == "-" else left[1] * right[1]


def _trees(leaves):
    level = leaves
    for _ in range(7):  # trees up to depth 8
        below = level
        level = st.one_of(
            leaves,
            below.map(lambda t: (f"-({t[0]})", None if t[1] is None else -t[1])),
            st.builds(_combine, st.sampled_from("+-*"), below, below),
        )
    return level


call_free_trees = _trees(signed_literals)
trees = _trees(st.one_of(signed_literals, calls))


class TestFolding:
    @settings(max_examples=150, deadline=None)
    @given(trees)
    def test_matches_one_node_per_operator(self, tree):
        node = parse_expression(tree[0])
        folded = eval_crn(node, lambda: DIFFERENTIAL_BUILTINS)
        reference = unfolded_crn(node, DIFFERENTIAL_BUILTINS)
        for n in range(41):
            assert approx_to(folded, n) == approx_to(reference, n)
            assert folded.regulator(n) == reference.regulator(n)

    @settings(max_examples=150, deadline=None)
    @given(call_free_trees)
    def test_call_free_value_is_the_fraction_value(self, tree):
        assert value_of(tree[0]) == tree[1]

    @staticmethod
    def count_constructors(monkeypatch):
        built = Counter()
        for name in ("from_rational", "add", "sub", "mul", "negate"):
            def counted(*args, _name=name, _original=getattr(crn, name)):
                built[_name] += 1
                return _original(*args)
            monkeypatch.setattr(crn, name, counted)
        return built

    def test_call_free_expression_is_embedded_once(self, monkeypatch):
        built = self.count_constructors(monkeypatch)
        value = eval_crn(parse_expression("1/3 + 2*(5 - 0.5)"), dict)
        assert built == Counter(from_rational=1)
        assert approx_to(value, 8) == F(28, 3)

    def test_only_the_operator_above_a_call_is_built(self, monkeypatch):
        five = CRN(approx=lambda i: F(5), regulator=lambda n: 0)
        built = self.count_constructors(monkeypatch)
        value = eval_crn(parse_expression("(1/3 + 1/3) * five()"), lambda: {"five": lambda args: five})
        assert built == Counter(from_rational=1, mul=1)
        assert approx_to(value, 8) == F(10, 3)
