"""Expression grammar shared by the `rat` and `crn approx` commands.

Grammar: rational literals (`p`, `p/q`, exact decimals), `+`, `-`, `*`,
parentheses, unary minus, and named builtin calls `name(arg, ...)` whose
arguments are raw comma-separated strings interpreted by the builtin
itself (oracle specs and file paths are not rational tokens).  There is
no division operator; the `/` inside `3/4` belongs to the literal.
"""

from __future__ import annotations

import operator
from typing import Callable, Mapping, Sequence, Union

from . import crn
from .errors import ParseError
from .rational import Rational, parse_rational

Node = Union[
    tuple,  # ("rat", Rational) | ("neg", Node) | ("add"|"sub"|"mul", Node, Node)
]

# a string, so that importing this module does not load the crn layer
BuiltinMap = Mapping[str, Callable[[Sequence[str]], "crn.CRN"]]

# Most levels of nesting an expression may have: each parenthesis pair,
# unary minus and binary operator is one level, and so is the innermost
# literal or call.  The parser and the evaluator recurse once per level,
# so the cap keeps them inside Python's stack.
MAX_DEPTH = 200


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char: str) -> bool:
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def expect(self, char: str) -> None:
        if not self.take(char):
            raise ParseError(f"expected {char!r} at position {self.pos} in expression")


def _check_depth(levels: int) -> None:
    if levels > MAX_DEPTH:
        raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels")


def parse_expression(text: str) -> Node:
    cursor = _Cursor(text)
    node, _ = _parse_sum(cursor, 0)
    cursor.skip_ws()
    if cursor.pos != len(cursor.text):
        raise ParseError(f"trailing input at position {cursor.pos}: {text!r}")
    return node


# Each parser below is handed the number of levels above what it parses
# and returns the node together with its own height in levels.
Parsed = tuple[Node, int]


def _join(kind: str, left: Parsed, right: Parsed, depth: int) -> Parsed:
    height = max(left[1], right[1]) + 1
    _check_depth(depth + height)
    return (kind, left[0], right[0]), height


def _parse_sum(cursor: _Cursor, depth: int) -> Parsed:
    parsed = _parse_product(cursor, depth)
    while (ch := cursor.peek()) in ("+", "-"):
        cursor.take(ch)
        kind = "add" if ch == "+" else "sub"
        parsed = _join(kind, parsed, _parse_product(cursor, depth), depth)
    return parsed


def _parse_product(cursor: _Cursor, depth: int) -> Parsed:
    parsed = _parse_atom(cursor, depth)
    while cursor.take("*"):
        parsed = _join("mul", parsed, _parse_atom(cursor, depth), depth)
    return parsed


def _parse_atom(cursor: _Cursor, depth: int) -> Parsed:
    ch = cursor.peek()
    if ch in ("-", "("):
        _check_depth(depth + 2)  # this level and at least one below it
        cursor.take(ch)
    if ch == "-":
        node, height = _parse_atom(cursor, depth + 1)
        return ("neg", node), height + 1
    if ch == "(":
        node, height = _parse_sum(cursor, depth + 1)
        cursor.expect(")")
        return node, height + 1
    if ch.isdigit():
        return ("rat", _parse_literal(cursor)), 1
    if ch.isalpha() or ch == "_":
        return _parse_call(cursor), 1
    raise ParseError(f"unexpected character {ch!r} at position {cursor.pos}")


def _parse_literal(cursor: _Cursor) -> Rational:
    text = cursor.text
    start = cursor.pos
    while cursor.pos < len(text) and text[cursor.pos].isdigit():
        cursor.pos += 1
    if cursor.pos < len(text) and text[cursor.pos] in "/.":
        mark = cursor.pos
        cursor.pos += 1
        digits = 0
        while cursor.pos < len(text) and text[cursor.pos].isdigit():
            cursor.pos += 1
            digits += 1
        if digits == 0:  # lone `/` or `.` belongs to something else
            cursor.pos = mark
    return parse_rational(text[start : cursor.pos])


def _parse_call(cursor: _Cursor) -> Node:
    text = cursor.text
    start = cursor.pos
    while cursor.pos < len(text) and (text[cursor.pos].isalnum() or text[cursor.pos] == "_"):
        cursor.pos += 1
    name = text[start : cursor.pos]
    cursor.expect("(")
    args: list[str] = []
    depth = 0
    arg_start = cursor.pos
    while True:
        if cursor.pos >= len(text):
            raise ParseError(f"unterminated call {name}(...)")
        ch = text[cursor.pos]
        if ch == "(":
            depth += 1
        elif ch == ")" and depth > 0:
            depth -= 1
        elif ch == ")":
            args.append(text[arg_start : cursor.pos].strip())
            cursor.pos += 1
            break
        elif ch == "," and depth == 0:
            args.append(text[arg_start : cursor.pos].strip())
            arg_start = cursor.pos + 1
        cursor.pos += 1
    args = [a for a in args if a]
    return ("call", name, args)


def evaluate(node: Node, builtins: Callable[[], BuiltinMap] | None) -> Rational | crn.CRN:
    """The exact value of a call-free subtree, and a constructive real otherwise.

    A rational is its own constant sequence with regulator 0, so folding moves
    no approximation and no regulator.  `builtins()`, the builtin table, is read
    only at a call; with `builtins` None, calls are refused.
    """
    kind = node[0]
    if kind == "rat":
        return node[1]
    if kind == "call":
        if builtins is None:
            raise ParseError(f"{node[1]}(...) is not a rational expression")
        table = builtins()
        if node[1] not in table:
            raise ParseError(f"unknown builtin {node[1]!r}")
        return table[node[1]](node[2])
    if kind == "neg":
        value = evaluate(node[1], builtins)
        return -value if isinstance(value, Rational) else crn.negate(value)
    left, right = evaluate(node[1], builtins), evaluate(node[2], builtins)
    if isinstance(left, Rational) and isinstance(right, Rational):
        return getattr(operator, kind)(left, right)
    return getattr(crn, kind)(_as_crn(left), _as_crn(right))


def _as_crn(value: Rational | crn.CRN) -> crn.CRN:
    return crn.from_rational(value) if isinstance(value, Rational) else value


def eval_rational(node: Node) -> Rational:
    """Evaluate an expression containing no builtin calls, exactly."""
    return evaluate(node, None)


def eval_crn(node: Node, builtins: Callable[[], BuiltinMap]) -> crn.CRN:
    """Evaluate an expression to a constructive real, folding call-free parts exactly."""
    return _as_crn(evaluate(node, builtins))
