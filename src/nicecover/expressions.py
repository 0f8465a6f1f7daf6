"""Expression grammar shared by the `rat` and `crn approx` commands.

Grammar: rational literals (`p`, `p/q`, exact decimals), `+`, `-`, `*`,
parentheses, unary minus, and named builtin calls `name(arg, ...)` whose
arguments are raw comma-separated strings interpreted by the builtin
itself (oracle specs and file paths are not rational tokens).  There is
no division operator; the `/` inside `3/4` belongs to the literal.

Text is read as tokens of one pattern, `_TOKEN`: whitespace, then a
literal (decimal digits, then optionally a `/` or `.` and more decimal
digits), a name (a word character other than a decimal digit, then word
characters), or any one other character, which is empty at the end of the
text.  Only decimal digits are digits: `²` is not.  A call's arguments are
not parsed: they are its raw text, split at the commas that its tokens show
outside inner parentheses.
"""

from __future__ import annotations

import operator
import re
from typing import Callable, Mapping, Sequence

from . import crn
from .errors import ParseError
from .rational import Rational, parse_rational

Node = tuple  # ("rat", Rational) | ("neg", Node) | ("add"|"sub"|"mul", Node, Node) | ("call", name, [arg, ...])

# a string, so that importing this module does not load the crn layer
BuiltinMap = Mapping[str, Callable[[Sequence[str]], "crn.CRN"]]

# Most levels of nesting an expression may have: each parenthesis pair,
# unary minus and binary operator is one level, and so is the innermost
# literal or call.  The parser and the evaluator recurse once per level,
# so the cap keeps them inside Python's stack.
MAX_DEPTH = 200

_TOKEN = re.compile(r"\s*(?:(?P<literal>\d+(?:[/.]\d+)?)|(?P<name>[^\W\d]\w*)|(?P<other>.?))")
# each binary operator's node, and how tightly it binds
_BINARY = {"+": ("add", 1), "-": ("sub", 1), "*": ("mul", 2)}


class _Tokens:
    """The tokens of `text`, read one at a time: the current `token`, its `kind` ("literal", "name" or
    "other", its group in _TOKEN), its `start` after the whitespace before it, and its `end`."""

    def __init__(self, text: str):
        self.text, self.end = text, 0
        self.next()

    def next(self) -> None:
        match = _TOKEN.match(self.text, self.end)
        self.kind = match.lastgroup
        self.token, self.start, self.end = match[self.kind], match.start(self.kind), match.end()

    def expect(self, token: str) -> None:
        if self.token != token:
            raise ParseError(f"expected {token!r} at position {self.start} in expression")
        self.next()


def parse_expression(text: str) -> Node:
    tokens = _Tokens(text)
    node, _ = _binary(tokens, 0)
    if tokens.token:
        raise ParseError(f"trailing input at position {tokens.start}: {text!r}")
    return node


# Each parser below is given the number of levels above what it parses and
# returns the node together with its own height in levels.  An atom past
# MAX_DEPTH is refused before it is read, and a join as it is made, so text
# that nests too deep is refused before the rest of its tree is built.


def _binary(tokens: _Tokens, depth: int, binding: int = 0) -> tuple[Node, int]:
    """Atoms joined, each operator to the left, by the binary operators that bind tighter than `binding`."""
    node, height = _atom(tokens, depth)
    while (op := _BINARY.get(tokens.token)) and op[1] > binding:
        tokens.next()
        right, right_height = _binary(tokens, depth, op[1])
        height = max(height, right_height) + 1
        if depth + height > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels")
        node = (op[0], node, right)
    return node, height


def _atom(tokens: _Tokens, depth: int) -> tuple[Node, int]:
    if depth >= MAX_DEPTH:  # one level too many below a `-` or `(`
        raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels")
    token = tokens.token
    if token == "-":
        tokens.next()
        node, height = _atom(tokens, depth + 1)
        return ("neg", node), height + 1
    if token == "(":
        tokens.next()
        node, height = _binary(tokens, depth + 1)
        tokens.expect(")")
        return node, height + 1
    if tokens.kind == "name":
        return _call(tokens), 1
    if tokens.kind != "literal":
        raise ParseError(f"unexpected character {token!r} at position {tokens.start}")
    node = ("rat", parse_rational(token))
    tokens.next()
    return node, 1


def _call(tokens: _Tokens) -> Node:
    """`name(arg, ...)`: the text between its parentheses, split at commas outside inner parentheses and
    stripped; empty arguments are dropped."""
    name = tokens.token
    tokens.next()
    tokens.expect("(")
    args: list[str] = []
    nesting, start = 0, tokens.start
    while nesting or tokens.token != ")":
        if not tokens.token:
            raise ParseError(f"unterminated call {name}(...)")
        if tokens.token == "," and not nesting:
            args.append(tokens.text[start : tokens.start].strip())
            start = tokens.end
        nesting += (tokens.token == "(") - (tokens.token == ")")
        tokens.next()
    args.append(tokens.text[start : tokens.start].strip())
    tokens.next()
    return ("call", name, [arg for arg in args if arg])


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
