"""Arbitrary text given to a parser, or to the CLI, ends in a documented error."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicecover.analysis import parse_oracle, parse_targets
from nicecover.cli import dispatch
from nicecover.cover import parse_cover
from nicecover.errors import ParseError
from nicecover.expressions import parse_expression
from nicecover.machine import parse_program
from nicecover.rational import parse_rational

# pieces of every grammar, so that generated text often gets past the first token
TOKENS = [
    "0", "1", "3", "7", "10", "/", ".", "-", "+", "*", " ", ",", "(", ")", "\n", "\t", "#", ":", "@",
    "1/3", "3/4", "-1/10", "1/0", "0.25", "²", "٣", "e5", "9" * 40,
    "step@", "stair:", "geometric", "bisect_limit", "loop:", "end:",
    "INC", "DEC", "JZ", "GOTO", "HALT", "1023", "1024",
]
texts = st.one_of(st.text(), st.lists(st.sampled_from(TOKENS), max_size=30).map("".join))
PARSE_ERRORS = ParseError


@pytest.mark.parametrize(
    "parse", [parse_oracle, parse_targets, parse_rational, parse_cover, parse_program, parse_expression],
    ids=lambda parse: parse.__name__,
)
@settings(max_examples=200, deadline=None)
@given(text=texts)
def test_parser_raises_only_parse_errors(parse, text):
    try:
        parse(text)
    except PARSE_ERRORS:
        pass


def quiet_dispatch(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return dispatch(argv)


@settings(max_examples=200, deadline=None)
@given(text=texts)
def test_bisect_oracle_text_exits_cleanly(text):
    argv = ["bisect", f"--oracle={text}", "--lo", "0", "--hi", "1", "--steps", "8"]
    assert quiet_dispatch(argv) in (0, 1, 2)


@settings(max_examples=200, deadline=None)
@given(text=texts)
def test_bisect_limit_oracle_text_exits_cleanly(text):
    argv = ["crn", "approx", "--expr", f"bisect_limit({text}, 0, 1)", "--prec", "8"]
    assert quiet_dispatch(argv) in (0, 1, 2)
