"""The regex lexer against the character-by-character reference lexer.

Both must give the same token stream (kind, text, line, column) and,
on bad input, the same :class:`LexError` message, line and column.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.errors import LexError
from repro.fuzz.generator import generate_source
from repro.minilang.lexer import tokenize

from helpers import npb_sources
from .reference_lexer import tokenize as reference_tokenize


def outcome(lex, source):
    """Token tuples, or the error's (message, line, col)."""
    try:
        return [(t.kind, t.text, t.line, t.col) for t in lex(source)]
    except LexError as exc:
        return ("error", str(exc), exc.line, exc.col)


def assert_same(source):
    assert outcome(tokenize, source) == outcome(reference_tokenize, source)


@pytest.mark.parametrize("name,source", sorted(npb_sources().items()))
def test_npb_sources_lex_identically(name, source):
    assert_same(source)


def test_fuzz_sources_lex_identically():
    for seed in range(200):
        assert_same(generate_source(seed))


EDGE_CASES = [
    "",
    "x",
    "5.",
    "1e",
    "1e+",
    "1.5e-3x",
    "12ab",
    "1_0",
    "a&b",
    "a|b",
    "x.y",
    "/* never closed",
    "a /* b\n c */ d",
    "// only a comment",
    "\"unterminated",
    "'unterminated\nnext'",
    "\"esc \\\n newline\" x",
    "\"tail backslash\\",
    "\"\\q\\n\\t\\\\\\\"\"",
    "'mixed \" quote'",
    "\r\n\tx\r\n",
    "٣٤ + 1",
    "²",
    "1²",
    "1.٣",
    "2e٣",
    "2e+٣",
    "xé٣ y",
    "été",
    "½",
    "a½",
    "1é",
    " ",
    "\u000c",
    "#",
    "퟿",
]


@pytest.mark.parametrize("source", EDGE_CASES)
def test_edge_cases_lex_identically(source):
    assert_same(source)


TOKEN_PIECES = st.sampled_from([
    "x", "foo_1", "var", "omp", "12", "3.5", "1e3", "2.5E-2", "+", "-", "&&",
    "||", "==", "!=", "<=", ">=", "<", "=", "!", "/", "*", "(", ")", "{", "}",
    "[", "]", ",", ";", ":", " ", "\n", "\t", "\r", "//c\n", "/* c\n */",
    "/*", "\"s\"", "'s'", "\"a\\nb\"", "\"", "'", "\\", ".", "&", "|", "_",
    "٣", "²", "é", "½", " ", "e", "E",
])


@settings(max_examples=300, deadline=None)
@given(st.lists(TOKEN_PIECES, max_size=30).map("".join))
@example("1 /* x")
def test_token_soup_lexes_identically(source):
    assert_same(source)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40))
def test_arbitrary_text_lexes_identically(source):
    assert_same(source)
