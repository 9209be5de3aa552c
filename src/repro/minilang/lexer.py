"""Lexer for the mini hybrid MPI/OpenMP language.

Produces a flat list of :class:`Token` objects.  The token stream keeps
line/column information so downstream error messages and violation
reports can point back at source locations, mirroring how the paper's
tool reports "all possible code locations involved in errors".

The scan is one compiled master regular expression matched at the
current position; the name of the alternative that matched decides the
token kind.  Columns count code points from 1, as ``line_start`` tracks
the offset just past the last newline.  Identifiers continue over
``\\w`` (Unicode letters, digits and ``_``, the same set as
``str.isalnum() or "_"``); numbers use ``str.isdigit``, which is wider
than the ASCII fast path, so a number that touches a non-ASCII
character is re-scanned character by character (:func:`_number_end`).
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from ..errors import LexError

KEYWORDS = frozenset(
    {
        "program", "func", "var", "if", "else", "while", "for", "return",
        "print", "assert", "true", "false",
        "omp", "parallel", "sections", "section", "critical", "barrier",
        "single", "master", "atomic", "num_threads", "private", "shared",
        "firstprivate", "schedule", "nowait", "reduction",
    }
)

class Token(NamedTuple):
    """One lexical token."""

    kind: str  # 'ident', 'keyword', 'int', 'float', 'string', 'op', 'punct', 'eof'
    text: str
    line: int
    col: int


# Alternatives are tried in order: trivia first, and two-character
# operators before one-character ones (maximal munch).
_MASTER = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>//[^\n]*|/\*[\s\S]*?\*/)
  | (?P<open_comment>/\*)
  | (?P<num>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<string>"(?:[^"\\\n]|\\[\s\S])*"|'(?:[^'\\\n]|\\[\s\S])*')
  | (?P<open_string>["'])
  | (?P<op>&&|\|\||==|!=|<=|>=|[-+*/%<>=!])
  | (?P<punct>[(){}\[\],;:])
  | (?P<other>[\s\S])
    """,
    re.VERBOSE,
)
_WORD_TAIL = re.compile(r"\w*")
_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "'": "'"}


def _unescape(match: "re.Match[str]") -> str:
    esc = match.group(1)
    return _ESCAPES.get(esc, esc)


def _number_end(source: str, pos: int) -> int:
    """End of the numeric literal at *pos*, with ``str.isdigit`` digits."""
    n = len(source)

    def digit(i: int) -> bool:
        return i < n and source[i].isdigit()

    while digit(pos):
        pos += 1
    if pos < n and source[pos] == "." and digit(pos + 1):
        pos += 1
        while digit(pos):
            pos += 1
    if pos < n and source[pos] in "eE" and (
        digit(pos + 1) or (pos + 1 < n and source[pos + 1] in "+-" and digit(pos + 2))
    ):
        pos += 2
        while digit(pos):
            pos += 1
    return pos


def _string_error(source: str, start: int, line: int, col: int) -> LexError:
    """The error for an unterminated string literal opening at *start*."""
    pos = start + 1
    while pos < len(source):
        ch = source[pos]
        if ch == "\n":
            return LexError("newline in string literal", line, col)
        pos += 2 if ch == "\\" else 1
    return LexError("unterminated string literal", line, col)


def tokenize(source: str) -> List[Token]:
    """Tokenize *source*, returning a list ending with the ``eof`` token."""
    tokens: List[Token] = []
    append = tokens.append
    new = tuple.__new__
    match = _MASTER.match
    keywords = KEYWORDS
    line, line_start, pos, n = 1, 0, 0, len(source)
    while pos < n:
        m = match(source, pos)
        kind, end = m.lastgroup, m.end()
        if kind == "ws" or kind == "comment":
            newlines = source.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", pos, end) + 1
            pos = end
            continue
        col = pos - line_start + 1
        if kind == "other":
            ch = m.group()
            if ch.isdigit():
                kind = "num"
            elif ch.isalpha():
                kind, end = "ident", _WORD_TAIL.match(source, end).end()
            else:
                raise LexError(f"unexpected character {ch!r}", line, col)
        if kind == "ident":
            text = source[pos:end]
            append(new(Token, ("keyword" if text in keywords else "ident", text, line, col)))
        elif kind == "op" or kind == "punct":
            append(new(Token, (kind, m.group(), line, col)))
        elif kind == "num":
            if not source[pos:end + 3].isascii():
                end = _number_end(source, pos)
            text = source[pos:end]
            nxt = source[end:end + 1]
            if nxt and (nxt.isalpha() or nxt == "_"):
                raise LexError(f"invalid numeric literal {text + nxt!r}", line, col)
            append(new(Token, ("int" if text.isdigit() else "float", text, line, col)))
        elif kind == "string":
            raw = source[pos + 1:end - 1]
            body = _ESCAPE.sub(_unescape, raw) if "\\" in raw else raw
            append(new(Token, ("string", body, line, col)))
            if "\n" in raw:  # an escaped newline continues the literal
                line += raw.count("\n")
                line_start = source.rindex("\n", pos, end) + 1
        elif kind == "open_comment":
            raise LexError("unterminated block comment", line, col)
        elif kind == "open_string":
            raise _string_error(source, pos, line, col)
        pos = end
    append(new(Token, ("eof", "", line, n - line_start + 1)))
    return tokens
