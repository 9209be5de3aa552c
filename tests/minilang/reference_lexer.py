"""Character-by-character reference lexer for the mini-language.

The lexer the regex scan in :mod:`repro.minilang.lexer` replaced, kept
unchanged as the oracle its tests compare token streams and errors
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.errors import LexError

KEYWORDS = frozenset(
    {
        "program", "func", "var", "if", "else", "while", "for", "return",
        "print", "assert", "true", "false",
        "omp", "parallel", "sections", "section", "critical", "barrier",
        "single", "master", "atomic", "num_threads", "private", "shared",
        "firstprivate", "schedule", "nowait", "reduction",
    }
)

# Multi-character operators first so maximal munch works by scan order.
OPERATORS = (
    "&&", "||", "==", "!=", "<=", ">=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!",
)

PUNCT = ("(", ")", "{", "}", "[", "]", ",", ";", ":")


@dataclass(frozen=True)
class Token:
    """One lexical token."""

    kind: str  # 'ident', 'keyword', 'int', 'float', 'string', 'op', 'punct', 'eof'
    text: str
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


class Lexer:
    """Streaming tokenizer over mini-language source text."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.col = 1

    # -- low-level helpers -------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.source[idx] if idx < len(self.source) else ""

    def _advance(self, n: int = 1) -> str:
        text = self.source[self.pos : self.pos + n]
        for ch in text:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n
        return text

    def _skip_trivia(self) -> None:
        """Skip whitespace and ``//`` / ``/* */`` comments."""
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line, start_col = self.line, self.col
                self._advance(2)
                while self.pos < len(self.source):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise LexError("unterminated block comment", start_line, start_col)
            else:
                return

    # -- token producers ----------------------------------------------------

    def _lex_number(self) -> Token:
        line, col = self.line, self.col
        text = ""
        while self._peek().isdigit():
            text += self._advance()
        is_float = False
        if self._peek() == "." and self._peek(1).isdigit():
            is_float = True
            text += self._advance()
            while self._peek().isdigit():
                text += self._advance()
        if self._peek() in ("e", "E") and (
            self._peek(1).isdigit()
            or (self._peek(1) in "+-" and self._peek(2).isdigit())
        ):
            is_float = True
            text += self._advance()
            if self._peek() in "+-":
                text += self._advance()
            while self._peek().isdigit():
                text += self._advance()
        if self._peek().isalpha() or self._peek() == "_":
            raise LexError(f"invalid numeric literal {text + self._peek()!r}", line, col)
        return Token("float" if is_float else "int", text, line, col)

    def _lex_ident(self) -> Token:
        line, col = self.line, self.col
        text = ""
        while self._peek().isalnum() or self._peek() == "_":
            text += self._advance()
        kind = "keyword" if text in KEYWORDS else "ident"
        return Token(kind, text, line, col)

    def _lex_string(self) -> Token:
        line, col = self.line, self.col
        quote = self._advance()
        text = ""
        while True:
            ch = self._peek()
            if ch == "":
                raise LexError("unterminated string literal", line, col)
            if ch == "\n":
                raise LexError("newline in string literal", line, col)
            if ch == quote:
                self._advance()
                return Token("string", text, line, col)
            if ch == "\\":
                self._advance()
                esc = self._advance()
                text += {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "'": "'"}.get(
                    esc, esc
                )
            else:
                text += self._advance()

    def tokens(self) -> Iterator[Token]:
        """Yield all tokens, terminated by a single ``eof`` token."""
        while True:
            self._skip_trivia()
            if self.pos >= len(self.source):
                yield Token("eof", "", self.line, self.col)
                return
            ch = self._peek()
            if ch.isdigit():
                yield self._lex_number()
            elif ch.isalpha() or ch == "_":
                yield self._lex_ident()
            elif ch in "\"'":
                yield self._lex_string()
            else:
                line, col = self.line, self.col
                for op in OPERATORS:
                    if self.source.startswith(op, self.pos):
                        self._advance(len(op))
                        yield Token("op", op, line, col)
                        break
                else:
                    if ch in PUNCT:
                        self._advance()
                        yield Token("punct", ch, line, col)
                    else:
                        raise LexError(f"unexpected character {ch!r}", line, col)


def tokenize(source: str) -> List[Token]:
    """Tokenize *source*, returning a list ending with the ``eof`` token."""
    return list(Lexer(source).tokens())
