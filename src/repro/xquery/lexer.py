"""XQuery lexer.

Lexes the XQuery subset used by ALDSP data services (July 2004 working
draft dialect, section 3.1) plus ALDSP's syntactic extensions.  Notable
points:

* XQuery comments ``(: ... :)`` nest and are skipped — except ALDSP
  *pragma comments* ``(::pragma ... ::)`` (section 3.2), which are captured
  and handed to the parser so they can be attached to the next declaration.
* Direct element constructors are not lexed here: the parser switches to
  character-level scanning (via :meth:`Lexer.char_pos` / :meth:`Lexer.seek`)
  when it decides a ``<`` begins a constructor.
* Keywords are context sensitive in XQuery, so the lexer only emits NAME
  tokens; the parser matches keyword spellings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import ParseError

NAME = "name"
STRING = "string"
INTEGER = "integer"
DECIMAL = "decimal"
DOUBLE = "double"
SYMBOL = "symbol"
EOF = "eof"

#: Symbols by first character, longest first (maximal munch).
_SYMBOLS: dict[str, tuple[str, ...]] = {}
for _symbol in (
    ":=", "!=", "<=", ">=", "<<", ">>", "//", "..", "::",
    "(", ")", "[", "]", "{", "}", ",", ";", "=", "<", ">",
    "+", "-", "*", "/", "?", "@", "$", ".", "|",
):
    _SYMBOLS[_symbol[0]] = _SYMBOLS.get(_symbol[0], ()) + (_symbol,)
del _symbol

_NCNAME = r"[A-Za-z_][A-Za-z0-9_\-.]*"
_NAME_RE = re.compile(rf"{_NCNAME}(?::{_NCNAME})?")
NUMBER_PATTERN = r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?"
_NUMBER_RE = re.compile(NUMBER_PATTERN)


def line_col(text: str, pos: int) -> tuple[int, int]:
    """1-based (line, column) of character offset ``pos``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


class LexToken:
    """One token: its kind, value and ``[pos, end)`` character span.  Line
    and column are derived from the span on demand (errors, and the few
    nodes that record ``.line``), never per token."""

    __slots__ = ("kind", "value", "pos", "end", "_text")

    def __init__(self, kind: str, value: str, pos: int, end: int, text: str):
        self.kind = kind
        self.value = value
        self.pos = pos  # character offset of the token start
        self.end = end
        self._text = text

    @property
    def line(self) -> int:
        return line_col(self._text, self.pos)[0]

    @property
    def column(self) -> int:
        return line_col(self._text, self.pos)[1]

    def __repr__(self) -> str:
        return f"{self.kind}:{self.value!r}@{self.line}:{self.column}"


@dataclass(frozen=True, slots=True)
class Pragma:
    """A captured ``(::pragma ... ::)`` comment."""

    kind: str  # e.g. "function", "xds"
    attributes: dict[str, str]
    raw: str
    line: int


_PRAGMA_ATTR_RE = re.compile(r'([\w.\-:]+)\s*=\s*"([^"]*)"')


class Lexer:
    """On-demand lexer with character-offset seek support."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        #: pragmas collected since the last drain (the parser attaches them
        #: to the next declaration it parses).
        self.pending_pragmas: list[Pragma] = []

    # -- position helpers ---------------------------------------------------

    def line_col(self, pos: int | None = None) -> tuple[int, int]:
        return line_col(self.text, self.pos if pos is None else pos)

    @property
    def char_pos(self) -> int:
        return self.pos

    def seek(self, pos: int) -> None:
        self.pos = pos

    def error(self, message: str) -> ParseError:
        line, col = self.line_col()
        return ParseError(message, line, col)

    # -- scanning -----------------------------------------------------------

    def _skip_trivia(self) -> None:
        """Skip whitespace and comments; capture pragma comments."""
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch.isspace():
                self.pos += 1
                continue
            if text.startswith("(:", self.pos):
                self._consume_comment()
                continue
            return

    def _consume_comment(self) -> None:
        start = self.pos
        depth = 0
        pos = self.pos
        text = self.text
        while pos < len(text):
            if text.startswith("(:", pos):
                depth += 1
                pos += 2
            elif text.startswith(":)", pos):
                depth -= 1
                pos += 2
                if depth == 0:
                    body = text[start + 2 : pos - 2]
                    self.pos = pos
                    if body.startswith(":pragma"):
                        self._capture_pragma(body, start)
                    return
            else:
                pos += 1
        self.pos = pos
        raise self.error("unterminated comment")

    def _capture_pragma(self, body: str, start: int) -> None:
        # body looks like ":pragma function ... :" (trailing ':' from '::)')
        content = body[len(":pragma") :].strip().rstrip(":").strip()
        kind = content.split(None, 1)[0] if content else ""
        attrs = dict(_PRAGMA_ATTR_RE.findall(content))
        line, _ = self.line_col(start)
        self.pending_pragmas.append(Pragma(kind, attrs, content, line))

    def drain_pragmas(self) -> list[Pragma]:
        pragmas, self.pending_pragmas = self.pending_pragmas, []
        return pragmas

    def next_token(self) -> LexToken:
        self._skip_trivia()
        start = self.pos
        text = self.text
        if start >= len(text):
            return LexToken(EOF, "", start, start, text)
        ch = text[start]

        # String literals with doubled-quote escapes.
        if ch == "'" or ch == '"':
            return self._lex_string(ch, start)

        # Numbers.
        if ch.isdigit() or (ch == "." and text[start + 1:start + 2].isdigit()):
            match = _NUMBER_RE.match(text, start)
            assert match
            end = self.pos = match.end()
            return LexToken(number_kind(match), match.group(), start, end, text)

        # Names / QNames.
        match = _NAME_RE.match(text, start)
        if match:
            end = self.pos = match.end()
            return LexToken(NAME, match.group(), start, end, text)

        # Symbols.
        for symbol in _SYMBOLS.get(ch, ()):
            if text.startswith(symbol, start):
                end = self.pos = start + len(symbol)
                return LexToken(SYMBOL, symbol, start, end, text)

        raise self.error(f"unexpected character {ch!r}")

    def _lex_string(self, quote: str, start: int) -> LexToken:
        text = self.text
        pos = start + 1
        while True:
            pos = text.find(quote, pos)
            if pos < 0:
                raise self.error("unterminated string literal")
            if text.startswith(quote, pos + 1):
                pos += 2
                continue
            end = self.pos = pos + 1
            return LexToken(STRING, string_value(text[start:end]), start, end, text)


def number_kind(match: re.Match) -> str:
    """Token kind of a :data:`_NUMBER_RE` match."""
    if match.group(2):
        return DOUBLE
    return DECIMAL if "." in match.group() else INTEGER


def string_value(raw: str) -> str:
    """The value of a string literal as written, quotes included."""
    quote = raw[0]
    return raw[1:-1].replace(quote + quote, quote)
