# A test-only reference: the character-at-a-time, recursive reader that
# repro.sexp.reader replaced, kept verbatim so tests/sexp/test_reader_differential.py
# can check that the regex-tokenized reader returns the same datums and
# raises the same errors at the same lines and columns.
"""S-expression reader for the Scheme subset.

Supports: lists (proper and dotted), vectors ``#(...)``, fixnums,
flonums, booleans ``#t``/``#f``, characters ``#\\x`` (with the named
characters ``space newline tab nul``), strings with the usual escapes,
symbols (including peculiar identifiers like ``+`` and ``...``), and the
quotation shorthands ``'`` ``\\``` ``,`` ``,@``.

Comments: ``;`` to end of line, ``#;`` datum comments, and ``#| ... |#``
block comments (nestable).
"""

from __future__ import annotations

import re
from typing import Any, List, Optional

from repro.sexp.datum import (
    Char,
    MutableString,
    NIL,
    Pair,
    Symbol,
    list_to_pairs,
)


class ReaderError(Exception):
    """Raised on malformed input, with line/column information."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


_DELIMITERS = set('()";\' `,')
_NAMED_CHARS = {
    "space": " ",
    "newline": "\n",
    "tab": "\t",
    "nul": "\0",
    "return": "\r",
}
_QUOTE_SYMBOLS = {
    "'": Symbol("quote"),
    "`": Symbol("quasiquote"),
    ",": Symbol("unquote"),
    ",@": Symbol("unquote-splicing"),
}


class _Stream:
    """Character stream with position tracking."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def peek(self) -> Optional[str]:
        if self.pos < len(self.text):
            return self.text[self.pos]
        return None

    def peek2(self) -> Optional[str]:
        if self.pos + 1 < len(self.text):
            return self.text[self.pos + 1]
        return None

    def next(self) -> Optional[str]:
        ch = self.peek()
        if ch is None:
            return None
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1
        return ch

    def error(self, message: str) -> ReaderError:
        return ReaderError(message, self.line, self.column)


class _Reader:
    def __init__(self, text: str) -> None:
        self.stream = _Stream(text)

    # -- whitespace and comments ------------------------------------------

    def skip_atmosphere(self) -> None:
        s = self.stream
        while True:
            ch = s.peek()
            if ch is None:
                return
            if ch.isspace():
                s.next()
            elif ch == ";":
                while s.peek() is not None and s.peek() != "\n":
                    s.next()
            elif ch == "#" and s.peek2() == "|":
                self._skip_block_comment()
            elif ch == "#" and s.peek2() == ";":
                s.next()
                s.next()
                self.skip_atmosphere()
                if self.read_datum() is _EOF:
                    raise s.error("datum comment at end of input")
            else:
                return

    def _skip_block_comment(self) -> None:
        s = self.stream
        s.next()  # '#'
        s.next()  # '|'
        depth = 1
        while depth > 0:
            ch = s.next()
            if ch is None:
                raise s.error("unterminated block comment")
            if ch == "|" and s.peek() == "#":
                s.next()
                depth -= 1
            elif ch == "#" and s.peek() == "|":
                s.next()
                depth += 1

    # -- datums ------------------------------------------------------------

    def read_datum(self) -> Any:
        self.skip_atmosphere()
        s = self.stream
        ch = s.peek()
        if ch is None:
            return _EOF
        if ch == "(":
            return self._read_list()
        if ch == ")":
            raise s.error("unexpected ')'")
        if ch == '"':
            return self._read_string()
        if ch == "#":
            return self._read_hash()
        if ch in "'`":
            s.next()
            return self._wrap_quote(_QUOTE_SYMBOLS[ch])
        if ch == ",":
            s.next()
            if s.peek() == "@":
                s.next()
                return self._wrap_quote(_QUOTE_SYMBOLS[",@"])
            return self._wrap_quote(_QUOTE_SYMBOLS[","])
        return self._read_atom()

    def _wrap_quote(self, head: Symbol) -> Any:
        datum = self.read_datum()
        if datum is _EOF:
            raise self.stream.error("quotation at end of input")
        return Pair(head, Pair(datum, NIL))

    def _read_list(self) -> Any:
        s = self.stream
        s.next()  # '('
        items: List[Any] = []
        tail: Any = NIL
        while True:
            self.skip_atmosphere()
            ch = s.peek()
            if ch is None:
                raise s.error("unterminated list")
            if ch == ")":
                s.next()
                return list_to_pairs(items, tail)
            if ch == "." and self._dot_is_delimited():
                if not items:
                    raise s.error("dot at start of list")
                s.next()
                tail = self.read_datum()
                if tail is _EOF:
                    raise s.error("dotted tail missing")
                self.skip_atmosphere()
                if s.peek() != ")":
                    raise s.error("expected ')' after dotted tail")
                s.next()
                return list_to_pairs(items, tail)
            datum = self.read_datum()
            if datum is _EOF:
                raise s.error("unterminated list")
            items.append(datum)

    def _dot_is_delimited(self) -> bool:
        nxt = self.stream.peek2()
        return nxt is None or nxt.isspace() or nxt in _DELIMITERS

    def _read_string(self) -> MutableString:
        s = self.stream
        s.next()  # opening quote
        chars: List[str] = []
        while True:
            ch = s.next()
            if ch is None:
                raise s.error("unterminated string")
            if ch == '"':
                return MutableString("".join(chars))
            if ch == "\\":
                esc = s.next()
                if esc is None:
                    raise s.error("unterminated string escape")
                mapping = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\", "0": "\0"}
                if esc not in mapping:
                    raise s.error(f"unknown string escape \\{esc}")
                chars.append(mapping[esc])
            else:
                chars.append(ch)

    def _read_hash(self) -> Any:
        s = self.stream
        s.next()  # '#'
        ch = s.peek()
        if ch is None:
            raise s.error("lone '#'")
        if ch == "t":
            s.next()
            return True
        if ch == "f":
            s.next()
            return False
        if ch == "(":
            lst = self._read_list()
            from repro.sexp.datum import pairs_to_list

            return pairs_to_list(lst)
        if ch == "\\":
            s.next()
            return self._read_char()
        raise s.error(f"unknown '#' syntax: #{ch}")

    def _read_char(self) -> Char:
        s = self.stream
        first = s.next()
        if first is None:
            raise s.error("unterminated character literal")
        if first.isalpha():
            name = [first]
            while True:
                nxt = s.peek()
                if nxt is None or nxt.isspace() or nxt in _DELIMITERS:
                    break
                name.append(s.next())
            text = "".join(name)
            if len(text) == 1:
                return Char(text)
            if text in _NAMED_CHARS:
                return Char(_NAMED_CHARS[text])
            raise s.error(f"unknown character name #\\{text}")
        return Char(first)

    def _read_atom(self) -> Any:
        s = self.stream
        chars: List[str] = []
        while True:
            ch = s.peek()
            if ch is None or ch.isspace() or ch in _DELIMITERS:
                break
            chars.append(s.next())
        text = "".join(chars)
        if not text:
            raise s.error("empty atom")
        return _parse_atom(text, s)


#: An integer literal ``int`` may refuse for its length alone.
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parse_atom(text: str, stream: _Stream) -> Any:
    """Classify an atom as fixnum, flonum, or symbol."""
    try:
        return int(text)
    except ValueError:
        if _INTEGER.fullmatch(text):
            # Past CPython's int-from-text digit limit, a process-wide
            # setting a library must not change; decimal's exact
            # conversion has no such limit.
            from decimal import Decimal

            return int(Decimal(text))
    if _looks_numeric(text):
        try:
            return float(text)
        except ValueError:
            # Identifiers like ``1+`` and ``-1+`` (classic Lisp
            # increment/decrement names) are symbols, not numbers.
            if text[-1] in "+-":
                return Symbol(text)
            raise stream.error(f"malformed number: {text}")
    return Symbol(text)


def _looks_numeric(text: str) -> bool:
    head = text[0]
    if head.isdigit():
        return True
    if head in "+-." and len(text) > 1 and (text[1].isdigit() or text[1] == "."):
        return text not in ("...",) and any(c.isdigit() for c in text)
    return False


class _Eof:
    __slots__ = ()

    def __repr__(self) -> str:
        return "#<reader-eof>"


_EOF = _Eof()


def read(text: str) -> Any:
    """Read a single datum from *text*.

    Raises :class:`ReaderError` if the text is empty or malformed.
    """
    reader = _Reader(text)
    datum = reader.read_datum()
    if datum is _EOF:
        raise ReaderError("no datum in input", 1, 1)
    return datum


def read_all(text: str) -> List[Any]:
    """Read every datum in *text*, returning them as a Python list."""
    reader = _Reader(text)
    out: List[Any] = []
    while True:
        datum = reader.read_datum()
        if datum is _EOF:
            return out
        out.append(datum)
