"""S-expression reader for the Scheme subset.

Supports: lists (proper and dotted), vectors ``#(...)``, fixnums,
flonums, booleans ``#t``/``#f``, characters ``#\\x`` (with the named
characters ``space newline tab nul``), strings with the usual escapes,
symbols (including peculiar identifiers like ``+`` and ``...``), and the
quotation shorthands ``'`` ``\\``` ``,`` ``,@``.

Comments: ``;`` to end of line, ``#;`` datum comments, and ``#| ... |#``
block comments (nestable).

The reader is one loop over tokens.  One compiled pattern
(:data:`_TOKEN`) skips the atmosphere (whitespace and ``;`` comments)
and matches the next token in a single call; an explicit stack of open
lists, vectors, quotations, datum comments and dotted tails stands in
for recursion, so nesting is bounded by memory, not by Python's
recursion limit.  Positions are plain offsets; a line and column are
computed only for a :class:`ReaderError`.
"""

from __future__ import annotations

import re
from typing import Any, List, Tuple

from repro.sexp.datum import (
    Char,
    MutableString,
    NIL,
    Pair,
    Symbol,
)


class ReaderError(Exception):
    """Raised on malformed input, with line/column information."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


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
_STRING_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\", "0": "\0"}

#: Atmosphere, then at most one token (none only at the end of input).
#: An atom runs to the next whitespace or delimiter ``()";'`,``; one
#: that starts with ``#`` is the ``#`` syntax instead.  ``\s`` matches
#: exactly the characters ``str.isspace`` accepts.
_TOKEN = re.compile(
    r"""(?:\s+|;[^\n]*)*
    (?:(?P<atom>[^\s()";'`,\#][^\s()";'`,]*)
      |(?P<open>\()
      |(?P<close>\))
      |(?P<string>")
      |(?P<quote>['`]|,@?)
      |(?P<true>\#t)
      |(?P<false>\#f)
      |(?P<vector>\#\()
      |(?P<char>\#\\)
      |(?P<block>\#\|)
      |(?P<comment>\#;)
      |(?P<hash>\#)
    )?""",
    re.VERBOSE,
)
#: A token match's ``lastindex``: the number of the group it matched.
(_ATOM, _OPEN, _CLOSE_PAREN, _STRING, _QUOTATION, _TRUE, _FALSE,
 _VECTOR_OPEN, _CHAR, _BLOCK, _DATUM_COMMENT, _HASH) = (
    _TOKEN.groupindex[name] for name in (
        "atom", "open", "close", "string", "quote", "true", "false",
        "vector", "char", "block", "comment", "hash"))
#: The rest of a character name after its first letter.
_NAME_REST = re.compile(r"""[^\s()";'`,]*""")
#: A string's run up to its closing quote or next escape.
_STRING_RUN = re.compile(r'[^"\\]*')
#: What a block comment's nesting depth turns on.
_BLOCK_MARK = re.compile(r"\|#|#\|")

# Frames on the reader's stack, innermost last: ``[kind, payload...]``.
_LIST = 0  # items read so far
_VECTOR = 1  # items read so far
_TAIL = 2  # a list past its dot, awaiting the tail datum: items
_CLOSE = 3  # a list past its tail, awaiting ')': items, tail
_QUOTE = 4  # the quotation's head symbol
_COMMENT = 5  # a datum comment: the next datum is dropped

#: The error at the end of input, by the innermost open frame.
_AT_END = (
    "unterminated list",
    "unterminated list",
    "dotted tail missing",
    "expected ')' after dotted tail",
    "quotation at end of input",
    "datum comment at end of input",
)

#: Symbol's intern table: a name seen before is one dict lookup.
_interned = Symbol._table
#: The characters that may start a number, below U+0080.
_NUMBER_START = "+-.0123456789"


def _error(text: str, offset: int, message: str) -> ReaderError:
    """A :class:`ReaderError` at *offset*: only ``\\n`` starts a line,
    and columns count characters from 1."""
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    return ReaderError(message, line, column)


def _read(text: str, first_only: bool) -> List[Any]:
    """The datums of *text* in order; with *first_only*, stop after the
    first one and leave the rest of the text unread."""
    out: List[Any] = []
    stack: List[list] = []
    # The innermost frame's items while it is a list or vector, else
    # None: the common case of a datum inside a list is one append.
    items = None
    match = _TOKEN.match
    pos = 0
    while True:
        m = match(text, pos)
        kind = m.lastindex
        pos = m.end()
        if kind == _ATOM:
            token = m.group(_ATOM)
            if items is None and stack and stack[-1][0] == _CLOSE:
                raise _error(text, pos - len(token), "expected ')' after dotted tail")
            head = token[0]
            if head not in _NUMBER_START and (head < "\x80" or not head.isdigit()):
                # Cannot be a number: skip the int() and float() attempts.
                datum = _interned.get(token) or Symbol(token)
            elif items is not None and token == ".":
                if not items:
                    raise _error(text, pos - 1, "dot at start of list")
                if stack[-1][0] == _VECTOR:
                    raise _error(text, pos - 1, "dot in vector")
                stack[-1][0] = _TAIL
                items = None
                continue
            else:
                datum = _parse_atom(token, text, pos)
            if items is not None:
                items.append(datum)
                continue
        elif kind == _OPEN:
            if items is None and stack and stack[-1][0] == _CLOSE:
                raise _error(text, pos - 1, "expected ')' after dotted tail")
            items = []
            stack.append([_LIST, items])
            continue
        elif kind == _CLOSE_PAREN:
            frame = stack.pop() if stack else None
            if frame is None or frame[0] > _CLOSE or frame[0] == _TAIL:
                raise _error(text, pos - 1, "unexpected ')'")
            if frame[0] == _VECTOR:
                datum = frame[1]
            else:
                datum = frame[2] if frame[0] == _CLOSE else NIL
                for item in reversed(frame[1]):
                    datum = Pair(item, datum)
            if stack and stack[-1][0] <= _VECTOR:
                items = stack[-1][1]
                items.append(datum)
                continue
            items = None
        elif kind is None:
            if stack:
                raise _error(text, pos, _AT_END[stack[-1][0]])
            return out
        elif kind == _BLOCK:
            pos = _skip_block_comment(text, pos)
            continue
        elif kind == _DATUM_COMMENT:
            stack.append([_COMMENT])
            items = None
            continue
        else:
            if items is None and stack and stack[-1][0] == _CLOSE:
                raise _error(text, m.start(kind), "expected ')' after dotted tail")
            if kind == _QUOTATION:
                stack.append([_QUOTE, _QUOTE_SYMBOLS[m.group(_QUOTATION)]])
                items = None
                continue
            if kind == _VECTOR_OPEN:
                items = []
                stack.append([_VECTOR, items])
                continue
            if kind == _STRING:
                datum, pos = _read_string(text, pos)
            elif kind == _TRUE:
                datum = True
            elif kind == _FALSE:
                datum = False
            elif kind == _CHAR:
                datum, pos = _read_char(text, pos)
            elif pos < len(text):
                raise _error(text, pos, f"unknown '#' syntax: #{text[pos]}")
            else:
                raise _error(text, pos, "lone '#'")
            if items is not None:
                items.append(datum)
                continue
        # A datum outside any list is complete: hand it to the innermost
        # open frame.
        while stack:
            frame = stack[-1]
            what = frame[0]
            if what <= _VECTOR:
                items = frame[1]
                items.append(datum)
            elif what == _QUOTE:
                stack.pop()
                datum = Pair(frame[1], Pair(datum, NIL))
                continue
            elif what == _TAIL:
                frame[0] = _CLOSE
                frame.append(datum)
            else:  # _COMMENT: the datum is dropped
                stack.pop()
                if stack and stack[-1][0] <= _VECTOR:
                    items = stack[-1][1]
            break
        else:
            out.append(datum)
            if first_only:
                return out


def _skip_block_comment(text: str, pos: int) -> int:
    """The offset just past the ``|#`` that closes the block comment
    opened before *pos*."""
    depth = 1
    search = _BLOCK_MARK.search
    while depth:
        m = search(text, pos)
        if m is None:
            raise _error(text, len(text), "unterminated block comment")
        pos = m.end()
        depth += 1 if m.group() == "#|" else -1
    return pos


def _read_string(text: str, pos: int) -> Tuple[MutableString, int]:
    """The string whose opening quote ends at *pos*, and the offset
    past its closing quote."""
    pieces: List[str] = []
    run = _STRING_RUN.match
    end_of_text = len(text)
    while True:
        end = run(text, pos).end()
        pieces.append(text[pos:end])
        if end == end_of_text:
            raise _error(text, end, "unterminated string")
        if text[end] == '"':
            return MutableString("".join(pieces)), end + 1
        if end + 1 == end_of_text:
            raise _error(text, end + 1, "unterminated string escape")
        escape = text[end + 1]
        if escape not in _STRING_ESCAPES:
            raise _error(text, end + 2, f"unknown string escape \\{escape}")
        pieces.append(_STRING_ESCAPES[escape])
        pos = end + 2


def _read_char(text: str, pos: int) -> Tuple[Char, int]:
    """The character literal whose ``#\\`` ends at *pos*, and the offset
    past it.  A letter may start a name, which runs to a delimiter."""
    if pos == len(text):
        raise _error(text, pos, "unterminated character literal")
    first = text[pos]
    if not first.isalpha():
        return Char(first), pos + 1
    end = _NAME_REST.match(text, pos + 1).end()
    name = text[pos:end]
    if len(name) == 1:
        return Char(name), end
    if name in _NAMED_CHARS:
        return Char(_NAMED_CHARS[name]), end
    raise _error(text, end, f"unknown character name #\\{name}")


#: An integer literal ``int`` may refuse for its length alone.
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parse_atom(token: str, text: str, end: int) -> Any:
    """Classify an atom that may be a number (it starts with a sign, a
    dot or a digit) as fixnum, flonum, or symbol; *end* is the offset
    just past it in *text*."""
    try:
        return int(token)
    except ValueError:
        if _INTEGER.fullmatch(token):
            # Past CPython's int-from-text digit limit, a process-wide
            # setting a library must not change; decimal's exact
            # conversion has no such limit.
            from decimal import Decimal

            return int(Decimal(token))
    if _looks_numeric(token):
        try:
            return float(token)
        except ValueError:
            # Identifiers like ``1+`` and ``-1+`` (classic Lisp
            # increment/decrement names) are symbols, not numbers.
            if token[-1] in "+-":
                return Symbol(token)
            raise _error(text, end, f"malformed number: {token}")
    return Symbol(token)


def _looks_numeric(text: str) -> bool:
    head = text[0]
    if head.isdigit():
        return True
    if head in "+-." and len(text) > 1 and (text[1].isdigit() or text[1] == "."):
        return text not in ("...",) and any(c.isdigit() for c in text)
    return False


def read(text: str) -> Any:
    """Read a single datum from *text*.

    Raises :class:`ReaderError` if the text is empty or malformed.
    """
    datums = _read(text, True)
    if not datums:
        raise ReaderError("no datum in input", 1, 1)
    return datums[0]


def read_all(text: str) -> List[Any]:
    """Read every datum in *text*, returning them as a Python list."""
    return _read(text, False)
