"""External representation of Scheme datums.

``write_datum`` produces read-syntax (strings quoted, characters with
``#\\`` notation); ``display_datum`` produces human-readable output.
"""

from __future__ import annotations

from typing import Any, List

from repro.sexp.datum import (
    Char,
    EofObject,
    MutableString,
    NIL,
    Pair,
    Symbol,
    Unspecified,
)

_CHAR_NAMES = {" ": "space", "\n": "newline", "\t": "tab", "\0": "nul", "\r": "return"}
_STRING_ESCAPES = {"\n": "\\n", "\t": "\\t", "\r": "\\r", '"': '\\"', "\\": "\\\\"}
_QUOTE_ABBREVS = {
    "quote": "'",
    "quasiquote": "`",
    "unquote": ",",
    "unquote-splicing": ",@",
}


def write_datum(datum: Any) -> str:
    """Render *datum* using ``write`` (read-compatible) conventions."""
    return _render(datum, write=True)


def display_datum(datum: Any) -> str:
    """Render *datum* using ``display`` (human-readable) conventions."""
    return _render(datum, write=False)


def _render(datum: Any, write: bool) -> str:
    out: List[str] = []
    _emit(datum, write, out)
    return "".join(out)


def _emit(datum: Any, write: bool, out: List[str]) -> None:
    """Append the text of *datum* to *out*.  The lists and vectors being
    written wait on an explicit stack, innermost last, so nesting depth
    is bounded by memory, not by the recursion limit."""
    # The innermost open list or vector: its items, the index of the
    # next one, and its dotted tail (or NIL).  Outer ones are stacked.
    items: Any = ()
    index = 0
    tail: Any = NIL
    stack: List[tuple] = []
    while True:
        if isinstance(datum, Symbol):
            out.append(datum.name)
        elif datum is True:
            out.append("#t")
        elif datum is False:
            out.append("#f")
        elif datum is NIL:
            out.append("()")
        elif isinstance(datum, int):
            try:
                out.append(str(datum))
            except ValueError:
                out.append(_long_integer_text(datum))
        elif isinstance(datum, float):
            out.append(_format_flonum(datum))
        elif isinstance(datum, MutableString):
            if write:
                out.append('"')
                for ch in datum.chars:
                    out.append(_STRING_ESCAPES.get(ch, ch))
                out.append('"')
            else:
                out.append(datum.text)
        elif isinstance(datum, Char):
            if write:
                out.append("#\\" + _CHAR_NAMES.get(datum.value, datum.value))
            else:
                out.append(datum.value)
        elif isinstance(datum, Pair):
            head = datum.car
            rest = datum.cdr
            if (
                isinstance(head, Symbol)
                and head.name in _QUOTE_ABBREVS
                and isinstance(rest, Pair)
                and rest.cdr is NIL
            ):
                out.append(_QUOTE_ABBREVS[head.name])
                datum = rest.car
                continue
            out.append("(")
            stack.append((items, index, tail))
            items = []
            while isinstance(rest, Pair):
                items.append(rest.car)
                rest = rest.cdr
            index = 0
            tail = rest
            datum = head
            continue
        elif isinstance(datum, list):
            out.append("#(")
            if datum:
                stack.append((items, index, tail))
                items, index, tail = datum, 1, NIL
                datum = datum[0]
                continue
            out.append(")")
        elif isinstance(datum, Unspecified):
            out.append("#<void>")
        elif isinstance(datum, EofObject):
            out.append("#<eof>")
        else:
            out.append(_render_opaque(datum))
        # *datum* is written: go on to the next item of the innermost
        # open list, its dotted tail, or its close.
        while True:
            if index < len(items):
                out.append(" ")
                datum = items[index]
                index += 1
                break
            if tail is not NIL:
                out.append(" . ")
                datum = tail
                tail = NIL
                break
            if not stack:
                return
            out.append(")")
            items, index, tail = stack.pop()


def _long_integer_text(value: int) -> str:
    """Digits of an integer past CPython's int-to-text limit, a
    process-wide setting a library must not change; decimal's exact
    conversion has no such limit."""
    from decimal import Decimal

    return str(Decimal(value))


def _format_flonum(value: float) -> str:
    text = repr(value)
    if "e" in text or "." in text or "inf" in text or "nan" in text:
        return text
    return text + ".0"


def _render_opaque(datum: Any) -> str:
    name = type(datum).__name__.lower()
    return f"#<{name}>"
