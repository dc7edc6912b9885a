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
    if datum is True:
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
    elif isinstance(datum, Symbol):
        out.append(datum.name)
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
        _emit_pair(datum, write, out)
    elif isinstance(datum, list):
        out.append("#(")
        for i, item in enumerate(datum):
            if i:
                out.append(" ")
            _emit(item, write, out)
        out.append(")")
    elif isinstance(datum, Unspecified):
        out.append("#<void>")
    elif isinstance(datum, EofObject):
        out.append("#<eof>")
    else:
        out.append(_render_opaque(datum))


def _emit_pair(datum: Pair, write: bool, out: List[str]) -> None:
    head = datum.car
    if (
        isinstance(head, Symbol)
        and head.name in _QUOTE_ABBREVS
        and isinstance(datum.cdr, Pair)
        and datum.cdr.cdr is NIL
    ):
        out.append(_QUOTE_ABBREVS[head.name])
        _emit(datum.cdr.car, write, out)
        return
    out.append("(")
    node: Any = datum
    first = True
    while isinstance(node, Pair):
        if not first:
            out.append(" ")
        _emit(node.car, write, out)
        first = False
        node = node.cdr
    if node is not NIL:
        out.append(" . ")
        _emit(node, write, out)
    out.append(")")


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
