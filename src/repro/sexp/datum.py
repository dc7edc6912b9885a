"""Scheme datum types.

These classes represent both the external representation produced by the
reader and the run-time values manipulated by compiled programs and the
reference interpreter:

* fixnums          -> Python ``int``
* flonums          -> Python ``float``
* booleans         -> Python ``True`` / ``False``
* symbols          -> :class:`Symbol` (interned)
* pairs            -> :class:`Pair` (mutable)
* the empty list   -> :data:`NIL`
* strings          -> :class:`MutableString`
* characters       -> :class:`Char`
* vectors          -> Python ``list``
* the unspecified  -> :data:`UNSPECIFIED`
* the eof object   -> :data:`EOF_OBJECT`

Using plain Python ints/floats/bools keeps arithmetic in the VM fast;
the composite types get small dedicated classes so that ``eq?`` is
Python ``is`` and mutation behaves like Scheme's.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional


class Symbol:
    """An interned Scheme symbol.

    Two symbols with the same name are the same object, so ``eq?`` is
    pointer equality, as in any real Scheme system.
    """

    __slots__ = ("name",)
    _table: dict = {}

    def __new__(cls, name: str) -> "Symbol":
        sym = cls._table.get(name)
        if sym is None:
            sym = object.__new__(cls)
            sym.name = name
            cls._table[name] = sym
        return sym

    def __repr__(self) -> str:
        return self.name

    def __reduce__(self):
        return (Symbol, (self.name,))


class Pair:
    """A mutable cons cell."""

    __slots__ = ("car", "cdr")

    def __init__(self, car: Any, cdr: Any) -> None:
        self.car = car
        self.cdr = cdr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.sexp.writer import write_datum

        return write_datum(self)

    def __iter__(self) -> Iterator[Any]:
        """Iterate over the elements of a proper list."""
        node: Any = self
        while isinstance(node, Pair):
            yield node.car
            node = node.cdr
        if node is not NIL:
            raise ValueError("iteration over improper list")


class Nil:
    """The empty list ``()`` — a singleton."""

    __slots__ = ()
    _instance: Optional["Nil"] = None

    def __new__(cls) -> "Nil":
        if cls._instance is None:
            cls._instance = object.__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "()"

    def __iter__(self) -> Iterator[Any]:
        return iter(())


NIL = Nil()


class Unspecified:
    """The unspecified value (result of ``set!``, one-armed ``if``...)."""

    __slots__ = ()
    _instance: Optional["Unspecified"] = None

    def __new__(cls) -> "Unspecified":
        if cls._instance is None:
            cls._instance = object.__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "#<void>"


UNSPECIFIED = Unspecified()


class EofObject:
    """The object returned by ``read`` at end of input."""

    __slots__ = ()
    _instance: Optional["EofObject"] = None

    def __new__(cls) -> "EofObject":
        if cls._instance is None:
            cls._instance = object.__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "#<eof>"


EOF_OBJECT = EofObject()


class Char:
    """A Scheme character.  Interned over the ASCII range."""

    __slots__ = ("value",)
    _table: dict = {}

    def __new__(cls, value: str) -> "Char":
        if len(value) != 1:
            raise ValueError("Char requires a single-character string")
        ch = cls._table.get(value)
        if ch is None:
            ch = object.__new__(cls)
            ch.value = value
            cls._table[value] = ch
        return ch

    def __repr__(self) -> str:
        return "#\\" + self.value

    def __reduce__(self):
        return (Char, (self.value,))

    def __lt__(self, other: "Char") -> bool:
        return self.value < other.value

    def __le__(self, other: "Char") -> bool:
        return self.value <= other.value


class MutableString:
    """A mutable Scheme string.

    ``string=?`` compares contents; ``eq?`` compares identity.  Backed by
    a list of single-character strings so ``string-set!`` is O(1).
    """

    __slots__ = ("chars",)

    def __init__(self, text: str = "") -> None:
        self.chars: List[str] = list(text)

    @property
    def text(self) -> str:
        return "".join(self.chars)

    def __len__(self) -> int:
        return len(self.chars)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.sexp.writer import write_datum

        return write_datum(self)


def list_to_pairs(items: Iterable[Any], tail: Any = NIL) -> Any:
    """Build a Scheme list from a Python iterable, with optional tail."""
    result = tail
    for item in reversed(list(items)):
        result = Pair(item, result)
    return result


def pairs_to_list(datum: Any) -> List[Any]:
    """Convert a proper Scheme list into a Python list.

    Raises ``ValueError`` on improper lists.
    """
    out: List[Any] = []
    node = datum
    while isinstance(node, Pair):
        out.append(node.car)
        node = node.cdr
    if node is not NIL:
        raise ValueError("improper list")
    return out


def is_list(datum: Any) -> bool:
    """True iff *datum* is a proper (and acyclic) list."""
    slow = datum
    fast = datum
    while True:
        if fast is NIL:
            return True
        if not isinstance(fast, Pair):
            return False
        fast = fast.cdr
        if fast is NIL:
            return True
        if not isinstance(fast, Pair):
            return False
        fast = fast.cdr
        slow = slow.cdr
        if fast is slow:
            return False


def scheme_eqv(a: Any, b: Any) -> bool:
    """Scheme ``eqv?``: identity, except numbers/chars compare by value."""
    if a is b:
        return True
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, float) and isinstance(b, float):
        return a == b
    return False


def scheme_equal(a: Any, b: Any) -> bool:
    """Scheme ``equal?``: structural equality over pairs/vectors/strings."""
    if scheme_eqv(a, b):
        return True
    if isinstance(a, Pair) and isinstance(b, Pair):
        # Iterative on the cdr spine to survive long lists.
        while isinstance(a, Pair) and isinstance(b, Pair):
            if not scheme_equal(a.car, b.car):
                return False
            a = a.cdr
            b = b.cdr
        return scheme_equal(a, b)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(
            scheme_equal(x, y) for x, y in zip(a, b)
        )
    if isinstance(a, MutableString) and isinstance(b, MutableString):
        return a.chars == b.chars
    return False
