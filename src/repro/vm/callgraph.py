"""Dynamic activation classification — the instrumentation behind
Table 2.

Every procedure activation is classified on retirement into one of the
paper's four categories:

* ``syntactic-leaf``         — the procedure contains no (non-tail)
  call sites at all;
* ``non-syntactic-leaf``     — it has call sites but this activation
  executed none (an *effective leaf*);
* ``non-syntactic-internal`` — it made calls at run time but has paths
  without calls (``ret ∉ St ∩ Sf``);
* ``syntactic-internal``     — every path through it calls.

Tail calls retire the current activation and start a new one (footnote
1: tail calls are jumps, not calls), so an activation's ``made_call``
reflects only the non-tail calls it performed itself.

The classifier sits on the VM's call/return hot path, so it avoids
per-activation allocation: the shadow stack is a pair of parallel
lists (code objects and made-call flags), the four counters live in an
integer array, and each code object's two possible categories (made a
call / didn't) are resolved once and cached.  ``counts`` presents the
familiar name-keyed dict view.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.astnodes import CodeObject

CATEGORIES = (
    "syntactic-leaf",
    "non-syntactic-leaf",
    "non-syntactic-internal",
    "syntactic-internal",
)

_CATEGORY_INDEX = {name: i for i, name in enumerate(CATEGORIES)}


class ActivationClassifier:
    """Shadow call stack maintained by the VM."""

    def __init__(self) -> None:
        self.stack: List[CodeObject] = []
        self._made: List[bool] = []
        self._tally: List[int] = [0, 0, 0, 0]
        # code -> (category index if it made no call, index if it did)
        self._by_code: Dict[CodeObject, Tuple[int, int]] = {}

    # -- events -------------------------------------------------------------

    def on_call(self, code: CodeObject) -> None:
        made = self._made
        if made:
            made[-1] = True
        self.stack.append(code)
        made.append(False)

    def on_tail_call(self, code: CodeObject) -> None:
        stack = self.stack
        if stack:
            self._retire(stack.pop(), self._made.pop())
        stack.append(code)
        self._made.append(False)

    def on_return(self) -> None:
        if self.stack:
            self._retire(self.stack.pop(), self._made.pop())

    def unwind_to(self, depth: int) -> None:
        """A continuation invocation abandons activations above *depth*."""
        while len(self.stack) > depth:
            self._retire(self.stack.pop(), self._made.pop())

    def finish(self) -> None:
        """Retire whatever remains (e.g. the entry activation at halt)."""
        while self.stack:
            self._retire(self.stack.pop(), self._made.pop())

    # -- classification --------------------------------------------------------

    def _retire(self, code: CodeObject, made_call: bool) -> None:
        pair = self._by_code.get(code)
        if pair is None:
            pair = (
                _CATEGORY_INDEX[classify(code, False)],
                _CATEGORY_INDEX[classify(code, True)],
            )
            self._by_code[code] = pair
        self._tally[pair[1] if made_call else pair[0]] += 1

    @property
    def counts(self) -> Dict[str, int]:
        tally = self._tally
        return {name: tally[i] for i, name in enumerate(CATEGORIES)}

    @property
    def total(self) -> int:
        return sum(self._tally)

    def fractions(self) -> Dict[str, float]:
        total = self.total
        if total == 0:
            return {c: 0.0 for c in CATEGORIES}
        tally = self._tally
        return {name: tally[i] / total for i, name in enumerate(CATEGORIES)}

    @property
    def effective_leaf_fraction(self) -> float:
        """The paper's headline number: activations that made no call."""
        f = self.fractions()
        return f["syntactic-leaf"] + f["non-syntactic-leaf"]


def classify(code: CodeObject, made_call: bool) -> str:
    if code.syntactic_leaf:
        return "syntactic-leaf"
    if not made_call:
        return "non-syntactic-leaf"
    if code.always_calls:
        return "syntactic-internal"
    return "non-syntactic-internal"

