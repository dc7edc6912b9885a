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

from typing import Any, Dict, List, Optional, Tuple

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


#: Poison marker for a closure slot with conflicting or unknown stores.
_CONFLICT = object()


def closure_slot_callees(
    codes,
) -> Dict[CodeObject, Dict[int, CodeObject]]:
    """Whole-program closure-slot analysis for the AOT emitter.

    For each code object X, determine which slots of X's closures
    provably hold a closure of exactly one statically-known code across
    *every* closure of X the program can create.  Closures are created
    only by ``closure``/``clo_alloc`` and slots are written only by
    those creations and ``clo_set``, so scanning every store site is
    exhaustive: a slot whose stores all carry closures of the same code
    Y maps to Y; any unknown or conflicting store poisons the slot.  If
    a ``clo_set`` base closure cannot be identified, the whole analysis
    is abandoned (the store could target any slot of any code).

    Register knowledge is tracked per basic block (reset at every
    branch/jump target and return address), which is conservative and
    sound: the recursive-binding pattern the allocator emits
    (``clo_alloc`` then ``clo_set`` backpatching in the same block)
    resolves, and everything murkier degrades to "not proven" — never
    to a wrong callee.  The result feeds :func:`proves_direct_call`
    through the trace builder's callee tracking
    (:func:`repro.vm.blockcompile.build_trace_module` with
    ``track_callees``, which only the AOT emitter asks for).
    """
    # Lazy import: this function runs at build time only; the runtime
    # slice an emitted module pulls in must not grow by it.
    from repro.vm import predecode as P

    prim_ops = (
        P.OP_PRIM0, P.OP_PRIM1, P.OP_PRIM2, P.OP_PRIM3, P.OP_PRIMN,
        P.OP_PRIMX,
    )
    stores: Dict[Tuple[int, int], Any] = {}
    by_id: Dict[int, CodeObject] = {}

    def record(base: CodeObject, slot: int, value: Optional[CodeObject]):
        by_id[id(base)] = base
        key = (id(base), slot)
        if value is None:
            stores[key] = _CONFLICT
        else:
            seen = stores.get(key)
            if seen is None:
                stores[key] = value
            elif seen is not value:
                stores[key] = _CONFLICT

    for code in codes:
        instrs = P.predecode_code(code)
        leaders = set()
        for pc, ins in enumerate(instrs):
            op = ins[0]
            if op == P.OP_BRF or op == P.OP_BRT:
                leaders.add(ins[2])
                leaders.add(pc + 1)
            elif op == P.OP_LDBRF or op == P.OP_LDBRT:
                leaders.add(ins[4])
                leaders.add(pc + 1)
            elif op == P.OP_JMP:
                leaders.add(ins[1])
            elif op == P.OP_CALL or op == P.OP_CALLCC:
                leaders.add(pc + 1)

        defs: Dict[int, CodeObject] = {}
        for pc, ins in enumerate(instrs):
            if pc in leaders:
                defs = {}
            op = ins[0]
            if op == P.OP_CLOSURE:
                for i, src in enumerate(ins[3]):
                    record(ins[2], i, defs.get(src))
                defs[ins[1]] = ins[2]
            elif op == P.OP_CLO_ALLOC:
                defs[ins[1]] = ins[2]
            elif op == P.OP_CLO_SET:
                base = defs.get(ins[1])
                if base is None:
                    # A slot store through an unidentified closure could
                    # hit anything: no proof survives.
                    return {}
                record(base, ins[2], defs.get(ins[3]))
            elif op == P.OP_MOV:
                value = defs.get(ins[2])
                if value is None:
                    defs.pop(ins[1], None)
                else:
                    defs[ins[1]] = value
            elif op == P.OP_MOVM:
                for dst, src in ins[1]:
                    value = defs.get(src)
                    if value is None:
                        defs.pop(dst, None)
                    else:
                        defs[dst] = value
            elif op == P.OP_LDM:
                for dst, _slot, _kind in ins[1]:
                    defs.pop(dst, None)
            elif op in (
                P.OP_LD, P.OP_LI, P.OP_LD_OUT, P.OP_CLO_REF,
                P.OP_LDBRF, P.OP_LDBRT, *prim_ops,
            ):
                defs.pop(ins[1], None)
            # Stores, branches, jumps, calls, returns, halt write no
            # register (call clobbers are covered by the pc+1 leader
            # reset).

    result: Dict[CodeObject, Dict[int, CodeObject]] = {}
    for (base_id, slot), value in stores.items():
        if value is _CONFLICT:
            continue
        result.setdefault(by_id[base_id], {})[slot] = value
    return result


def proves_direct_call(callee: Optional[CodeObject], argc: int) -> bool:
    """Whether a call site may be collapsed into a direct transfer.

    *callee* is what the trace builder proved the closure-pointer
    register holds at the site (None when nothing is proven — the
    closure came from a load, a move, or another trace).  Collapsing is
    sound only when the proof exists **and** the site's argument count
    matches the callee's arity, because the dynamic dispatch path the
    collapse removes is exactly the closure type test plus that arity
    check.  An arity mismatch must keep the dynamic path so the runtime
    error message is identical to the interpreted loops'.  The AOT
    emitter (:mod:`repro.vm.aotemit`) consults this for every
    call/tail-call exit.
    """
    return callee is not None and len(callee.params) == argc
