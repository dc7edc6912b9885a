"""Block compilation: the fast path's execution engine.

``repro.vm.predecode`` turns each code object's symbolic instructions
into a fused, coded tuple stream.  Dispatching over that stream one
tuple at a time still pays an interpretive tax per instruction: fetch,
tag compare, operand subscripts, counter bumps.  This module removes
that tax by compiling the stream into *traces* — extended basic
blocks, each one generated straight-line Python function.  A trace is
the logical endpoint of superinstruction fusion: the whole block is
the superinstruction.

A trace starts at a block leader (the entry, a branch target, or a
return address) and follows the fall-through path as far as it can:

* straight-line instructions are emitted inline with operands baked in
  as source-text literals, so there is no operand fetch at run time;
* forward jumps are followed (the jump charges its cycle, then the
  target's code continues inline);
* conditional branches stay in the trace: the not-taken (fall-through,
  statically predicted) side continues inline, while the taken side
  becomes an early ``return`` naming an *exit*;
* the trace ends at a control transfer the trampoline must perform —
  call, tail call, ``call/cc``, return, halt — or at a backward jump.

Every generated function has the shape
``fn(regs, ready, stack, sp, cycle, port) -> (cycle, exit_id)``.  The
per-instruction ``cycle += 1`` dispatch charges are constant-folded:
the generator tracks a static cycle offset and only materializes it at
stall checks and at exits, so a run of loads compiles to plain list
moves plus one add.  Primitive callables, code objects, and
non-trivial immediates are bound once into the function's globals
(``C0``, ``C1``, ...).

Counter effects are static *per exit*: how many instructions, moves,
prim calls, and stack accesses of each kind were executed by the time
a trace leaves through a given exit is known at compile time, so the
trampoline applies one small tuple of deltas per trace execution
instead of one bump per instruction.  Only branch mispredicts and
continuation invokes are dynamic, and both are accounted by the
trampoline (a taken-branch exit carries a flag).

The trampoline (:func:`repro.vm.trampoline.run_blocks`) executes a
program as::

    fn, exits = blocks[pc]                      # one indexed fetch
    cycle, ex = fn(regs, ready, stack, sp, cycle, port)
    kind, arg, nexec, counts, taken = exits[ex]
    ... budget, counter deltas, mispredict, control transfer ...

Trace functions never transfer control themselves; the trampoline
performs calls, returns, branch-target selection, and the
stack-release policy — byte-for-byte the legacy loop's semantics, so
values, output, counters, cycles, and per-procedure profiles are
bit-identical to ``Machine._run`` (asserted by
``tests/vm/test_predecode_equiv.py``, ``tests/vm/test_tiers.py`` and
the fuzz oracle's ``vm-fast`` invariant).

**Two tiers, one builder.**  Compiling a trace module costs far more
than running cold code ever saves (CPython's ``compile()`` of the
generated text dominates a short run), so the fast loop does it only
for code that proves hot.  :func:`_build_trace` drives a writer: the
:class:`_TraceWriter` turns each trace into source for
:func:`compile_blocks`; the :class:`_StepWriter` records the same trace
as a tuple of steps — the same instructions, static cycle offsets and
exit tuples — that :func:`run_steps`, one generic interpreter with the
block protocol's shape, runs without any ``compile()``.  The cycle
offsets and counter deltas live in their common base, so a code
object's step table (:func:`step_blocks`) has exactly its trace
table's leaders and exits, and a code object can move from one to the
other at any control transfer with nothing observable changing.
``Machine._run_fast`` chooses the table per code object (see
:data:`repro.vm.machine.TIER_THRESHOLD`); only trace tables are cached
on the code object.

Trace boundaries and ``pc`` values live in the *fused* coded stream's
index space — the same space return addresses and captured
continuations use — so a code object's block table and its
``fast_instructions`` are two views of one program.  Inlining across
leaders duplicates code (a join block's instructions appear in every
trace that reaches it); :data:`TRACE_LIMIT` bounds the duplication by
ending over-long traces at the next natural boundary.

The one observable relaxation: the instruction budget
(``max_instructions``) is checked once per trace, traced or stepped
alike, after the trace has run, so a budget-exceeded run may raise up
to a trace's length later than the legacy loop's per-instruction check
(and may have performed those instructions' effects).  Successful runs are unaffected — their
totals never cross the budget — and nothing compares counters or
output on budget-error paths.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.primitives import PRIMITIVES
from repro.sexp.datum import NIL, Pair, UNSPECIFIED
from repro.vm.trampoline import (
    ACC_BRANCH,
    ACC_CALL,
    ACC_CC_CAP,
    ACC_CLO,
    ACC_MOV,
    ACC_PRIM,
    ACC_READS,
    ACC_SWAP,
    ACC_TAIL,
    ACC_WRITES,
    K_CALL,
    K_CALLCC,
    K_FALL,
    K_HALT,
    K_RET,
    K_TAIL,
    VMClosure,
)
from repro.vm.predecode import (
    OP_BRF,
    OP_BRT,
    OP_CALL,
    OP_CALLCC,
    OP_CLO_ALLOC,
    OP_CLO_REF,
    OP_CLO_SET,
    OP_CLOSURE,
    OP_HALT,
    OP_JMP,
    OP_LD,
    OP_LD_OUT,
    OP_LDBRF,
    OP_LDBRT,
    OP_LDM,
    OP_LI,
    OP_MOV,
    OP_MOVM,
    OP_PRIM0,
    OP_PRIM1,
    OP_PRIM2,
    OP_PRIM3,
    OP_PRIMN,
    OP_PERMI,
    OP_PRIMX,
    OP_RETURN,
    OP_ST,
    OP_ST_OUT,
    OP_STM,
    OP_SWAP,
    OP_TAILCALL,
    predecode_code,
)

#: Soft cap on instructions inlined per trace.  Once exceeded, the
#: trace ends at the next natural boundary (leader, branch, or jump)
#: instead of continuing inline, bounding total code duplication.
TRACE_LIMIT = 128

#: Marker for "register operand, value unknown at compile time" in the
#: prim-inlining operand lists (immediates carry their actual value).
_REG = object()


def _build_inline_tags() -> Dict[Any, Tuple[str, ...]]:
    """Primitives the generator open-codes behind a type guard.

    Keyed by the primitive's resolved callable (what the coded stream
    carries).  Each fast path is *exactly* the primitive's behaviour on
    guarded inputs; anything that fails the guard falls back to the
    real callable, so error messages and edge semantics are untouched.
    """
    table = {}
    for name, tag in (
        ("+", ("arith", "+")),
        ("-", ("arith", "-")),
        ("*", ("arith", "*")),
        ("<", ("arith", "<")),
        ("<=", ("arith", "<=")),
        (">", ("arith", ">")),
        (">=", ("arith", ">=")),
        ("=", ("arith", "==")),
        ("add1", ("incdec", "+")),
        ("sub1", ("incdec", "-")),
        ("zero?", ("zero",)),
        ("car", ("field", "car")),
        ("cdr", ("field", "cdr")),
        ("set-car!", ("setfield", "car")),
        ("set-cdr!", ("setfield", "cdr")),
        ("cons", ("cons",)),
        ("null?", ("isnil",)),
        ("not", ("isfalse",)),
        ("pair?", ("ispair",)),
        ("eq?", ("eqis",)),
        ("vector-ref", ("vref",)),
        ("vector-set!", ("vset",)),
    ):
        spec = PRIMITIVES.get(name)
        if spec is not None:
            table[spec.fn] = tag
    return table


_INLINE_TAGS = _build_inline_tags()


def _find_leaders(instrs: Tuple[Tuple[Any, ...], ...]) -> List[int]:
    """Initial trace leaders: entry, every branch/jump target, every
    return address (the pc after a call or callcc).  Trace building
    may add more (see TRACE_LIMIT)."""
    n = len(instrs)
    leaders = {0}
    for pc, ins in enumerate(instrs):
        op = ins[0]
        if op == OP_BRF or op == OP_BRT:
            leaders.add(ins[2])
            leaders.add(pc + 1)
        elif op == OP_LDBRF or op == OP_LDBRT:
            leaders.add(ins[4])
            leaders.add(pc + 1)
        elif op == OP_JMP:
            leaders.add(ins[1])
        elif op == OP_CALL or op == OP_CALLCC:
            leaders.add(pc + 1)
    leaders.discard(n)
    return sorted(leaders)


def _expand(ins: Tuple[Any, ...]) -> List[Tuple[Any, ...]]:
    """A fused op is its exact component sequence; everything else is
    itself."""
    op = ins[0]
    if op == OP_MOVM:
        return [(OP_MOV, d, s) for d, s in ins[1]]
    if op == OP_STM:
        return [(OP_ST, slot, src, k) for slot, src, k in ins[1]]
    if op == OP_LDM:
        return [(OP_LD, d, slot, k) for d, slot, k in ins[1]]
    return [ins]


class _ConstPool:
    """Objects the generated source cannot spell as literals, bound
    into the exec globals as C0, C1, ..."""

    def __init__(self) -> None:
        self.by_id: Dict[int, str] = {}
        self.values: Dict[str, Any] = {}

    def ref(self, value: Any) -> str:
        name = self.by_id.get(id(value))
        if name is None:
            name = f"C{len(self.by_id)}"
            self.by_id[id(value)] = name
            self.values[name] = value
        return name


#: Counter slot of each straight-line opcode that counts as it runs;
#: stack references add their kind (operand 3) to ACC_READS/ACC_WRITES.
_OP_SLOT = {
    OP_LD: ACC_READS,
    OP_LD_OUT: ACC_READS,
    OP_ST: ACC_WRITES,
    OP_ST_OUT: ACC_WRITES,
    OP_MOV: ACC_MOV,
    OP_SWAP: ACC_SWAP,
    OP_PERMI: ACC_SWAP,
    OP_PRIM0: ACC_PRIM,
    OP_PRIM1: ACC_PRIM,
    OP_PRIM2: ACC_PRIM,
    OP_PRIM3: ACC_PRIM,
    OP_PRIMN: ACC_PRIM,
    OP_PRIMX: ACC_PRIM,
    OP_CLOSURE: ACC_CLO,
    OP_CLO_ALLOC: ACC_CLO,
}


class _Writer:
    """What both trace writers share: the static cycle offset `dc` and
    the running counter deltas that :func:`_build_trace` snapshots into
    each exit.  Keeping them here, not in each writer, is what makes a
    step table's exits equal to the trace table's.  Subclasses say what
    one instruction does (:meth:`body`) and how a trace leaves
    (``branch_exit``, ``branch_exit_both``, ``return_exit``)."""

    def __init__(self, cp: int, load_latency: int, store_extra: int) -> None:
        self.cp = cp
        self.load_latency = load_latency
        self.store_extra = store_extra
        self.dc = 0
        self.counts: Dict[int, int] = {}

    def count(self, slot: int, n: int = 1) -> None:
        self.counts[slot] = self.counts.get(slot, 0) + n

    def snapshot(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted(self.counts.items()))

    def emit(self, ins: Tuple[Any, ...]) -> None:
        """One straight-line instruction: its dispatch charge, its body
        (against the charged `dc`), a store's extra cycles, its count."""
        self.dc += 1
        self.body(ins)
        op = ins[0]
        if op == OP_ST or op == OP_ST_OUT:
            self.dc += self.store_extra
        slot = _OP_SLOT.get(op)
        if slot is not None:
            if slot == ACC_READS or slot == ACC_WRITES:
                slot += ins[3]
            counts = self.counts
            counts[slot] = counts.get(slot, 0) + 1

    def branch_head(self, src: int) -> None:
        """The branch's dispatch charge and count, shared by the taken
        exit and the inline fall-through continuation."""
        self.dc += 1
        self.count(ACC_BRANCH)

    def body(self, ins: Tuple[Any, ...]) -> None:  # pragma: no cover
        raise NotImplementedError


class _TraceWriter(_Writer):
    """Generates one trace function's source."""

    def __init__(self, name: str, consts: _ConstPool, cp: int,
                 load_latency: int, store_extra: int) -> None:
        super().__init__(cp, load_latency, store_extra)
        self.name = name
        self.lines: List[str] = [
            f"def {name}(regs, ready, stack, sp, cycle, port):"
        ]
        self.consts = consts

    # -- helpers -----------------------------------------------------------

    def w(self, line: str) -> None:
        self.lines.append("    " + line)

    def cyc(self) -> str:
        return f"cycle + {self.dc}" if self.dc else "cycle"

    def sp_index(self, offset: int) -> str:
        return f"sp + {offset}" if offset else "sp"

    def stall(self, src: int) -> None:
        """cycle = max(cycle, ready[src]) against the virtual (offset)
        cycle; keeps `dc` constant by shifting the stalled value."""
        self.w(f"t = ready[{src}]")
        if self.dc:
            self.w(f"if t > cycle + {self.dc}: cycle = t - {self.dc}")
        else:
            self.w("if t > cycle: cycle = t")

    def imm(self, value: Any) -> str:
        """*value* as a source literal, or a const-pool name for what
        ``repr`` cannot spell: non-scalar datums, ``inf``/``nan``, and
        integers past CPython's int-to-text digit limit."""
        if value is None or value is True or value is False:
            return repr(value)
        kind = type(value)
        if kind is str or (kind is float and math.isfinite(value)):
            return repr(value)
        if kind is int:
            try:
                return repr(value)
            except ValueError:
                pass
        return self.consts.ref(value)

    def ensure(self, idx_expr: str) -> None:
        self.w(f"idx = {idx_expr}")
        self.w("if idx >= len(stack):")
        self.w("    stack.extend([None] * (idx - len(stack) + 256))")

    # -- primitive application ----------------------------------------------

    def _prim(self, dst: int, fn: Any, operands: List[Tuple[str, Any]]) -> None:
        """Apply a primitive; *operands* is ``(expr, value)`` pairs where
        value is :data:`_REG` for register operands (unknown at compile
        time) or the immediate itself.  Hot primitives are open-coded
        behind exact type guards; everything else — and every guard
        miss — goes through the primitive's real callable, so errors
        and edge cases behave identically."""
        tag = _INLINE_TAGS.get(fn)
        if tag is None or not self._prim_inline(tag, dst, fn, operands):
            ref = self.consts.ref(fn)
            args = ", ".join(e for e, _ in operands)
            self.w(f"regs[{dst}] = {ref}([{args}], port)")
        self.w(f"ready[{dst}] = {self.cyc()}")

    def _prim_inline(
        self, tag: Tuple[str, ...], dst: int, fn: Any,
        operands: List[Tuple[str, Any]],
    ) -> bool:
        """Emit the open-coded form for *tag* if the operand shapes
        allow it; returns False to fall back to the generic call."""
        kind = tag[0]
        if len(operands) > 4:
            return False
        # Bind register operands to locals: each is used by the guard,
        # the fast path, and the fallback call.
        names: List[str] = []
        for i, (expr, value) in enumerate(operands):
            if value is _REG:
                name = "xyzw"[i]
                self.w(f"{name} = {expr}")
                names.append(name)
            else:
                names.append(expr)

        def int_guard(indices) -> Optional[str]:
            parts = []
            for i in indices:
                if operands[i][1] is _REG:
                    parts.append(f"type({names[i]}) is int")
                elif type(operands[i][1]) is not int:
                    return None
            return " and ".join(parts)

        def fallback() -> str:
            ref = self.consts.ref(fn)
            return f"regs[{dst}] = {ref}([{', '.join(names)}], port)"

        if kind == "arith" and len(operands) == 2:
            guard = int_guard((0, 1))
            if guard is None:
                return False
            body = f"regs[{dst}] = {names[0]} {tag[1]} {names[1]}"
            if guard:
                self.w(f"if {guard}:")
                self.w(f"    {body}")
                self.w("else:")
                self.w(f"    {fallback()}")
            else:
                self.w(body)
            return True
        if kind == "incdec" and len(operands) == 1:
            guard = int_guard((0,))
            if not guard:
                return False
            self.w(f"if {guard}:")
            self.w(f"    regs[{dst}] = {names[0]} {tag[1]} 1")
            self.w("else:")
            self.w(f"    {fallback()}")
            return True
        if kind == "zero" and len(operands) == 1:
            guard = int_guard((0,))
            if not guard:
                return False
            self.w(f"if {guard}:")
            self.w(f"    regs[{dst}] = {names[0]} == 0")
            self.w("else:")
            self.w(f"    {fallback()}")
            return True
        if kind == "field" and len(operands) == 1 and operands[0][1] is _REG:
            self.w(f"if type({names[0]}) is Pair:")
            self.w(f"    regs[{dst}] = {names[0]}.{tag[1]}")
            self.w("else:")
            self.w(f"    {fallback()}")
            return True
        if kind == "setfield" and len(operands) == 2 and operands[0][1] is _REG:
            self.w(f"if type({names[0]}) is Pair:")
            self.w(f"    {names[0]}.{tag[1]} = {names[1]}")
            self.w(f"    regs[{dst}] = UNSPECIFIED")
            self.w("else:")
            self.w(f"    {fallback()}")
            return True
        if kind == "cons" and len(operands) == 2:
            self.w(f"regs[{dst}] = Pair({names[0]}, {names[1]})")
            return True
        if kind == "isnil" and len(operands) == 1:
            self.w(f"regs[{dst}] = {names[0]} is NIL")
            return True
        if kind == "isfalse" and len(operands) == 1:
            self.w(f"regs[{dst}] = {names[0]} is False")
            return True
        if kind == "ispair" and len(operands) == 1:
            self.w(f"regs[{dst}] = isinstance({names[0]}, Pair)")
            return True
        if kind == "eqis" and len(operands) == 2:
            ref = self.consts.ref(fn)
            self.w(
                f"regs[{dst}] = True if {names[0]} is {names[1]} "
                f"else {ref}([{names[0]}, {names[1]}], port)"
            )
            return True
        if kind == "vref" and len(operands) == 2 and operands[0][1] is _REG:
            iguard = int_guard((1,))
            if iguard is None:
                return False
            guard = f"type({names[0]}) is list"
            if iguard:
                guard += f" and {iguard}"
            self.w(f"if {guard} and 0 <= {names[1]} < len({names[0]}):")
            self.w(f"    regs[{dst}] = {names[0]}[{names[1]}]")
            self.w("else:")
            self.w(f"    {fallback()}")
            return True
        if kind == "vset" and len(operands) == 3 and operands[0][1] is _REG:
            iguard = int_guard((1,))
            if iguard is None:
                return False
            guard = f"type({names[0]}) is list"
            if iguard:
                guard += f" and {iguard}"
            self.w(f"if {guard} and 0 <= {names[1]} < len({names[0]}):")
            self.w(f"    {names[0]}[{names[1]}] = {names[2]}")
            self.w(f"    regs[{dst}] = UNSPECIFIED")
            self.w("else:")
            self.w(f"    {fallback()}")
            return True
        return False

    # -- straight-line instruction bodies ----------------------------------

    def body(self, ins: Tuple[Any, ...]) -> None:
        op = ins[0]
        L = self.load_latency
        if op == OP_LD:
            self.w(f"regs[{ins[1]}] = stack[{self.sp_index(ins[2])}]")
            self.w(f"ready[{ins[1]}] = cycle + {self.dc + L}")
        elif op == OP_ST:
            self.stall(ins[2])
            self.w(f"stack[{self.sp_index(ins[1])}] = regs[{ins[2]}]")
        elif op == OP_MOV:
            self.stall(ins[2])
            self.w(f"regs[{ins[1]}] = regs[{ins[2]}]")
            self.w(f"ready[{ins[1]}] = {self.cyc()}")
        elif op == OP_SWAP:
            self.stall(ins[1])
            self.stall(ins[2])
            self.w(f"regs[{ins[1]}], regs[{ins[2]}] = "
                   f"regs[{ins[2]}], regs[{ins[1]}]")
            self.w(f"ready[{ins[1]}] = {self.cyc()}")
            self.w(f"ready[{ins[2]}] = {self.cyc()}")
        elif op == OP_PERMI:
            rs = ins[1]
            for r in rs:
                self.stall(r)
            lhs = ", ".join(f"regs[{r}]" for r in rs)
            rhs = ", ".join(
                f"regs[{rs[(i + 1) % len(rs)]}]" for i in range(len(rs))
            )
            self.w(f"{lhs} = {rhs}")
            for r in rs:
                self.w(f"ready[{r}] = {self.cyc()}")
        elif op == OP_LI:
            self.w(f"regs[{ins[1]}] = {self.imm(ins[2])}")
            self.w(f"ready[{ins[1]}] = {self.cyc()}")
        elif op == OP_PRIM1:
            self.stall(ins[3])
            self._prim(ins[1], ins[2], [(f"regs[{ins[3]}]", _REG)])
        elif op == OP_PRIM2:
            self.stall(ins[3])
            self.stall(ins[4])
            self._prim(
                ins[1], ins[2],
                [(f"regs[{ins[3]}]", _REG), (f"regs[{ins[4]}]", _REG)],
            )
        elif op == OP_PRIM3:
            self.stall(ins[3])
            self.stall(ins[4])
            self.stall(ins[5])
            self._prim(
                ins[1], ins[2],
                [(f"regs[{s}]", _REG) for s in ins[3:6]],
            )
        elif op == OP_PRIMN:
            for s in ins[3]:
                self.stall(s)
            self._prim(ins[1], ins[2], [(f"regs[{s}]", _REG) for s in ins[3]])
        elif op == OP_PRIM0:
            self._prim(ins[1], ins[2], [(self.imm(v), v) for v in ins[3]])
        elif op == OP_PRIMX:
            operands = []
            for s in ins[3]:
                if type(s) is int:
                    self.stall(s)
                    operands.append((f"regs[{s}]", _REG))
                else:
                    operands.append((self.imm(s[1]), s[1]))
            self._prim(ins[1], ins[2], operands)
        elif op == OP_CLO_REF:
            self.w(f"regs[{ins[1]}] = regs[{self.cp}].slots[{ins[2]}]")
            self.w(f"ready[{ins[1]}] = {self.cyc()}")
        elif op == OP_CLOSURE:
            for s in ins[3]:
                self.stall(s)
            codeobj = self.consts.ref(ins[2])
            vals = ", ".join(f"regs[{s}]" for s in ins[3])
            self.w(f"regs[{ins[1]}] = VMClosure({codeobj}, [{vals}])")
            self.w(f"ready[{ins[1]}] = {self.cyc()}")
        elif op == OP_CLO_ALLOC:
            codeobj = self.consts.ref(ins[2])
            self.w(f"regs[{ins[1]}] = VMClosure({codeobj}, [None] * {ins[3]})")
            self.w(f"ready[{ins[1]}] = {self.cyc()}")
        elif op == OP_CLO_SET:
            self.stall(ins[3])
            self.w(f"regs[{ins[1]}].slots[{ins[2]}] = regs[{ins[3]}]")
        elif op == OP_LD_OUT:
            self.ensure(self.sp_index(ins[2]))
            self.w(f"regs[{ins[1]}] = stack[idx]")
            self.w(f"ready[{ins[1]}] = cycle + {self.dc + L}")
        elif op == OP_ST_OUT:
            self.stall(ins[2])
            self.ensure(self.sp_index(ins[1]))
            self.w(f"stack[idx] = regs[{ins[2]}]")
        else:  # pragma: no cover - closed opcode set
            raise ValueError(f"cannot block-compile opcode {op}")

    # -- exits -------------------------------------------------------------

    def branch_head(self, src: int) -> None:
        super().branch_head(src)
        self.stall(src)

    def branch_exit(self, src: int, negate: bool, exit_id: int) -> None:
        """Taken side leaves the trace; not-taken continues inline."""
        test = "is not False" if negate else "is False"
        self.w(f"if regs[{src}] {test}: return {self.cyc()}, {exit_id}")

    def branch_exit_both(
        self, src: int, negate: bool, taken_id: int, fall_id: int
    ) -> None:
        """Over-limit trace: both branch sides leave the trace."""
        test = "is not False" if negate else "is False"
        self.w(
            f"return {self.cyc()}, "
            f"({taken_id} if regs[{src}] {test} else {fall_id})"
        )

    def return_exit(self, exit_id: int) -> None:
        self.w(f"return {self.cyc()}, {exit_id}")

    def source(self) -> str:
        return "\n".join(self.lines)


# Step opcodes: what the step interpreter dispatches on.  A step is a
# 5-tuple ``(op, dc, a, b, c)``: ``dc`` is the static cycle offset the
# trace writer would have baked into the same line (for loads, with the
# load latency added), ``a``-``c`` are operands.
S_LD = 0        # regs[a] = stack[sp + b]; ready[a] = cycle + dc
S_MOV = 1       # regs[a] = regs[b]
S_ST = 2        # stack[sp + a] = regs[b]
S_BRF = 3       # leave through exit b if regs[a] is False
S_PRIM2 = 4     # regs[a] = b([regs[c[0]], regs[c[1]]], port)
S_EXIT = 5      # leave through exit a
S_LI = 6        # regs[a] = b
S_PRIM1 = 7     # regs[a] = b([regs[c]], port)
S_CLO_REF = 8   # regs[a] = regs[c].slots[b]  (c is the closure register)
S_BRT = 9       # leave through exit b if regs[a] is not False
S_PRIMN = 10    # regs[a] = b([regs[s] for s in c], port)
S_PRIM0 = 11    # regs[a] = b(list(c), port)
S_PRIMX = 12    # regs[a] = b(c's registers and immediates, port)
S_CLOSURE = 13  # regs[a] = VMClosure(b, [regs[s] for s in c])
S_CLO_ALLOC = 14  # regs[a] = VMClosure(b, [None] * c)
S_CLO_SET = 15  # regs[a].slots[b] = regs[c]
S_LD_OUT = 16   # like S_LD at stack offset b, growing the stack first
S_ST_OUT = 17   # like S_ST at stack offset a, growing the stack first
S_SWAP = 18     # exchange regs[a] and regs[b]
S_PERMI = 19    # rotate the registers a left by one
S_BR_BOTH = 20  # leave through b[0] if the branch on regs[a] is taken
                # (c: taken when not False), else through b[1]


class _StepWriter(_Writer):
    """Records one trace as a tuple of steps for :func:`run_steps`:
    the same instructions, static cycle offsets and exits the
    :class:`_TraceWriter` turns into source, with nothing to compile."""

    def __init__(self, cp: int, load_latency: int, store_extra: int) -> None:
        super().__init__(cp, load_latency, store_extra)
        self.steps: List[Tuple[Any, ...]] = []

    def body(self, ins: Tuple[Any, ...]) -> None:
        op = ins[0]
        dc = self.dc
        add = self.steps.append
        if op == OP_LD:
            add((S_LD, dc + self.load_latency, ins[1], ins[2], None))
        elif op == OP_ST:
            add((S_ST, dc, ins[1], ins[2], None))
        elif op == OP_MOV:
            add((S_MOV, dc, ins[1], ins[2], None))
        elif op == OP_LI:
            add((S_LI, dc, ins[1], ins[2], None))
        elif op == OP_PRIM1:
            add((S_PRIM1, dc, ins[1], ins[2], ins[3]))
        elif op == OP_PRIM2:
            add((S_PRIM2, dc, ins[1], ins[2], (ins[3], ins[4])))
        elif op == OP_PRIM3:
            add((S_PRIMN, dc, ins[1], ins[2], ins[3:6]))
        elif op == OP_PRIMN:
            add((S_PRIMN, dc, ins[1], ins[2], ins[3]))
        elif op == OP_PRIM0:
            add((S_PRIM0, dc, ins[1], ins[2], ins[3]))
        elif op == OP_PRIMX:
            add((S_PRIMX, dc, ins[1], ins[2], ins[3]))
        elif op == OP_CLO_REF:
            add((S_CLO_REF, dc, ins[1], ins[2], self.cp))
        elif op == OP_CLOSURE:
            add((S_CLOSURE, dc, ins[1], ins[2], ins[3]))
        elif op == OP_CLO_ALLOC:
            add((S_CLO_ALLOC, dc, ins[1], ins[2], ins[3]))
        elif op == OP_CLO_SET:
            add((S_CLO_SET, dc, ins[1], ins[2], ins[3]))
        elif op == OP_LD_OUT:
            add((S_LD_OUT, dc + self.load_latency, ins[1], ins[2], None))
        elif op == OP_ST_OUT:
            add((S_ST_OUT, dc, ins[1], ins[2], None))
        elif op == OP_SWAP:
            add((S_SWAP, dc, ins[1], ins[2], None))
        elif op == OP_PERMI:
            add((S_PERMI, dc, ins[1], None, None))
        else:  # pragma: no cover - closed opcode set
            raise ValueError(f"cannot step opcode {op}")

    def branch_exit(self, src: int, negate: bool, exit_id: int) -> None:
        self.steps.append((S_BRT if negate else S_BRF, self.dc, src, exit_id, None))

    def branch_exit_both(
        self, src: int, negate: bool, taken_id: int, fall_id: int
    ) -> None:
        self.steps.append((S_BR_BOTH, self.dc, src, (taken_id, fall_id), negate))

    def return_exit(self, exit_id: int) -> None:
        self.steps.append((S_EXIT, self.dc, exit_id, None, None))


def run_steps(steps, regs, ready, stack, sp, cycle, port):
    """The step interpreter: run one recorded trace with the block
    protocol's effects and result, ``(cycle, exit_id)``.

    A stall moves the base ``cycle`` so that ``cycle + dc`` is the
    source's ready time, exactly as a generated trace does.  Primitives
    always go through their real callable (a trace open-codes some of
    them behind guards that are exact, so the results are the same).
    """
    for op, dc, a, b, c in steps:
        if op == S_LD:
            regs[a] = stack[sp + b]
            ready[a] = cycle + dc
        elif op == S_MOV:
            t = ready[b]
            if t > cycle + dc:
                cycle = t - dc
            regs[a] = regs[b]
            ready[a] = cycle + dc
        elif op == S_ST:
            t = ready[b]
            if t > cycle + dc:
                cycle = t - dc
            stack[sp + a] = regs[b]
        elif op == S_BRF:
            t = ready[a]
            if t > cycle + dc:
                cycle = t - dc
            if regs[a] is False:
                return cycle + dc, b
        elif op == S_PRIM2:
            x, y = c
            t = ready[x]
            if t > cycle + dc:
                cycle = t - dc
            t = ready[y]
            if t > cycle + dc:
                cycle = t - dc
            regs[a] = b([regs[x], regs[y]], port)
            ready[a] = cycle + dc
        elif op == S_EXIT:
            return cycle + dc, a
        elif op == S_LI:
            regs[a] = b
            ready[a] = cycle + dc
        elif op == S_PRIM1:
            t = ready[c]
            if t > cycle + dc:
                cycle = t - dc
            regs[a] = b([regs[c]], port)
            ready[a] = cycle + dc
        elif op == S_CLO_REF:
            regs[a] = regs[c].slots[b]
            ready[a] = cycle + dc
        elif op == S_BRT:
            t = ready[a]
            if t > cycle + dc:
                cycle = t - dc
            if regs[a] is not False:
                return cycle + dc, b
        elif op == S_PRIMN:
            for s in c:
                t = ready[s]
                if t > cycle + dc:
                    cycle = t - dc
            regs[a] = b([regs[s] for s in c], port)
            ready[a] = cycle + dc
        elif op == S_PRIM0:
            regs[a] = b(list(c), port)
            ready[a] = cycle + dc
        elif op == S_PRIMX:
            args = []
            for s in c:
                if type(s) is int:
                    t = ready[s]
                    if t > cycle + dc:
                        cycle = t - dc
                    args.append(regs[s])
                else:
                    args.append(s[1])
            regs[a] = b(args, port)
            ready[a] = cycle + dc
        elif op == S_CLOSURE:
            for s in c:
                t = ready[s]
                if t > cycle + dc:
                    cycle = t - dc
            regs[a] = VMClosure(b, [regs[s] for s in c])
            ready[a] = cycle + dc
        elif op == S_CLO_ALLOC:
            regs[a] = VMClosure(b, [None] * c)
            ready[a] = cycle + dc
        elif op == S_CLO_SET:
            t = ready[c]
            if t > cycle + dc:
                cycle = t - dc
            regs[a].slots[b] = regs[c]
        elif op == S_LD_OUT:
            idx = sp + b
            if idx >= len(stack):
                stack.extend([None] * (idx - len(stack) + 256))
            regs[a] = stack[idx]
            ready[a] = cycle + dc
        elif op == S_ST_OUT:
            t = ready[b]
            if t > cycle + dc:
                cycle = t - dc
            idx = sp + a
            if idx >= len(stack):
                stack.extend([None] * (idx - len(stack) + 256))
            stack[idx] = regs[b]
        elif op == S_SWAP:
            for r in (a, b):
                t = ready[r]
                if t > cycle + dc:
                    cycle = t - dc
            regs[a], regs[b] = regs[b], regs[a]
            ready[a] = ready[b] = cycle + dc
        elif op == S_PERMI:
            for r in a:
                t = ready[r]
                if t > cycle + dc:
                    cycle = t - dc
            vals = [regs[r] for r in a]
            k = len(a)
            for i, r in enumerate(a):
                regs[r] = vals[(i + 1) % k]
                ready[r] = cycle + dc
        else:  # S_BR_BOTH
            t = ready[a]
            if t > cycle + dc:
                cycle = t - dc
            taken = regs[a] is not False if c else regs[a] is False
            return cycle + dc, b[0] if taken else b[1]


def _build_trace(start, instrs, n, leader_set, pending, wtr):
    """Emit one trace into *wtr*; returns its exit table.

    Exits are ``(kind, arg, nexec, counts, taken)``: the trampoline
    action, its argument, the exact number of instructions executed
    when leaving through this exit, the counter deltas accumulated by
    then, and whether the exit is a taken conditional branch (for
    mispredict accounting).
    """
    exits: List[Tuple[int, Any, int, Tuple[Tuple[int, int], ...], bool]] = []
    ninstr = 0
    pc = start
    while True:
        if pc >= n:
            # Run off the end: exit to pc n, where the trampoline's
            # block fetch raises IndexError exactly like the legacy
            # loop's instruction fetch would.
            exits.append((K_FALL, n, ninstr, wtr.snapshot(), False))
            wtr.return_exit(len(exits) - 1)
            break
        if pc != start and pc in leader_set and ninstr >= TRACE_LIMIT:
            exits.append((K_FALL, pc, ninstr, wtr.snapshot(), False))
            wtr.return_exit(len(exits) - 1)
            break
        ins = instrs[pc]
        op = ins[0]
        if op == OP_BRF or op == OP_BRT or op == OP_LDBRF or op == OP_LDBRT:
            if op == OP_LDBRF or op == OP_LDBRT:
                wtr.emit((OP_LD, ins[1], ins[2], ins[3]))
                ninstr += 1
                src, target = ins[1], ins[4]
                negate = op == OP_LDBRT
            else:
                src, target = ins[1], ins[2]
                negate = op == OP_BRT
            ninstr += 1
            wtr.branch_head(src)
            snap = wtr.snapshot()
            taken_id = len(exits)
            exits.append((K_FALL, target, ninstr, snap, True))
            if ninstr >= TRACE_LIMIT:
                fall_id = len(exits)
                exits.append((K_FALL, pc + 1, ninstr, snap, False))
                wtr.branch_exit_both(src, negate, taken_id, fall_id)
                if pc + 1 not in leader_set:
                    leader_set.add(pc + 1)
                    pending.append(pc + 1)
                break
            wtr.branch_exit(src, negate, taken_id)
            pc += 1
        elif op == OP_JMP:
            ninstr += 1
            wtr.dc += 1
            target = ins[1]
            if target > pc and ninstr < TRACE_LIMIT:
                pc = target
            else:
                exits.append((K_FALL, target, ninstr, wtr.snapshot(), False))
                wtr.return_exit(len(exits) - 1)
                break
        elif op == OP_CALL:
            ninstr += 1
            wtr.dc += 1
            wtr.count(ACC_CALL)
            exits.append((K_CALL, (ins[1], pc + 1), ninstr, wtr.snapshot(), False))
            wtr.return_exit(len(exits) - 1)
            break
        elif op == OP_TAILCALL:
            ninstr += 1
            wtr.dc += 1
            wtr.count(ACC_TAIL)
            exits.append((K_TAIL, ins[1], ninstr, wtr.snapshot(), False))
            wtr.return_exit(len(exits) - 1)
            break
        elif op == OP_CALLCC:
            ninstr += 1
            wtr.dc += 1
            wtr.count(ACC_CALL)
            wtr.count(ACC_CC_CAP)
            exits.append((K_CALLCC, pc + 1, ninstr, wtr.snapshot(), False))
            wtr.return_exit(len(exits) - 1)
            break
        elif op == OP_RETURN:
            ninstr += 1
            wtr.dc += 1
            exits.append((K_RET, None, ninstr, wtr.snapshot(), False))
            wtr.return_exit(len(exits) - 1)
            break
        elif op == OP_HALT:
            ninstr += 1
            wtr.dc += 1
            exits.append((K_HALT, None, ninstr, wtr.snapshot(), False))
            wtr.return_exit(len(exits) - 1)
            break
        else:
            for comp in _expand(ins):
                wtr.emit(comp)
                ninstr += 1
            pc += 1
    return exits


def _build_traces(instrs, writer):
    """Yield ``(start, writer, exits)`` for every trace of one fused
    stream, in build order; ``writer(start)`` makes each trace's
    writer.  Both tiers build through here, so a step table and a trace
    table have the same leaders and the same exits."""
    n = len(instrs)
    leaders = _find_leaders(instrs)
    leader_set = set(leaders)
    pending = list(leaders)
    built = set()
    while pending:
        start = pending.pop()
        if start in built:
            continue
        built.add(start)
        wtr = writer(start)
        exits = _build_trace(start, instrs, n, leader_set, pending, wtr)
        yield start, wtr, tuple(exits)


class TraceModule:
    """One code object's generated trace module, before instantiation:
    the source text, the trace records (``(start, fn_name, exits)``)
    and the const-pool bindings the source references.  This is the
    unit :func:`compile_blocks` compiles and instantiates on the live
    code object once it turns hot.  It is never persisted: the compile
    cache stores the ISA only."""

    __slots__ = ("n", "records", "source", "const_values")

    def __init__(self, n, records, source, const_values) -> None:
        self.n = n
        self.records = records
        self.source = source
        self.const_values = const_values


def build_trace_module(code, cost_model, cp_index: int) -> TraceModule:
    """Generate (without executing) one code object's trace module."""
    instrs = predecode_code(code)
    consts = _ConstPool()
    load_latency = cost_model.load_latency
    store_extra = cost_model.store_cost - 1

    def writer(start: int) -> _TraceWriter:
        return _TraceWriter(
            f"_b{start}", consts, cp_index, load_latency, store_extra
        )

    sources: List[str] = []
    records: List[Tuple[int, str, Any]] = []
    for start, wtr, exits in _build_traces(instrs, writer):
        sources.append(wtr.source())
        records.append((start, wtr.name, exits))

    return TraceModule(
        len(instrs), tuple(records), "\n\n".join(sources), consts.values
    )


def base_namespace() -> Dict[str, Any]:
    """The names every generated trace references beyond its consts."""
    return {
        "VMClosure": VMClosure,
        "Pair": Pair,
        "NIL": NIL,
        "UNSPECIFIED": UNSPECIFIED,
    }


def instantiate_blocks(code, module_code, records, const_values, n):
    """Execute a compiled trace module and assemble (and cache on
    ``code.fast_blocks``) the pc-indexed block table."""
    namespace = base_namespace()
    namespace.update(const_values)
    exec(module_code, namespace)  # noqa: S102 - trusted generated code

    blocks: List[Optional[Tuple[Any, Any]]] = [None] * n
    for start, name, exits in records:
        blocks[start] = (namespace[name], exits)
    code.fast_blocks = blocks
    return blocks


def compile_blocks(code, cost_model, cp_index: int, dump=None):
    """Compile one code object's fused coded stream into a trace table.

    Returns (and caches on ``code.fast_blocks``) a list indexed by pc;
    entries exist at trace leaders and are ``(fn, exits)`` pairs — see
    the module docstring for both halves.  *dump*, when given, is
    called with the full generated module source (for debugging and
    documentation; nothing else keeps it).
    """
    tm = build_trace_module(code, cost_model, cp_index)
    if dump is not None:
        dump(tm.source)
    module_code = compile(tm.source, f"<blocks:{code.label}>", "exec")
    return instantiate_blocks(code, module_code, tm.records, tm.const_values, tm.n)


def step_blocks(code, cost_model, cp_index: int):
    """One code object's step table: the interpretive tier.

    Indexed by pc like :func:`compile_blocks`'s trace table, with the
    same leaders and exits, but each entry's function is
    :func:`run_steps` bound to the trace's recorded steps, so building
    it needs no ``compile()``.  The table is returned, not cached on
    the code object: only trace tables live on ``code.fast_blocks``.
    """
    instrs = predecode_code(code)
    load_latency = cost_model.load_latency
    store_extra = cost_model.store_cost - 1

    def writer(start: int) -> _StepWriter:
        return _StepWriter(cp_index, load_latency, store_extra)

    blocks: List[Optional[Tuple[Any, Any]]] = [None] * len(instrs)
    for start, wtr, exits in _build_traces(instrs, writer):
        blocks[start] = (partial(run_steps, tuple(wtr.steps)), exits)
    return blocks
