"""The runtime slice: the block trampoline and everything it needs,
compiler-free.

``repro aot build`` (:mod:`repro.vm.aotemit`) turns a compiled program
into one generated Python module — traces as top-level functions, code
objects as :class:`AotCode` instances — that runs with **no compiler
in-process**: importing it pulls in only the runtime slice of the
package (primitives, datums, counters, the activation classifier, and
this module).  So the VM's runtime pieces live here, not in
:mod:`repro.vm.machine` (which re-exports them):

* :class:`VMClosure`, :class:`VMContinuation`, :data:`POISON`,
  :class:`VMError`, and the stack-release policy constants;
* the trace exit protocol — exit kinds (``K_*``) and
  counter-accumulator slots (``ACC_*``) — which
  :mod:`repro.vm.blockcompile` imports to generate traces against;
* :func:`run_blocks`, the one block trampoline.  The in-process fast
  loop (``Machine._run_fast``) runs it with a loader that compiles
  each code object's trace table on first entry; :func:`run_program`
  runs it over an emitted module's prebuilt tables.

Emitted tables may carry two exit kinds the in-process compiler never
produces: :data:`K_CALL_DIRECT` and :data:`K_TAIL_DIRECT` mark call
sites whose callee ``vm/callgraph.py`` proved statically, so the
trampoline skips the closure type test and arity check.  Counters,
cycles, values, and output are bit-identical to the legacy loop
(``tests/vm/test_predecode_equiv.py`` and ``tests/vm/test_aot.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runtime.values import OutputPort, SchemeError
from repro.vm.callgraph import ActivationClassifier
from repro.vm.counters import Counters

# ---------------------------------------------------------------------------
# Stack-release policy (the low-water-mark fix): at a return, when the
# live prefix is below a quarter of capacity and capacity exceeds the
# trigger, truncate to the live prefix + headroom (but never below the
# floor).  Single source of truth for every dispatch loop — machine.py
# re-exports these.

STACK_SHRINK_TRIGGER = 8192
STACK_MIN_CAPACITY = 4096
STACK_HEADROOM = 256

# ---------------------------------------------------------------------------
# Exit kinds: how the trampoline continues after a trace returns.

K_FALL = 0    # continue at `arg` (fallthrough, jump, or taken branch)
K_CALL = 1    # non-tail call: `arg` is (argc, return_pc)
K_TAIL = 2    # tail call: `arg` is argc
K_CALLCC = 3  # continuation capture: `arg` is return_pc
K_RET = 4     # procedure return
K_HALT = 5    # program end
K_CALL_DIRECT = 6  # proven call (emitted modules only): `arg` is (code, return_pc)
K_TAIL_DIRECT = 7  # proven tail call (emitted modules only): `arg` is code

# Accumulator slots shared between exit `counts` tuples and the
# trampoline's 20-element `acc` list.  0-8 are scalar counters, 9-13
# stack reads by kind, 14-18 stack writes by kind (kind order is
# repro.vm.predecode.KIND_NAMES), 19 permutation instructions.
ACC_PRIM = 0
ACC_MOV = 1
ACC_BRANCH = 2
ACC_MISS = 3
ACC_CALL = 4
ACC_TAIL = 5
ACC_CLO = 6
ACC_CC_CAP = 7
ACC_CC_INV = 8
ACC_READS = 9
ACC_WRITES = 14
ACC_SWAP = 19
ACC_SIZE = 20


class VMClosure:
    scheme_procedure = True
    __slots__ = ("code", "slots")

    def __init__(self, code: Any, slots: List[Any]) -> None:
        self.code = code
        self.slots = slots

    def __repr__(self) -> str:
        return f"#<procedure {self.code.name}>"


class VMContinuation:
    scheme_procedure = True
    __slots__ = ("snapshot", "sp", "code", "pc", "class_depth")

    def __init__(
        self,
        snapshot: List[Any],
        sp: int,
        code: Any,
        pc: int,
        class_depth: int,
    ) -> None:
        self.snapshot = snapshot
        self.sp = sp
        self.code = code
        self.pc = pc
        self.class_depth = class_depth

    def __repr__(self) -> str:
        return "#<continuation>"


class _Poison:
    __slots__ = ()

    def __repr__(self) -> str:
        return "#<uninitialized-frame-slot>"


POISON = _Poison()


class VMError(Exception):
    """Internal VM invariant violation (not a Scheme error)."""


def name_procedure(exc: SchemeError, code: Any) -> None:
    """Append `` (in <procedure>)`` to *exc*, naming the procedure a
    dispatch loop was executing when the error escaped it."""
    if " (in " not in exc.message:
        exc.message = f"{exc.message} (in {code.name})"
        exc.args = (exc.message,)


# ---------------------------------------------------------------------------
# The emitted module's object model.


class AotCode:
    """A procedure in an emitted module: the slice of a ``CodeObject``
    the trampoline and the classifier read (name and label, parameter
    names, frame size, the classifier's two static flags) plus its
    prebuilt trace table.  ``fast_blocks`` maps trace-leader pc ->
    ``(fn, exits)`` exactly like a code object's ``fast_blocks`` list,
    but as a dict (emitted modules only spell the leaders)."""

    __slots__ = (
        "name", "label", "params", "frame_size",
        "syntactic_leaf", "always_calls", "fast_blocks",
    )

    def __init__(
        self,
        name: str,
        label: str,
        params: Tuple[str, ...],
        frame_size: int,
        syntactic_leaf: bool,
        always_calls: bool,
    ) -> None:
        self.name = name
        self.label = label
        self.params = params
        self.frame_size = frame_size
        self.syntactic_leaf = syntactic_leaf
        self.always_calls = always_calls
        self.fast_blocks: Dict[int, Tuple[Any, Any]] = {}

    def __repr__(self) -> str:
        return f"<AotCode {self.label}>"


class AotProgram:
    """The whole emitted program: entry point, register-file geometry,
    cost-model scalars, and provenance (source cache key, config
    fingerprint, emitter version) — everything :func:`run_program`
    needs, baked at build time."""

    __slots__ = (
        "entry", "codes", "nregs", "a0", "ret", "cp", "rv",
        "call_overhead", "predict", "penalty", "kind_names",
        "direct_calls", "call_sites", "source_key", "fingerprint",
        "version",
    )

    def __init__(
        self,
        entry: AotCode,
        codes: Tuple[AotCode, ...],
        nregs: int,
        a0: Optional[int],
        ret: int,
        cp: int,
        rv: int,
        call_overhead: int,
        predict: bool,
        penalty: int,
        kind_names: Tuple[str, ...],
        direct_calls: int = 0,
        call_sites: int = 0,
        source_key: str = "",
        fingerprint: str = "",
        version: str = "",
    ) -> None:
        self.entry = entry
        self.codes = codes
        self.nregs = nregs
        self.a0 = a0
        self.ret = ret
        self.cp = cp
        self.rv = rv
        self.call_overhead = call_overhead
        self.predict = predict
        self.penalty = penalty
        self.kind_names = kind_names
        self.direct_calls = direct_calls
        self.call_sites = call_sites
        self.source_key = source_key
        self.fingerprint = fingerprint
        self.version = version


class AotResult:
    """What one AOT run produced (the runtime analogue of
    ``repro.pipeline.ExecutionResult``)."""

    __slots__ = (
        "value", "output", "counters", "classifier",
        "stack_capacity", "stack_shrinks",
    )

    def __init__(self, value, output, counters, classifier,
                 stack_capacity, stack_shrinks) -> None:
        self.value = value
        self.output = output
        self.counters = counters
        self.classifier = classifier
        self.stack_capacity = stack_capacity
        self.stack_shrinks = stack_shrinks


def datum(text: str) -> Any:
    """Parse one datum literal baked into an emitted module's const
    pool (the emitter spells non-trivial immediates as their written
    form; ``write_datum``/``read`` round-trip exactly)."""
    from repro.sexp.reader import read

    return read(text)


# ---------------------------------------------------------------------------
# The trampoline.


#: Scalar accumulator slot -> the ``Counters`` field it flushes into.
_SCALAR_FIELDS = (
    (ACC_PRIM, "prim_calls"),
    (ACC_MOV, "moves"),
    (ACC_BRANCH, "branches"),
    (ACC_MISS, "mispredicts"),
    (ACC_CALL, "calls"),
    (ACC_TAIL, "tail_calls"),
    (ACC_CLO, "closure_allocs"),
    (ACC_CC_CAP, "continuations_captured"),
    (ACC_CC_INV, "continuations_invoked"),
    (ACC_SWAP, "swaps"),
)


def _flush(acc: List[int], counters: Counters, kind_names: Sequence[str]) -> None:
    """Empty the accumulators into *counters* (exactly where a profiler
    or the caller can observe them, so per-procedure totals conserve)."""
    for slot, field in _SCALAR_FIELDS:
        n = acc[slot]
        if n:
            setattr(counters, field, getattr(counters, field) + n)
            acc[slot] = 0
    reads = counters.stack_reads
    writes = counters.stack_writes
    for i, kind in enumerate(kind_names):
        n = acc[ACC_READS + i]
        if n:
            reads[kind] = reads.get(kind, 0) + n
            acc[ACC_READS + i] = 0
        n = acc[ACC_WRITES + i]
        if n:
            writes[kind] = writes.get(kind, 0) + n
            acc[ACC_WRITES + i] = 0


def run_blocks(
    entry: Any,
    load: Optional[Callable[[Any], Any]],
    *,
    nregs: int,
    a0: Optional[int],
    ret: int,
    cp: int,
    rv: int,
    kind_names: Sequence[str],
    call_overhead: int,
    predict: bool,
    penalty: int,
    counters: Counters,
    classifier: ActivationClassifier,
    port: OutputPort,
    profiler: Optional[Any] = None,
    max_instructions: Optional[int] = None,
) -> Tuple[Any, int, int]:
    """Run *entry* to completion; returns ``(value, final stack
    capacity, stack shrinks)``.

    Each code's trace table is its ``fast_blocks``; ``load(code)``
    builds and caches one for a code that has none yet (``None``; a
    built table is never empty) — lazy compilation in-process, never
    for emitted modules, which carry every table.  The loop does one
    indexed fetch and one call per trace and performs every control
    transfer with the legacy loop's semantics.  Counter deltas
    accumulate locally and are flushed into *counters* at the end and,
    under a *profiler*, at every procedure transition.  A
    ``SchemeError`` leaves named with the procedure that raised it.
    On an error the counters may lag by the instructions since the
    last flush, and the budget is checked per trace rather than per
    instruction (see the blockcompile module docstring).
    """
    arg_write = ACC_WRITES + kind_names.index("arg")
    shrink_trigger = STACK_SHRINK_TRIGGER
    min_capacity = STACK_MIN_CAPACITY
    headroom = STACK_HEADROOM

    regs: List[Any] = [None] * nregs
    ready = [0] * nregs
    stack: List[Any] = [None] * 256
    cycle = 0
    executed = 0
    shrinks = 0
    budget = max_instructions
    if budget is None:
        budget = 1 << 62

    # Counter accumulators, one slot per ACC_* index.  Exits carry
    # static (slot, delta) pairs.
    acc = [0] * ACC_SIZE

    code = entry
    frame_size = code.frame_size
    blocks = code.fast_blocks or load(code)
    pc = 0
    sp = 0
    classifier.on_call(code)
    if profiler is not None:
        profiler.start(code)

    limit = frame_size + 64
    if limit >= len(stack):
        stack.extend([None] * (limit - len(stack) + 256))

    try:
        while True:
            fn, exits = blocks[pc]
            cycle, ex = fn(regs, ready, stack, sp, cycle, port)
            kind, barg, nexec, counts, taken = exits[ex]
            executed += nexec
            if executed > budget:
                raise VMError("instruction budget exceeded")
            if counts:
                for slot, delta in counts:
                    acc[slot] += delta
            if taken:
                if predict:
                    # Static prediction: fall-through (not-taken) is
                    # the predicted path; the allocator lays the likely
                    # (call-free) branch on the fall-through.
                    acc[3] += 1  # ACC_MISS
                    cycle += penalty

            if kind == K_FALL:
                pc = barg
            elif kind == K_CALL:
                cycle += call_overhead
                callee = regs[cp]
                if type(callee) is VMClosure:
                    target = callee.code
                    if len(target.params) != barg[0]:
                        raise SchemeError(
                            f"{target.name}: expected {len(target.params)} "
                            f"argument(s), got {barg[0]}"
                        )
                    regs[ret] = (code, barg[1])
                    new_sp = sp + frame_size
                    limit = new_sp + target.frame_size + 64
                    if limit >= len(stack):
                        stack.extend([None] * (limit - len(stack) + 256))
                    sp = new_sp
                    classifier.on_call(target)
                    if profiler is not None:
                        _flush(acc, counters, kind_names)
                        profiler.switch(target, cycle, executed)
                    code = target
                    frame_size = target.frame_size
                    blocks = target.fast_blocks or load(target)
                    pc = 0
                elif type(callee) is VMContinuation:
                    if barg[0] != 1:
                        raise SchemeError("continuation expects exactly 1 value")
                    if a0 is not None:
                        value = regs[a0]
                    else:
                        value = stack[sp + frame_size]
                    acc[8] += 1  # ACC_CC_INV
                    classifier.unwind_to(callee.class_depth)
                    stack = list(callee.snapshot)
                    stack.extend([None] * 320)
                    sp = callee.sp
                    regs[rv] = value
                    ready[rv] = cycle
                    if profiler is not None:
                        _flush(acc, counters, kind_names)
                        profiler.resume(callee.code, cycle, executed)
                    code = callee.code
                    frame_size = code.frame_size
                    blocks = code.fast_blocks or load(code)
                    pc = callee.pc
                else:
                    raise SchemeError("attempt to apply a non-procedure", callee)
            elif kind == K_RET:
                addr = regs[ret]
                if addr is None:
                    result = regs[rv]
                    classifier.finish()
                    break
                ret_code, ret_pc = addr
                old_sp = sp
                sp -= ret_code.frame_size
                if len(stack) > shrink_trigger and old_sp < len(stack) >> 2:
                    # Low-water mark: the live prefix ends at old_sp
                    # (the returning frame's base); everything above is
                    # dead, so release the oversized tail.
                    new_len = old_sp + headroom
                    if new_len < min_capacity:
                        new_len = min_capacity
                    del stack[new_len:]
                    shrinks += 1
                classifier.on_return()
                if profiler is not None:
                    _flush(acc, counters, kind_names)
                    profiler.resume(ret_code, cycle, executed)
                code = ret_code
                frame_size = ret_code.frame_size
                blocks = ret_code.fast_blocks or load(ret_code)
                pc = ret_pc
            elif kind == K_TAIL:
                cycle += call_overhead
                callee = regs[cp]
                if type(callee) is VMClosure:
                    target = callee.code
                    if len(target.params) != barg:
                        raise SchemeError(
                            f"{target.name}: expected {len(target.params)} "
                            f"argument(s), got {barg}"
                        )
                    limit = sp + target.frame_size + 64
                    if limit >= len(stack):
                        stack.extend([None] * (limit - len(stack) + 256))
                    classifier.on_tail_call(target)
                    if profiler is not None:
                        _flush(acc, counters, kind_names)
                        profiler.switch(target, cycle, executed)
                    code = target
                    frame_size = target.frame_size
                    blocks = target.fast_blocks or load(target)
                    pc = 0
                elif type(callee) is VMContinuation:
                    if barg != 1:
                        raise SchemeError("continuation expects exactly 1 value")
                    if a0 is not None:
                        value = regs[a0]
                    else:
                        value = stack[sp]
                    acc[8] += 1  # ACC_CC_INV
                    classifier.unwind_to(callee.class_depth)
                    stack = list(callee.snapshot)
                    stack.extend([None] * 320)
                    sp = callee.sp
                    regs[rv] = value
                    ready[rv] = cycle
                    if profiler is not None:
                        _flush(acc, counters, kind_names)
                        profiler.resume(callee.code, cycle, executed)
                    code = callee.code
                    frame_size = code.frame_size
                    blocks = code.fast_blocks or load(code)
                    pc = callee.pc
                else:
                    raise SchemeError("attempt to apply a non-procedure", callee)
            elif kind == K_CALLCC:
                cycle += call_overhead
                callee = regs[cp]
                if not (type(callee) is VMClosure):
                    raise SchemeError("call/cc: not a procedure", callee)
                target = callee.code
                if len(target.params) != 1:
                    raise SchemeError(
                        f"call/cc receiver {target.name} must take 1 argument"
                    )
                new_sp = sp + frame_size
                k = VMContinuation(
                    stack[:new_sp], sp, code, barg, len(classifier.stack)
                )
                regs[ret] = (code, barg)
                limit = new_sp + target.frame_size + 64
                if limit >= len(stack):
                    stack.extend([None] * (limit - len(stack) + 256))
                if a0 is not None:
                    regs[a0] = k
                    ready[a0] = cycle
                else:
                    stack[new_sp] = k
                    acc[arg_write] += 1
                sp = new_sp
                classifier.on_call(target)
                if profiler is not None:
                    _flush(acc, counters, kind_names)
                    profiler.switch(target, cycle, executed)
                code = target
                frame_size = target.frame_size
                blocks = target.fast_blocks or load(target)
                pc = 0
            elif kind == K_CALL_DIRECT:
                # Emitter-proven call: the callee closure's code and
                # arity were checked at build time, so no dynamic
                # dispatch.
                cycle += call_overhead
                target, ret_pc = barg
                regs[ret] = (code, ret_pc)
                new_sp = sp + frame_size
                limit = new_sp + target.frame_size + 64
                if limit >= len(stack):
                    stack.extend([None] * (limit - len(stack) + 256))
                sp = new_sp
                classifier.on_call(target)
                if profiler is not None:
                    _flush(acc, counters, kind_names)
                    profiler.switch(target, cycle, executed)
                code = target
                frame_size = target.frame_size
                blocks = target.fast_blocks or load(target)
                pc = 0
            elif kind == K_TAIL_DIRECT:
                cycle += call_overhead
                target = barg
                limit = sp + target.frame_size + 64
                if limit >= len(stack):
                    stack.extend([None] * (limit - len(stack) + 256))
                classifier.on_tail_call(target)
                if profiler is not None:
                    _flush(acc, counters, kind_names)
                    profiler.switch(target, cycle, executed)
                code = target
                frame_size = target.frame_size
                blocks = target.fast_blocks or load(target)
                pc = 0
            else:  # K_HALT
                result = regs[rv]
                classifier.finish()
                break
    except SchemeError as exc:
        name_procedure(exc, code)
        raise

    _flush(acc, counters, kind_names)
    counters.instructions = executed
    counters.cycles = cycle
    if profiler is not None:
        profiler.finish(cycle, executed)
    return result, len(stack), shrinks


def run_program(
    program: AotProgram, max_instructions: Optional[int] = None
) -> AotResult:
    """Execute an emitted program: :func:`run_blocks` over its prebuilt
    tables, unprofiled."""
    counters = Counters()
    classifier = ActivationClassifier()
    port = OutputPort()
    value, capacity, shrinks = run_blocks(
        program.entry,
        None,
        nregs=program.nregs,
        a0=program.a0,
        ret=program.ret,
        cp=program.cp,
        rv=program.rv,
        kind_names=program.kind_names,
        call_overhead=program.call_overhead,
        predict=program.predict,
        penalty=program.penalty,
        counters=counters,
        classifier=classifier,
        port=port,
        max_instructions=max_instructions,
    )
    return AotResult(
        value, port.contents(), counters, classifier, capacity, shrinks
    )


# ---------------------------------------------------------------------------
# The emitted module's __main__ entry.


def main(program: AotProgram, argv: Optional[List[str]] = None) -> int:
    """CLI for an emitted module (``python whatever_aot.py [--json]``).
    ``--json`` reports value/output/counters plus the list of loaded
    ``repro.*`` modules, which the AOT smoke checks to prove the
    compiler stayed out of the process."""
    from repro.sexp.writer import write_datum

    parser = argparse.ArgumentParser(
        description=f"AOT-compiled repro program (source {program.source_key[:12]})"
    )
    parser.add_argument("--json", action="store_true", help="JSON report")
    parser.add_argument(
        "--max-instructions", type=int, default=None, metavar="N",
        help="instruction budget",
    )
    args = parser.parse_args(argv)
    try:
        result = run_program(program, max_instructions=args.max_instructions)
    except SchemeError as exc:
        print(f"scheme error: {exc}", file=sys.stderr)
        return 2
    except VMError as exc:
        print(f"vm error: {exc}", file=sys.stderr)
        return 3
    if args.json:
        doc = {
            "value": write_datum(result.value),
            "output": result.output,
            "counters": result.counters.as_dict(),
            "activations": result.classifier.counts,
            "direct_calls": program.direct_calls,
            "call_sites": program.call_sites,
            "fingerprint": program.fingerprint,
            "version": program.version,
            "repro_modules": sorted(
                name for name in sys.modules
                if name == "repro" or name.startswith("repro.")
            ),
        }
        print(json.dumps(doc, indent=2))
    else:
        if result.output:
            sys.stdout.write(result.output)
        print(write_datum(result.value))
    return 0
