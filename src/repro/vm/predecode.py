"""Pre-decoding: the VM fast path's instruction form.

The symbolic ISA (``repro.backend.isa``) keeps instructions as
``[op, ...]`` lists with string opcodes and late-bound operands —
readable, patchable during code generation, and exactly what the
disassembler and the legacy dispatch loop consume.  Executing it,
however, pays for that flexibility on every instruction: a string-tag
match, a primitive-table lookup per ``prim``, a per-source
register-or-immediate type test, and a bounds-check *function call* per
out-of-frame access.

This module converts each :class:`~repro.astnodes.CodeObject`'s
instruction list once, at first execution, into a flat tuple stream.
It is the front half of the fast path: ``repro.vm.blockcompile``
consumes the decoded stream and compiles each extended basic block
into one generated Python function, which the block trampoline
(:func:`repro.vm.trampoline.run_blocks`) calls one after another.  The
decoded form is what makes that codegen simple:

* opcodes become small ints (the ``OP_*`` constants below), so the
  trace compiler switches on an int tag;
* per-opcode specialization is done here, not per execution: ``prim``
  splits into arity-specialized all-register variants
  (``PRIM1``/``PRIM2``/``PRIM3``/``PRIMN``), an all-immediate variant
  (``PRIM0``) and a mixed fallback (``PRIMX``), with the primitive's
  callable resolved once; ``brf``/``brt`` and the fused load-branches
  get separate opcodes so the generated code never re-tests polarity;
* ``ld_out``/``st_out`` offsets are folded with the (final)
  ``frame_size`` so the generated code computes one add;
* stack-reference *kinds* become indices into a 5-slot count array
  (see :data:`KIND_INDEX`), so the hot loop counts with a list index
  instead of a dict-method call;
* the superinstruction pass (:func:`repro.backend.peephole.
  fuse_superinstructions`) runs first, collapsing move chains, save and
  restore runs, and load-then-branch pairs.

The decoded stream is cached on ``code.fast_instructions``.  Decoding
is semantics-free: a fused op executes as its exact component sequence,
so counters, cycles, and profiles are bit-identical to the legacy loop
(asserted by ``tests/vm/test_predecode_equiv.py`` and the fuzz oracle's
``vm-fast`` invariant).
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.backend.isa import STACK_KINDS
from repro.backend.peephole import fuse_superinstructions
from repro.runtime.primitives import PRIMITIVES

# Fast-path opcodes.  Values are arbitrary but stable within a process.
OP_LD = 0
OP_ST = 1
OP_MOV = 2
OP_LI = 3
OP_PRIM0 = 4
OP_PRIM1 = 5
OP_PRIM2 = 6
OP_PRIM3 = 7
OP_PRIMN = 8
OP_PRIMX = 9
OP_BRF = 10
OP_BRT = 11
OP_JMP = 12
OP_CALL = 13
OP_TAILCALL = 14
OP_CALLCC = 15
OP_RETURN = 16
OP_HALT = 17
OP_CLO_REF = 18
OP_CLOSURE = 19
OP_CLO_ALLOC = 20
OP_CLO_SET = 21
OP_LD_OUT = 22
OP_ST_OUT = 23
# Superinstructions (repro.backend.peephole.FUSED_OPS).
OP_MOVM = 24
OP_STM = 25
OP_LDM = 26
OP_LDBRF = 27
OP_LDBRT = 28
# Permutation instructions (permopt shuffle codegen).
OP_SWAP = 29
OP_PERMI = 30

#: Stack-reference kind -> index into the fast loop's count arrays.
KIND_INDEX = {kind: i for i, kind in enumerate(STACK_KINDS)}

#: Inverse of :data:`KIND_INDEX`, for flushing counts back into
#: :class:`~repro.vm.counters.Counters` dicts.
KIND_NAMES = tuple(STACK_KINDS)

#: Human-readable names for the OP_* constants (docs and debugging).
OP_NAMES = {
    value: name[3:].lower()
    for name, value in globals().items()
    if name.startswith("OP_")
}


def _decode_prim(instr: List[Any]) -> Tuple[Any, ...]:
    dst, name, srcs = instr[1], instr[2], instr[3]
    fn = PRIMITIVES[name].fn
    if all(type(s) is int for s in srcs):
        if len(srcs) == 1:
            return (OP_PRIM1, dst, fn, srcs[0])
        if len(srcs) == 2:
            return (OP_PRIM2, dst, fn, srcs[0], srcs[1])
        if len(srcs) == 3:
            return (OP_PRIM3, dst, fn, srcs[0], srcs[1], srcs[2])
        return (OP_PRIMN, dst, fn, tuple(srcs))
    if not any(type(s) is int for s in srcs):
        return (OP_PRIM0, dst, fn, tuple(s[1] for s in srcs))
    return (OP_PRIMX, dst, fn, tuple(srcs))


def decode_instruction(instr: List[Any], frame_size: int) -> Tuple[Any, ...]:
    """One symbolic (possibly fused) instruction -> one coded tuple."""
    op = instr[0]
    if op == "ld":
        return (OP_LD, instr[1], instr[2], KIND_INDEX[instr[3]])
    if op == "st":
        return (OP_ST, instr[1], instr[2], KIND_INDEX[instr[3]])
    if op == "mov":
        return (OP_MOV, instr[1], instr[2])
    if op == "swap":
        return (OP_SWAP, instr[1], instr[2])
    if op == "permi":
        return (OP_PERMI, tuple(instr[1]))
    if op == "li":
        return (OP_LI, instr[1], instr[2])
    if op == "prim":
        return _decode_prim(instr)
    if op == "brf":
        return (OP_BRF, instr[1], instr[2])
    if op == "brt":
        return (OP_BRT, instr[1], instr[2])
    if op == "jmp":
        return (OP_JMP, instr[1])
    if op == "call":
        return (OP_CALL, instr[1])
    if op == "tailcall":
        return (OP_TAILCALL, instr[1])
    if op == "callcc":
        return (OP_CALLCC,)
    if op == "return":
        return (OP_RETURN,)
    if op == "halt":
        return (OP_HALT,)
    if op == "clo_ref":
        return (OP_CLO_REF, instr[1], instr[2])
    if op == "closure":
        return (OP_CLOSURE, instr[1], instr[2], tuple(instr[3]))
    if op == "clo_alloc":
        return (OP_CLO_ALLOC, instr[1], instr[2], instr[3])
    if op == "clo_set":
        return (OP_CLO_SET, instr[1], instr[2], instr[3])
    if op == "ld_out":
        return (OP_LD_OUT, instr[1], frame_size + instr[2], KIND_INDEX[instr[3]])
    if op == "st_out":
        return (OP_ST_OUT, frame_size + instr[1], instr[2], KIND_INDEX[instr[3]])
    if op == "movm":
        return (OP_MOVM, instr[1])
    if op == "stm":
        return (
            OP_STM,
            tuple((slot, src, KIND_INDEX[kind]) for slot, src, kind in instr[1]),
        )
    if op == "ldm":
        return (
            OP_LDM,
            tuple((dst, slot, KIND_INDEX[kind]) for dst, slot, kind in instr[1]),
        )
    if op == "ldbr":
        opcode = OP_LDBRF if instr[4] == "brf" else OP_LDBRT
        return (opcode, instr[1], instr[2], KIND_INDEX[instr[3]], instr[5])
    raise ValueError(f"cannot pre-decode opcode {op!r}")


def predecode_code(code, fuse: bool = True) -> Tuple[Tuple[Any, ...], ...]:
    """Pre-decode (and cache) one code object's instruction stream.

    The cached stream is the *fused* form; pass ``fuse=False`` to get a
    fresh, unfused decoding (used by tests isolating dispatch cost from
    fusion).
    """
    if fuse and code.fast_instructions is not None:
        return code.fast_instructions
    instrs = code.instructions or []
    if fuse:
        instrs = fuse_superinstructions(instrs)
    frame_size = code.frame_size
    decoded = tuple(decode_instruction(i, frame_size) for i in instrs)
    if fuse:
        code.fast_instructions = decoded
    return decoded

