"""The virtual machine.

An in-order, single-issue register machine with a load-latency
scoreboard.  Every stack access is an explicit instruction carrying its
reason, so the Table 3 "stack references" metric is exact, and the
cycle model exposes exactly the effect the paper attributes to eager
restores: a restore issued right after a call has usually finished its
memory latency by the time the value is used, while a lazy reload right
before the use stalls.

Two dispatch loops execute the same semantics:

* ``_run`` — the **legacy loop**: string-tag dispatch straight over the
  symbolic instruction lists.  It is the reference implementation, the
  only loop with the poison-checking ``debug`` mode, and the baseline
  the fast path's speedup is measured against.
* ``_run_fast`` — the **fast loop** (``CompilerConfig.vm_fast``, the
  default): the block trampoline :func:`repro.vm.aotrt.run_blocks`,
  shared with AOT-emitted modules, over generated straight-line Python
  functions, one per extended basic block, that ``repro.vm.blockcompile``
  compiles from the pre-decoded, superinstruction-fused stream
  (``repro.vm.predecode``) on each code object's first entry.
  Counters, cycles, values, output and profiles are bit-identical to
  the legacy loop (``tests/vm/test_predecode_equiv`` and the fuzz
  oracle's ``vm-fast`` invariant enforce that); ``run_blocks``
  documents its error-path relaxations.

Both loops release oversized stacks: a deep-recursion phase can grow
the stack list to hundreds of thousands of slots, and before this fix
a following leaf-loop phase kept all of it alive for the rest of the
run.  At procedure return, when the live prefix has fallen below a
quarter of capacity (and capacity is above a floor), the list is
truncated back to the live prefix plus headroom.

Supported beyond the paper's core: full re-invocable continuations
(``call/cc``) via stack copying, in the spirit of Hieb/Dybvig (the
paper's [11]), needed by the ``ctak`` benchmark.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.backend.codegen import CompiledProgram
from repro.runtime.primitives import PRIMITIVES
from repro.runtime.values import OutputPort, SchemeError

# The VM's runtime value types and the stack-release policy constants
# live in repro.vm.aotrt (the compiler-free runtime slice shared with
# AOT-emitted modules); this module remains their public import path.
from repro.vm.aotrt import (  # noqa: F401 - re-exported public API
    POISON,
    STACK_HEADROOM,
    STACK_MIN_CAPACITY,
    STACK_SHRINK_TRIGGER,
    VMClosure,
    VMContinuation,
    VMError,
    name_procedure,
    run_blocks,
)
from repro.vm.blockcompile import compile_blocks
from repro.vm.callgraph import ActivationClassifier
from repro.vm.counters import Counters
from repro.vm.predecode import KIND_NAMES


class Machine:
    """Executes a :class:`CompiledProgram`."""

    def __init__(
        self,
        compiled: CompiledProgram,
        debug: bool = False,
        max_instructions: Optional[int] = None,
        profiler: Optional[Any] = None,
        vm_fast: Optional[bool] = None,
    ) -> None:
        self.compiled = compiled
        self.config = compiled.config
        self.regfile = compiled.regfile
        self.debug = debug
        self.max_instructions = max_instructions
        self.counters = Counters()
        self.classifier = ActivationClassifier()
        # Optional repro.observe.VMProfiler; the dispatch loop only
        # touches it at procedure boundaries, behind an is-None guard.
        self.profiler = profiler
        if profiler is not None:
            profiler.counters = self.counters
        self.port = OutputPort()
        self.result: Any = None
        # Loop selection: an explicit vm_fast argument overrides the
        # config (differential tests run both loops on one compiled
        # program); the poison-checking debug mode always takes the
        # legacy loop.
        if vm_fast is None:
            vm_fast = self.config.vm_fast
        self.vm_fast = bool(vm_fast) and not debug
        # Stack-release telemetry (see the module docstring): final
        # list capacity and number of truncations, for the regression
        # test and `repro bench` reporting.
        self.stack_capacity = 0
        self.stack_shrinks = 0

    # ------------------------------------------------------------------

    def run(self) -> Any:
        if self.vm_fast:
            return self._run_fast()
        return self._run()

    def observe_metrics(self, registry) -> None:
        """Fold this run's counters into a metrics registry: run totals
        as histogram observations (saves/restores/instructions per run —
        the Table 3 columns as distributions) and, when the run was
        profiled, per-procedure save/restore distributions (Figures
        1–2).  Called once per run, never from the dispatch loop."""
        from repro.observe.catalog import declare

        c = self.counters
        declare(registry, "repro_vm_runs").inc()
        declare(registry, "repro_vm_instructions").observe(c.instructions)
        declare(registry, "repro_vm_saves").observe(c.saves)
        declare(registry, "repro_vm_restores").observe(c.restores)
        if self.profiler is not None:
            proc_saves = declare(registry, "repro_vm_proc_saves")
            proc_restores = declare(registry, "repro_vm_proc_restores")
            for prof in self.profiler.profiles.values():
                proc_saves.observe(prof.saves)
                proc_restores.observe(prof.restores)

    def _run(self) -> Any:
        cm = self.config.cost_model
        load_latency = cm.load_latency
        store_extra = cm.store_cost - 1
        call_overhead = cm.call_overhead
        predict_mode = self.config.branch_prediction
        penalty = cm.branch_mispredict_penalty
        counters = self.counters
        classifier = self.classifier
        prof = self.profiler
        port = self.port
        prims = PRIMITIVES
        debug = self.debug
        nregs = len(self.regfile)
        num_arg_regs = self.regfile.num_arg_regs
        a0 = self.regfile.arg_regs[0].index if num_arg_regs else None
        RET = self.regfile.ret.index
        CP = self.regfile.cp.index
        RV = self.regfile.rv.index

        regs: List[Any] = [None] * nregs
        ready = [0] * nregs
        stack: List[Any] = [None] * 256
        cycle = 0
        executed = 0
        shrinks = 0
        shrink_trigger = STACK_SHRINK_TRIGGER
        min_capacity = STACK_MIN_CAPACITY
        headroom = STACK_HEADROOM
        max_instructions = self.max_instructions

        code = self.compiled.entry
        instrs = code.instructions
        pc = 0
        sp = 0
        classifier.on_call(code)
        if prof is not None:
            prof.start(code)

        def ensure_capacity(limit: int) -> None:
            nonlocal stack
            if limit >= len(stack):
                stack.extend([None] * (limit - len(stack) + 256))

        ensure_capacity(code.frame_size + 64)
        if debug:
            for i in range(code.frame_size):
                stack[i] = POISON

        try:
            while True:
                instr = instrs[pc]
                op = instr[0]
                executed += 1
                cycle += 1
                if max_instructions is not None and executed > max_instructions:
                    raise VMError("instruction budget exceeded")
                pc += 1

                if op == "prim":
                    srcs = instr[3]
                    args = []
                    for s in srcs:
                        if type(s) is int:
                            t = ready[s]
                            if t > cycle:
                                cycle = t
                            args.append(regs[s])
                        else:
                            args.append(s[1])
                    dst = instr[1]
                    regs[dst] = prims[instr[2]].fn(args, port)
                    ready[dst] = cycle
                    counters.prim_calls += 1
                elif op == "mov":
                    src = instr[2]
                    t = ready[src]
                    if t > cycle:
                        cycle = t
                    dst = instr[1]
                    regs[dst] = regs[src]
                    ready[dst] = cycle
                    counters.moves += 1
                elif op == "swap":
                    ra = instr[1]
                    rb = instr[2]
                    t = ready[ra]
                    if t > cycle:
                        cycle = t
                    t = ready[rb]
                    if t > cycle:
                        cycle = t
                    regs[ra], regs[rb] = regs[rb], regs[ra]
                    ready[ra] = cycle
                    ready[rb] = cycle
                    counters.swaps += 1
                elif op == "permi":
                    rs = instr[1]
                    for r in rs:
                        t = ready[r]
                        if t > cycle:
                            cycle = t
                    vals = [regs[r] for r in rs]
                    k = len(rs)
                    for i, r in enumerate(rs):
                        regs[r] = vals[(i + 1) % k]
                        ready[r] = cycle
                    counters.swaps += 1
                elif op == "li":
                    dst = instr[1]
                    regs[dst] = instr[2]
                    ready[dst] = cycle
                elif op == "ld":
                    dst = instr[1]
                    value = stack[sp + instr[2]]
                    if debug and value is POISON:
                        raise VMError(
                            f"read of uninitialized frame slot {instr[2]} in "
                            f"{code.label} (kind {instr[3]})"
                        )
                    regs[dst] = value
                    ready[dst] = cycle + load_latency
                    counters.count_read(instr[3])
                elif op == "st":
                    src = instr[2]
                    t = ready[src]
                    if t > cycle:
                        cycle = t
                    stack[sp + instr[1]] = regs[src]
                    cycle += store_extra
                    counters.count_write(instr[3])
                elif op == "st_out":
                    src = instr[2]
                    t = ready[src]
                    if t > cycle:
                        cycle = t
                    idx = sp + code.frame_size + instr[1]
                    ensure_capacity(idx)
                    stack[idx] = regs[src]
                    cycle += store_extra
                    counters.count_write(instr[3])
                elif op == "ld_out":
                    dst = instr[1]
                    idx = sp + code.frame_size + instr[2]
                    ensure_capacity(idx)
                    value = stack[idx]
                    if debug and value is POISON:
                        raise VMError(
                            f"read of uninitialized out slot {instr[2]} in {code.label}"
                        )
                    regs[dst] = value
                    ready[dst] = cycle + load_latency
                    counters.count_read(instr[3])
                elif op == "brf" or op == "brt":
                    src = instr[1]
                    t = ready[src]
                    if t > cycle:
                        cycle = t
                    if op == "brf":
                        taken = regs[src] is False
                    else:
                        taken = regs[src] is not False
                    counters.branches += 1
                    if predict_mode is not None:
                        # Static prediction: fall-through (not-taken) is
                        # the predicted path; the allocator lays the
                        # likely (call-free) branch on the fall-through.
                        if taken:
                            counters.mispredicts += 1
                            cycle += penalty
                    if taken:
                        pc = instr[2]
                elif op == "jmp":
                    pc = instr[1]
                elif op == "call":
                    callee = regs[CP]
                    cycle += call_overhead
                    counters.calls += 1
                    if type(callee) is VMClosure:
                        target = callee.code
                        if len(target.params) != instr[1]:
                            raise SchemeError(
                                f"{target.name}: expected {len(target.params)} "
                                f"argument(s), got {instr[1]}"
                            )
                        regs[RET] = (code, pc)
                        new_sp = sp + code.frame_size
                        ensure_capacity(new_sp + target.frame_size + 64)
                        if debug:
                            incoming = max(0, len(target.params) - num_arg_regs)
                            for i in range(incoming, target.frame_size):
                                stack[new_sp + i] = POISON
                        sp = new_sp
                        classifier.on_call(target)
                        if prof is not None:
                            prof.switch(target, cycle, executed)
                        code = target
                        instrs = code.instructions
                        pc = 0
                    elif type(callee) is VMContinuation:
                        if instr[1] != 1:
                            raise SchemeError("continuation expects exactly 1 value")
                        if a0 is not None:
                            value = regs[a0]
                        else:
                            value = stack[sp + code.frame_size]
                        counters.continuations_invoked += 1
                        classifier.unwind_to(callee.class_depth)
                        stack = list(callee.snapshot)
                        ensure_capacity(len(stack) + 64)
                        sp = callee.sp
                        regs[RV] = value
                        ready[RV] = cycle
                        if prof is not None:
                            prof.resume(callee.code, cycle, executed)
                        code = callee.code
                        instrs = code.instructions
                        pc = callee.pc
                    else:
                        raise SchemeError("attempt to apply a non-procedure", callee)
                elif op == "tailcall":
                    callee = regs[CP]
                    cycle += call_overhead
                    counters.tail_calls += 1
                    if type(callee) is VMClosure:
                        target = callee.code
                        if len(target.params) != instr[1]:
                            raise SchemeError(
                                f"{target.name}: expected {len(target.params)} "
                                f"argument(s), got {instr[1]}"
                            )
                        ensure_capacity(sp + target.frame_size + 64)
                        if debug:
                            incoming = max(0, len(target.params) - num_arg_regs)
                            for i in range(incoming, target.frame_size):
                                stack[sp + i] = POISON
                        classifier.on_tail_call(target)
                        if prof is not None:
                            prof.switch(target, cycle, executed)
                        code = target
                        instrs = code.instructions
                        pc = 0
                    elif type(callee) is VMContinuation:
                        if instr[1] != 1:
                            raise SchemeError("continuation expects exactly 1 value")
                        if a0 is not None:
                            value = regs[a0]
                        else:
                            value = stack[sp]
                        counters.continuations_invoked += 1
                        classifier.unwind_to(callee.class_depth)
                        stack = list(callee.snapshot)
                        ensure_capacity(len(stack) + 64)
                        sp = callee.sp
                        regs[RV] = value
                        ready[RV] = cycle
                        if prof is not None:
                            prof.resume(callee.code, cycle, executed)
                        code = callee.code
                        instrs = code.instructions
                        pc = callee.pc
                    else:
                        raise SchemeError("attempt to apply a non-procedure", callee)
                elif op == "callcc":
                    fn = regs[CP]
                    cycle += call_overhead
                    counters.calls += 1
                    counters.continuations_captured += 1
                    if not (type(fn) is VMClosure):
                        raise SchemeError("call/cc: not a procedure", fn)
                    target = fn.code
                    if len(target.params) != 1:
                        raise SchemeError(
                            f"call/cc receiver {target.name} must take 1 argument"
                        )
                    new_sp = sp + code.frame_size
                    k = VMContinuation(
                        stack[:new_sp], sp, code, pc, len(classifier.stack)
                    )
                    regs[RET] = (code, pc)
                    ensure_capacity(new_sp + target.frame_size + 64)
                    if debug:
                        incoming = max(0, len(target.params) - num_arg_regs)
                        for i in range(incoming, target.frame_size):
                            stack[new_sp + i] = POISON
                    if a0 is not None:
                        regs[a0] = k
                        ready[a0] = cycle
                    else:
                        stack[new_sp] = k
                        counters.count_write("arg")
                    sp = new_sp
                    classifier.on_call(target)
                    if prof is not None:
                        prof.switch(target, cycle, executed)
                    code = target
                    instrs = code.instructions
                    pc = 0
                elif op == "return":
                    addr = regs[RET]
                    if addr is None:
                        self.result = regs[RV]
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
                    if prof is not None:
                        prof.resume(ret_code, cycle, executed)
                    code = ret_code
                    instrs = code.instructions
                    pc = ret_pc
                elif op == "clo_ref":
                    dst = instr[1]
                    regs[dst] = regs[CP].slots[instr[2]]
                    ready[dst] = cycle
                elif op == "closure":
                    srcs = instr[3]
                    values = []
                    for s in srcs:
                        t = ready[s]
                        if t > cycle:
                            cycle = t
                        values.append(regs[s])
                    dst = instr[1]
                    regs[dst] = VMClosure(instr[2], values)
                    ready[dst] = cycle
                    counters.closure_allocs += 1
                elif op == "clo_alloc":
                    dst = instr[1]
                    regs[dst] = VMClosure(instr[2], [None] * instr[3])
                    ready[dst] = cycle
                    counters.closure_allocs += 1
                elif op == "clo_set":
                    src = instr[3]
                    t = ready[src]
                    if t > cycle:
                        cycle = t
                    regs[instr[1]].slots[instr[2]] = regs[src]
                elif op == "halt":
                    self.result = regs[RV]
                    classifier.finish()
                    break
                else:  # pragma: no cover - closed opcode set
                    raise VMError(f"unknown opcode {op}")
        except SchemeError as exc:
            name_procedure(exc, code)
            raise

        counters.instructions = executed
        counters.cycles = cycle
        self.stack_capacity = len(stack)
        self.stack_shrinks = shrinks
        if prof is not None:
            prof.finish(cycle, executed)
        return self.result

    # ------------------------------------------------------------------

    def _run_fast(self) -> Any:
        """The fast loop: :func:`repro.vm.aotrt.run_blocks` over trace
        tables that :func:`compile_blocks` builds on first entry to each
        code object (see the blockcompile module docstring for what
        makes them fast)."""
        regfile = self.regfile
        cm = self.config.cost_model
        cp = regfile.cp.index
        self.result, self.stack_capacity, self.stack_shrinks = run_blocks(
            self.compiled.entry,
            lambda code: compile_blocks(code, cm, cp),
            nregs=len(regfile),
            a0=regfile.arg_regs[0].index if regfile.num_arg_regs else None,
            ret=regfile.ret.index,
            cp=cp,
            rv=regfile.rv.index,
            kind_names=KIND_NAMES,
            call_overhead=cm.call_overhead,
            predict=self.config.branch_prediction is not None,
            penalty=cm.branch_mispredict_penalty,
            counters=self.counters,
            classifier=self.classifier,
            port=self.port,
            profiler=self.profiler,
            max_instructions=self.max_instructions,
        )
        return self.result

    @property
    def output(self) -> str:
        return self.port.contents()
