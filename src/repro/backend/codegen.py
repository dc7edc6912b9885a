"""Code generation from the allocated AST to VM instructions.

Responsibilities beyond straightforward translation:

* **Local register allocation** (the paper's baseline includes "local
  register allocation performed by the code generator"): expression
  temporaries use registers not claimed by variables, spilling to frame
  temp slots only when the pool runs dry or a value must survive a call.
* **Executing shuffle plans** at each call site, including temporaries
  for complex operands and cycle evictions.
* **Restore discipline**: eager mode emits the pass-2 restore sets
  right after each call; lazy mode tracks per-path register staleness
  and reloads at first use and at save-region exits (Figure 2c).
* **Callee-save regions** (§2.4): saving at region entry, restoring at
  every frame exit (returns and tail calls).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.astnodes import (
    Call,
    CallCC,
    ClosureRef,
    CodeObject,
    Expr,
    Fix,
    If,
    Let,
    MakeClosure,
    PrimCall,
    Program,
    Quote,
    Ref,
    Save,
    Seq,
    Var,
)
from repro.backend.isa import PERMI_MAX
from repro.config import CompilerConfig
from repro.alloc import ProgramAllocation
from repro.core.liveness import CodeAllocation
from repro.core.locations import FrameSlot
from repro.core.registers import Register
from repro.core.shuffle import ShuffleItem, ShufflePlan, contains_call
from repro.errors import CompilerError


class CompiledProgram:
    """A fully compiled program, ready for the VM."""

    def __init__(
        self,
        program: Program,
        allocation: ProgramAllocation,
        config: CompilerConfig,
    ) -> None:
        self.program = program
        self.allocation = allocation
        self.config = config
        self.regfile = allocation.regfile
        self.entry = program.entry
        # Instructions removed by the peephole pass (set by
        # generate_program; a per-pass stat for repro.observe).
        self.peephole_removed = 0

    @property
    def codes(self) -> List[CodeObject]:
        return self.program.codes

    def total_instructions(self) -> int:
        return sum(len(c.instructions or ()) for c in self.codes)


def generate_program(
    program: Program, allocation: ProgramAllocation, config: CompilerConfig
) -> CompiledProgram:
    for code in program.codes:
        _CodeGenerator(code, allocation.alloc_for(code), config).generate()
    removed = 0
    if config.peephole:
        from repro.backend.peephole import peephole_program

        removed = peephole_program(program.codes)
    compiled = CompiledProgram(program, allocation, config)
    compiled.peephole_removed = removed
    return compiled


class _TempSlots:
    """A reusable pool of frame temp slots."""

    def __init__(self, alloc: CodeAllocation) -> None:
        self.alloc = alloc
        self.free: List[FrameSlot] = []

    def acquire(self) -> FrameSlot:
        if self.free:
            return self.free.pop()
        return self.alloc.layout.alloc("temp")

    def release(self, slot: FrameSlot) -> None:
        self.free.append(slot)


class _Scratch:
    """Expression-temporary registers: the registers no variable owns."""

    def __init__(self, pool: Sequence[Register]) -> None:
        self.pool = list(pool)
        self.in_use: Set[Register] = set()

    def acquire(
        self, reserved: Set[Register], keep_free: int = 0
    ) -> Optional[Register]:
        available = [
            reg
            for reg in self.pool
            if reg not in self.in_use and reg not in reserved
        ]
        if len(available) <= keep_free:
            return None
        reg = available[0]
        self.in_use.add(reg)
        return reg

    def release(self, reg: Register) -> None:
        self.in_use.discard(reg)


class _CodeGenerator:
    def __init__(
        self, code: CodeObject, alloc: CodeAllocation, config: CompilerConfig
    ) -> None:
        self.code = code
        self.alloc = alloc
        self.config = config
        self.regfile = alloc.regfile
        self.instrs: List[List[Any]] = []
        self.temp_slots = _TempSlots(alloc)
        owned = {
            v.location
            for v in alloc.register_vars
            if isinstance(v.location, Register)
        }
        # rv is deliberately NOT pooled: it is the emergency conduit
        # register every transient use can fall back on (its value is
        # always consumed by the immediately following instruction).
        # Callee-save registers never enter the pool: save placement
        # only wraps callee regions around *variable* homes, so a
        # scratch write to one would silently clobber a caller's
        # variable that the callee convention promises to preserve.
        pool = [
            r
            for r in (
                *self.regfile.scratch_regs,
                *self.regfile.temp_regs,
                *self.regfile.arg_regs,
            )
            if r not in owned and not r.callee_save
        ]
        self.scratch = _Scratch(pool)
        self.reserved: Set[Register] = set()
        self.active_callee: List[List[Tuple[Register, FrameSlot]]] = []
        # Variables whose register contents are stale on some path.
        self.invalid: Set[Var] = set()
        self.lazy_restores = config.restore_strategy == "lazy"

    # ------------------------------------------------------------------

    def generate(self) -> None:
        self.gen_tail(self.code.body)
        self.code.frame_size = self.alloc.layout.size
        self.code.instructions = self.instrs

    def emit(self, *instr: Any) -> int:
        self.instrs.append(list(instr))
        return len(self.instrs) - 1

    @property
    def pc(self) -> int:
        return len(self.instrs)

    # -- variable access ----------------------------------------------------

    def use_var(self, var: Var) -> int:
        """Register index of *var*, reloading its home first if its
        register may be stale."""
        loc = var.location
        if not isinstance(loc, Register):
            raise CompilerError(f"use_var on non-register variable {var!r}")
        if var in self.invalid:
            if var.home is None:
                raise CompilerError(
                    f"{var!r} is stale but was never saved — allocator bug"
                )
            self.emit("ld", loc.index, var.home.index, "restore")
            self.invalid.discard(var)
        return loc.index

    def _slot_kind(self, slot: FrameSlot) -> str:
        return "arg" if slot.index < self.alloc.layout.incoming_stack_args else "spill"

    # -- generic value generation -------------------------------------------

    def gen_into(self, expr: Expr, dst: Register) -> None:
        """Emit code leaving the value of *expr* in register *dst*."""
        if isinstance(expr, Quote):
            self.emit("li", dst.index, expr.value)
        elif isinstance(expr, Ref):
            var = expr.var
            if isinstance(var.location, Register):
                src = self.use_var(var)
                if src != dst.index:
                    self.emit("mov", dst.index, src)
            else:
                self.emit("ld", dst.index, var.location.index, self._slot_kind(var.location))
        elif isinstance(expr, ClosureRef):
            self.use_var(self.alloc.cp_var)
            self.emit("clo_ref", dst.index, expr.index)
        elif isinstance(expr, PrimCall):
            self.gen_primcall(expr, dst)
        elif isinstance(expr, If):
            self.gen_if(expr, tail=False, dst=dst)
        elif isinstance(expr, Seq):
            for sub in expr.exprs[:-1]:
                self.gen_effect(sub)
            self.gen_into(expr.exprs[-1], dst)
        elif isinstance(expr, Let):
            self.gen_let_binding(expr)
            self.gen_into(expr.body, dst)
        elif isinstance(expr, Save):
            self.gen_save_entry(expr, tail=False)
            if self.lazy_restores and self._save_exit_may_reload(expr, dst):
                # The Figure 2c region-exit flush may reload a variable
                # whose register is *dst* — it must not clobber the
                # region's value, so the value waits in rv until the
                # flush has run.
                rv = self.regfile.rv
                self.gen_into(expr.body, rv)
                self.gen_save_exit(expr, tail=False)
                if dst is not rv:
                    self.emit("mov", dst.index, rv.index)
            else:
                self.gen_into(expr.body, dst)
                self.gen_save_exit(expr, tail=False)
        elif isinstance(expr, Fix):
            self.gen_fix_bindings(expr)
            self.gen_into(expr.body, dst)
        elif isinstance(expr, Call):
            self.gen_call(expr)
            if dst is not self.regfile.rv:
                self.emit("mov", dst.index, self.regfile.rv.index)
        elif isinstance(expr, MakeClosure):
            self.gen_make_closure(expr, dst)
        else:
            raise CompilerError(f"codegen: unexpected node {type(expr).__name__}")

    def gen_effect(self, expr: Expr) -> None:
        """Evaluate *expr* for effect only."""
        if isinstance(expr, (Quote, Ref, ClosureRef)):
            return
        if isinstance(expr, Seq):
            for sub in expr.exprs:
                self.gen_effect(sub)
            return
        if isinstance(expr, Let):
            self.gen_let_binding(expr)
            self.gen_effect(expr.body)
            return
        if isinstance(expr, Save):
            self.gen_save_entry(expr, tail=False)
            self.gen_effect(expr.body)
            self.gen_save_exit(expr, tail=False)
            return
        if isinstance(expr, Call):
            self.gen_call(expr)
            return
        with self._scratch_reg() as reg:
            self.gen_into(expr, reg)

    # -- tail positions -------------------------------------------------------

    def gen_tail(self, expr: Expr) -> None:
        """Emit code for *expr* in tail position, ending with a frame
        exit (return or tail call) on every path."""
        if isinstance(expr, Call) and expr.tail:
            self.gen_tailcall(expr)
            return
        if isinstance(expr, If):
            self.gen_if(expr, tail=True, dst=None)
            return
        if isinstance(expr, Seq):
            for sub in expr.exprs[:-1]:
                self.gen_effect(sub)
            self.gen_tail(expr.exprs[-1])
            return
        if isinstance(expr, Let):
            self.gen_let_binding(expr)
            self.gen_tail(expr.body)
            return
        if isinstance(expr, Save):
            self.gen_save_entry(expr, tail=True)
            self.gen_tail(expr.body)
            self.gen_save_exit(expr, tail=True)
            return
        if isinstance(expr, Fix):
            self.gen_fix_bindings(expr)
            self.gen_tail(expr.body)
            return
        # Value-producing expression: compute into rv and return.
        self.gen_into(expr, self.regfile.rv)
        self.gen_return()

    def gen_return(self) -> None:
        self._emit_callee_exit_restores()
        if self.config.save_convention != "callee":
            self.use_var(self.alloc.ret_var)
        self.emit("return")

    def _emit_callee_exit_restores(self) -> None:
        for region in reversed(self.active_callee):
            for reg, slot in reversed(region):
                self.emit("ld", reg.index, slot.index, "restore")

    # -- binding forms --------------------------------------------------------

    def gen_let_binding(self, expr: Let) -> None:
        var = expr.var
        if isinstance(var.location, Register):
            self.gen_into(expr.rhs, var.location)
            self.invalid.discard(var)
        else:
            with self._scratch_reg() as reg:
                self.gen_into(expr.rhs, reg)
                self.emit("st", var.location.index, reg.index, "spill")

    def gen_fix_bindings(self, expr: Fix) -> None:
        """Allocate all closures, then fill their slots (cycles OK)."""
        for var, mc in zip(expr.vars, expr.lambdas):
            assert isinstance(mc, MakeClosure)
            if isinstance(var.location, Register):
                self.emit("clo_alloc", var.location.index, mc.code, len(mc.free_exprs))
                self.invalid.discard(var)
            else:
                with self._scratch_reg() as reg:
                    self.emit("clo_alloc", reg.index, mc.code, len(mc.free_exprs))
                    self.emit("st", var.location.index, reg.index, "spill")
        for var, mc in zip(expr.vars, expr.lambdas):
            if not mc.free_exprs:
                continue
            with self._scratch_reg() as clo_reg_h:
                if isinstance(var.location, Register):
                    clo_reg = self.use_var(var)
                else:
                    self.emit(
                        "ld", clo_reg_h.index, var.location.index, "spill"
                    )
                    clo_reg = clo_reg_h.index
                for idx, fe in enumerate(mc.free_exprs):
                    src, release = self._operand_register(fe)
                    self.emit("clo_set", clo_reg, idx, src)
                    if release is not None:
                        self.scratch.release(release)

    def gen_make_closure(self, expr: MakeClosure, dst: Register) -> None:
        """Allocate a closure.  The one-shot ``closure`` instruction
        needs every captured value in a register simultaneously; under
        register pressure we fall back to ``clo_alloc`` + per-slot
        ``clo_set`` (one value at a time)."""
        needs = sum(
            1
            for fe in expr.free_exprs
            if not (isinstance(fe, Ref) and isinstance(fe.var.location, Register))
        )
        free_now = len(
            [
                r
                for r in self.scratch.pool
                if r not in self.scratch.in_use and r not in self.reserved
            ]
        )
        if needs > free_now:
            # Build through rv: the captured values may be read through
            # cp (ClosureRef) or live in dst itself, so dst must not be
            # written until every slot value has been fetched.
            rv = self.regfile.rv
            self.emit("clo_alloc", rv.index, expr.code, len(expr.free_exprs))
            for idx, fe in enumerate(expr.free_exprs):
                src, release = self._operand_register(fe)
                self.emit("clo_set", rv.index, idx, src)
                if release is not None:
                    self.scratch.release(release)
            if dst is not rv:
                self.emit("mov", dst.index, rv.index)
            return
        srcs: List[int] = []
        releases: List[Register] = []
        for fe in expr.free_exprs:
            src, release = self._operand_register(fe)
            srcs.append(src)
            if release is not None:
                releases.append(release)
        self.emit("closure", dst.index, expr.code, srcs)
        for reg in releases:
            self.scratch.release(reg)

    def _operand_register(self, expr: Expr) -> Tuple[int, Optional[Register]]:
        """Materialize a Ref/ClosureRef into a register; returns the
        register index and a scratch register to release, if any."""
        if isinstance(expr, Ref):
            var = expr.var
            if isinstance(var.location, Register):
                return self.use_var(var), None
            reg = self._acquire_scratch()
            self.emit("ld", reg.index, var.location.index, self._slot_kind(var.location))
            return reg.index, reg
        if isinstance(expr, ClosureRef):
            self.use_var(self.alloc.cp_var)
            reg = self._acquire_scratch()
            self.emit("clo_ref", reg.index, expr.index)
            return reg.index, reg
        raise CompilerError(
            f"closure operand must be a variable access, got {type(expr).__name__}"
        )

    # -- conditionals -----------------------------------------------------------

    def gen_if(self, expr: If, tail: bool, dst: Optional[Register]) -> None:
        test_src, release = self._gen_test(
            expr, fallback=dst if dst is not None else self.regfile.rv
        )
        # §6 static branch prediction: lay the likely (call-free)
        # branch on the fall-through path.  The prediction annotation
        # says which branch is UNlikely to be needed cheaply; when the
        # else-branch is the likely one, swap the layout with brt.
        swap = expr.prediction == "else"
        first, second = (
            (expr.otherwise, expr.then) if swap else (expr.then, expr.otherwise)
        )
        br_pc = self.emit(
            "brt" if swap else "brf", test_src, None, expr.prediction
        )
        if release is not None:
            self.scratch.release(release)
        invalid_before = set(self.invalid)

        if tail:
            self.gen_tail(first)
            invalid_first = set(self.invalid)
            self.instrs[br_pc][2] = self.pc
            self.invalid = set(invalid_before)
            self.gen_tail(second)
            self.invalid |= invalid_first
            return

        self.gen_into(first, dst)
        invalid_first = set(self.invalid)
        jmp_pc = self.emit("jmp", None)
        self.instrs[br_pc][2] = self.pc
        self.invalid = set(invalid_before)
        self.gen_into(second, dst)
        self.instrs[jmp_pc][1] = self.pc
        self.invalid |= invalid_first

    def _gen_test(
        self, if_expr: If, fallback: Register
    ) -> Tuple[int, Optional[Register]]:
        """The branch condition: trivial variables are read in place;
        under scratch pressure the value flows through *fallback* (the
        destination register, dead until a branch writes it — unless
        some part of the conditional still reads a variable living
        there)."""
        test = if_expr.test
        if isinstance(test, Ref) and isinstance(test.var.location, Register):
            return self.use_var(test.var), None
        reg = self.scratch.acquire(self.reserved, keep_free=2)
        if reg is None:
            from repro.core.liveness import _referenced_vars

            reads_fallback = any(
                var.location is fallback
                for var in _referenced_vars(if_expr, self.alloc)
            )
            if not reads_fallback:
                self.gen_into(test, fallback)
                return fallback.index, None
            reg = self._acquire_scratch()  # last resort; may raise
        self.gen_into(test, reg)
        return reg.index, reg

    # -- save regions -------------------------------------------------------------

    def gen_save_entry(self, save: Save, tail: bool) -> None:
        for var in save.vars:
            # The store is sound even when the variable is statically
            # "maybe stale": a save region reads its variables (pass 2
            # treats the save as a reference), so on every path where
            # the variable is still live its register was restored
            # before this point; a variable that is stale here is
            # conservatively live only — its home value is never used —
            # and storing keeps the home slot initialized for the
            # equally conservative restores downstream.
            loc = var.location
            assert isinstance(loc, Register) and var.home is not None
            self.emit("st", var.home.index, loc.index, "save")
        if save.callee_regs:
            if not tail:
                raise CompilerError("callee-save region outside tail position")
            region: List[Tuple[Register, FrameSlot]] = []
            for reg in save.callee_regs:
                slot = self.alloc.layout.alloc(f"callee:{reg.name}")
                self.emit("st", slot.index, reg.index, "save")
                region.append((reg, slot))
            self.active_callee.append(region)

    def _save_exit_may_reload(self, save: Save, dst: Register) -> bool:
        """Whether the lazy region-exit flush for *save* could write
        *dst* (a variable referenced beyond the region lives there)."""
        return any(var.location is dst for var in save.refs_after or ())

    def gen_save_exit(self, save: Save, tail: bool) -> None:
        if save.callee_regs:
            self.active_callee.pop()
            return
        if self.lazy_restores:
            # Figure 2c: variables referenced beyond the region must be
            # valid at the join with paths that never saved them.
            for var in sorted(save.refs_after, key=lambda v: v.uid):
                if var in self.invalid:
                    self.use_var(var)

    # -- primitive calls -----------------------------------------------------------

    def gen_primcall(self, expr: PrimCall, dst: Register) -> None:
        args = expr.args
        call_positions = [i for i, a in enumerate(args) if contains_call(a)]
        last_call = call_positions[-1] if call_positions else -1
        # dst may serve as an evaluation conduit unless some sibling
        # argument reads the variable living in dst — anywhere inside
        # it, not just at the top: a nested operand's reference is just
        # as clobbered by a conduit write.
        from repro.core.liveness import _referenced_vars

        dst_conduit_ok = not any(
            var.location is dst
            for a in args
            for var in _referenced_vars(a, self.alloc)
        )

        staged: List[Tuple[str, Any]] = []
        releases: List[Register] = []
        slots: List[FrameSlot] = []
        for i, arg in enumerate(args):
            if isinstance(arg, Quote):
                staged.append(("imm", arg.value))
            elif isinstance(arg, Ref) and isinstance(arg.var.location, Register):
                staged.append(("var", arg.var))
            elif isinstance(arg, Ref):
                staged.append(("slot-var", arg.var))
            elif isinstance(arg, ClosureRef):
                staged.append(("cloref", arg.index))
            elif i < last_call:
                # An embedded call follows: park this value in the frame.
                with self._scratch_reg() as reg:
                    self.gen_into(arg, reg)
                    slot = self.temp_slots.acquire()
                    self.emit("st", slot.index, reg.index, "temp")
                staged.append(("slot", slot))
                slots.append(slot)
            else:
                # Keep registers free for deeper evaluation; when the
                # pool runs low, evaluate through *dst* (dead until the
                # primitive issues) and park in the frame — this holds
                # no scratch register across the recursion, so nesting
                # depth is unbounded.
                reg = self.scratch.acquire(self.reserved, keep_free=2)
                if reg is None and not dst_conduit_ok:
                    reg = self.scratch.acquire(self.reserved)  # last resort
                if reg is None:
                    # rv is the conduit of last resort: produce-then-
                    # consume (the store follows immediately), and no
                    # variable ever lives there.
                    conduit = dst if dst_conduit_ok else self.regfile.rv
                    self.gen_into(arg, conduit)
                    slot = self.temp_slots.acquire()
                    self.emit("st", slot.index, conduit.index, "temp")
                    staged.append(("slot", slot))
                    slots.append(slot)
                else:
                    self.gen_into(arg, reg)
                    staged.append(("reg", reg))
                    releases.append(reg)

        srcs: List[Any] = []
        # dst may carry a memory-staged source only if no variable
        # source lives in dst (the prim reads registers at issue time).
        dst_used = not dst_conduit_ok or any(
            kind == "var" and payload.location is dst
            for kind, payload in staged
        )

        rv = self.regfile.rv
        rv_used = False

        # Registers the issue sequence must not clobber: dst, rv, every
        # register a staged source reads at prim time, and (as they are
        # chosen) the materialized targets themselves.  Anything else in
        # the pool can be *borrowed* around the prim under total
        # exhaustion — spilled to a frame temp, used as a load target,
        # and restored immediately after the prim, before any outer
        # holder can look at it again.
        pinned = {dst.index, rv.index}
        for kind, payload in staged:
            if kind == "var" and isinstance(payload.location, Register):
                pinned.add(payload.location.index)
            elif kind == "reg":
                pinned.add(payload.index)
        borrowed: List[Tuple[Register, Any]] = []

        def materialize_target() -> int:
            # One memory-staged source may flow through dst itself (its
            # old value is dead and the prim writes it last), which
            # bounds the registers resolution needs.  Under total
            # exhaustion one more source may flow through rv: nothing
            # between here and the prim writes it.
            nonlocal dst_used, rv_used
            if not dst_used:
                dst_used = True
                if dst is rv:
                    rv_used = True
                return dst.index
            reg = self.scratch.acquire(self.reserved)
            if reg is not None:
                releases.append(reg)
                pinned.add(reg.index)
                return reg.index
            if not rv_used and dst is not rv:
                rv_used = True
                return rv.index
            # Every conduit is spent (deep nesting can consume both dst
            # and rv before this prim issues): borrow a live register
            # for the duration of the issue sequence.
            for victim in self.scratch.pool:
                if victim.index in pinned:
                    continue
                slot = self.temp_slots.acquire()
                self.emit("st", slot.index, victim.index, "temp")
                borrowed.append((victim, slot))
                pinned.add(victim.index)
                return victim.index
            raise CompilerError(
                "scratch register pool exhausted — expression too deep "
                "for register-free evaluation (frame-temp fallback not "
                "reached)"
            )

        for kind, payload in staged:
            if kind == "imm":
                srcs.append(("imm", payload))
            elif kind == "var":
                srcs.append(self.use_var(payload))
            elif kind == "slot-var":
                target = materialize_target()
                self.emit(
                    "ld", target, payload.location.index, self._slot_kind(payload.location)
                )
                srcs.append(target)
            elif kind == "cloref":
                self.use_var(self.alloc.cp_var)
                target = materialize_target()
                self.emit("clo_ref", target, payload)
                srcs.append(target)
            elif kind == "slot":
                target = materialize_target()
                self.emit("ld", target, payload.index, "temp")
                srcs.append(target)
            else:  # "reg"
                srcs.append(payload.index)
        self.emit("prim", dst.index, expr.op, srcs)
        for victim, slot in reversed(borrowed):
            self.emit("ld", victim.index, slot.index, "temp")
            self.temp_slots.release(slot)
        for reg in releases:
            self.scratch.release(reg)
        for slot in slots:
            self.temp_slots.release(slot)

    # -- calls ------------------------------------------------------------------

    def gen_call(self, call: Call) -> None:
        """A non-tail call: run the shuffle plan, emit the call, then
        the restore discipline."""
        self._run_shuffle(call, tail=False)
        if isinstance(call, CallCC):
            self.emit("callcc")
        else:
            self.emit("call", len(call.args))
        self._after_call(call)

    def gen_tailcall(self, call: Call) -> None:
        self._run_shuffle(call, tail=True)
        self._emit_callee_exit_restores()
        if self.config.save_convention != "callee":
            self.use_var(self.alloc.ret_var)
        if isinstance(call, CallCC):
            raise CompilerError("call/cc is never a tail jump")
        self.emit("tailcall", len(call.args))

    def _after_call(self, call: Call) -> None:
        # The call destroyed every caller-save register.
        for var in self.alloc.register_vars:
            loc = var.location
            if isinstance(loc, Register) and not loc.callee_save:
                self.invalid.add(var)
        if not self.lazy_restores:
            for var in call.restores or ():
                self.use_var(var)

    def _run_shuffle(self, call: Call, tail: bool) -> None:
        plan: ShufflePlan = call.shuffle_plan
        if plan is None:
            raise CompilerError("call without a shuffle plan")
        regfile = self.regfile
        slots: Dict[int, FrameSlot] = {}
        evict_locs: Dict[int, Union[Register, FrameSlot]] = {}
        free_regs = [
            r for r in plan.free_temp_regs if r not in self.scratch.in_use
        ]
        targets = {
            it.target for it in plan.register_items if isinstance(it.target, Register)
        }
        outer_reserved = set(self.reserved)
        written: Set[Register] = set()

        def mark_written(reg: Register) -> None:
            written.add(reg)
            # Any variable living in this register is now unreadable
            # from it; use_var falls back to its home slot.
            for var in self.alloc.register_vars:
                if var.location is reg:
                    if var in (call.live_before or ()) or var in (
                        call.live_after or ()
                    ):
                        self.invalid.add(var)

        stack_arg_count = 0
        for kind, item in plan.steps:
            if kind in ("temp-stack-arg", "temp-complex"):
                slot = self.temp_slots.acquire()
                with self._scratch_reg() as reg:
                    self.gen_into(item.expr, reg)
                    self.emit("st", slot.index, reg.index, "temp")
                slots[item.index] = slot
            elif kind == "direct-complex":
                self.gen_into(item.expr, item.target)
                mark_written(item.target)
                self.reserved = outer_reserved | targets
            elif kind == "stack-arg":
                stack_arg_count += 1
                if tail and self._tail_stack_arg_in_place(item):
                    continue
                with self._scratch_reg() as reg:
                    self.gen_into(item.expr, reg)
                    self.emit("st_out", item.target, reg.index, "arg")
            elif kind == "flush-stack-temp":
                stack_arg_count += 1
                with self._scratch_reg() as reg:
                    self.emit("ld", reg.index, slots[item.index].index, "temp")
                    self.emit("st_out", item.target, reg.index, "arg")
                    self.temp_slots.release(slots.pop(item.index))
            elif kind == "direct":
                self.reserved = outer_reserved | targets
                self.gen_into(item.expr, item.target)
                mark_written(item.target)
            elif kind == "evict":
                self.reserved = outer_reserved | targets
                loc: Union[Register, FrameSlot, None] = None
                for reg in free_regs:
                    if reg not in written and reg not in self.scratch.in_use:
                        loc = reg
                        free_regs.remove(reg)
                        break
                if isinstance(loc, Register):
                    self.gen_into(item.expr, loc)
                    mark_written(loc)
                    # The evicted value must survive until its flush:
                    # keep the register away from the scratch allocator.
                    self.scratch.in_use.add(loc)
                else:
                    loc = self.temp_slots.acquire()
                    with self._scratch_reg() as reg:
                        self.gen_into(item.expr, reg)
                        self.emit("st", loc.index, reg.index, "temp")
                evict_locs[item.index] = loc
            elif kind == "flush-evict":
                loc = evict_locs.pop(item.index)
                if isinstance(loc, Register):
                    self.emit("mov", item.target.index, loc.index)
                    self.scratch.in_use.discard(loc)
                else:
                    self.emit("ld", item.target.index, loc.index, "temp")
                    self.temp_slots.release(loc)
                mark_written(item.target)
            elif kind == "flush-complex-temp":
                self.emit("ld", item.target.index, slots[item.index].index, "temp")
                self.temp_slots.release(slots.pop(item.index))
                mark_written(item.target)
            elif kind == "permute":
                # item is the tuple of cycle items in chain order: each
                # one's value is the old content of the next one's
                # target, so listing the targets in this order makes
                # the whole cycle one left-rotation (permopt only).
                self.reserved = outer_reserved | targets
                for it in item:
                    # Reload any stale participant into its home
                    # register: the permutation rearranges current
                    # register contents.
                    self.use_var(it.expr.var)
                cycle_regs = [it.target.index for it in item]
                i = 0
                while i < len(cycle_regs) - 1:
                    group = cycle_regs[i : i + PERMI_MAX]
                    if len(group) == 2:
                        self.emit("swap", group[0], group[1])
                    else:
                        self.emit("permi", list(group))
                    i += len(group) - 1
                for it in item:
                    mark_written(it.target)
            else:  # pragma: no cover - plan kinds are closed
                raise CompilerError(f"unknown shuffle step {kind}")
        self.reserved = outer_reserved
        if tail:
            self._relocate_tail_stack_args(plan)

    def _tail_stack_arg_in_place(self, item: ShuffleItem) -> bool:
        """A tail-call stack argument that is already in its incoming
        slot needs no code at all (common in self-recursive loops)."""
        expr = item.expr
        return (
            isinstance(expr, Ref)
            and isinstance(expr.var.location, FrameSlot)
            and expr.var.location.index == item.target
        )

    def _relocate_tail_stack_args(self, plan: ShufflePlan) -> None:
        """Move outgoing stack arguments from the out-area down into
        this frame's incoming slots before the tail jump."""
        for it in plan.items:
            if isinstance(it.target, Register):
                continue
            if self._tail_stack_arg_in_place(it):
                continue
            with self._scratch_reg() as reg:
                self.emit("ld_out", reg.index, it.target, "temp")
                self.emit("st", it.target, reg.index, "arg")

    # -- scratch helpers ---------------------------------------------------------

    def _acquire_scratch(self) -> Register:
        reg = self.scratch.acquire(self.reserved)
        if reg is None:
            raise CompilerError(
                "scratch register pool exhausted — expression too deep for "
                "register-free evaluation (frame-temp fallback not reached)"
            )
        return reg

    def _scratch_reg(self):
        return _ScratchContext(self)


class _ScratchContext:
    """``with self._scratch_reg() as reg`` — the produce-then-consume
    conduit register.

    Every user of this context computes a value whose final write is
    immediately followed by its single consuming instruction (a store,
    usually), so ``rv`` can serve all of them at any nesting depth: an
    inner conduit use always completes before the outer value is
    produced.  Keeping these off the scratch pool guarantees the pool
    invariant (at least two registers free wherever simultaneous
    operands must be materialized)."""

    def __init__(self, gen: _CodeGenerator) -> None:
        self.gen = gen
        self.reg: Optional[Register] = None

    def __enter__(self) -> Register:
        self.reg = self.gen.regfile.rv
        return self.reg

    def __exit__(self, *exc) -> None:
        self.reg = None
