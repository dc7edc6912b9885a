"""Pass 0: variable-level liveness and location assignment.

The paper performs liveness, shuffling and save placement in one
bottom-up pass for compile speed (§3.1); we factor liveness/location
assignment into its own pass for clarity (see DESIGN.md).  Two jobs:

1. **Liveness** — a backward walk computing, for every non-tail call,
   the set of variables live after it (the paper's
   ``S[call] = {r | r is live after the call}``), and for every binding
   form the set of variables live during its body (used to pick a free
   register).  The dedicated return-address register participates as a
   pseudo-variable that is "referenced" at procedure exit, which is
   exactly the §2.4 trick making ``ret ∈ St ∩ Sf`` detect inevitable
   calls.

2. **Location assignment** — incoming parameters take the argument
   registers ``a0..``; remaining parameters take incoming frame slots;
   ``let``/``fix``-bound variables take any register not occupied by a
   variable live during their scope ("any unused registers, including
   registers containing non-live argument values, are available for
   intraprocedural allocation", §1), else a spill slot.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set, Tuple

from repro.astnodes import (
    Call,
    ClosureRef,
    CodeObject,
    Expr,
    Fix,
    If,
    Let,
    MakeClosure,
    PrimCall,
    Quote,
    Ref,
    Save,
    Seq,
    Var,
    children,
    walk as _walk,
)
from repro.core.locations import FrameLayout, FrameSlot
from repro.core.registers import Register, RegisterFile
from repro.errors import CompilerError


class CodeAllocation:
    """Per-procedure allocation state threaded through the passes."""

    def __init__(self, code: CodeObject, regfile: RegisterFile) -> None:
        self.code = code
        self.regfile = regfile
        self.ret_var = Var("%ret")
        self.ret_var.location = regfile.ret
        self.ret_var.referenced = True
        # The closure pointer is clobbered by calls like any other
        # caller-save register; modelling it as a pseudo-variable lets
        # the ordinary save/restore machinery preserve it for
        # free-variable access after calls.
        self.cp_var = Var("%cp")
        self.cp_var.location = regfile.cp
        self.cp_var.referenced = True
        num_stack_params = max(0, len(code.params) - regfile.num_arg_regs)
        # Tail calls rewrite frame slots 0..m-1 with their outgoing
        # stack arguments, so locals must live above both the incoming
        # arguments and the widest tail call's argument area.
        max_tail_out = 0
        for node in _walk(code.body):
            if isinstance(node, Call) and node.tail:
                out = len(node.args) - regfile.num_arg_regs
                if out > max_tail_out:
                    max_tail_out = out
        self.layout = FrameLayout(max(num_stack_params, max_tail_out))
        self.layout.incoming_stack_args = num_stack_params
        self.register_vars: List[Var] = []  # register-resident vars incl. ret

    def home_for(self, var: Var) -> FrameSlot:
        """The frame slot used to save *var*'s register (allocated on
        first demand)."""
        if var.home is None:
            var.home = self.layout.alloc(f"home:{var.name}")
        return var.home


def analyze_code(code: CodeObject, regfile: RegisterFile) -> CodeAllocation:
    """Run liveness + location assignment over one code object.

    This is the paper's allocator in one call: liveness, then the
    scope-driven first-free binding assignment.  The allocator-strategy
    driver (``repro.alloc``) composes the pieces itself —
    :func:`analyze_liveness`, a strategy's binding assignment, then
    :func:`collect_register_vars`."""
    alloc = analyze_liveness(code, regfile)
    assign_bindings(alloc)
    collect_register_vars(alloc)
    return alloc


def analyze_liveness(code: CodeObject, regfile: RegisterFile) -> CodeAllocation:
    """Pass 0a: parameter placement (fixed by the calling convention)
    plus backward liveness.  Let/fix-bound variables have no locations
    yet; a binding-assignment strategy supplies them."""
    alloc = CodeAllocation(code, regfile)
    _assign_params(alloc)
    _live(code.body, frozenset([alloc.ret_var]), alloc)
    return alloc


def assign_bindings(alloc: CodeAllocation) -> None:
    """Pass 0b, the paper's strategy: walk binding forms outside-in and
    give each variable the first register free of every variable live
    during its scope (temporaries first, then idle argument registers),
    else a spill slot."""
    _assign_bindings(alloc.code.body, alloc)


def collect_register_vars(alloc: CodeAllocation) -> None:
    """Pass 0c: record the register-resident variables (including the
    ``ret``/``cp`` pseudo-variables) that the save machinery tracks."""
    _collect_register_vars(alloc)


def _assign_params(alloc: CodeAllocation) -> None:
    regfile = alloc.regfile
    for i, param in enumerate(alloc.code.params):
        if param.location is not None:
            raise CompilerError(f"parameter {param!r} already has a location")
        if i < regfile.num_arg_regs:
            param.location = regfile.arg_regs[i]
        else:
            param.location = FrameSlot(i - regfile.num_arg_regs)


# ---------------------------------------------------------------------------
# Backward liveness
# ---------------------------------------------------------------------------


def _live(expr: Expr, after: FrozenSet[Var], alloc: CodeAllocation) -> FrozenSet[Var]:
    """Return the variables live on entry to *expr*, given those live
    after it; annotates Call/Let/Fix nodes along the way."""
    if isinstance(expr, Quote):
        return after
    if isinstance(expr, Ref):
        return after | {expr.var}
    if isinstance(expr, ClosureRef):
        return after | {alloc.cp_var}
    if isinstance(expr, PrimCall):
        # The code generator evaluates primitive operands left to
        # right, but defers *top-level* variable/closure-slot operands
        # until the primitive issues — after any embedded call — so
        # those variables stay live throughout.
        deferred, ordered = _split_prim_operands(expr, alloc)
        live = after | deferred
        for arg in reversed(ordered):
            live = _live(arg, live, alloc)
        return live
    if isinstance(expr, If):
        live_then = _live(expr.then, after, alloc)
        live_else = _live(expr.otherwise, after, alloc)
        return _live(expr.test, live_then | live_else, alloc)
    if isinstance(expr, Let):
        body_live = _live(expr.body, after, alloc) - {expr.var}
        expr.busy = body_live
        return _live(expr.rhs, body_live, alloc)
    if isinstance(expr, Fix):
        body_live = _live(expr.body, after, alloc)
        live = body_live
        for closure in reversed(expr.lambdas):
            live = _live(closure, live, alloc)
        live = live - set(expr.vars)
        expr.busy = live
        return live
    if isinstance(expr, Call):
        # The argument evaluation order is chosen later by the greedy
        # shuffler ("we must perform register allocation, shuffling,
        # and live analysis in parallel", §2.3).  We stay
        # order-independent by treating every sibling's variables as
        # live while each operand is evaluated: a call nested inside
        # one operand then saves/restores anything any other operand
        # still needs, whatever order the shuffler picks.
        expr.live_after = after
        subs = [expr.fn, *expr.args]
        refs = [_referenced_vars(sub, alloc) for sub in subs]
        all_refs: FrozenSet[Var] = frozenset().union(*refs) if refs else frozenset()
        for i, sub in enumerate(subs):
            siblings: FrozenSet[Var] = frozenset().union(
                *(refs[j] for j in range(len(subs)) if j != i)
            ) if len(subs) > 1 else frozenset()
            _live(sub, after | siblings, alloc)
        live = after | all_refs
        expr.live_before = live
        return live
    if isinstance(expr, MakeClosure):
        live = after
        for sub in reversed(expr.free_exprs):
            live = _live(sub, live, alloc)
        return live
    if isinstance(expr, Seq):
        live = after
        for sub in reversed(expr.exprs):
            live = _live(sub, live, alloc)
        return live
    if isinstance(expr, Save):
        raise CompilerError("liveness must run before save placement")
    raise CompilerError(f"liveness: unexpected node {type(expr).__name__}")


def _split_prim_operands(
    expr: PrimCall, alloc: "CodeAllocation"
) -> "Tuple[FrozenSet[Var], List[Expr]]":
    """Partition a primitive's operands the way the code generator
    stages them: top-level variable / closure-slot operands are read at
    issue time (deferred set of variables); everything else is
    evaluated in order."""
    deferred: Set[Var] = set()
    ordered: List[Expr] = []
    for arg in expr.args:
        if isinstance(arg, Ref):
            deferred.add(arg.var)
        elif isinstance(arg, ClosureRef):
            deferred.add(alloc.cp_var)
        elif not isinstance(arg, Quote):
            ordered.append(arg)
    return frozenset(deferred), ordered


def _referenced_vars(expr: Expr, alloc: "CodeAllocation") -> FrozenSet[Var]:
    """Free variables of a post-closure-conversion expression,
    including the ``cp`` pseudo-variable for closure-slot reads.

    Only *free* variables may appear in sibling live sets: a variable
    bound inside one call operand is out of scope in the others, and
    treating it as live there would let a save fire before its binding
    (and a later redundant-save elimination would then preserve a stale
    home slot).
    """
    if isinstance(expr, Ref):
        return frozenset([expr.var])
    if isinstance(expr, ClosureRef):
        return frozenset([alloc.cp_var])
    if isinstance(expr, Save):
        # Entering a save region reads each variable's register (the
        # saves are stores of them); restore placement and shuffle
        # dependencies must see those reads.
        return frozenset(expr.vars) | _referenced_vars(expr.body, alloc)
    if isinstance(expr, Let):
        return _referenced_vars(expr.rhs, alloc) | (
            _referenced_vars(expr.body, alloc) - {expr.var}
        )
    if isinstance(expr, Fix):
        out = _referenced_vars(expr.body, alloc)
        for closure in expr.lambdas:
            out |= _referenced_vars(closure, alloc)
        return out - set(expr.vars)
    out: FrozenSet[Var] = frozenset()
    for child in children(expr):
        out |= _referenced_vars(child, alloc)
    return out


# ---------------------------------------------------------------------------
# Location assignment for let/fix-bound variables
# ---------------------------------------------------------------------------


def _assign_bindings(expr: Expr, alloc: CodeAllocation) -> None:
    if isinstance(expr, (Quote, Ref, ClosureRef)):
        return
    if isinstance(expr, PrimCall):
        for arg in expr.args:
            _assign_bindings(arg, alloc)
        return
    if isinstance(expr, If):
        _assign_bindings(expr.test, alloc)
        _assign_bindings(expr.then, alloc)
        _assign_bindings(expr.otherwise, alloc)
        return
    if isinstance(expr, Seq):
        for sub in expr.exprs:
            _assign_bindings(sub, alloc)
        return
    if isinstance(expr, Let):
        _assign_bindings(expr.rhs, alloc)
        _assign_variable(expr.var, expr.busy, alloc)
        _assign_bindings(expr.body, alloc)
        return
    if isinstance(expr, Fix):
        taken: Set[Register] = set()
        for var in expr.vars:
            # Sibling fix variables are simultaneously live.
            chosen = _assign_variable(var, expr.busy, alloc, also_exclude=taken)
            if isinstance(chosen, Register):
                taken.add(chosen)
        for closure in expr.lambdas:
            _assign_bindings(closure, alloc)
        _assign_bindings(expr.body, alloc)
        return
    if isinstance(expr, Call):
        _assign_bindings(expr.fn, alloc)
        for arg in expr.args:
            _assign_bindings(arg, alloc)
        return
    if isinstance(expr, MakeClosure):
        for sub in expr.free_exprs:
            _assign_bindings(sub, alloc)
        return
    raise CompilerError(
        f"location assignment: unexpected node {type(expr).__name__}"
    )


def _assign_variable(
    var: Var,
    busy: FrozenSet[Var],
    alloc: CodeAllocation,
    also_exclude: Optional[Set[Register]] = None,
) -> object:
    """Give *var* a register not held by any variable in *busy*, else a
    spill slot.  Returns the chosen location."""
    if var.location is not None:
        raise CompilerError(f"variable {var!r} already has a location")
    occupied: Set[Register] = set(also_exclude or ())
    for other in busy:
        if isinstance(other.location, Register):
            occupied.add(other.location)
    regfile = alloc.regfile
    chosen: Optional[Register] = None
    for reg in regfile.temp_regs:
        if reg not in occupied:
            chosen = reg
            break
    if chosen is None:
        for reg in regfile.arg_regs:
            if reg not in occupied:
                chosen = reg
                break
    if chosen is not None:
        var.location = chosen
        return chosen
    var.location = alloc.layout.alloc(f"spill:{var.name}")
    return var.location


# Shared with the allocator-strategy model builder (repro.alloc.model),
# which must stage operand reads exactly the way liveness (and the code
# generator) do.
referenced_vars = _referenced_vars
split_prim_operands = _split_prim_operands


def _collect_register_vars(alloc: CodeAllocation) -> None:
    seen: Set[Var] = set()

    def visit(expr: Expr) -> None:
        if isinstance(expr, Ref):
            seen.add(expr.var)
            return
        if isinstance(expr, Let):
            seen.add(expr.var)
        if isinstance(expr, Fix):
            seen.update(expr.vars)
        for child in children(expr):
            visit(child)

    visit(alloc.code.body)
    seen.update(alloc.code.params)
    alloc.register_vars = [alloc.ret_var, alloc.cp_var] + [
        v for v in sorted(seen, key=lambda v: v.uid) if isinstance(v.location, Register)
    ]
