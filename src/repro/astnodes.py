"""Core abstract syntax.

After macro expansion the compiler works on the small core language the
paper describes (section 2), enriched with the binding and closure forms
a real compiler needs:

* ``Quote``     — constants (the paper's ``true``/``false`` generalized)
* ``Ref``       — variable reference (the paper's ``x``)
* ``PrimCall``  — primitive application; **not** a procedure call
* ``If``        — two-armed conditional
* ``Seq``       — the paper's ``seq``, n-ary
* ``Let``       — single binding; nested for multiple bindings
* ``Lambda``    — procedure abstraction (pre closure conversion)
* ``Fix``       — mutually recursive lambda bindings (``letrec`` of lambdas)
* ``Call``      — procedure call (the paper's ``call``), tail-marked
* ``SetBang``   — assignment; removed by assignment conversion
* ``MakeClosure`` / ``ClosureRef`` — introduced by closure conversion
* ``Save``      — register-save region introduced by the allocator
                  (the paper's ``(save (x ...) E)`` form)

Calls additionally carry the allocator's restore annotations (the
paper's ``(restore-after call (x ...))``) and the argument evaluation
order chosen by the greedy shuffler.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Sequence


class Var:
    """A variable after alpha renaming: globally unique identity.

    The front end creates one ``Var`` per binding occurrence; every
    reference shares the object.  Later passes hang analysis results off
    it: whether it is assigned (pre assignment conversion), its run-time
    location, and its frame "home" used by register saves.
    """

    _counter = itertools.count()

    __slots__ = (
        "name",
        "uid",
        "assigned",
        "referenced",
        "boxed",
        "location",
        "home",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.uid = next(Var._counter)
        self.assigned = False
        self.referenced = False
        self.boxed = False
        self.location = None  # set by repro.core.liveness
        self.home = None  # frame slot used when this variable is saved

    def __repr__(self) -> str:
        return f"{self.name}.{self.uid}"


class Expr:
    """Base class for core-language expressions."""

    __slots__ = ()


class Quote(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


class Ref(Expr):
    __slots__ = ("var",)

    def __init__(self, var: Var) -> None:
        self.var = var


class PrimCall(Expr):
    """Application of a known primitive.  Never a procedure call."""

    __slots__ = ("op", "args")

    def __init__(self, op: str, args: Sequence[Expr]) -> None:
        self.op = op
        self.args = list(args)


class If(Expr):
    """Two-armed conditional.

    ``prediction`` is filled by the allocator when static branch
    prediction (§6) is enabled: ``"then"`` / ``"else"`` / ``None``.
    """

    __slots__ = ("test", "then", "otherwise", "prediction")

    def __init__(self, test: Expr, then: Expr, otherwise: Expr) -> None:
        self.test = test
        self.then = then
        self.otherwise = otherwise
        self.prediction = None


class Seq(Expr):
    """Sequencing; the value is the last subexpression's."""

    __slots__ = ("exprs",)

    def __init__(self, exprs: Sequence[Expr]) -> None:
        assert exprs, "Seq requires at least one subexpression"
        self.exprs = list(exprs)


class Let(Expr):
    """A single-variable binding.

    The expander alpha-renames, so nested ``Let``s faithfully encode
    parallel ``let``: no right-hand side can see the new bindings.
    """

    __slots__ = ("var", "rhs", "body", "busy")

    def __init__(self, var: Var, rhs: Expr, body: Expr) -> None:
        self.var = var
        self.rhs = rhs
        self.body = body
        self.busy = None  # variables live during the body (set by liveness)


class Lambda(Expr):
    __slots__ = ("params", "body", "name")

    def __init__(self, params: Sequence[Var], body: Expr, name: str = "anonymous") -> None:
        self.params = list(params)
        self.body = body
        self.name = name


class Fix(Expr):
    """Mutually recursive bindings of variables to lambdas (``letrec``)."""

    __slots__ = ("vars", "lambdas", "body", "busy")

    def __init__(self, vars: Sequence[Var], lambdas: Sequence[Lambda], body: Expr) -> None:
        assert len(vars) == len(lambdas)
        self.vars = list(vars)
        self.lambdas = list(lambdas)
        self.body = body
        self.busy = None  # variables live during the body (set by liveness)


class Call(Expr):
    """A procedure call.

    ``tail`` marks tail calls, which the paper's footnote 1 excludes
    from "calls" (they are jumps).  ``order``/``restores``/``shuffle``
    are filled in by the register allocator:

    * ``order`` — evaluation order over operator+operands chosen by the
      greedy shuffler (list of indices; index 0 is the operator).
    * ``temps`` — indices evaluated into temporary locations.
    * ``restores`` — variables to reload immediately after the call
      (eager restore placement).
    """

    __slots__ = (
        "fn",
        "args",
        "tail",
        "order",
        "temps",
        "restores",
        "shuffle_plan",
        "live_after",
        "live_before",
    )

    def __init__(self, fn: Expr, args: Sequence[Expr], tail: bool = False) -> None:
        self.fn = fn
        self.args = list(args)
        self.tail = tail
        self.order = None
        self.temps = None
        self.restores = None
        self.shuffle_plan = None
        self.live_after = None  # variables live after the call (liveness pass)
        self.live_before = None  # variables live entering the call setup


class CallCC(Call):
    """``(call/cc f)``.

    A subclass of :class:`Call` so the register allocator treats it as
    what it is — a procedure call that clobbers the caller-save
    registers — while the back end emits the capture instruction.
    """

    __slots__ = ()

    def __init__(self, fn: Expr, args: Sequence[Expr] = (), tail: bool = False) -> None:
        assert not args, "call/cc takes exactly one (operator) expression"
        super().__init__(fn, [], tail)


class SetBang(Expr):
    __slots__ = ("var", "value")

    def __init__(self, var: Var, value: Expr) -> None:
        self.var = var
        self.value = value


class MakeClosure(Expr):
    """Allocate a closure over *code* capturing the given values."""

    __slots__ = ("code", "free_exprs")

    def __init__(self, code: "CodeObject", free_exprs: Sequence[Expr]) -> None:
        self.code = code
        self.free_exprs = list(free_exprs)


class ClosureRef(Expr):
    """Read slot *index* of the currently executing closure."""

    __slots__ = ("var", "index")

    def __init__(self, var: Var, index: int) -> None:
        self.var = var
        self.index = index


class Save(Expr):
    """The paper's ``(save (x ...) E)``: store each variable's register
    into its frame home on entry to *body*.

    In callee-save mode (§2.4) a Save may instead be a *callee region*:
    ``callee_regs`` lists registers whose old (caller's) values are
    stored at region entry and reloaded at frame exit.
    """

    __slots__ = ("vars", "body", "callee_regs", "refs_after")

    def __init__(self, vars: Sequence[Var], body: Expr, callee_regs=None) -> None:
        self.vars = list(vars)
        self.body = body
        self.callee_regs = list(callee_regs) if callee_regs else []
        # Variables of this region possibly referenced after it before
        # the next call (pass 2): the lazy restore strategy reloads
        # these at region exit (the paper's Figure 2c case).
        self.refs_after = frozenset()


class CodeObject:
    """A closure-converted procedure body.

    Attributes filled by the allocator/back end:

    * ``frame_size``      — number of frame slots
    * ``syntactic_leaf``  — contains no non-tail calls
    * ``always_calls``    — ``ret ∈ St[body] ∩ Sf[body]``: every path
                            through the body makes a non-tail call
    * ``instructions``    — generated VM code
    * ``fast_instructions`` — pre-decoded fused stream for the VM fast
                            path (``repro.vm.predecode``), cached on
                            first execution
    * ``fast_blocks``     — trace-compiled form of the fused stream
                            (``repro.vm.blockcompile``), cached once
                            the fast loop finds the code hot (until
                            then it runs from a step table that is not
                            kept here), or built up front by
                            ``repro.vm.machine.trace_all``
    """

    _counter = itertools.count()

    __slots__ = (
        "name",
        "uid",
        "params",
        "free",
        "body",
        "frame_size",
        "syntactic_leaf",
        "always_calls",
        "instructions",
        "fast_instructions",
        "fast_blocks",
        "entry_saves",
        "callee_saved",
    )

    def __init__(self, name: str, params: Sequence[Var], free: Sequence[Var], body: Expr) -> None:
        self.name = name
        self.uid = next(CodeObject._counter)
        self.params = list(params)
        self.free = list(free)
        self.body = body
        self.frame_size = 0
        self.syntactic_leaf = False
        self.always_calls = False
        self.instructions = None
        self.fast_instructions = None
        self.fast_blocks = None
        self.entry_saves = []
        self.callee_saved = []

    @property
    def label(self) -> str:
        return f"{self.name}%{self.uid}"

    def __repr__(self) -> str:
        return f"<code {self.label}>"


class Program:
    """A closure-converted program: code objects plus the entry body."""

    __slots__ = ("codes", "entry")

    def __init__(self, codes: Sequence[CodeObject], entry: CodeObject) -> None:
        self.codes = list(codes)
        self.entry = entry


# ---------------------------------------------------------------------------
# Generic traversal helpers
# ---------------------------------------------------------------------------


def children(expr: Expr) -> List[Expr]:
    """Direct subexpressions of *expr*, in evaluation order."""
    if isinstance(expr, (Quote, Ref, ClosureRef)):
        return []
    if isinstance(expr, PrimCall):
        return list(expr.args)
    if isinstance(expr, If):
        return [expr.test, expr.then, expr.otherwise]
    if isinstance(expr, Seq):
        return list(expr.exprs)
    if isinstance(expr, Let):
        return [expr.rhs, expr.body]
    if isinstance(expr, Lambda):
        return [expr.body]
    if isinstance(expr, Fix):
        return [*expr.lambdas, expr.body]
    if isinstance(expr, Call):
        return [expr.fn, *expr.args]
    if isinstance(expr, SetBang):
        return [expr.value]
    if isinstance(expr, MakeClosure):
        return list(expr.free_exprs)
    if isinstance(expr, Save):
        return [expr.body]
    raise TypeError(f"unknown expression type: {type(expr).__name__}")


def walk(expr: Expr) -> List[Expr]:
    """All nodes of *expr* in preorder (does not descend into
    ``MakeClosure`` code objects)."""
    out: List[Expr] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(children(node)))
    return out


def count_nodes(expr: Expr) -> int:
    return len(walk(expr))


def copy_expr(expr: Expr) -> Expr:
    """A fresh, annotation-free copy of a post-expansion expression.

    Later passes hang state off the tree in place (``Var.location``,
    ``Call.shuffle_plan``, tail marks), so one expanded tree cannot be
    compiled under two configurations.  ``copy_expr`` gives each
    compilation its own tree: every ``Var`` is re-created (the
    pre-conversion ``assigned`` flag is preserved; analysis results are
    not) and every reference is rewired to the copy.  Quoted constants
    are shared, not copied — the callers that need this (the fuzzing
    oracle) only quote immutable data.

    Only the node types that exist before closure conversion are
    supported; ``MakeClosure``/``ClosureRef``/``Save`` raise
    ``TypeError``.
    """
    vars_map: Dict[Var, Var] = {}

    def copy_var(var: Var) -> Var:
        new = vars_map.get(var)
        if new is None:
            new = Var(var.name)
            new.assigned = var.assigned
            vars_map[var] = new
        return new

    def go(node: Expr) -> Expr:
        if isinstance(node, Quote):
            return Quote(node.value)
        if isinstance(node, Ref):
            return Ref(copy_var(node.var))
        if isinstance(node, PrimCall):
            return PrimCall(node.op, [go(a) for a in node.args])
        if isinstance(node, If):
            return If(go(node.test), go(node.then), go(node.otherwise))
        if isinstance(node, Seq):
            return Seq([go(e) for e in node.exprs])
        if isinstance(node, Let):
            rhs = go(node.rhs)
            return Let(copy_var(node.var), rhs, go(node.body))
        if isinstance(node, Lambda):
            params = [copy_var(p) for p in node.params]
            return Lambda(params, go(node.body), node.name)
        if isinstance(node, Fix):
            fixvars = [copy_var(v) for v in node.vars]
            lambdas = [go(lam) for lam in node.lambdas]
            return Fix(fixvars, lambdas, go(node.body))
        if isinstance(node, CallCC):
            return CallCC(go(node.fn), [], node.tail)
        if isinstance(node, Call):
            return Call(go(node.fn), [go(a) for a in node.args], node.tail)
        if isinstance(node, SetBang):
            return SetBang(copy_var(node.var), go(node.value))
        raise TypeError(
            f"copy_expr: {type(node).__name__} only exists after closure "
            "conversion; copy the pre-conversion tree instead"
        )

    return go(expr)


# ---------------------------------------------------------------------------
# Pretty printing (for tests, debugging, and documentation)
# ---------------------------------------------------------------------------


def pretty(expr: Expr) -> str:
    """Render an expression as an s-expression-ish string."""
    parts: List[str] = []
    _pp(expr, parts)
    return "".join(parts)


def _pp(expr: Expr, out: List[str]) -> None:
    if isinstance(expr, Quote):
        from repro.sexp.writer import write_datum

        text = write_datum(expr.value)
        if isinstance(expr.value, (int, float, bool)):
            out.append(text)
        else:
            out.append("'" + text)
    elif isinstance(expr, Ref):
        out.append(repr(expr.var))
    elif isinstance(expr, ClosureRef):
        out.append(f"(closure-ref {expr.index} {expr.var!r})")
    elif isinstance(expr, PrimCall):
        out.append(f"(#%{expr.op}")
        for arg in expr.args:
            out.append(" ")
            _pp(arg, out)
        out.append(")")
    elif isinstance(expr, If):
        out.append("(if ")
        _pp(expr.test, out)
        out.append(" ")
        _pp(expr.then, out)
        out.append(" ")
        _pp(expr.otherwise, out)
        out.append(")")
    elif isinstance(expr, Seq):
        out.append("(seq")
        for sub in expr.exprs:
            out.append(" ")
            _pp(sub, out)
        out.append(")")
    elif isinstance(expr, Let):
        out.append(f"(let ([{expr.var!r} ")
        _pp(expr.rhs, out)
        out.append("]) ")
        _pp(expr.body, out)
        out.append(")")
    elif isinstance(expr, Lambda):
        params = " ".join(repr(p) for p in expr.params)
        out.append(f"(lambda ({params}) ")
        _pp(expr.body, out)
        out.append(")")
    elif isinstance(expr, Fix):
        out.append("(fix (")
        for i, (var, lam) in enumerate(zip(expr.vars, expr.lambdas)):
            if i:
                out.append(" ")
            out.append(f"[{var!r} ")
            _pp(lam, out)
            out.append("]")
        out.append(") ")
        _pp(expr.body, out)
        out.append(")")
    elif isinstance(expr, CallCC):
        out.append("(call/cc ")
        _pp(expr.fn, out)
        out.append(")")
    elif isinstance(expr, Call):
        out.append("(tailcall " if expr.tail else "(call ")
        _pp(expr.fn, out)
        for arg in expr.args:
            out.append(" ")
            _pp(arg, out)
        out.append(")")
    elif isinstance(expr, SetBang):
        out.append(f"(set! {expr.var!r} ")
        _pp(expr.value, out)
        out.append(")")
    elif isinstance(expr, MakeClosure):
        out.append(f"(make-closure {expr.code.label}")
        for sub in expr.free_exprs:
            out.append(" ")
            _pp(sub, out)
        out.append(")")
    elif isinstance(expr, Save):
        names = " ".join(repr(v) for v in expr.vars)
        out.append(f"(save ({names}) ")
        _pp(expr.body, out)
        out.append(")")
    else:
        raise TypeError(f"unknown expression type: {type(expr).__name__}")
