"""Lambda lifting (the paper's §6 future work).

"Other researchers have investigated the use of lambda lifting to
increase the number of arguments available for placement in registers
[13, 9].  While lambda lifting can easily result in net performance
decreases, it is worth investigating whether lambda lifting with an
appropriate set of heuristics can indeed increase the effectiveness of
our register allocator."

This pass lifts *known* procedures — ``fix``-bound procedures whose
every occurrence is in operator position — by turning their free
variables into extra parameters and rewriting every call site.  Free
variable access then flows through argument registers (subject to the
paper's allocator) instead of closure slots.

Heuristics (the "appropriate set"):

* only known, never-escaping procedures are lifted (an escaping
  procedure's closure must exist anyway);
* a procedure is lifted only when its total parameter count stays
  within ``max_params`` (extra parameters beyond the argument
  registers would trade cheap closure-slot reads for stack traffic —
  the paper's "net performance decrease");
* mutual recursion is handled by iterating the group's free-variable
  sets to a fixpoint before deciding.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.astnodes import (
    Call,
    Expr,
    Fix,
    If,
    Lambda,
    Let,
    PrimCall,
    Quote,
    Ref,
    Seq,
    Var,
)
from repro.errors import CompilerError
from repro.frontend.closure import free_variables


class LiftReport:
    """What the pass did (for tests and the ablation benchmark)."""

    def __init__(self) -> None:
        self.lifted: List[str] = []
        self.rejected_escaping: List[str] = []
        self.rejected_arity: List[str] = []

    def __repr__(self) -> str:
        return (
            f"<LiftReport lifted={len(self.lifted)} "
            f"escaping={len(self.rejected_escaping)} "
            f"arity={len(self.rejected_arity)}>"
        )


def lambda_lift(expr: Expr, max_params: int = 6) -> "tuple[Expr, LiftReport]":
    """Lift known fix-bound procedures in *expr* (mutates in place).

    Returns the rewritten expression and a report of decisions.
    """
    report = LiftReport()
    escaping = _escaping_vars(expr)
    known = _known_procedures(expr, escaping)
    _lift(expr, escaping, known, max_params, report)
    return expr, report


def _known_procedures(expr: Expr, escaping: Set[Var]) -> Set[Var]:
    """Fix-bound variables that never escape: they are procedures
    called directly.  Lifting must never turn one into a passed value
    (that would create an escape and break its own call sites), so
    they are excluded from the free-variables-become-parameters set —
    they stay reachable through the closure."""
    known: Set[Var] = set()

    def visit(node: Expr) -> None:
        if isinstance(node, Fix):
            for v in node.vars:
                if v not in escaping:
                    known.add(v)
        for child in _children(node):
            visit(child)

    visit(expr)
    return known


# ---------------------------------------------------------------------------
# Escape analysis: which variables are ever used as values?
# ---------------------------------------------------------------------------


def _escaping_vars(expr: Expr) -> Set[Var]:
    """Variables referenced anywhere other than directly as a call's
    operator."""
    escaping: Set[Var] = set()

    def visit(node: Expr) -> None:
        if isinstance(node, Ref):
            escaping.add(node.var)
        elif isinstance(node, Call):
            # The operator position does not count as an escape.
            if not isinstance(node.fn, Ref):
                visit(node.fn)
            for arg in node.args:
                visit(arg)
        elif isinstance(node, PrimCall):
            for arg in node.args:
                visit(arg)
        elif isinstance(node, If):
            visit(node.test)
            visit(node.then)
            visit(node.otherwise)
        elif isinstance(node, Seq):
            for sub in node.exprs:
                visit(sub)
        elif isinstance(node, Let):
            visit(node.rhs)
            visit(node.body)
        elif isinstance(node, Lambda):
            visit(node.body)
        elif isinstance(node, Fix):
            for lam in node.lambdas:
                visit(lam)
            visit(node.body)
        elif isinstance(node, Quote):
            pass
        else:
            raise CompilerError(
                f"lambda lifting: unexpected node {type(node).__name__}"
            )

    visit(expr)
    return escaping


# ---------------------------------------------------------------------------
# The lift
# ---------------------------------------------------------------------------


def _lift(
    expr: Expr,
    escaping: Set[Var],
    known: Set[Var],
    max_params: int,
    report: LiftReport,
) -> None:
    """Recursively process Fix groups, innermost first."""
    for child in _children(expr):
        _lift(child, escaping, known, max_params, report)
    if isinstance(expr, Fix):
        _lift_group(expr, escaping, known, max_params, report)


def _children(expr: Expr) -> List[Expr]:
    from repro.astnodes import children

    return children(expr)


def _lift_group(
    fix: Fix,
    escaping: Set[Var],
    known: Set[Var],
    max_params: int,
    report: LiftReport,
) -> None:
    # Fixpoint of the group's free-variable sets: calling a lifted
    # sibling means inheriting its extra parameters.
    group = dict(zip(fix.vars, fix.lambdas))
    fv: Dict[Var, Set[Var]] = {}
    candidates = []
    for var, lam in group.items():
        if var in escaping:
            report.rejected_escaping.append(var.name)
            continue
        candidates.append(var)
        fv[var] = set(free_variables(lam)) - set(fix.vars) - known

    changed = True
    while changed:
        changed = False
        for var in candidates:
            lam = group[var]
            for callee in _called_siblings(lam, fix.vars):
                if callee in fv:
                    extra = fv[callee] - fv[var]
                    if extra:
                        fv[var] |= extra
                        changed = True

    lift_set: Set[Var] = set()
    for var in candidates:
        lam = group[var]
        if not fv[var]:
            continue  # already closed; nothing to lift
        if len(lam.params) + len(fv[var]) > max_params:
            report.rejected_arity.append(var.name)
            continue
        lift_set.add(var)

    # Mutual recursion constraint: a lifted procedure calling an
    # unlifted sibling is fine, but an unlifted (or rejected) sibling
    # calling a *lifted* one would need the extra arguments too — it
    # can supply them (the free variables are in scope), so no
    # constraint is actually violated.  Escaping procedures, however,
    # must keep their calling convention, so any candidate that a
    # rejected/escaping sibling calls... also works: the call site is
    # rewritten wherever it appears.  No further pruning needed.

    if not lift_set:
        return
    # Phase 1: give every lifted procedure its new parameters and
    # rewrite its body to use them.
    fresh_maps: Dict[Lambda, Dict[Var, Var]] = {}
    free_lists: Dict[Var, List[Var]] = {}
    for var in sorted(lift_set, key=lambda v: v.uid):
        lam = group[var]
        free = sorted(fv[var], key=lambda v: v.uid)
        fresh = {f: _fresh_like(f) for f in free}
        _substitute(lam.body, fresh)
        lam.params.extend(fresh[f] for f in free)
        fresh_maps[lam] = fresh
        free_lists[var] = free
        report.lifted.append(var.name)
    # Phase 2: extend every call site.  Inside a lifted lambda the
    # extra arguments are that lambda's own parameters (its free-set is
    # a superset by the fixpoint); elsewhere they are the original
    # variables, still in scope.
    lifted_by_lambda = {group[var]: var for var in lift_set}

    def visit(node: Expr, enclosing: Optional[Lambda]) -> None:
        if (
            isinstance(node, Call)
            and isinstance(node.fn, Ref)
            and node.fn.var in lift_set
        ):
            mapping = fresh_maps.get(enclosing, {})
            for f in free_lists[node.fn.var]:
                source = mapping.get(f, f)
                source.referenced = True
                node.args.append(Ref(source))
        if isinstance(node, Lambda):
            visit(node.body, node if node in lifted_by_lambda else enclosing)
            return
        if isinstance(node, Fix):
            for lam in node.lambdas:
                visit(lam, lam if lam in lifted_by_lambda else enclosing)
            visit(node.body, enclosing)
            return
        for child in _children(node):
            visit(child, enclosing)

    visit(fix, None)


def _called_siblings(lam: Lambda, siblings: List[Var]) -> List[Var]:
    sibs = set(siblings)
    out = []

    def visit(node: Expr) -> None:
        if isinstance(node, Call) and isinstance(node.fn, Ref) and node.fn.var in sibs:
            out.append(node.fn.var)
        for child in _children(node):
            visit(child)

    visit(lam.body)
    return out


def _fresh_like(var: Var) -> Var:
    fresh = Var(var.name + "^")
    fresh.referenced = True
    return fresh


def _substitute(expr: Expr, mapping: Dict[Var, Var]) -> None:
    """Replace references to mapped variables (in place)."""
    if isinstance(expr, Ref):
        if expr.var in mapping:
            expr.var = mapping[expr.var]
        return
    for child in _children(expr):
        _substitute(child, mapping)
