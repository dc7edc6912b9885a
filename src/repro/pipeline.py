"""The compiler driver: source text to compiled program to result.

    compile_source(src, config)   -> CompiledProgram
    run_source(src, config)       -> ExecutionResult (value, output, counters)

A small Scheme-source prelude (``map``, ``for-each``, ...) is prepended
by default; it is compiled together with the user program, exactly as a
library would be in a whole-program compiler.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Any, Dict, Optional

from repro.astnodes import Expr, Program, copy_expr, count_nodes
from repro.backend.codegen import CompiledProgram, generate_program
from repro.config import CompilerConfig
from repro.errors import CompilerError
from repro.alloc import ProgramAllocation, allocate_program
from repro.frontend.analyze import check_scopes, mark_tail_calls
from repro.frontend.assignconvert import assignment_convert
from repro.frontend.closure import closure_convert
from repro.frontend.expand import expand_program
from repro.observe import NULL_TRACER, REGISTRY, VMProfiler
from repro.observe.catalog import declare
from repro.sexp.reader import read_all
from repro.vm.machine import Machine

PRELUDE = """
(define (map f ls)
  (if (null? ls)
      '()
      (cons (f (car ls)) (map f (cdr ls)))))
(define (map2 f ls1 ls2)
  (if (null? ls1)
      '()
      (cons (f (car ls1) (car ls2)) (map2 f (cdr ls1) (cdr ls2)))))
(define (for-each f ls)
  (if (null? ls)
      (void)
      (begin (f (car ls)) (for-each f (cdr ls)))))
(define (filter keep? ls)
  (cond ((null? ls) '())
        ((keep? (car ls)) (cons (car ls) (filter keep? (cdr ls))))
        (else (filter keep? (cdr ls)))))
(define (fold-left f acc ls)
  (if (null? ls)
      acc
      (fold-left f (f acc (car ls)) (cdr ls))))
(define (fold-right f init ls)
  (if (null? ls)
      init
      (f (car ls) (fold-right f init (cdr ls)))))
(define (iota n)
  (let loop ((i (- n 1)) (acc '()))
    (if (< i 0) acc (loop (- i 1) (cons i acc)))))
"""


class ExecutionResult:
    """Everything a benchmark wants to know about one run."""

    def __init__(self, value: Any, machine: Machine, compiled: CompiledProgram) -> None:
        self.value = value
        self.machine = machine
        self.compiled = compiled
        self.counters = machine.counters
        self.classifier = machine.classifier
        # Per-procedure VM profile (repro.observe.VMProfiler) when the
        # run was profiled, else None.
        self.profile = machine.profiler
        self.output = machine.output

    def __repr__(self) -> str:
        return f"<ExecutionResult value={self.value!r} {self.counters!r}>"


@contextmanager
def _nesting_limit():
    """The reader is iterative, but the passes after it recurse over
    the program: one nested past Python's recursion limit is refused
    with a :class:`CompilerError`, not a ``RecursionError``."""
    try:
        yield
    except RecursionError:
        raise CompilerError(
            "program is nested too deeply to compile "
            f"(past Python's recursion limit of {sys.getrecursionlimit()})"
        ) from None


def expand_source(source: str, prelude: bool = True) -> Expr:
    """Front half of the pipeline: text to expanded, tail-marked core AST."""
    text = (PRELUDE + "\n" + source) if prelude else source
    forms = read_all(text)
    with _nesting_limit():
        expr = expand_program(forms)
        mark_tail_calls(expr)
    return expr


def compile_source(
    source: str,
    config: Optional[CompilerConfig] = None,
    prelude: bool = True,
    tracer=None,
) -> CompiledProgram:
    """Compile *source* under *config* (default: the paper's
    configuration).

    *tracer* (a :class:`repro.observe.Tracer`) records one span per
    pass, each carrying per-pass stats, under one ``compile`` span;
    the default null tracer records nothing and costs nothing.
    A program nested too deeply for the passes raises
    :class:`CompilerError`.
    """
    config = config or CompilerConfig()
    tracer = tracer or NULL_TRACER
    with tracer.span("compile", source_chars=len(source)):
        with tracer.span("read") as sp:
            text = (PRELUDE + "\n" + source) if prelude else source
            forms = read_all(text)
        if tracer.enabled:
            sp.set(forms=len(forms))
        with _nesting_limit():
            with tracer.span("expand") as sp:
                expr = expand_program(forms)
            if tracer.enabled:
                sp.set(nodes=count_nodes(expr))
            return _lower(expr, config, tracer)


def compile_core(
    expr: Expr,
    config: Optional[CompilerConfig] = None,
    tracer=None,
    copy: bool = True,
) -> CompiledProgram:
    """Back half of the pipeline: expanded core AST to compiled program.

    Callers that explore many configurations (the differential fuzzer's
    oracle, strategy sweeps) expand a program once and compile the same
    tree repeatedly.  The compilation passes annotate the tree in place,
    so by default the input is first copied with
    :func:`repro.astnodes.copy_expr`; pass ``copy=False`` to give the
    tree up to a single compilation and skip the copy.

    The input is a *post-expansion* tree (what :func:`expand_source`
    returns): assignment conversion, scope checking, closure conversion,
    allocation, and code generation all run here.
    """
    config = config or CompilerConfig()
    tracer = tracer or NULL_TRACER
    if copy:
        expr = copy_expr(expr)
    with tracer.span("compile-core", nodes=count_nodes(expr)):
        return _lower(expr, config, tracer)


def _lower(expr: Expr, config: CompilerConfig, tracer) -> CompiledProgram:
    """The passes :func:`compile_source` and :func:`compile_core` share:
    conversion, (optional) lambda lifting, closure conversion,
    allocation, and code generation, one span each.  The pass entry
    points are this module's globals, looked up at call time."""
    with tracer.span("convert") as sp:
        expr = assignment_convert(expr)
        mark_tail_calls(expr)
        check_scopes(expr)
    if tracer.enabled:
        sp.set(nodes=count_nodes(expr))

    if config.lambda_lift:
        from repro.frontend.lambdalift import lambda_lift

        with tracer.span("lambda-lift") as sp:
            expr, lift_report = lambda_lift(
                expr, max_params=config.lambda_lift_max_params
            )
            check_scopes(expr)
        if tracer.enabled:
            sp.set(lifted=len(lift_report.lifted))

    with tracer.span("closure") as sp:
        program = closure_convert(expr)
    if tracer.enabled:
        sp.set(procedures=len(program.codes))

    with tracer.span("allocate") as sp:
        allocation = allocate_program(program, config)
    if tracer.enabled:
        sp.set(**_allocation_stats(program, allocation))
    if REGISTRY.enabled:
        _observe_shuffles(program)

    with tracer.span("codegen") as sp:
        compiled = generate_program(program, allocation, config)
    if tracer.enabled:
        sp.set(
            instructions=compiled.total_instructions(),
            peephole_removed=compiled.peephole_removed,
        )
    return compiled


def _allocation_stats(program: Program, allocation: ProgramAllocation) -> Dict[str, Any]:
    """Per-pass stats for the ``allocate`` span: registers assigned,
    shuffle cycles broken, and the allocator's internal sub-pass times."""
    from repro.astnodes import Call, walk

    registers_assigned = sum(
        len(alloc.register_vars) for alloc in allocation.by_code.values()
    )
    shuffle_plans = shuffle_cycles = shuffle_evictions = 0
    for code in program.codes:
        for node in walk(code.body):
            if isinstance(node, Call) and node.shuffle_plan is not None:
                shuffle_plans += 1
                if node.shuffle_plan.had_cycle:
                    shuffle_cycles += 1
                shuffle_evictions += node.shuffle_plan.evictions
    stats: Dict[str, Any] = {
        "registers_assigned": registers_assigned,
        "shuffle_plans": shuffle_plans,
        "shuffle_cycles_broken": shuffle_cycles,
        "shuffle_evictions": shuffle_evictions,
    }
    for name, seconds in allocation.pass_times.items():
        stats[f"{name}_s"] = seconds
    return stats


def _observe_shuffles(program: Program) -> None:
    """Feed the per-call-site shuffle-plan sizes into the metrics
    registry (the greedy-shuffling distribution).  Only called when the
    registry is enabled, so the normal compile path never pays for the
    extra tree walk."""
    from repro.astnodes import Call, walk

    sizes = declare(REGISTRY, "repro_shuffle_size")
    cycles = declare(REGISTRY, "repro_shuffle_cycles")
    for code in program.codes:
        for node in walk(code.body):
            if isinstance(node, Call) and node.shuffle_plan is not None:
                sizes.observe(len(node.shuffle_plan.steps))
                if node.shuffle_plan.had_cycle:
                    cycles.inc()


def run_compiled(
    compiled: CompiledProgram,
    debug: bool = False,
    max_instructions: Optional[int] = None,
    tracer=None,
    profile: bool = False,
    vm_fast: Optional[bool] = None,
) -> ExecutionResult:
    """Execute a compiled program.

    With ``profile=True`` the machine carries a
    :class:`repro.observe.VMProfiler` whose per-procedure table lands
    on ``ExecutionResult.profile``; *tracer* (if recording) wraps the
    run in an ``execute`` span carrying the instruction and cycle
    counts and the fast loop's tier counts (``codes_interpreted``: code
    objects that ran only from step tables; ``codes_traced``: code
    objects trace-compiled during the run), with the profile rows as
    its zero-duration children.
    *vm_fast* overrides the config's loop selection (``True`` =
    pre-decoded fast loop, ``False`` = legacy loop); differential tests
    use it to run one compiled program under both dispatch loops.
    """
    tracer = tracer or NULL_TRACER
    profiler = VMProfiler() if profile else None
    machine = Machine(
        compiled,
        debug=debug,
        max_instructions=max_instructions,
        profiler=profiler,
        vm_fast=vm_fast,
    )
    with tracer.span("execute") as sp:
        value = machine.run()
    if tracer.enabled:
        c = machine.counters
        sp.set(
            instructions=c.instructions,
            cycles=c.cycles,
            codes_interpreted=machine.codes_interpreted,
            codes_traced=machine.codes_traced,
        )
        if profiler is not None:
            profiler.record(tracer, sp)
    if REGISTRY.enabled:
        machine.observe_metrics(REGISTRY)
    return ExecutionResult(value, machine, compiled)


def run_source(
    source: str,
    config: Optional[CompilerConfig] = None,
    prelude: bool = True,
    debug: bool = False,
    max_instructions: Optional[int] = None,
    tracer=None,
    profile: bool = False,
) -> ExecutionResult:
    """Compile and execute *source*; the one-call public entry point."""
    compiled = compile_source(source, config, prelude=prelude, tracer=tracer)
    return run_compiled(
        compiled,
        debug=debug,
        max_instructions=max_instructions,
        tracer=tracer,
        profile=profile,
    )
