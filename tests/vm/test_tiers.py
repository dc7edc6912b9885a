"""Tier equivalence: step tables, trace tables, and any mix of them.

The fast loop runs a code object from its step table until this run's
transfers into it reach ``TIER_THRESHOLD``, then from its trace table.
Both tables come from one trace builder, so which tier runs which code
object — and when a code object switches — must change nothing
observable.  Every case here runs one compiled program four ways:

* ``legacy`` — ``Machine._run``, the reference loop;
* ``tiered`` — the default fast loop;
* ``all-traced`` — every code object trace-compiled before the run, as
  hot-exec set-up does;
* ``step-only`` — the threshold patched to "never", so nothing is
  trace-compiled.

and asserts identical values, output, counters, profile rows,
classifier counts, stack capacity and shrinks.
"""

import pytest

from repro.benchsuite.programs import BENCHMARKS
from repro.errors import CompilerError
from repro.fuzz.genprog import generate_program
from repro.pipeline import compile_source, run_compiled
from repro.runtime.values import SchemeError
from repro.sexp.writer import write_datum
from repro.vm import machine
from repro.vm.machine import Machine, VMError, trace_all

from tests.vm.test_predecode_equiv import (
    BENCH_NAMES,
    FUZZ_BUDGET,
    FUZZ_COUNT,
    FUZZ_SEED,
)

MODES = ("legacy", "tiered", "all-traced", "step-only")


@pytest.fixture
def run_mode(monkeypatch):
    """``run_mode(compiled, mode, **kw)``: one run of *compiled* in
    *mode*, from no trace tables (each mode starts from the state a
    fresh compile leaves)."""

    def run(compiled, mode, **kw):
        for code in compiled.codes:
            code.fast_blocks = None
        if mode == "legacy":
            return run_compiled(compiled, vm_fast=False, **kw)
        if mode == "all-traced":
            trace_all(compiled)
        with monkeypatch.context() as patch:
            if mode == "step-only":
                patch.setattr(machine, "TIER_THRESHOLD", float("inf"))
            return run_compiled(compiled, vm_fast=True, **kw)

    return run


def signature(result):
    return (
        write_datum(result.value),
        result.output,
        result.counters.as_dict(),
        result.profile.as_rows(),
        result.classifier.counts,
        result.machine.stack_capacity,
        result.machine.stack_shrinks,
    )


def assert_tiers_agree(compiled, run_mode):
    """Run all four modes with profiling; return the runs by mode."""
    runs = {mode: run_mode(compiled, mode, profile=True) for mode in MODES}
    reference = signature(runs["legacy"])
    for mode in MODES[1:]:
        assert signature(runs[mode]) == reference, mode
    assert runs["step-only"].machine.codes_traced == 0
    traced = runs["all-traced"].machine
    assert traced.codes_traced == traced.codes_interpreted == 0
    return runs


@pytest.mark.parametrize("name", BENCH_NAMES)
def test_benchmark_tiers_agree(name, run_mode):
    compiled = compile_source(BENCHMARKS[name].source)
    runs = assert_tiers_agree(compiled, run_mode)
    tiered = runs["tiered"].machine
    ran = len(runs["tiered"].profile.as_rows())
    assert tiered.codes_interpreted + tiered.codes_traced == ran


@pytest.mark.parametrize("index", range(FUZZ_COUNT))
def test_fuzz_program_tiers_agree(index, run_mode):
    program = generate_program(FUZZ_SEED, index)
    try:
        compiled = compile_source(program.source)
    except (CompilerError, RecursionError):  # pragma: no cover
        pytest.skip("generator produced an uncompilable program")

    def outcome(mode):
        try:
            result = run_mode(
                compiled, mode, max_instructions=FUZZ_BUDGET, profile=True
            )
        except VMError:
            return ("vmerror", None)
        except SchemeError as exc:
            return ("schemeerror", str(exc))
        return ("ok", signature(result))

    # A budget error may come up to one trace late on the fast loop (the
    # per-trace budget check), so it compares by kind; every other
    # outcome is exact.
    reference = outcome("legacy")
    for mode in MODES[1:]:
        assert outcome(mode) == reference, mode


def _code(compiled, name):
    return next(code for code in compiled.codes if code.name == name)


def test_recursion_turns_hot_with_its_frames_live(run_mode):
    """``down`` is trace-compiled at its threshold-th call, while every
    earlier activation is still on the stack: their returns land in the
    new trace table."""
    depth = 3 * machine.TIER_THRESHOLD
    compiled = compile_source(
        "(define (down n) (if (= n 0) 0 (+ 2 (down (- n 1)))))"
        f"(down {depth})"
    )
    runs = assert_tiers_agree(compiled, run_mode)
    assert write_datum(runs["tiered"].value) == str(2 * depth)
    tiered = run_mode(compiled, "tiered")
    assert tiered.machine.codes_traced >= 1
    assert _code(compiled, "down").fast_blocks is not None


def test_continuation_captured_cold_resumes_hot(run_mode):
    """A continuation into ``probe`` is captured on its first entry,
    while it runs from its step table, and re-entered after ``warm``
    has made ``probe`` hot: the resume lands in the trace table."""
    calls = 2 * machine.TIER_THRESHOLD
    compiled = compile_source(f"""
        (define saved #f)
        (define (probe x)
          (+ 1 (call/cc (lambda (k) (if (= x 0) (set! saved k)) x))))
        (define (warm n) (if (= n 0) 0 (begin (probe n) (warm (- n 1)))))
        (define got (probe 0))
        (warm {calls})
        (if (< got 5) (saved (+ got 1)) got)
    """)
    runs = assert_tiers_agree(compiled, run_mode)
    assert write_datum(runs["tiered"].value) == "5"
    assert runs["tiered"].counters.continuations_invoked == 2
    run_mode(compiled, "tiered")
    assert _code(compiled, "probe").fast_blocks is not None


def test_budget_exceeded_in_the_step_tier():
    compiled = compile_source(
        "(define (spin n) (if (= n 0) 0 (spin (- n 1)))) (spin 1000000)"
    )
    legacy = Machine(compiled, max_instructions=100, vm_fast=False)
    with pytest.raises(VMError, match="budget"):
        legacy.run()
    tiered = Machine(compiled, max_instructions=100)
    with pytest.raises(VMError, match="budget"):
        tiered.run()
    assert tiered.codes_traced == 0
    assert tiered.codes_interpreted >= 1
