"""Fast-path equivalence: the trace-compiled VM vs the legacy loop.

The whole design of the fast path (``repro.vm.predecode`` +
``repro.vm.blockcompile``) rests on one claim: it changes *nothing*
observable.  This suite runs every non-heavy benchmark and a batch of
generated fuzz programs under both loops from the same compiled
program and asserts bit-identical values, output, counters, and
per-procedure profiles.  The fast side runs twice: tiered (cold code
objects from step tables) and all-traced; ``test_tiers.py`` covers
the tiers in depth.

The single documented relaxation is the instruction budget: the fast
loop checks it once per trace, so a budget-exceeded run may raise a
few instructions later than the legacy loop.  Whether the budget is
exceeded at all is still identical (the totals are identical), so the
fuzz half asserts error-class agreement and skips effect comparison on
budget errors.
"""

import pytest

from repro.benchsuite.programs import BENCHMARKS
from repro.config import CompilerConfig
from repro.errors import CompilerError
from repro.fuzz.genprog import generate_program
from repro.pipeline import compile_source, run_compiled
from repro.runtime.values import SchemeError
from repro.sexp.writer import write_datum
from repro.vm.machine import VMError, trace_all

BENCH_NAMES = sorted(n for n, b in BENCHMARKS.items() if not b.heavy)

FUZZ_SEED = 4242
FUZZ_COUNT = 50
FUZZ_BUDGET = 2_000_000


def fast_modes(compiled):
    """Yield the fast loop's two ends on one compiled program, each as a
    ``run(**kw)`` callable: ``tiered`` from no trace tables (cold code
    objects run from step tables), then ``all-traced`` (every code
    object trace-compiled first, as hot-exec set-up does)."""
    yield "tiered", lambda **kw: run_compiled(compiled, vm_fast=True, **kw)
    trace_all(compiled)
    yield "all-traced", lambda **kw: run_compiled(compiled, vm_fast=True, **kw)


def assert_equivalent(compiled, profile=True):
    slow = run_compiled(compiled, profile=profile, vm_fast=False)
    for mode, run in fast_modes(compiled):
        fast = run(profile=profile)
        assert write_datum(slow.value) == write_datum(fast.value), mode
        assert slow.output == fast.output, mode
        assert slow.counters.as_dict() == fast.counters.as_dict(), mode
        if profile:
            assert slow.profile.as_rows() == fast.profile.as_rows(), mode
        assert slow.machine.stack_capacity == fast.machine.stack_capacity, mode
        assert slow.machine.stack_shrinks == fast.machine.stack_shrinks, mode
        assert slow.classifier.counts == fast.classifier.counts, mode


@pytest.mark.parametrize("name", BENCH_NAMES)
def test_benchmark_equivalence(name):
    compiled = compile_source(BENCHMARKS[name].source)
    assert_equivalent(compiled)


@pytest.mark.parametrize(
    "config",
    [
        CompilerConfig(num_arg_regs=0, num_temp_regs=0),
        CompilerConfig(num_arg_regs=1, num_temp_regs=2),
        CompilerConfig(save_convention="callee"),
        CompilerConfig(branch_prediction="static-calls"),
    ],
    ids=["r0", "r2", "callee-save", "predict"],
)
def test_benchmark_equivalence_config_spread(config):
    """A register-starved, a tiny, a callee-save, and a predicted
    configuration: the shapes that exercise shuffles, spills, and
    mispredict accounting."""
    for name in ("tak", "ctak", "destruct", "fxtriang"):
        compiled = compile_source(BENCHMARKS[name].source, config)
        assert_equivalent(compiled)


#: Immediates ``repr`` cannot spell as Python source, which reach the
#: traces through the const pool: ``inf``/``nan`` and an integer past
#: CPython's int-to-text digit limit.
UNSPELLABLE_LITERALS = [
    "(+ 1e999 0)",
    "(- -1e999)",
    "(let ((x 1e999)) (list x (- x x)))",
    "(+ " + "7" * 5000 + " 1)",
]


@pytest.mark.parametrize(
    "source", UNSPELLABLE_LITERALS, ids=["inf", "neg-inf", "nan", "bignum"]
)
def test_unspellable_literal_equivalence(source):
    assert_equivalent(compile_source(source))


@pytest.mark.parametrize("index", range(FUZZ_COUNT))
def test_fuzz_program_equivalence(index):
    program = generate_program(FUZZ_SEED, index)
    try:
        compiled = compile_source(program.source)
    except (CompilerError, RecursionError):  # pragma: no cover
        pytest.skip("generator produced an uncompilable program")

    def outcome(run):
        try:
            return ("ok", run(max_instructions=FUZZ_BUDGET))
        except VMError as exc:
            return ("vmerror", str(exc))
        except SchemeError as exc:
            return ("schemeerror", str(exc))

    slow_kind, slow = outcome(
        lambda **kw: run_compiled(compiled, vm_fast=False, **kw)
    )
    for mode, run in fast_modes(compiled):
        fast_kind, fast = outcome(run)
        assert slow_kind == fast_kind, mode
        if slow_kind == "ok":
            assert write_datum(slow.value) == write_datum(fast.value), mode
            assert slow.output == fast.output, mode
            assert slow.counters.as_dict() == fast.counters.as_dict(), mode
        elif slow_kind == "schemeerror":
            assert slow == fast, mode
        # vmerror: the budget relaxation — agreement on the error class
        # is the guarantee; the raise point (and thus partial effects)
        # may differ by up to one trace.
