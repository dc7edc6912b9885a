"""Fast-path equivalence: the trace-compiled VM vs the legacy loop.

The whole design of the fast path (``repro.vm.predecode`` +
``repro.vm.blockcompile``) rests on one claim: it changes *nothing*
observable.  This suite runs every non-heavy benchmark and a batch of
generated fuzz programs under both loops from the same compiled
program and asserts bit-identical values, output, counters, and
per-procedure profiles.  The fast side runs twice: tiered (cold code
objects from step tables) and all-traced; ``test_tiers.py`` covers
the tiers in depth.  The ``-reload`` cases run the fast side on the
program after a round trip through the compile cache's serializer,
as a worker runs a disk hit, against the legacy loop on the program
as compiled.

The single documented relaxation is the instruction budget: the fast
loop checks it once per trace, so a budget-exceeded run may raise a
few instructions later than the legacy loop.  Whether the budget is
exceeded at all is still identical (the totals are identical), so the
fuzz half asserts error-class agreement and skips effect comparison on
budget errors.
"""

import itertools

import pytest

from repro.benchsuite.programs import BENCHMARKS
from repro.config import CompilerConfig
from repro.errors import CompilerError
from repro.fuzz.genprog import generate_program
from repro.pipeline import compile_source, run_compiled
from repro.runtime.values import SchemeError
from repro.serve.cache import deserialize_compiled, serialize_compiled
from repro.sexp.writer import write_datum
from repro.vm.machine import VMError, trace_all

from tests.vm import test_machine

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


def reload(compiled):
    """``compiled`` after a round trip through the compile cache's
    serialized form."""
    return deserialize_compiled(serialize_compiled(compiled))


def with_reload(values):
    """``(value, reloaded)`` parameters: each value as itself, then again
    as ``<value>-reload``, whose fast legs run on :func:`reload`."""
    return [pytest.param(v, False, id=str(v)) for v in values] + [
        pytest.param(v, True, id=f"{v}-reload") for v in values
    ]


def assert_equivalent(compiled, profile=True, fast=None):
    """The legacy loop on ``compiled`` and both fast modes on ``fast``
    (``compiled`` itself by default) agree on everything observable."""
    slow = run_compiled(compiled, profile=profile, vm_fast=False)
    for mode, run in fast_modes(compiled if fast is None else fast):
        fast_run = run(profile=profile)
        assert write_datum(slow.value) == write_datum(fast_run.value), mode
        assert slow.output == fast_run.output, mode
        assert slow.counters.as_dict() == fast_run.counters.as_dict(), mode
        if profile:
            assert slow.profile.as_rows() == fast_run.profile.as_rows(), mode
        machine = fast_run.machine
        assert slow.machine.stack_capacity == machine.stack_capacity, mode
        assert slow.machine.stack_shrinks == machine.stack_shrinks, mode
        assert slow.classifier.counts == fast_run.classifier.counts, mode


@pytest.mark.parametrize("name,reloaded", with_reload(BENCH_NAMES))
def test_benchmark_equivalence(name, reloaded):
    compiled = compile_source(BENCHMARKS[name].source)
    assert_equivalent(compiled, fast=reload(compiled) if reloaded else None)


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
    """``inf``/``nan`` have no Python literal and their written forms
    read back as symbols; a 5000-digit integer has no ``repr``.  Both
    the compiled program and its reload from the compile cache's
    serialized form must run as the legacy loop does."""
    compiled = compile_source(source)
    reloaded = reload(compiled)
    assert_equivalent(compiled)
    assert_equivalent(compiled, fast=reloaded)


def test_deep_recursion_stack_release_equivalence():
    # A deep recursion, then a leaf loop: the stack grows to ~20000
    # frames and is released at the returns, at the same returns on
    # every path.
    compiled = compile_source(
        test_machine.TestStackShrink.SOURCE, CompilerConfig(), prelude=False
    )
    assert run_compiled(compiled, vm_fast=False).machine.stack_shrinks >= 1
    assert_equivalent(compiled)


def test_scheme_error_names_procedure_on_every_path():
    compiled = compile_source("(define (f x) (car x)) (f 5)")
    legs = itertools.chain(
        [("legacy", lambda: run_compiled(compiled, vm_fast=False))],
        fast_modes(compiled),
    )
    modes = []
    # Lazily: fast_modes trace-compiles between its two yields, so a
    # list of its legs would run the tiered one all-traced.
    for mode, run in legs:
        traced = [code.fast_blocks is not None for code in compiled.codes]
        assert any(traced) == (mode == "all-traced"), mode
        with pytest.raises(SchemeError) as info:
            run()
        assert str(info.value) == "car: not a pair (in f)", mode
        modes.append(mode)
    assert modes == ["legacy", "tiered", "all-traced"]


def compile_generated(seed, index):
    program = generate_program(seed, index)
    try:
        return compile_source(program.source)
    except (CompilerError, RecursionError):  # pragma: no cover
        pytest.skip("generator produced an uncompilable program")


def assert_outcomes_agree(compiled, fast=None):
    """The legacy loop on ``compiled`` and both fast modes on ``fast``
    (``compiled`` itself by default) end the same way under the fuzz
    budget: the same value, output and counters, or the same error."""

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
    for mode, run in fast_modes(compiled if fast is None else fast):
        fast_kind, fast_run = outcome(run)
        assert slow_kind == fast_kind, mode
        if slow_kind == "ok":
            assert write_datum(slow.value) == write_datum(fast_run.value), mode
            assert slow.output == fast_run.output, mode
            assert slow.counters.as_dict() == fast_run.counters.as_dict(), mode
        elif slow_kind == "schemeerror":
            assert slow == fast_run, mode
        # vmerror: the budget relaxation — agreement on the error class
        # is the guarantee; the raise point (and thus partial effects)
        # may differ by up to one trace.


@pytest.mark.parametrize("index,reloaded", with_reload(range(FUZZ_COUNT)))
def test_fuzz_program_equivalence(index, reloaded):
    compiled = compile_generated(FUZZ_SEED, index)
    assert_outcomes_agree(compiled, fast=reload(compiled) if reloaded else None)
