"""The AOT emitter: equivalence, direct-call collapse, and purity.

An emitted module's whole claim is *exact conservation*: value, output,
instruction/cycle counters, and activation classification must be
bit-identical to both in-process loops, while the executing process
never imports the compiler.  The equivalence half mirrors
``test_predecode_equiv`` (benchsuite + fuzz programs); the purity half
runs an emitted module in a subprocess and inspects which ``repro``
modules actually loaded.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

import repro.vm.aotrt as aotrt
from repro.benchsuite.programs import BENCHMARKS
from repro.config import CompilerConfig
from repro.errors import CompilerError
from repro.fuzz.genprog import generate_program
from repro.pipeline import compile_source, run_compiled
from repro.runtime.values import SchemeError
from repro.serve.cache import deserialize_compiled, serialize_compiled
from repro.sexp.writer import write_datum
from repro.vm.machine import VMError
from repro.vm.aotemit import EmitInfo, emit_module, emit_module_info
from tests.vm import test_machine
from tests.vm.test_predecode_equiv import UNSPELLABLE_LITERALS

BENCH_NAMES = sorted(n for n, b in BENCHMARKS.items() if not b.heavy)

FUZZ_SEED = 20260808
FUZZ_COUNT = 25

#: Modules whose presence in an emitted module's process would mean
#: the compiler leaked into the runtime slice.
COMPILER_MODULES = (
    "repro.pipeline",
    "repro.frontend",
    "repro.alloc",
    "repro.backend",
    "repro.vm.predecode",
    "repro.vm.blockcompile",
    "repro.vm.machine",
    "repro.vm.aotemit",
    "repro.serve",
)


def _import_emitted(source: str, tmp_path, name: str):
    path = os.path.join(str(tmp_path), f"{name}.py")
    with open(path, "w") as handle:
        handle.write(source)
    spec = importlib.util.spec_from_file_location(f"aot_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_aot_equivalent(compiled, tmp_path, name):
    reference = run_compiled(compiled)
    module = _import_emitted(emit_module(compiled, name), tmp_path, name)
    result = module.run()
    assert write_datum(result.value) == write_datum(reference.value)
    assert result.output == reference.output
    assert result.counters.as_dict() == reference.counters.as_dict()
    assert result.classifier.counts == reference.classifier.counts
    assert result.stack_capacity == reference.machine.stack_capacity
    assert result.stack_shrinks == reference.machine.stack_shrinks


def test_deep_recursion_stack_release_aot_equivalence(tmp_path):
    # A deep recursion, then a leaf loop: the stack grows to ~20000
    # frames and is released at the returns.
    source = test_machine.TestStackShrink.SOURCE
    compiled = compile_source(source, CompilerConfig(), prelude=False)
    assert run_compiled(compiled).machine.stack_shrinks >= 1
    assert_aot_equivalent(compiled, tmp_path, "deep")


def test_scheme_error_names_procedure_on_every_path(tmp_path):
    compiled = compile_source("(define (f x) (car x)) (f 5)")
    module = _import_emitted(emit_module(compiled, "err"), tmp_path, "err")
    messages = []
    for run in (
        lambda: run_compiled(compiled, vm_fast=False),
        lambda: run_compiled(compiled, vm_fast=True),
        module.run,
    ):
        with pytest.raises(SchemeError) as info:
            run()
        messages.append(str(info.value))
    assert messages == ["car: not a pair (in f)"] * 3


@pytest.mark.parametrize(
    "source", UNSPELLABLE_LITERALS, ids=["inf", "neg-inf", "nan", "bignum"]
)
def test_unspellable_literals_on_every_path(source, tmp_path):
    """``inf``/``nan`` have no Python literal and their written forms
    read back as symbols; a 5000-digit integer has no ``repr``: the
    fast loop, a reload from the compile cache's serialized form, and
    the emitted module must all return the legacy loop's value."""
    compiled = compile_source(source)
    expected = write_datum(run_compiled(compiled, vm_fast=False).value)
    assert write_datum(run_compiled(compiled, vm_fast=True).value) == expected
    reloaded = deserialize_compiled(serialize_compiled(compiled))
    assert write_datum(run_compiled(reloaded).value) == expected
    module = _import_emitted(emit_module(compiled, "literal"), tmp_path, "literal")
    assert write_datum(module.run().value) == expected


@pytest.mark.parametrize("name", BENCH_NAMES)
def test_benchmark_aot_equivalence(name, tmp_path):
    compiled = compile_source(BENCHMARKS[name].source)
    assert_aot_equivalent(compiled, tmp_path, name.replace("-", "_"))


@pytest.mark.parametrize("index", range(FUZZ_COUNT))
def test_fuzz_aot_equivalence(index, tmp_path):
    program = generate_program(FUZZ_SEED, index)
    try:
        compiled = compile_source(program.source)
        reference = run_compiled(compiled)
    except (CompilerError, SchemeError, VMError) as exc:
        pytest.skip(f"generated program does not run cleanly: {exc}")
    module = _import_emitted(
        emit_module(compiled, f"fuzz-{index}"), tmp_path, f"fuzz_{index}"
    )
    result = module.run()
    assert write_datum(result.value) == write_datum(reference.value)
    assert result.output == reference.output
    assert result.counters.as_dict() == reference.counters.as_dict()


def test_direct_call_collapse_fires_for_tak(tmp_path):
    compiled = compile_source(BENCHMARKS["tak"].source)
    info = EmitInfo(0, 0, 0, 0)
    emit_module_info(compiled, "tak", info)
    assert info.call_sites > 0
    assert 0 < info.direct_calls <= info.call_sites
    # And collapsing must not change behaviour (the no-collapse module
    # is the control).
    plain = compile_source(
        BENCHMARKS["tak"].source, CompilerConfig(aot_direct_calls=False)
    )
    control = EmitInfo(0, 0, 0, 0)
    source = emit_module_info(plain, "tak", control)
    assert control.direct_calls == 0
    module = _import_emitted(source, tmp_path, "tak_dynamic")
    result = module.run()
    reference = run_compiled(compiled)
    assert write_datum(result.value) == write_datum(reference.value)
    assert result.counters.as_dict() == reference.counters.as_dict()


def test_emitted_module_runs_without_compiler(tmp_path):
    """The purity claim, checked end to end: a fresh interpreter runs
    the emitted module and reports which repro modules were loaded."""
    compiled = compile_source(BENCHMARKS["tak"].source)
    path = os.path.join(str(tmp_path), "tak_aot.py")
    with open(path, "w") as handle:
        handle.write(emit_module(compiled, "tak"))
    src_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(aotrt.__file__)))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, path, "--json"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    doc = json.loads(proc.stdout)
    reference = run_compiled(compiled)
    assert doc["value"] == write_datum(reference.value)
    assert doc["counters"] == reference.counters.as_dict()
    loaded = doc["repro_modules"]
    assert "repro.vm.aotrt" in loaded
    for banned in COMPILER_MODULES:
        hits = [m for m in loaded if m == banned or m.startswith(banned + ".")]
        assert not hits, f"compiler module leaked into the AOT runtime: {hits}"
