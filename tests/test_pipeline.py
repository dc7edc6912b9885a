"""Pipeline driver tests."""

import pytest

from repro import (
    CompilerError,
    SchemeError,
    compile_source,
    expand_source,
    run_compiled,
    run_source,
)


class TestCompile:
    def test_compile_returns_program(self):
        compiled = compile_source("(+ 1 2)")
        assert compiled.entry.instructions
        assert compiled.total_instructions() > 0

    def test_compile_records_pass_spans(self):
        from repro.observe import Tracer

        tracer = Tracer()
        compile_source("(define (f x) x) (f 1)", tracer=tracer)
        by_name = {r["name"]: r for r in tracer.records}
        for phase in ("read", "expand", "convert", "closure", "allocate", "codegen"):
            assert by_name[phase]["parent"] == by_name["compile"]["span"]
            assert by_name[phase]["dur_ns"] > 0
        passes = sum(
            r["dur_ns"] for r in tracer.records if r["name"] != "compile"
        )
        assert 0 < by_name["allocate"]["dur_ns"] < passes

    def test_compile_core_shares_the_back_half(self):
        from repro.observe import Tracer
        from repro.pipeline import compile_core

        source = "(define (f x) (* x x)) (f 12)"
        tracer = Tracer()
        compiled = compile_core(expand_source(source), tracer=tracer)
        names = [r["name"] for r in tracer.records]
        assert names == [
            "convert", "closure", "allocate", "codegen", "compile-core"
        ]
        assert run_compiled(compiled).value == 144
        assert (compiled.total_instructions()
                == compile_source(source).total_instructions())

    def test_prelude_optional(self):
        with pytest.raises(CompilerError, match="unbound"):
            compile_source("(map car '((1)))", prelude=False)
        compile_source("(map car '((1)))", prelude=True)

    def test_compile_error_propagates(self):
        with pytest.raises(CompilerError):
            compile_source("(nonsense-proc 1)")

    def test_reusable_compiled_program(self):
        compiled = compile_source("(define (f x) (* x x)) (f 12)")
        r1 = run_compiled(compiled)
        r2 = run_compiled(compiled)
        assert r1.value == r2.value == 144
        # counters are fresh per run
        assert r1.counters.instructions == r2.counters.instructions


class TestRun:
    def test_run_source(self):
        assert run_source("(* 6 7)").value == 42

    def test_run_collects_output(self):
        r = run_source('(begin (display "hey") 1)')
        assert r.output == "hey"

    def test_runtime_error_propagates(self):
        with pytest.raises(SchemeError):
            run_source("(car 5)")

    def test_expand_source(self):
        expr = expand_source("(+ 1 2)")

        # prelude wraps the program in its definitions
        assert expr is not None

    def test_max_instructions(self):
        from repro.vm.machine import VMError

        with pytest.raises(VMError):
            run_source(
                "(define (spin) (spin)) (spin)", max_instructions=1000
            )
