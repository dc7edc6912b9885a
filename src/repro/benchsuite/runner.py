"""Compile-run-validate machinery for the benchmark suite."""

from __future__ import annotations

from typing import Dict, Optional

from repro.benchsuite.programs import Benchmark, get_benchmark
from repro.config import CompilerConfig
from repro.interp.interpreter import Interpreter
from repro.pipeline import compile_source, run_compiled
from repro.sexp.writer import write_datum

_expected_cache: Dict[str, str] = {}

# Process-wide memory-only compile cache.  Sweeps (tables, the bench
# matrix, the test suite) recompile the same (program, config) pairs
# many times; keying on the cache collapses those to one compile each.
_compile_cache = None


def shared_compile_cache():
    """The process-wide in-memory compile cache (created on first use)."""
    global _compile_cache
    if _compile_cache is None:
        from repro.serve.cache import CompileCache

        _compile_cache = CompileCache(disk=False, memory_entries=512)
    return _compile_cache


class BenchmarkRun:
    """Results of one benchmark under one configuration."""

    def __init__(self, benchmark: Benchmark, config: CompilerConfig, result) -> None:
        self.benchmark = benchmark
        self.config = config
        self.result = result
        self.counters = result.counters
        self.classifier = result.classifier

    @property
    def value_text(self) -> str:
        return write_datum(self.result.value)

    @property
    def stack_refs(self) -> int:
        return self.counters.total_stack_refs

    @property
    def cycles(self) -> int:
        return self.counters.cycles

    def __repr__(self) -> str:
        return (
            f"<BenchmarkRun {self.benchmark.name} refs={self.stack_refs} "
            f"cycles={self.cycles}>"
        )


def expected_value(benchmark: Benchmark) -> Optional[str]:
    """The oracle value: either baked into the registry or computed
    once with the reference interpreter and cached."""
    if benchmark.expected is not None:
        return benchmark.expected
    if benchmark.name in _expected_cache:
        return _expected_cache[benchmark.name]
    try:
        value = Interpreter().run_source(benchmark.source)
    except RecursionError:  # pragma: no cover - interpreter depth limit
        return None
    text = write_datum(value)
    _expected_cache[benchmark.name] = text
    return text


def run_benchmark(
    name_or_bench,
    config: Optional[CompilerConfig] = None,
    validate: bool = True,
    debug: bool = False,
    tracer=None,
    profile: bool = False,
    cache: Optional[bool] = None,
) -> BenchmarkRun:
    """Compile and execute one benchmark, checking its value against
    the reference interpreter.

    Pass a ``repro.observe.Tracer`` to record per-pass compile spans and
    the ``execute`` span (with ``profile=True``, the per-procedure VM
    profile too: on ``run.result.profile`` and as ``execute``'s
    children).

    ``cache`` controls the process-wide compile cache: ``None`` (the
    default) uses it unless a recording tracer is attached — cached
    compiles would produce no compile spans — ``False`` always compiles
    fresh, ``True`` forces the cache.
    """
    bench = (
        name_or_bench
        if isinstance(name_or_bench, Benchmark)
        else get_benchmark(name_or_bench)
    )
    config = config or CompilerConfig()
    if cache is None:
        cache = not (tracer is not None and getattr(tracer, "enabled", False))
    if cache:
        compiled, _ = shared_compile_cache().compile(bench.source, config)
    else:
        compiled = compile_source(bench.source, config, tracer=tracer)
    result = run_compiled(compiled, debug=debug, tracer=tracer, profile=profile)
    if validate:
        expect = expected_value(bench)
        got = write_datum(result.value)
        if expect is not None and got != expect:
            raise AssertionError(
                f"{bench.name} under {config}: produced {got}, expected {expect}"
            )
    return BenchmarkRun(bench, config, result)
