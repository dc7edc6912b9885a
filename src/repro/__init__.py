"""repro — a reproduction of Burger, Waddell & Dybvig,
"Register Allocation Using Lazy Saves, Eager Restores, and Greedy
Shuffling" (PLDI 1995).

A whole-program compiler for a Scheme subset whose register allocator
implements the paper's three techniques, plus a simulating back end
that measures exactly what the paper measures: dynamic stack
references, cycle-model run time, and activation classifications.

Quick start::

    from repro import run_source, CompilerConfig

    result = run_source("(define (f x) (* x x)) (f 21)")
    print(result.value)                       # 441
    print(result.counters.total_stack_refs)   # stack traffic

The package root resolves its exports lazily (PEP 562): importing
``repro``, or a submodule that needs no compiler (the reader, the
span store), does not load the compiler.  ``from repro import
compile_source`` still works; the import happens on first attribute
access.
"""

__version__ = "1.0.0"

#: Export name -> defining submodule, resolved on first access.
_EXPORTS = {
    "CompilerConfig": "repro.config",
    "CostModel": "repro.config",
    "CompilerError": "repro.errors",
    "SchemeError": "repro.runtime.values",
    "ExecutionResult": "repro.pipeline",
    "compile_source": "repro.pipeline",
    "expand_source": "repro.pipeline",
    "run_compiled": "repro.pipeline",
    "run_source": "repro.pipeline",
    "Interpreter": "repro.interp.interpreter",
    "interpret_source": "repro.interp.interpreter",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(__all__)
