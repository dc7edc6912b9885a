"""The virtual machine: an instruction-level simulator with stack-
reference accounting, a load-latency cycle model, and the dynamic
call-graph classifier behind Table 2.

Exports resolve lazily (PEP 562): ``Machine`` lives in
``repro.vm.machine``, which imports the trace compiler, and importing
``repro.vm`` for ``Counters`` or the classifier does not load it.
"""

_EXPORTS = {
    "Counters": "repro.vm.counters",
    "ActivationClassifier": "repro.vm.callgraph",
    "CATEGORIES": "repro.vm.callgraph",
    "Machine": "repro.vm.machine",
    "VMClosure": "repro.vm.machine",
    "VMContinuation": "repro.vm.machine",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.vm' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(__all__)
