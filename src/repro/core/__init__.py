"""The paper's contribution: lazy saves, eager restores, greedy shuffling.

Submodules:

* ``registers``     — the register file and register-set (bit vector) model
* ``liveness``      — variable-level liveness and location assignment (pass 0)
* ``savesets``      — the simple ``S[E]`` and revised ``St/Sf`` analyses (§2.1)
* ``saveplace``     — save placement: lazy / lazy-simple / early / late (pass 1)
* ``shuffle``       — greedy argument shuffling + comparison strategies (§2.3, §3.1)
* ``restoreplace``  — redundant-save elimination + eager restores (pass 2, §3.2)

The orchestration of the passes over a whole program lives in
:mod:`repro.alloc`, which imports this package (never the reverse).
"""

from repro.core.registers import Register, RegisterFile

__all__ = ["Register", "RegisterFile"]
