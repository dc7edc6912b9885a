"""The AOT emitter: a compiled program as one generated Python module.

``repro aot build`` takes a program through the normal pipeline, then
calls :func:`emit_module` to write the *whole program* out as a single
importable Python source file:

* every code object becomes a top-level :class:`~repro.vm.aotrt.AotCode`
  (``K0``, ``K1``, ...) carrying the runtime slice of the
  ``CodeObject`` — name, parameter names, frame size, the
  classifier's static flags;
* every trace becomes a top-level function (``_t<code>_<pc>``), spliced
  verbatim from :func:`repro.vm.blockcompile.build_trace_module` with
  one shared const pool across all code objects;
* const-pool bindings are spelled re-creatably: primitives by catalog
  name, code objects as ``K`` references, floats (only the non-finite
  ones reach the pool) through ``float``, other datum immediates as
  their written form re-read by :func:`repro.vm.aotrt.datum`;
* each code's block table is a dict literal of
  ``leader_pc: (trace_fn, exits)`` — the same shape the in-process
  trampoline consumes, minus the ``None`` padding;
* call and tail-call exits whose callee
  :func:`repro.vm.callgraph.proves_direct_call` is statically known
  (and arity-correct) are rewritten to the direct kinds
  (``K_CALL_DIRECT``/``K_TAIL_DIRECT``), collapsing the trampoline's
  closure type test and arity check into the emitted table
  (``CompilerConfig.aot_direct_calls`` gates this);
* a ``PROGRAM`` :class:`~repro.vm.aotrt.AotProgram` bakes the register
  geometry, the cost-model scalars, and provenance stamps (source
  cache key, config fingerprint, package version).

The emitted module imports only the runtime slice of the package
(:mod:`repro.vm.aotrt` and the primitives/datum modules) — importing
or running it never loads the compiler; ``tests/vm/test_aot.py``
asserts that in a subprocess, and the equivalence suite asserts that
values, output, counters, and activation counts are bit-identical to
both interpreted loops.  See ``docs/aot.md`` for a walkthrough of an
emitted module.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro import __version__
from repro.astnodes import CodeObject
from repro.backend.codegen import CompiledProgram
from repro.sexp.datum import NIL, UNSPECIFIED
from repro.sexp.reader import read
from repro.sexp.writer import write_datum
from repro.vm.aotrt import K_CALL, K_CALL_DIRECT, K_TAIL, K_TAIL_DIRECT
from repro.vm.blockcompile import build_trace_module
from repro.vm.callgraph import closure_slot_callees, proves_direct_call
from repro.vm.predecode import KIND_NAMES

from repro.runtime.primitives import PRIMITIVES


class EmitInfo:
    """What :func:`emit_module` produced, for reporting: how many code
    objects and traces were emitted, and how many of the program's
    call sites collapsed into direct transfers."""

    __slots__ = ("codes", "traces", "call_sites", "direct_calls")

    def __init__(self, codes: int, traces: int, call_sites: int,
                 direct_calls: int) -> None:
        self.codes = codes
        self.traces = traces
        self.call_sites = call_sites
        self.direct_calls = direct_calls

    def as_dict(self) -> dict:
        return {
            "codes": self.codes,
            "traces": self.traces,
            "call_sites": self.call_sites,
            "direct_calls": self.direct_calls,
        }


def _prim_names() -> Dict[Any, str]:
    return {spec.fn: name for name, spec in PRIMITIVES.items()}


def _spell_const(value: Any, code_names: Dict[int, str],
                 by_fn: Dict[Any, str]) -> str:
    """One const-pool binding's right-hand side, re-creatable at import
    time with no compiler present."""
    if isinstance(value, CodeObject):
        return code_names[id(value)]
    prim = by_fn.get(value) if callable(value) else None
    if prim is not None:
        return f"PRIMITIVES[{prim!r}].fn"
    # Singletons the trace namespace already binds (their written
    # forms — `#<void>`, `()` — are not or not-identically readable).
    if value is UNSPECIFIED:
        return "UNSPECIFIED"
    if value is NIL:
        return "NIL"
    # `inf`/`nan` are not Python literals, and their written forms
    # read back as symbols.
    if type(value) is float:
        return f"float({repr(value)!r})"
    # Everything else the trace generator refuses to spell inline is a
    # datum (symbols, quoted pairs, vectors, ...): the s-expression
    # writer/reader round-trip is exact — verified here at build time,
    # so a gap surfaces as an emit error, never a wrong program.
    text = write_datum(value)
    if read(text) != value and write_datum(read(text)) != text:
        raise ValueError(f"const does not round-trip as a datum: {text!r}")
    return f"_datum({text!r})"


def _spell_exit(exit_tuple, kname: Optional[str]) -> str:
    """One exit tuple as source text; *kname* is the direct-call target
    ``K`` name when this exit was collapsed (the only non-literal an
    exit can carry)."""
    kind, arg, nexec, counts, taken = exit_tuple
    if kname is not None:
        if kind == K_CALL:
            return f"({K_CALL_DIRECT}, ({kname}, {arg[1]!r}), {nexec!r}, {counts!r}, {taken!r})"
        return f"({K_TAIL_DIRECT}, {kname}, {nexec!r}, {counts!r}, {taken!r})"
    return f"({kind!r}, {arg!r}, {nexec!r}, {counts!r}, {taken!r})"


def emit_module(compiled: CompiledProgram, source_key: str = "") -> str:
    """Generate the emitted module's source for *compiled*; the second
    half of ``repro aot build`` (the first is the ordinary pipeline).
    Pure — touches no caches on the program and writes nothing."""
    info = EmitInfo(0, 0, 0, 0)
    return emit_module_info(compiled, source_key, info)


def emit_module_info(
    compiled: CompiledProgram, source_key: str, info: EmitInfo
) -> str:
    """:func:`emit_module`, filling *info* with emission statistics."""
    config = compiled.config
    cost_model = config.cost_model
    regfile = compiled.regfile
    cp_index = regfile.cp.index
    collapse = config.aot_direct_calls
    by_fn = _prim_names()

    # Stable K names, entry first (the entry is compiled.codes[0] by
    # construction, but do not rely on it).
    codes: List[CodeObject] = list(compiled.codes)
    if compiled.entry not in codes:  # pragma: no cover - defensive
        codes.insert(0, compiled.entry)
    code_names = {id(code): f"K{i}" for i, code in enumerate(codes)}

    # One shared const pool: quoted data referenced from several code
    # objects keeps its identity, exactly like the in-process path.
    from repro.vm.blockcompile import _ConstPool

    consts = _ConstPool()
    slot_map = closure_slot_callees(codes) if collapse else {}
    modules = []
    for i, code in enumerate(codes):
        tm = build_trace_module(
            code, cost_model, cp_index,
            name_prefix=f"_t{i}_", consts=consts,
            track_callees=collapse,
            slot_env=slot_map.get(code),
        )
        modules.append(tm)

    lines: List[str] = []
    w = lines.append
    w('"""AOT-compiled repro program.  Generated — do not edit.')
    w("")
    w(f"source key:  {source_key or '(not recorded)'}")
    w(f"fingerprint: {config.fingerprint()}")
    w(f"emitter:     repro {__version__} (repro.vm.aotemit)")
    w("")
    w("Importable with only the runtime slice of the repro package in")
    w("the process; run with `python <this file> [--json]` or import it")
    w("and call `run()`.")
    w('"""')
    w("")
    w("from repro.runtime.primitives import PRIMITIVES")
    w("from repro.sexp.datum import NIL, Pair, UNSPECIFIED  # noqa: F401")
    w("from repro.vm.aotrt import (")
    w("    AotCode,")
    w("    AotProgram,")
    w("    VMClosure,  # noqa: F401 - referenced by trace functions")
    w("    datum as _datum,")
    w("    main as _main,")
    w("    run_program as _run_program,")
    w(")")
    w("")

    # -- code objects ---------------------------------------------------
    for i, code in enumerate(codes):
        params = tuple(p.name for p in code.params)
        w(
            f"K{i} = AotCode({code.name!r}, {code.label!r}, "
            f"{params!r}, {code.frame_size}, "
            f"{code.syntactic_leaf!r}, {code.always_calls!r})"
        )
    w("")

    # -- the shared const pool ------------------------------------------
    for name, value in consts.values.items():
        w(f"{name} = {_spell_const(value, code_names, by_fn)}")
    if consts.values:
        w("")

    # -- trace functions ------------------------------------------------
    for tm in modules:
        w(tm.source)
        w("")

    # -- block tables ---------------------------------------------------
    call_sites = 0
    direct_calls = 0
    for i, (code, tm) in enumerate(zip(codes, modules)):
        w(f"K{i}.fast_blocks = {{")
        for start, fn_name, exits in sorted(tm.records):
            spelled = []
            for j, ex in enumerate(exits):
                kname = None
                if ex[0] in (K_CALL, K_TAIL):
                    call_sites += 1
                    if collapse:
                        callee = tm.callees.get((start, j))
                        argc = ex[1][0] if ex[0] == K_CALL else ex[1]
                        if proves_direct_call(callee, argc):
                            kname = code_names[id(callee)]
                            direct_calls += 1
                spelled.append(_spell_exit(ex, kname))
            w(f"    {start}: ({fn_name}, ({', '.join(spelled)}{',' if len(spelled) == 1 else ''})),")
        w("}")
        w("")

    # -- the program ----------------------------------------------------
    num_arg_regs = regfile.num_arg_regs
    a0 = regfile.arg_regs[0].index if num_arg_regs else None
    w("PROGRAM = AotProgram(")
    w(f"    entry={code_names[id(compiled.entry)]},")
    w(f"    codes=({', '.join(f'K{i}' for i in range(len(codes)))}),")
    w(f"    nregs={len(regfile)},")
    w(f"    a0={a0!r},")
    w(f"    ret={regfile.ret.index},")
    w(f"    cp={cp_index},")
    w(f"    rv={regfile.rv.index},")
    w(f"    call_overhead={cost_model.call_overhead},")
    w(f"    predict={config.branch_prediction is not None!r},")
    w(f"    penalty={cost_model.branch_mispredict_penalty},")
    w(f"    kind_names={KIND_NAMES!r},")
    w(f"    direct_calls={direct_calls},")
    w(f"    call_sites={call_sites},")
    w(f"    source_key={source_key!r},")
    w(f"    fingerprint={config.fingerprint()!r},")
    w(f"    version={__version__!r},")
    w(")")
    w("")
    w("")
    w("def run(max_instructions=None):")
    w('    """Execute the program; returns a repro.vm.aotrt.AotResult."""')
    w("    return _run_program(PROGRAM, max_instructions=max_instructions)")
    w("")
    w("")
    w('if __name__ == "__main__":')
    w("    import sys")
    w("")
    w("    sys.exit(_main(PROGRAM))")
    w("")

    info.codes = len(codes)
    info.traces = sum(len(tm.records) for tm in modules)
    info.call_sites = call_sites
    info.direct_calls = direct_calls
    return "\n".join(lines)
