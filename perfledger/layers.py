"""Per-layer metrics from a traced run.

Seconds are self times summed over the traced run: the window, plus
hot-exec's set-up (the only place its compile layers run) and
serve-mix's in-process replay of the window's programs (the daemon's
own layers are not visible from outside).  Counts of code quality and
VM work are summed over the distinct programs, so they repeat exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from perfledger import stats
from perfledger.common import Op
from perfledger.spans import Tracer

#: Per-layer seconds metrics and the span whose self time each sums.
SELF_TIMES = {
    "sexp.read_s": "sexp.read",
    "frontend.expand_s": "frontend.expand",
    "frontend.convert_s": "frontend.convert",
    "frontend.closure_s": "frontend.closure",
    "alloc.allocate_s": "alloc.allocate",
    "alloc.liveness_s": "alloc.liveness",
    "alloc.assign_s": "alloc.assign",
    "alloc.save_placement_s": "alloc.save_placement",
    "alloc.restore_placement_s": "alloc.restore_placement",
    "alloc.shuffle_s": "alloc.shuffle",
    "backend.codegen_s": "backend.codegen",
    "vm.trace_build_s": "vm.trace_build",
    "vm.trace_pycompile_s": "vm.trace_pycompile",
    "vm.trace_instantiate_s": "vm.trace_instantiate",
    "vm.predecode_s": "vm.predecode",
    "vm.exec_s": "vm.exec",
}

#: Spans whose inclusive time is compile time, for paper §4's share.
COMPILE_SPANS = (
    "sexp.read", "frontend.expand", "frontend.convert", "frontend.closure",
    "alloc.allocate", "backend.codegen",
)

#: Spans that stand for a whole op (or set-up, or replayed program).
ROOTS = ("op", "setup", "replay")

QUALITY = {
    "alloc.shuffle_cycles_broken": "shuffle_cycles_broken",
    "alloc.shuffle_evictions": "shuffle_evictions",
    "backend.static_instrs": "static_instrs",
    "backend.peephole_removed": "peephole_removed",
    "frontend.nodes": "nodes",
}


def per_layer(
    tracer: Tracer,
    window: List[Op],
    programs: Dict[str, Dict],
    exec_programs: List[str],
    serve: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every per-layer metric.  *window* are the traced ops (the replay
    for serve-mix), indexed by the tracer's integer ``op``; *programs*
    holds each distinct program's ``counters`` and ``quality``;
    *exec_programs* names the ``vm.exec_s.<program>`` metrics."""
    spans = tracer.spans
    selfs = stats.self_times(spans)
    by_name: Dict[str, float] = {}
    per_program = dict.fromkeys(exec_programs, 0.0)
    compile_s = allocate_s = 0.0
    root_self = root_all = 0.0
    for sid, name, start, end, parent, op in spans:
        by_name[name] = by_name.get(name, 0.0) + selfs[sid]
        if name == "vm.exec" and isinstance(op, int) and window[op].key in per_program:
            per_program[window[op].key] += selfs[sid]
        if name in COMPILE_SPANS:
            compile_s += end - start
            if name == "alloc.allocate":
                allocate_s += end - start
        if parent is None and name in ROOTS:
            root_self += selfs[sid]
            root_all += end - start

    out = {metric: by_name.get(span, 0.0) for metric, span in SELF_TIMES.items()}
    out["alloc.compile_share"] = allocate_s / compile_s if compile_s else 0.0
    out["vm.trace_codes"] = sum(
        c.get("vm.trace_codes", 0) for op, c in tracer.counts.items() if isinstance(op, int)
    )
    out["vm.trace_source_bytes"] = sum(
        c.get("vm.trace_source_bytes", 0) for c in tracer.counts.values()
    )
    executed = sum(op.counters["instructions"] for op in window if op.counters)
    out["vm.minstr_per_s"] = executed / out["vm.exec_s"] / 1e6 if out["vm.exec_s"] else 0.0
    for name in exec_programs:
        out[f"vm.exec_s.{name}"] = per_program[name]
    for metric, key in QUALITY.items():
        out[metric] = sum(p["quality"][key] for p in programs.values() if p.get("quality"))
    for name in ("instructions", "calls", "prim_calls"):
        out[f"vm.{name}"] = sum(p["counters"][name] for p in programs.values() if p["counters"])
    out.update(serve or {})
    out["bench.unaccounted_share"] = root_self / root_all if root_all else 0.0
    return out
