"""VM throughput baseline: collection, serialization, and comparison.

``repro bench --baseline-out BENCH_vm.json`` records, for every
non-heavy benchmark, the *deterministic* execution signature of the
fast VM (value, instruction count, cycle count, and the derived
instruction-category mix) plus, for a fixed timing corpus, the
measured throughput of the fast and legacy loops and their ratio.

``repro bench --check-baseline BENCH_vm.json`` (the CI gate) re-runs
the suite and fails when

* any deterministic field differs — the fast path changed observable
  behaviour, which the design forbids; or
* the fast/legacy speedup (geomean over the timing corpus) regressed
  by more than the tolerance (default 15%).

Deterministic fields are compared exactly because they are exactly
reproducible.  Wall-clock numbers are *informational* — absolute
throughput depends on the host — so the gate uses the fast/legacy
*ratio*, which mostly cancels machine speed.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.benchsuite.programs import BENCHMARKS
from repro.config import CompilerConfig
from repro.pipeline import compile_source, run_compiled

SCHEMA_VERSION = 1

#: Benchmarks timed for the fast-vs-legacy throughput ratio: a spread
#: of call-intensive, continuation-heavy, allocation-heavy, and
#: arithmetic-heavy programs that runs in a few seconds total.
SPEED_CORPUS = ("tak", "takl", "fxtriang", "ctak", "destruct", "div-iter", "deriv")

#: Allowed relative regression of the geomean fast/legacy speedup.
DEFAULT_TOLERANCE = 0.15


def _mix(counters) -> Dict[str, int]:
    """Instruction-category mix derived from the counters.

    Deterministic (it is exact event counts, not sampling), so the
    baseline comparison checks it exactly.
    """
    return {
        "prim": counters.prim_calls,
        "mov": counters.moves,
        "branch": counters.branches,
        "call": counters.calls,
        "tailcall": counters.tail_calls,
        "callcc": counters.continuations_captured,
        "closure": counters.closure_allocs,
        "load": sum(counters.stack_reads.values()),
        "store": sum(counters.stack_writes.values()),
    }


def _time_run(compiled, vm_fast: bool, repeats: int) -> float:
    """Best-of-*repeats* wall time for one mode (after one warm run)."""
    run_compiled(compiled, vm_fast=vm_fast)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_compiled(compiled, vm_fast=vm_fast)
        best = min(best, time.perf_counter() - t0)
    return best


def benchmark_names() -> List[str]:
    """The baseline corpus: every non-heavy benchmark, sorted."""
    return sorted(n for n, b in BENCHMARKS.items() if not b.heavy)


def collect_baseline(
    names: Optional[Sequence[str]] = None,
    config: Optional[CompilerConfig] = None,
    repeats: int = 3,
    timing_names: Sequence[str] = SPEED_CORPUS,
    progress=None,
) -> Dict[str, Any]:
    """Measure the suite and return the ``BENCH_vm.json`` document."""
    config = config or CompilerConfig()
    names = list(names) if names is not None else benchmark_names()
    timing = set(timing_names)
    doc: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "timing_corpus": sorted(timing & set(names)),
        "benchmarks": {},
    }
    ratios = []
    for name in names:
        bench = BENCHMARKS[name]
        compiled = compile_source(bench.source, config)
        result = run_compiled(compiled, vm_fast=True)
        from repro.sexp.writer import write_datum

        c = result.counters
        entry: Dict[str, Any] = {
            "value": write_datum(result.value),
            "instructions": c.instructions,
            "cycles": c.cycles,
            "mix": _mix(c),
        }
        if name in timing:
            fast_s = _time_run(compiled, True, repeats)
            legacy_s = _time_run(compiled, False, repeats)
            entry["wall_s"] = round(fast_s, 4)
            entry["instructions_per_sec"] = round(c.instructions / fast_s)
            entry["speedup_vs_legacy"] = round(legacy_s / fast_s, 3)
            ratios.append(legacy_s / fast_s)
        doc["benchmarks"][name] = entry
        if progress is not None:
            progress(name, entry)
    if ratios:
        product = 1.0
        for r in ratios:
            product *= r
        doc["geomean_speedup"] = round(product ** (1.0 / len(ratios)), 3)
    return doc


def collect_warm_start(
    names: Optional[Sequence[str]] = None,
    config: Optional[CompilerConfig] = None,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Measure time-to-ready-to-execute under two start modes.

    For each benchmark, best-of-*repeats* seconds until the program
    could begin executing on the fast path (predecoded streams and
    trace tables built), starting from:

    * ``cold_s`` — nothing: full compile, predecode, blockcompile;
    * ``isa_ready_s`` — a warm disk cache: unpickle the compiled
      program, then predecode + blockcompile.

    The numbers are wall-clock and host-dependent — ``BENCH_vm.json``
    records them as informational history, and the comparison gate
    ignores this section entirely.
    """
    import os
    import tempfile

    from repro.serve.cache import CompileCache
    from repro.vm.machine import trace_all

    config = config or CompilerConfig()
    names = list(names) if names is not None else list(SPEED_CORPUS)

    def best(fn) -> float:
        b = float("inf")
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            fn()
            b = min(b, time.perf_counter() - t0)
        return b

    doc: Dict[str, Any] = {
        "corpus": names,
        "repeats": repeats,
        "benchmarks": {},
    }
    totals = {"cold_s": 0.0, "isa_ready_s": 0.0}
    with tempfile.TemporaryDirectory(prefix="repro-warm-") as tmp:
        for seq, name in enumerate(names):
            source = BENCHMARKS[name].source

            def cold() -> None:
                trace_all(compile_source(source, config))

            # Fresh CompileCache instances per repeat: the memory LRU is
            # process-local, so every timed load comes off the disk tier
            # exactly as a new worker's first request would.
            isa_root = os.path.join(tmp, f"isa{seq}")
            CompileCache(root=isa_root).compile(source, config)

            def isa_ready() -> None:
                compiled, hit = CompileCache(root=isa_root).compile(source, config)
                assert hit
                trace_all(compiled)

            entry = {
                "cold_s": round(best(cold), 4),
                "isa_ready_s": round(best(isa_ready), 4),
            }
            doc["benchmarks"][name] = entry
            for key in totals:
                totals[key] += entry[key]
    doc["totals"] = {key: round(value, 4) for key, value in totals.items()}
    return doc


def compare_baseline(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Return a list of regression descriptions (empty = gate passes)."""
    problems: List[str] = []
    if baseline.get("schema") != SCHEMA_VERSION:
        problems.append(
            f"baseline schema {baseline.get('schema')!r} != {SCHEMA_VERSION} "
            "(regenerate with: repro bench --baseline-out)"
        )
        return problems
    base_benches = baseline.get("benchmarks", {})
    cur_benches = current.get("benchmarks", {})
    for name, base in sorted(base_benches.items()):
        cur = cur_benches.get(name)
        if cur is None:
            problems.append(f"{name}: missing from current run")
            continue
        for field in ("value", "instructions", "cycles", "mix"):
            if cur.get(field) != base.get(field):
                problems.append(
                    f"{name}: {field} changed "
                    f"{base.get(field)!r} -> {cur.get(field)!r}"
                )
    base_geo = baseline.get("geomean_speedup")
    cur_geo = current.get("geomean_speedup")
    if base_geo and cur_geo:
        floor = base_geo * (1.0 - tolerance)
        if cur_geo < floor:
            problems.append(
                f"geomean fast/legacy speedup regressed: {cur_geo:.2f}x "
                f"< {floor:.2f}x (baseline {base_geo:.2f}x - {tolerance:.0%})"
            )
    return problems


def write_baseline(doc: Dict[str, Any], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_baseline(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)
