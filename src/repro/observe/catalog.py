"""The metric catalog: every metric the repro service exposes.

One declaration per metric family — name, type, help text, label
names, and (for histograms) the fixed bucket family.  Instrumentation
sites resolve families through :func:`declare`, so a metric can never
be emitted that is not in the catalog, and the table in
``docs/observability.md`` is checked against this module by
``tests/observe/test_metrics.py``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.observe.metrics import (
    BYTES_BUCKETS,
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    MetricFamily,
    MetricsRegistry,
)

#: (name, kind, labels, buckets, help)
CATALOG: Tuple[Tuple[str, str, Tuple[str, ...], Optional[Sequence[float]], str], ...] = (
    # -- compile cache (repro.serve.cache) -----------------------------
    ("repro_cache_hits", "counter", ("tier",),
     None, "Compile-cache hits by tier (memory/disk)."),
    ("repro_cache_misses", "counter", (),
     None, "Compile-cache misses (entry absent)."),
    ("repro_cache_corruptions", "counter", (),
     None, "On-disk cache entries that failed validation (served as misses)."),
    ("repro_cache_evictions", "counter", (),
     None, "Cache entries evicted (memory LRU overflow and disk gc)."),
    ("repro_cache_stores", "counter", (),
     None, "Compiled programs written to the cache."),
    ("repro_cache_bytes_written", "counter", (),
     None, "Bytes written to the on-disk cache store."),
    ("repro_cache_entry_bytes", "histogram", (),
     BYTES_BUCKETS, "Serialized size of cache entries written."),
    ("repro_compile_seconds", "histogram", (),
     LATENCY_BUCKETS, "Wall-clock seconds per uncached compile."),
    # -- worker pool (repro.serve.pool) --------------------------------
    ("repro_pool_submitted", "counter", (),
     None, "Tasks submitted to the pool scheduler."),
    ("repro_pool_tasks", "counter", ("outcome",),
     None, "Resolved pool tasks by outcome (ok/error/cancelled); "
           "conserves against repro_pool_submitted."),
    ("repro_pool_worker_events", "counter", ("event",),
     None, "Worker lifecycle events (spawn/respawn/crash/timeout/cancel)."),
    ("repro_pool_queue_depth", "gauge", (),
     None, "Tasks waiting for a worker right now."),
    ("repro_pool_queued_seconds", "histogram", (),
     LATENCY_BUCKETS, "Seconds a task waited for a worker."),
    ("repro_pool_run_seconds", "histogram", (),
     LATENCY_BUCKETS, "Seconds a task executed on a worker."),
    # -- service / daemon (repro.serve.service, repro.serve.net) -------
    ("repro_requests", "counter", ("op", "status"),
     None, "Service requests by operation and status (ok/error kind)."),
    ("repro_request_seconds", "histogram", ("op",),
     LATENCY_BUCKETS, "Batch seconds per request (queued + run)."),
    ("repro_flight_dumps", "counter", ("reason",),
     None, "Flight-recorder dumps written, by reason."),
    # -- the daemon core, both transports (repro.serve.net) ------------
    ("repro_serve_clients", "gauge", (),
     None, "Clients connected to the daemon right now (TCP connections "
           "or the one stdio session)."),
    ("repro_serve_rejects", "counter", ("reason",),
     None, "Admission-control rejects by reason "
           "(tenant-queue-full/queue-full/max-clients/draining)."),
    ("repro_serve_inflight_dedup", "counter", (),
     None, "Requests answered by joining an identical in-flight compile "
           "(single-flight followers; each cost zero pool tasks)."),
    ("repro_serve_tenant_queue_depth", "gauge", ("tenant",),
     None, "Admitted-but-unresolved daemon requests per tenant."),
    ("repro_serve_request_seconds", "histogram", ("op",),
     LATENCY_BUCKETS, "Daemon seconds per request, intake to response "
                      "write (the loadgen/SLO latency)."),
    # -- request tracing (repro.observe.reqtrace / spanstore) ----------
    ("repro_trace_traces", "counter", ("decision",),
     None, "Finished request traces by tail-sampling decision "
           "(error/slow/sampled/dropped)."),
    ("repro_trace_spans", "counter", (),
     None, "Span records written to the span store."),
    ("repro_trace_bytes_written", "counter", (),
     None, "Bytes appended to span-store segments."),
    ("repro_trace_segment_rotations", "counter", (),
     None, "Span-store segment rotations (size cap reached)."),
    # -- VM run distributions (repro.vm.machine) -----------------------
    ("repro_vm_runs", "counter", (),
     None, "Completed VM runs observed by the registry."),
    ("repro_vm_instructions", "histogram", (),
     COUNT_BUCKETS, "Instructions executed per VM run."),
    ("repro_vm_saves", "histogram", (),
     COUNT_BUCKETS, "Register saves per VM run (Table 3's save column)."),
    ("repro_vm_restores", "histogram", (),
     COUNT_BUCKETS, "Register restores per VM run (Table 3's restore column)."),
    ("repro_vm_proc_saves", "histogram", (),
     COUNT_BUCKETS, "Saves per procedure, from profiled runs (Figure 1)."),
    ("repro_vm_proc_restores", "histogram", (),
     COUNT_BUCKETS, "Restores per procedure, from profiled runs (Figure 2)."),
    # -- allocator distributions (repro.pipeline) ----------------------
    ("repro_shuffle_size", "histogram", (),
     SIZE_BUCKETS, "Moves per call-site shuffle plan (the Buchwald et al. "
                   "shuffle-code distribution)."),
    ("repro_shuffle_cycles", "counter", (),
     None, "Shuffle plans that contained a register cycle."),
    # -- allocator strategies (repro.alloc.driver) ---------------------
    ("repro_alloc_spills", "counter", (),
     None, "Binding variables the allocator sent to frame slots."),
    ("repro_alloc_moves", "counter", (),
     None, "Shuffle moves planned across all call sites of a compile."),
    ("repro_alloc_strategy_seconds", "histogram", ("strategy",),
     LATENCY_BUCKETS, "Wall-clock seconds per program spent in register "
                      "allocation, by strategy (lazy/linearscan/graphcolor)."),
)

_BY_NAME = {entry[0]: entry for entry in CATALOG}


def declare(registry: MetricsRegistry, name: str) -> MetricFamily:
    """The catalog family *name* on *registry* (declared on first use)."""
    entry = _BY_NAME.get(name)
    if entry is None:
        raise KeyError(f"metric {name!r} is not in the catalog")
    _, kind, labels, buckets, help_text = entry
    if kind == "counter":
        return registry.counter(name, help_text, labels)
    if kind == "gauge":
        return registry.gauge(name, help_text, labels)
    return registry.histogram(name, help_text, labels, buckets or LATENCY_BUCKETS)


def declare_all(registry: MetricsRegistry) -> Dict[str, MetricFamily]:
    """Every catalog family, declared (zero-valued) on *registry* — used
    by exposition so a scrape always sees the full metric set."""
    return {name: declare(registry, name) for name in _BY_NAME}


def markdown_table() -> str:
    """The docs table (``docs/observability.md`` embeds this; a test
    keeps them in sync)."""
    lines = [
        "| metric | type | labels | help |",
        "|---|---|---|---|",
    ]
    for name, kind, labels, _, help_text in CATALOG:
        label_text = ", ".join(f"`{label}`" for label in labels) or "—"
        lines.append(f"| `{name}` | {kind} | {label_text} | {help_text} |")
    return "\n".join(lines)
