"""Exporters over span records (:mod:`repro.observe.tracer`).

* :func:`chrome_trace` — the Chrome ``trace_event`` JSON object format,
  loadable in ``chrome://tracing`` and Perfetto: one process row per
  pid, one thread row per trace, every record a complete (``"ph":
  "X"``) event.  The per-procedure VM profile rides along as the
  zero-duration children of ``execute``.  ``repro spans export``
  writes it.
* :func:`metrics_dict` — the flat metrics document ``repro run --json``
  prints: counters, per-pass timings and stats, and the per-procedure
  profile table.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.observe.profile import PROC_PREFIX


def chrome_trace(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Chrome ``trace_event`` JSON for any set of span records — one
    trace, or a whole store — with timestamps in microseconds from the
    earliest record."""
    ordered = sorted(records, key=lambda r: (r["start_ns"], -r["dur_ns"]))
    events: List[Dict[str, Any]] = []
    if not ordered:
        return {"traceEvents": events, "displayTimeUnit": "ms"}
    base = ordered[0]["start_ns"]
    tids: Dict[str, int] = {}
    services: Dict[Any, str] = {}
    threads: Dict[Any, str] = {}
    for record in ordered:
        pid = record["pid"]
        tid = tids.setdefault(record["trace"], len(tids) + 1)
        services.setdefault(pid, record["service"])
        threads.setdefault((pid, tid), record["trace"])
        events.append(
            {
                "name": record["name"],
                "cat": record["service"],
                "ph": "X",
                "ts": (record["start_ns"] - base) / 1000.0,
                "dur": record["dur_ns"] / 1000.0,
                "pid": pid,
                "tid": tid,
                "args": record["attrs"],
            }
        )
    rows = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": f"repro {service} (pid {pid})"}}
        for pid, service in services.items()
    ] + [
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
         "args": {"name": f"trace {trace}"}}
        for (pid, tid), trace in threads.items()
    ]
    return {
        "traceEvents": rows + events,
        "displayTimeUnit": "ms",
        "otherData": {"traces": list(tids)},
    }


def metrics_dict(
    records: Iterable[Dict[str, Any]] = (),
    counters=None,
    value: Optional[str] = None,
    output: Optional[str] = None,
) -> Dict[str, Any]:
    """The flat metrics document: counters, then per-pass seconds and
    stats summed by span name, then the per-procedure profile rows."""
    doc: Dict[str, Any] = {}
    if value is not None:
        doc["value"] = value
    if output:
        doc["output"] = output
    if counters is not None:
        doc["counters"] = counters.as_dict()
    passes: Dict[str, Dict[str, Any]] = {}
    procedures: List[Dict[str, Any]] = []
    for record in sorted(records, key=lambda r: (r["start_ns"], -r["dur_ns"])):
        if record["name"].startswith(PROC_PREFIX):
            procedures.append(record["attrs"])
            continue
        entry = passes.setdefault(record["name"], {"seconds": 0.0})
        entry["seconds"] += record["dur_ns"] / 1e9
        entry.update(record["attrs"])
    if passes:
        doc["passes"] = passes
    if procedures:
        doc["procedures"] = procedures
    return doc
