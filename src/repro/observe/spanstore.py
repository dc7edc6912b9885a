"""``repro.observe.spanstore`` — a bounded, append-only span store.

Request traces (:mod:`repro.observe.reqtrace`) land here as JSON lines,
one span record per line, grouped per trace (a whole trace is appended
in one call, after the tail sampler keeps it).  The store is a
directory of size-capped segments::

    <dir>/spans-000001.jsonl
    <dir>/spans-000002.jsonl        # rotated when the cap is reached

Writes rotate to a fresh segment once the current one passes
``max_segment_bytes`` and delete the oldest segment past
``max_segments`` — the store is bounded by construction, so a daemon
can trace forever without filling a disk.  Reads
(:func:`iter_records`, :func:`load_trace`, :func:`trace_summaries`)
tolerate a torn or corrupt line (a crash mid-append, a truncated
copy): bad lines are skipped, everything else is served.

Each line is one record of the one span shape
(:mod:`repro.observe.tracer`), flat and self-describing, so segments
from several processes (daemon + workers via the daemon) and several
daemons can be read together; ``repro spans export`` turns any set of
them into one Chrome timeline (:func:`repro.observe.export.chrome_trace`).
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

_SEGMENT_PREFIX = "spans-"
_SEGMENT_SUFFIX = ".jsonl"

DEFAULT_SEGMENT_BYTES = 4 << 20
DEFAULT_MAX_SEGMENTS = 8

#: Span-name → critical-path category (see :func:`critical_path`).
CATEGORIES: Dict[str, str] = {
    "intake": "intake",
    "admission": "admission",
    "dedup": "admission",
    "queue": "queue",
    "wait": "queue",
    "run": "compile",
    "compile": "compile",
    "compile-core": "compile",
    "read": "compile",
    "expand": "compile",
    "convert": "compile",
    "lambda-lift": "compile",
    "closure": "compile",
    "allocate": "compile",
    "codegen": "compile",
    "execute": "compile",
    "cache": "cache",
    "cache.lookup": "cache",
    "respond": "write",
}


def category_of(name: str) -> str:
    return CATEGORIES.get(name, "other")


class SpanStore:
    """The write side: thread-safe, size-capped, append-only."""

    def __init__(
        self,
        directory: str,
        max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        max_segments: int = DEFAULT_MAX_SEGMENTS,
        registry=None,
    ) -> None:
        if max_segment_bytes < 1:
            raise ValueError("max_segment_bytes must be >= 1")
        if max_segments < 1:
            raise ValueError("max_segments must be >= 1")
        self.directory = directory
        self.max_segment_bytes = max_segment_bytes
        self.max_segments = max_segments
        self.registry = registry
        self.spans_written = 0
        self.bytes_written = 0
        self.rotations = 0
        self._lock = threading.Lock()
        self._segment: Optional[str] = None
        self._segment_bytes = 0

    # -- writing --------------------------------------------------------

    def append_trace(self, records: Iterable[Dict[str, Any]]) -> int:
        """Append one trace's records (one JSON line each) to the
        current segment, rotating first when it is over the cap.
        Returns the number of spans written."""
        lines = [json.dumps(record, separators=(",", ":")) for record in records]
        if not lines:
            return 0
        payload = "\n".join(lines) + "\n"
        data = payload.encode("utf-8")
        with self._lock:
            path = self._current_segment_locked()
            if self._segment_bytes and self._segment_bytes + len(data) > self.max_segment_bytes:
                path = self._rotate_locked()
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(payload)
            self._segment_bytes += len(data)
            self.spans_written += len(lines)
            self.bytes_written += len(data)
        self._count(len(lines), len(data))
        return len(lines)

    def _count(self, spans: int, nbytes: int) -> None:
        registry = self.registry
        if registry is not None and registry.enabled:
            from repro.observe.catalog import declare

            declare(registry, "repro_trace_spans").inc(spans)
            declare(registry, "repro_trace_bytes_written").inc(nbytes)

    def _current_segment_locked(self) -> str:
        if self._segment is None:
            os.makedirs(self.directory, exist_ok=True)
            existing = _segments(self.directory)
            if existing:
                self._segment = existing[-1]
                try:
                    self._segment_bytes = os.path.getsize(self._segment)
                except OSError:
                    self._segment_bytes = 0
            else:
                self._segment = self._segment_path(1)
                self._segment_bytes = 0
        return self._segment

    def _rotate_locked(self) -> str:
        assert self._segment is not None
        index = _segment_index(self._segment) + 1
        self._segment = self._segment_path(index)
        self._segment_bytes = 0
        self.rotations += 1
        registry = self.registry
        if registry is not None and registry.enabled:
            from repro.observe.catalog import declare

            declare(registry, "repro_trace_segment_rotations").inc()
        # Enforce the segment-count bound: drop the oldest.
        for stale in _segments(self.directory)[: -(self.max_segments - 1) or None]:
            if _segment_index(stale) < index - self.max_segments + 1:
                try:
                    os.remove(stale)
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass
        return self._segment

    def _segment_path(self, index: int) -> str:
        return os.path.join(
            self.directory, f"{_SEGMENT_PREFIX}{index:06d}{_SEGMENT_SUFFIX}"
        )


def _segments(directory: str) -> List[str]:
    """Segment paths, oldest first."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    out = [
        os.path.join(directory, name)
        for name in names
        if name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)
    ]
    return sorted(out, key=_segment_index)


def _segment_index(path: str) -> int:
    name = os.path.basename(path)
    digits = name[len(_SEGMENT_PREFIX): -len(_SEGMENT_SUFFIX)]
    try:
        return int(digits)
    except ValueError:
        return 0


# ---------------------------------------------------------------------------
# Reading (corruption-tolerant)
# ---------------------------------------------------------------------------


def iter_records(directory: str) -> Iterator[Dict[str, Any]]:
    """Every span record in the store, oldest segment first.  Corrupt
    or torn lines are skipped, not raised."""
    for path in _segments(directory):
        try:
            with open(path, encoding="utf-8", errors="replace") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(record, dict) and "trace" in record:
                        yield record
        except OSError:  # pragma: no cover - segment removed mid-read
            continue


def load_trace(directory: str, trace_id: str) -> List[Dict[str, Any]]:
    """All records of one trace; *trace_id* may be a unique prefix."""
    exact = [r for r in iter_records(directory) if r.get("trace") == trace_id]
    if exact:
        return exact
    matches: Dict[str, List[Dict[str, Any]]] = {}
    for record in iter_records(directory):
        tid = str(record.get("trace"))
        if tid.startswith(trace_id):
            matches.setdefault(tid, []).append(record)
    if not matches:
        return []
    if len(matches) > 1:
        raise ValueError(
            f"trace prefix {trace_id!r} is ambiguous "
            f"({', '.join(sorted(matches))})"
        )
    return next(iter(matches.values()))


def trace_summaries(directory: str) -> List[Dict[str, Any]]:
    """One summary row per trace, newest first: id, root span name,
    status, start, duration, span count, and the pids involved."""
    by_trace: Dict[str, List[Dict[str, Any]]] = {}
    for record in iter_records(directory):
        by_trace.setdefault(str(record["trace"]), []).append(record)
    out = []
    for trace_id, records in by_trace.items():
        root = _root_of(records)
        out.append(
            {
                "trace": trace_id,
                "name": root.get("name") if root else "?",
                "status": (root.get("attrs") or {}).get("status")
                if root
                else None,
                "op": (root.get("attrs") or {}).get("op") if root else None,
                "start_ns": min(r.get("start_ns", 0) for r in records),
                "dur_ns": root.get("dur_ns", 0) if root else 0,
                "spans": len(records),
                "pids": sorted({r.get("pid") for r in records if r.get("pid")}),
            }
        )
    out.sort(key=lambda row: row["start_ns"], reverse=True)
    return out


def slowest_traces(directory: str, k: int = 5) -> List[Dict[str, Any]]:
    rows = trace_summaries(directory)
    rows.sort(key=lambda row: row["dur_ns"], reverse=True)
    return rows[:k]


def _root_of(records: List[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    ids = {r.get("span") for r in records}
    roots = [r for r in records if r.get("parent") not in ids]
    if not roots:
        return None
    return min(roots, key=lambda r: r.get("start_ns", 0))


# ---------------------------------------------------------------------------
# Tree reconstruction + rendering
# ---------------------------------------------------------------------------


def build_tree(
    records: List[Dict[str, Any]],
) -> List[Tuple[Dict[str, Any], List]]:
    """Nest one trace's records as ``(record, children)`` pairs, roots
    first, children ordered by start time.  A record whose parent is
    missing (sampled away, torn line) becomes a root rather than being
    dropped."""
    ids = {r.get("span"): r for r in records}
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for record in records:
        parent = record.get("parent")
        key = parent if parent in ids else None
        children.setdefault(key, []).append(record)

    def nest(record: Dict[str, Any]):
        kids = sorted(
            children.get(record.get("span"), []),
            key=lambda r: r.get("start_ns", 0),
        )
        return (record, [nest(kid) for kid in kids])

    roots = sorted(children.get(None, []), key=lambda r: r.get("start_ns", 0))
    return [nest(root) for root in roots]


def render_tree(records: List[Dict[str, Any]]) -> str:
    """A text rendering of one trace — the ``repro spans show`` body."""
    if not records:
        return "(no spans)\n"
    base = min(r.get("start_ns", 0) for r in records)
    lines: List[str] = []

    def fmt(node, depth: int) -> None:
        record, kids = node
        offset_ms = (record.get("start_ns", 0) - base) / 1e6
        dur_ms = record.get("dur_ns", 0) / 1e6
        attrs = record.get("attrs") or {}
        extras = " ".join(
            f"{key}={attrs[key]}"
            for key in sorted(attrs)
            if attrs[key] is not None
        )
        lines.append(
            f"  {'  ' * depth}{record.get('name', '?'):<{max(1, 24 - 2 * depth)}s}"
            f" +{offset_ms:9.3f}ms {dur_ms:9.3f}ms"
            f"  [pid {record.get('pid', '?')}]"
            + (f"  {extras}" if extras else "")
        )
        for kid in kids:
            fmt(kid, depth + 1)

    trace_id = records[0].get("trace")
    lines.insert(0, f"trace {trace_id} — {len(records)} span(s)")
    lines.insert(1, f"  {'span':<24s} {'offset':>11s} {'duration':>10s}")
    for root in build_tree(records):
        fmt(root, 0)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Critical-path attribution
# ---------------------------------------------------------------------------


def self_times(records: List[Dict[str, Any]]) -> Dict[str, int]:
    """Per-span *self* time (duration minus child durations, floored at
    zero), keyed by span id."""
    out: Dict[str, int] = {}

    def walk(node) -> None:
        record, kids = node
        child_ns = sum(kid[0].get("dur_ns", 0) for kid in kids)
        out[record.get("span")] = max(0, record.get("dur_ns", 0) - child_ns)
        for kid in kids:
            walk(kid)

    for root in build_tree(records):
        walk(root)
    return out


def critical_path(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Seconds of self time per category (admission / queue / compile /
    cache / write / intake / other) for one trace — where the request's
    wall-clock actually went."""
    selfs = self_times(records)
    by_id = {r.get("span"): r for r in records}
    out: Dict[str, float] = {}
    for span_id, self_ns in selfs.items():
        record = by_id[span_id]
        category = category_of(str(record.get("name", "")))
        out[category] = out.get(category, 0.0) + self_ns / 1e9
    return out


def critical_path_summary(
    traces: List[List[Dict[str, Any]]],
) -> Dict[str, float]:
    """Aggregate :func:`critical_path` over several traces."""
    out: Dict[str, float] = {}
    for records in traces:
        for category, seconds in critical_path(records).items():
            out[category] = out.get(category, 0.0) + seconds
    return out
