"""``repro.observe.reqtrace`` — per-request distributed tracing.

Every request entering the system (the serve daemon over TCP or stdio,
``repro batch``, loadgen) gets a **trace ID** and a tree of spans
covering its full lifecycle: intake/parse, admission, single-flight
dedup, queue, the worker's per-pass compile spans (the PR 1
:class:`~repro.observe.tracer.Tracer` runs inside the worker and its
spans are re-parented under the request via the trace context shipped
in the task tuple), cache-tier lookups, and the response write.

The design follows Dapper / OpenTelemetry practice, scaled down:

* **Context propagation** — a simplified ``traceparent`` of the form
  ``"<trace 16 hex>-<span 16 hex>"`` rides the JSON-lines protocol.
  A client (loadgen) that sends one owns the trace ID; the daemon's
  root request span becomes a child of the client span, and every
  response echoes the ``traceparent`` so the client can log it.
* **Clock-offset correction** — spans carry *absolute wall-clock*
  nanoseconds: each process anchors ``time.time_ns()`` against
  ``time.perf_counter_ns()`` once and derives every timestamp from the
  monotonic clock (the PR 5 trace-context machinery), so daemon and
  worker spans nest correctly without a shared clock.
* **Tail-based sampling** — the keep/drop decision happens at the
  *end* of the request, when its status and latency are known:
  error/overloaded/timeout traces are always kept, so are the
  slowest-k per window, and the rest are sampled at ``rate``.
* **Exemplars** — request-latency histogram buckets remember one
  concrete trace ID each (see
  :meth:`~repro.observe.metrics.MetricsRegistry.record_exemplar`), so
  ``repro top`` and SLO failures can name an offending trace.

Kept traces land in the bounded :class:`~repro.observe.spanstore.SpanStore`
and are queried with ``repro spans list/show/slowest/export``.
"""

from __future__ import annotations

import os
import random
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.observe.recorder import set_active_trace
from repro.observe.spanstore import SpanStore


def new_trace_id() -> str:
    return os.urandom(8).hex()


def new_span_id() -> str:
    return os.urandom(8).hex()


def format_traceparent(trace_id: str, span_id: str) -> str:
    return f"{trace_id}-{span_id}"


def parse_traceparent(text: Any) -> Optional[Tuple[str, str]]:
    """``(trace_id, span_id)`` from a ``traceparent`` header value, or
    ``None`` when malformed (a bad header never fails a request)."""
    if not isinstance(text, str):
        return None
    parts = text.strip().split("-")
    if len(parts) != 2:
        return None
    trace_id, span_id = parts
    if len(trace_id) != 16 or len(span_id) != 16:
        return None
    try:
        int(trace_id, 16)
        int(span_id, 16)
    except ValueError:
        return None
    return trace_id.lower(), span_id.lower()


class TailSampler:
    """Decides *after* a request finishes whether its trace is kept.

    * any non-``ok`` status (error, overloaded, timeout, …) → kept,
      reason ``"error"`` — always, regardless of ``rate``;
    * the ``slowest_k`` requests per ``window`` decisions → kept,
      reason ``"slow"``;
    * otherwise kept with probability ``rate`` (reason ``"sampled"``)
      or dropped (reason ``"dropped"``).
    """

    def __init__(
        self,
        rate: float = 1.0,
        slowest_k: int = 4,
        window: int = 256,
        seed: Optional[int] = None,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.slowest_k = slowest_k
        self.window = window
        self._rng = random.Random(seed)
        self._seen = 0
        self._slowest: List[float] = []  # ascending, at most slowest_k

    def decide(self, status: str, latency_s: float) -> Tuple[bool, str]:
        if status != "ok":
            return True, "error"
        self._seen += 1
        if self._seen > self.window:
            self._seen = 1
            self._slowest = []
        slow = False
        if self.slowest_k > 0:
            if len(self._slowest) < self.slowest_k:
                slow = True
            elif latency_s > self._slowest[0]:
                slow = True
                self._slowest.pop(0)
            if slow:
                self._slowest.append(latency_s)
                self._slowest.sort()
        if slow:
            return True, "slow"
        if self.rate >= 1.0 or self._rng.random() < self.rate:
            return True, "sampled"
        return False, "dropped"


class _Span:
    __slots__ = ("span_id", "name", "start_ns", "attrs", "parent")

    def __init__(self, span_id: str, name: str, start_ns: int,
                 attrs: Dict[str, Any], parent: Optional[str]) -> None:
        self.span_id = span_id
        self.name = name
        self.start_ns = start_ns
        self.attrs = attrs
        self.parent = parent


class _SpanHandle:
    """Context manager returned by :meth:`RequestTrace.span`."""

    def __init__(self, trace: "RequestTrace", span: _Span) -> None:
        self._trace = trace
        self._span = span

    @property
    def span_id(self) -> str:
        return self._span.span_id

    def set(self, **attrs: Any) -> None:
        self._span.attrs.update(attrs)

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._trace._pop(self._span)


class RequestTrace:
    """One request's span tree, buffered until :meth:`finish` lets the
    tail sampler decide its fate."""

    def __init__(
        self,
        tracer: "ReqTracer",
        trace_id: str,
        parent_span: Optional[str] = None,
        name: str = "request",
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.wall_epoch_ns = time.time_ns()
        self._epoch = time.perf_counter_ns()
        self.records: List[Dict[str, Any]] = []
        self._stack: List[_Span] = []
        self.root = _Span(
            new_span_id(), name, self.wall_epoch_ns, dict(attrs or {}),
            parent_span,
        )
        self.finished = False
        self.decision: Optional[str] = None

    # -- clock ----------------------------------------------------------

    def now_ns(self) -> int:
        return self.wall_epoch_ns + (time.perf_counter_ns() - self._epoch)

    # -- span API -------------------------------------------------------

    @property
    def current_span(self) -> str:
        return self._stack[-1].span_id if self._stack else self.root.span_id

    def traceparent(self) -> str:
        return format_traceparent(self.trace_id, self.root.span_id)

    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        span = _Span(new_span_id(), name, self.now_ns(), dict(attrs),
                     self.current_span)
        self._stack.append(span)
        return _SpanHandle(self, span)

    def _pop(self, span: _Span) -> None:
        if span in self._stack:
            # Pop anything left dangling below it too (exception paths).
            while self._stack:
                top = self._stack.pop()
                self._emit(top, self.now_ns())
                if top is span:
                    break

    def _emit(self, span: _Span, end_ns: int) -> None:
        self.record(
            span.name,
            span.start_ns,
            max(0, end_ns - span.start_ns),
            parent=span.parent,
            span_id=span.span_id,
            **span.attrs,
        )

    def record(
        self,
        name: str,
        start_ns: int,
        dur_ns: int,
        parent: Optional[str] = None,
        span_id: Optional[str] = None,
        **attrs: Any,
    ) -> str:
        """Append one explicit span record (for intervals measured
        elsewhere — intake timed before the trace existed, queue/run
        times reported by the pool).  Returns the span id."""
        sid = span_id or new_span_id()
        self.records.append(
            {
                "trace": self.trace_id,
                "span": sid,
                "parent": self.root.span_id if parent is None else parent,
                "name": name,
                "start_ns": int(start_ns),
                "dur_ns": int(dur_ns),
                "pid": os.getpid(),
                "service": self.tracer.service,
                "attrs": attrs or {},
            }
        )
        return sid

    # -- cross-process --------------------------------------------------

    def context(self, parent: Optional[str] = None) -> Dict[str, Any]:
        """The plain-data trace context shipped to a worker — the same
        shape :meth:`repro.observe.tracer.Tracer.context` produces, so
        ``serve/work.py`` forwards it unchanged."""
        return {
            "trace_id": self.trace_id,
            "parent_span": parent or self.current_span,
            "wall_epoch_ns": self.wall_epoch_ns,
            "pid": os.getpid(),
        }

    def absorb_payload(
        self, payload: Optional[Dict[str, Any]], parent: Optional[str] = None
    ) -> int:
        """Convert a worker's :func:`~repro.observe.tracer.span_payload`
        into absolute-time records under *parent*.

        Worker spans carry monotonic offsets from the worker's own
        anchor plus the worker's ``wall_epoch_ns`` — adding them yields
        wall-clock nanoseconds comparable with daemon spans.  Parentage
        inside the payload is reconstructed from span intervals (the
        worker tracer names parents, it does not give them ids)."""
        if not payload or payload.get("trace_id") not in (None, self.trace_id):
            return 0
        spans = payload.get("spans") or []
        if not spans:
            return 0
        epoch = int(payload.get("wall_epoch_ns") or self.wall_epoch_ns)
        pid = payload.get("pid")
        base_parent = parent or self.current_span
        ordered = sorted(
            (dict(span) for span in spans),
            key=lambda s: (s.get("start", 0), -s.get("dur", 0)),
        )
        open_stack: List[Tuple[int, str]] = []  # (end_ns, span_id)
        count = 0
        for span in ordered:
            start = epoch + int(span.get("start", 0))
            dur = int(span.get("dur", 0))
            while open_stack and open_stack[-1][0] <= start:
                open_stack.pop()
            parent_id = open_stack[-1][1] if open_stack else base_parent
            attrs = dict(span.get("args") or {})
            sid = new_span_id()
            self.records.append(
                {
                    "trace": self.trace_id,
                    "span": sid,
                    "parent": parent_id,
                    "name": span.get("name", "?"),
                    "start_ns": start,
                    "dur_ns": dur,
                    "pid": pid,
                    "service": "worker",
                    "attrs": attrs,
                }
            )
            open_stack.append((start + dur, sid))
            count += 1
        return count

    def _normalize(self) -> None:
        """Expand every parent to cover its children.  Spans timed on
        different clocks (a run window reconstructed from the pool's
        ``run_s`` vs. worker spans on the worker's wall anchor) can
        disagree by the result-queue latency; nesting must still be
        monotonic for the tree to read truthfully."""
        by_id = {r["span"]: r for r in self.records}
        kids: Dict[str, List[Dict[str, Any]]] = {}
        for record in self.records:
            parent = record.get("parent")
            if parent in by_id:
                kids.setdefault(parent, []).append(record)

        def walk(record: Dict[str, Any]) -> None:
            end = record["start_ns"] + record["dur_ns"]
            for kid in kids.get(record["span"], ()):
                walk(kid)
                record["start_ns"] = min(record["start_ns"], kid["start_ns"])
                end = max(end, kid["start_ns"] + kid["dur_ns"])
            record["dur_ns"] = end - record["start_ns"]

        for record in self.records:
            if record.get("parent") not in by_id:
                walk(record)

    # -- finish ---------------------------------------------------------

    def finish(self, status: str = "ok", **attrs: Any) -> Tuple[bool, str]:
        """Close the root span, let the sampler decide, and (when kept)
        write the whole trace to the span store.  Idempotent."""
        if self.finished:
            return self.decision not in (None, "dropped"), self.decision or "dropped"
        self.finished = True
        end_ns = self.now_ns()
        while self._stack:  # close anything left open (error paths)
            self._emit(self._stack.pop(), end_ns)
        root = self.root
        root.attrs.update(attrs)
        root.attrs["status"] = status
        latency_s = (end_ns - root.start_ns) / 1e9
        self.latency_s = latency_s
        self.record(
            root.name,
            root.start_ns,
            end_ns - root.start_ns,
            parent=root.parent or "",
            span_id=root.span_id,
            **root.attrs,
        )
        # The explicit-parent convention above uses "" to mean "root":
        # record() would have substituted root.span_id for None.
        self.records[-1]["parent"] = root.parent
        self._normalize()
        keep, reason = self.tracer.sampler.decide(status, latency_s)
        self.decision = reason
        if keep:
            self.tracer.store.append_trace(self.records)
        self.tracer._count_trace(reason)
        set_active_trace(None)
        return keep, reason


class ReqTracer:
    """The per-daemon request-tracing front end: hands out
    :class:`RequestTrace` objects and owns the store + sampler."""

    def __init__(
        self,
        store: Optional[SpanStore],
        sampler: Optional[TailSampler] = None,
        registry=None,
        service: str = "serve",
    ) -> None:
        self.store = store
        self.sampler = sampler or TailSampler()
        self.registry = registry
        self.service = service

    @property
    def enabled(self) -> bool:
        return self.store is not None

    def start(
        self,
        name: str = "request",
        traceparent: Any = None,
        **attrs: Any,
    ) -> Optional[RequestTrace]:
        """Begin a trace (or ``None`` when tracing is off — callers
        guard every touch behind ``if trace is not None``, so disabled
        tracing costs one attribute check)."""
        if not self.enabled:
            return None
        parsed = parse_traceparent(traceparent)
        if parsed is not None:
            trace_id, parent_span = parsed
        else:
            trace_id, parent_span = new_trace_id(), None
        trace = RequestTrace(self, trace_id, parent_span, name, attrs)
        set_active_trace(trace_id)
        return trace

    def _count_trace(self, decision: str) -> None:
        registry = self.registry
        if registry is not None and registry.enabled:
            from repro.observe.catalog import declare

            declare(registry, "repro_trace_traces").labels(
                decision=decision
            ).inc()

    def exemplar(
        self,
        name: str,
        label_names: Tuple[str, ...],
        label_values: Tuple[str, ...],
        value: float,
        trace_id: str,
    ) -> None:
        """Attach *trace_id* as the exemplar for the latency bucket
        *value* falls into (no-op when metrics are off)."""
        registry = self.registry
        if registry is not None and registry.enabled:
            registry.record_exemplar(
                name, label_names, label_values, value, trace_id
            )


def build_reqtracer(
    trace_dir: Optional[str],
    sample: float = 1.0,
    registry=None,
    service: str = "serve",
    seed: Optional[int] = None,
) -> Optional[ReqTracer]:
    """The standard construction path used by serve/batch/CLI: ``None``
    when no trace directory is configured (tracing off)."""
    if not trace_dir:
        return None
    store = SpanStore(trace_dir, registry=registry)
    sampler = TailSampler(rate=sample, seed=seed)
    return ReqTracer(store, sampler, registry=registry, service=service)
