"""``repro.observe.reqtrace`` — per-request distributed tracing.

Every request entering the system (the serve daemon over TCP or stdio,
``repro batch``, loadgen, and one ``repro run`` or ``repro bench``
operation) gets a **trace ID** and a tree of span records covering its
full lifecycle: intake/parse, admission, single-flight dedup, queue,
the worker's per-pass compile spans, the VM run, and the response
write.  A :class:`RequestTrace` is the one
:class:`~repro.observe.tracer.Tracer` plus a root span; a pool worker
records under the context the parent shipped with the task (its parent
is the ``run`` span id allocated before submitting) and sends its
records home unchanged.

The design follows Dapper / OpenTelemetry practice, scaled down:

* **Context propagation** — a simplified ``traceparent`` of the form
  ``"<trace 16 hex>-<span 16 hex>"`` rides the JSON-lines protocol.
  A client (loadgen) that sends one owns the trace ID; the daemon's
  root request span becomes a child of the client span, and every
  response echoes the ``traceparent`` so the client can log it.
* **One clock rule** — records carry *absolute wall-clock*
  nanoseconds from each tracer's clock anchor; at :meth:`finish`,
  :func:`normalize` expands every parent to cover its children, so
  daemon and worker spans nest monotonically without a shared clock.
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

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.observe.recorder import set_active_trace
from repro.observe.spanstore import SpanStore
from repro.observe.tracer import Tracer, new_span_id, new_trace_id


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


class RequestTrace(Tracer):
    """One request's trace: a :class:`Tracer` whose top-level spans hang
    under a root span, buffered until :meth:`finish` closes the root,
    normalizes the clocks, and lets the tail sampler decide its fate."""

    def __init__(
        self,
        reqtracer: "ReqTracer",
        trace_id: str,
        parent_span: Optional[str] = None,
        name: str = "request",
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(trace_id, new_span_id(), reqtracer.service)
        self.reqtracer = reqtracer
        self.name = name
        self.attrs = dict(attrs or {})
        #: The client's span (from its ``traceparent``) the root hangs under.
        self.client_span = parent_span
        self.start_ns = self.now_ns()
        self.finished = False
        self.decision: Optional[str] = None

    def traceparent(self) -> str:
        return format_traceparent(self.trace_id, self.parent)

    def finish(self, status: str = "ok", **attrs: Any) -> Tuple[bool, str]:
        """Close the root span, let the sampler decide, and (when kept)
        write the whole trace to the span store.  Idempotent."""
        if self.finished:
            return self.decision not in (None, "dropped"), self.decision or "dropped"
        self.finished = True
        while self._stack:  # close anything left open (error paths)
            self._close(self._stack[-1])
        end_ns = self.now_ns()
        self.attrs.update(attrs)
        self.attrs["status"] = status
        self.latency_s = (end_ns - self.start_ns) / 1e9
        self._append(
            self.parent, self.name, self.start_ns, end_ns - self.start_ns,
            self.client_span, self.attrs,
        )
        normalize(self.records)
        keep, reason = self.reqtracer.sampler.decide(status, self.latency_s)
        self.decision = reason
        if keep:
            self.reqtracer.store.append_trace(self.records)
        self.reqtracer._count_trace(reason)
        set_active_trace(None)
        return keep, reason


def normalize(records: List[Dict[str, Any]]) -> None:
    """Expand every parent to cover its children — the one clock rule.
    Records timed in different processes (a run window rebuilt from the
    pool's ``run_s`` vs. the worker's own spans on its own clock anchor)
    can disagree by the result-queue latency; nesting must still be
    monotonic for the tree to read truthfully."""
    by_id = {r["span"]: r for r in records}
    kids: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
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

    for record in records:
        if record.get("parent") not in by_id:
            walk(record)


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
