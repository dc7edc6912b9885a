"""The span model: one record shape and one recorder.

Every span in the system — a compiler pass, the VM run, one
per-procedure profile row, a daemon's queue wait, a worker's compile —
is the same flat, self-describing record::

    {"trace": "9f…", "span": "03…", "parent": "01…"|None,
     "name": "allocate", "start_ns": <wall ns>, "dur_ns": <ns>,
     "pid": 1234, "service": "worker", "attrs": {...}}

``start_ns`` is wall-clock nanoseconds derived from the tracer's one
clock anchor: ``time.time_ns()`` read once against the monotonic clock,
every later timestamp taken monotonically.  Records from different
processes therefore order and nest on one timeline, up to the small
disagreements that :func:`repro.observe.reqtrace.normalize` removes.

* :class:`Tracer` records them (``with tracer.span("expand"): ...``,
  or :meth:`Tracer.record` for an interval timed elsewhere).  A worker
  process builds its tracer from the context the parent shipped
  (:meth:`Tracer.from_context`), so its records carry the parent's
  trace id and hang under the parent's span, and go home unchanged.
* :class:`NullTracer` — the module-level :data:`NULL_TRACER` is the
  default everywhere — returns one shared no-op span, so instrumented
  code pays (nearly) nothing when tracing is off.  Code that computes
  span attributes guards the work on ``tracer.enabled``.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List, Optional


class TraceError(Exception):
    """Raised on malformed span nesting (closing a span that is not
    the innermost open one)."""


def new_trace_id() -> str:
    """A 16-hex-digit trace id (random, per top-level operation)."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A 16-hex-digit span id."""
    return os.urandom(8).hex()


class _NullSpan:
    """A reusable no-op context manager; one shared instance serves
    every ``NullTracer.span`` call (no per-call allocation)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: records nothing, allocates nothing."""

    __slots__ = ()

    enabled = False
    records = ()

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN


NULL_TRACER = NullTracer()


class _Span:
    """An open span; closing it appends its record.  The record shares
    the span's ``attrs`` dict, so :meth:`set` after the ``with`` block
    still lands (stats computed outside the timed interval)."""

    __slots__ = ("_tracer", "span_id", "name", "start_ns", "parent", "attrs")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.span_id = new_span_id()
        self.name = name
        self.parent = tracer.current
        self.attrs = attrs
        self.start_ns = tracer.now_ns()

    def set(self, **attrs: Any) -> "_Span":
        """Attach (or overwrite) attributes on this span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self)
        return False


class Tracer:
    """Records span records into :attr:`records` (completion order;
    sort on ``start_ns`` for a timeline).

    *parent* is the span id that top-level spans hang under (a shipped
    context's span, or a request trace's root); *clock* is injectable
    (nanoseconds, monotonic) so tests can be deterministic.
    """

    enabled = True

    def __init__(
        self,
        trace_id: Optional[str] = None,
        parent: Optional[str] = None,
        service: str = "repro",
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.parent = parent
        self.service = service
        self._clock = clock
        self._wall = time.time_ns()
        self._mono = clock()
        self.records: List[Dict[str, Any]] = []
        self._stack: List[_Span] = []

    @classmethod
    def from_context(cls, context: Dict[str, Any], service: str = "worker") -> "Tracer":
        """The tracer a worker records under: the shipped trace id, with
        the parent's span (see :meth:`context`) as the parent of every
        top-level span."""
        return cls(context["trace_id"], context.get("parent"), service)

    def now_ns(self) -> int:
        """Wall-clock nanoseconds, from this tracer's clock anchor."""
        return self._wall + (self._clock() - self._mono)

    @property
    def current(self) -> Optional[str]:
        """The innermost open span's id (else :attr:`parent`)."""
        return self._stack[-1].span_id if self._stack else self.parent

    def context(self, parent: Optional[str] = None) -> Dict[str, Any]:
        """The plain-data trace context shipped to a worker: the trace
        id and the span the worker's records hang under."""
        return {"trace_id": self.trace_id, "parent": parent or self.current}

    # -- recording ------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _Span:
        span = _Span(self, name, attrs)
        self._stack.append(span)
        return span

    def _close(self, span: _Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise TraceError(
                f"span {span.name!r} closed out of order "
                f"(open: {[s.name for s in self._stack]})"
            )
        self._stack.pop()
        self._append(
            span.span_id, span.name, span.start_ns,
            self.now_ns() - span.start_ns, span.parent, span.attrs,
        )

    def record(
        self,
        name: str,
        start_ns: int,
        dur_ns: int,
        /,
        parent: Optional[str] = None,
        span_id: Optional[str] = None,
        **attrs: Any,
    ) -> str:
        """Append one record for an interval measured elsewhere (intake
        timed before the trace existed, queue/run times reported by the
        pool); *parent* defaults to :attr:`current`.  Returns its id."""
        sid = span_id or new_span_id()
        self._append(
            sid, name, start_ns, dur_ns,
            self.current if parent is None else parent, attrs,
        )
        return sid

    def _append(
        self,
        span_id: str,
        name: str,
        start_ns: int,
        dur_ns: int,
        parent: Optional[str],
        attrs: Dict[str, Any],
    ) -> None:
        self.records.append(
            {
                "trace": self.trace_id,
                "span": span_id,
                "parent": parent,
                "name": name,
                "start_ns": int(start_ns),
                "dur_ns": max(0, int(dur_ns)),
                "pid": os.getpid(),
                "service": self.service,
                "attrs": attrs,
            }
        )
