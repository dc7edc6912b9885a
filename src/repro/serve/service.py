"""The batch compilation service.

One :class:`BatchService` executes many (program, config) requests —
compile-only or compile-and-run — against the compile cache, either
inline (``jobs=1``: no subprocesses, shared in-process cache) or over
the :class:`~repro.serve.pool.WorkerPool` (``jobs>1``: per-request
timeouts, instruction budgets, and crash isolation).

Requests and responses are plain dataclasses with dict forms, shared
with the JSON-lines protocols (``repro batch`` request files and the
``repro serve`` daemon; see :mod:`repro.serve.net.server` and
``docs/serving.md``).

Observability: given a request tracer (``reqtracer``), every request
gets its own trace in the span store, exactly like a daemon request —
``request`` > ``run`` > the compile passes and ``execute``, recorded
in process (``jobs=1``) or by the worker under the shipped context;
:meth:`BatchService.stats` exposes the cache hit/miss/evict counters
and the pool's queue-depth and latency metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.config import CompilerConfig
from repro.observe import NULL_TRACER, new_span_id
from repro.observe.catalog import declare
from repro.observe.metrics import get_registry
from repro.observe.recorder import get_flight_recorder
from repro.serve import work
from repro.serve.cache import CompileCache
from repro.serve.pool import TaskResult, WorkerPool

OPS = ("compile", "run")


def _check_number(name: str, value: Any, types, noun: str) -> None:
    """Raise ``TypeError`` unless *value* is None or of *types*.  A
    bool is not a number here, though Python counts it as an int."""
    if value is not None and (isinstance(value, bool) or not isinstance(value, types)):
        raise TypeError(f"{name} must be null or {noun}, not {type(value).__name__}")


@dataclass
class Request:
    """One unit of service work."""

    op: str
    source: str
    config: Optional[CompilerConfig] = None
    id: Optional[Any] = None
    prelude: bool = True
    max_instructions: Optional[int] = None
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        # A mistyped field fails here, at intake, and never reaches a
        # worker or the pool's deadline sweep.
        if self.op not in OPS:
            raise ValueError(f"unknown op {self.op!r} (expected one of {OPS})")
        if not isinstance(self.source, str):
            raise TypeError(f"source must be a string, not {type(self.source).__name__}")
        if not isinstance(self.prelude, bool):
            raise TypeError(f"prelude must be true or false, not {type(self.prelude).__name__}")
        _check_number("max_instructions", self.max_instructions, int, "an integer")
        _check_number("timeout", self.timeout, (int, float), "a number")

    def payload(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "config": (self.config or CompilerConfig()).as_dict(),
            "prelude": self.prelude,
            "max_instructions": self.max_instructions,
        }

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "Request":
        config = doc.get("config")
        return Request(
            op=doc.get("op", "run"),
            source=doc["source"],
            config=CompilerConfig.from_dict(config) if config else None,
            id=doc.get("id"),
            prelude=doc.get("prelude", True),
            max_instructions=doc.get("max_instructions"),
            timeout=doc.get("timeout"),
        )


@dataclass
class Response:
    """What the client sees for one request (see docs/serving.md for
    the failure-mode table)."""

    id: Any
    op: str
    ok: bool
    cached: bool = False
    value: Optional[str] = None
    output: str = ""
    counters: Optional[Dict[str, Any]] = None
    instructions: Optional[int] = None
    procedures: Optional[int] = None
    error_kind: Optional[str] = None
    error: Optional[str] = None
    queued_s: float = 0.0
    run_s: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"id": self.id, "op": self.op, "ok": self.ok}
        if self.ok:
            doc["cached"] = self.cached
            if self.op == "run":
                doc["value"] = self.value
                doc["output"] = self.output
                doc["counters"] = self.counters
            else:
                doc["instructions"] = self.instructions
                doc["procedures"] = self.procedures
        else:
            doc["error_kind"] = self.error_kind
            doc["error"] = self.error
        doc["queued_s"] = round(self.queued_s, 6)
        doc["run_s"] = round(self.run_s, 6)
        return doc


# -- response assembly ------------------------------------------------


def _ok_response(request: Request, index: int, value: Dict[str, Any]) -> Response:
    return Response(
        id=request.id if request.id is not None else index,
        op=request.op,
        ok=True,
        cached=bool(value.get("cached")),
        value=value.get("value"),
        output=value.get("output", ""),
        counters=value.get("counters"),
        instructions=value.get("instructions"),
        procedures=value.get("procedures"),
    )


def _error_response(request: Request, index: int, kind: str, message: str) -> Response:
    return Response(
        id=request.id if request.id is not None else index,
        op=request.op,
        ok=False,
        error_kind=kind,
        error=message,
    )


def response_from_task(request: Request, index: int, result: TaskResult) -> Response:
    """Translate a pool :class:`TaskResult` into the wire response."""
    if result.ok and result.value is not None:
        response = _ok_response(request, index, result.value)
    else:
        response = _error_response(
            request, index, result.error_kind or "error", result.error or ""
        )
    response.queued_s = result.queued_s
    response.run_s = result.run_s
    return response


def record_pool_run(trace, run_id: str, result: TaskResult, parent=None) -> None:
    """Record the pool's queue/run split for a task submitted under
    ``trace.context(run_id)``, re-timed onto the wall clock (the run
    ends when the result was received, the queue ends where the run
    began), and adopt the worker's records."""
    queued_ns = int(result.queued_s * 1e9)
    run_ns = int(result.run_s * 1e9)
    received = trace.now_ns() - (time.perf_counter_ns() - result.received_ns)
    run_start = received - run_ns
    trace.record("queue", run_start - queued_ns, queued_ns, parent=parent)
    trace.record("run", run_start, run_ns, parent=parent, span_id=run_id)
    if result.meta and result.meta.get("spans"):
        trace.records.extend(result.meta["spans"])


class BatchService:
    """Execute request batches against the cache and (optionally) the
    worker pool."""

    def __init__(
        self,
        jobs: int = 1,
        cache: bool = True,
        cache_dir: Optional[str] = None,
        disk_cache: bool = True,
        registry=None,
        recorder=None,
        flight_dir: Optional[str] = None,
        reqtracer=None,
    ) -> None:
        self.jobs = max(1, jobs)
        #: Per-request tracer (repro.observe.reqtrace.ReqTracer) — when
        #: set, every batch request gets its own trace in the span
        #: store, exactly like a daemon request.
        self.reqtracer = reqtracer
        # The service layer is where telemetry is *on*: per-request
        # counting happens at request granularity, so enabling the
        # registry here costs nothing measurable on the compile path.
        self.registry = registry if registry is not None else get_registry()
        self.registry.enable()
        self.recorder = recorder if recorder is not None else get_flight_recorder()
        self.flight_dir = flight_dir
        #: Flight-recorder dump paths written during pooled batches.
        self.flight_dumps: List[str] = []
        self._cache_enabled = cache
        self._cache_dir = cache_dir
        self._disk_cache = disk_cache
        # Inline-mode cache; pool workers each open their own (same
        # disk root, process-local memory tier).
        self.cache: Optional[CompileCache] = (
            CompileCache(root=cache_dir, disk=disk_cache, registry=self.registry)
            if cache and self.jobs <= 1
            else None
        )
        self._pool: Optional[WorkerPool] = None
        self._responses = 0
        self._errors: Dict[str, int] = {}
        self._hits = 0
        self._misses = 0

    # -- execution ------------------------------------------------------

    def run(
        self,
        requests: List[Request],
        on_response: Optional[Callable[[Response], None]] = None,
    ) -> List[Response]:
        """Execute a batch; responses are returned in request order.
        ``on_response`` fires in *completion* order as results arrive."""
        if self.jobs <= 1:
            return self._run_inline(requests, on_response)
        return self._run_pool(requests, on_response)

    def _start_trace(self, request: Request):
        if self.reqtracer is None:
            return None
        return self.reqtracer.start(op=request.op, id=request.id)

    @staticmethod
    def _finish_trace(trace, response: Response) -> None:
        if trace is not None:
            status = "ok" if response.ok else (response.error_kind or "error")
            trace.finish(status, cached=response.cached)

    def _run_inline(self, requests, on_response) -> List[Response]:
        state = {"cache": self.cache} if self.cache is not None else {}
        responses = []
        for index, request in enumerate(requests):
            trace = self._start_trace(request)
            # The handler compiles (and runs) under the request's trace.
            state["tracer"] = trace
            started = time.perf_counter()
            try:
                with (trace or NULL_TRACER).span("run"):
                    value = work.HANDLERS[request.op](request.payload(), state)
                response = _ok_response(request, index, value)
            except Exception as exc:  # noqa: BLE001 - classified below
                response = _error_response(
                    request, index, work.error_kind(exc),
                    f"{type(exc).__name__}: {exc}",
                )
            response.run_s = time.perf_counter() - started
            self._record(response)
            self._finish_trace(trace, response)
            if on_response is not None:
                on_response(response)
            responses.append(response)
        return responses

    def _run_pool(self, requests, on_response) -> List[Response]:
        by_task: Dict[int, Any] = {}
        responses: List[Optional[Response]] = [None] * len(requests)
        with WorkerPool(
            jobs=self.jobs,
            cache=self._cache_enabled,
            cache_dir=self._cache_dir,
            disk_cache=self._disk_cache,
            registry=self.registry,
            recorder=self.recorder,
            flight_dir=self.flight_dir,
        ) as pool:
            self._pool = pool
            for index, request in enumerate(requests):
                trace = self._start_trace(request)
                # The worker's records hang under this run span id.
                run_id = new_span_id() if trace is not None else None
                task_id = pool.submit(
                    request.op, request.payload(), timeout=request.timeout,
                    trace=trace.context(run_id) if trace is not None else None,
                )
                by_task[task_id] = (index, trace, run_id)
            for result in pool.results():
                index, trace, run_id = by_task[result.task_id]
                response = response_from_task(requests[index], index, result)
                self._record(response)
                if trace is not None:
                    record_pool_run(trace, run_id, result)
                    self._finish_trace(trace, response)
                if on_response is not None:
                    on_response(response)
                responses[index] = response
            self.pool_stats = pool.stats()
            self.flight_dumps.extend(pool.flight_dumps)
            self._pool = None
        return [r for r in responses if r is not None]

    def _record(self, response: Response) -> None:
        self._responses += 1
        if response.ok:
            if response.cached:
                self._hits += 1
            else:
                self._misses += 1
        else:
            kind = response.error_kind or "error"
            self._errors[kind] = self._errors.get(kind, 0) + 1
        status = "ok" if response.ok else (response.error_kind or "error")
        if self.registry.enabled:
            declare(self.registry, "repro_requests").labels(
                op=response.op, status=status
            ).inc()
            declare(self.registry, "repro_request_seconds").labels(
                op=response.op
            ).observe(max(0.0, response.queued_s + response.run_s))
        self.recorder.record(
            "request",
            id=response.id,
            op=response.op,
            status=status,
            cached=response.cached,
        )

    # -- metrics --------------------------------------------------------

    pool_stats: Optional[Dict[str, Any]] = None

    def stats(self) -> Dict[str, Any]:
        """Service metrics: request/error tallies, cache counters (the
        inline cache's full stats when it exists, otherwise the
        hit/miss view aggregated from worker responses), and — after a
        pooled batch — the pool's queue/latency telemetry."""
        doc: Dict[str, Any] = {
            "requests": self._responses,
            "ok": self._responses - sum(self._errors.values()),
            "errors": dict(self._errors),
            "cache": {"hits": self._hits, "misses": self._misses},
        }
        if self.cache is not None:
            doc["cache"].update(self.cache.stats.as_dict())
        pool = self._pool.stats() if self._pool is not None else self.pool_stats
        if pool is not None:
            doc["pool"] = pool
        if self.flight_dumps:
            doc["flight_dumps"] = list(self.flight_dumps)
        return doc

    def write_metrics(self, path: str) -> None:
        """Persist the registry snapshot (the ``repro metrics`` input)."""
        self.registry.dump(path)


def summarize(responses: List[Response]) -> Dict[str, Any]:
    """A batch summary document (the ``repro batch --json`` output)."""
    errors: Dict[str, int] = {}
    hits = misses = 0
    for response in responses:
        if response.ok:
            hits += 1 if response.cached else 0
            misses += 0 if response.cached else 1
        else:
            kind = response.error_kind or "error"
            errors[kind] = errors.get(kind, 0) + 1
    return {
        "requests": len(responses),
        "ok": len(responses) - sum(errors.values()),
        "errors": errors,
        "cache_hits": hits,
        "cache_misses": misses,
    }
