"""A crash-isolated multi-process worker pool.

Unlike ``multiprocessing.Pool`` (where a dying worker can wedge or
poison the whole pool) the scheduler here keeps every queued task on
the parent side and hands tasks to idle workers one at a time.  That
buys the service guarantees the batch/serve layer advertises:

* **crash isolation** — a worker that dies (segfault, ``os._exit``,
  OOM kill) fails *its* task with ``error_kind="crash"`` and is
  replaced; every other task is unaffected;
* **per-task timeouts** — a task that exceeds its deadline has its
  worker terminated and fails with ``error_kind="timeout"``;
* **cancellation** — queued tasks are dropped without ever starting
  (``error_kind="cancelled"``); a running task's worker is terminated.

Task payloads and results must be picklable plain data.  The work
itself is named by *kind* and resolved in the worker against the
handler registry in :mod:`repro.serve.work`, which is also where
worker-local state (each worker's compile cache) lives.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as _queue_mod
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait
from typing import Any, Dict, Iterator, List, Optional

from repro.observe.catalog import declare
from repro.observe.metrics import get_registry
from repro.observe.recorder import get_flight_recorder
from repro.serve.work import worker_main

#: Seconds the result-poll blocks between liveness/deadline sweeps.
_POLL_INTERVAL = 0.05


@dataclass
class TaskResult:
    """Outcome of one submitted task.

    ``ok`` tasks carry the handler's return dict in ``value``; failed
    tasks carry ``error_kind`` (``"timeout"``, ``"crash"``,
    ``"cancelled"``, ``"budget"``, ``"compile-error"``, ``"read-error"``,
    ``"runtime-error"``, ``"vm-error"``, or ``"error"``) and a one-line
    ``error`` message.  ``queued_s``/``run_s`` are the scheduler-side
    latency split (time waiting for a worker vs. time executing).
    ``meta`` is the worker's telemetry shipment (registry delta and/or
    span records); the pool merges the delta before handing the result
    out, and the submitter adopts the records into its trace.
    ``received_ns`` is when the submitting process learned the outcome
    (``time.perf_counter_ns``), so a consumer that gets to the result
    later can still place the run on its timeline.
    """

    task_id: int
    kind: str
    ok: bool
    value: Optional[Dict[str, Any]] = None
    error_kind: Optional[str] = None
    error: Optional[str] = None
    queued_s: float = 0.0
    run_s: float = 0.0
    meta: Optional[Dict[str, Any]] = None
    received_ns: int = field(default_factory=time.perf_counter_ns)


@dataclass
class _Task:
    task_id: int
    kind: str
    payload: Any
    timeout: Optional[float]
    #: Per-task trace context (``Tracer.context()``); the worker records
    #: its spans under it.  ``None``: the task is untraced.
    trace: Optional[Dict[str, Any]] = None
    submitted_at: float = field(default_factory=time.monotonic)


class _Worker:
    """One worker process plus its private task queue."""

    def __init__(self, ctx, worker_id: int, results, init: Dict[str, Any]) -> None:
        self.worker_id = worker_id
        self.inbox = ctx.Queue()
        self.proc = ctx.Process(
            target=worker_main,
            args=(worker_id, self.inbox, results, init),
            daemon=True,
        )
        self.proc.start()
        self.task: Optional[_Task] = None
        self.started_at: float = 0.0

    @property
    def busy(self) -> bool:
        return self.task is not None

    def assign(self, task: _Task) -> None:
        self.task = task
        self.started_at = time.monotonic()
        self.inbox.put((task.task_id, task.kind, task.payload, task.trace))

    def stop(self) -> None:
        try:
            self.inbox.put(None)
        except (OSError, ValueError):  # pragma: no cover - closed queue
            pass

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=5)
        self.inbox.close()


class WorkerPool:
    """Schedule tasks over *jobs* worker processes.

    Use as a context manager::

        with WorkerPool(jobs=4) as pool:
            ids = [pool.submit("run", {...}) for ...]
            for result in pool.results():
                ...

    ``init`` is passed to every worker at startup (see
    :func:`repro.serve.work.worker_main`); by default workers open the
    shared on-disk compile cache.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: bool = True,
        cache_dir: Optional[str] = None,
        disk_cache: bool = True,
        mp_context: Optional[str] = None,
        registry=None,
        recorder=None,
        flight_dir: Optional[str] = None,
    ) -> None:
        self.jobs = max(1, jobs)
        self._ctx = multiprocessing.get_context(mp_context)
        self._init = {
            "cache": cache,
            "cache_dir": cache_dir,
            "disk_cache": disk_cache,
        }
        self.registry = registry if registry is not None else get_registry()
        self.recorder = recorder if recorder is not None else get_flight_recorder()
        self.flight_dir = flight_dir
        self.flight_dumps: List[str] = []
        self._results = self._ctx.Queue()
        self._workers: Dict[int, _Worker] = {}
        self._next_worker_id = 0
        self._next_task_id = 0
        self._pending: "deque[_Task]" = deque()
        self._cancelled: set = set()
        # Results that resolved without a worker round-trip (tasks
        # cancelled while still queued), delivered by the next poll.
        self._ready: List[TaskResult] = []
        self._outstanding = 0
        # Workers killed by the scheduler (crash/timeout/cancel): the
        # next spawn that replaces one counts as a respawn.
        self._dead_workers = 0
        # Telemetry for the observe layer / service stats.
        self.queue_depth_max = 0
        self.submitted = 0
        self.completed = 0
        self.ok_count = 0
        self.error_count = 0
        self.crashes = 0
        self.timeouts = 0
        self.cancelled_count = 0
        self.respawns = 0
        self.latency_total_s = 0.0
        self.latency_max_s = 0.0

    # -- submission -----------------------------------------------------

    def submit(
        self,
        kind: str,
        payload: Any,
        timeout: Optional[float] = None,
        trace: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Queue one task; returns its id.  Tasks start as workers free
        up, in submission order.  *trace* is an optional trace context
        (``Tracer.context()``) shipped with the task: the worker records
        its spans under it and returns them in ``TaskResult.meta``."""
        task = _Task(self._next_task_id, kind, payload, timeout, trace)
        self._next_task_id += 1
        self._pending.append(task)
        self._outstanding += 1
        self.submitted += 1
        self.queue_depth_max = max(self.queue_depth_max, len(self._pending))
        self.recorder.record("pool.submit", task_id=task.task_id, kind=kind)
        if self.registry.enabled:
            declare(self.registry, "repro_pool_submitted").inc()
        self._dispatch()
        self._gauge_depth()
        return task.task_id

    def cancel(self, task_id: int) -> bool:
        """Cancel one task.  A queued task is dropped before it starts; a
        running task's worker is terminated.  Either way its result
        arrives as ``error_kind="cancelled"``.  Returns False when the
        id is unknown or already finished."""
        for task in self._pending:
            if task.task_id == task_id:
                self._cancelled.add(task_id)
                return True
        for worker in self._workers.values():
            if worker.task is not None and worker.task.task_id == task_id:
                self._ready.append(
                    self._fail_worker_task(
                        worker, "cancelled", "cancelled by caller"
                    )
                )
                return True
        return False

    def cancel_pending(self) -> int:
        """Drop every not-yet-started task; their results arrive as
        ``error_kind="cancelled"``.  Returns how many were dropped."""
        count = 0
        for task in self._pending:
            if task.task_id not in self._cancelled:
                self._cancelled.add(task.task_id)
                count += 1
        return count

    # -- collection -----------------------------------------------------

    def results(self) -> Iterator[TaskResult]:
        """Yield results in completion order until every submitted task
        has resolved (including cancelled/crashed/timed-out ones)."""
        while self._outstanding or self._ready:
            for result in self._poll(_POLL_INTERVAL):
                yield result

    def poll(
        self, timeout: float = _POLL_INTERVAL, wake: Optional[int] = None
    ) -> List[TaskResult]:
        """Non-draining collection step: whatever results are ready
        within *timeout* seconds (possibly none).  The daemon's bridge
        uses this to interleave result delivery with request intake.

        *wake* is a readable fd (the read end of a wake pipe) that also
        ends the wait: the caller makes it readable when it has new
        work to hand over, so a submit never waits out the timeout.
        The caller drains it; the pool only waits on it."""
        if not self._outstanding and not self._ready:
            return []
        return self._poll(timeout, wake)

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    @property
    def in_flight(self) -> int:
        return sum(1 for w in self._workers.values() if w.busy)

    def stats(self) -> Dict[str, Any]:
        """Scheduler telemetry (queue depth, latency, failure counts).

        Conservation invariant: every submitted task resolves exactly
        once, so ``submitted == ok + errors + cancelled + outstanding``
        (and with the pool drained, ``outstanding`` is zero).
        """
        avg = self.latency_total_s / self.completed if self.completed else 0.0
        return {
            "jobs": self.jobs,
            "submitted": self.submitted,
            "completed": self.completed,
            "ok": self.ok_count,
            "errors": self.error_count,
            "cancelled": self.cancelled_count,
            "outstanding": self._outstanding,
            "queue_depth": self.queue_depth,
            "queue_depth_max": self.queue_depth_max,
            "in_flight": self.in_flight,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "respawns": self.respawns,
            "flight_dumps": len(self.flight_dumps),
            "latency_avg_s": avg,
            "latency_max_s": self.latency_max_s,
        }

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Terminate every worker.  In-flight tasks are abandoned."""
        for worker in self._workers.values():
            worker.stop()
        for worker in self._workers.values():
            worker.proc.join(timeout=1)
            if worker.proc.is_alive():
                worker.kill()
        self._workers.clear()
        self._pending.clear()
        self._outstanding = 0

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- scheduler internals -------------------------------------------

    def _dispatch(self) -> None:
        while self._pending:
            # Cancelled-before-start tasks resolve without a worker.
            task = self._pending[0]
            if task.task_id in self._cancelled:
                self._pending.popleft()
                self._cancelled.discard(task.task_id)
                self._ready.append(
                    self._finish(
                        TaskResult(
                            task.task_id,
                            task.kind,
                            ok=False,
                            error_kind="cancelled",
                            error="cancelled before start",
                            queued_s=time.monotonic() - task.submitted_at,
                        )
                    )
                )
                continue
            worker = self._idle_worker()
            if worker is None:
                return
            self._pending.popleft()
            worker.assign(task)

    def _idle_worker(self) -> Optional[_Worker]:
        for worker in self._workers.values():
            if not worker.busy:
                return worker
        if len(self._workers) < self.jobs:
            worker = _Worker(
                self._ctx, self._next_worker_id, self._results, self._init
            )
            self._next_worker_id += 1
            self._workers[worker.worker_id] = worker
            event = "spawn"
            if self._dead_workers:
                self._dead_workers -= 1
                self.respawns += 1
                event = "respawn"
            self.recorder.record(
                f"pool.{event}", worker_id=worker.worker_id, pid=worker.proc.pid
            )
            if self.registry.enabled:
                declare(self.registry, "repro_pool_worker_events").labels(
                    event=event
                ).inc()
            return worker
        return None

    def _poll(self, timeout: float, wake: Optional[int] = None) -> List[TaskResult]:
        """Drain the result queue, then sweep deadlines and liveness.
        Results resolved without a worker are handed out at once."""
        out: List[TaskResult] = []
        if self._ready:
            out.extend(self._ready)
            self._ready.clear()
            timeout = 0.0
        # One sleep over the result pipe and the caller's wake fd, as
        # the manager thread of concurrent.futures.process does.
        waitables = [self._results._reader]
        if wake is not None:
            waitables.append(wake)
        _wait(waitables, timeout)
        message = self._next_message()
        while message is not None:
            out.extend(self._absorb(message))
            message = self._next_message()
        now = time.monotonic()
        for worker in list(self._workers.values()):
            task = worker.task
            if task is None:
                continue
            if task.timeout is not None and now - worker.started_at > task.timeout:
                out.append(
                    self._fail_worker_task(
                        worker, "timeout", f"no result within {task.timeout:g}s"
                    )
                )
            elif not worker.proc.is_alive():
                code = worker.proc.exitcode
                out.append(
                    self._fail_worker_task(
                        worker, "crash", f"worker exited with code {code}"
                    )
                )
        self._dispatch()
        self._gauge_depth()
        return out

    def _next_message(self):
        try:
            return self._results.get_nowait()
        except _queue_mod.Empty:
            return None

    def _absorb(self, message) -> List[TaskResult]:
        worker_id, task_id, ok, value, error_kind, error, run_s, meta = message
        worker = self._workers.get(worker_id)
        if worker is None or worker.task is None or worker.task.task_id != task_id:
            # A terminated worker's last gasp (result raced the kill).
            return []
        task = worker.task
        worker.task = None
        queued_s = worker.started_at - task.submitted_at
        if meta:
            delta = meta.get("metrics")
            if delta and self.registry.enabled:
                self.registry.merge_snapshot(delta)
        return [
            self._finish(
                TaskResult(
                    task_id,
                    task.kind,
                    ok=ok,
                    value=value,
                    error_kind=error_kind,
                    error=error,
                    queued_s=queued_s,
                    run_s=run_s,
                    meta=meta,
                )
            )
        ]

    def _fail_worker_task(
        self, worker: _Worker, kind: str, message: str
    ) -> TaskResult:
        task = worker.task
        assert task is not None
        worker.task = None
        worker.kill()
        del self._workers[worker.worker_id]
        self._dead_workers += 1
        if kind == "timeout":
            self.timeouts += 1
        elif kind == "crash":
            self.crashes += 1
        event = "cancel" if kind == "cancelled" else kind
        self.recorder.record(
            f"pool.worker-{event}",
            worker_id=worker.worker_id,
            task_id=task.task_id,
            kind=task.kind,
            error=message,
        )
        if self.registry.enabled:
            declare(self.registry, "repro_pool_worker_events").labels(
                event=event
            ).inc()
        if kind == "crash" and self.flight_dir:
            # The post-mortem artifact: the recent event timeline plus
            # the crashed task's request, so the failure is reproducible
            # from the dump alone.
            self.flight_dumps.append(
                self.recorder.dump_to(
                    self.flight_dir,
                    "worker-crash",
                    extra={
                        "worker_id": worker.worker_id,
                        "task_id": task.task_id,
                        "task_kind": task.kind,
                        "payload": task.payload,
                        "error": message,
                        "trace": (task.trace or {}).get("trace_id"),
                    },
                )
            )
            if self.registry.enabled:
                declare(self.registry, "repro_flight_dumps").labels(
                    reason="worker-crash"
                ).inc()
        return self._finish(
            TaskResult(
                task.task_id,
                task.kind,
                ok=False,
                error_kind=kind,
                error=message,
                queued_s=worker.started_at - task.submitted_at,
                run_s=time.monotonic() - worker.started_at,
            )
        )

    def _finish(self, result: TaskResult) -> TaskResult:
        self._outstanding -= 1
        self.completed += 1
        if result.error_kind == "cancelled":
            self.cancelled_count += 1
            outcome = "cancelled"
        elif result.ok:
            self.ok_count += 1
            outcome = "ok"
        else:
            self.error_count += 1
            outcome = "error"
        total = result.queued_s + result.run_s
        self.latency_total_s += total
        self.latency_max_s = max(self.latency_max_s, total)
        if self.registry.enabled:
            declare(self.registry, "repro_pool_tasks").labels(
                outcome=outcome
            ).inc()
            declare(self.registry, "repro_pool_queued_seconds").observe(
                max(0.0, result.queued_s)
            )
            declare(self.registry, "repro_pool_run_seconds").observe(
                max(0.0, result.run_s)
            )
        self._gauge_depth()
        return result

    def _gauge_depth(self) -> None:
        if self.registry.enabled:
            declare(self.registry, "repro_pool_queue_depth").set(
                len(self._pending)
            )


def default_jobs() -> int:
    """A sensible default worker count for ``--jobs 0``: the CPUs this
    process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1
