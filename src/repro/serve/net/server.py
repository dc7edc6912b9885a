"""The daemon core behind ``repro serve``: one asyncio JSON-lines server.

``repro serve --tcp`` accepts socket connections; ``repro serve
--stdio`` (:mod:`repro.serve.stdio`) hands the same core a single
connection made of stdin and stdout.  Everything else — the protocol,
control ops, admission, the cache-key memo, single-flight dedup,
request tracing, metrics dumps, the ``daemon-error`` flight dump and
the drain — exists once, here, for both transports.

Protocol, one JSON document per line in each direction:

* client → server, work requests::

    {"id": 1, "op": "compile", "source": "(+ 1 2)"}
    {"id": 2, "op": "run", "source": "(f 10)", "config": {...},
     "max_instructions": 500000, "timeout": 5.0, "tenant": "ci"}

* client → server, control requests: ``ping``, ``stats``, ``health``,
  ``metrics`` (``"format": "openmetrics"`` for the text exposition),
  ``cancel`` (``"target": <request id>``) and ``shutdown``;
* server → client: a ``{"event": "ready", ...}`` banner, one response
  per request line in completion order (match on ``id``), and
  ``{"event": "bye"}`` at the drain.  A work request past the tenant
  or global pending bound is answered at once with ``"error_kind":
  "overloaded"`` and a ``retry_after_s`` hint (the protocol's 429);
  follower responses of single-flight dedup carry ``"deduped": true``.

The rules every connection follows:

* a control op is answered only after every earlier request line on
  its connection has reached the pool, so ``metrics`` or ``stats``
  sent behind a ``compile`` already counts it;
* withdrawing a request — a ``cancel`` op, or its client going away
  (a write fails) — cancels its pool task unless another request
  waits on the same flight;
* EOF from a client that still reads is a half-close: every admitted
  request is answered before the connection ends.  A line past
  ``_LINE_LIMIT`` ends intake the same way.

Architecture — one event loop, one pool thread::

    client ──┐  asyncio loop (intake, admission, single-flight, responses)
    client ──┤        │ submit/cancel/call (command queue)   ▲ results
    client ──┘        ▼                                      │ (call_soon_threadsafe)
                 _PoolBridge thread ── owns the WorkerPool (poll/dispatch)
                      │
                 worker processes (crash isolation, per-task timeouts)

Every :class:`~repro.serve.pool.WorkerPool` call happens on the bridge
thread, preserving the pool's single-threaded scheduler invariants;
the loop talks to it through a FIFO command queue and gets results
back as resolved futures.  Backpressure is layered: response writes
await the connection's drain (a slow reader stalls only its own
responses), admission bounds what the server will hold, and the pool
bounds what actually runs.

Graceful drain (SIGTERM, SIGINT, the ``shutdown`` op, or the end of
the stdio connection): stop accepting connections, reject new work
with ``reason: "draining"``, finish everything in flight (bounded by
``drain_grace_s``, then cancel), flush the metrics snapshot, send
every client ``{"event": "bye"}``, and exit 0.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import queue
import signal
import sys
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro import __version__
from repro.config import CompilerConfig, ServeConfig
from repro.observe.catalog import declare
from repro.observe.metrics import get_registry, render_openmetrics
from repro.observe.recorder import get_flight_recorder
from repro.observe.tracer import new_span_id
from repro.serve.cache import cache_key
from repro.serve.net.admission import (
    REASON_DRAINING,
    REASON_MAX_CLIENTS,
    AdmissionController,
)
from repro.serve.net.singleflight import FlightTable
from repro.serve.pool import TaskResult, WorkerPool
from repro.serve.service import (
    Request,
    Response,
    record_pool_run,
    response_from_task,
)

PROTOCOL_VERSION = 1

_CONTROL_OPS = ("ping", "stats", "cancel", "shutdown", "metrics", "health")

#: Longest accepted request line (sources are small; a client that
#: sends more is broken, not big).
_LINE_LIMIT = 1 << 20

#: The ``retry_after_s`` hint attached to overloaded rejects.
_RETRY_AFTER_S = 0.05

#: Seconds between periodic registry dumps when ``metrics_out`` is set.
_METRICS_DUMP_INTERVAL = 5.0

#: Longest the pool bridge sleeps between deadline/liveness sweeps while
#: a task is out (a result or a new command wakes it sooner).
_SWEEP_S = 0.02

#: Most source text the cache-key memo holds, counted in characters
#: (never more than the UTF-8 bytes of the lines that carried them):
#: eight request lines of the largest size accepted.
_KEY_MEMO_BYTES = 8 << 20


class _KeyMemo:
    """An LRU memo from (source text, prelude flag, config fingerprint)
    to the cache key of that text, bounded by the total length of the
    texts it holds (:data:`_KEY_MEMO_BYTES`, read at each insert).  A
    text seen again costs one dict lookup instead of a read, a write
    and a hash.  Only keys that were computed are remembered, so a text
    that did not read is read again every time it comes."""

    def __init__(self) -> None:
        self._keys: "OrderedDict[Tuple[str, bool, str], str]" = OrderedDict()
        self.held = 0  # total length of the texts remembered
        self.hits = 0
        self.misses = 0

    def get(self, memo_key: Tuple[str, bool, str]) -> Optional[str]:
        key = self._keys.get(memo_key)
        if key is None:
            self.misses += 1
            return None
        self._keys.move_to_end(memo_key)
        self.hits += 1
        return key

    def remember(self, memo_key: Tuple[str, bool, str], key: str) -> None:
        bound = _KEY_MEMO_BYTES
        size = len(memo_key[0])
        if size > bound:
            return
        self._keys[memo_key] = key
        self.held += size
        while self.held > bound:
            (text, _, _), _ = self._keys.popitem(last=False)
            self.held -= len(text)

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._keys),
            "held": self.held,
            "hits": self.hits,
            "misses": self.misses,
        }


class _PoolBridge:
    """The worker pool behind a thread boundary.

    Commands from the event loop go through one FIFO queue, so they
    reach the pool in the order they were sent; all pool mutation
    happens on the bridge thread, and results come back by resolving
    loop futures.  Each command also writes one byte to a wake pipe,
    which the bridge's result poll sleeps on: a submit reaches an idle
    worker at once instead of after the poll's sweep period.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, **pool_kwargs: Any) -> None:
        self._loop = loop
        self.jobs = max(1, pool_kwargs.get("jobs", 1))
        self._pool_kwargs = pool_kwargs
        self._commands: "queue.Queue" = queue.Queue()
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self._sent = 0  # commands queued (loop side)
        self._handled = 0  # commands carried out (bridge side)
        self._futures: Dict[int, "asyncio.Future"] = {}  # task_id -> future
        self._task_ids: Dict[int, int] = {}  # id(future) -> task_id
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-pool-bridge", daemon=True
        )

    def start(self) -> None:
        self._thread.start()
        self._started.wait()

    # -- loop-side API --------------------------------------------------

    def _send(self, *command: Any) -> None:
        self._sent += 1
        self._commands.put(command)
        if self._wake_w is None:
            return
        try:
            os.write(self._wake_w, b"\0")
        except (BlockingIOError, BrokenPipeError):
            # Full: a wake-up is already pending.  Broken: the bridge
            # has finished and reads nothing more.
            pass

    def submit(
        self,
        future: "asyncio.Future",
        op: str,
        payload: Dict[str, Any],
        timeout: Optional[float],
        trace: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Queue one task; *future* resolves (on the loop) with its
        :class:`TaskResult` unless it is done by then."""
        self._send("submit", future, op, payload, timeout, trace)

    def call(self, fn: Callable[[WorkerPool], Any]) -> "asyncio.Future":
        """Run ``fn(pool)`` on the bridge thread, after every command
        sent before it; the future resolves with its return value."""
        future = self._loop.create_future()
        self._send("call", future, fn)
        return future

    async def settle(self) -> None:
        """Return once every command sent so far has reached the pool."""
        if self._handled < self._sent:
            await self.call(lambda pool: None)

    def cancel(self, future: "asyncio.Future") -> None:
        """Cancel the task *future* was submitted with (queued: dropped;
        running: worker terminated)."""
        self.call(lambda pool: pool.cancel(self._task_ids.get(id(future), -1)))

    def stop(self, join_timeout: float = 10.0) -> None:
        self._send("stop")
        self._thread.join(timeout=join_timeout)
        if not self._thread.is_alive():
            os.close(self._wake_w)
            self._wake_w = None

    # -- bridge thread --------------------------------------------------

    def _run(self) -> None:
        try:
            self._serve()
        finally:
            os.close(self._wake_r)

    def _serve(self) -> None:
        with WorkerPool(**self._pool_kwargs) as pool:
            self._started.set()
            stopping = False
            while not stopping or self._futures:
                # Empty the wake pipe before taking commands: a command
                # sent after this point leaves a byte that ends the
                # next poll, so no wake-up is lost.
                self._drain_wake()
                # With no task out, block on the command queue (an idle
                # bridge must not spin); otherwise take what is queued
                # and go back to polling results.
                block = not stopping and not self._futures
                while True:
                    try:
                        command = self._commands.get(block=block)
                    except queue.Empty:
                        break
                    block = False
                    if command[0] == "stop":
                        stopping = True
                    else:
                        self._handle(pool, command)
                    self._handled += 1
                for result in pool.poll(_SWEEP_S, wake=self._wake_r):
                    self._deliver(result)
                if stopping:
                    # Nothing new arrives after stop; resolve what is
                    # left (close() would abandon it silently).
                    pool.cancel_pending()
        # Unresolvable futures (pool torn down mid-flight) fail loudly.
        for future in list(self._futures.values()):
            self._resolve_threadsafe(
                future,
                TaskResult(
                    -1, "?", ok=False, error_kind="cancelled",
                    error="server shut down",
                ),
            )
        self._futures.clear()

    def _drain_wake(self) -> None:
        try:
            while os.read(self._wake_r, 4096):
                pass
        except BlockingIOError:
            pass

    def _handle(self, pool: WorkerPool, command) -> None:
        if command[0] == "submit":
            _, future, op, payload, timeout, trace = command
            task_id = pool.submit(op, payload, timeout=timeout, trace=trace)
            self._futures[task_id] = future
            self._task_ids[id(future)] = task_id
        else:  # "call"
            _, future, fn = command
            self._resolve_threadsafe(future, fn(pool))

    def _deliver(self, result: TaskResult) -> None:
        future = self._futures.pop(result.task_id, None)
        if future is None:
            return
        self._task_ids.pop(id(future), None)
        self._resolve_threadsafe(future, result)

    def _resolve_threadsafe(self, future: "asyncio.Future", value) -> None:
        def resolve() -> None:
            if not future.done():
                future.set_result(value)

        try:
            self._loop.call_soon_threadsafe(resolve)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass


class _Connection:
    """One client: its line reader, serialized response writes, and the
    admitted requests it is still waiting on."""

    def __init__(
        self, server: "NetServer", reader, writer, conn_id: int, transport: str
    ) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        self.conn_id = conn_id
        self.transport = transport
        self.peer = writer.get_extra_info("peername")
        #: responder task -> the future it awaits (cancel it to withdraw)
        self.pending: Dict["asyncio.Task", "asyncio.Future"] = {}
        self.by_id: Dict[Any, "asyncio.Future"] = {}  # client id -> newest
        self._write_lock = asyncio.Lock()
        self.alive = True

    async def send(self, doc: Dict[str, Any]) -> None:
        if not self.alive:
            return
        data = (json.dumps(doc) + "\n").encode()
        try:
            async with self._write_lock:
                self.writer.write(data)
                # Backpressure: a slow reader stalls this connection's
                # responses (and only this connection's).
                await self.writer.drain()
        except (ConnectionError, RuntimeError, OSError, ValueError):
            # The client is gone.  Closing ends intake; run() then
            # withdraws whatever the client left.
            self.server.recorder.record("net.client-gone", conn=self.conn_id)
            self.close()

    async def run(self) -> None:
        await self.send(
            {
                "event": "ready",
                "protocol": PROTOCOL_VERSION,
                "version": __version__,
                "transport": self.transport,
                "jobs": self.server.bridge.jobs,
                "dedup": self.server.config.dedup,
                "tracing": self.server.reqtracer is not None,
            }
        )
        while self.alive:
            try:
                line = await self.reader.readline()
            except (ConnectionError, OSError, ValueError):
                # ValueError: line past the limit — a broken client.
                break
            if not line:
                break
            text = line.decode("utf-8", errors="replace").strip()
            if text:
                await self.server.dispatch(self, text)
        # Intake is over.  A client that still reads (a half-close) is
        # answered everything it was admitted; one that is gone has
        # its requests withdrawn.
        while self.alive and self.pending:
            await asyncio.wait(list(self.pending), return_when=asyncio.FIRST_COMPLETED)
        for waiting in list(self.pending.values()):
            waiting.cancel()

    def close(self) -> None:
        self.alive = False
        with contextlib.suppress(Exception):
            if self.writer.can_write_eof():
                # Send the FIN now: forked workers hold copies of the
                # socket's fd, so closing alone would not end the
                # connection while they live.
                self.writer.write_eof()
        with contextlib.suppress(Exception):
            self.writer.close()


class NetServer:
    """The daemon core for both transports (see module docstring)."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        jobs: int = 1,
        cache: bool = True,
        cache_dir: Optional[str] = None,
        disk_cache: bool = True,
        registry=None,
        recorder=None,
        metrics_out: Optional[str] = None,
        flight_dir: Optional[str] = None,
        reqtracer=None,
        announce: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.registry = registry if registry is not None else get_registry()
        self.registry.enable()
        self.recorder = recorder if recorder is not None else get_flight_recorder()
        self.metrics_out = metrics_out
        self.flight_dir = flight_dir
        #: Request tracer (repro.observe.reqtrace.ReqTracer) or None —
        #: every touch below is guarded, so tracing off costs nothing.
        self.reqtracer = reqtracer
        self.announce = announce or (lambda doc: None)
        self.admission = AdmissionController(
            max_pending_per_tenant=self.config.max_pending_per_tenant,
            max_pending_total=self.config.max_pending_total,
            registry=self.registry,
        )
        self.flights = FlightTable()
        self.key_memo = _KeyMemo()
        self._default_fingerprint = CompilerConfig().fingerprint()
        self._pool_kwargs = dict(
            jobs=jobs,
            cache=cache,
            cache_dir=cache_dir,
            disk_cache=disk_cache,
            registry=self.registry,
            recorder=self.recorder,
            flight_dir=flight_dir,
        )
        self.clients: Set[_Connection] = set()
        self.clients_peak = 0
        self._next_conn_id = 0
        self._outstanding: Set["asyncio.Task"] = set()
        self._draining = False
        self._drain_started = False
        self._drained = None  # asyncio.Event, created in start()
        self._server: Optional[asyncio.AbstractServer] = None
        self._metrics_task: Optional["asyncio.Task"] = None
        self.started_at = time.monotonic()
        self.requests = 0

    # -- lifecycle ------------------------------------------------------

    async def start(self, listen: bool = True) -> None:
        """Start the pool (and, with *listen*, the TCP listener)."""
        self._drained = asyncio.Event()
        self.bridge = _PoolBridge(asyncio.get_running_loop(), **self._pool_kwargs)
        self.bridge.start()
        if self.metrics_out:
            self._metrics_task = asyncio.ensure_future(self._metrics_loop())
        if not listen:
            return
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self.config.host,
            port=self.config.port,
            limit=_LINE_LIMIT,
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        self.recorder.record(
            "net.listening", host=self.address[0], port=self.address[1]
        )
        self.announce(
            {
                "event": "listening",
                "host": self.address[0],
                "port": self.address[1],
                "jobs": self.bridge.jobs,
                "pid": os.getpid(),
                "limits": self.config.as_dict(),
            }
        )

    async def run(self, stdio=None) -> None:
        """The daemon's whole life, until it has drained.  *stdio* is
        the one connection of the stdio transport (an object with a
        stream reader's ``readline`` and a stream writer's ``write`` /
        ``drain`` / ``close``); the session drains when it ends.
        Without it the daemon listens on TCP."""
        try:
            await self.start(listen=stdio is None)
            self.install_signal_handlers()
            if stdio is not None:
                conn = self._open(stdio, stdio, "stdio")
                await conn.run()
                await self.drain(reason="eof" if conn.alive else "client-gone")
            await self.wait_drained()
        except Exception as exc:
            # The daemon itself failed (not a request): keep the recent
            # event timeline as a post-mortem artifact.
            error = f"{type(exc).__name__}: {exc}"
            self.recorder.record("net.daemon-error", error=error)
            if self.flight_dir:
                self.recorder.dump_to(
                    self.flight_dir, "daemon-error", extra={"error": error}
                )
                if self.registry.enabled:
                    declare(self.registry, "repro_flight_dumps").labels(
                        reason="daemon-error"
                    ).inc()
            raise

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain.  Only possible on the main
        thread (the background harness drains explicitly instead)."""
        if threading.current_thread() is not threading.main_thread():
            return
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig,
                    lambda s=sig: asyncio.ensure_future(
                        self.drain(reason=f"signal-{s.name}")
                    ),
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                return

    async def wait_drained(self) -> None:
        await self._drained.wait()

    async def drain(self, reason: str = "shutdown") -> None:
        """Stop accepting, finish in flight, flush metrics, say bye."""
        if self._drain_started:
            return
        self._drain_started = True
        self._draining = True
        self.recorder.record("net.draining", reason=reason)
        self.announce({"event": "draining", "reason": reason})
        if self._server is not None:
            self._server.close()
        # Finish what was admitted, bounded by the grace window; after
        # it, queued tasks are cancelled and we wait (briefly) for the
        # cancellations to resolve so every response is still written.
        if not await self._await_outstanding(self.config.drain_grace_s):
            self.bridge.call(WorkerPool.cancel_pending)
            if not await self._await_outstanding(5.0):
                # A responder can outlive even the cancellations when
                # its client stopped reading; cut it loose rather than
                # hang the drain on a dead peer.
                for task in list(self._outstanding):
                    task.cancel()
                await self._await_outstanding(2.0)
        if self._metrics_task is not None:
            self._metrics_task.cancel()
        self._dump_metrics()
        for conn in list(self.clients):
            await conn.send({"event": "bye"})
            conn.close()
        self.bridge.stop()
        self.announce({"event": "bye"})
        self._drained.set()

    async def _await_outstanding(self, grace: float) -> bool:
        deadline = time.monotonic() + grace
        while self._outstanding:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            await asyncio.wait(
                list(self._outstanding),
                timeout=remaining,
                return_when=asyncio.ALL_COMPLETED,
            )
        return True

    async def _metrics_loop(self) -> None:
        while True:
            await asyncio.sleep(_METRICS_DUMP_INTERVAL)
            self._dump_metrics()

    def _dump_metrics(self) -> None:
        if self.metrics_out:
            try:
                self.registry.dump(self.metrics_out)
            except OSError:  # pragma: no cover - unwritable path
                pass

    # -- connections ----------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        if self._draining or len(self.clients) >= self.config.max_clients:
            reason = (
                REASON_DRAINING if self._draining else REASON_MAX_CLIENTS
            )
            self.admission.count_reject(reason)
            try:
                writer.write(
                    (json.dumps({"event": "overloaded", "reason": reason}) + "\n").encode()
                )
                await writer.drain()
                writer.close()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            return
        conn = self._open(reader, writer, "tcp")
        try:
            await conn.run()
        finally:
            self.clients.discard(conn)
            self._gauge_clients()
            conn.close()
            self.recorder.record("net.disconnect", conn=conn.conn_id)

    def _open(self, reader, writer, transport: str) -> _Connection:
        conn = _Connection(self, reader, writer, self._next_conn_id, transport)
        self._next_conn_id += 1
        self.clients.add(conn)
        self.clients_peak = max(self.clients_peak, len(self.clients))
        self._gauge_clients()
        self.recorder.record("net.connect", conn=conn.conn_id, peer=str(conn.peer))
        return conn

    def _gauge_clients(self) -> None:
        if self.registry.enabled:
            declare(self.registry, "repro_serve_clients").set(len(self.clients))

    # -- request dispatch ----------------------------------------------

    async def dispatch(self, conn: _Connection, line: str) -> None:
        intake_started = time.perf_counter_ns()
        try:
            doc = json.loads(line)
            if not isinstance(doc, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            await self._protocol_error(conn, None, "?", f"unparseable request: {exc}")
            return
        op = doc.get("op")
        if op in _CONTROL_OPS:
            await self.bridge.settle()
            await self._handle_control(conn, doc)
            return
        try:
            request = Request.from_dict(doc)
        except (KeyError, ValueError, TypeError) as exc:
            await self._protocol_error(
                conn, doc.get("id"), str(op or "?"), f"bad request: {exc}"
            )
            return
        tenant = str(doc.get("tenant", "default"))
        trace = None
        if self.reqtracer is not None:
            trace = self.reqtracer.start(
                traceparent=doc.get("traceparent"),
                op=request.op,
                id=request.id,
                tenant=tenant,
            )
        if trace is not None:
            # Intake/parse time: measured from line receipt, recorded
            # retroactively now that the trace exists.
            intake_ns = time.perf_counter_ns() - intake_started
            trace.record(
                "intake", trace.now_ns() - intake_ns, intake_ns,
                bytes=len(line),
            )
        if self._draining:
            self.admission.count_reject(REASON_DRAINING)
            await conn.send(
                self._overloaded(request, REASON_DRAINING, trace)
            )
            return
        admit_ns = time.perf_counter_ns()
        reason = self.admission.try_admit(tenant)
        if trace is not None:
            dur = time.perf_counter_ns() - admit_ns
            trace.record(
                "admission", trace.now_ns() - dur, dur,
                admitted=reason is None,
            )
        if reason is not None:
            self.recorder.record(
                "net.reject", id=request.id, tenant=tenant, reason=reason
            )
            await conn.send(self._overloaded(request, reason, trace))
            return
        self._admit(conn, request, tenant, trace)

    @staticmethod
    def _overloaded(
        request: Request, reason: str, trace=None
    ) -> Dict[str, Any]:
        doc = {
            "id": request.id,
            "op": request.op,
            "ok": False,
            "error_kind": "overloaded",
            "reason": reason,
            "retry_after_s": _RETRY_AFTER_S,
        }
        if trace is not None:
            doc["traceparent"] = trace.traceparent()
            # Overload rejects are always retained by the tail sampler
            # (non-ok status), regardless of the sampling rate.
            trace.finish("overloaded", reason=reason)
        return doc

    async def _protocol_error(
        self, conn: _Connection, rid, op: str, message: str
    ) -> None:
        self.recorder.record("net.protocol-error", id=rid, op=op, error=message)
        if self.registry.enabled:
            declare(self.registry, "repro_requests").labels(
                op=op, status="protocol"
            ).inc()
        await conn.send(
            {"id": rid, "ok": False, "error_kind": "protocol", "error": message}
        )

    # -- work requests --------------------------------------------------

    def _cache_key(self, request: Request) -> Tuple[Optional[str], str]:
        """The request's compile-cache key (canonical source + config
        fingerprint + version), the base of its single-flight identity,
        and how it was found: ``"memo"`` (the text was seen before),
        ``"read"`` (read, written and hashed now) or ``"none"``.  The
        key is None when dedup is off or the source cannot even be
        canonicalized — those requests fly alone, and a worker
        classifies the error."""
        if not self.config.dedup:
            return None, "none"
        config = request.config
        try:
            memo_key = (
                request.source,
                bool(request.prelude),
                self._default_fingerprint if config is None
                else config.fingerprint(),
            )
            key = self.key_memo.get(memo_key)
            if key is not None:
                return key, "memo"
            key = cache_key(
                request.source, config or CompilerConfig(), request.prelude
            )
        except Exception:  # noqa: BLE001 - unparseable/odd source: no dedup
            return None, "none"
        self.key_memo.remember(memo_key, key)
        return key, "read"

    def _admit(
        self, conn: _Connection, request: Request, tenant: str, trace=None
    ) -> None:
        """Put an admitted request in flight before the next line is
        read (so it reaches the pool in line order), then answer it
        from a responder task."""
        self.requests += 1
        started = time.monotonic()
        dedup_ns = trace.now_ns() if trace is not None else 0
        ckey, found = self._cache_key(request)
        # The op and budget also determine the answer.
        key = (
            f"{ckey}:{request.op}:{request.max_instructions}"
            if ckey is not None else f"#{self.requests}"
        )
        leader, shared = self.flights.join(key)
        # Only the leader reaches the pool, so the worker's compile
        # spans belong to the leader's trace, under this run span.
        run_id = new_span_id() if leader and trace is not None else None
        if leader:
            payload = request.payload()
            if ckey is not None:
                # The worker's cache looks this key up instead of
                # reading the source a second time.  It is always the
                # daemon's own: Request.from_dict drops a client "key".
                payload["key"] = ckey
            self.bridge.submit(
                shared, request.op, payload, request.timeout,
                trace=trace.context(run_id) if run_id else None,
            )
        else:
            if self.registry.enabled:
                declare(self.registry, "repro_serve_inflight_dedup").inc()
            self.recorder.record("net.dedup", id=request.id, tenant=tenant)
        wait_ns = 0
        if trace is not None:
            wait_ns = trace.now_ns()
            trace.record(
                "dedup", dedup_ns, wait_ns - dedup_ns,
                role="leader" if leader else "follower", key=found,
            )
        # This request's own view of the flight: cancelling it withdraws
        # the request without touching what other waiters await.
        waiting = asyncio.shield(shared)
        task = asyncio.ensure_future(
            self._respond(
                conn, request, key, shared, waiting, not leader, started,
                trace, run_id, wait_ns,
            )
        )
        self._outstanding.add(task)
        conn.pending[task] = waiting
        if request.id is not None:
            conn.by_id[request.id] = waiting

        def done(t: "asyncio.Task") -> None:
            self._outstanding.discard(t)
            del conn.pending[t]
            if request.id is not None and conn.by_id.get(request.id) is waiting:
                del conn.by_id[request.id]
            self.admission.release(tenant)

        task.add_done_callback(done)

    async def _respond(
        self,
        conn: _Connection,
        request: Request,
        key: str,
        shared: "asyncio.Future",
        waiting: "asyncio.Future",
        deduped: bool,
        started: float,
        trace=None,
        run_id: Optional[str] = None,
        wait_ns: int = 0,
    ) -> None:
        # The wait began where dedup ended, in _admit: this task may
        # first run much later under a pipelined burst.
        try:
            result = await waiting
        except asyncio.CancelledError:
            # Withdrawn: stop the work unless another request still
            # waits on the same flight.
            if not shared.done() and self.flights.leave(key):
                self.bridge.cancel(shared)
            response = Response(
                id=request.id, op=request.op, ok=False,
                error_kind="cancelled", error="cancelled",
            )
            await conn.send(response.as_dict())
            self._observe(request.op, response, started, trace)
            return
        if trace is not None:
            wait_id = trace.record(
                "wait", wait_ns, trace.now_ns() - wait_ns,
                role="follower" if deduped else "leader",
            )
            if not deduped:
                record_pool_run(trace, run_id, result, parent=wait_id)
        response = response_from_task(request, 0, result)
        doc = response.as_dict()
        if deduped:
            doc["deduped"] = True
        if trace is not None:
            doc["traceparent"] = trace.traceparent()
            respond_ns = trace.now_ns()
            await conn.send(doc)
            trace.record(
                "respond", respond_ns, trace.now_ns() - respond_ns
            )
        else:
            await conn.send(doc)
        self._observe(request.op, response, started, trace)

    def _observe(self, op: str, response, started: float, trace=None) -> None:
        status = "ok" if response.ok else (response.error_kind or "error")
        elapsed = max(0.0, time.monotonic() - started)
        if self.registry.enabled:
            declare(self.registry, "repro_requests").labels(
                op=op, status=status
            ).inc()
            declare(self.registry, "repro_serve_request_seconds").labels(
                op=op
            ).observe(elapsed)
        self.recorder.record(
            "net.response", id=response.id, op=op, status=status
        )
        if trace is not None:
            cached = response.cached
            keep, _ = trace.finish(status, cached=cached)
            if keep and self.reqtracer is not None:
                self.reqtracer.exemplar(
                    "repro_serve_request_seconds", ("op",), (op,),
                    elapsed, trace.trace_id,
                )

    # -- control ops ----------------------------------------------------

    async def _handle_control(self, conn: _Connection, doc: Dict[str, Any]) -> None:
        op = doc["op"]
        rid = doc.get("id")
        if op == "ping":
            await conn.send({"id": rid, "ok": True, "pong": True})
        elif op == "stats":
            pool_stats = await self.bridge.call(WorkerPool.stats)
            await conn.send(
                {
                    "id": rid,
                    "ok": True,
                    "stats": {"server": self.server_stats(), "pool": pool_stats},
                }
            )
        elif op == "cancel":
            target = doc.get("target")
            waiting = conn.by_id.get(target)
            cancelled = waiting is not None and waiting.cancel()
            await conn.send(
                {"id": rid, "ok": True, "cancelled": bool(cancelled),
                 "target": target}
            )
        elif op == "shutdown":
            # Stop admitting before even acknowledging: a request on
            # the wire behind this one is deterministically rejected.
            self._draining = True
            await conn.send({"id": rid, "ok": True, "shutdown": True})
            asyncio.ensure_future(self.drain(reason="shutdown-op"))
        elif op == "metrics":
            snapshot = self.registry.snapshot()
            if doc.get("format") == "openmetrics":
                await conn.send(
                    {"id": rid, "ok": True,
                     "openmetrics": render_openmetrics(snapshot)}
                )
            else:
                await conn.send({"id": rid, "ok": True, "metrics": snapshot})
        elif op == "health":
            await conn.send(
                {
                    "id": rid,
                    "ok": True,
                    "health": {
                        "status": "draining" if self._draining else "ok",
                        "pid": os.getpid(),
                        "version": __version__,
                        "uptime_s": time.monotonic() - self.started_at,
                        "jobs": self.bridge.jobs,
                        "clients": len(self.clients),
                        "pending": self.admission.total,
                        "flight_events": len(self.recorder),
                    },
                }
            )

    def server_stats(self) -> Dict[str, Any]:
        return {
            "clients": len(self.clients),
            "clients_peak": self.clients_peak,
            "requests": self.requests,
            "draining": self._draining,
            "admission": self.admission.stats(),
            "singleflight": self.flights.stats(),
            "key_memo": self.key_memo.stats(),
            "uptime_s": time.monotonic() - self.started_at,
        }


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_daemon(
    stdio=None,
    serve_config: Optional[ServeConfig] = None,
    trace_dir: Optional[str] = None,
    trace_sample: float = 1.0,
    **server_kwargs: Any,
) -> int:
    """Run one daemon until it has drained; returns the exit code.
    Over TCP unless *stdio*, the stdio transport's one connection, is
    given.  *server_kwargs* are :class:`NetServer`'s."""
    # A daemon's metrics cover its own lifetime: start from a clean
    # registry (also keeps back-to-back in-process sessions independent).
    registry = get_registry()
    registry.clear()
    registry.enable()
    from repro.observe.reqtrace import build_reqtracer

    reqtracer = build_reqtracer(
        trace_dir, sample=trace_sample, registry=registry,
        service="net" if stdio is None else "stdio",
    )
    server = NetServer(
        config=serve_config, registry=registry, reqtracer=reqtracer,
        **server_kwargs,
    )
    asyncio.run(server.run(stdio))
    return 0


def serve_tcp(
    host: str = "127.0.0.1",
    port: int = 0,
    jobs: int = 1,
    cache: bool = True,
    cache_dir: Optional[str] = None,
    disk_cache: bool = True,
    serve_config: Optional[ServeConfig] = None,
    metrics_out: Optional[str] = None,
    flight_dir: Optional[str] = None,
    trace_dir: Optional[str] = None,
    trace_sample: float = 1.0,
    stdout=None,
) -> int:
    """Run the TCP daemon until SIGTERM/SIGINT or a ``shutdown`` op.

    Lifecycle events (``listening``, ``draining``, ``bye``) go to
    *stdout* as JSON lines so a supervisor can scrape the bound port
    and confirm a clean drain.  Returns 0 after a graceful drain.
    """
    out = stdout if stdout is not None else sys.stdout

    def announce(doc: Dict[str, Any]) -> None:
        out.write(json.dumps(doc) + "\n")
        out.flush()

    config = serve_config or ServeConfig()
    if (host, port) != (config.host, config.port):
        config = config.with_address(host, port)
    return run_daemon(
        serve_config=config,
        trace_dir=trace_dir,
        trace_sample=trace_sample,
        jobs=jobs,
        cache=cache,
        cache_dir=cache_dir,
        disk_cache=disk_cache,
        metrics_out=metrics_out,
        flight_dir=flight_dir,
        announce=announce,
    )


class BackgroundServer:
    """A :class:`NetServer` on its own thread and event loop — the
    in-process harness ``repro loadgen --spawn`` and the test suite
    use.  ``address`` is the bound ``(host, port)``; ``stop()`` runs a
    graceful drain and joins the thread."""

    def __init__(self, **kwargs: Any) -> None:
        self.events: list = []
        kwargs.setdefault("announce", self.events.append)
        self._kwargs = kwargs
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None
        self.server: Optional[NetServer] = None
        self.address = None
        self._thread = threading.Thread(
            target=self._main, name="repro-net-server", daemon=True
        )

    def start(self) -> "BackgroundServer":
        self._thread.start()
        if not self._ready.wait(timeout=30):  # pragma: no cover - hang guard
            raise RuntimeError("server thread did not start")
        if self._error is not None:
            raise RuntimeError(f"server failed to start: {self._error}")
        return self

    def _main(self) -> None:
        async def body() -> None:
            try:
                self.server = NetServer(**self._kwargs)
                await self.server.start()
                self._loop = asyncio.get_running_loop()
                self.address = self.server.address
            except BaseException as exc:  # noqa: BLE001 - report to starter
                self._error = exc
                self._ready.set()
                raise
            self._ready.set()
            await self.server.wait_drained()

        try:
            asyncio.run(body())
        except BaseException:  # noqa: BLE001 - surfaced via self._error
            if not self._ready.is_set():  # pragma: no cover
                self._ready.set()

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(
                    lambda: asyncio.ensure_future(
                        self.server.drain(reason="background-stop")
                    )
                )
            except RuntimeError:  # pragma: no cover - loop already gone
                pass
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

