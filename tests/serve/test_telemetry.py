"""Service-level telemetry end to end: conservation of pool task
counts, exact worker-delta aggregation, crash flight dumps,
worker span records in the parent's traces, and the daemon's
metrics/health ops."""

from __future__ import annotations

import io
import json
import os

from repro.observe import chrome_trace
from repro.observe.reqtrace import build_reqtracer
from repro.observe.spanstore import iter_records
from repro.observe.metrics import (
    MetricsRegistry,
    lint_openmetrics,
    render_openmetrics,
)
from repro.observe.recorder import FlightRecorder
from repro.serve.pool import WorkerPool
from repro.serve.service import BatchService, Request
from repro.serve.stdio import serve_stdio

GOOD = "(define (f x) (* x x)) (f 7)"


def _drain(pool):
    return {r.task_id: r for r in pool.results()}


def _counter(registry, key):
    return registry.snapshot()["counters"].get(key, 0)


# ---------------------------------------------------------------------------
# Conservation
# ---------------------------------------------------------------------------


def test_pool_stats_conserve_over_mixed_outcomes():
    registry = MetricsRegistry()
    with WorkerPool(jobs=2, cache=False, registry=registry) as pool:
        for i in range(3):
            pool.submit("selftest", {"action": "echo", "value": i})
        pool.submit("selftest", {"action": "raise", "message": "boom"})
        pool.submit("selftest", {"action": "exit", "code": 11})
        slow = pool.submit(
            "selftest", {"action": "sleep", "seconds": 60.0}, timeout=0.2
        )
        assert slow
        results = _drain(pool)
        stats = pool.stats()

    # Every submitted task resolved exactly once.
    assert stats["submitted"] == 6
    assert stats["outstanding"] == 0
    assert stats["submitted"] == (
        stats["ok"] + stats["errors"] + stats["cancelled"]
    )
    assert stats["ok"] == 3
    assert len(results) == 6

    # The registry saw the same conservation.
    submitted = _counter(registry, "repro_pool_submitted")
    resolved = sum(
        value
        for key, value in registry.snapshot()["counters"].items()
        if key.startswith("repro_pool_tasks{")
    )
    assert submitted == 6
    assert resolved == submitted
    # Queue depth gauge settles back to zero.
    assert registry.snapshot()["gauges"]["repro_pool_queue_depth"] == 0


def test_pool_cancellation_counts_as_cancelled():
    registry = MetricsRegistry()
    with WorkerPool(jobs=1, cache=False, registry=registry) as pool:
        blocker = pool.submit("selftest", {"action": "sleep", "seconds": 60.0})
        queued = [
            pool.submit("selftest", {"action": "echo", "value": i})
            for i in range(3)
        ]
        assert queued
        pool.cancel_pending()
        pool.cancel(blocker)
        results = _drain(pool)
        stats = pool.stats()
    assert stats["submitted"] == stats["ok"] + stats["errors"] + stats["cancelled"]
    assert stats["cancelled"] >= 3
    assert len(results) == 4


def test_respawn_counted_separately_from_first_spawn():
    registry = MetricsRegistry()
    with WorkerPool(jobs=1, cache=False, registry=registry) as pool:
        pool.submit("selftest", {"action": "exit", "code": 3})
        _drain(pool)
        after_crash = pool.submit("selftest", {"action": "echo", "value": 1})
        results = _drain(pool)
        stats = pool.stats()
    assert results[after_crash].ok
    assert stats["respawns"] == 1
    assert _counter(registry, 'repro_pool_worker_events{event="spawn"}') == 1
    assert _counter(registry, 'repro_pool_worker_events{event="respawn"}') == 1
    assert _counter(registry, 'repro_pool_worker_events{event="crash"}') == 1


# ---------------------------------------------------------------------------
# Worker delta aggregation
# ---------------------------------------------------------------------------


def test_pooled_counters_match_inline_exactly():
    sources = [f"(define (g x) (+ x {i})) (g {i})" for i in range(4)]

    inline = BatchService(jobs=1, cache=True, disk_cache=False,
                          registry=MetricsRegistry())
    inline.run([Request(op="compile", source=s, id=i)
                for i, s in enumerate(sources)])
    pooled = BatchService(jobs=2, cache=True, disk_cache=False,
                          registry=MetricsRegistry())
    pooled.run([Request(op="compile", source=s, id=i)
                for i, s in enumerate(sources)])

    for registry in (inline.registry, pooled.registry):
        snap = registry.snapshot()
        # Every request was a fresh compile: misses and timed compiles
        # agree exactly with the request count, wherever they ran.
        assert snap["counters"]["repro_cache_misses"] == len(sources)
        hist = snap["histograms"]["repro_compile_seconds"]
        assert sum(hist["counts"]) == len(sources)
        assert snap["counters"]['repro_requests{op="compile",status="ok"}'] == len(
            sources
        )


def test_worker_deltas_are_not_double_counted():
    # Two batches through the same service: totals accumulate exactly,
    # not multiplicatively (a fork-inheritance bug would double-count).
    service = BatchService(jobs=2, cache=True, disk_cache=False,
                           registry=MetricsRegistry())
    service.run([Request(op="compile", source=GOOD, id="a")])
    service.run([Request(op="compile", source="(+ 1 2)", id="b")])
    snap = service.registry.snapshot()
    assert snap["counters"]["repro_cache_misses"] == 2
    assert sum(snap["histograms"]["repro_compile_seconds"]["counts"]) == 2


def test_service_registry_renders_clean_openmetrics():
    service = BatchService(jobs=2, cache=True, disk_cache=False,
                           registry=MetricsRegistry())
    service.run([Request(op="run", source=GOOD, id="r")])
    text = render_openmetrics(service.registry.snapshot())
    assert lint_openmetrics(text) == []
    assert "repro_requests_total" in text


def test_write_metrics_snapshot(tmp_path):
    service = BatchService(jobs=1, cache=False, registry=MetricsRegistry())
    service.run([Request(op="compile", source=GOOD)])
    path = tmp_path / "metrics.json"
    service.write_metrics(str(path))
    doc = json.loads(path.read_text())
    assert doc["counters"]['repro_requests{op="compile",status="ok"}'] == 1


# ---------------------------------------------------------------------------
# Flight recorder wiring
# ---------------------------------------------------------------------------


def test_worker_crash_dumps_flight_recording(tmp_path):
    registry = MetricsRegistry()
    recorder = FlightRecorder(capacity=64)
    flight_dir = tmp_path / "flights"
    with WorkerPool(
        jobs=2,
        cache=False,
        registry=registry,
        recorder=recorder,
        flight_dir=str(flight_dir),
    ) as pool:
        victim = pool.submit("selftest", {"action": "exit", "code": 7})
        pool.submit("selftest", {"action": "echo", "value": 1})
        _drain(pool)
        dumps = list(pool.flight_dumps)

    assert len(dumps) == 1
    doc = json.loads(open(dumps[0]).read())
    assert doc["reason"] == "worker-crash"
    # The dump carries the crashed task's request...
    assert doc["context"]["task_id"] == victim
    assert doc["context"]["payload"]["action"] == "exit"
    # ...and the timeline that led up to it.
    kinds = [e["kind"] for e in doc["events"]]
    assert "pool.submit" in kinds
    assert _counter(registry, 'repro_flight_dumps{reason="worker-crash"}') == 1


def test_no_flight_dump_without_flight_dir(tmp_path):
    with WorkerPool(jobs=1, cache=False, recorder=FlightRecorder()) as pool:
        pool.submit("selftest", {"action": "exit", "code": 7})
        _drain(pool)
        assert pool.flight_dumps == []


def test_batch_service_collects_pool_flight_dumps(tmp_path):
    # The service threads flight_dir into its pool; a clean batch
    # produces no dumps and stats() omits the key.
    service = BatchService(
        jobs=2,
        cache=False,
        registry=MetricsRegistry(),
        recorder=FlightRecorder(),
        flight_dir=str(tmp_path),
    )
    responses = service.run([Request(op="compile", source=GOOD, id="fine")])
    assert responses[0].ok
    assert service.flight_dumps == []
    assert "flight_dumps" not in service.stats()


# ---------------------------------------------------------------------------
# Cross-process trace merging
# ---------------------------------------------------------------------------


def test_pooled_compile_spans_merge_into_parent_trace(tmp_path):
    store = str(tmp_path / "spans")
    service = BatchService(jobs=2, cache=True, disk_cache=False,
                           reqtracer=build_reqtracer(store, service="batch"),
                           registry=MetricsRegistry())
    sources = [f"(+ {i} {i})" for i in range(4)]
    responses = service.run(
        [Request(op="compile", source=s, id=i) for i, s in enumerate(sources)]
    )
    assert all(r.ok for r in responses)
    records = list(iter_records(store))
    worker = [r for r in records if r["service"] == "worker"]
    assert worker, "workers shipped no span records"
    assert all(r["pid"] != os.getpid() for r in worker)

    doc = chrome_trace(records)
    events = doc["traceEvents"]
    pids = {e["pid"] for e in events if e.get("ph") == "X"}
    assert len(pids) >= 2, "expected parent and worker pid rows"
    names = {e["name"] for e in events if e.get("ph") == "X"}
    # The compiler's per-pass spans landed from the worker processes.
    assert "expand" in names and "allocate" in names


def test_untraced_tasks_ship_no_spans():
    with WorkerPool(jobs=1, cache=False, registry=MetricsRegistry()) as pool:
        pool.submit("compile", {"source": GOOD})
        (result,) = _drain(pool).values()
    assert result.ok
    assert "spans" not in (result.meta or {})


# ---------------------------------------------------------------------------
# The stdio daemon's control ops
# ---------------------------------------------------------------------------


def _serve(lines, **kwargs):
    raw = "\n".join(json.dumps(line) for line in lines)
    stdout = io.StringIO()
    code = serve_stdio(
        stdin=io.StringIO(raw + "\n"), stdout=stdout, jobs=1, cache=False,
        **kwargs,
    )
    docs = [json.loads(line) for line in stdout.getvalue().splitlines()]
    return {d["id"]: d for d in docs if "id" in d}, code


def test_stdio_metrics_op_returns_snapshot():
    docs, code = _serve(
        [
            {"id": 1, "op": "compile", "source": GOOD},
            {"id": 2, "op": "metrics"},
            {"id": 3, "op": "shutdown"},
        ]
    )
    assert code == 0
    response = docs[2]
    assert response["ok"]
    snap = response["metrics"]
    # Control ops answer immediately, so the compile may still be in
    # flight — but its submission is already counted.
    assert snap["counters"]["repro_pool_submitted"] == 1
    assert snap["version"] == 1
    assert "meta" in snap and "histograms" in snap


def test_stdio_metrics_op_openmetrics_format():
    docs, _ = _serve(
        [
            {"id": 1, "op": "compile", "source": GOOD},
            {"id": 2, "op": "metrics", "format": "openmetrics"},
            {"id": 3, "op": "shutdown"},
        ]
    )
    text = docs[2]["openmetrics"]
    assert lint_openmetrics(text) == []
    assert "repro_pool_submitted_total 1" in text


def test_stdio_health_op():
    docs, _ = _serve(
        [{"id": 1, "op": "health"}, {"id": 2, "op": "shutdown"}]
    )
    health = docs[1]["health"]
    assert health["status"] == "ok"
    assert health["pid"] == os.getpid()
    assert health["jobs"] == 1
    assert health["uptime_s"] >= 0


def test_stdio_dumps_metrics_snapshot_on_exit(tmp_path):
    path = tmp_path / "daemon.json"
    _, code = _serve(
        [
            {"id": 1, "op": "compile", "source": GOOD},
            {"id": 2, "op": "shutdown"},
        ],
        metrics_out=str(path),
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["counters"]['repro_requests{op="compile",status="ok"}'] == 1
