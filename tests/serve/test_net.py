"""The TCP front door (``repro serve --tcp``): admission control,
single-flight dedup, graceful drain, and the loadgen harness.

Every test runs a real server (:class:`BackgroundServer` on its own
event-loop thread) and talks to it over real sockets — the in-process
StringIO harness of ``test_stdio.py`` cannot exercise multiplexing,
disconnects, or backpressure.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.config import CompilerConfig, ServeConfig
from repro.observe.reqtrace import ReqTracer, TailSampler
from repro.observe.spanstore import (
    SpanStore,
    build_tree,
    iter_records,
    load_trace,
)
from repro.serve.cache import cache_key
from repro.serve.net import BackgroundServer
from repro.serve.net import server as server_module
from repro.serve.net.admission import AdmissionController
from repro.serve.net.loadgen import (
    check_slo,
    client_traceparent,
    percentile,
    request_indices,
    run_loadgen,
    stddev,
)
from repro.serve.net.singleflight import FlightTable

#: Takes a worker a few hundred ms — long enough that a request sent
#: right after it is admitted while it is still unresolved, short
#: enough to keep the suite fast.
SLOW = "(define (spin n) (if (= n 0) 0 (spin (- n 1)))) (spin 2000000)"


class _Client:
    """A blocking JSON-lines client for one connection."""

    def __init__(self, address, timeout=60.0):
        self.sock = socket.create_connection(address, timeout=timeout)
        self.reader = self.sock.makefile("r", encoding="utf-8")
        self.banner = json.loads(self.reader.readline())

    def send(self, doc):
        self.sock.sendall((json.dumps(doc) + "\n").encode())

    def recv(self):
        line = self.reader.readline()
        return json.loads(line) if line else None

    def recv_response(self):
        """Next non-event document (skips informational events)."""
        while True:
            doc = self.recv()
            if doc is None or "event" not in doc:
                return doc

    def request(self, doc):
        self.send(doc)
        return self.recv_response()

    def close(self):
        # makefile() holds a dup of the fd: shut the socket down first
        # so the server actually sees EOF, then close both handles.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        for handle in (self.reader, self.sock):
            try:
                handle.close()
            except OSError:
                pass


@pytest.fixture
def server():
    with BackgroundServer(jobs=1, disk_cache=False) as bg:
        yield bg


def test_ready_banner_and_round_trip(server):
    client = _Client(server.address)
    assert client.banner["event"] == "ready"
    assert client.banner["transport"] == "tcp"
    response = client.request({"id": 1, "op": "run", "source": "(+ 20 22)"})
    assert response["ok"] and response["value"] == "42"
    client.close()


def test_multiple_clients_multiplex(server):
    clients = [_Client(server.address) for _ in range(5)]
    for i, client in enumerate(clients):
        client.send({"id": i, "op": "run", "source": f"(* {i} 10)"})
    for i, client in enumerate(clients):
        response = client.recv_response()
        assert response["id"] == i
        assert response["value"] == str(i * 10)
    stats = clients[0].request({"id": "s", "op": "stats"})["stats"]["server"]
    assert stats["clients"] == 5
    assert stats["clients_peak"] == 5
    for client in clients:
        client.close()


def test_protocol_error_and_unknown_op(server):
    client = _Client(server.address)
    assert client.request({"id": 1, "op": "run"})["error_kind"] == "protocol"
    assert (
        client.request({"id": 2, "op": "nope", "source": "1"})["error_kind"]
        == "protocol"
    )
    response = client.request("not a dict")
    assert response["error_kind"] == "protocol"
    client.close()


def test_a_retired_config_field_is_a_bad_request(server):
    # artifact_cache went with the executable-artifact tier: a request
    # that still names it is refused, and the daemon keeps serving.
    client = _Client(server.address)
    response = client.request(
        {"id": 1, "op": "run", "source": "(+ 1 2)",
         "config": {"artifact_cache": False}}
    )
    assert response["id"] == 1 and not response["ok"]
    assert response["error_kind"] == "protocol"
    assert "artifact_cache" in response["error"]
    response = client.request({"id": 2, "op": "run", "source": "(+ 20 22)"})
    assert response["ok"] and response["value"] == "42"
    client.close()


def test_tenant_isolation_and_bounded_queue():
    config = ServeConfig(max_pending_per_tenant=1, max_pending_total=10)
    with BackgroundServer(jobs=1, disk_cache=False, config=config) as bg:
        noisy = _Client(bg.address)
        quiet = _Client(bg.address)
        # Tenant A's one slot is taken by a slow request; its second
        # request is rejected at intake.  Tenant B is not displaced.
        noisy.send({"id": "a1", "op": "run", "source": SLOW, "tenant": "a"})
        rejected = noisy.request(
            {"id": "a2", "op": "run", "source": "(+ 1 1)", "tenant": "a"}
        )
        assert rejected["ok"] is False
        assert rejected["error_kind"] == "overloaded"
        assert rejected["reason"] == "tenant-queue-full"
        assert rejected["retry_after_s"] > 0
        response = quiet.request(
            {"id": "b1", "op": "run", "source": "(+ 2 2)", "tenant": "b"}
        )
        assert response["ok"] and response["value"] == "4"
        # The slow leader still completes.
        assert noisy.recv_response()["id"] == "a1"
        stats = quiet.request({"id": "s", "op": "stats"})["stats"]["server"]
        assert stats["admission"]["rejects"] == {"tenant-queue-full": 1}
        noisy.close()
        quiet.close()


def test_global_queue_bound():
    config = ServeConfig(max_pending_per_tenant=10, max_pending_total=2)
    with BackgroundServer(jobs=1, disk_cache=False, config=config) as bg:
        client = _Client(bg.address)
        client.send({"id": 1, "op": "run", "source": SLOW, "tenant": "a"})
        client.send({"id": 2, "op": "run", "source": SLOW + " ", "tenant": "b"})
        rejected = client.request(
            {"id": 3, "op": "run", "source": "(+ 1 1)", "tenant": "c"}
        )
        assert rejected["error_kind"] == "overloaded"
        assert rejected["reason"] == "queue-full"
        assert client.recv_response()["ok"]
        assert client.recv_response()["ok"]
        client.close()


def test_max_clients_connection_cap():
    config = ServeConfig(max_clients=1)
    with BackgroundServer(jobs=1, disk_cache=False, config=config) as bg:
        first = _Client(bg.address)
        assert first.banner["event"] == "ready"
        second = _Client(bg.address)
        assert second.banner == {"event": "overloaded", "reason": "max-clients"}
        second.close()
        first.close()


def test_single_flight_dedup():
    with BackgroundServer(jobs=1, disk_cache=False) as bg:
        client = _Client(bg.address)
        source = "(define (f x) (* x x)) (f 12)"
        # Both lines land before the leader's compile finishes: the
        # second request joins the first's flight.
        client.send({"id": 1, "op": "compile", "source": source})
        client.send({"id": 2, "op": "compile", "source": source})
        responses = {r["id"]: r for r in (client.recv_response(),
                                          client.recv_response())}
        assert responses[1]["ok"] and responses[2]["ok"]
        assert responses[1]["instructions"] == responses[2]["instructions"]
        deduped = [r for r in responses.values() if r.get("deduped")]
        assert len(deduped) == 1
        stats = client.request({"id": "s", "op": "stats"})["stats"]["server"]
        assert stats["singleflight"]["dedup_hits"] == 1
        assert stats["singleflight"]["in_flight"] == 0
        client.close()


def test_dedup_across_connections_with_leader_disconnect():
    # The leader's pool task is server-owned: killing the leader's
    # connection mid-request must not strand the follower.
    with BackgroundServer(jobs=1, disk_cache=False) as bg:
        leader = _Client(bg.address)
        follower = _Client(bg.address)
        leader.send({"id": "L", "op": "run", "source": SLOW})
        follower.send({"id": "F", "op": "run", "source": SLOW})
        leader.close()
        response = follower.recv_response()
        assert response["id"] == "F"
        assert response["ok"] and response["value"] == "0"
        # And the server is still healthy for new clients.
        probe = _Client(bg.address)
        assert probe.request({"id": "p", "op": "ping"})["pong"]
        probe.close()
        follower.close()


def test_client_disconnect_mid_request_leaves_server_healthy():
    with BackgroundServer(jobs=1, disk_cache=False) as bg:
        doomed = _Client(bg.address)
        doomed.send({"id": 1, "op": "run", "source": SLOW})
        doomed.close()
        probe = _Client(bg.address)
        response = probe.request({"id": 2, "op": "run", "source": "(+ 3 4)"})
        assert response["ok"] and response["value"] == "7"
        deadline = time.monotonic() + 10
        while True:
            health = probe.request({"id": "h", "op": "health"})["health"]
            assert health["status"] == "ok"
            if health["clients"] == 1 or time.monotonic() > deadline:
                break
            time.sleep(0.05)  # the server has not yet seen doomed's EOF
        assert health["clients"] == 1
        probe.close()


def test_drain_under_load_answers_everything():
    # shutdown with requests still in flight: every admitted request is
    # answered (ok or cancelled) before the bye event.
    with BackgroundServer(jobs=2, disk_cache=False) as bg:
        client = _Client(bg.address)
        for i in range(6):
            client.send({"id": i, "op": "run", "source": f"(+ {i} 1)"})
        client.send({"id": "down", "op": "shutdown"})
        docs = []
        while True:
            doc = client.recv()
            if doc is None or doc.get("event") == "bye":
                break
            docs.append(doc)
        by_id = {d["id"]: d for d in docs if "event" not in d}
        assert by_id["down"]["shutdown"] is True
        for i in range(6):
            assert i in by_id, f"request {i} unanswered at drain"
            assert by_id[i]["ok"] or by_id[i]["error_kind"] == "cancelled"
        client.close()
    events = [e["event"] for e in bg.events]
    assert events[0] == "listening"
    assert "draining" in events and events[-1] == "bye"


def test_requests_after_drain_are_rejected():
    config = ServeConfig(drain_grace_s=5.0)
    with BackgroundServer(jobs=1, disk_cache=False, config=config) as bg:
        client = _Client(bg.address)
        client.send({"id": "slow", "op": "run", "source": SLOW})
        client.send({"id": "down", "op": "shutdown"})
        client.send({"id": "late", "op": "run", "source": "(+ 1 1)"})
        docs = {}
        while True:
            doc = client.recv()
            if doc is None or doc.get("event") == "bye":
                break
            if "event" not in doc:
                docs[doc["id"]] = doc
        assert docs["slow"]["ok"] or docs["slow"]["error_kind"] == "cancelled"
        late = docs["late"]
        assert late["error_kind"] == "overloaded"
        assert late["reason"] == "draining"
        client.close()


def test_control_op_answers_after_earlier_requests_reach_the_pool():
    # A control op sent right behind a work request on the same
    # connection must see that request counted: the daemon answers it
    # only once every earlier line has reached the pool.
    from repro.observe.metrics import MetricsRegistry

    with BackgroundServer(
        jobs=1, disk_cache=False, registry=MetricsRegistry()
    ) as bg:
        client = _Client(bg.address)
        client.sock.sendall(
            (
                json.dumps({"id": 1, "op": "compile", "source": "(+ 1 2)"})
                + "\n"
                + json.dumps({"id": 2, "op": "metrics"})
                + "\n"
            ).encode()
        )
        by_id = {}
        while len(by_id) < 2:
            doc = client.recv_response()
            by_id[doc["id"]] = doc
        assert by_id[2]["metrics"]["counters"]["repro_pool_submitted"] == 1
        client.close()


def test_cancel_frees_the_worker():
    # jobs=1: cancelling an unbudgeted endless run must terminate its
    # worker, or the next request would wait behind it forever.
    endless = "(define (spin n) (if (= n 0) 0 (spin (- n 1)))) (spin 1000000000)"
    with BackgroundServer(jobs=1, disk_cache=False) as bg:
        client = _Client(bg.address, timeout=15.0)
        client.send({"id": "spin", "op": "run", "source": endless})
        client.send({"id": "c", "op": "cancel", "target": "spin"})
        client.send({"id": "next", "op": "run", "source": "(+ 3 4)"})
        by_id = {}
        while len(by_id) < 3:
            doc = client.recv_response()
            by_id[doc["id"]] = doc
        assert by_id["c"]["cancelled"] is True
        assert by_id["spin"]["error_kind"] == "cancelled"
        assert by_id["next"]["value"] == "7"
        client.close()


def test_cancelling_a_leader_keeps_the_flight_for_its_follower():
    with BackgroundServer(jobs=1, disk_cache=False) as bg:
        leader = _Client(bg.address)
        follower = _Client(bg.address)
        # A ping behind each line: the leader's request is in flight
        # before the follower's, and both are before the cancel.
        leader.send({"id": "L", "op": "run", "source": SLOW})
        assert leader.request({"id": "p", "op": "ping"})["pong"]
        follower.send({"id": "F", "op": "run", "source": SLOW})
        assert follower.request({"id": "p", "op": "ping"})["pong"]
        cancel = leader.request({"id": "c", "op": "cancel", "target": "L"})
        assert cancel["cancelled"] is True
        assert leader.recv_response()["error_kind"] == "cancelled"
        response = follower.recv_response()
        assert response["id"] == "F" and response.get("deduped") is True
        assert response["ok"] and response["value"] == "0"
        stats = follower.request({"id": "s", "op": "stats"})["stats"]
        assert stats["pool"]["cancelled"] == 0
        leader.close()
        follower.close()


def test_submits_reach_an_idle_worker_while_another_task_is_out():
    # The pool bridge sleeps on the result pipe and a wake pipe, so a
    # request reaches the idle worker at once even while the other
    # worker's task is out, instead of waiting out the 20 ms sweep.
    with BackgroundServer(jobs=2, disk_cache=False) as bg:
        holder = _Client(bg.address)
        holder.send(
            {"id": "f", "op": "run", "source": "(define (f) (f)) (f)",
             "timeout": 3}
        )
        # Answered once the run has reached the pool: one worker is held.
        assert holder.request({"id": "p", "op": "ping"})["pong"]
        client = _Client(bg.address)
        warm = client.request({"id": "w", "op": "compile", "source": "(quote x)"})
        assert warm["ok"]
        started = time.perf_counter()
        for i in range(50):
            response = client.request(
                {"id": i, "op": "compile", "source": "(quote x)"}
            )
            assert response["ok"] and response["cached"], response
        elapsed = time.perf_counter() - started
        assert elapsed < 0.4, f"50 memory hits took {elapsed:.2f}s"
        held = holder.recv_response()
        assert held["id"] == "f" and held["error_kind"] == "timeout"
        client.close()
        holder.close()


@pytest.mark.parametrize("dedup", [True, False], ids=["dedup", "no-dedup"])
def test_a_client_key_never_names_the_cache_entry(dedup):
    # The daemon hands its workers the cache key it computed; a "key"
    # in the client's request must not stand in for it.
    with BackgroundServer(
        jobs=1, disk_cache=False, config=ServeConfig(dedup=dedup)
    ) as bg:
        client = _Client(bg.address)
        first = client.request({"id": 1, "op": "run", "source": "(+ 20 22)"})
        assert first["ok"] and first["value"] == "42"
        other = cache_key("(+ 20 22)", CompilerConfig())
        response = client.request(
            {"id": 2, "op": "run", "source": "(* 6 7 2)", "key": other}
        )
        assert response["ok"] and response["value"] == "84"
        assert response["cached"] is False
        client.close()


# ---------------------------------------------------------------------------
# The cache-key memo: a text the daemon has seen is not read again
# ---------------------------------------------------------------------------


def _count_reads(monkeypatch):
    """The texts the daemon's front door reads into a cache key."""
    reads = []

    def counting_cache_key(source, *args, **kwargs):
        reads.append(source)
        return cache_key(source, *args, **kwargs)

    monkeypatch.setattr(server_module, "cache_key", counting_cache_key)
    return reads


def _memo_stats(client):
    return client.request({"id": "s", "op": "stats"})["stats"]["server"]["key_memo"]


def test_a_repeated_text_is_read_once(monkeypatch):
    reads = _count_reads(monkeypatch)
    source = "(define (f x) (* x x)) (f 12)"
    with BackgroundServer(jobs=1, disk_cache=False) as bg:
        client = _Client(bg.address)
        answers = [
            client.request({"id": i, "op": "compile", "source": source})
            for i in range(3)
        ]
        stats = _memo_stats(client)
        client.close()
    assert reads == [source]
    assert all(a["ok"] for a in answers)
    assert [a["cached"] for a in answers] == [False, True, True]
    assert len({a["instructions"] for a in answers}) == 1
    assert stats == {"entries": 1, "held": len(source), "hits": 2, "misses": 1}


def test_the_memo_evicts_its_oldest_text_past_its_bound(monkeypatch):
    reads = _count_reads(monkeypatch)
    texts = [f"(+ {n} {n})" for n in range(10, 13)]
    bound = 2 * len(texts[0])
    monkeypatch.setattr(server_module, "_KEY_MEMO_BYTES", bound)
    too_long = "(list " + " 1" * bound + ")"
    asked = [texts[0], texts[1], texts[2], texts[1], texts[0], too_long, too_long]
    with BackgroundServer(jobs=1, disk_cache=False) as bg:
        client = _Client(bg.address)
        held = []
        for i, text in enumerate(asked):
            response = client.request({"id": i, "op": "compile", "source": text})
            assert response["ok"], response
            held.append(_memo_stats(client))
        client.close()
    # texts[2] pushed texts[0] out; texts[1] was still held; texts[0]
    # was read again; a text longer than the bound is never held.
    assert reads == [texts[0], texts[1], texts[2], texts[0], too_long, too_long]
    assert all(s["held"] <= bound for s in held)
    assert [s["entries"] for s in held] == [1, 2, 2, 2, 2, 2, 2]


def test_prelude_and_config_each_get_their_own_key(monkeypatch):
    reads = _count_reads(monkeypatch)
    source = "(define (sq x) (* x x)) (sq 7)"
    variants = [{}, {"prelude": False}, {"config": {"num_temp_regs": 2}}]
    with BackgroundServer(jobs=1, disk_cache=False) as bg:
        client = _Client(bg.address)
        answers = [
            [
                client.request(
                    {"id": i, "op": "compile", "source": source, **variant}
                )
                for i in range(2)
            ]
            for variant in variants
        ]
        client.close()
    assert reads == [source] * len(variants)
    # Each variant's first ask compiles under its own key; its second
    # is a hit on that key, with the same answer.
    for first, again in answers:
        assert first["ok"] and again["ok"]
        assert (first["cached"], again["cached"]) == (False, True)
        assert first["instructions"] == again["instructions"]
    with_prelude, bare = answers[0][0], answers[1][0]
    assert bare["procedures"] < with_prelude["procedures"]


def test_a_text_that_does_not_read_is_not_remembered(monkeypatch):
    reads = _count_reads(monkeypatch)
    with BackgroundServer(jobs=1, disk_cache=False) as bg:
        client = _Client(bg.address)
        client.send({"id": 1, "op": "run", "source": "(foo"})
        client.send({"id": 2, "op": "run", "source": "(foo"})
        responses = [client.recv_response(), client.recv_response()]
        stats = client.request({"id": "s", "op": "stats"})["stats"]["server"]
        client.close()
    assert reads == ["(foo", "(foo"]
    assert all(r["error_kind"] == "read-error" for r in responses)
    # Without a key the two fly alone: neither joins the other.
    assert not any(r.get("deduped") for r in responses)
    assert stats["singleflight"]["dedup_hits"] == 0
    assert stats["key_memo"]["entries"] == 0


def test_dotted_vectors_and_deep_nesting_are_program_errors():
    # A dotted vector is a read error, a program nested past the
    # compiler's recursion is a compile error, and the worker that
    # refused it serves the next request.
    depth = 10_000
    deep = "(define (g x) x) " + "(g " * depth + "1" + ")" * depth
    with BackgroundServer(jobs=1, disk_cache=False) as bg:
        client = _Client(bg.address)
        dotted = client.request({"id": 1, "op": "run", "source": "'#(1 . 2)"})
        nested = client.request({"id": 2, "op": "run", "source": deep})
        after = client.request({"id": 3, "op": "run", "source": "(+ 20 22)"})
        client.close()
    assert dotted["error_kind"] == "read-error"
    assert "dot in vector" in dotted["error"]
    assert nested["error_kind"] == "compile-error"
    assert "nested too deeply" in nested["error"]
    assert after["ok"] and after["value"] == "42"


# ---------------------------------------------------------------------------
# Request tracing
# ---------------------------------------------------------------------------


def _tracer(tmp_path, rate=1.0, slowest_k=0):
    return ReqTracer(
        SpanStore(str(tmp_path / "spans")),
        TailSampler(rate=rate, slowest_k=slowest_k, seed=0),
    )


def _wait_for_trace(directory, trace_id, deadline_s=10.0):
    """finish() runs after the response is written, so poll briefly."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        records = load_trace(directory, trace_id)
        if records:
            return records
        time.sleep(0.02)
    return []


def _assert_nested(records):
    """Every child's interval lies inside its parent's."""

    def walk(node):
        record, kids = node
        end = record["start_ns"] + record["dur_ns"]
        for kid in kids:
            assert kid[0]["start_ns"] >= record["start_ns"]
            assert kid[0]["start_ns"] + kid[0]["dur_ns"] <= end
            walk(kid)

    for root in build_tree(records):
        walk(root)


def test_tracing_reconstructs_full_request_tree(tmp_path):
    reqtracer = _tracer(tmp_path)
    store_dir = str(tmp_path / "spans")
    with BackgroundServer(jobs=1, disk_cache=False, reqtracer=reqtracer) as bg:
        client = _Client(bg.address)
        assert client.banner["tracing"] is True
        parent = client_traceparent(seed=5, vuser=0, sent=0)
        response = client.request(
            {"id": 1, "op": "run", "source": "(+ 20 22)",
             "traceparent": parent}
        )
        assert response["ok"] and response["value"] == "42"
        trace_id, client_span = parent.split("-")
        # The response echoes the trace so the client can log it.
        assert response["traceparent"].startswith(trace_id + "-")
        records = _wait_for_trace(store_dir, trace_id)
        client.close()
    names = {r["name"] for r in records}
    assert {"request", "intake", "admission", "dedup", "wait", "queue",
            "run", "respond"} <= names
    # The worker's per-pass compile spans rode back through task meta.
    assert {"compile", "read", "allocate", "codegen"} <= names
    assert len({r["pid"] for r in records}) >= 2  # daemon + worker
    by_name = {r["name"]: r for r in records}
    root = by_name["request"]
    assert root["parent"] == client_span  # child of the client's span
    assert root["attrs"]["status"] == "ok"
    assert root["attrs"]["tenant"] == "default"
    assert by_name["queue"]["parent"] == by_name["wait"]["span"]
    assert by_name["run"]["parent"] == by_name["wait"]["span"]
    assert by_name["compile"]["parent"] == by_name["run"]["span"]
    assert by_name["compile"]["service"] == "worker"
    _assert_nested(records)


#: Slack for the way back of a worker's result (queue feeder thread,
#: pipe, the bridge's poll): the run is placed to end at receipt, so its
#: reconstructed start trails the worker's by that much.
RESULT_TRANSIT_NS = 25_000_000


def test_tracing_times_wait_queue_and_run_under_a_pipelined_burst(tmp_path):
    """A burst sent in one write is admitted back to back, before any
    responder task runs, and answered one worker run at a time.  Each
    ``wait`` still starts where its ``dedup`` ends, and ``queue``/``run``
    are placed from when the result was received, so the worker's
    ``compile`` begins inside ``run`` and not before ``queue`` ends."""
    reqtracer = _tracer(tmp_path)
    store_dir = str(tmp_path / "spans")
    burst = 16
    with BackgroundServer(jobs=1, disk_cache=False, reqtracer=reqtracer) as bg:
        client = _Client(bg.address)
        client.sock.sendall("".join(
            json.dumps({"id": i, "op": "run", "source": f"(+ {i} 1)"}) + "\n"
            for i in range(burst)
        ).encode())
        responses = [client.recv_response() for _ in range(burst)]
        traces = [
            _wait_for_trace(store_dir, r["traceparent"].split("-")[0])
            for r in responses
        ]
        client.close()
    assert all(r["ok"] for r in responses)
    for records in traces:
        by_name = {r["name"]: r for r in records}
        dedup, wait, queue, run, compile_ = (
            by_name[name]
            for name in ("dedup", "wait", "queue", "run", "compile")
        )
        # The clock rule may only move wait's start back to cover what
        # happened under it.
        below, frontier = [], [wait["span"]]
        while frontier:
            parent = frontier.pop()
            for record in records:
                if record["parent"] == parent:
                    below.append(record["start_ns"])
                    frontier.append(record["span"])
        dedup_end = dedup["start_ns"] + dedup["dur_ns"]
        assert wait["start_ns"] == min([dedup_end] + below)
        run_end = run["start_ns"] + run["dur_ns"]
        assert run["start_ns"] <= compile_["start_ns"] <= run_end
        queue_end = queue["start_ns"] + queue["dur_ns"]
        assert queue_end <= compile_["start_ns"] + RESULT_TRANSIT_NS


def test_tracing_dedup_follower_has_no_worker_spans(tmp_path):
    reqtracer = _tracer(tmp_path)
    store_dir = str(tmp_path / "spans")
    with BackgroundServer(jobs=1, disk_cache=False, reqtracer=reqtracer) as bg:
        client = _Client(bg.address)
        lead_tp = client_traceparent(seed=1, vuser=1, sent=0)
        follow_tp = client_traceparent(seed=1, vuser=2, sent=0)
        client.send({"id": "L", "op": "run", "source": SLOW,
                     "traceparent": lead_tp})
        client.send({"id": "F", "op": "run", "source": SLOW,
                     "traceparent": follow_tp})
        responses = {r["id"]: r for r in (client.recv_response(),
                                          client.recv_response())}
        deduped_id = next(
            rid for rid, r in responses.items() if r.get("deduped")
        )
        leader_id = "L" if deduped_id == "F" else "F"
        leader_records = _wait_for_trace(
            store_dir, responses[leader_id]["traceparent"].split("-")[0]
        )
        follower_records = _wait_for_trace(
            store_dir, responses[deduped_id]["traceparent"].split("-")[0]
        )
        client.close()
    leader_names = {r["name"] for r in leader_records}
    follower_names = {r["name"] for r in follower_records}
    # Only the leader reached the pool: worker spans are its alone.
    assert "compile" in leader_names or "execute" in leader_names
    assert "run" in leader_names
    assert "run" not in follower_names
    assert "compile" not in follower_names
    follower_dedup = next(
        r for r in follower_records if r["name"] == "dedup"
    )
    assert follower_dedup["attrs"]["role"] == "follower"
    assert {"request", "wait", "respond"} <= follower_names


@pytest.mark.parametrize("dedup", [True, False], ids=["dedup", "no-dedup"])
def test_tracing_dedup_span_says_which_requests_paid_for_a_read(tmp_path, dedup):
    reqtracer = _tracer(tmp_path)
    store_dir = str(tmp_path / "spans")
    asked = ["(+ 20 22)", "(+ 20 22)", "(foo"]
    with BackgroundServer(
        jobs=1, disk_cache=False, reqtracer=reqtracer,
        config=ServeConfig(dedup=dedup),
    ) as bg:
        client = _Client(bg.address)
        keys = []
        for i, source in enumerate(asked):
            response = client.request({"id": i, "op": "run", "source": source})
            records = _wait_for_trace(
                store_dir, response["traceparent"].split("-")[0]
            )
            (dedup_span,) = [r for r in records if r["name"] == "dedup"]
            keys.append(dedup_span["attrs"]["key"])
        client.close()
    # Read on first sight, remembered after; a text that does not read
    # (or any text, with dedup off) has no key.
    assert keys == (["read", "memo", "none"] if dedup else ["none"] * 3)


def test_tail_sampling_keeps_errors_and_overloads_at_rate_zero(tmp_path):
    reqtracer = _tracer(tmp_path, rate=0.0)
    store_dir = str(tmp_path / "spans")
    config = ServeConfig(max_pending_per_tenant=1, max_pending_total=10)
    with BackgroundServer(
        jobs=1, disk_cache=False, config=config, reqtracer=reqtracer
    ) as bg:
        client = _Client(bg.address)
        ok_tp = client_traceparent(seed=2, vuser=0, sent=0)
        ok = client.request(
            {"id": 1, "op": "run", "source": "(+ 1 1)", "traceparent": ok_tp}
        )
        assert ok["ok"]
        err_tp = client_traceparent(seed=2, vuser=0, sent=1)
        err = client.request(
            {"id": 2, "op": "run", "source": "(car 5)", "traceparent": err_tp}
        )
        assert not err["ok"]
        err_records = _wait_for_trace(store_dir, err_tp.split("-")[0])
        # Overload: fill the tenant slot, then get rejected.
        slow_tp = client_traceparent(seed=2, vuser=0, sent=2)
        over_tp = client_traceparent(seed=2, vuser=0, sent=3)
        client.send({"id": 3, "op": "run", "source": SLOW,
                     "traceparent": slow_tp})
        rejected = client.request(
            {"id": 4, "op": "run", "source": "(+ 2 2)", "traceparent": over_tp}
        )
        assert rejected["error_kind"] == "overloaded"
        assert rejected["traceparent"].startswith(over_tp.split("-")[0])
        over_records = _wait_for_trace(store_dir, over_tp.split("-")[0])
        assert client.recv_response()["id"] == 3  # the slow one completes
        client.close()
    # Error and overloaded traces retained despite rate 0.0 …
    assert err_records
    err_root = next(r for r in err_records if r["name"] == "request")
    assert err_root["attrs"]["status"] == "runtime-error"
    assert over_records
    over_root = next(r for r in over_records if r["name"] == "request")
    assert over_root["attrs"]["status"] == "overloaded"
    assert over_root["attrs"]["reason"] == "tenant-queue-full"
    # … while the ok trace was dropped.
    assert load_trace(store_dir, ok_tp.split("-")[0]) == []


def test_tracing_off_is_the_default(tmp_path):
    with BackgroundServer(jobs=1, disk_cache=False) as bg:
        client = _Client(bg.address)
        assert client.banner["tracing"] is False
        response = client.request(
            {"id": 1, "op": "run", "source": "(+ 1 2)",
             "traceparent": client_traceparent(seed=0, vuser=0, sent=0)}
        )
        assert response["ok"]
        assert "traceparent" not in response
        client.close()


# ---------------------------------------------------------------------------
# Units: admission and the flight table
# ---------------------------------------------------------------------------


def test_admission_controller_bounds():
    admission = AdmissionController(max_pending_per_tenant=2, max_pending_total=3)
    assert admission.try_admit("a") is None
    assert admission.try_admit("a") is None
    assert admission.try_admit("a") == "tenant-queue-full"
    assert admission.try_admit("b") is None
    assert admission.try_admit("b") == "queue-full"  # global before tenant cap
    admission.release("a")
    assert admission.try_admit("b") is None
    stats = admission.stats()
    assert stats["pending_total"] == 3
    assert stats["rejects"] == {"tenant-queue-full": 1, "queue-full": 1}
    for tenant in ("a", "b", "b"):
        admission.release(tenant)
    assert admission.total == 0
    assert admission.stats()["per_tenant"] == {}


def test_flight_table_join_resolve():
    import asyncio

    async def body():
        table = FlightTable()
        leader, f1 = table.join("ab1234:compile:None")
        follower, f2 = table.join("ab1234:compile:None")
        assert leader and not follower
        assert f1 is f2
        assert table.in_flight == 1
        table.resolve("ab1234:compile:None", "result")
        assert await f1 == "result"
        assert table.in_flight == 0
        assert table.stats()["dedup_hits"] == 1

    asyncio.run(body())


# ---------------------------------------------------------------------------
# Loadgen
# ---------------------------------------------------------------------------


def test_loadgen_schedule_determinism():
    first = request_indices(seed=42, vuser=3, count=50, corpus_size=20)
    again = request_indices(seed=42, vuser=3, count=50, corpus_size=20)
    other_seed = request_indices(seed=43, vuser=3, count=50, corpus_size=20)
    other_vuser = request_indices(seed=42, vuser=4, count=50, corpus_size=20)
    assert first == again
    assert first != other_seed
    assert first != other_vuser
    assert all(0 <= i < 20 for i in first)


def test_loadgen_duplicate_fraction_hits_hot_set():
    always = request_indices(
        seed=1, vuser=0, count=100, corpus_size=50, duplicate_fraction=1.0
    )
    assert set(always) <= set(range(4))  # everything from the hot set
    never = request_indices(
        seed=1, vuser=0, count=200, corpus_size=50, duplicate_fraction=0.0
    )
    assert max(never) >= 4  # the cold tail is actually reachable


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 0.50) == 50.0
    assert percentile(values, 0.99) == 99.0
    assert percentile([7.0], 0.99) == 7.0
    assert percentile([], 0.5) is None


def test_check_slo_pass_and_violations():
    report = {
        "latency_s": {"p50": 0.1, "p90": 0.2, "p99": 0.5},
        "error_rate": 0.0,
        "errors": 0,
        "error_kinds": {},
        "rejected": 0,
        "deduped": 3,
        "completed": 100,
        "vuser_failures": [],
    }
    thresholds = {
        "p99_s": 1.0,
        "max_error_rate": 0.0,
        "max_rejects": 0,
        "min_dedup_hits": 1,
        "min_requests": 50,
    }
    assert check_slo(report, thresholds)["ok"]
    tight = dict(thresholds, p99_s=0.1, min_requests=1000)
    verdict = check_slo(report, tight, tolerance=2.0)
    assert not verdict["ok"]
    assert any("p99" in v for v in verdict["violations"])
    assert any("completed" in v for v in verdict["violations"])


def test_stddev():
    assert stddev([]) is None
    assert stddev([3.0, 3.0, 3.0]) == 0.0
    assert stddev([2.0, 4.0]) == pytest.approx(1.0)


def test_client_traceparent_is_deterministic_and_wellformed():
    from repro.observe.reqtrace import parse_traceparent

    first = client_traceparent(seed=9, vuser=3, sent=7)
    assert first == client_traceparent(seed=9, vuser=3, sent=7)
    assert first != client_traceparent(seed=9, vuser=3, sent=8)
    assert first != client_traceparent(seed=8, vuser=3, sent=7)
    assert parse_traceparent(first) is not None


def test_loadgen_latencies_out_and_tracing(tmp_path):
    corpus = [("sq", "(define (sq x) (* x x)) (sq 9)"), ("add", "(+ 1 2)")]
    latencies_path = tmp_path / "lat" / "latencies.jsonl"
    trace_dir = tmp_path / "spans"
    report = run_loadgen(
        spawn=True,
        spawn_jobs=1,
        corpus=corpus,
        op="run",
        concurrency=4,
        requests=3,
        seed=17,
        trace_dir=str(trace_dir),
        trace_sample=1.0,
        latencies_out=str(latencies_path),
    )
    assert report["completed"] == 12
    latency = report["latency_s"]
    assert latency["stddev"] is not None and latency["stddev"] >= 0.0
    assert latency["max"] >= latency["p99"] >= latency["p50"]
    # The slowest requests are named with their trace ids.
    assert len(report["slowest"]) == 5
    assert report["slowest"][0]["latency_s"] == pytest.approx(
        latency["max"], rel=1e-3
    )
    for entry in report["slowest"]:
        assert len(entry["trace"]) == 16
    # One JSON line per request: latency, status, trace id.
    lines = [
        json.loads(line)
        for line in latencies_path.read_text().splitlines()
        if line.strip()
    ]
    assert len(lines) == 12
    for line in lines:
        assert line["ok"] is True
        assert line["latency_s"] > 0
        assert len(line["trace"]) == 16
    # Per-vuser request order is the deterministic schedule, so the
    # n-th record of vuser v carries client_traceparent(seed, v, n).
    for vuser in range(4):
        mine = [line for line in lines if line["vuser"] == vuser]
        for sent, line in enumerate(mine):
            expected = client_traceparent(17, vuser, sent).split("-")[0]
            assert line["trace"] == expected
    # The spawned server kept traces under the client-chosen ids.
    stored = {r["trace"] for r in iter_records(str(trace_dir))}
    client_ids = {line["trace"] for line in lines}
    assert stored == client_ids


def test_loadgen_end_to_end_spawn():
    corpus = [
        ("sq", "(define (sq x) (* x x)) (sq 9)"),
        ("add", "(+ 1 2)"),
        ("fib", "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 10)"),
        ("let", "(let ((a 1) (b 2)) (+ a b))"),
    ]
    report = run_loadgen(
        spawn=True,
        spawn_jobs=2,
        corpus=corpus,
        op="run",
        concurrency=8,
        requests=4,
        seed=11,
        duplicate_fraction=0.8,
    )
    assert report["requests"] == 32
    assert report["completed"] == 32
    assert report["errors"] == 0
    assert report["rejected"] == 0
    assert report["vuser_failures"] == []
    assert report["latency_s"]["p99"] >= report["latency_s"]["p50"] > 0
    server = report["server"]["server"]
    assert server["requests"] == 32
    # 8 cold-cache vusers stampeding a 4-program hot set: single-flight
    # must have collapsed some of them.
    assert server["singleflight"]["dedup_hits"] > 0
