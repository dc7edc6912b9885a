"""Request tracing: traceparent parsing, tail sampling, span trees,
worker records, trace metrics, exemplars."""

import pytest

from repro.observe.metrics import MetricsRegistry
from repro.observe.recorder import active_trace
from repro.observe.reqtrace import (
    ReqTracer,
    TailSampler,
    build_reqtracer,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)
from repro.observe.spanstore import SpanStore, build_tree, load_trace


def make_tracer(tmp_path, rate=1.0, slowest_k=0, registry=None, **kwargs):
    store = SpanStore(str(tmp_path / "spans"), registry=registry)
    sampler = TailSampler(rate=rate, slowest_k=slowest_k, seed=0, **kwargs)
    return ReqTracer(store, sampler, registry=registry)


# ---------------------------------------------------------------------------
# traceparent
# ---------------------------------------------------------------------------


def test_traceparent_roundtrip():
    trace_id, span_id = new_trace_id(), new_span_id()
    text = format_traceparent(trace_id, span_id)
    assert parse_traceparent(text) == (trace_id, span_id)


@pytest.mark.parametrize(
    "bad",
    [None, 42, "", "nope", "aaaa-bbbb", "g" * 16 + "-" + "0" * 16,
     "0" * 16 + "-" + "0" * 15, "0" * 16 + "-" + "0" * 16 + "-extra"],
)
def test_malformed_traceparent_is_rejected_not_fatal(bad):
    assert parse_traceparent(bad) is None


def test_client_traceparent_owns_the_trace_id(tmp_path):
    tracer = make_tracer(tmp_path)
    parent = format_traceparent("ab" * 8, "cd" * 8)
    trace = tracer.start(traceparent=parent, op="compile")
    assert trace.trace_id == "ab" * 8
    trace.finish("ok")
    # The daemon's root span is a child of the client span.
    (records,) = [trace.records]
    root = [r for r in records if r["name"] == "request"]
    assert root[0]["parent"] == "cd" * 8


# ---------------------------------------------------------------------------
# The tail sampler
# ---------------------------------------------------------------------------


def test_errors_always_kept_even_at_rate_zero():
    sampler = TailSampler(rate=0.0, slowest_k=0, seed=1)
    for status in ("error", "overloaded", "timeout", "cancelled"):
        assert sampler.decide(status, 0.001) == (True, "error")


def test_ok_traces_dropped_at_rate_zero():
    sampler = TailSampler(rate=0.0, slowest_k=0, seed=1)
    assert sampler.decide("ok", 0.001) == (False, "dropped")


def test_slowest_k_kept_per_window():
    sampler = TailSampler(rate=0.0, slowest_k=1, window=100, seed=1)
    keep, reason = sampler.decide("ok", 0.010)  # first fills the k-heap
    assert (keep, reason) == (True, "slow")
    assert sampler.decide("ok", 0.005) == (False, "dropped")
    assert sampler.decide("ok", 0.020) == (True, "slow")


def test_window_reset_forgets_the_slowest():
    sampler = TailSampler(rate=0.0, slowest_k=1, window=2, seed=1)
    assert sampler.decide("ok", 0.010)[1] == "slow"
    assert sampler.decide("ok", 0.001)[1] == "dropped"
    # Third decision starts a new window: the heap is empty again.
    assert sampler.decide("ok", 0.0001)[1] == "slow"


def test_rate_out_of_range_rejected():
    with pytest.raises(ValueError):
        TailSampler(rate=1.5)
    with pytest.raises(ValueError):
        TailSampler(rate=-0.1)


def test_rate_is_deterministic_under_seed():
    a = TailSampler(rate=0.5, slowest_k=0, seed=42)
    b = TailSampler(rate=0.5, slowest_k=0, seed=42)
    decisions_a = [a.decide("ok", 0.001) for _ in range(64)]
    decisions_b = [b.decide("ok", 0.001) for _ in range(64)]
    assert decisions_a == decisions_b
    assert any(keep for keep, _ in decisions_a)
    assert any(not keep for keep, _ in decisions_a)


# ---------------------------------------------------------------------------
# Span trees
# ---------------------------------------------------------------------------


def test_span_tree_lands_in_the_store(tmp_path):
    tracer = make_tracer(tmp_path)
    trace = tracer.start(op="compile", id="r1")
    with trace.span("admission") as handle:
        handle.set(admitted=True)
    with trace.span("wait"):
        with trace.span("queue"):
            pass
    keep, reason = trace.finish("ok", cached=False)
    assert keep and reason in ("sampled", "slow")
    records = load_trace(str(tmp_path / "spans"), trace.trace_id)
    names = {r["name"] for r in records}
    assert names == {"request", "admission", "wait", "queue"}
    (root_tree,) = build_tree(records)
    root, kids = root_tree
    assert root["name"] == "request"
    assert root["attrs"]["status"] == "ok"
    assert {k[0]["name"] for k in kids} == {"admission", "wait"}
    wait = next(k for k in kids if k[0]["name"] == "wait")
    assert wait[1][0][0]["name"] == "queue"


def test_finish_is_idempotent_and_clears_active_trace(tmp_path):
    tracer = make_tracer(tmp_path)
    trace = tracer.start(op="run")
    assert active_trace() == trace.trace_id
    first = trace.finish("ok")
    assert active_trace() is None
    assert trace.finish("ok") == first
    records = load_trace(str(tmp_path / "spans"), trace.trace_id)
    assert len([r for r in records if r["name"] == "request"]) == 1


def test_exception_path_closes_dangling_spans(tmp_path):
    tracer = make_tracer(tmp_path)
    trace = tracer.start(op="run")
    trace.span("outer")
    trace.span("inner")  # neither exited — error path
    trace.finish("error")
    records = load_trace(str(tmp_path / "spans"), trace.trace_id)
    assert {r["name"] for r in records} == {"request", "outer", "inner"}
    for record in records:
        assert record["dur_ns"] >= 0


def test_nesting_is_monotonic_after_finish(tmp_path):
    """Parents are expanded to cover children timed on other clocks."""
    tracer = make_tracer(tmp_path)
    trace = tracer.start(op="run")
    base = trace.now_ns()
    run_id = trace.record("run", base + 2_000_000, 1_000_000)
    # A "worker" child that starts before and ends after its parent.
    trace.record("compile", base, 5_000_000, parent=run_id)
    trace.finish("ok")
    records = {r["name"]: r for r in trace.records}
    run, compile_ = records["run"], records["compile"]
    assert run["start_ns"] <= compile_["start_ns"]
    assert (run["start_ns"] + run["dur_ns"]
            >= compile_["start_ns"] + compile_["dur_ns"])
    root = records["request"]
    assert root["start_ns"] <= run["start_ns"]
    assert (root["start_ns"] + root["dur_ns"]
            >= run["start_ns"] + run["dur_ns"])


def test_dropped_traces_never_reach_the_store(tmp_path):
    tracer = make_tracer(tmp_path, rate=0.0)
    trace = tracer.start(op="compile")
    keep, reason = trace.finish("ok")
    assert (keep, reason) == (False, "dropped")
    assert load_trace(str(tmp_path / "spans"), trace.trace_id) == []


def test_disabled_tracer_returns_none():
    tracer = ReqTracer(None, TailSampler())
    assert not tracer.enabled
    assert tracer.start(op="compile") is None
    assert build_reqtracer(None) is None
    assert build_reqtracer("") is None


# ---------------------------------------------------------------------------
# Worker records
# ---------------------------------------------------------------------------


def test_worker_records_join_the_trace_unchanged(tmp_path):
    from repro.observe.tracer import Tracer

    tracer = make_tracer(tmp_path)
    trace = tracer.start(op="compile")
    run_id = new_span_id()
    worker = Tracer.from_context(trace.context(run_id))
    with worker.span("compile"):
        with worker.span("allocate") as sp:
            pass
    sp.set(registers_assigned=7)
    trace.record("run", trace.now_ns(), 1_000, span_id=run_id)
    trace.records.extend(worker.records)
    trace.finish("ok")
    records = load_trace(str(tmp_path / "spans"), trace.trace_id)
    by_name = {r["name"]: r for r in records}
    assert by_name["run"]["parent"] == by_name["request"]["span"]
    assert by_name["compile"]["parent"] == run_id
    assert by_name["compile"]["service"] == "worker"
    assert by_name["allocate"]["parent"] == by_name["compile"]["span"]
    assert by_name["allocate"]["attrs"]["registers_assigned"] == 7


# ---------------------------------------------------------------------------
# Metrics + exemplars
# ---------------------------------------------------------------------------


def test_trace_decisions_counted(tmp_path):
    registry = MetricsRegistry()
    registry.enable()
    tracer = make_tracer(tmp_path, rate=0.0, registry=registry)
    tracer.start(op="a").finish("ok")
    tracer.start(op="b").finish("error")
    snapshot = registry.snapshot()
    counters = snapshot["counters"]
    assert counters['repro_trace_traces{decision="dropped"}'] == 1
    assert counters['repro_trace_traces{decision="error"}'] == 1
    # The kept trace's spans were counted too.
    assert counters["repro_trace_spans"] >= 1
    assert counters["repro_trace_bytes_written"] > 0


def test_exemplar_records_trace_for_latency_bucket(tmp_path):
    registry = MetricsRegistry()
    registry.enable()
    tracer = make_tracer(tmp_path, registry=registry)
    trace = tracer.start(op="compile")
    trace.finish("ok")
    tracer.exemplar(
        "repro_serve_request_seconds", ("op",), ("compile",), 0.012,
        trace.trace_id,
    )
    snapshot = registry.snapshot()
    exemplars = snapshot["exemplars"]
    (key,) = exemplars.keys()
    assert "repro_serve_request_seconds" in key and "compile" in key
    (bucket_entry,) = exemplars[key].values()
    assert bucket_entry["trace"] == trace.trace_id
    assert bucket_entry["value"] == 0.012
    # Exemplars merge across snapshots (parent aggregation path).
    other = MetricsRegistry()
    other.enable()
    other.merge_snapshot(snapshot)
    assert other.exemplars[key] == exemplars[key]
