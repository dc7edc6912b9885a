"""Tracer semantics: the one record shape, span nesting and parent
links, shipped contexts, null-tracer cost."""

import gc
import os
import sys

import pytest

from repro.observe import NULL_TRACER, TraceError, Tracer
from repro.observe.tracer import _NULL_SPAN

RECORD_KEYS = {
    "trace", "span", "parent", "name", "start_ns", "dur_ns", "pid",
    "service", "attrs",
}


class FakeClock:
    """A deterministic nanosecond clock advancing 10µs per reading."""

    def __init__(self) -> None:
        self.t = 0

    def __call__(self) -> int:
        self.t += 10_000
        return self.t


class TestTracer:
    def test_span_records_duration(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("expand"):
            pass
        (record,) = tracer.records
        assert set(record) == RECORD_KEYS
        assert record["name"] == "expand"
        assert record["trace"] == tracer.trace_id
        assert record["pid"] == os.getpid()
        assert record["dur_ns"] > 0

    def test_start_is_wall_clock(self):
        before = Tracer().now_ns()
        tracer = Tracer()
        with tracer.span("read"):
            pass
        (record,) = tracer.records
        assert before <= record["start_ns"] <= tracer.now_ns()

    def test_span_nesting_well_formed(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("compile"):
            with tracer.span("expand"):
                pass
            with tracer.span("allocate"):
                with tracer.span("liveness"):
                    pass
        names = [r["name"] for r in tracer.records]
        # Completion order: children before parents.
        assert names == ["expand", "liveness", "allocate", "compile"]
        by_name = {r["name"]: r for r in tracer.records}
        assert by_name["compile"]["parent"] is None
        assert by_name["expand"]["parent"] == by_name["compile"]["span"]
        assert by_name["liveness"]["parent"] == by_name["allocate"]["span"]
        assert tracer.current is None
        # Children are contained within their parent's interval.
        parent, child = by_name["compile"], by_name["expand"]
        assert parent["start_ns"] <= child["start_ns"]
        assert (child["start_ns"] + child["dur_ns"]
                <= parent["start_ns"] + parent["dur_ns"])

    def test_out_of_order_exit_raises(self):
        tracer = Tracer(clock=FakeClock())
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(TraceError):
            outer.__exit__(None, None, None)

    def test_span_set_attaches_stats(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("allocate") as sp:
            pass
        sp.set(registers_assigned=50)
        assert tracer.records[0]["attrs"] == {"registers_assigned": 50}

    def test_explicit_record_hangs_under_the_open_span(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("run") as run:
            sid = tracer.record("queue", tracer.now_ns(), 5, depth=3)
        queue = next(r for r in tracer.records if r["span"] == sid)
        assert queue["parent"] == run.span_id
        assert queue["attrs"] == {"depth": 3}

    def test_record_attrs_may_use_reserved_names(self):
        # Profile rows carry a "name" key of their own.
        tracer = Tracer()
        tracer.record("proc f", 0, 0, name="f", label="f%1")
        assert tracer.records[0]["name"] == "proc f"
        assert tracer.records[0]["attrs"] == {"name": "f", "label": "f%1"}

    def test_context_round_trip(self):
        parent = Tracer(service="batch")
        with parent.span("run") as run:
            context = parent.context()
        assert context == {"trace_id": parent.trace_id, "parent": run.span_id}
        worker = Tracer.from_context(context)
        with worker.span("compile"):
            with worker.span("read"):
                pass
        by_name = {r["name"]: r for r in worker.records}
        assert {r["trace"] for r in worker.records} == {parent.trace_id}
        assert by_name["compile"]["parent"] == run.span_id
        assert by_name["read"]["parent"] == by_name["compile"]["span"]
        assert by_name["compile"]["service"] == "worker"


class TestNullTracer:
    def test_disabled(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.records == ()

    def test_span_is_shared_singleton(self):
        # No per-call allocation: every span() call returns the one
        # module-level null span.
        a = NULL_TRACER.span("x", attr=1)
        b = NULL_TRACER.span("y")
        assert a is b is _NULL_SPAN
        with a as sp:
            assert sp.set(anything=2) is sp
        assert NULL_TRACER.records == ()

    def test_span_zero_net_allocation(self):
        # Instrumented code relies on the null tracer being free:
        # hammering span() must not grow the heap.
        for _ in range(100):  # warm up any caches
            with NULL_TRACER.span("read"):
                pass
        gc.collect()
        before = sys.getallocatedblocks()
        for _ in range(10_000):
            with NULL_TRACER.span("read"):
                pass
        after = sys.getallocatedblocks()
        assert after - before <= 4
