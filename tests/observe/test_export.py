"""Exporters over span records: Chrome trace_event JSON round-trip
and the metrics JSON shape (golden-ish checks on a tiny program)."""

import json

from repro.config import CompilerConfig
from repro.observe import Tracer, chrome_trace, metrics_dict
from repro.pipeline import compile_source, run_compiled

TINY = "(define (double x) (+ x x)) (double 21)"

# Every pass the pipeline must wrap in a span, in order.
PIPELINE_PASSES = ["read", "expand", "convert", "closure", "allocate", "codegen"]


def traced_run(source=TINY, config=None, profile=True):
    tracer = Tracer()
    compiled = compile_source(source, config or CompilerConfig(), tracer=tracer)
    result = run_compiled(compiled, tracer=tracer, profile=profile)
    return tracer, result


class TestChromeTrace:
    def test_round_trips_through_json(self):
        tracer, _ = traced_run()
        doc = chrome_trace(tracer.records)
        back = json.loads(json.dumps(doc))
        assert back["traceEvents"]
        assert back["otherData"]["traces"] == [tracer.trace_id]

    def test_complete_events_have_valid_fields(self):
        tracer, _ = traced_run()
        doc = json.loads(json.dumps(chrome_trace(tracer.records)))
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == len(tracer.records)
        for event in spans:
            assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
            assert isinstance(event["dur"], (int, float)) and event["dur"] >= 0
            assert isinstance(event["pid"], int) and event["tid"] == 1
        rows = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in rows} == {"process_name", "thread_name"}

    def test_one_span_per_compiler_pass(self):
        tracer, _ = traced_run()
        doc = chrome_trace(tracer.records)
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        for name in PIPELINE_PASSES:
            assert names.count(name) == 1, name
        assert names.count("execute") == 1

    def test_profile_rows_are_children_of_execute(self):
        tracer, result = traced_run()
        execute = next(r for r in tracer.records if r["name"] == "execute")
        kids = [r for r in tracer.records if r["parent"] == execute["span"]]
        # Hottest first, zero duration, one per profiled procedure.
        assert [r["attrs"] for r in kids] == result.profile.as_rows()
        assert all(r["dur_ns"] == 0 for r in kids)
        assert all(r["name"] == "proc " + r["attrs"]["label"] for r in kids)
        assert sum(r["attrs"]["cycles"] for r in kids) == (
            execute["attrs"]["cycles"]
        )

    def test_one_thread_row_per_trace(self):
        first, _ = traced_run()
        second, _ = traced_run()
        doc = chrome_trace(first.records + second.records)
        assert doc["otherData"]["traces"] == [first.trace_id, second.trace_id]
        tids = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert tids == {1, 2}

    def test_empty(self):
        assert chrome_trace([])["traceEvents"] == []


class TestMetricsDict:
    def test_shape(self):
        tracer, result = traced_run()
        doc = metrics_dict(tracer.records, counters=result.counters, value="42")
        doc = json.loads(json.dumps(doc))
        assert doc["value"] == "42"
        assert doc["counters"]["instructions"] == result.counters.instructions
        for name in PIPELINE_PASSES:
            assert doc["passes"][name]["seconds"] >= 0
        assert doc["passes"]["allocate"]["registers_assigned"] > 0
        assert doc["procedures"] == result.profile.as_rows()
        assert not any(name.startswith("proc ") for name in doc["passes"])

    def test_uses_counters_as_dict(self):
        _, result = traced_run()
        doc = metrics_dict(counters=result.counters)
        assert doc["counters"] == result.counters.as_dict()

    def test_null_tracer_omits_passes(self):
        from repro.observe import NULL_TRACER

        _, result = traced_run(profile=False)
        doc = metrics_dict(NULL_TRACER.records, counters=result.counters)
        assert "passes" not in doc
        assert "procedures" not in doc
