"""BatchService: request/response shapes, inline vs pooled execution,
cache accounting, and observe integration."""

from __future__ import annotations

import pytest

from repro.serve.service import BatchService, Request, Response, summarize

GOOD = "(define (f x) (* x x)) (f 7)"
LOOPS = "(define (spin n) (if (= n 0) 'done (spin (- n 1)))) (spin 100000000)"


def test_request_rejects_unknown_op():
    with pytest.raises(ValueError, match="unknown op"):
        Request(op="transmogrify", source="(+ 1 2)")


#: A field of the wrong JSON type, and the request it spoils.
MISTYPED = {
    "source-list": {"source": ["(+ 1 2)"]},
    "prelude-string": {"source": "(+ 1 2)", "prelude": "no"},
    "budget-string": {"source": "(+ 1 2)", "max_instructions": "5"},
    "budget-bool": {"source": "(+ 1 2)", "max_instructions": True},
    "budget-float": {"source": "(+ 1 2)", "max_instructions": 5.0},
    "timeout-string": {"source": "(+ 1 2)", "timeout": "x"},
    "timeout-bool": {"source": "(+ 1 2)", "timeout": False},
}


@pytest.mark.parametrize("name", sorted(MISTYPED))
def test_request_rejects_mistyped_fields(name):
    with pytest.raises(TypeError):
        Request.from_dict({"op": "run", **MISTYPED[name]})


def test_request_accepts_null_and_numeric_limits():
    for limits in (
        {"max_instructions": None, "timeout": None},
        {"max_instructions": 10, "timeout": 2},
        {"max_instructions": 10, "timeout": 0.5},
    ):
        request = Request.from_dict({"op": "run", "source": GOOD, **limits})
        assert request.timeout == limits["timeout"]


def test_request_dict_round_trip():
    request = Request.from_dict(
        {
            "id": "r1",
            "op": "run",
            "source": GOOD,
            "config": {"save_strategy": "early"},
            "max_instructions": 1000,
        }
    )
    assert request.id == "r1"
    assert request.config.save_strategy == "early"
    assert request.payload()["max_instructions"] == 1000


def test_inline_run_request():
    service = BatchService(jobs=1, cache=False)
    (response,) = service.run([Request(op="run", source=GOOD)])
    assert response.ok
    assert response.value == "49"
    assert response.counters["instructions"] > 0


def test_inline_compile_request():
    service = BatchService(jobs=1, cache=False)
    (response,) = service.run([Request(op="compile", source=GOOD, id="c")])
    assert response.ok
    assert response.id == "c"
    assert response.instructions > 0
    assert response.procedures > 0
    assert response.value is None


def test_inline_error_classification():
    service = BatchService(jobs=1, cache=False)
    responses = service.run(
        [
            Request(op="run", source="(unbound-proc 1)", id="compile-err"),
            Request(op="run", source="(car 5)", id="runtime-err"),
            Request(op="run", source="(", id="read-err"),
            Request(op="run", source=LOOPS, id="budget", max_instructions=10_000),
            Request(op="run", source=GOOD, id="fine"),
        ]
    )
    kinds = {r.id: (r.ok, r.error_kind) for r in responses}
    assert kinds["compile-err"] == (False, "compile-error")
    assert kinds["runtime-err"] == (False, "runtime-error")
    assert kinds["read-err"] == (False, "read-error")
    assert kinds["budget"] == (False, "budget")
    assert kinds["fine"] == (True, None)


def test_inline_cache_hits(tmp_path):
    service = BatchService(jobs=1, cache_dir=str(tmp_path))
    requests = [Request(op="compile", source=GOOD, id=i) for i in range(3)]
    responses = service.run(requests)
    assert [r.cached for r in responses] == [False, True, True]
    stats = service.stats()
    assert stats["cache"]["hits"] == 2
    assert stats["cache"]["misses"] == 1


def test_responses_in_request_order_ids_default_to_index():
    service = BatchService(jobs=1, cache=False)
    responses = service.run(
        [Request(op="compile", source=f"(+ {i} {i})") for i in range(4)]
    )
    assert [r.id for r in responses] == [0, 1, 2, 3]


def test_pooled_batch_matches_inline(tmp_path):
    requests = [
        Request(op="run", source=GOOD, id="a"),
        Request(op="run", source="(car 5)", id="b"),
        Request(op="compile", source="(+ 1 2)", id="c"),
    ]
    inline = BatchService(jobs=1, cache=False).run(requests)
    pooled = BatchService(jobs=2, cache=False).run(requests)
    strip = lambda r: (r.id, r.op, r.ok, r.value, r.error_kind)  # noqa: E731
    assert [strip(r) for r in inline] == [strip(r) for r in pooled]


def test_pooled_cache_hits_via_disk(tmp_path):
    requests = [Request(op="compile", source=GOOD, id=i) for i in range(2)]
    BatchService(jobs=2, cache_dir=str(tmp_path)).run(requests)
    service = BatchService(jobs=2, cache_dir=str(tmp_path))
    responses = service.run(requests)
    assert all(r.cached for r in responses)
    assert service.stats()["cache"]["hits"] == len(requests)
    assert service.stats()["pool"]["completed"] == len(requests)


def test_on_response_fires_per_completion():
    seen = []
    service = BatchService(jobs=1, cache=False)
    service.run(
        [Request(op="compile", source="(+ 1 2)", id=i) for i in range(3)],
        on_response=lambda r: seen.append(r.id),
    )
    assert sorted(seen) == [0, 1, 2]


def _reqtracer(tmp_path, rate=1.0):
    from repro.observe.reqtrace import ReqTracer, TailSampler
    from repro.observe.spanstore import SpanStore

    store = SpanStore(str(tmp_path / "spans"))
    return ReqTracer(store, TailSampler(rate=rate, slowest_k=0, seed=0),
                     service="batch")


def _traces(tmp_path):
    from repro.observe.spanstore import iter_records

    by_trace = {}
    for record in iter_records(str(tmp_path / "spans")):
        by_trace.setdefault(record["trace"], []).append(record)
    return by_trace


def test_inline_requests_are_traced(tmp_path):
    service = BatchService(jobs=1, cache=False, reqtracer=_reqtracer(tmp_path))
    responses = service.run(
        [
            Request(op="run", source=GOOD, id="good"),
            Request(op="run", source="(car 5)", id="bad"),
        ]
    )
    assert [r.ok for r in responses] == [True, False]
    by_trace = _traces(tmp_path)
    assert len(by_trace) == 2
    roots = {
        r["attrs"]["id"]: r
        for records in by_trace.values()
        for r in records
        if r["name"] == "request"
    }
    assert roots["good"]["attrs"]["status"] == "ok"
    assert roots["bad"]["attrs"]["status"] == "runtime-error"
    # The handler compiled and ran under the request's own trace.
    good = {r["name"]: r for r in by_trace[roots["good"]["trace"]]}
    assert {"run", "compile", "allocate", "execute"} <= set(good)
    assert good["run"]["parent"] == roots["good"]["span"]
    assert good["compile"]["parent"] == good["run"]["span"]


def test_pooled_requests_are_traced(tmp_path):
    service = BatchService(jobs=2, cache=False, reqtracer=_reqtracer(tmp_path))
    responses = service.run(
        [Request(op="run", source=GOOD, id=i) for i in range(3)]
    )
    assert all(r.ok for r in responses)
    by_trace = _traces(tmp_path)
    assert len(by_trace) == 3
    for records in by_trace.values():
        by_name = {r["name"]: r for r in records}
        assert {"request", "queue", "run"} <= set(by_name)
        # Worker pass spans rode home through the task meta, under run.
        assert by_name["compile"]["parent"] == by_name["run"]["span"]
        assert by_name["compile"]["service"] == "worker"
        assert len({r["pid"] for r in records}) == 2
        # Timestamps nest monotonically after clock normalization.
        for record in records:
            parent = next(
                (p for p in records if p["span"] == record.get("parent")), None
            )
            if parent is not None:
                assert parent["start_ns"] <= record["start_ns"]
                assert (parent["start_ns"] + parent["dur_ns"]
                        >= record["start_ns"] + record["dur_ns"])


def test_pooled_worker_records_keep_their_parent_links(tmp_path):
    service = BatchService(jobs=2, cache=False, reqtracer=_reqtracer(tmp_path))
    (response,) = service.run([Request(op="run", source=GOOD)])
    assert response.ok
    (records,) = _traces(tmp_path).values()
    by_name = {r["name"]: r for r in records}
    # The worker recorded under the run span id the batch allocated
    # before submitting, and its own links arrive unchanged.
    assert by_name["compile"]["parent"] == by_name["run"]["span"]
    assert by_name["execute"]["parent"] == by_name["run"]["span"]
    assert by_name["read"]["parent"] == by_name["compile"]["span"]
    assert by_name["allocate"]["parent"] == by_name["compile"]["span"]
    assert by_name["read"]["pid"] == by_name["compile"]["pid"]
    assert by_name["read"]["service"] == "worker"


def test_untraced_service_unchanged(tmp_path):
    service = BatchService(jobs=1, cache=False)
    assert service.reqtracer is None
    (response,) = service.run([Request(op="run", source=GOOD)])
    assert response.ok


def test_summarize():
    responses = [
        Response(id=0, op="run", ok=True, cached=True),
        Response(id=1, op="run", ok=True, cached=False),
        Response(id=2, op="run", ok=False, error_kind="budget"),
    ]
    doc = summarize(responses)
    assert doc == {
        "requests": 3,
        "ok": 2,
        "errors": {"budget": 1},
        "cache_hits": 1,
        "cache_misses": 1,
    }


def test_response_dict_shapes():
    ok = Response(id=1, op="run", ok=True, value="3", counters={}).as_dict()
    assert ok["value"] == "3"
    assert "error" not in ok
    bad = Response(id=2, op="run", ok=False, error_kind="crash", error="x").as_dict()
    assert bad["error_kind"] == "crash"
    assert "value" not in bad
