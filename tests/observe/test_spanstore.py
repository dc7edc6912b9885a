"""The span store: segment rotation, size bounds, corruption-tolerant
reads, tree reconstruction, critical-path attribution, Chrome export."""

import json
import os
import threading

import pytest

from repro.observe.export import chrome_trace
from repro.observe.spanstore import (
    SpanStore,
    build_tree,
    critical_path,
    critical_path_summary,
    iter_records,
    load_trace,
    render_tree,
    self_times,
    slowest_traces,
    trace_summaries,
)


def span(trace, sid, parent, name, start, dur, pid=1, **attrs):
    return {
        "trace": trace,
        "span": sid,
        "parent": parent,
        "name": name,
        "start_ns": start,
        "dur_ns": dur,
        "pid": pid,
        "service": "test",
        "attrs": attrs,
    }


def sample_trace(trace="t1", base=1_000_000_000):
    return [
        span(trace, "root", None, "request", base, 100_000_000,
             status="ok", op="compile"),
        span(trace, "adm", "root", "admission", base + 1_000, 50_000),
        span(trace, "wait", "root", "wait", base + 100_000, 99_000_000),
        span(trace, "q", "wait", "queue", base + 200_000, 30_000_000),
        span(trace, "run", "wait", "run", base + 30_200_000, 60_000_000),
        span(trace, "comp", "run", "compile", base + 31_000_000,
             55_000_000, pid=2),
        span(trace, "resp", "root", "respond", base + 99_100_000, 500_000),
    ]


# ---------------------------------------------------------------------------
# Writing: bounds + rotation
# ---------------------------------------------------------------------------


def test_append_then_read_roundtrip(tmp_path):
    store = SpanStore(str(tmp_path))
    assert store.append_trace(sample_trace()) == 7
    assert store.append_trace([]) == 0
    records = list(iter_records(str(tmp_path)))
    assert len(records) == 7
    assert records[0]["trace"] == "t1"


def test_segments_rotate_at_the_byte_cap(tmp_path):
    store = SpanStore(str(tmp_path), max_segment_bytes=2000, max_segments=100)
    for i in range(20):
        store.append_trace(sample_trace(trace=f"t{i:02d}"))
    names = sorted(os.listdir(tmp_path))
    assert len(names) > 1
    assert all(n.startswith("spans-") and n.endswith(".jsonl") for n in names)
    assert store.rotations == len(names) - 1
    # Nothing was lost across the rotation boundary.
    assert len({r["trace"] for r in iter_records(str(tmp_path))}) == 20


def test_oldest_segments_are_pruned_past_max_segments(tmp_path):
    store = SpanStore(str(tmp_path), max_segment_bytes=2000, max_segments=3)
    for i in range(30):
        store.append_trace(sample_trace(trace=f"t{i:02d}"))
    names = sorted(os.listdir(tmp_path))
    assert len(names) <= 3
    # The newest traces survive; the oldest are gone.
    traces = {r["trace"] for r in iter_records(str(tmp_path))}
    assert "t29" in traces
    assert "t00" not in traces


def test_store_resumes_into_existing_segments(tmp_path):
    SpanStore(str(tmp_path)).append_trace(sample_trace(trace="before"))
    store = SpanStore(str(tmp_path))
    store.append_trace(sample_trace(trace="after"))
    assert len(os.listdir(tmp_path)) == 1  # appended, not restarted
    traces = {r["trace"] for r in iter_records(str(tmp_path))}
    assert traces == {"before", "after"}


def test_bad_bounds_rejected(tmp_path):
    with pytest.raises(ValueError):
        SpanStore(str(tmp_path), max_segment_bytes=0)
    with pytest.raises(ValueError):
        SpanStore(str(tmp_path), max_segments=0)


def test_concurrent_appends_never_tear_lines(tmp_path):
    store = SpanStore(str(tmp_path), max_segment_bytes=4000)

    def write(tag):
        for i in range(25):
            store.append_trace(sample_trace(trace=f"{tag}{i:02d}"))

    threads = [
        threading.Thread(target=write, args=(t,)) for t in ("a", "b", "c")
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Every line in every surviving segment parses.
    for name in os.listdir(tmp_path):
        for line in open(tmp_path / name):
            if line.strip():
                json.loads(line)
    assert store.spans_written == 3 * 25 * 7


# ---------------------------------------------------------------------------
# Reading: corruption tolerance + lookup
# ---------------------------------------------------------------------------


def test_corrupt_lines_are_skipped_not_fatal(tmp_path):
    store = SpanStore(str(tmp_path))
    store.append_trace(sample_trace())
    path = tmp_path / sorted(os.listdir(tmp_path))[0]
    with open(path, "a") as handle:
        handle.write("{torn json\n")
        handle.write('"a bare string"\n')
        handle.write('{"no_trace_key": 1}\n')
        handle.write("\n")
    more = SpanStore(str(tmp_path))
    more.append_trace(sample_trace(trace="t2"))
    traces = {r["trace"] for r in iter_records(str(tmp_path))}
    assert traces == {"t1", "t2"}


def test_load_trace_by_unique_prefix(tmp_path):
    store = SpanStore(str(tmp_path))
    store.append_trace(sample_trace(trace="abcd1234deadbeef"))
    store.append_trace(sample_trace(trace="ffff1234deadbeef"))
    assert len(load_trace(str(tmp_path), "abcd")) == 7
    assert load_trace(str(tmp_path), "abcd1234deadbeef")[0]["trace"].startswith(
        "abcd"
    )
    assert load_trace(str(tmp_path), "0000") == []
    store.append_trace(sample_trace(trace="abcdffffdeadbeef"))
    with pytest.raises(ValueError, match="ambiguous"):
        load_trace(str(tmp_path), "abcd")


def test_trace_summaries_and_slowest(tmp_path):
    store = SpanStore(str(tmp_path))
    fast = sample_trace(trace="fast", base=2_000_000_000)
    fast[0]["dur_ns"] = 5_000_000
    store.append_trace(fast)
    store.append_trace(sample_trace(trace="slow", base=1_000_000_000))
    rows = trace_summaries(str(tmp_path))
    assert [row["trace"] for row in rows] == ["fast", "slow"]  # newest first
    row = rows[1]
    assert row["name"] == "request"
    assert row["status"] == "ok"
    assert row["op"] == "compile"
    assert row["spans"] == 7
    assert row["pids"] == [1, 2]
    slowest = slowest_traces(str(tmp_path), k=1)
    assert [row["trace"] for row in slowest] == ["slow"]


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


def test_build_tree_nests_by_parentage(tmp_path):
    (root,) = build_tree(sample_trace())
    record, kids = root
    assert record["span"] == "root"
    assert [k[0]["name"] for k in kids] == ["admission", "wait", "respond"]
    wait = kids[1]
    assert [k[0]["name"] for k in wait[1]] == ["queue", "run"]
    run = wait[1][1]
    assert run[1][0][0]["name"] == "compile"


def test_orphans_become_roots_not_dropped():
    records = sample_trace()
    orphan = span("t1", "x", "missing-parent", "cache.lookup", 1, 10)
    roots = build_tree(records + [orphan])
    assert len(roots) == 2
    assert {r[0]["span"] for r in roots} == {"root", "x"}


def test_render_tree_shows_nesting_and_attrs():
    text = render_tree(sample_trace())
    lines = text.splitlines()
    assert lines[0].startswith("trace t1 — 7 span(s)")
    assert any("request" in line and "status=ok" in line for line in lines)
    request_line = next(
        line for line in lines if line.lstrip().startswith("request")
    )
    compile_line = next(
        line for line in lines if line.lstrip().startswith("compile")
    )
    assert compile_line.index("compile") > request_line.index("request")
    assert "[pid 2]" in compile_line
    assert render_tree([]) == "(no spans)\n"


# ---------------------------------------------------------------------------
# Critical path
# ---------------------------------------------------------------------------


def test_self_times_subtract_children():
    selfs = self_times(sample_trace())
    assert selfs["comp"] == 55_000_000
    assert selfs["run"] == 5_000_000  # 60ms minus the 55ms compile
    assert selfs["wait"] == 9_000_000  # 99 - 30 - 60
    assert min(selfs.values()) >= 0


def test_critical_path_categories():
    path = critical_path(sample_trace())
    assert path["compile"] == pytest.approx(0.060)  # run self + compile self
    assert path["queue"] == pytest.approx(0.039)  # queue + wait self
    assert path["admission"] == pytest.approx(50_000 / 1e9)
    assert path["write"] == pytest.approx(500_000 / 1e9)
    summary = critical_path_summary([sample_trace(), sample_trace()])
    assert summary["compile"] == pytest.approx(0.120)


# ---------------------------------------------------------------------------
# Chrome export
# ---------------------------------------------------------------------------


def test_chrome_trace_shape():
    doc = chrome_trace(sample_trace())
    assert doc["displayTimeUnit"] == "ms"
    assert doc["otherData"]["traces"] == ["t1"]
    events = doc["traceEvents"]
    metadata = [e for e in events if e.get("ph") == "M"]
    assert {e["pid"] for e in metadata} == {1, 2}
    slices = [e for e in events if e.get("ph") == "X"]
    assert len(slices) == 7
    root = next(e for e in slices if e["name"] == "request")
    assert root["ts"] == 0  # relative to trace start
    assert root["dur"] == pytest.approx(100_000)  # microseconds
    assert chrome_trace([])["traceEvents"] == []


# ---------------------------------------------------------------------------
# The repro spans CLI
# ---------------------------------------------------------------------------


def _populated_store(tmp_path):
    store = SpanStore(str(tmp_path))
    store.append_trace(sample_trace(trace="abcd1234deadbeef"))
    slow = sample_trace(trace="ffff1234deadbeef", base=2_000_000_000)
    slow[0]["dur_ns"] = 300_000_000
    store.append_trace(slow)
    return str(tmp_path)


def test_cli_spans_list_show_slowest_export(tmp_path, capsys):
    from repro.cli import main

    directory = _populated_store(tmp_path / "spans")

    assert main(["spans", "list", "--trace-dir", directory]) == 0
    out = capsys.readouterr().out
    assert "abcd1234deadbeef" in out and "ffff1234deadbeef" in out
    assert "op=compile status=ok" in out
    assert "pids 1,2" in out

    assert main(["spans", "show", "abcd", "--trace-dir", directory]) == 0
    out = capsys.readouterr().out
    assert out.startswith("trace abcd1234deadbeef")
    assert "request" in out and "compile" in out

    assert main(
        ["spans", "slowest", "--trace-dir", directory, "--limit", "1",
         "--critical-path"]
    ) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("ffff1234deadbeef")
    assert "critical path" in out
    assert "compile" in out and "%" in out

    out_path = tmp_path / "chrome.json"
    assert main(
        ["spans", "export", "ffff", "--trace-dir", directory,
         "-o", str(out_path)]
    ) == 0
    capsys.readouterr()
    doc = json.loads(out_path.read_text())
    assert doc["otherData"]["traces"] == ["ffff1234deadbeef"]
    assert len([e for e in doc["traceEvents"] if e.get("ph") == "X"]) == 7

    # No id: the whole store as one timeline.
    assert main(
        ["spans", "export", "--trace-dir", directory, "-o", str(out_path)]
    ) == 0
    capsys.readouterr()
    doc = json.loads(out_path.read_text())
    assert doc["otherData"]["traces"] == [
        "abcd1234deadbeef", "ffff1234deadbeef"
    ]
    assert len([e for e in doc["traceEvents"] if e.get("ph") == "X"]) == 14


def test_cli_spans_json_modes(tmp_path, capsys):
    from repro.cli import main

    directory = _populated_store(tmp_path / "spans")
    assert main(["spans", "list", "--trace-dir", directory, "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {row["trace"] for row in rows} == {
        "abcd1234deadbeef", "ffff1234deadbeef"
    }
    assert main(
        ["spans", "slowest", "--trace-dir", directory, "--json",
         "--critical-path"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["slowest"][0]["trace"] == "ffff1234deadbeef"
    assert doc["critical_path_s"]["compile"] > 0


def test_cli_spans_errors(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
    assert main(["spans", "list"]) == 2
    assert "--trace-dir" in capsys.readouterr().err

    missing = str(tmp_path / "nowhere")
    assert main(["spans", "list", "--trace-dir", missing]) == 1
    assert "no span store" in capsys.readouterr().err

    directory = _populated_store(tmp_path / "spans")
    assert main(["spans", "show", "0000", "--trace-dir", directory]) == 1
    assert "no trace" in capsys.readouterr().err
    # An ambiguous prefix is an error message, not a traceback.
    store = SpanStore(directory)
    store.append_trace(sample_trace(trace="abcdffffdeadbeef"))
    assert main(["spans", "show", "abcd", "--trace-dir", directory]) == 1
    assert "ambiguous" in capsys.readouterr().err

    monkeypatch.setenv("REPRO_TRACE_DIR", directory)
    assert main(["spans", "list"]) == 0
    assert "ffff1234deadbeef" in capsys.readouterr().out
