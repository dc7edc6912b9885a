"""End-to-end acceptance: ``repro run --trace-dir`` on a Gabriel
benchmark stores one trace whose ``repro spans export`` is a
Chrome-loadable timeline with one span per compiler pass, and whose
per-procedure profile (the children of ``execute``) conserves the run's
counters exactly."""

import json

import pytest

from repro.benchsuite.runner import run_benchmark
from repro.cli import main
from repro.config import CompilerConfig
from repro.observe import Tracer

PIPELINE_PASSES = ["read", "expand", "convert", "closure", "allocate", "codegen"]


@pytest.fixture
def tak_file(tmp_path):
    # The Gabriel tak benchmark, scaled down so the suite stays fast.
    path = tmp_path / "tak.scm"
    path.write_text(
        "(define (tak x y z)\n"
        "  (if (not (< y x)) z\n"
        "      (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))\n"
        "(tak 12 8 4)\n"
    )
    return str(path)


def test_run_trace_dir_then_spans_export(tak_file, tmp_path, capsys):
    store = str(tmp_path / "spans")
    assert main(["run", tak_file, "--trace-dir", store]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "5"  # the value, exactly as untraced
    assert store in captured.err

    out = tmp_path / "trace.json"
    assert main(["spans", "export", "--trace-dir", store, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    names = [e["name"] for e in spans]
    for name in PIPELINE_PASSES + ["execute", "compile", "run"]:
        assert names.count(name) == 1, f"expected exactly one {name!r} span"
    for event in spans:
        assert isinstance(event["ts"], (int, float))
        assert isinstance(event["dur"], (int, float))

    # The per-procedure rows are zero-duration slices inside execute;
    # their totals conserve the counters execute carries.
    execute = next(e for e in spans if e["name"] == "execute")
    rows = [e for e in spans if e["name"].startswith("proc ")]
    assert rows
    for row in rows:
        assert row["dur"] == 0
        assert execute["ts"] <= row["ts"] <= execute["ts"] + execute["dur"]
    counters = execute["args"]
    assert sum(r["args"]["cycles"] for r in rows) == counters["cycles"]
    assert sum(r["args"]["instructions"] for r in rows) == counters["instructions"]
    # Every procedure that ran was either only interpreted or
    # trace-compiled during the run; tak is hot, the prelude is not.
    assert counters["codes_interpreted"] + counters["codes_traced"] == len(rows)
    assert counters["codes_traced"] >= 1
    assert counters["codes_interpreted"] >= 1


def test_spans_show_renders_passes_and_profile(tak_file, tmp_path, capsys):
    store = str(tmp_path / "spans")
    assert main(["run", tak_file, "--trace-dir", store]) == 0
    capsys.readouterr()
    assert main(["spans", "list", "--trace-dir", store, "--json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert row["name"] == "run" and row["status"] == "ok"

    assert main(["spans", "show", row["trace"], "--trace-dir", store]) == 0
    out = capsys.readouterr().out
    for name in PIPELINE_PASSES + ["execute", "proc tak"]:
        assert name in out

    assert main(
        ["spans", "show", row["trace"], "--trace-dir", store, "--json"]
    ) == 0
    records = json.loads(capsys.readouterr().out)
    by_id = {r["span"]: r for r in records}
    procs = [r for r in records if r["name"].startswith("proc ")]
    assert procs and all(by_id[r["parent"]]["name"] == "execute" for r in procs)
    # Hottest first.
    cycles = [r["attrs"]["cycles"] for r in procs]
    assert cycles == sorted(cycles, reverse=True)


def test_run_json_output(tak_file, capsys):
    assert main(["run", tak_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == "5"
    assert set(PIPELINE_PASSES) <= set(doc["passes"])
    totals = doc["counters"]
    assert sum(p["cycles"] for p in doc["procedures"]) == totals["cycles"]
    assert sum(p["stack_refs"] for p in doc["procedures"]) == totals["stack_refs"]
    assert sum(p["saves"] for p in doc["procedures"]) == totals["saves"]
    assert sum(p["restores"] for p in doc["procedures"]) == totals["restores"]


def test_failed_run_is_traced_with_its_error_kind(tmp_path, capsys):
    bad = tmp_path / "bad.scm"
    bad.write_text("(car 5)\n")
    store = str(tmp_path / "spans")
    assert main(["run", str(bad), "--trace-dir", store]) == 1
    assert "runtime error" in capsys.readouterr().err
    assert main(["spans", "list", "--trace-dir", store, "--json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert row["status"] == "runtime-error"


def test_run_benchmark_with_tracer_and_profile():
    # The benchsuite path: the real Gabriel tak under full observation.
    tracer = Tracer()
    run = run_benchmark("tak", CompilerConfig(), tracer=tracer, profile=True)
    assert set(PIPELINE_PASSES) <= {r["name"] for r in tracer.records}
    totals = run.result.profile.totals()
    assert totals["cycles"] == run.counters.cycles
    assert totals["instructions"] == run.counters.instructions
    assert totals["stack_reads"] == run.counters.stack_reads
    assert totals["stack_writes"] == run.counters.stack_writes
