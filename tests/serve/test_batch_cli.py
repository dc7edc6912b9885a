"""The ``repro batch`` and ``repro cache`` CLI surfaces."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

NAMES = ["tak", "takl", "deriv"]


def _batch(capsys, *argv):
    code = main(["batch", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bench_batch_cold_then_warm(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, out, err = _batch(
        capsys, "--bench", *NAMES, "--cache-dir", cache, "--json"
    )
    assert code == 0
    cold = json.loads(out)
    assert cold["summary"]["cache_misses"] == len(NAMES)

    code, out, err = _batch(
        capsys, "--bench", *NAMES, "--cache-dir", cache, "--json"
    )
    assert code == 0
    warm = json.loads(out)
    # The acceptance bar: a warm-cache pass recompiles nothing.
    assert warm["summary"]["cache_hits"] == len(NAMES)
    assert warm["summary"]["cache_misses"] == 0
    assert warm["stats"]["cache"]["misses"] == 0


def test_bench_batch_run_mode(tmp_path, capsys):
    code, out, _ = _batch(
        capsys, "--bench", "tak", "--run",
        "--cache-dir", str(tmp_path), "--json",
    )
    assert code == 0
    (response,) = json.loads(out)["responses"]
    assert response["op"] == "run"
    assert response["value"] is not None


def test_bench_batch_unknown_name(tmp_path, capsys):
    code, _, err = _batch(
        capsys, "--bench", "nonesuch", "--cache-dir", str(tmp_path)
    )
    assert code == 1
    assert "unknown benchmark" in err


def test_batch_requires_input(capsys):
    code, _, err = _batch(capsys)
    assert code == 1
    assert "request file" in err


def test_request_file_batch(tmp_path, capsys):
    requests = tmp_path / "requests.jsonl"
    requests.write_text(
        "\n".join(
            [
                "# comment lines are skipped",
                json.dumps({"id": "a", "op": "run", "source": "(+ 1 2)"}),
                json.dumps({"op": "compile", "source": "(* 2 3)"}),
                json.dumps({"id": "bad", "op": "run", "source": "(car 9)"}),
            ]
        )
        + "\n"
    )
    code, out, _ = _batch(
        capsys, str(requests), "--cache-dir", str(tmp_path / "c"), "--json"
    )
    assert code == 1  # one failing request fails the batch
    doc = json.loads(out)
    by_id = {r["id"]: r for r in doc["responses"]}
    assert by_id["a"]["value"] == "3"
    assert by_id[3]["ok"]  # unnamed request gets its line number
    assert by_id["bad"]["error_kind"] == "runtime-error"


def test_request_file_batch_reports_reader_and_depth_errors(tmp_path, capsys):
    depth = 10_000
    deep_call = "(define (g x) x) " + "(g " * depth + "1" + ")" * depth
    deep_list = (
        "(let loop ((i 0) (acc '()))"
        " (if (= i 2000) acc (loop (+ i 1) (list acc))))"
    )
    requests = tmp_path / "requests.jsonl"
    requests.write_text(
        "\n".join(
            json.dumps({"id": rid, "op": "run", "source": source})
            for rid, source in [
                ("dotted", "'#(1 . 2)"), ("deep-call", deep_call),
                ("deep-list", deep_list), ("after", "(+ 20 22)"),
            ]
        )
        + "\n"
    )
    code, out, _ = _batch(
        capsys, str(requests), "--cache-dir", str(tmp_path / "c"), "--json"
    )
    assert code == 1
    by_id = {r["id"]: r for r in json.loads(out)["responses"]}
    assert by_id["dotted"]["error_kind"] == "read-error"
    assert by_id["deep-call"]["error_kind"] == "compile-error"
    assert by_id["deep-list"]["value"] == "(" * 2000 + "()" + ")" * 2000
    assert by_id["after"]["value"] == "42"


def test_request_file_bad_line(tmp_path, capsys):
    requests = tmp_path / "requests.jsonl"
    requests.write_text("{not json}\n")
    code, _, err = _batch(capsys, str(requests))
    assert code == 1
    assert "line 1" in err


def test_request_file_mistyped_field(tmp_path, capsys):
    requests = tmp_path / "requests.jsonl"
    requests.write_text(
        json.dumps({"id": "a", "op": "run", "source": "(+ 1 2)"}) + "\n"
        + json.dumps({"id": "b", "op": "run", "source": "(+ 1 2)", "timeout": "x"})
        + "\n"
    )
    code, out, err = _batch(capsys, str(requests), "--no-cache")
    assert code == 1
    assert out == ""
    assert "bad request on line 2" in err
    assert "timeout" in err


def test_batch_per_line_output(tmp_path, capsys):
    code, out, err = _batch(
        capsys, "--bench", "tak", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    (line,) = out.strip().splitlines()
    assert json.loads(line)["id"] == "tak"
    assert "1 request(s)" in err


def test_no_cache_never_hits(tmp_path, capsys):
    for _ in range(2):
        code, out, _ = _batch(capsys, "--bench", "tak", "--no-cache", "--json")
        assert code == 0
        assert json.loads(out)["summary"]["cache_hits"] == 0


@pytest.mark.parametrize("flag", ["stats", "clear"])
def test_cache_cli(tmp_path, capsys, flag):
    cache = str(tmp_path / "cache")
    assert main(["batch", "--bench", "tak", "--cache-dir", cache]) == 0
    capsys.readouterr()
    assert main(["cache", flag, "--cache-dir", cache]) == 0
    captured = capsys.readouterr()
    # One entry: the compiled program.
    if flag == "stats":
        assert "entries  1" in captured.out
    else:
        assert "cleared 1" in captured.err


def test_cache_gc_cli(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    main(["batch", "--bench", *NAMES, "--cache-dir", cache])
    capsys.readouterr()
    assert main(["cache", "gc", "--cache-dir", cache, "--max-entries", "1"]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", cache, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"] == 1


def test_cache_gc_requires_a_bound(tmp_path, capsys):
    assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 2
    assert "give --max-entries" in capsys.readouterr().err


def test_serve_requires_stdio(capsys):
    assert main(["serve"]) == 2
    assert "--stdio" in capsys.readouterr().err


def test_cache_stats_verify_cli(tmp_path, capsys):
    cache = str(tmp_path / "cc")
    assert main(["batch", "--bench", "tak", "--cache-dir", cache]) == 0
    capsys.readouterr()
    assert main(
        ["cache", "stats", "--cache-dir", cache, "--verify", "--json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    # One tier, one entry: the compiled program.
    assert doc["verify"] == {
        "scanned": 1, "ok": 1, "corrupt": 0, "removed": 0,
        "bytes": doc["bytes"],
    }
    assert doc["entries"] == 1
    assert doc["counters"]["corruptions"] == 0

    # Corrupt the entry on disk: verify must report it and exit
    # non-zero.
    from repro.serve.cache import CompileCache

    (entry,) = CompileCache(root=cache).entries()
    with open(entry.path, "wb") as handle:
        handle.write(b"junk")
    assert main(["cache", "stats", "--cache-dir", cache, "--verify"]) == 1
    out = capsys.readouterr().out
    assert "1 corrupt" in out


def test_batch_writes_metrics_snapshot(tmp_path, capsys):
    path = str(tmp_path / "metrics.json")
    code, _, err = _batch(
        capsys, "--bench", "tak", "--memory-cache", "--metrics-out", path
    )
    assert code == 0
    assert f"metrics written to {path}" in err
    doc = json.loads(open(path).read())
    assert doc["counters"]['repro_requests{op="compile",status="ok"}'] == 1

    # --no-metrics suppresses the snapshot entirely.
    missing = str(tmp_path / "none.json")
    code, _, err = _batch(
        capsys, "--bench", "tak", "--memory-cache",
        "--metrics-out", missing, "--no-metrics",
    )
    assert code == 0
    import os

    assert not os.path.exists(missing)


@pytest.mark.parametrize("jobs", [1, 2])
def test_batch_trace_dir_holds_every_request_tree(tmp_path, capsys, jobs):
    store = str(tmp_path / "spans")
    code, _, err = _batch(
        capsys, "--bench", "tak", "deriv", "--jobs", str(jobs),
        "--no-cache", "--no-metrics", "--trace-dir", store,
    )
    assert code == 0
    assert main(["spans", "list", "--trace-dir", store, "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    pids = set()
    for row in rows:
        assert main(["spans", "show", row["trace"], "--trace-dir", store,
                     "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        names = {r["name"] for r in records}
        assert {"request", "run", "compile", "allocate"} <= names
        assert len(row["pids"]) == (2 if jobs > 1 else 1)
        pids.update(row["pids"])

    # With no id, export is the whole store as one timeline, one process
    # row per pid (the batch process and, pooled, its workers).
    out = str(tmp_path / "all.json")
    assert main(["spans", "export", "--trace-dir", store, "-o", out]) == 0
    capsys.readouterr()
    doc = json.loads(open(out).read())
    assert sorted(doc["otherData"]["traces"]) == sorted(r["trace"] for r in rows)
    process_rows = {
        e["pid"] for e in doc["traceEvents"] if e["name"] == "process_name"
    }
    assert process_rows == pids
    assert {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"} == pids


def test_bench_history_appends_records(tmp_path, capsys):
    path = str(tmp_path / "bench.jsonl")
    assert main(["bench", "tak", "--history", path]) == 0
    assert main(["bench", "tak", "--json", "--history", path]) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in open(path)]
    assert len(records) == 2
    for record in records:
        assert record["kind"] == "bench"
        assert record["benchmarks"] == ["tak"]
        assert "ts" in record and "unix_s" in record and "version" in record
        assert record["config"]["save_strategy"] == "lazy"
    assert "rows" in records[1]
    assert records[1]["rows"][0]["counters"]["instructions"] > 0
