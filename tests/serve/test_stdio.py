"""The ``repro serve --stdio`` JSON-lines daemon, run in-process over
string streams."""

from __future__ import annotations

import io
import json

from repro.serve.stdio import PROTOCOL_VERSION, serve_stdio


def _serve(lines, jobs=1, **kwargs):
    """Feed *lines* (dicts or raw strings) to the daemon; return the
    parsed response documents in emission order and the exit code."""
    raw = "\n".join(
        line if isinstance(line, str) else json.dumps(line) for line in lines
    )
    stdout = io.StringIO()
    code = serve_stdio(
        stdin=io.StringIO(raw + "\n"), stdout=stdout, jobs=jobs, cache=False,
        **kwargs
    )
    docs = [json.loads(line) for line in stdout.getvalue().splitlines()]
    return docs, code


def _by_id(docs):
    return {d["id"]: d for d in docs if "id" in d and d.get("event") is None}


def test_ready_banner_and_bye():
    docs, code = _serve([{"id": 1, "op": "ping"}, {"id": 2, "op": "shutdown"}])
    assert code == 0
    assert docs[0]["event"] == "ready"
    assert docs[0]["protocol"] == PROTOCOL_VERSION
    assert docs[0]["jobs"] == 1
    assert docs[-1]["event"] == "bye"


def test_ping_pong():
    docs, _ = _serve([{"id": "p", "op": "ping"}, {"op": "shutdown"}])
    assert _by_id(docs)["p"] == {"id": "p", "ok": True, "pong": True}


def test_run_request_round_trip():
    docs, _ = _serve(
        [
            {"id": 1, "op": "run", "source": "(+ 20 22)"},
            {"id": 2, "op": "shutdown"},
        ]
    )
    response = _by_id(docs)[1]
    assert response["ok"]
    assert response["value"] == "42"
    assert response["op"] == "run"


def test_compile_request_and_config():
    docs, _ = _serve(
        [
            {
                "id": "c",
                "op": "compile",
                "source": "(define (f x) (+ x 1)) (f 1)",
                "config": {"save_strategy": "early"},
            },
            {"op": "shutdown"},
        ]
    )
    response = _by_id(docs)["c"]
    assert response["ok"]
    assert response["instructions"] > 0


def test_errors_are_per_request():
    # No shutdown line: shutdown cancels queued requests, EOF drains them.
    docs, _ = _serve(
        [
            {"id": "bad", "op": "run", "source": "(car 5)"},
            {"id": "good", "op": "run", "source": "(+ 1 1)"},
        ]
    )
    by_id = _by_id(docs)
    assert by_id["bad"]["ok"] is False
    assert by_id["bad"]["error_kind"] == "runtime-error"
    assert by_id["good"]["value"] == "2"


def test_unparseable_line_is_protocol_error():
    docs, _ = _serve(["this is not json", {"op": "shutdown"}])
    errors = [d for d in docs if d.get("error_kind") == "protocol"]
    assert len(errors) == 1
    assert errors[0]["id"] is None


def test_bad_request_shape_is_protocol_error():
    docs, _ = _serve(
        [
            {"id": 7, "op": "run"},  # no source
            {"id": 8, "op": "frobnicate", "source": "(+ 1 2)"},
            {"op": "shutdown"},
        ]
    )
    by_id = _by_id(docs)
    assert by_id[7]["error_kind"] == "protocol"
    assert by_id[8]["error_kind"] == "protocol"


def test_stats_control():
    docs, _ = _serve([{"id": "s", "op": "stats"}, {"op": "shutdown"}])
    stats = _by_id(docs)["s"]["stats"]["pool"]
    assert stats["jobs"] == 1
    assert "queue_depth" in stats


def test_budget_enforced():
    docs, _ = _serve(
        [
            {
                "id": "b",
                "op": "run",
                "source": "(define (spin n) (if (= n 0) 0 (spin (- n 1)))) (spin 100000000)",
                "max_instructions": 10000,
            },
            {"op": "shutdown"},
        ]
    )
    response = _by_id(docs)["b"]
    assert response["ok"] is False
    assert response["error_kind"] == "budget"


def test_eof_drains_in_flight():
    # No shutdown line: EOF should still deliver the pending response.
    docs, code = _serve([{"id": 1, "op": "run", "source": "(* 6 7)"}])
    assert code == 0
    assert _by_id(docs)[1]["value"] == "42"
    assert docs[-1]["event"] == "bye"


def test_shutdown_cancels_queued_requests():
    lines = [
        {"id": "slow", "op": "run",
         "source": "(define (spin n) (if (= n 0) 0 (spin (- n 1)))) (spin 2000000)"},
        {"id": "queued", "op": "run", "source": "(+ 1 1)"},
        {"id": "bye", "op": "shutdown"},
    ]
    docs, _ = _serve(lines, jobs=1)
    by_id = _by_id(docs)
    # The queued request either ran before shutdown was processed or
    # was cancelled — but it must have been answered either way.
    assert "queued" in by_id
    assert by_id["queued"]["ok"] or by_id["queued"]["error_kind"] == "cancelled"


def test_eof_mid_burst_drains_every_response():
    # A burst of requests followed immediately by EOF (no shutdown):
    # the daemon must answer every id before bye, not just the ones
    # that finished while stdin was still open.
    lines = [
        {"id": i, "op": "run", "source": f"(+ {i} 100)"} for i in range(8)
    ]
    docs, code = _serve(lines, jobs=2)
    assert code == 0
    by_id = _by_id(docs)
    for i in range(8):
        assert by_id[i]["value"] == str(i + 100), f"request {i} lost at EOF"
    assert docs[-1]["event"] == "bye"


class _DyingPipe(io.StringIO):
    """A stdout that dies (like a killed client's pipe) after N writes."""

    def __init__(self, fail_after: int) -> None:
        super().__init__()
        self.fail_after = fail_after
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        if self.writes > self.fail_after:
            raise BrokenPipeError("client went away")
        return super().write(text)


def test_client_death_mid_burst_exits_cleanly(tmp_path):
    # Regression test: the client dies mid-burst (EOF on stdin AND a
    # broken stdout pipe).  The daemon used to crash out of its drain
    # on the first failed write — exiting nonzero with queued responses
    # undelivered and no final metrics snapshot.  Now a dead pipe joins
    # the same graceful-drain path as shutdown/EOF: exit 0, metrics
    # flushed.
    from repro.serve.stdio import serve_stdio

    metrics_out = tmp_path / "metrics.json"
    lines = "\n".join(
        json.dumps({"id": i, "op": "run", "source": f"(* {i} 3)"})
        for i in range(6)
    )
    stdout = _DyingPipe(fail_after=2)  # ready banner + one response
    code = serve_stdio(
        stdin=io.StringIO(lines + "\n"),
        stdout=stdout,
        jobs=1,
        cache=False,
        metrics_out=str(metrics_out),
    )
    assert code == 0
    assert metrics_out.exists(), "final metrics snapshot not flushed"
    # Whatever made it out before the pipe broke is intact JSON.
    for line in stdout.getvalue().splitlines():
        json.loads(line)


def test_client_death_drops_queued_work(tmp_path):
    # With the client gone nobody reads the answers: queued (not yet
    # running) tasks are cancelled rather than computed for a dead
    # peer, and the daemon still exits 0.
    from repro.serve.stdio import serve_stdio

    lines = "\n".join(
        json.dumps({"id": i, "op": "run", "source": "(+ 1 1)"})
        for i in range(10)
    )
    stdout = _DyingPipe(fail_after=1)  # dies right after the banner
    code = serve_stdio(
        stdin=io.StringIO(lines + "\n"), stdout=stdout, jobs=1, cache=False
    )
    assert code == 0


def test_stdio_requests_are_traced(tmp_path):
    trace_dir = tmp_path / "spans"
    docs, code = _serve(
        [
            {"id": 1, "op": "run", "source": "(+ 20 22)",
             "traceparent": "ab" * 8 + "-" + "cd" * 8},
            {"id": 2, "op": "run", "source": "(car 5)"},
            # No shutdown line: EOF drains, so neither request is
            # cancelled out of the queue before it runs.
        ],
        trace_dir=str(trace_dir),
        trace_sample=1.0,
    )
    assert code == 0
    by_id = _by_id(docs)
    assert by_id[1]["ok"]
    # The response echoes the client's trace id.
    assert by_id[1]["traceparent"].startswith("ab" * 8 + "-")
    assert by_id[2]["error_kind"] == "runtime-error"

    from repro.observe.spanstore import build_tree, load_trace

    records = load_trace(str(trace_dir), "ab" * 8)
    names = {r["name"] for r in records}
    assert {"request", "intake", "queue", "run", "respond"} <= names
    # Worker compile spans rode home through the task meta.
    assert "compile" in names
    assert len({r["pid"] for r in records}) >= 2
    by_name = {r["name"]: r for r in records}
    assert by_name["request"]["parent"] == "cd" * 8
    assert by_name["request"]["attrs"]["status"] == "ok"
    assert by_name["compile"]["parent"] == by_name["run"]["span"]
    (root,) = build_tree(records)
    assert root[0]["name"] == "request"
    # The error request's trace is there too, status classified.
    err_trace = by_id[2]["traceparent"].split("-")[0]
    err_records = load_trace(str(trace_dir), err_trace)
    err_root = next(r for r in err_records if r["name"] == "request")
    assert err_root["attrs"]["status"] == "runtime-error"


def test_daemon_subprocess_round_trip():
    # Regression test: run the daemon as a real subprocess over real
    # pipes.  A worker forked while the reader thread held sys.stdin's
    # buffered-stream lock used to inherit the held lock and deadlock
    # in multiprocessing's _close_stdin, so the daemon never answered.
    # The in-process StringIO harness above cannot reproduce that; only
    # a blocking read on a real fd can.
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    lines = "\n".join(
        [
            json.dumps({"id": 1, "op": "run", "source": "(+ 20 22)"}),
            json.dumps({"id": 2, "op": "shutdown"}),
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--stdio", "--no-cache"],
        input=lines + "\n",
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
    )
    assert proc.returncode == 0, proc.stderr
    docs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert _by_id(docs)[1]["value"] == "42"
    assert docs[-1]["event"] == "bye"


#: A few hundred ms in a worker: lines sent together with it are all
#: read while it is still unresolved.
SLOW = "(define (spin n) (if (= n 0) 0 (spin (- n 1)))) (spin 2000000)"


def test_admission_bounds_a_burst():
    from repro.config import ServeConfig

    lines = [
        {"id": i, "op": "run", "source": SLOW + " " * i} for i in range(5)
    ]
    docs, code = _serve(
        lines, serve_config=ServeConfig(max_pending_per_tenant=2)
    )
    assert code == 0
    responses = [d for d in docs if "event" not in d]
    assert sorted(d["id"] for d in responses) == list(range(5))
    ok = [d for d in responses if d["ok"]]
    overloaded = [d for d in responses if d.get("error_kind") == "overloaded"]
    assert len(ok) == 2 and len(overloaded) == 3
    assert {d["reason"] for d in overloaded} == {"tenant-queue-full"}
    assert docs[-1]["event"] == "bye"


def test_identical_runs_are_deduped():
    docs, code = _serve(
        [
            {"id": 1, "op": "run", "source": SLOW},
            {"id": 2, "op": "run", "source": SLOW},
        ]
    )
    assert code == 0
    by_id = _by_id(docs)
    assert by_id[1]["value"] == by_id[2]["value"] == "0"
    assert [by_id[i].get("deduped", False) for i in (1, 2)].count(True) == 1


def _daemon(*args):
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--stdio", "--no-cache", *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
    )


def test_subprocess_client_death_exits_cleanly(tmp_path):
    # Real pipes: the client reads the banner, then closes its end of
    # the daemon's stdout, so every response write hits EPIPE.  The
    # dead client's requests are withdrawn and the daemon still drains
    # to exit 0 with its final metrics snapshot written.
    metrics_out = tmp_path / "metrics.json"
    proc = _daemon("--metrics-out", str(metrics_out))
    assert json.loads(proc.stdout.readline())["event"] == "ready"
    proc.stdout.close()
    lines = [
        {"id": 1, "op": "run", "source": SLOW},
        {"id": 2, "op": "run", "source": "(+ 1 2)"},
        {"id": 3, "op": "ping"},
    ]
    proc.stdin.write("".join(json.dumps(line) + "\n" for line in lines).encode())
    proc.stdin.close()
    assert proc.wait(timeout=60) == 0
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert "Traceback" not in stderr, stderr
    assert json.loads(metrics_out.read_text())["counters"]


def test_subprocess_eof_burst_answers_every_id():
    # Real pipes, no shutdown line: closing stdin is a half-close, so
    # every request is answered before bye.
    proc = _daemon()
    lines = [
        {"id": i, "op": "run", "source": f"(* {i} 2)"} for i in range(6)
    ]
    out, err = proc.communicate(
        "".join(json.dumps(line) + "\n" for line in lines).encode(), timeout=60
    )
    assert proc.returncode == 0, err.decode()
    docs = [json.loads(line) for line in out.decode().splitlines()]
    assert docs[-1]["event"] == "bye"
    by_id = _by_id(docs)
    assert {i: by_id[i]["value"] for i in range(6)} == {
        i: str(i * 2) for i in range(6)
    }


#: One request per mistyped field, each with the field's name as its
#: id.  The timeout one runs long enough to reach the pool's deadline
#: sweep if it is ever admitted.
MISTYPED = [
    {"id": "source", "op": "run", "source": ["(+ 1 2)"]},
    {"id": "prelude", "op": "run", "source": "(+ 1 2)", "prelude": "no"},
    {"id": "max_instructions", "op": "run", "source": "(+ 1 2)", "max_instructions": "5"},
    {"id": "timeout", "op": "run", "source": SLOW, "timeout": "x"},
]


def test_mistyped_fields_are_protocol_errors_at_the_door():
    docs, code = _serve(
        [
            {"id": "before", "op": "stats"},
            *MISTYPED,
            {"id": "after", "op": "stats"},
            {"id": "next", "op": "run", "source": "(+ 20 22)"},
            {"op": "shutdown"},
        ]
    )
    assert code == 0
    by_id = _by_id(docs)
    for request in MISTYPED:
        response = by_id[request["id"]]
        assert response["error_kind"] == "protocol", response
        assert request["id"] in response["error"]  # names the field
    # None of them reached the pool.
    submitted = [by_id[i]["stats"]["pool"]["submitted"] for i in ("before", "after")]
    assert submitted[0] == submitted[1]
    assert by_id["next"]["value"] == "42"


def test_subprocess_mistyped_timeout_leaves_the_daemon_up():
    # A string timeout on a long run once reached the pool, whose
    # deadline sweep raised on it and killed the bridge thread: the
    # next request went unanswered and the daemon never exited.
    proc = _daemon()
    lines = [MISTYPED[-1], {"id": "next", "op": "run", "source": "(+ 20 22)"},
             {"op": "shutdown"}]
    try:
        out, err = proc.communicate(
            "".join(json.dumps(line) + "\n" for line in lines).encode(), timeout=60
        )
    finally:
        proc.kill()
    assert proc.returncode == 0, err.decode()
    by_id = _by_id([json.loads(line) for line in out.decode().splitlines()])
    assert by_id["timeout"]["error_kind"] == "protocol"
    assert by_id["next"]["value"] == "42"
