"""Hostile protocol input, over both transports of the daemon core.

One seeded table of bad lines, shuffled per seed and sent over stdio
and over TCP: every complete line under the line limit gets exactly
one response, a line over the limit ends intake on its connection,
and the daemon stays up.
"""

from __future__ import annotations

import io
import json
import random
import socket

import pytest

from repro.serve.net import BackgroundServer
from repro.serve.stdio import serve_stdio

#: (line, fields its one response must carry); lines that cannot be
#: parsed are answered with ``"id": null``.
PROTOCOL_ERROR = {"ok": False, "error_kind": "protocol"}
HOSTILE = [
    ("this is not json {", PROTOCOL_ERROR),
    ("[1, 2, 3]", PROTOCOL_ERROR),
    ({"id": "unknown-op", "op": "frobnicate", "source": "1"}, PROTOCOL_ERROR),
    ({"id": "no-source", "op": "run"}, PROTOCOL_ERROR),
    (
        {"id": "cancel-nobody", "op": "cancel", "target": "nobody"},
        {"ok": True, "cancelled": False},
    ),
    (
        {"id": "bad-traceparent", "op": "run", "source": "(+ 1 2)",
         "traceparent": "zz-not-a-traceparent"},
        {"ok": True, "value": "3"},
    ),
    (
        {"id": "bad-config", "op": "compile", "source": "(+ 1 2)",
         "config": {"no_such_field": 1}},
        PROTOCOL_ERROR,
    ),
    ({"id": "good", "op": "compile", "source": "(+ 1 1)"}, {"ok": True}),
]

#: One line past the 1 MiB limit.
OVER_LIMIT = json.dumps({"id": "huge", "op": "run", "source": "x" * (1 << 20)})

PING = {"id": "ping", "op": "ping"}


def _table(seed):
    rows = list(HOSTILE)
    random.Random(seed).shuffle(rows)
    lines = [row if isinstance(row, str) else json.dumps(row) for row, _ in rows]
    return rows, lines + [json.dumps(PING)]


def _check(rows, responses):
    """Exactly one response per complete line, each as expected."""
    by_id = {}
    for response in responses:
        rid = response["id"]
        assert rid is None or rid not in by_id, f"two answers for {response}"
        by_id.setdefault(rid, []).append(response)
    expected = {"ping": [{"pong": True}], None: []}
    for row, fields in rows:
        expected.setdefault(row["id"] if isinstance(row, dict) else None, []).append(fields)
    assert sorted(by_id, key=str) == sorted(expected, key=str)
    for rid, wanted in expected.items():
        assert len(by_id[rid]) == len(wanted)
        for response, fields in zip(by_id[rid], wanted):
            assert fields.items() <= response.items(), response


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hostile_lines_over_stdio(seed):
    rows, lines = _table(seed)
    # Past the over-limit line intake is over: the line after it is
    # never read, and the daemon answers what it admitted, drains, and
    # exits 0.
    lines += [OVER_LIMIT, json.dumps({"id": "after-limit", "op": "ping"})]
    stdout = io.StringIO()
    code = serve_stdio(
        stdin=io.StringIO("\n".join(lines) + "\n"), stdout=stdout,
        jobs=1, cache=False,
    )
    assert code == 0
    docs = [json.loads(line) for line in stdout.getvalue().splitlines()]
    assert docs[0]["event"] == "ready" and docs[-1]["event"] == "bye"
    _check(rows, [d for d in docs if "event" not in d])


class _Conn:
    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=30)
        self.reader = self.sock.makefile("rb")
        assert json.loads(self.reader.readline())["event"] == "ready"

    def recv(self):
        try:
            line = self.reader.readline()
        except ConnectionResetError:
            return None
        return json.loads(line) if line else None

    def close(self):
        self.reader.close()
        self.sock.close()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hostile_lines_over_tcp(seed):
    rows, lines = _table(seed)
    with BackgroundServer(jobs=1, disk_cache=False) as bg:
        # A client that vanishes mid-line.
        doomed = socket.create_connection(bg.address, timeout=30)
        doomed.sendall(b'{"id": "partial", "op": "run", "sou')
        doomed.close()

        conn = _Conn(bg.address)
        conn.sock.sendall("".join(line + "\n" for line in lines).encode())
        responses = [conn.recv() for _ in lines]
        _check(rows, responses)
        # The over-limit line ends intake: the server closes the
        # connection without answering it.
        try:
            conn.sock.sendall((OVER_LIMIT + "\n").encode())
        except OSError:
            pass
        assert conn.recv() is None
        conn.close()

        # The daemon is still up, for a new connection.
        probe = _Conn(bg.address)
        probe.sock.sendall((json.dumps(PING) + "\n").encode())
        assert probe.recv()["pong"] is True
        probe.close()
