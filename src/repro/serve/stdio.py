"""``repro serve --stdio`` — the daemon core over stdin and stdout.

The protocol, control ops, admission, dedup, tracing and the drain are
the daemon core's (:mod:`repro.serve.net.server`, where the protocol is
documented; a worked transcript lives in ``docs/serving.md``).  This
module is only the transport: stdin and stdout become the core's one
connection, and the session ends when that connection does —

* EOF on stdin while stdout is still writable is a half-close: every
  admitted request is answered, then the daemon drains, says ``bye``
  and exits 0;
* a broken stdout pipe is a dead client: its requests are withdrawn,
  the final metrics snapshot is still written, and the exit is 0.
"""

from __future__ import annotations

import asyncio
import os
import sys
import threading
from typing import List, Optional

from repro.config import ServeConfig
from repro.serve.net.server import PROTOCOL_VERSION, _LINE_LIMIT, run_daemon

__all__ = ["PROTOCOL_VERSION", "serve_stdio"]


def _fileno(stream) -> Optional[int]:
    try:
        return stream.fileno()
    except (AttributeError, OSError, ValueError):
        return None  # in-process streams (tests) have no fd


class _StdioPipe:
    """stdin and stdout as one connection: the ``readline`` of a stream
    reader and the ``write``/``drain``/``close`` of a stream writer."""

    def __init__(self, stdin, stdout) -> None:
        self.stdin = stdin
        self.stdout = stdout
        self._lines: Optional[asyncio.StreamReader] = None
        self._eof = False
        self._out: List[bytes] = []

    def get_extra_info(self, name: str, default=None):
        return default

    def can_write_eof(self) -> bool:
        return False

    async def readline(self) -> bytes:
        if self._lines is None:
            self._lines = asyncio.StreamReader(limit=_LINE_LIMIT)
            threading.Thread(
                target=self._read, args=(asyncio.get_running_loop(),),
                daemon=True,
            ).start()
        return await self._lines.readline()

    def _read(self, loop: asyncio.AbstractEventLoop) -> None:
        # Read the raw fd when there is one.  A thread blocked inside
        # sys.stdin's buffered read holds the stream's lock; a worker
        # forked at that moment inherits the held lock and deadlocks in
        # multiprocessing's _close_stdin before it ever reaches
        # worker_main.  os.read holds no Python-level lock, so worker
        # spawns (including respawns after a crash) are safe while this
        # thread blocks here.
        fd = _fileno(self.stdin)
        try:
            if fd is None:
                for line in self.stdin:
                    loop.call_soon_threadsafe(self._feed, line.encode())
            else:
                while True:
                    try:
                        chunk = os.read(fd, 65536)
                    except OSError:
                        break
                    if not chunk:
                        break
                    loop.call_soon_threadsafe(self._feed, chunk)
            loop.call_soon_threadsafe(self._feed, b"")
        except RuntimeError:
            pass  # the loop is closed: the session is already over

    def _feed(self, data: bytes) -> None:
        if self._eof:
            return
        if data:
            self._lines.feed_data(data)
        else:
            self._eof = True
            self._lines.feed_eof()

    def write(self, data: bytes) -> None:
        self._out.append(data)

    async def drain(self) -> None:
        data, self._out = b"".join(self._out), []
        # The blocking write runs off the loop, so a slow reader stalls
        # only its responses.
        await asyncio.to_thread(self._write, data)

    def _write(self, data: bytes) -> None:
        fd = _fileno(self.stdout)
        if fd is None:
            self.stdout.write(data.decode())
            self.stdout.flush()
            return
        # The raw fd again: no stream lock for a forked worker to
        # inherit, and nothing left buffered in sys.stdout to fail at
        # exit once the pipe is broken.
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]

    def close(self) -> None:
        if self._lines is not None:
            self._feed(b"")


def serve_stdio(
    stdin=None,
    stdout=None,
    jobs: int = 1,
    cache: bool = True,
    cache_dir: Optional[str] = None,
    disk_cache: bool = True,
    serve_config: Optional[ServeConfig] = None,
    metrics_out: Optional[str] = None,
    flight_dir: Optional[str] = None,
    trace_dir: Optional[str] = None,
    trace_sample: float = 1.0,
) -> int:
    """Run the daemon over *stdin*/*stdout* until the session ends (see
    the module docstring); returns the exit code.

    Work always goes through the pool — even at ``jobs=1`` — so a
    crashing program can never take the daemon itself down.
    ``serve_config`` sets the admission bounds, dedup and the drain
    grace (its address fields are unused); ``metrics_out`` (a JSON
    path) enables periodic registry snapshots — the file ``repro
    metrics`` and ``repro top`` read; ``flight_dir`` enables
    flight-recorder dumps on worker crashes and daemon errors.
    """
    pipe = _StdioPipe(
        stdin if stdin is not None else sys.stdin,
        stdout if stdout is not None else sys.stdout,
    )
    return run_daemon(
        pipe,
        serve_config=serve_config,
        trace_dir=trace_dir,
        trace_sample=trace_sample,
        jobs=jobs,
        cache=cache,
        cache_dir=cache_dir,
        disk_cache=disk_cache,
        metrics_out=metrics_out,
        flight_dir=flight_dir,
    )
