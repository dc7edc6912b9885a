"""The serve-mix workload: ``repro serve --tcp`` driven from outside.

The daemon runs as its own process with a fresh cache directory and
one worker per core.  This process is the one client: a closed loop
over one connection per core, because build tools wait for each reply.
A seeded plan mixes repeats of a small hot set (memory and artifact
tier hits, single-flight dedup when two connections ask at once) with
never-seen programs (a full compile, an artifact build and two cache
writes each).  Both kinds are split between ``compile`` and ``run``.

Everything here is measured from outside the daemon: the reply fields
``queued_s``, ``run_s``, ``cached`` and ``deduped``, and the ``stats``
and ``metrics`` control ops.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfledger import common, judge
from perfledger.common import Op

#: The plan's programs come from this generator stream, whatever the
#: seed; the seed orders the plan.
SERVE_GEN_SEED = 1
HOT_SET = 4
#: Every fifth op is a never-seen program, so the hot share is 0.8:
#: clearly away from one half, and the median latency sits inside the
#: hit mode.
COLD_EVERY = 5
#: Plan ops per second of ``--seconds`` (~30 ops/s on a 2-core host).
SERVE_RATE = 30.0
SERVE_MIN = 100
#: A reply slower than this is a timeout.
REPLY_TIMEOUT_S = 60.0

#: The serve layers' per-layer metrics (zero on in-process workloads).
SERVE_LAYERS = (
    "serve.queue_s", "serve.worker_s", "serve.frontdoor_s",
    "serve.cache.hit_ratio", "serve.cache.memory_hits", "serve.cache.artifact_hits",
    "serve.cache.disk_hits", "serve.cache.misses", "serve.cache.stores",
    "serve.hit_latency_p50_s", "serve.miss_latency_p50_s",
    "serve.dedup_hits", "serve.rejects",
)

_daemons = 0


def jobs() -> int:
    return os.cpu_count() or 1


def plan(seed: int, seconds: int) -> Tuple[List[Tuple[str, str, str]], List[Tuple[str, str]]]:
    """The ops ``(key, op, source)`` in order, and every program used.

    Never-seen programs take evenly spaced slots, in stream order, and
    alternate ``run`` and ``compile``; the seed orders the hot repeats,
    which are split evenly over the hot set and the two ops.  Every
    seed so has the same mix and the same rhythm of misses.
    """
    from repro.fuzz.genprog import ProgramGenerator

    n = max(SERVE_MIN, round(seconds * SERVE_RATE))
    is_cold = [i % COLD_EVERY == COLD_EVERY - 1 for i in range(n)]
    cold = sum(is_cold)
    gen = ProgramGenerator(SERVE_GEN_SEED)
    programs = [
        (f"gen{SERVE_GEN_SEED}-{i}", gen.generate(i).source) for i in range(HOT_SET + cold)
    ]
    hot = [
        (programs[i % HOT_SET], ("run", "compile")[(i // HOT_SET) % 2]) for i in range(n - cold)
    ]
    random.Random(f"serve-mix:{seed}").shuffle(hot)
    next_hot = iter(hot)
    ops = []
    j = 0
    for cold_slot in is_cold:
        if cold_slot:
            key, source = programs[HOT_SET + j]
            ops.append((key, ("run", "compile")[j % 2], source))
            j += 1
        else:
            (key, source), op = next(next_hot)
            ops.append((key, op, source))
    return ops, programs


class _Conn:
    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT_S)
        self.rfile = self.sock.makefile("rb")
        ready = json.loads(self.rfile.readline())
        if ready.get("event") != "ready":
            raise RuntimeError(f"daemon greeted with {ready}")

    def ask(self, doc: Dict) -> Dict:
        self.sock.sendall((json.dumps(doc) + "\n").encode())
        line = self.rfile.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class Daemon:
    """One ``repro serve --tcp`` process with its own cache directory."""

    def __init__(self) -> None:
        global _daemons
        _daemons += 1
        base = common.STATE / f"serve-{os.getpid()}-{_daemons}"
        self.cache_dir = base / "cache"
        self.cache_dir.mkdir(parents=True)
        self.log = (base / "daemon.log").open("w")
        self.conns: List[_Conn] = []
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--tcp", "127.0.0.1:0",
             "--jobs", str(jobs()), "--cache-dir", str(self.cache_dir), "--no-metrics"],
            stdout=subprocess.PIPE, stderr=self.log, env=common.child_env(),
            cwd=str(common.ROOT),
        )
        try:
            event = json.loads(self.proc.stdout.readline() or b"{}")
            if event.get("event") != "listening":
                raise RuntimeError(f"daemon did not start: {event}")
            self.conns = [_Conn(event["port"]) for _ in range(jobs())]
            self._warm()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _warm(self) -> None:
        """One tiny compile per connection, concurrently, so every
        worker of the pool has started."""
        replies: List[Dict] = []
        threads = [
            threading.Thread(target=lambda c=c, i=i: replies.append(c.ask(
                {"id": f"warm-{i}", "op": "compile", "source": f"(quote warm-{i})",
                 "prelude": False})))
            for i, c in enumerate(self.conns)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(REPLY_TIMEOUT_S)
        if len(replies) != len(self.conns) or not all(r.get("ok") for r in replies):
            raise RuntimeError(f"daemon pool did not warm up: {replies}")

    def peak_rss_mb(self) -> float:
        """Peak RSS of the daemon and every process under it."""
        total = 0.0
        pending = [self.proc.pid]
        while pending:
            pid = pending.pop()
            status = Path(f"/proc/{pid}/status").read_text()
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024.0
            for task in Path(f"/proc/{pid}/task").iterdir():
                children = (task / "children").read_text().split()
                pending.extend(int(c) for c in children)
        return total

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                if self.conns:
                    self.conns[0].ask({"id": "bye", "op": "shutdown"})
                self.proc.wait(timeout=30)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait(timeout=30)
        for conn in self.conns:
            conn.close()
        self.proc.stdout.close()
        self.log.close()
        shutil.rmtree(self.cache_dir.parent, ignore_errors=True)


def _kind(reply: Dict) -> str:
    kind = reply.get("error_kind")
    if kind in ("compile-error", "read-error"):
        return "compile error"
    if kind == "timeout":
        return "timeout"
    if kind in ("overloaded", "cancelled"):
        return "rejected"
    if kind == "error" and "string conversion" in (reply.get("error") or ""):
        return "write error"
    return "VM error"


def _window(daemon: Daemon, ops_plan: List[Tuple[str, str, str]]) -> Tuple[List[Op], float]:
    """Drive the plan in a closed loop, one thread per connection."""
    ops: List[Optional[Op]] = [None] * len(ops_plan)
    lock = threading.Lock()
    cursor = iter(range(len(ops_plan)))

    def client(conn: _Conn) -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            key, op_kind, source = ops_plan[i]
            t0 = time.perf_counter()
            try:
                reply = conn.ask({"id": i, "op": op_kind, "source": source})
            except socket.timeout:
                # A late reply would answer the next request: drop the
                # connection and leave the rest of the plan to the others.
                ops[i] = Op(key, op_kind, time.perf_counter() - t0, "timeout")
                return
            op = Op(key, op_kind, time.perf_counter() - t0)
            if reply.get("id") != i:
                raise RuntimeError(f"reply {reply.get('id')!r} answered request {i}")
            op.extra = {
                "queued_s": reply.get("queued_s", 0.0), "run_s": reply.get("run_s", 0.0),
                "cached": bool(reply.get("cached")), "deduped": bool(reply.get("deduped")),
            }
            if not reply.get("ok"):
                op.status = _kind(reply)
            elif op_kind == "run":
                op.value = reply["value"]
                op.output = reply.get("output", "")
                c = reply["counters"]
                op.counters = {k: c[k] for k in
                               ("cycles", "stack_refs", "instructions", "calls", "prim_calls")}
            else:
                op.static_instrs = reply["instructions"]
            ops[i] = op

    threads = [threading.Thread(target=client, args=(c,)) for c in daemon.conns]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    missing = [i for i, op in enumerate(ops) if op is None]
    if missing:
        raise RuntimeError(f"{len(missing)} planned ops never completed")
    return ops, wall


def serve_mix(seed: int, seconds: int, traced: bool = False) -> Dict:
    ops_plan, programs = plan(seed, seconds)
    refs = judge.references(programs)
    setup: List[float] = []
    # Set-up samples spread around the window: two daemons before it,
    # the window's own, two after.  Traced runs take the window's only.
    extra_before = 0 if traced else 2
    for _ in range(extra_before):
        d = Daemon()
        setup.append(d.setup_s)
        d.stop()
    daemon = Daemon()
    try:
        setup.append(daemon.setup_s)
        ops, wall = _window(daemon, ops_plan)
        stats = daemon.conns[0].ask({"id": "stats", "op": "stats"})["stats"]
        metrics = daemon.conns[0].ask({"id": "metrics", "op": "metrics"})["metrics"]
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    for _ in range(extra_before):
        d = Daemon()
        setup.append(d.setup_s)
        d.stop()
    judge.judge_ops(ops, refs)
    problems: List[str] = []
    return {
        "ops": ops,
        "busy_s": wall,
        "setup": setup,
        "rss_mb": rss,
        "programs": common.distinct_programs(ops, problems),
        "refs": refs,
        "inputs": common.digest(f"{k}\0{o}\0{s}" for k, o, s in ops_plan),
        "problems": problems,
        "sources": dict(programs),
        "daemon": {"stats": stats, "metrics": metrics},
    }


def serve_layers(result: Dict) -> Dict[str, float]:
    """The serve layers' numbers, from the replies and control ops."""
    from perfledger.stats import latency_samples, median

    ops: List[Op] = result["ops"]
    counters = result["daemon"]["metrics"].get("counters", {})
    server = result["daemon"]["stats"]["server"]

    def counter(name: str) -> float:
        return sum(v for k, v in counters.items() if k == name or k.startswith(name + "{"))

    def tier(name: str) -> float:
        return sum(v for k, v in counters.items()
                   if k.startswith("repro_cache_hits{") and f'"{name}"' in k)

    worked = [op for op in ops if op.status == "ok" and not op.extra["deduped"]]
    hits = [op.latency for op in ops if op.status == "ok" and op.extra["cached"]]
    misses = [op.latency for op in ops if op.status == "ok" and not op.extra["cached"]]
    hit_count = counter("repro_cache_hits")
    miss_count = counter("repro_cache_misses")
    return {
        "serve.queue_s": sum(op.extra["queued_s"] for op in worked),
        "serve.worker_s": sum(op.extra["run_s"] for op in worked),
        "serve.frontdoor_s": sum(
            max(0.0, op.latency - op.extra["queued_s"] - op.extra["run_s"]) for op in worked
        ),
        "serve.cache.hit_ratio": hit_count / (hit_count + miss_count) if hit_count else 0.0,
        "serve.cache.memory_hits": tier("memory"),
        "serve.cache.artifact_hits": tier("artifact"),
        "serve.cache.disk_hits": tier("disk"),
        "serve.cache.misses": miss_count,
        "serve.cache.stores": counter("repro_cache_stores"),
        "serve.hit_latency_p50_s": median(latency_samples(hits)) if hits else 0.0,
        "serve.miss_latency_p50_s": median(latency_samples(misses)) if misses else 0.0,
        "serve.dedup_hits": server["singleflight"]["dedup_hits"],
        "serve.rejects": sum(server["admission"]["rejects"].values()),
    }
