"""Task handlers executed inside pool workers.

Each task *kind* maps to a handler ``fn(payload, state) -> dict``.
``payload`` is the plain-data dict (or dataclass) the parent submitted;
``state`` is a per-worker scratch dict that outlives individual tasks —
it holds the worker's :class:`~repro.serve.cache.CompileCache` (the
disk tier is shared with every other worker through atomic writes; the
memory tier is process-local) and the fuzz generator.

Handlers raise freely: :func:`worker_main` converts any exception into
an error result classified by :func:`error_kind`, so one bad program
never takes down a worker, and a worker taken down anyway (hard crash)
fails only its own task (see :mod:`repro.serve.pool`).
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, Callable, Dict, Optional

from repro.config import CompilerConfig
from repro.errors import CompilerError
from repro.observe.metrics import get_registry
from repro.observe.recorder import set_active_trace
from repro.observe.tracer import Tracer
from repro.pipeline import compile_source, run_compiled
from repro.runtime.values import SchemeError
from repro.sexp.reader import ReaderError
from repro.sexp.writer import write_datum
from repro.vm.machine import VMError

HANDLERS: Dict[str, Callable[[Any, Dict[str, Any]], Dict[str, Any]]] = {}


def handler(kind: str):
    def register(fn):
        HANDLERS[kind] = fn
        return fn

    return register


def error_kind(exc: BaseException) -> str:
    """Classify an exception for the service protocol."""
    if isinstance(exc, VMError) and "budget" in str(exc):
        return "budget"
    if isinstance(exc, ReaderError):
        return "read-error"
    if isinstance(exc, CompilerError):
        return "compile-error"
    if isinstance(exc, SchemeError):
        return "runtime-error"
    if isinstance(exc, VMError):
        return "vm-error"
    return "error"


def _config_of(payload: Dict[str, Any]) -> CompilerConfig:
    doc = payload.get("config")
    if doc is None:
        return CompilerConfig()
    if isinstance(doc, CompilerConfig):
        return doc
    return CompilerConfig.from_dict(doc)


def _compile(payload: Dict[str, Any], state: Dict[str, Any]):
    """Compile through the worker's cache (when it has one), under the
    cache key the daemon computed when the payload carries one."""
    source = payload["source"]
    config = _config_of(payload)
    prelude = payload.get("prelude", True)
    cache = state.get("cache")
    tracer = state.get("tracer")
    if cache is not None:
        return cache.compile(
            source, config, prelude=prelude, tracer=tracer,
            key=payload.get("key"),
        )
    return (
        compile_source(source, config, prelude=prelude, tracer=tracer),
        False,
    )


@handler("compile")
def task_compile(payload: Dict[str, Any], state: Dict[str, Any]) -> Dict[str, Any]:
    compiled, hit = _compile(payload, state)
    return {
        "cached": hit,
        "instructions": compiled.total_instructions(),
        "procedures": len(compiled.codes),
    }


@handler("run")
def task_run(payload: Dict[str, Any], state: Dict[str, Any]) -> Dict[str, Any]:
    compiled, hit = _compile(payload, state)
    result = run_compiled(
        compiled, max_instructions=payload.get("max_instructions"),
        tracer=state.get("tracer"),
    )
    return {
        "cached": hit,
        "value": write_datum(result.value),
        "output": result.output,
        "counters": result.counters.as_dict(),
    }


@handler("fuzz")
def task_fuzz(payload: Dict[str, Any], state: Dict[str, Any]) -> Dict[str, Any]:
    """One fuzzing iteration: generate program (seed, i), run the full
    differential oracle.  Mirrors ``repro.fuzz.engine._check_iteration``
    but returns plain data for the result queue."""
    from repro.config import allocator_matrix, full_matrix, shuffle_matrix
    from repro.fuzz.genprog import ProgramGenerator
    from repro.fuzz.oracle import InvalidProgram, check_program

    seed = payload["seed"]
    gen_config = payload.get("gen_config")
    allocator = payload.get("allocator")
    shuffle = payload.get("shuffle")
    if state.get("fuzz_key") != (seed, gen_config, allocator, shuffle):
        state["fuzz_generator"] = ProgramGenerator(seed, gen_config)
        state["fuzz_key"] = (seed, gen_config, allocator, shuffle)
        if allocator:
            state["fuzz_configs"] = allocator_matrix(allocator)
        elif shuffle:
            state["fuzz_configs"] = shuffle_matrix(shuffle)
        else:
            state["fuzz_configs"] = full_matrix()
    program = state["fuzz_generator"].generate(payload["iteration"])
    out: Dict[str, Any] = {
        "source": program.source,
        "invalid": False,
        "configs_checked": 0,
        "shuffle_cycles": 0,
        "divergences": [],
        "failing_configs": [],
    }
    try:
        oracle = check_program(program.source, configs=state["fuzz_configs"])
    except InvalidProgram:
        out["invalid"] = True
        return out
    out["configs_checked"] = oracle.configs_checked
    out["shuffle_cycles"] = oracle.shuffle_cycles
    out["divergences"] = [d.as_dict() for d in oracle.divergences]
    out["failing_configs"] = [d.config.summary() for d in oracle.divergences]
    return out


@handler("selftest")
def task_selftest(payload: Dict[str, Any], state: Dict[str, Any]) -> Dict[str, Any]:
    """Deterministic failure modes for the pool's own test suite."""
    action = payload.get("action", "echo")
    if action == "echo":
        return {"echo": payload.get("value"), "pid": os.getpid()}
    if action == "sleep":
        time.sleep(payload.get("seconds", 60.0))
        return {"slept": payload.get("seconds", 60.0)}
    if action == "raise":
        raise RuntimeError(payload.get("message", "selftest"))
    if action == "exit":
        os._exit(payload.get("code", 13))
    raise ValueError(f"unknown selftest action {action!r}")


def _task_meta(
    registry, base: Dict[str, Any], tracer: Optional[Tracer]
) -> Optional[Dict[str, Any]]:
    """The telemetry a worker ships with each result: the registry
    delta since the task started (so parent aggregation is exact
    summation — fork inheritance can never double count) plus the
    task's span records, unchanged, when a trace context came with it."""
    meta: Dict[str, Any] = {}
    delta = registry.diff_snapshot(base)
    if delta.get("counters") or delta.get("histograms"):
        meta["metrics"] = delta
    if tracer is not None and tracer.records:
        meta["spans"] = tracer.records
    return meta or None


def worker_main(worker_id: int, inbox, outbox, init: Dict[str, Any]) -> None:
    """The worker process body: loop over the private inbox until the
    ``None`` sentinel, posting one result per task to the shared outbox.

    Every worker enables (and empties) the process-wide metrics
    registry at startup, then ships a per-task ``diff_snapshot`` with
    each result, so the parent's merged registry equals what a single
    process would have recorded.
    """
    # A daemon's drain handlers (asyncio's no-op SIGTERM/SIGINT
    # handlers and its wakeup fd) are inherited across a fork; a worker
    # must stay killable by the pool's terminate().
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    registry = get_registry()
    registry.enable()
    registry.clear()  # drop anything inherited across a fork
    state: Dict[str, Any] = {}
    if init.get("cache", True):
        from repro.serve.cache import CompileCache

        state["cache"] = CompileCache(
            root=init.get("cache_dir"),
            disk=init.get("disk_cache", True),
            registry=registry,
        )
    while True:
        try:
            message = inbox.get()
        except (EOFError, OSError):  # pragma: no cover - parent died
            return
        if message is None:
            return
        task_id, kind, payload, ctx = message
        base = registry.snapshot()
        tracer: Optional[Tracer] = None
        if ctx is not None:
            # Record under the request's trace: top-level spans hang
            # off the run span the parent allocated before submitting.
            tracer = Tracer.from_context(ctx)
            state["tracer"] = tracer
            set_active_trace(tracer.trace_id)
        started = time.perf_counter()
        try:
            fn = HANDLERS[kind]
            value = fn(payload, state)
            outbox.put(
                (worker_id, task_id, True, value, None, None,
                 time.perf_counter() - started,
                 _task_meta(registry, base, tracer))
            )
        except KeyboardInterrupt:  # pragma: no cover - interactive abort
            return
        except BaseException as exc:  # noqa: BLE001 - isolate every failure
            outbox.put(
                (
                    worker_id,
                    task_id,
                    False,
                    None,
                    error_kind(exc),
                    f"{type(exc).__name__}: {exc}",
                    time.perf_counter() - started,
                    _task_meta(registry, base, tracer),
                )
            )
        finally:
            state.pop("tracer", None)
            set_active_trace(None)
