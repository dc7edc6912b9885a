"""Per-layer spans taken from outside the program.

:func:`traced` wraps the layer entry points that ``repro.pipeline``,
``repro.vm.machine`` and ``repro.vm.blockcompile`` look up at call
time, so a traced window runs the program's own call sequence.  An
entry point that is gone or renamed fails loudly at install time.

Spans stay in memory as ``(id, name, start, end, parent, op)`` tuples
and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

from perfledger.stats import Span

#: (module, attribute, span name).  ``compile_blocks`` is wrapped in both
#: modules: the machine calls its own import lazily, and hot-exec set-up
#: calls the blockcompile one.
ENTRY_POINTS = (
    ("repro.pipeline", "read_all", "sexp.read"),
    ("repro.pipeline", "expand_program", "frontend.expand"),
    ("repro.pipeline", "assignment_convert", "frontend.convert"),
    ("repro.pipeline", "closure_convert", "frontend.closure"),
    ("repro.pipeline", "allocate_program", "alloc.allocate"),
    ("repro.pipeline", "generate_program", "backend.codegen"),
    ("repro.vm.machine", "compile_blocks", "vm.trace_pycompile"),
    ("repro.vm.blockcompile", "compile_blocks", "vm.trace_pycompile"),
    ("repro.vm.blockcompile", "build_trace_module", "vm.trace_build"),
    ("repro.vm.blockcompile", "predecode_code", "vm.predecode"),
    ("repro.vm.blockcompile", "instantiate_blocks", "vm.trace_instantiate"),
    ("repro.vm.machine", "Machine.run", "vm.exec"),
)

#: ``ProgramAllocation.pass_times`` keys, in the order the allocator runs them.
ALLOC_PASSES = ("liveness", "assign", "save-placement", "restore-placement", "shuffle")


class Tracer:
    """An in-memory span recorder with per-op counts."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.op: object = None
        #: Per-op counts: ``{op: {name: value}}``.
        self.counts: Dict[object, Dict[str, float]] = {}

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed out of order (open: {popped})")
        s = self.spans[sid]
        self.spans[sid] = (s[0], s[1], s[2], end, s[4], s[5])

    def add(self, name: str, start: float, end: float, parent: Optional[int]) -> None:
        """Record a finished span (allocator sub-passes, serve replies)."""
        self.spans.append((len(self.spans), name, start, end, parent, self.op))

    def count(self, name: str, value: float = 1) -> None:
        per_op = self.counts.setdefault(self.op, {})
        per_op[name] = per_op.get(name, 0) + value

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for sid, name, start, end, parent, op in self.spans:
                out.write(json.dumps(
                    {"id": sid, "name": name, "start": start, "end": end,
                     "parent": parent, "op": op}
                ) + "\n")


def _after_allocate(tracer: Tracer, sid: int, args, result) -> None:
    # The sub-pass durations come back in pass_times; lay them end to
    # end from the allocator's start as its children.
    start = tracer.spans[sid][2]
    for name in ALLOC_PASSES:
        seconds = result.pass_times[name]
        tracer.add("alloc." + name.replace("-", "_"), start, start + seconds, sid)
        start += seconds


def _after_trace_build(tracer: Tracer, sid: int, args, result) -> None:
    tracer.count("vm.trace_source_bytes", len(result.source))


def _after_trace_compile(tracer: Tracer, sid: int, args, result) -> None:
    tracer.count("vm.trace_codes")


_AFTER: Dict[str, Callable] = {
    "alloc.allocate": _after_allocate,
    "vm.trace_build": _after_trace_build,
    "vm.trace_pycompile": _after_trace_compile,
}


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    after = _AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if after is not None:
            after(tracer, sid, args, result)
        return result

    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every entry point in :data:`ENTRY_POINTS` for the duration."""
    patched = []
    try:
        for module_name, attr, name in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1], None)
            if not callable(original):
                raise RuntimeError(f"layer entry point {module_name}.{attr} is gone")
            setattr(owner, path[-1], _wrap(tracer, name, original))
            patched.append((owner, path[-1], original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
