"""Per-procedure VM profiles.

The VM's :class:`~repro.vm.counters.Counters` report whole-run totals;
this module attributes them to individual code objects.  Attribution is
**delta-based**: the machine calls :meth:`VMProfiler.switch` at every
procedure transition (call, tail call, return, continuation invoke,
call/cc), and the profiler charges everything the counters accumulated
since the previous transition to the procedure that was running.  The
per-instruction dispatch path is untouched, and the deltas sum to the
run totals *exactly* — conservation is by construction, and the
integration tests assert it.

Stall cycles from a load issued in one procedure but consumed after a
return are charged to the consumer — the same accounting the paper uses
when it credits eager restores with hiding memory latency behind the
caller's continuation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

#: Name prefix of the per-procedure span records (``"proc tak"``).
PROC_PREFIX = "proc "

# Scalar counter attributes attributed per procedure (besides cycles
# and instructions, which the machine passes explicitly).
_SCALARS = (
    "calls",
    "tail_calls",
    "prim_calls",
    "closure_allocs",
    "branches",
    "mispredicts",
    "moves",
    "swaps",
)


class ProcProfile:
    """Accumulated costs for one code object."""

    __slots__ = (
        "name",
        "label",
        "cycles",
        "instructions",
        "activations",
        "stack_reads",
        "stack_writes",
        "calls",
        "tail_calls",
        "prim_calls",
        "closure_allocs",
        "branches",
        "mispredicts",
        "moves",
        "swaps",
    )

    def __init__(self, name: str, label: str) -> None:
        self.name = name
        self.label = label
        self.cycles = 0
        self.instructions = 0
        self.activations = 0
        self.stack_reads: Dict[str, int] = {}
        self.stack_writes: Dict[str, int] = {}
        self.calls = 0
        self.tail_calls = 0
        self.prim_calls = 0
        self.closure_allocs = 0
        self.branches = 0
        self.mispredicts = 0
        self.moves = 0
        self.swaps = 0

    @property
    def saves(self) -> int:
        return self.stack_writes.get("save", 0)

    @property
    def restores(self) -> int:
        return self.stack_reads.get("restore", 0)

    @property
    def total_stack_refs(self) -> int:
        return sum(self.stack_reads.values()) + sum(self.stack_writes.values())

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "label": self.label,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "activations": self.activations,
            "stack_refs": self.total_stack_refs,
            "stack_reads": {k: self.stack_reads[k] for k in sorted(self.stack_reads)},
            "stack_writes": {k: self.stack_writes[k] for k in sorted(self.stack_writes)},
            "saves": self.saves,
            "restores": self.restores,
            "calls": self.calls,
            "tail_calls": self.tail_calls,
            "prim_calls": self.prim_calls,
            "closure_allocs": self.closure_allocs,
            "branches": self.branches,
            "mispredicts": self.mispredicts,
            "moves": self.moves,
            "swaps": self.swaps,
        }

    def __repr__(self) -> str:
        return (
            f"<ProcProfile {self.label} cycles={self.cycles} "
            f"refs={self.total_stack_refs}>"
        )


class VMProfiler:
    """Aggregates per-procedure profiles for one machine run.

    The machine calls :meth:`start` once with the entry code object,
    :meth:`switch` at every transition, and :meth:`finish` when the run
    halts.  Cost when profiling is *off* is a single ``is not None``
    test at each transition; the dispatch path never sees the profiler.
    """

    def __init__(self, counters=None) -> None:
        # Rebound by the Machine to its own Counters instance.
        self.counters = counters
        self.profiles: Dict[int, ProcProfile] = {}
        self._current: Optional[ProcProfile] = None
        self._last_cycle = 0
        self._last_executed = 0
        self._last_reads: Dict[str, int] = {}
        self._last_writes: Dict[str, int] = {}
        self._last_scalars = {name: 0 for name in _SCALARS}

    def _profile_for(self, code) -> ProcProfile:
        prof = self.profiles.get(code.uid)
        if prof is None:
            prof = ProcProfile(code.name, code.label)
            self.profiles[code.uid] = prof
        return prof

    def start(self, code) -> None:
        self._current = self._profile_for(code)
        self._current.activations += 1

    def switch(self, code, cycle: int, executed: int) -> None:
        """Transition into a *new* activation of *code* (call paths)."""
        self._flush(cycle, executed)
        self._current = self._profile_for(code)
        self._current.activations += 1

    def resume(self, code, cycle: int, executed: int) -> None:
        """Transition back into an *existing* activation of *code*
        (returns and continuation invocations)."""
        self._flush(cycle, executed)
        self._current = self._profile_for(code)

    def finish(self, cycle: int, executed: int) -> None:
        self._flush(cycle, executed)
        self._current = None

    def _flush(self, cycle: int, executed: int) -> None:
        prof = self._current
        if prof is None:  # pragma: no cover - machine always starts first
            return
        counters = self.counters
        prof.cycles += cycle - self._last_cycle
        prof.instructions += executed - self._last_executed
        self._last_cycle = cycle
        self._last_executed = executed

        reads = counters.stack_reads
        if reads != self._last_reads:
            last = self._last_reads
            dst = prof.stack_reads
            for kind, total in reads.items():
                delta = total - last.get(kind, 0)
                if delta:
                    dst[kind] = dst.get(kind, 0) + delta
            self._last_reads = dict(reads)
        writes = counters.stack_writes
        if writes != self._last_writes:
            last = self._last_writes
            dst = prof.stack_writes
            for kind, total in writes.items():
                delta = total - last.get(kind, 0)
                if delta:
                    dst[kind] = dst.get(kind, 0) + delta
            self._last_writes = dict(writes)

        scalars = self._last_scalars
        for name in _SCALARS:
            total = getattr(counters, name)
            delta = total - scalars[name]
            if delta:
                setattr(prof, name, getattr(prof, name) + delta)
                scalars[name] = total

    # -- queries --------------------------------------------------------

    def hot(self, n: Optional[int] = None) -> List[ProcProfile]:
        """Procedures ranked by attributed cycles, hottest first."""
        ranked = sorted(
            self.profiles.values(), key=lambda p: p.cycles, reverse=True
        )
        return ranked[:n] if n is not None else ranked

    def totals(self) -> Dict[str, Any]:
        """Sums across all procedures (equal to the run's counters)."""
        cycles = instructions = 0
        reads: Dict[str, int] = {}
        writes: Dict[str, int] = {}
        scalars = {name: 0 for name in _SCALARS}
        for prof in self.profiles.values():
            cycles += prof.cycles
            instructions += prof.instructions
            for kind, v in prof.stack_reads.items():
                reads[kind] = reads.get(kind, 0) + v
            for kind, v in prof.stack_writes.items():
                writes[kind] = writes.get(kind, 0) + v
            for name in _SCALARS:
                scalars[name] += getattr(prof, name)
        return {
            "cycles": cycles,
            "instructions": instructions,
            "stack_reads": reads,
            "stack_writes": writes,
            **scalars,
        }

    def as_rows(self) -> List[Dict[str, Any]]:
        return [p.as_dict() for p in self.hot()]

    def record(self, tracer, span) -> None:
        """Attach the table to *span* (the ``execute`` span) as
        zero-duration child records, hottest first."""
        for row in self.as_rows():
            tracer.record(
                PROC_PREFIX + row["label"], span.start_ns, 0,
                parent=span.span_id, **row,
            )
