"""What every workload shares: paths, the op record, set-up sampling,
peak memory, the determinism ledger and the end-to-end metrics."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from perfledger import stats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Run state (reference cache, determinism ledger, span files, daemon
#: cache directories).  Never committed.
STATE = ROOT / "perfledger" / ".state"

#: Set-up samples per run; the reported ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Failure kinds, in report order.
FAILURE_KINDS = (
    "wrong value", "compile error", "VM error", "write error", "timeout", "rejected",
)


def bootstrap() -> None:
    """Import the program under test from this checkout's ``src``, and
    nowhere else; exit 2 when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"perfledger: cannot import the program under test: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"perfledger: repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def child_env() -> Dict[str, str]:
    """Environment for child processes: this checkout's sources, and no
    ``REPRO_*`` settings leaking in from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Op:
    """One op of a window, judged after the window ends."""

    key: str  # program identity
    kind: str  # "run" or "compile"
    latency: float
    status: str = "ok"  # "ok" or a FAILURE_KINDS entry
    value: Optional[str] = None
    output: str = ""
    counters: Optional[Dict[str, int]] = None
    static_instrs: Optional[int] = None
    #: :func:`code_quality` of the program the op compiled, if any.
    quality: Optional[Dict[str, int]] = None
    extra: Dict[str, object] = field(default_factory=dict)


def distinct_programs(ops: Sequence[Op], problems: List[str]) -> Dict[str, Dict]:
    """What the window saw of each distinct program: ``counters`` from a
    VM run, ``static_instrs`` from a compile and the compiled program's
    ``quality``.  Two ops of one program must agree exactly; each
    disagreement is added to *problems*."""
    programs: Dict[str, Dict] = {}
    for op in ops:
        fields = {"counters": op.counters, "static_instrs": op.static_instrs,
                  "quality": op.quality}
        if all(value is None for value in fields.values()):
            continue
        seen = programs.setdefault(op.key, dict.fromkeys(fields))
        for name, value in fields.items():
            if value is None:
                continue
            if seen[name] is None:
                seen[name] = value
            elif seen[name] != value:
                problems.append(f"{op.key}: {name} differ between two ops of one program")
    return programs


def counters_of(counters) -> Dict[str, int]:
    """The exact counts the benchmark keeps from a VM run."""
    return {
        "cycles": counters.cycles,
        "stack_refs": counters.total_stack_refs,
        "instructions": counters.instructions,
        "calls": counters.calls,
        "prim_calls": counters.prim_calls,
    }


def sample_points(units: int, k: int = SETUP_SAMPLES) -> List[int]:
    """Where to take *k* set-up samples among *units* window units:
    evenly from before the first unit to after the last."""
    return [round(i * units / (k - 1)) for i in range(k)]


def fresh_interpreter_s() -> float:
    """Seconds from spawning a fresh interpreter until it can call
    ``run_source`` — the start-up every ``repro run`` pays."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys\nfrom repro.pipeline import run_source\n"
         "sys.stdout.write('r')\nsys.stdout.flush()"],
        stdout=subprocess.PIPE, env=child_env(), cwd=str(ROOT),
    )
    try:
        ready = proc.stdout.read(1)
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if ready != b"r" or proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed to import repro.pipeline ({proc.returncode})")
    return elapsed


def self_peak_rss_mb() -> float:
    """Peak RSS of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(parts: Iterable[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def code_digest() -> str:
    """Digest of the program under test and the benchmark's own code,
    so that the ledger compares runs of one version only."""
    files = sorted(SRC.glob("repro/**/*.py")) + sorted((ROOT / "perfledger").glob("*.py"))
    return digest(f"{p.relative_to(ROOT)}\0{p.read_text()}" for p in files)


def ledger_check(entry_key: str, record: Dict[str, object]) -> List[str]:
    """Compare this run's inputs digest and exact counts with the first
    run of the same workload, seed, length and code in this checkout;
    record them when there is none.  Returns the mismatches."""
    path = STATE / "ledger.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    previous = ledger.get(entry_key)
    if previous is None:
        ledger[entry_key] = record
        STATE.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        tmp.replace(path)
        return []
    return [
        f"{name}: {previous.get(name)!r} before, {value!r} now"
        for name, value in record.items()
        if previous.get(name) != value
    ]


# -- end-to-end metrics -------------------------------------------------


def exact_metrics(
    programs: Dict[str, Dict[str, int]], refs: Dict[str, Dict]
) -> Dict[str, float]:
    """The paper's code-quality counts over the distinct programs.

    *programs* maps a program key to what the window saw of it:
    ``counters`` from a VM run and/or ``static_instrs`` from a compile.
    Cycles and stack references are divided by the reference
    interpreter's evaluation steps over the same programs.
    """
    cycles = refs_ = steps = 0
    instrs = compiled = 0
    for key, seen in programs.items():
        counters = seen.get("counters")
        if counters is not None:
            cycles += counters["cycles"]
            refs_ += counters["stack_refs"]
            steps += refs[key]["steps"]
        if seen.get("static_instrs") is not None:
            instrs += seen["static_instrs"]
            compiled += 1
    if not steps or not compiled:
        raise RuntimeError("no program ran and compiled: the exact counts are undefined")
    return {
        "sim_cycles": cycles / steps,
        "stack_refs": refs_ / steps,
        "code_size_instrs": instrs / compiled,
    }


def end_to_end(
    ops: Sequence[Op],
    busy_s: float,
    setup_samples: Sequence[float],
    peak_rss_mb: float,
    exact: Dict[str, float],
) -> Tuple[Dict[str, Dict[str, float]], List[str]]:
    """The nine end-to-end metrics, and summary lines to print."""
    samples = stats.latency_samples(None if op.status != "ok" else op.latency for op in ops)
    p50 = stats.median(samples)
    tail, pct, n = stats.tail(samples)
    ok = sum(1 for op in ops if op.status == "ok")
    values = {
        "setup_s": (stats.median(sorted(setup_samples)), "s"),
        "ops_per_s": (len(ops) / busy_s, "ops/s"),
        "latency_p50_s": (stats.reportable(p50), "s"),
        "latency_tail_s": (stats.reportable(tail), "s"),
        "success_rate": (ok / len(ops), "fraction"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "sim_cycles": (exact["sim_cycles"], "cycles/step"),
        "stack_refs": (exact["stack_refs"], "refs/step"),
        "code_size_instrs": (exact["code_size_instrs"], "instrs/program"),
    }
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    lines = [f"{name:18s} {v:.6g} {u}" for name, (v, u) in values.items()]
    lines[3] += f"   (p{pct:.2f} of {n} samples, {stats.TAIL_BEYOND} beyond)"
    lines[0] += "   (samples: " + ", ".join(f"{s:.3f}" for s in setup_samples) + ")"
    return metrics, lines


def failure_lines(ops: Sequence[Op]) -> List[str]:
    by_kind: Dict[str, List[str]] = {}
    for op in ops:
        if op.status != "ok":
            by_kind.setdefault(op.status, []).append(f"{op.key}/{op.kind}")
    lines = [f"attempted {len(ops)}, failed {sum(map(len, by_kind.values()))}"]
    for kind in FAILURE_KINDS:
        if kind in by_kind:
            keys = sorted(set(by_kind[kind]))
            lines.append(f"  {kind}: {len(by_kind[kind])} ops on {', '.join(keys)}")
    return lines


def code_quality(compiled) -> Dict[str, int]:
    """Static counts of one compiled program: instructions, peephole
    removals, shuffle cycles broken and evictions, and AST nodes of the
    closure-converted program as code generation consumed it."""
    from repro.astnodes import Call, count_nodes, walk

    cycles = evictions = nodes = 0
    for code in compiled.codes:
        nodes += count_nodes(code.body)
        for node in walk(code.body):
            if isinstance(node, Call) and node.shuffle_plan is not None:
                cycles += node.shuffle_plan.had_cycle
                evictions += node.shuffle_plan.evictions
    return {
        "static_instrs": compiled.total_instructions(),
        "peephole_removed": compiled.peephole_removed,
        "shuffle_cycles_broken": cycles,
        "shuffle_evictions": evictions,
        "nodes": nodes,
    }
