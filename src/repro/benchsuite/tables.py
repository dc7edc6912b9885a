"""Generators for every table and figure in the paper's evaluation.

Each ``table*``/``*_experiment`` function returns structured rows; the
matching ``format_*`` helper renders them in the paper's layout.  The
pytest benchmarks under ``benchmarks/`` call these and print the
results, so ``pytest benchmarks/ --benchmark-only`` regenerates the
whole evaluation section.

Experiment index (see DESIGN.md §3):

* :func:`table2`                — dynamic call-graph summary
* :func:`table3`                — stack-reference reduction + speedup for
  lazy/early/late saves vs the no-register baseline
* :func:`table4`                — tak: Chez-style vs C-style conventions
* :func:`table5`                — tak: early vs lazy callee-save
* :func:`shuffle_stats`         — §3.1 greedy-vs-optimal shuffling
* :func:`register_sweep`        — §4 performance vs number of registers
* :func:`restore_comparison`    — §2.2/Figure 2 eager vs lazy restores
* :func:`compile_time_profile`  — §4 allocator share of compile time
* :func:`branch_prediction_experiment` — §6 static branch prediction
* :func:`save_placement_ablation`      — §2.1 simple vs revised algorithm
* :func:`allocator_ablation`           — lazy vs linear scan vs graph
  coloring under the shared save/restore/shuffle machinery
* :func:`shuffle_study`                — greedy vs exhaustive-optimal vs
  permutation-instruction (``permopt``) shuffle codegen over the
  benchsuite and a shuffle-heavy fuzz corpus
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.astnodes import Call, walk
from repro.benchsuite.programs import BENCHMARKS, get_benchmark
from repro.benchsuite.runner import run_benchmark
from repro.config import CompilerConfig, CostModel
from repro.core.shuffle import dependency_edges, minimum_evictions
from repro.pipeline import compile_source, run_compiled
from repro.vm.callgraph import CATEGORIES

# The paper's table rows: the Gabriel suite plus the application-scale
# substitutes.  Local microbenchmarks are excluded by default.
DEFAULT_NAMES: Tuple[str, ...] = tuple(
    name for name, b in BENCHMARKS.items() if b.paper
)

# A compact subset for quick benchmark runs (pytest-benchmark rounds).
FAST_NAMES: Tuple[str, ...] = (
    "tak",
    "cpstak",
    "deriv",
    "div-rec",
    "browse",
    "fread",
)


def _names(names: Optional[Iterable[str]]) -> List[str]:
    return list(names) if names is not None else list(DEFAULT_NAMES)


# ---------------------------------------------------------------------------
# Table 2: dynamic call-graph summary
# ---------------------------------------------------------------------------


def table2(names: Optional[Iterable[str]] = None) -> List[Dict[str, object]]:
    """Per benchmark: total activations and the fraction in each of the
    paper's four categories.  The paper's headline: effective leaves
    (the first two categories) are over two thirds on average."""
    rows: List[Dict[str, object]] = []
    for name in _names(names):
        run = run_benchmark(name)
        fractions = run.classifier.fractions()
        rows.append(
            {
                "benchmark": name,
                "activations": run.classifier.total,
                **fractions,
                "effective-leaf": run.classifier.effective_leaf_fraction,
            }
        )
    if rows:
        avg = {
            "benchmark": "AVERAGE",
            "activations": sum(r["activations"] for r in rows) // len(rows),
        }
        for cat in (*CATEGORIES, "effective-leaf"):
            avg[cat] = sum(r[cat] for r in rows) / len(rows)
        rows.append(avg)
    return rows


def format_table2(rows: Sequence[Dict[str, object]]) -> str:
    header = (
        f"{'Benchmark':15s} {'Activations':>12s} "
        f"{'syn-leaf':>9s} {'nonsyn-leaf':>12s} {'nonsyn-int':>11s} "
        f"{'syn-int':>8s} {'eff-leaf':>9s}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['benchmark']:15s} {r['activations']:>12d} "
            f"{r['syntactic-leaf']:>9.1%} {r['non-syntactic-leaf']:>12.1%} "
            f"{r['non-syntactic-internal']:>11.1%} {r['syntactic-internal']:>8.1%} "
            f"{r['effective-leaf']:>9.1%}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 3: save strategies vs the no-register baseline
# ---------------------------------------------------------------------------

_SAVE_STRATEGIES = ("lazy", "early", "late")


def table3(
    names: Optional[Iterable[str]] = None,
    strategies: Sequence[str] = _SAVE_STRATEGIES,
) -> List[Dict[str, object]]:
    """Stack-reference reduction and cycle speedup of each save
    strategy (6 argument registers) relative to the 0-register
    baseline."""
    rows: List[Dict[str, object]] = []
    baseline_cfg = CompilerConfig.baseline()
    for name in _names(names):
        base = run_benchmark(name, baseline_cfg)
        row: Dict[str, object] = {
            "benchmark": name,
            "baseline-refs": base.stack_refs,
            "baseline-cycles": base.cycles,
        }
        for strategy in strategies:
            run = run_benchmark(name, CompilerConfig(save_strategy=strategy))
            row[f"{strategy}-refs"] = run.stack_refs
            row[f"{strategy}-cycles"] = run.cycles
            row[f"{strategy}-ref-reduction"] = (
                1.0 - run.stack_refs / base.stack_refs if base.stack_refs else 0.0
            )
            row[f"{strategy}-speedup"] = (
                base.cycles / run.cycles - 1.0 if run.cycles else 0.0
            )
        rows.append(row)
    if rows:
        avg: Dict[str, object] = {"benchmark": "AVERAGE"}
        for strategy in strategies:
            for metric in ("ref-reduction", "speedup"):
                key = f"{strategy}-{metric}"
                avg[key] = sum(r[key] for r in rows) / len(rows)
        rows.append(avg)
    return rows


def format_table3(rows: Sequence[Dict[str, object]]) -> str:
    header = f"{'Benchmark':15s}"
    for strategy in _SAVE_STRATEGIES:
        header += f" {strategy + ' refs':>12s} {strategy + ' perf':>12s}"
    lines = [header, "-" * len(header)]
    for r in rows:
        line = f"{r['benchmark']:15s}"
        for strategy in _SAVE_STRATEGIES:
            rr = r.get(f"{strategy}-ref-reduction")
            sp = r.get(f"{strategy}-speedup")
            line += f" {rr:>12.1%} {sp:>12.1%}" if rr is not None else " " * 26
        lines.append(line)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Tables 4 and 5: caller/callee-save comparisons on tak
# ---------------------------------------------------------------------------


def table4(name: str = "tak") -> List[Dict[str, object]]:
    """Chez (caller-save, lazy) against C-compiler-style code
    (callee-save, early saves) on tak.  Cycles normalized to the
    C-style configuration, as the paper normalizes to Alpha cc."""
    cstyle = run_benchmark(
        name, CompilerConfig(save_convention="callee", save_strategy="early")
    )
    chez = run_benchmark(name, CompilerConfig())
    rows = []
    for label, run in (("cc-style (callee early)", cstyle), ("Chez-style (caller lazy)", chez)):
        rows.append(
            {
                "system": label,
                "cycles": run.cycles,
                "stack-refs": run.stack_refs,
                "speedup-vs-cc": cstyle.cycles / run.cycles - 1.0,
            }
        )
    return rows


def table5(name: str = "tak") -> List[Dict[str, object]]:
    """Early vs lazy save placement for callee-save registers, plus the
    caller-save lazy configuration (the paper's hand-coded assembly)."""
    configs = [
        ("callee-save early", CompilerConfig(save_convention="callee", save_strategy="early")),
        ("callee-save lazy", CompilerConfig(save_convention="callee", save_strategy="lazy")),
        ("caller-save lazy", CompilerConfig()),
    ]
    runs = {label: run_benchmark(name, cfg) for label, cfg in configs}
    early = runs["callee-save early"]
    rows = []
    for label, run in runs.items():
        rows.append(
            {
                "configuration": label,
                "cycles": run.cycles,
                "stack-refs": run.stack_refs,
                "saves": run.counters.saves,
                "restores": run.counters.restores,
                "speedup-vs-early": early.cycles / run.cycles - 1.0,
            }
        )
    return rows


def format_table45(rows: Sequence[Dict[str, object]], key: str) -> str:
    label_key = "system" if "system" in rows[0] else "configuration"
    lines = []
    for r in rows:
        lines.append(
            f"{r[label_key]:28s} cycles={r['cycles']:>10d} "
            f"stack-refs={r['stack-refs']:>9d} {key}={r[key]:>7.1%}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# §3.1: shuffling statistics (greedy vs exhaustive optimal)
# ---------------------------------------------------------------------------


def shuffle_stats(names: Optional[Iterable[str]] = None) -> Dict[str, object]:
    """Compile every benchmark and compare the greedy shuffler against
    exhaustive search at every call site.

    The paper: only 7% of call sites had cycles, and greedy was optimal
    everywhere except six sites in the compiler (one extra temporary
    each)."""
    total_sites = 0
    cyclic_sites = 0
    optimal_sites = 0
    extra_temps = 0
    for name in _names(names):
        bench = get_benchmark(name)
        compiled = compile_source(bench.source, CompilerConfig())
        for code in compiled.codes:
            alloc = compiled.allocation.alloc_for(code)
            for node in walk(code.body):
                if not isinstance(node, Call):
                    continue
                plan = node.shuffle_plan
                total_sites += 1
                if plan.had_cycle:
                    cyclic_sites += 1
                simple = [
                    it
                    for it in plan.register_items
                    if not it.is_complex
                ]
                edges = dependency_edges(simple)
                best = minimum_evictions(len(simple), edges)
                if plan.evictions == best:
                    optimal_sites += 1
                else:
                    extra_temps += plan.evictions - best
    return {
        "call-sites": total_sites,
        "cyclic-sites": cyclic_sites,
        "cyclic-fraction": cyclic_sites / total_sites if total_sites else 0.0,
        "greedy-optimal-sites": optimal_sites,
        "greedy-optimal-fraction": optimal_sites / total_sites if total_sites else 0.0,
        "extra-temporaries": extra_temps,
    }


# ---------------------------------------------------------------------------
# §4: register-count sweep and shuffling ablation
# ---------------------------------------------------------------------------


def register_sweep(
    names: Optional[Iterable[str]] = None,
    counts: Sequence[int] = (0, 1, 2, 3, 4, 5, 6),
    shuffle_strategies: Sequence[str] = ("greedy", "naive"),
) -> List[Dict[str, object]]:
    """Cycles as a function of the number of argument/user registers.

    The paper: performance increases monotonically from zero through
    six registers, and without the greedy shuffler it *decreases* past
    two argument registers."""
    rows = []
    for count in counts:
        row: Dict[str, object] = {"registers": count}
        for strategy in shuffle_strategies:
            cfg = CompilerConfig(
                num_arg_regs=count,
                num_temp_regs=count,
                shuffle_strategy=strategy,
            )
            cycles = 0
            refs = 0
            for name in _names(names):
                run = run_benchmark(name, cfg)
                cycles += run.cycles
                refs += run.stack_refs
            row[f"{strategy}-cycles"] = cycles
            row[f"{strategy}-refs"] = refs
        rows.append(row)
    return rows


def format_register_sweep(rows: Sequence[Dict[str, object]]) -> str:
    strategies = sorted(
        {k[: -len("-cycles")] for k in rows[0] if k.endswith("-cycles")}
    )
    header = f"{'regs':>4s}" + "".join(
        f" {s + ' cycles':>16s}" for s in strategies
    )
    lines = [header]
    for r in rows:
        line = f"{r['registers']:>4d}"
        for s in strategies:
            line += f" {r.get(f'{s}-cycles', 0):>16d}"
        lines.append(line)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# §2.2 / Figure 2: eager vs lazy restores across memory latencies
# ---------------------------------------------------------------------------


def restore_comparison(
    names: Optional[Iterable[str]] = None,
    latencies: Sequence[int] = (1, 3, 6),
) -> List[Dict[str, object]]:
    """Restores executed and cycles for eager vs lazy restore
    placement, across load latencies.

    The paper found eager restores "produced code that ran just as fast
    as the code produced by the lazy approach": lazy executes fewer
    restores, but eager's early issue hides the latency."""
    rows = []
    for latency in latencies:
        cost = CostModel(load_latency=latency)
        for strategy in ("eager", "lazy"):
            cfg = CompilerConfig(restore_strategy=strategy, cost_model=cost)
            cycles = 0
            restores = 0
            refs = 0
            for name in _names(names):
                run = run_benchmark(name, cfg)
                cycles += run.cycles
                restores += run.counters.restores
                refs += run.stack_refs
            rows.append(
                {
                    "latency": latency,
                    "strategy": strategy,
                    "cycles": cycles,
                    "restores": restores,
                    "stack-refs": refs,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# §4: compile-time profile
# ---------------------------------------------------------------------------


def compile_time_profile(
    names: Optional[Iterable[str]] = None, repeats: int = 3
) -> Dict[str, object]:
    """Fraction of compile time spent in register allocation (the
    paper reports ~7% for Chez).

    Timings are the tracer's pass records (one per pass, summed over
    *repeats*); the enclosing ``compile`` span is left out so no time
    counts twice.
    """
    from repro.observe import Tracer

    tracer = Tracer()
    for _ in range(repeats):
        for name in _names(names):
            compile_source(
                get_benchmark(name).source, CompilerConfig(), tracer=tracer
            )
    phases: Dict[str, float] = {}
    for record in tracer.records:
        if record["name"] != "compile":
            seconds = record["dur_ns"] / 1e9
            phases[record["name"]] = phases.get(record["name"], 0.0) + seconds
    total = sum(phases.values())
    return {
        "phases": phases,
        "total-seconds": total,
        "register-allocation-fraction": (
            phases.get("allocate", 0.0) / total if total else 0.0
        ),
    }


# ---------------------------------------------------------------------------
# §6: static branch prediction
# ---------------------------------------------------------------------------


def branch_prediction_experiment(
    names: Optional[Iterable[str]] = None,
) -> List[Dict[str, object]]:
    """Call-free-path-likely static prediction vs a plain
    fallthrough-predicted baseline (the paper reports a small 2-3%
    consistent improvement)."""
    rows = []
    for name in _names(names):
        base = run_benchmark(name, CompilerConfig(branch_prediction="fallthrough"))
        pred = run_benchmark(name, CompilerConfig(branch_prediction="static-calls"))
        rows.append(
            {
                "benchmark": name,
                "fallthrough-cycles": base.cycles,
                "static-calls-cycles": pred.cycles,
                "fallthrough-mispredicts": base.counters.mispredicts,
                "static-calls-mispredicts": pred.counters.mispredicts,
                "improvement": base.cycles / pred.cycles - 1.0,
            }
        )
    if rows:
        rows.append(
            {
                "benchmark": "AVERAGE",
                "improvement": sum(r["improvement"] for r in rows) / len(rows),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Allocator arena: lazy vs linear scan vs graph coloring
# ---------------------------------------------------------------------------

ALLOCATORS: Tuple[str, ...] = ("lazy", "linearscan", "graphcolor")


def allocator_ablation(
    names: Optional[Iterable[str]] = None,
    allocators: Sequence[str] = ALLOCATORS,
    base_config: Optional[CompilerConfig] = None,
) -> List[Dict[str, object]]:
    """Per benchmark and allocator strategy: dynamic saves, restores,
    shuffle moves, spill stack references, static spill count, and
    cycles — the apples-to-apples comparison the paper never ran.  All
    strategies share the lazy-save / eager-restore / greedy-shuffle
    machinery; only the binding assignment differs, so the deltas
    isolate the register-assignment policy itself.

    ``base_config`` fixes every other knob (defaults to the paper
    configuration); each allocator point is ``base_config.with_(
    allocator=...)``.
    """
    base = base_config or CompilerConfig()
    rows: List[Dict[str, object]] = []
    for name in _names(names):
        row: Dict[str, object] = {"benchmark": name}
        for allocator in allocators:
            run = run_benchmark(name, base.with_(allocator=allocator))
            counters = run.counters
            spill_refs = counters.stack_reads.get(
                "spill", 0
            ) + counters.stack_writes.get("spill", 0)
            allocation = run.result.compiled.allocation
            row[f"{allocator}-saves"] = counters.saves
            row[f"{allocator}-restores"] = counters.restores
            row[f"{allocator}-moves"] = counters.moves
            row[f"{allocator}-swaps"] = counters.swaps
            row[f"{allocator}-spill-refs"] = spill_refs
            row[f"{allocator}-spilled-vars"] = allocation.stats.spilled
            row[f"{allocator}-stack-refs"] = run.stack_refs
            row[f"{allocator}-cycles"] = run.cycles
        rows.append(row)
    if rows:
        total: Dict[str, object] = {"benchmark": "TOTAL"}
        for allocator in allocators:
            for metric in (
                "saves",
                "restores",
                "moves",
                "swaps",
                "spill-refs",
                "spilled-vars",
                "stack-refs",
                "cycles",
            ):
                key = f"{allocator}-{metric}"
                total[key] = sum(r[key] for r in rows)
        rows.append(total)
    return rows


def format_allocator_ablation(
    rows: Sequence[Dict[str, object]],
    allocators: Sequence[str] = ALLOCATORS,
) -> str:
    header = f"{'Benchmark':15s}"
    for allocator in allocators:
        header += (
            f" | {allocator + ' saves':>12s} {'restores':>9s} {'moves':>9s}"
            f" {'swaps':>7s} {'spills':>7s} {'cycles':>10s}"
        )
    lines = [header, "-" * len(header)]
    for r in rows:
        line = f"{r['benchmark']:15s}"
        for allocator in allocators:
            line += (
                f" | {r[f'{allocator}-saves']:>12d}"
                f" {r[f'{allocator}-restores']:>9d}"
                f" {r[f'{allocator}-moves']:>9d}"
                f" {r[f'{allocator}-swaps']:>7d}"
                f" {r[f'{allocator}-spilled-vars']:>7d}"
                f" {r[f'{allocator}-cycles']:>10d}"
            )
        lines.append(line)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Shuffle-codegen study: greedy vs optimal vs permutation instructions
# ---------------------------------------------------------------------------

SHUFFLE_STUDY_STRATEGIES: Tuple[str, ...] = ("greedy", "optimal", "permopt")


def _static_shuffle_stats(compiled) -> Dict[str, int]:
    """Static shuffle-plan totals for one compiled program: call sites,
    cyclic sites, evictions (extra temporaries), and permutation steps."""
    sites = cyclic = evictions = permutations = 0
    for code in compiled.codes:
        for node in walk(code.body):
            if not isinstance(node, Call):
                continue
            plan = node.shuffle_plan
            sites += 1
            if plan.had_cycle:
                cyclic += 1
            evictions += plan.evictions
            permutations += plan.permutations
    return {
        "call-sites": sites,
        "cyclic-sites": cyclic,
        "evictions": evictions,
        "permutations": permutations,
    }


def shuffle_corpus(
    seed: int = 2025, count: int = 3, scan_limit: int = 64
) -> List[Tuple[str, str]]:
    """A deterministic shuffle-heavy corpus: scan the fuzz generator's
    programs for *seed* in index order and keep the first *count* whose
    greedy compile contains at least one shuffle cycle.  Both the
    generator and the selection are seed-determined, so the corpus (and
    every table built on it) is reproducible."""
    from repro.errors import CompilerError
    from repro.fuzz.genprog import ProgramGenerator

    generator = ProgramGenerator(seed)
    picked: List[Tuple[str, str]] = []
    for index in range(scan_limit):
        if len(picked) >= count:
            break
        program = generator.generate(index)
        try:
            compiled = compile_source(program.source, CompilerConfig())
        except CompilerError:  # pragma: no cover - generator emits valid code
            continue
        if _static_shuffle_stats(compiled)["cyclic-sites"]:
            picked.append((f"fuzz-{seed}-{index}", program.source))
    return picked


def shuffle_study(
    names: Optional[Iterable[str]] = None,
    strategies: Sequence[str] = SHUFFLE_STUDY_STRATEGIES,
    fuzz_count: int = 3,
) -> List[Dict[str, object]]:
    """Per program and shuffle strategy: dynamic moves, permutation
    instructions (swap/permi), static evictions, and cycles — the
    greedy-vs-optimal study over the paper benchmarks plus a
    shuffle-heavy fuzz corpus (see :func:`shuffle_corpus`).

    ``permopt`` replaces every pure register cycle's eviction with
    permutation instructions, so its eviction column is the count of
    cycles the other strategies had to break with a temporary.  All
    numbers are simulator counters: fully deterministic, no wall clock.
    """
    programs: List[Tuple[str, str]] = [
        (name, get_benchmark(name).source) for name in _names(names)
    ]
    if fuzz_count:
        programs.extend(shuffle_corpus(count=fuzz_count))
    rows: List[Dict[str, object]] = []
    for name, source in programs:
        row: Dict[str, object] = {"program": name}
        for strategy in strategies:
            cfg = CompilerConfig(shuffle_strategy=strategy)
            compiled = compile_source(source, cfg)
            result = run_compiled(compiled)
            counters = result.counters
            static = _static_shuffle_stats(compiled)
            row[f"{strategy}-moves"] = counters.moves
            row[f"{strategy}-swaps"] = counters.swaps
            row[f"{strategy}-evictions"] = static["evictions"]
            row[f"{strategy}-permutations"] = static["permutations"]
            row[f"{strategy}-cycles"] = counters.cycles
        rows.append(row)
    if rows:
        total: Dict[str, object] = {"program": "TOTAL"}
        for strategy in strategies:
            for metric in ("moves", "swaps", "evictions", "permutations", "cycles"):
                key = f"{strategy}-{metric}"
                total[key] = sum(r[key] for r in rows)
        rows.append(total)
    return rows


def format_shuffle_study(
    rows: Sequence[Dict[str, object]],
    strategies: Sequence[str] = SHUFFLE_STUDY_STRATEGIES,
) -> str:
    header = f"{'Program':15s}"
    for strategy in strategies:
        header += (
            f" | {strategy + ' moves':>14s} {'swaps':>6s}"
            f" {'evict':>6s} {'cycles':>11s}"
        )
    lines = [header, "-" * len(header)]
    for r in rows:
        line = f"{r['program']:15s}"
        for strategy in strategies:
            line += (
                f" | {r[f'{strategy}-moves']:>14d}"
                f" {r[f'{strategy}-swaps']:>6d}"
                f" {r[f'{strategy}-evictions']:>6d}"
                f" {r[f'{strategy}-cycles']:>11d}"
            )
        lines.append(line)
    return "\n".join(lines)


def markdown_shuffle_study(
    rows: Sequence[Dict[str, object]],
    strategies: Sequence[str] = SHUFFLE_STUDY_STRATEGIES,
) -> str:
    """The :func:`shuffle_study` rows as a GitHub-flavoured markdown
    table — the exact text embedded in ``docs/shuffle.md`` and checked
    for drift by CI (``repro table shuffle-study --check``)."""
    cols = ["Program"]
    for strategy in strategies:
        cols += [
            f"{strategy} moves",
            f"{strategy} swaps",
            f"{strategy} evictions",
            f"{strategy} cycles",
        ]
    lines = [
        "| " + " | ".join(cols) + " |",
        "|" + "|".join("---" for _ in cols) + "|",
    ]
    for r in rows:
        cells = [str(r["program"])]
        for strategy in strategies:
            cells += [
                str(r[f"{strategy}-moves"]),
                str(r[f"{strategy}-swaps"]),
                str(r[f"{strategy}-evictions"]),
                str(r[f"{strategy}-cycles"]),
            ]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# §2.1 ablation: simple vs revised lazy algorithm
# ---------------------------------------------------------------------------


def save_placement_ablation(
    names: Optional[Iterable[str]] = None,
) -> List[Dict[str, object]]:
    """The revised St/Sf algorithm against the too-lazy simple S[E]
    algorithm of §2.1.1 (which misses saves around short-circuit
    booleans and pays with late in-region saves elsewhere)."""
    rows = []
    for name in _names(names):
        revised = run_benchmark(name, CompilerConfig(save_strategy="lazy"))
        simple = run_benchmark(name, CompilerConfig(save_strategy="lazy-simple"))
        rows.append(
            {
                "benchmark": name,
                "revised-refs": revised.stack_refs,
                "simple-refs": simple.stack_refs,
                "revised-saves": revised.counters.saves,
                "simple-saves": simple.counters.saves,
                "revised-cycles": revised.cycles,
                "simple-cycles": simple.cycles,
            }
        )
    return rows
