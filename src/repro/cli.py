"""Command-line interface.

    python -m repro run program.scm --save-strategy late
    python -m repro run program.scm --json
    python -m repro run program.scm --trace-dir traces
    python -m repro spans export --trace-dir traces -o trace.json
    python -m repro disasm program.scm --proc tak
    python -m repro expand program.scm
    python -m repro bench tak deriv --baseline
    python -m repro bench tak --allocator all
    python -m repro bench tak --shuffle all
    python -m repro alloc program.scm --compare
    python -m repro table 3
    python -m repro table shuffle-study
    python -m repro list

Every subcommand accepts the configuration flags, so any point in the
paper's design space can be explored from the shell.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import List, Optional

from repro.astnodes import pretty
from repro.backend.isa import format_code
from repro.config import (
    ALLOCATOR_STRATEGIES,
    BRANCH_PREDICTION_MODES,
    CompilerConfig,
    ObserveConfig,
    RESTORE_STRATEGIES,
    SAVE_CONVENTIONS,
    SAVE_STRATEGIES,
    SHUFFLE_STRATEGIES,
)
from repro.errors import CompilerError, FuzzError, ServeError
from repro.observe import NULL_TRACER, Tracer, metrics_dict
from repro.observe.reqtrace import build_reqtracer
from repro.pipeline import compile_source, expand_source, run_compiled
from repro.runtime.values import SchemeError
from repro.sexp.reader import ReaderError
from repro.sexp.writer import write_datum
from repro.vm.machine import VMError


def _add_config_flags(
    parser: argparse.ArgumentParser,
    allocator_all: bool = False,
    shuffle_all: bool = False,
) -> None:
    group = parser.add_argument_group("allocator configuration")
    allocator_choices = list(ALLOCATOR_STRATEGIES)
    if allocator_all:
        allocator_choices.append("all")
    group.add_argument(
        "--allocator",
        choices=allocator_choices,
        default="lazy",
        help="binding-assignment strategy"
        + (" ('all' sweeps every strategy)" if allocator_all else ""),
    )
    group.add_argument(
        "--save-strategy", choices=SAVE_STRATEGIES, default="lazy"
    )
    group.add_argument(
        "--restore-strategy", choices=RESTORE_STRATEGIES, default="eager"
    )
    shuffle_choices = list(SHUFFLE_STRATEGIES)
    if shuffle_all:
        shuffle_choices.append("all")
    group.add_argument(
        "--shuffle",
        choices=shuffle_choices,
        default="greedy",
        help="argument-shuffle codegen strategy"
        + (" ('all' sweeps every strategy)" if shuffle_all else ""),
    )
    group.add_argument(
        "--convention", choices=SAVE_CONVENTIONS, default="caller"
    )
    group.add_argument("--arg-regs", type=int, default=6, metavar="N")
    group.add_argument("--temp-regs", type=int, default=6, metavar="N")
    group.add_argument(
        "--baseline",
        action="store_true",
        help="shorthand for --arg-regs 0 --temp-regs 0",
    )
    group.add_argument(
        "--lift", action="store_true", help="enable lambda lifting (§6)"
    )
    group.add_argument(
        "--predict",
        choices=[m for m in BRANCH_PREDICTION_MODES if m],
        default=None,
        help="branch prediction cost modelling",
    )
    group.add_argument("--no-prelude", action="store_true")
    group.add_argument(
        "--vm-debug", action="store_true", help="poison-checking VM mode"
    )
    group.add_argument(
        "--no-vm-fast",
        action="store_true",
        help="use the legacy dispatch loop instead of the trace-compiled fast path",
    )


def _add_observe_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("telemetry")
    group.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="metrics snapshot path (default: $REPRO_METRICS_PATH or "
        "~/.cache/repro/metrics.json)",
    )
    group.add_argument(
        "--no-metrics",
        action="store_true",
        help="do not write a metrics snapshot",
    )
    group.add_argument(
        "--flight-dir",
        metavar="DIR",
        default=ObserveConfig.from_env().flight_dir,
        help="where flight-recorder crash dumps go "
        "(default: $REPRO_FLIGHT_DIR, else disabled)",
    )
    _add_trace_dir_flag(group)
    group.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="tail-sampling keep rate for ok traces in [0,1] "
        "(errors and the slowest requests are always kept; default 1.0)",
    )


def _add_trace_dir_flag(parser) -> None:
    parser.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=ObserveConfig.from_env().trace_dir,
        help="span store directory to trace into; read it back with "
        "'repro spans' (default: $REPRO_TRACE_DIR, else tracing off)",
    )


def _config_from(args: argparse.Namespace) -> CompilerConfig:
    arg_regs = 0 if args.baseline else args.arg_regs
    temp_regs = 0 if args.baseline else args.temp_regs
    allocator = getattr(args, "allocator", "lazy")
    if allocator == "all":  # sweeping callers expand it themselves
        allocator = "lazy"
    shuffle = getattr(args, "shuffle", "greedy")
    if shuffle == "all":  # sweeping callers expand it themselves
        shuffle = "greedy"
    return CompilerConfig(
        allocator=allocator,
        num_arg_regs=arg_regs,
        num_temp_regs=temp_regs,
        save_strategy=args.save_strategy,
        restore_strategy=args.restore_strategy,
        shuffle_strategy=shuffle,
        save_convention=args.convention,
        branch_prediction=args.predict,
        lambda_lift=args.lift,
        vm_fast=not args.no_vm_fast,
    )


def _read_program(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _write_out(path: Optional[str], payload: str) -> None:
    """Write *payload* to *path*, or stdout when path is None/'-'."""
    if path is None or path == "-":
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as handle:
            handle.write(payload)


@contextlib.contextmanager
def _traced(reqtracer, name: str, **attrs):
    """One CLI operation's trace in the span store, or None when
    tracing is off (*reqtracer* is None).  The trace finishes with the
    error kind when the operation raises."""
    trace = reqtracer.start(name=name, **attrs) if reqtracer is not None else None
    try:
        yield trace
    except BaseException as exc:
        if trace is not None:
            from repro.serve.work import error_kind

            trace.finish(error_kind(exc))
        raise
    if trace is not None:
        trace.finish("ok")


def cmd_run(args: argparse.Namespace) -> int:
    source = _read_program(args.file)
    config = _config_from(args)
    reqtracer = build_reqtracer(args.trace_dir, service="run")
    with _traced(reqtracer, "run") as trace:
        tracer = trace or (Tracer() if args.json else NULL_TRACER)
        compiled = compile_source(
            source, config, prelude=not args.no_prelude, tracer=tracer
        )
        result = run_compiled(
            compiled, debug=args.vm_debug, tracer=tracer,
            profile=tracer.enabled,
        )
        if args.json:
            doc = metrics_dict(
                tracer.records,
                counters=result.counters,
                value=write_datum(result.value),
                output=result.output,
            )
    if trace is not None:
        print(f"; trace {trace.trace_id} in {args.trace_dir}", file=sys.stderr)
    if args.json:
        print(json.dumps(doc, indent=2))
        return 0
    if result.output:
        sys.stdout.write(result.output)
        if not result.output.endswith("\n"):
            sys.stdout.write("\n")
    print(write_datum(result.value))
    if args.counters:
        c = result.counters
        print(f"; instructions {c.instructions}", file=sys.stderr)
        print(f"; cycles       {c.cycles}", file=sys.stderr)
        print(f"; stack refs   {c.total_stack_refs}", file=sys.stderr)
        print(f"; saves        {c.saves}", file=sys.stderr)
        print(f"; restores     {c.restores}", file=sys.stderr)
        print(f"; calls        {c.calls} (+{c.tail_calls} tail)", file=sys.stderr)
        f = result.classifier.effective_leaf_fraction
        print(f"; eff. leaves  {f:.1%}", file=sys.stderr)
    return 0


def cmd_disasm(args: argparse.Namespace) -> int:
    source = _read_program(args.file)
    config = _config_from(args)
    compiled = compile_source(source, config, prelude=not args.no_prelude)
    names = [r.name for r in compiled.regfile.all]
    for code in compiled.codes:
        if args.proc and code.name != args.proc:
            continue
        print(format_code(code, names))
        print()
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.report import allocation_report

    source = _read_program(args.file)
    config = _config_from(args)
    compiled = compile_source(source, config, prelude=not args.no_prelude)
    print(allocation_report(compiled, proc=args.proc))
    return 0


def cmd_expand(args: argparse.Namespace) -> int:
    source = _read_program(args.file)
    expr = expand_source(source, prelude=not args.no_prelude)
    print(pretty(expr))
    return 0


def cmd_alloc(args: argparse.Namespace) -> int:
    """Inspect register allocation: a static summary for the selected
    strategy, or (``--compare``) an ablation table running the same
    program under every registered strategy."""
    source = _read_program(args.file)
    config = _config_from(args)
    if not args.compare:
        compiled = compile_source(source, config, prelude=not args.no_prelude)
        alloc = compiled.allocation
        stats = alloc.stats
        print(f"allocator    {config.allocator}")
        print(f"procedures   {len(compiled.codes)}")
        print(f"candidates   {stats.candidates}")
        print(f"registered   {stats.assigned}")
        print(f"spilled      {stats.spilled}")
        for phase in sorted(alloc.pass_times):
            print(f"pass {phase:17s} {alloc.pass_times[phase] * 1e3:8.2f} ms")
        return 0

    rows = []
    for allocator in ALLOCATOR_STRATEGIES:
        cfg = config.with_(allocator=allocator)
        compiled = compile_source(source, cfg, prelude=not args.no_prelude)
        result = run_compiled(compiled, debug=args.vm_debug)
        c = result.counters
        rows.append(
            {
                "allocator": allocator,
                "value": write_datum(result.value),
                "saves": c.saves,
                "restores": c.restores,
                "moves": c.moves,
                "swaps": c.swaps,
                "spill-refs": c.stack_reads.get("spill", 0)
                + c.stack_writes.get("spill", 0),
                "spilled-vars": compiled.allocation.stats.spilled,
                "stack-refs": c.total_stack_refs,
                "cycles": c.cycles,
            }
        )
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        header = (
            f"{'allocator':11s} {'saves':>9s} {'restores':>9s} {'moves':>9s} "
            f"{'swaps':>7s} "
            f"{'spill-refs':>10s} {'spilled':>8s} {'stack-refs':>10s} "
            f"{'cycles':>11s}"
        )
        print(header)
        print("-" * len(header))
        for row in rows:
            print(
                f"{row['allocator']:11s} {row['saves']:>9,} "
                f"{row['restores']:>9,} {row['moves']:>9,} "
                f"{row['swaps']:>7,} "
                f"{row['spill-refs']:>10,} {row['spilled-vars']:>8,} "
                f"{row['stack-refs']:>10,} {row['cycles']:>11,}"
            )
        print(f"value: {rows[0]['value']}")
    if len({row["value"] for row in rows}) > 1:
        print("error: allocator strategies disagree on the program value",
              file=sys.stderr)
        return 1
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.benchsuite import BENCHMARKS
    from repro.benchsuite.runner import run_benchmark

    if args.baseline_out or args.check_baseline:
        return _bench_baseline(args)
    if args.warm_start:
        return _bench_warm_start(args)

    names = args.names or sorted(BENCHMARKS)
    config = _config_from(args)
    sweep = getattr(args, "allocator", "lazy") == "all"
    shuffle_sweep = getattr(args, "shuffle", "greedy") == "all"
    allocators = ALLOCATOR_STRATEGIES if sweep else (config.allocator,)
    shuffles = (
        SHUFFLE_STRATEGIES if shuffle_sweep else (config.shuffle_strategy,)
    )
    reqtracer = build_reqtracer(args.trace_dir, service="bench")
    rows = []
    alloc_col = f"{'allocator':>11s} " if sweep else ""
    shuffle_col = f"{'shuffle':>9s} " if shuffle_sweep else ""
    move_cols = f"{'moves':>10s} {'swaps':>8s} " if shuffle_sweep else ""
    header = (
        f"{'benchmark':16s} {alloc_col}{shuffle_col}{'value':>12s} "
        f"{'instrs':>11s} "
        f"{'cycles':>11s} {move_cols}{'stack refs':>11s} {'eff-leaf':>9s}"
    )
    if not args.json:
        print(header)
        print("-" * len(header))
    for name in names:
        if name not in BENCHMARKS:
            print(f"unknown benchmark {name!r}", file=sys.stderr)
            return 1
        points = [(a, s) for a in allocators for s in shuffles]
        for allocator, shuffle in points:
            run_config = config.with_(
                allocator=allocator, shuffle_strategy=shuffle
            )
            with _traced(
                reqtracer, "bench", benchmark=name, allocator=allocator,
                shuffle=shuffle,
            ) as trace:
                run = run_benchmark(
                    name, run_config, debug=args.vm_debug, tracer=trace
                )
            c = run.counters
            if args.json:
                row = {
                    "benchmark": name,
                    "value": run.value_text,
                    "effective_leaf_fraction": (
                        run.classifier.effective_leaf_fraction
                    ),
                    "counters": c.as_dict(),
                }
                if sweep:
                    row["allocator"] = allocator
                if shuffle_sweep:
                    row["shuffle"] = shuffle
                rows.append(row)
            else:
                alloc_cell = f"{allocator:>11s} " if sweep else ""
                shuffle_cell = f"{shuffle:>9s} " if shuffle_sweep else ""
                move_cells = (
                    f"{c.moves:>10,} {c.swaps:>8,} " if shuffle_sweep else ""
                )
                print(
                    f"{name:16s} {alloc_cell}{shuffle_cell}"
                    f"{run.value_text[:12]:>12s} "
                    f"{c.instructions:>11,} "
                    f"{c.cycles:>11,} {move_cells}{c.total_stack_refs:>11,} "
                    f"{run.classifier.effective_leaf_fraction:>9.1%}"
                )
    if args.json:
        print(json.dumps(rows, indent=2))
    if reqtracer is not None:
        print(f"; traces in {args.trace_dir}", file=sys.stderr)
    if args.history:
        record = {
            "kind": "bench",
            "benchmarks": names,
            "config": config.summary(),
        }
        if rows:
            record["rows"] = rows
        _append_history(args.history, record)
        print(f"; history appended to {args.history}", file=sys.stderr)
    return 0


def _append_history(path: str, record: dict) -> None:
    """Append one timestamped JSON record (one line) to a history file —
    the longitudinal record ``repro bench --history`` accumulates."""
    from repro import __version__

    record = {
        "ts": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "unix_s": round(time.time(), 3),
        "version": __version__,
        **record,
    }
    with open(path, "a") as handle:
        handle.write(json.dumps(record) + "\n")


def _bench_baseline(args: argparse.Namespace) -> int:
    """The ``bench --baseline-out`` / ``--check-baseline`` modes: VM
    throughput baseline collection and the CI regression gate."""
    from repro.benchsuite import vmbench

    def progress(name: str, entry) -> None:
        speed = (
            f"  {entry['instructions_per_sec'] / 1e6:5.2f} M instr/s"
            f"  ({entry['speedup_vs_legacy']:.2f}x vs legacy)"
            if "speedup_vs_legacy" in entry
            else ""
        )
        print(f"; {name:16s} {entry['instructions']:>11,} instr{speed}", file=sys.stderr)

    doc = vmbench.collect_baseline(
        names=args.names or None,
        config=_config_from(args),
        repeats=args.repeats,
        progress=progress,
    )
    if args.warm_start:
        doc["warm_start"] = vmbench.collect_warm_start(
            config=_config_from(args), repeats=args.repeats
        )
        totals = doc["warm_start"]["totals"]
        print(
            f"; warm start (corpus total): cold {totals['cold_s']}s, "
            f"isa {totals['isa_ready_s']}s",
            file=sys.stderr,
        )
    if "geomean_speedup" in doc:
        print(f"; geomean speedup {doc['geomean_speedup']:.2f}x", file=sys.stderr)
    if args.baseline_out:
        vmbench.write_baseline(doc, args.baseline_out)
        print(f"; baseline written to {args.baseline_out}", file=sys.stderr)
        if not args.check_baseline:
            return 0
    baseline = vmbench.load_baseline(args.check_baseline)
    problems = vmbench.compare_baseline(doc, baseline, tolerance=args.tolerance)
    if problems:
        for problem in problems:
            print(f"bench regression: {problem}", file=sys.stderr)
        return 1
    print(
        f"; baseline check passed against {args.check_baseline}", file=sys.stderr
    )
    return 0


def _bench_warm_start(args: argparse.Namespace) -> int:
    """``bench --warm-start`` without a baseline file: measure and print
    the cold / ISA-cache table."""
    from repro.benchsuite import vmbench

    doc = vmbench.collect_warm_start(
        names=args.names or None,
        config=_config_from(args),
        repeats=args.repeats,
    )
    if args.json:
        print(json.dumps(doc, indent=2))
        return 0
    header = f"{'benchmark':16s} {'cold':>9s} {'isa':>9s}"
    print(header)
    print("-" * len(header))
    rows = list(doc["benchmarks"].items()) + [("total", doc["totals"])]
    for name, entry in rows:
        print(
            f"{name:16s} {entry['cold_s'] * 1e3:>7.1f}ms "
            f"{entry['isa_ready_s'] * 1e3:>7.1f}ms"
        )
    return 0


def cmd_isa(args: argparse.Namespace) -> int:
    from repro.backend.isa import isa_markdown

    if args.markdown:
        _write_out(args.out, isa_markdown())
        return 0
    from repro.backend.isa import ISA_SPEC

    for entry in ISA_SPEC:
        print(f"{entry['op']:10s} {entry['operands']:28s} {entry['effect']}")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    from repro.benchsuite import tables

    which = args.which
    names = args.names or None
    if which == "2":
        print(tables.format_table2(tables.table2(names)))
    elif which == "3":
        print(tables.format_table3(tables.table3(names)))
    elif which == "4":
        print(tables.format_table45(tables.table4(), "speedup-vs-cc"))
    elif which == "5":
        print(tables.format_table45(tables.table5(), "speedup-vs-early"))
    elif which == "shuffle":
        for key, value in tables.shuffle_stats(names).items():
            print(f"{key:26s} {value}")
    elif which == "shuffle-study":
        rows = tables.shuffle_study(names)
        if args.check:
            table_md = tables.markdown_shuffle_study(rows)
            with open(args.check) as handle:
                doc = handle.read()
            if table_md not in doc:
                print(
                    f"repro: table: shuffle-study table in {args.check} is "
                    "stale; regenerate with "
                    "'repro table shuffle-study --markdown' and paste it "
                    "between the markers",
                    file=sys.stderr,
                )
                return 1
            print(f"; shuffle-study table in {args.check} is current")
        elif args.markdown:
            print(tables.markdown_shuffle_study(rows))
        else:
            print(tables.format_shuffle_study(rows))
    elif which == "sweep":
        rows = tables.register_sweep(names or tables.FAST_NAMES)
        print(tables.format_register_sweep(rows))
    elif which == "restores":
        for r in tables.restore_comparison(names or tables.FAST_NAMES):
            print(
                f"latency={r['latency']} {r['strategy']:5s} "
                f"cycles={r['cycles']:,} restores={r['restores']:,}"
            )
    else:  # pragma: no cover - argparse restricts choices
        return 1
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import load_entry, run_fuzz
    from repro.fuzz.engine import replay_entry

    if args.replay:
        entry = load_entry(args.replay)
        report = replay_entry(entry, shrink=args.shrink)
    else:
        def progress(done: int, partial) -> None:
            if not args.json and done % 25 == 0:
                print(
                    f"; {done} programs checked, "
                    f"{len(partial.failures)} failure(s), "
                    f"{partial.configs_checked} config runs",
                    file=sys.stderr,
                )

        report = run_fuzz(
            seed=args.seed,
            iterations=args.iterations,
            time_budget=args.time_budget,
            jobs=args.jobs,
            shrink=args.shrink,
            corpus_dir=args.corpus,
            keep_interesting=args.keep_interesting,
            on_progress=progress,
            flight_dir=args.corpus,
            allocator=args.allocator,
            shuffle=args.shuffle,
        )

    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(
            f"fuzz: {report.iterations} program(s), "
            f"{report.configs_checked} config runs, "
            f"{report.invalid} invalid, "
            f"{report.shuffle_cycles} shuffle cycles, "
            f"{len(report.failures)} failure(s) "
            f"in {report.elapsed:.1f}s"
        )
        for failure in report.failures:
            print(f"--- failure at iteration {failure.iteration}")
            for div in failure.divergences[:5]:
                cfg = div.get("config", {})
                print(
                    f"    {div['kind']}: expected {div['expected']!r}, "
                    f"got {div['got']!r} "
                    f"[save={cfg.get('save_strategy')} "
                    f"restore={cfg.get('restore_strategy')} "
                    f"shuffle={cfg.get('shuffle_strategy')} "
                    f"conv={cfg.get('save_convention')} "
                    f"c={cfg.get('num_arg_regs')} "
                    f"alloc={cfg.get('allocator', 'lazy')}]"
                )
            if len(failure.divergences) > 5:
                print(f"    ... and {len(failure.divergences) - 5} more")
            if failure.shrunk is not None:
                print(f"    shrunk to {failure.shrunk_size} node(s):")
                for line in failure.shrunk.splitlines():
                    print(f"      {line}")
            if failure.corpus_path:
                print(f"    saved: {failure.corpus_path}")
            if failure.flight_path:
                print(f"    flight recording: {failure.flight_path}")
    return 0 if report.ok else 1


def _batch_requests(args: argparse.Namespace) -> list:
    """Build the request list for ``repro batch``: either every
    benchsuite program (``--bench``) or a JSON-lines request file."""
    from repro.serve.service import Request

    config = _config_from(args)
    if args.bench:
        from repro.benchsuite import BENCHMARKS

        names = args.input or sorted(BENCHMARKS)
        requests = []
        for name in names:
            if name not in BENCHMARKS:
                raise ServeError(f"unknown benchmark {name!r}")
            requests.append(
                Request(
                    op="run" if args.run else "compile",
                    source=BENCHMARKS[name].source,
                    config=config,
                    id=name,
                    max_instructions=args.max_instructions,
                    timeout=args.timeout,
                )
            )
        return requests
    if not args.input:
        raise ServeError("batch: give a request file (or - for stdin), or --bench")
    path = args.input[0]
    handle = sys.stdin if path == "-" else open(path)
    requests = []
    try:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                doc = json.loads(line)
                request = Request.from_dict(doc)
            except (ValueError, KeyError, TypeError) as exc:
                raise ServeError(f"batch: bad request on line {lineno}: {exc}")
            if request.id is None:
                request.id = lineno
            if request.config is None:
                request.config = config
            if request.timeout is None:
                request.timeout = args.timeout
            if request.max_instructions is None:
                request.max_instructions = args.max_instructions
            requests.append(request)
    finally:
        if handle is not sys.stdin:
            handle.close()
    return requests


def _metrics_out_path(args: argparse.Namespace) -> Optional[str]:
    """Where the registry snapshot goes: ``--metrics-out`` wins, then the
    environment/default path, and ``--no-metrics`` turns it off."""
    if args.no_metrics:
        return None
    return args.metrics_out or ObserveConfig.from_env().metrics_path


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.serve.service import BatchService, summarize

    requests = _batch_requests(args)
    # One batch = one metrics lifetime: the snapshot written below covers
    # exactly this run (matters for in-process main() reuse too).
    from repro.observe.metrics import get_registry

    get_registry().clear()
    reqtracer = build_reqtracer(
        args.trace_dir,
        sample=args.trace_sample,
        registry=get_registry(),
        service="batch",
    )
    service = BatchService(
        jobs=args.jobs,
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
        disk_cache=not args.memory_cache,
        flight_dir=args.flight_dir,
        reqtracer=reqtracer,
    )

    def progress(response) -> None:
        if args.json:
            return
        print(json.dumps(response.as_dict()))

    responses = service.run(requests, on_response=progress)
    summary = summarize(responses)
    summary["jobs"] = args.jobs
    if args.json:
        doc = {
            "summary": summary,
            "stats": service.stats(),
            "responses": [r.as_dict() for r in responses],
        }
        print(json.dumps(doc, indent=2))
    else:
        print(
            f"; batch: {summary['requests']} request(s), {summary['ok']} ok, "
            f"{summary['cache_hits']} cache hit(s), "
            f"{summary['cache_misses']} miss(es)",
            file=sys.stderr,
        )
        for kind, count in sorted(summary["errors"].items()):
            print(f";   {kind}: {count}", file=sys.stderr)
    metrics_out = _metrics_out_path(args)
    if metrics_out:
        service.write_metrics(metrics_out)
        if not args.json:
            print(f"; metrics written to {metrics_out}", file=sys.stderr)
    for path in service.flight_dumps:
        print(f"; flight recording: {path}", file=sys.stderr)
    return 0 if summary["ok"] == summary["requests"] else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.config import ServeConfig

    if args.stdio == bool(args.tcp):
        print("repro: serve: give one transport: --stdio or --tcp HOST:PORT",
              file=sys.stderr)
        return 2
    try:
        host, port = (
            ServeConfig.parse_address(args.tcp) if args.tcp else ("127.0.0.1", 0)
        )
        serve_config = ServeConfig(
            host=host,
            port=port,
            max_clients=args.max_clients,
            max_pending_per_tenant=args.max_pending_per_tenant,
            max_pending_total=args.max_pending,
            drain_grace_s=args.drain_grace,
            dedup=not args.no_dedup,
        )
    except ValueError as exc:
        print(f"repro: serve: {exc}", file=sys.stderr)
        return 2
    options = dict(
        jobs=args.jobs,
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
        disk_cache=not args.memory_cache,
        serve_config=serve_config,
        metrics_out=_metrics_out_path(args),
        flight_dir=args.flight_dir,
        trace_dir=args.trace_dir,
        trace_sample=args.trace_sample,
    )
    if args.tcp:
        from repro.serve.net import serve_tcp

        return serve_tcp(host=host, port=port, **options)
    from repro.serve.stdio import serve_stdio

    return serve_stdio(**options)


def cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.config import ServeConfig
    from repro.serve.net import loadgen

    if bool(args.connect) == bool(args.spawn):
        print("repro: loadgen: give exactly one of --connect HOST:PORT / --spawn",
              file=sys.stderr)
        return 2
    address = None
    if args.connect:
        try:
            address = ServeConfig.parse_address(args.connect)
        except ValueError as exc:
            print(f"repro: loadgen: {exc}", file=sys.stderr)
            return 2
    try:
        if args.corpus:
            corpus = loadgen.corpus_from_dir(args.corpus)
        elif args.requests_file:
            corpus = loadgen.corpus_from_jsonl(args.requests_file)
        else:
            corpus = loadgen.corpus_from_bench(heavy=args.heavy)
    except (OSError, ValueError, KeyError) as exc:
        print(f"repro: loadgen: bad corpus: {exc}", file=sys.stderr)
        return 2
    report = loadgen.run_loadgen(
        address=address,
        corpus=corpus,
        op="run" if args.run else "compile",
        concurrency=args.concurrency,
        duration=args.duration,
        requests=args.requests,
        seed=args.seed,
        duplicate_fraction=args.duplicate_fraction,
        tenants=tuple(args.tenants.split(",")) if args.tenants else ("default",),
        timeout=args.timeout,
        max_instructions=args.max_instructions,
        spawn=bool(args.spawn),
        spawn_jobs=args.jobs,
        cache_dir=args.cache_dir,
        check=args.check,
        tolerance=args.tolerance,
        trace_dir=args.trace_dir,
        trace_sample=args.trace_sample,
        latencies_out=args.latencies_out,
    )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    if args.json or not sys.stdout.isatty():
        print(json.dumps(report, indent=2))
    else:
        latency = report["latency_s"]

        def ms(value: Optional[float]) -> str:
            return "-" if value is None else f"{value * 1000:.1f}ms"

        print(
            f"{report['completed']}/{report['requests']} completed, "
            f"{report['errors']} errors, {report['rejected']} rejected, "
            f"{report['deduped']} deduped, {report['cached']} cached "
            f"in {report['elapsed_s']}s "
            f"({report['throughput_rps']} req/s)"
        )
        print(
            f"latency p50 {ms(latency['p50'])}  p90 {ms(latency['p90'])}  "
            f"p99 {ms(latency['p99'])}  max {ms(latency['max'])}  "
            f"stddev {ms(latency['stddev'])}"
        )
    slo = report.get("slo")
    if slo is not None and not slo["ok"]:
        for violation in slo["violations"]:
            print(f"repro: loadgen: SLO violation: {violation}", file=sys.stderr)
        for entry in report.get("slowest", []):
            print(
                f"repro: loadgen: slowest: {entry['latency_s'] * 1000:.1f}ms "
                f"{entry.get('program')} trace {entry.get('trace')}",
                file=sys.stderr,
            )
        return 1
    if report["vuser_failures"]:
        return 1
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.serve.cache import CompileCache, default_cache_dir

    root = args.cache_dir or default_cache_dir()
    cache = CompileCache(root=root)
    if args.action == "stats":
        entries, size = cache.disk_usage()
        doc = {"path": root, "entries": entries, "bytes": size}
        if args.verify:
            doc["verify"] = cache.verify(remove=args.remove_corrupt)
        doc["counters"] = cache.stats.as_dict()
        if args.json:
            print(json.dumps(doc, indent=2))
        else:
            print(f"path     {root}")
            print(f"entries  {entries}")
            print(f"bytes    {size:,}")
            for key, value in sorted(doc["counters"].items()):
                print(f"{key:12s} {value}")
            if args.verify:
                v = doc["verify"]
                print(
                    f"verify   {v['scanned']} scanned, {v['ok']} ok, "
                    f"{v['corrupt']} corrupt, {v['removed']} removed"
                )
        return 1 if args.verify and doc["verify"]["corrupt"] else 0
    if args.action == "gc":
        if args.max_entries is None and args.max_bytes is None:
            print("repro: cache gc: give --max-entries and/or --max-bytes",
                  file=sys.stderr)
            return 2
        removed = cache.gc(max_entries=args.max_entries, max_bytes=args.max_bytes)
        print(f"; removed {removed} entry(ies)", file=sys.stderr)
        return 0
    # clear: the explicit invalidation command.
    removed = cache.clear()
    print(f"; cleared {removed} entry(ies) from {root}", file=sys.stderr)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.observe.metrics import (
        lint_openmetrics,
        load_snapshot,
        render_openmetrics,
    )

    path = args.path or ObserveConfig.from_env().metrics_path
    try:
        snapshot = load_snapshot(path)
    except OSError as exc:
        print(f"repro: metrics: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"repro: metrics: corrupt snapshot {path}: {exc}", file=sys.stderr)
        return 1
    if args.lint:
        problems = lint_openmetrics(render_openmetrics(snapshot))
        for problem in problems:
            print(f"openmetrics lint: {problem}", file=sys.stderr)
        if not problems:
            print(f"; openmetrics lint passed for {path}", file=sys.stderr)
        return 1 if problems else 0
    if args.json:
        print(json.dumps(snapshot, indent=2))
        return 0
    if args.openmetrics:
        sys.stdout.write(render_openmetrics(snapshot))
        return 0
    from repro.observe.top import render_dashboard

    sys.stdout.write(render_dashboard(snapshot))
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    from repro.observe.top import top_loop

    path = args.path or ObserveConfig.from_env().metrics_path
    iterations = 1 if args.once else args.iterations
    return top_loop(
        path,
        interval=args.interval,
        iterations=iterations,
        clear=not args.once,
    )


def cmd_spans(args: argparse.Namespace) -> int:
    from repro.observe import spanstore

    directory = args.trace_dir or ObserveConfig.from_env().trace_dir
    if not directory:
        print(
            "repro: spans: give --trace-dir DIR (or set $REPRO_TRACE_DIR)",
            file=sys.stderr,
        )
        return 2
    if not os.path.isdir(directory):
        print(f"repro: spans: no span store at {directory}", file=sys.stderr)
        return 1

    def load(trace_id: str):
        try:
            records = spanstore.load_trace(directory, trace_id)
        except ValueError as exc:
            print(f"repro: spans: {exc}", file=sys.stderr)
            return None
        if not records:
            print(f"repro: spans: no trace {trace_id!r} in {directory}",
                  file=sys.stderr)
            return None
        return records

    def row_line(row) -> str:
        dur_ms = row["dur_ns"] / 1e6
        pids = ",".join(str(p) for p in row["pids"])
        return (
            f"{row['trace']}  {dur_ms:9.3f}ms  {row['spans']:3d} span(s)  "
            f"op={row.get('op') or '-'} status={row.get('status') or '-'}  "
            f"pids {pids}"
        )

    if args.action == "list":
        rows = spanstore.trace_summaries(directory)
        if args.limit:
            rows = rows[: args.limit]
        if args.json:
            print(json.dumps(rows, indent=2))
            return 0
        if not rows:
            print("(no traces)")
            return 0
        for row in rows:
            print(row_line(row))
        return 0

    if args.action == "show":
        records = load(args.trace)
        if records is None:
            return 1
        if args.json:
            print(json.dumps(records, indent=2))
            return 0
        sys.stdout.write(spanstore.render_tree(records))
        return 0

    if args.action == "slowest":
        rows = spanstore.slowest_traces(directory, k=args.limit or 5)
        if not rows:
            print("(no traces)")
            return 0
        traces = []
        for row in rows:
            records = spanstore.load_trace(directory, row["trace"])
            if records:
                traces.append(records)
        if args.json:
            doc = {"slowest": rows}
            if args.critical_path:
                doc["critical_path_s"] = spanstore.critical_path_summary(traces)
            print(json.dumps(doc, indent=2))
            return 0
        for row in rows:
            print(row_line(row))
        if args.critical_path:
            summary = spanstore.critical_path_summary(traces)
            total = sum(summary.values()) or 1.0
            print(f"critical path across the {len(traces)} slowest trace(s):")
            for category, seconds in sorted(
                summary.items(), key=lambda kv: kv[1], reverse=True
            ):
                print(
                    f"  {category:<10s} {seconds * 1000:9.3f}ms "
                    f"({100 * seconds / total:5.1f}%)"
                )
        return 0

    # export: one trace, or with no id the whole store as one timeline
    from repro.observe.export import chrome_trace

    if args.trace is None:
        records = list(spanstore.iter_records(directory))
    else:
        records = load(args.trace)
        if records is None:
            return 1
    doc = chrome_trace(records)
    payload = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload + "\n")
        print(f"; chrome trace written to {args.out}", file=sys.stderr)
    else:
        print(payload)
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    from repro.benchsuite import BENCHMARKS

    for name, bench in sorted(BENCHMARKS.items()):
        print(f"{name:16s} {bench.description}")
        print(f"{'':16s}   scaling: {bench.scaling}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Lazy saves, eager restores, greedy shuffling — a "
            "reproduction of Burger, Waddell & Dybvig (PLDI 1995)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="compile and execute a program")
    p_run.add_argument("file", help="Scheme source file, or - for stdin")
    p_run.add_argument(
        "--counters", action="store_true", help="print counters to stderr"
    )
    p_run.add_argument(
        "--json",
        action="store_true",
        help="print value, counters and per-pass metrics as JSON",
    )
    _add_trace_dir_flag(p_run)
    _add_config_flags(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_dis = sub.add_parser("disasm", help="show generated code")
    p_dis.add_argument("file")
    p_dis.add_argument("--proc", help="only this procedure")
    _add_config_flags(p_dis)
    p_dis.set_defaults(fn=cmd_disasm)

    p_rep = sub.add_parser("report", help="show the allocator's decisions")
    p_rep.add_argument("file")
    p_rep.add_argument("--proc", help="only this procedure")
    _add_config_flags(p_rep)
    p_rep.set_defaults(fn=cmd_report)

    p_exp = sub.add_parser("expand", help="show the expanded core form")
    p_exp.add_argument("file")
    p_exp.add_argument("--no-prelude", action="store_true")
    p_exp.set_defaults(fn=cmd_expand)

    p_bench = sub.add_parser("bench", help="run benchmarks")
    p_bench.add_argument("names", nargs="*", help="benchmark names (default: all)")
    p_bench.add_argument(
        "--json", action="store_true", help="emit rows as JSON"
    )
    _add_trace_dir_flag(p_bench)
    p_bench.add_argument(
        "--baseline-out",
        metavar="PATH",
        help="measure the fast VM and write a BENCH_vm.json baseline",
    )
    p_bench.add_argument(
        "--check-baseline",
        metavar="PATH",
        help="re-measure and fail on regression vs a committed baseline",
    )
    p_bench.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="N",
        help="timing repetitions per benchmark (default: 3)",
    )
    p_bench.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        metavar="F",
        help="allowed relative speedup regression for --check-baseline",
    )
    p_bench.add_argument(
        "--warm-start",
        action="store_true",
        help="measure cold vs ISA-cache "
        "startup latency (alone: print the table; with --baseline-out: "
        "record a warm_start section)",
    )
    p_bench.add_argument(
        "--history",
        metavar="PATH",
        help="append one timestamped JSON record of this run to PATH",
    )
    _add_config_flags(p_bench, allocator_all=True, shuffle_all=True)
    p_bench.set_defaults(fn=cmd_bench)

    p_alloc = sub.add_parser(
        "alloc", help="inspect register allocation for one program"
    )
    p_alloc.add_argument("file")
    p_alloc.add_argument(
        "--compare",
        action="store_true",
        help="run the program under every allocator strategy and tabulate "
        "saves/restores/moves/spills/cycles",
    )
    p_alloc.add_argument(
        "--json", action="store_true", help="emit --compare rows as JSON"
    )
    _add_config_flags(p_alloc)
    p_alloc.set_defaults(fn=cmd_alloc)

    p_isa = sub.add_parser("isa", help="show the VM instruction set reference")
    p_isa.add_argument(
        "--markdown",
        action="store_true",
        help="emit the docs/isa.md document (CI checks it for drift)",
    )
    p_isa.add_argument(
        "--out", metavar="PATH", help="output path (default: stdout)"
    )
    p_isa.set_defaults(fn=cmd_isa)

    p_table = sub.add_parser("table", help="regenerate a paper table")
    p_table.add_argument(
        "which",
        choices=[
            "2", "3", "4", "5", "shuffle", "shuffle-study", "sweep", "restores",
        ],
    )
    p_table.add_argument("--names", nargs="*", help="benchmark subset")
    p_table.add_argument(
        "--markdown",
        action="store_true",
        help="shuffle-study: emit the markdown table embedded in "
        "docs/shuffle.md",
    )
    p_table.add_argument(
        "--check",
        metavar="PATH",
        help="shuffle-study: fail unless PATH contains the regenerated "
        "markdown table (the CI drift gate)",
    )
    p_table.set_defaults(fn=cmd_table)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differentially fuzz the compiler against the interpreter",
    )
    p_fuzz.add_argument("--seed", type=int, default=0, metavar="N")
    p_fuzz.add_argument(
        "--iterations",
        type=int,
        default=100,
        metavar="N",
        help="programs to generate and check (default: 100)",
    )
    p_fuzz.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop after this many seconds (iterations becomes a cap)",
    )
    p_fuzz.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default: 1)",
    )
    p_fuzz.add_argument(
        "--shrink",
        action="store_true",
        help="delta-debug each failing program to a local minimum",
    )
    p_fuzz.add_argument(
        "--replay",
        metavar="PATH",
        help="re-check one corpus entry instead of generating programs",
    )
    p_fuzz.add_argument(
        "--corpus",
        metavar="DIR",
        default="fuzzcorpus",
        help="directory for failure artifacts (default: fuzzcorpus)",
    )
    p_fuzz.add_argument(
        "--keep-interesting",
        type=int,
        default=0,
        metavar="N",
        help="also persist up to N cycle-heavy passing programs",
    )
    p_fuzz.add_argument(
        "--allocator",
        choices=ALLOCATOR_STRATEGIES,
        default=None,
        help="restrict the oracle to one binding allocator's config "
        "matrix (default: sweep the full matrix)",
    )
    p_fuzz.add_argument(
        "--shuffle",
        choices=SHUFFLE_STRATEGIES,
        default=None,
        help="restrict the oracle to one shuffle strategy's config "
        "matrix (ignored with --allocator; default: full matrix)",
    )
    p_fuzz.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    p_fuzz.set_defaults(fn=cmd_fuzz)

    p_batch = sub.add_parser(
        "batch",
        help="compile (or run) many programs through the cache and worker pool",
    )
    p_batch.add_argument(
        "input",
        nargs="*",
        help="JSON-lines request file (or - for stdin); with --bench, "
        "benchmark names (default: all)",
    )
    p_batch.add_argument(
        "--bench",
        action="store_true",
        help="take requests from the benchmark suite instead of a file",
    )
    p_batch.add_argument(
        "--run",
        action="store_true",
        help="with --bench, execute programs instead of compile-only",
    )
    p_batch.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes; 1 runs inline in this process (default: 1)",
    )
    p_batch.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="on-disk cache root (default: ~/.cache/repro)",
    )
    p_batch.add_argument(
        "--no-cache", action="store_true", help="disable the compile cache"
    )
    p_batch.add_argument(
        "--memory-cache",
        action="store_true",
        help="cache in memory only; do not touch the disk store",
    )
    p_batch.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request timeout (pooled mode only)",
    )
    p_batch.add_argument(
        "--max-instructions",
        type=int,
        default=None,
        metavar="N",
        help="per-request VM instruction budget",
    )
    p_batch.add_argument(
        "--json",
        action="store_true",
        help="emit one summary document instead of per-response lines",
    )
    _add_observe_flags(p_batch)
    _add_config_flags(p_batch)
    p_batch.set_defaults(fn=cmd_batch)

    p_serve = sub.add_parser(
        "serve", help="long-lived JSON-lines compile daemon"
    )
    p_serve.add_argument(
        "--stdio",
        action="store_true",
        help="speak the JSON-lines protocol over stdin/stdout",
    )
    p_serve.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        help="listen on a TCP socket (port 0 = ephemeral; the bound "
        "port is announced in the 'listening' event on stdout)",
    )
    p_serve.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default: 1; requests still run out of process)",
    )
    farm = p_serve.add_argument_group(
        "daemon limits (--max-clients is --tcp only)"
    )
    farm.add_argument(
        "--max-clients", type=int, default=128, metavar="N",
        help="concurrent TCP connections (default: 128)",
    )
    farm.add_argument(
        "--max-pending", type=int, default=1024, metavar="N",
        help="admitted-but-unresolved requests across all tenants "
        "(default: 1024)",
    )
    farm.add_argument(
        "--max-pending-per-tenant", type=int, default=128, metavar="N",
        help="admitted-but-unresolved requests per tenant (default: 128)",
    )
    farm.add_argument(
        "--drain-grace", type=float, default=10.0, metavar="SECONDS",
        help="graceful-drain window for in-flight work on SIGTERM/shutdown "
        "(default: 10)",
    )
    farm.add_argument(
        "--no-dedup",
        action="store_true",
        help="disable single-flight dedup of identical in-flight requests",
    )
    p_serve.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="on-disk cache root (default: ~/.cache/repro)",
    )
    p_serve.add_argument(
        "--no-cache", action="store_true", help="disable the compile cache"
    )
    p_serve.add_argument(
        "--memory-cache",
        action="store_true",
        help="cache in memory only; do not touch the disk store",
    )
    _add_observe_flags(p_serve)
    p_serve.set_defaults(fn=cmd_serve)

    p_load = sub.add_parser(
        "loadgen",
        help="replay a corpus against the TCP daemon and report latency "
        "percentiles (the SLO gate)",
    )
    target = p_load.add_argument_group("target (pick one)")
    target.add_argument(
        "--connect", metavar="HOST:PORT",
        help="load an already-running repro serve --tcp daemon",
    )
    target.add_argument(
        "--spawn",
        action="store_true",
        help="spawn an in-process server (cold cache) for the run",
    )
    shape = p_load.add_argument_group("load shape")
    shape.add_argument(
        "--concurrency", type=int, default=8, metavar="N",
        help="virtual users, one connection each (default: 8)",
    )
    shape.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="run for a wall-clock window instead of a request count",
    )
    shape.add_argument(
        "--requests", type=int, default=None, metavar="N",
        help="requests per virtual user (default: 10 when no --duration)",
    )
    shape.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="schedule seed; same seed + corpus + shape replays the same "
        "request sequence (default: 0)",
    )
    shape.add_argument(
        "--duplicate-fraction", type=float, default=0.5, metavar="F",
        help="fraction of picks drawn from the shared hot set — what "
        "makes single-flight dedup observable (default: 0.5)",
    )
    shape.add_argument(
        "--tenants", metavar="A,B,...",
        help="comma-separated tenant names, assigned round-robin to "
        "virtual users (default: one 'default' tenant)",
    )
    corpus = p_load.add_argument_group("corpus (default: the benchsuite)")
    corpus.add_argument(
        "--corpus", metavar="DIR",
        help="directory of .sexp programs (e.g. a fuzz corpus)",
    )
    corpus.add_argument(
        "--requests-file", metavar="PATH",
        help="JSON-lines request file (the repro batch format)",
    )
    corpus.add_argument(
        "--heavy", action="store_true",
        help="with the benchsuite corpus, include heavy benchmarks",
    )
    p_load.add_argument(
        "--run", action="store_true",
        help="execute programs instead of compile-only",
    )
    p_load.add_argument(
        "--jobs", type=int, default=4, metavar="N",
        help="--spawn: worker processes for the spawned server (default: 4)",
    )
    p_load.add_argument(
        "--cache-dir", metavar="DIR",
        help="--spawn: on-disk cache root (default: memory-only cache)",
    )
    p_load.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-request timeout",
    )
    p_load.add_argument(
        "--max-instructions", type=int, default=None, metavar="N",
        help="per-request VM instruction budget",
    )
    gate = p_load.add_argument_group("SLO gate")
    gate.add_argument(
        "--check", metavar="PATH",
        help="gate the report against committed thresholds "
        "(BENCH_serve.json); exit 1 on violation",
    )
    gate.add_argument(
        "--tolerance", type=float, default=1.0, metavar="F",
        help="multiplier applied to latency ceilings from --check, to "
        "absorb shared-runner noise (default: 1.0)",
    )
    p_load.add_argument(
        "--out", metavar="PATH", help="also write the report JSON to a file"
    )
    p_load.add_argument(
        "--latencies-out", metavar="PATH",
        help="also write one JSON line per request "
        "(latency, status, trace id) to a file",
    )
    p_load.add_argument(
        "--json", action="store_true",
        help="print the full report JSON (default when not a tty)",
    )
    trace = p_load.add_argument_group("tracing (--spawn only)")
    trace.add_argument(
        "--trace-dir", metavar="DIR", default=None,
        help="--spawn: span store directory for the spawned server",
    )
    trace.add_argument(
        "--trace-sample", type=float, default=1.0, metavar="RATE",
        help="--spawn: tail-sampling keep rate for ok traces (default 1.0)",
    )
    p_load.set_defaults(fn=cmd_loadgen)

    p_cache = sub.add_parser("cache", help="inspect or prune the compile cache")
    p_cache.add_argument(
        "action",
        choices=["stats", "gc", "clear"],
        help="stats: show usage; gc: prune to limits; clear: invalidate all",
    )
    p_cache.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="on-disk cache root (default: ~/.cache/repro)",
    )
    p_cache.add_argument(
        "--max-entries", type=int, default=None, metavar="N",
        help="gc: keep at most N entries (oldest evicted first)",
    )
    p_cache.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="gc: keep at most N bytes of entries",
    )
    p_cache.add_argument(
        "--verify",
        action="store_true",
        help="stats: integrity-scan every disk entry's checksum",
    )
    p_cache.add_argument(
        "--remove-corrupt",
        action="store_true",
        help="with --verify, delete entries that fail validation",
    )
    p_cache.add_argument("--json", action="store_true")
    p_cache.set_defaults(fn=cmd_cache)

    p_metrics = sub.add_parser(
        "metrics", help="inspect a service metrics snapshot"
    )
    p_metrics.add_argument(
        "--path",
        metavar="PATH",
        help="snapshot file (default: $REPRO_METRICS_PATH or "
        "~/.cache/repro/metrics.json)",
    )
    p_metrics.add_argument(
        "--json", action="store_true", help="print the raw snapshot JSON"
    )
    p_metrics.add_argument(
        "--openmetrics",
        action="store_true",
        help="render the snapshot as OpenMetrics exposition text",
    )
    p_metrics.add_argument(
        "--lint",
        action="store_true",
        help="render as OpenMetrics and check it for format violations",
    )
    p_metrics.set_defaults(fn=cmd_metrics)

    p_top = sub.add_parser(
        "top", help="refresh-loop dashboard over the metrics snapshot"
    )
    p_top.add_argument(
        "--path",
        metavar="PATH",
        help="snapshot file (default: $REPRO_METRICS_PATH or "
        "~/.cache/repro/metrics.json)",
    )
    p_top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period (default: 2.0)",
    )
    p_top.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="stop after N frames (default: run until interrupted)",
    )
    p_top.add_argument(
        "--once",
        action="store_true",
        help="render a single frame without clearing the screen",
    )
    p_top.set_defaults(fn=cmd_top)

    p_spans = sub.add_parser(
        "spans", help="inspect the span store (--trace-dir)"
    )
    span_sub = p_spans.add_subparsers(dest="action", required=True)

    def _span_store_flags(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--trace-dir",
            metavar="DIR",
            default=None,
            help="span store directory (default: $REPRO_TRACE_DIR)",
        )
        sp.add_argument(
            "--json", action="store_true", help="machine-readable output"
        )

    sp_list = span_sub.add_parser("list", help="one row per stored trace")
    sp_list.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="show the N newest traces (default: 20; 0 = all)",
    )
    _span_store_flags(sp_list)
    sp_show = span_sub.add_parser(
        "show", help="render one trace's span tree (id may be a prefix)"
    )
    sp_show.add_argument("trace", help="trace id or unique prefix")
    _span_store_flags(sp_show)
    sp_slow = span_sub.add_parser(
        "slowest", help="the slowest stored traces"
    )
    sp_slow.add_argument(
        "--limit", type=int, default=5, metavar="K",
        help="how many traces (default: 5)",
    )
    sp_slow.add_argument(
        "--critical-path",
        action="store_true",
        help="attribute their wall-clock to admission/queue/compile/"
        "cache/write",
    )
    _span_store_flags(sp_slow)
    sp_export = span_sub.add_parser(
        "export", help="export traces as Chrome trace_event JSON"
    )
    sp_export.add_argument(
        "trace", nargs="?",
        help="trace id or unique prefix (default: the whole store, "
        "as one timeline)",
    )
    sp_export.add_argument(
        "-o", "--out", metavar="PATH", help="output path (default: stdout)"
    )
    _span_store_flags(sp_export)
    p_spans.set_defaults(fn=cmd_spans)

    p_list = sub.add_parser("list", help="list benchmarks")
    p_list.set_defaults(fn=cmd_list)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # output piped into head etc.
        return 0
    except ReaderError as exc:
        print(f"repro: read error: {exc}", file=sys.stderr)
        return 1
    except CompilerError as exc:
        print(f"repro: compile error: {exc}", file=sys.stderr)
        return 1
    except FuzzError as exc:
        print(f"repro: fuzz error: {exc}", file=sys.stderr)
        return 1
    except ServeError as exc:
        print(f"repro: serve error: {exc}", file=sys.stderr)
        return 1
    except SchemeError as exc:
        print(f"repro: runtime error: {exc}", file=sys.stderr)
        return 1
    except VMError as exc:
        print(f"repro: vm error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
