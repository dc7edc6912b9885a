"""Run one workload of the benchmark and print its metrics.

    python3 perfledger/run.py --workload cold-run --seed 1 --seconds 20 --trace 0

Workloads: ``cold-run``, ``hot-exec``, ``serve-mix`` (see README.md).
``--trace 0`` prints the end-to-end metrics of an untraced window.
``--trace 1`` runs the untraced window, then the same window traced,
and prints the per-layer metrics, each layer's self time and the
tracing overhead of every end-to-end metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfledger import common  # noqa: E402


def _spec():
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _untraced(workload: str, seed: int, seconds: int):
    from perfledger import inprocess, servemix

    if workload == "cold-run":
        return inprocess.cold_run(seed, seconds)
    if workload == "hot-exec":
        return inprocess.hot_exec(seed, seconds)
    return servemix.serve_mix(seed, seconds)


def _traced(workload: str, seed: int, seconds: int):
    """The same window traced; returns (result, tracer, per-layer metrics)."""
    from perfledger import inprocess, layers, servemix
    from perfledger.spans import Tracer, traced

    tracer = Tracer()
    exec_programs = _exec_programs()
    if workload == "serve-mix":
        result = servemix.serve_mix(seed, seconds, traced=True)
        replay = _replay(result, tracer)
        return result, tracer, layers.per_layer(
            tracer, replay, result["programs"], exec_programs, servemix.serve_layers(result)
        )
    run = inprocess.cold_run if workload == "cold-run" else inprocess.hot_exec
    with traced(tracer):
        result = run(seed, seconds, tracer)
    serve_zeros = dict.fromkeys(servemix.SERVE_LAYERS, 0.0)
    return result, tracer, layers.per_layer(
        tracer, result["ops"], result["programs"], exec_programs, serve_zeros
    )


def _replay(result, tracer):
    """Compile (and run, where the window ran it) each distinct program
    of a serve-mix window in process, traced, and check that the
    daemon's replies carried the same static and dynamic counts."""
    from perfledger.common import Op, code_quality, counters_of
    from perfledger.spans import traced
    from repro.pipeline import compile_source, run_compiled

    ops = []
    with traced(tracer):
        for key, seen in result["programs"].items():
            tracer.op = len(ops)
            root = tracer.open("replay")
            compiled = compile_source(result["sources"][key])
            run = run_compiled(compiled) if seen["counters"] else None
            tracer.close(root)
            op = Op(key, "replay", 0.0)
            op.counters = counters_of(run.counters) if run else None
            seen["quality"] = code_quality(compiled)
            if seen["static_instrs"] not in (None, compiled.total_instructions()):
                result["problems"].append(f"{key}: daemon and in-process static counts differ")
            if run and op.counters != seen["counters"]:
                result["problems"].append(f"{key}: daemon and in-process VM counts differ")
            ops.append(op)
    return ops


def _exec_programs():
    from repro.benchsuite.programs import benchmark_names

    return benchmark_names(include_heavy=False)


def _summarize(result):
    """End-to-end metrics, summary lines and the exact counts."""
    exact = common.exact_metrics(result["programs"], result["refs"])
    metrics, lines = common.end_to_end(
        result["ops"], result["busy_s"], result["setup"], result["rss_mb"], exact
    )
    counts = {
        "inputs": result["inputs"],
        "exact": exact,
        "programs": {
            k: {"counters": v["counters"], "static_instrs": v["static_instrs"]}
            for k, v in sorted(result["programs"].items())
        },
    }
    return metrics, lines, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cold-run", "hot-exec", "serve-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an exception, so a running daemon is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    common.bootstrap()
    spec = _spec()
    result = _untraced(args.workload, args.seed, args.seconds)
    metrics, lines, counts = _summarize(result)
    problems = list(result["problems"])
    problems += common.ledger_check(
        f"{args.workload}|{args.seed}|{args.seconds}|{common.code_digest()[:16]}", counts
    )

    print(f"{args.workload} seed {args.seed}: {len(result['ops'])} ops")
    print(f"inputs digest {result['inputs'][:16]}")
    lines += common.failure_lines(result["ops"])
    if args.trace:
        traced, tracer, layer = _traced(args.workload, args.seed, args.seconds)
        if not traced["setup"]:
            traced["setup"] = result["setup"]
        t_metrics, _t_lines, t_counts = _summarize(traced)
        problems += traced["problems"]
        if any(op.status == "wrong value" for op in traced["ops"]):
            problems.append("the traced window returned a wrong value")
        if t_counts != counts:
            problems.append("the traced window's counts differ from the untraced window's")
        lines.append("tracing overhead (traced - untraced):")
        for name, m in metrics.items():
            delta = t_metrics[name]["value"] - m["value"]
            share = delta / m["value"] if m["value"] else 0.0
            lines.append(f"  {name:18s} {delta:+.6g} {m['unit']} ({share:+.1%})")
        lines.append("per-layer:")
        lines += [f"  {name:32s} {value:.6g}" for name, value in layer.items()]
        tracer.write(common.STATE / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        if set(layer) != set(declared):
            raise SystemExit(
                f"per-layer metrics disagree with BENCHMARK.json: "
                f"{sorted(set(layer) ^ set(declared))}"
            )
        out_metrics = {name: {"value": layer[name], "unit": unit} for name, unit in declared.items()}
    else:
        declared = [m["name"] for m in spec["end_to_end"]]
        if set(metrics) != set(declared):
            raise SystemExit("end-to-end metrics disagree with BENCHMARK.json")
        out_metrics = metrics

    wrong = sum(1 for op in result["ops"] if op.status == "wrong value")
    for line in lines:
        print(line)
    for problem in problems:
        print(f"INCORRECT: {problem}")
    print(json.dumps({
        "correct": not problems and not wrong,
        "attempted": len(result["ops"]),
        "failed": sum(1 for op in result["ops"] if op.status != "ok"),
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
