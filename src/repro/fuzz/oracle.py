"""The differential oracle.

One program, many verdicts: the reference interpreter fixes the expected
value and output, then the program is compiled and executed at every
configuration point the caller supplies (by default the full strategy
matrix plus the register sweep, ~90 points).  Beyond value/output
equality, two invariants from the observe layer are cross-checked:

* **counter conservation** — the per-procedure profile deltas must sum
  exactly to the run's global counters (PR 1's conservation property);
* **lazy ≤ late saves** — the revised lazy-save algorithm (§2.1.3) never
  performs more dynamic saves than saving immediately before each call;
  whenever the matrix contains a caller-save ``lazy`` point and its
  ``late`` counterpart, the bound is asserted on the measured counters;
* **vm-fast** — the fast loop and the legacy dispatch loop must agree
  exactly (value, output, counters) on the same compiled program, with
  the fast loop run tiered, then tiered on the program reloaded through
  the compile cache's serializer (what a worker's disk hit runs), then
  all-traced; checked on the first
  few configurations of each program to bound cost.  Budget-exceeded
  runs only assert agreement on the error class: the fast loop checks
  its budget once per trace, so the raise point may trail the legacy
  loop's by up to one trace.

A program the *interpreter* cannot run (wrong arity the generator
slipped through, step budget exceeded) is not a divergence — it raises
:class:`InvalidProgram` and the engine skips it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.astnodes import Expr
from repro.config import CompilerConfig, full_matrix
from repro.errors import CompilerError
from repro.frontend.analyze import mark_tail_calls
from repro.frontend.expand import expand_program
from repro.interp.interpreter import BudgetExceeded, Interpreter
from repro.pipeline import compile_core, run_compiled
from repro.runtime.values import SchemeError
from repro.sexp.reader import ReaderError, read_all
from repro.sexp.writer import write_datum
from repro.vm.machine import VMError, trace_all

DEFAULT_MAX_INSTRUCTIONS = 5_000_000
DEFAULT_INTERP_STEPS = 2_000_000

#: Configurations per program on which the fast-vs-legacy loop
#: comparison runs (each costs three extra non-debug executions).
FAST_CHECK_LIMIT = 4


class InvalidProgram(Exception):
    """The reference interpreter itself rejected the program; there is
    nothing to compare, so the fuzzer discards it."""


@dataclass
class Divergence:
    """One disagreement between the VM and the reference semantics."""

    kind: str  # value | output | compile-crash | vm-crash | conservation
    #            | save-bound | vm-fast
    config: CompilerConfig
    expected: str
    got: str

    def describe(self) -> str:
        cfg = self.config.summary()
        point = (
            f"save={cfg['save_strategy']} restore={cfg['restore_strategy']} "
            f"shuffle={cfg['shuffle_strategy']} conv={cfg['save_convention']} "
            f"c={cfg['num_arg_regs']} l={cfg['num_temp_regs']}"
        )
        if "allocator" in cfg:
            point += f" alloc={cfg['allocator']}"
        return f"{self.kind} at [{point}]: expected {self.expected!r}, got {self.got!r}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "config": self.config.summary(),
            "expected": self.expected,
            "got": self.got,
        }


@dataclass
class OracleResult:
    """The verdicts for one program across the whole matrix."""

    divergences: List[Divergence] = field(default_factory=list)
    configs_checked: int = 0
    shuffle_cycles: int = 0  # corpus "interestingness" signal
    expected_value: str = ""

    @property
    def ok(self) -> bool:
        return not self.divergences


def interp_reference(
    source: str, max_steps: Optional[int] = DEFAULT_INTERP_STEPS
) -> Tuple[str, str]:
    """Reference (value, output) of *source*, via the interpreter.

    Raises :class:`InvalidProgram` when the interpreter cannot run it."""
    expr = _expand(source)
    return _interp_expr(expr, max_steps)


def _expand(source: str) -> Expr:
    try:
        forms = read_all(source)
        expr = expand_program(forms)
        mark_tail_calls(expr)
    except (ReaderError, CompilerError) as exc:
        raise InvalidProgram(f"program does not expand: {exc}") from exc
    return expr


def _interp_expr(expr: Expr, max_steps: Optional[int]) -> Tuple[str, str]:
    interp = Interpreter(max_steps=max_steps)
    try:
        value = interp.run(expr)
    except (SchemeError, BudgetExceeded, RecursionError) as exc:
        raise InvalidProgram(f"reference interpreter failed: {exc}") from exc
    return _normalize(write_datum(value)), _normalize(interp.port.contents())


# Procedures (and other opaque objects) print differently in the
# interpreter and the VM — `#<interpclosure>` vs `#<vmclosure>` — which
# is a representation detail, not a semantic divergence.
_OPAQUE = re.compile(r"#<[^>]*>")


def _normalize(text: str) -> str:
    return _OPAQUE.sub("#<procedure>", text)


def _canon_output(text: str) -> str:
    """Order-insensitive canonical form of a program's output.

    Scheme leaves call-operand evaluation order unspecified, and the
    shuffler exploits that freedom (each strategy picks its own order),
    so ``display`` calls reached from sibling operands may legitimately
    interleave differently than under the left-to-right reference
    interpreter.  Comparing the sorted character multiset still catches
    dropped, duplicated, or wrong output — only pure reorderings are
    forgiven."""
    return "".join(sorted(text))


def check_program(
    source: str,
    configs: Optional[Sequence[CompilerConfig]] = None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    interp_steps: Optional[int] = DEFAULT_INTERP_STEPS,
    fail_fast: bool = False,
    check_invariants: bool = True,
) -> OracleResult:
    """Differentially test one program.

    The program is expanded once; each configuration compiles its own
    copy of the tree (``compile_core``) and runs under the poison-checking
    debug VM with a per-run instruction budget.
    """
    expr = _expand(source)
    expected_value, expected_output = _interp_expr(expr, interp_steps)

    if configs is None:
        configs = full_matrix()
    result = OracleResult(expected_value=expected_value)
    saves_by_point: Dict[tuple, Dict[str, int]] = {}
    fast_checks = 0

    for config in configs:
        result.configs_checked += 1
        try:
            compiled = compile_core(expr, config, copy=True)
        except (CompilerError, RecursionError) as exc:
            result.divergences.append(
                Divergence("compile-crash", config, expected_value, f"{exc}")
            )
            if fail_fast:
                return result
            continue
        try:
            run = run_compiled(
                compiled,
                debug=True,
                max_instructions=max_instructions,
                profile=check_invariants,
            )
        except (VMError, SchemeError, RecursionError) as exc:
            result.divergences.append(
                Divergence("vm-crash", config, expected_value, f"{exc}")
            )
            if fail_fast:
                return result
            continue

        got_value = _normalize(write_datum(run.value))
        if got_value != expected_value:
            result.divergences.append(
                Divergence("value", config, expected_value, got_value)
            )
            if fail_fast:
                return result
        got_output = _normalize(run.output)
        if _canon_output(got_output) != _canon_output(expected_output):
            result.divergences.append(
                Divergence("output", config, expected_output, run.output)
            )
            if fail_fast:
                return result

        if check_invariants:
            problem = _conservation_problem(run)
            if problem is not None:
                result.divergences.append(
                    Divergence("conservation", config, problem[0], problem[1])
                )
                if fail_fast:
                    return result
            cfg = config.summary()
            if cfg["save_convention"] == "caller" and cfg["save_strategy"] in (
                "lazy",
                "late",
            ):
                # The bound only holds between points that differ in
                # nothing but the save strategy — in particular the
                # binding allocator must match, since different register
                # assignments legitimately change the save counts.
                point = (
                    cfg["restore_strategy"],
                    cfg["shuffle_strategy"],
                    cfg["num_arg_regs"],
                    cfg["num_temp_regs"],
                    cfg.get("allocator", "lazy"),
                )
                saves_by_point.setdefault(point, {})[cfg["save_strategy"]] = (
                    run.counters.saves
                )
        if check_invariants and fast_checks < FAST_CHECK_LIMIT:
            fast_checks += 1
            problem = _vm_fast_problem(compiled, max_instructions)
            if problem is not None:
                result.divergences.append(
                    Divergence("vm-fast", config, problem[0], problem[1])
                )
                if fail_fast:
                    return result
        result.shuffle_cycles += _count_shuffle_cycles(compiled)

    if check_invariants:
        for point, saves in sorted(saves_by_point.items()):
            if "lazy" in saves and "late" in saves and saves["lazy"] > saves["late"]:
                config = CompilerConfig(
                    save_strategy="lazy",
                    restore_strategy=point[0],
                    shuffle_strategy=point[1],
                    num_arg_regs=point[2],
                    num_temp_regs=point[3],
                    allocator=point[4],
                )
                result.divergences.append(
                    Divergence(
                        "save-bound",
                        config,
                        f"saves <= {saves['late']} (late)",
                        f"{saves['lazy']} (lazy)",
                    )
                )
    return result


def _vm_fast_problem(compiled, max_instructions: int) -> Optional[Tuple[str, str]]:
    """The fast/legacy loop agreement invariant for one compiled
    program: identical value, output, and counters, or the same error,
    from the fast loop tiered (cold code objects run from step tables),
    reloaded (the program after a round trip through the compile
    cache's serializer, run tiered, as a worker runs a disk hit) and
    all-traced (every code object trace-compiled first).

    Budget errors (``VMError``) compare by class only — the fast loop's
    once-per-trace budget check may raise a few instructions after the
    legacy loop's exact check."""
    # Imported here: the serve package is heavy, and importing
    # repro.fuzz (for its generator) must not pull it in.
    from repro.serve.cache import deserialize_compiled, serialize_compiled

    def attempt(program, vm_fast: bool = True):
        try:
            run = run_compiled(
                program, max_instructions=max_instructions, vm_fast=vm_fast
            )
            return ("ok", run)
        except VMError:
            return ("budget", None)
        except SchemeError as exc:
            return ("error", str(exc))
        except RecursionError:
            return ("recursion", None)

    slow = attempt(compiled, vm_fast=False)
    problem = _fast_disagreement(slow, attempt(compiled), "tiered")
    if problem is None:
        reloaded = deserialize_compiled(serialize_compiled(compiled))
        problem = _fast_disagreement(slow, attempt(reloaded), "reloaded")
    if problem is None:
        trace_all(compiled)
        problem = _fast_disagreement(slow, attempt(compiled), "all-traced")
    return problem


def _fast_disagreement(slow_attempt, fast_attempt, mode: str):
    slow_kind, slow = slow_attempt
    fast_kind, fast = fast_attempt
    if slow_kind != fast_kind:
        return (f"legacy: {slow_kind}", f"{mode}: {fast_kind}")
    if slow_kind == "ok":
        slow_value = write_datum(slow.value)
        fast_value = write_datum(fast.value)
        if slow_value != fast_value:
            return (f"value {slow_value}", f"{mode}: value {fast_value}")
        if slow.output != fast.output:
            return (f"output {slow.output!r}", f"{mode}: output {fast.output!r}")
        slow_counts = slow.counters.as_dict()
        fast_counts = fast.counters.as_dict()
        if slow_counts != fast_counts:
            diff = {
                key: (slow_counts.get(key), fast_counts.get(key))
                for key in set(slow_counts) | set(fast_counts)
                if slow_counts.get(key) != fast_counts.get(key)
            }
            return ("counters equal", f"{mode}: counters differ: {diff}")
    elif slow_kind == "error" and slow != fast:
        return (f"error {slow}", f"{mode}: error {fast}")
    return None


def _conservation_problem(run) -> Optional[Tuple[str, str]]:
    """PR 1's conservation property, checked per run: profile deltas must
    sum exactly to the global counters."""
    profile = run.profile
    if profile is None:
        return None
    totals = profile.totals()
    counters = run.counters
    total_refs = sum(totals["stack_reads"].values()) + sum(
        totals["stack_writes"].values()
    )
    for key, expected, got in (
        ("instructions", counters.instructions, totals["instructions"]),
        ("cycles", counters.cycles, totals["cycles"]),
        ("stack_refs", counters.total_stack_refs, total_refs),
        ("saves", counters.saves, totals["stack_writes"].get("save", 0)),
        ("restores", counters.restores, totals["stack_reads"].get("restore", 0)),
        ("calls", counters.calls, totals["calls"]),
        ("tail_calls", counters.tail_calls, totals["tail_calls"]),
    ):
        if got != expected:
            return (f"{key}={expected} (counters)", f"{key}={got} (profile sum)")
    return None


def _count_shuffle_cycles(compiled) -> int:
    """Shuffle cycles the allocator broke in this compilation — the
    signal ``corpus.py`` uses to keep 'interesting' seeds."""
    from repro.astnodes import Call, walk

    cycles = 0
    for code in compiled.codes:
        for node in walk(code.body):
            if (
                isinstance(node, Call)
                and node.shuffle_plan is not None
                and node.shuffle_plan.had_cycle
            ):
                cycles += 1
    return cycles
