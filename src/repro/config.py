"""Compiler and simulator configuration.

A :class:`CompilerConfig` selects one point in the paper's design
space.  The paper's headline configuration is the default: six argument
registers, six user/temporary registers, lazy saves, eager restores,
greedy shuffling, caller-save registers.  The baseline of Table 3 is
:func:`CompilerConfig.baseline` — "no argument registers": every
parameter and user variable lives on the stack.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

SAVE_STRATEGIES = ("lazy", "lazy-simple", "early", "late")
RESTORE_STRATEGIES = ("eager", "lazy")
SHUFFLE_STRATEGIES = ("greedy", "naive", "spill-all", "optimal", "permopt", "none")
SAVE_CONVENTIONS = ("caller", "callee")
# Allocator strategies (repro.alloc): which algorithm assigns variables
# to registers.  The paper's allocator is "lazy"; the rivals exist for
# the ablation the paper never had.
ALLOCATOR_STRATEGIES = ("lazy", "linearscan", "graphcolor")
BRANCH_PREDICTION_MODES = (None, "static-calls", "fallthrough")


@dataclass(frozen=True)
class CostModel:
    """Cycle cost parameters for the VM.

    ``load_latency`` is the number of cycles before a loaded value is
    usable; a use before that stalls the (single-issue, in-order)
    pipeline.  This is the mechanism behind the paper's observation
    that eager restores hide memory latency (§2.2).
    """

    load_latency: int = 3
    store_cost: int = 1
    call_overhead: int = 2
    branch_mispredict_penalty: int = 3

    def validate(self) -> None:
        if self.load_latency < 1:
            raise ValueError("load_latency must be >= 1")


@dataclass(frozen=True)
class CompilerConfig:
    """One register-allocation configuration.

    Parameters
    ----------
    num_arg_regs:
        The paper's ``c`` — how many leading actual parameters are
        passed in registers.  The rest go on the stack.
    num_temp_regs:
        The paper's ``l`` — registers for user variables and compiler
        temporaries.
    allocator:
        Which register-assignment strategy maps variables to registers
        (``repro.alloc``): ``lazy`` — the paper's scope-driven
        first-free assignment (the default; exactly the pre-strategy
        behavior); ``linearscan`` — Traub/Holloway/Smith-style
        second-chance binpacking over linearized live intervals;
        ``graphcolor`` — Chaitin–Briggs simplify/select coloring with
        move biasing and iterated spill-cost recomputation.  Every
        strategy feeds the same save/restore/shuffle machinery.
    save_strategy:
        ``lazy`` — the paper's revised St/Sf algorithm (§2.1.3);
        ``lazy-simple`` — the deficient simple algorithm (§2.1.1),
        kept for the ablation study;
        ``early`` — save on procedure entry everything any call needs;
        ``late`` — save immediately before each call.
    restore_strategy:
        ``eager`` — restore right after each call everything possibly
        referenced before the next call (§2.2); ``lazy`` — restore at
        first use / save-region exit.
    shuffle_strategy:
        ``greedy`` — the paper's algorithm (§2.3, §3.1); ``naive`` —
        fixed left-to-right evaluation with temporaries on conflict;
        ``spill-all`` — Clinger/Hansen-style: any cycle spills every
        argument; ``optimal`` — exhaustive-search minimum temporaries
        (exponential; used for the §3.1 optimality statistics);
        ``permopt`` — Buchwald–Mohr–Rutter-style decomposition of the
        register-transfer graph into copies plus permutations, emitted
        as ``swap``/``permi`` permutation instructions: pure shuffle
        cycles execute with *no* temporary and no eviction at all;
        ``none`` — every register operand goes through a temporary
        (the paper's pre-shuffling compiler, whose performance
        *decreased* past two argument registers, §4).
    save_convention:
        ``caller`` — registers are caller-save (the paper's primary
        model); ``callee`` — user registers are callee-save and saved
        by the callee per ``save_strategy`` (``early`` = on entry like
        a C compiler, ``lazy`` = inside inevitable-call regions, §2.4).
    branch_prediction:
        ``None`` — no prediction cost modelling; ``"static-calls"`` —
        the §6 heuristic (call-free paths predicted likely);
        ``"fallthrough"`` — predict not-taken everywhere (baseline).
    vm_fast:
        Use the VM fast path (``repro.vm.predecode``): instructions are
        pre-decoded to a flat specialized form and common idioms fused
        into superinstructions.  Semantics, counters, cycles and
        profiles are bit-identical to the legacy tuple-dispatch loop —
        this knob exists for differential testing and for measuring the
        dispatch overhead itself, not as a design-space point (it is
        deliberately absent from :meth:`summary`).  The poison-checking
        debug VM always uses the legacy loop.
    lambda_lift:
        Enable the §6 future-work pass: known procedures' free
        variables become extra (register) arguments, bounded by
        ``lambda_lift_max_params``.
    """

    num_arg_regs: int = 6
    num_temp_regs: int = 6
    allocator: str = "lazy"
    lambda_lift: bool = False
    lambda_lift_max_params: int = 6
    peephole: bool = True
    save_strategy: str = "lazy"
    restore_strategy: str = "eager"
    shuffle_strategy: str = "greedy"
    save_convention: str = "caller"
    branch_prediction: Optional[str] = None
    vm_fast: bool = True
    cost_model: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.allocator not in ALLOCATOR_STRATEGIES:
            raise ValueError(
                f"unknown allocator: {self.allocator!r} "
                f"(choose from {', '.join(ALLOCATOR_STRATEGIES)})"
            )
        if self.save_strategy not in SAVE_STRATEGIES:
            raise ValueError(f"unknown save strategy: {self.save_strategy}")
        if self.restore_strategy not in RESTORE_STRATEGIES:
            raise ValueError(f"unknown restore strategy: {self.restore_strategy}")
        if self.shuffle_strategy not in SHUFFLE_STRATEGIES:
            raise ValueError(f"unknown shuffle strategy: {self.shuffle_strategy}")
        if self.save_convention not in SAVE_CONVENTIONS:
            raise ValueError(f"unknown save convention: {self.save_convention}")
        if self.branch_prediction not in BRANCH_PREDICTION_MODES:
            raise ValueError(
                f"unknown branch prediction mode: {self.branch_prediction}"
            )
        if self.num_arg_regs < 0 or self.num_temp_regs < 0:
            raise ValueError("register counts must be non-negative")
        if self.lambda_lift_max_params < 0:
            raise ValueError("lambda_lift_max_params must be non-negative")
        self.cost_model.validate()

    @staticmethod
    def paper_default() -> "CompilerConfig":
        """The configuration behind Table 3's "Lazy Save" column."""
        return CompilerConfig()

    @staticmethod
    def baseline() -> "CompilerConfig":
        """Table 3's baseline: no argument or user-variable registers."""
        return CompilerConfig(num_arg_regs=0, num_temp_regs=0)

    def with_(self, **changes) -> "CompilerConfig":
        """A copy of this configuration with the given fields replaced."""
        return replace(self, **changes)

    def summary(self) -> dict:
        """The fields that identify this point in the design space, as a
        JSON-serializable dict (the corpus format's ``config:`` header)."""
        summary = {
            "num_arg_regs": self.num_arg_regs,
            "num_temp_regs": self.num_temp_regs,
            "save_strategy": self.save_strategy,
            "restore_strategy": self.restore_strategy,
            "shuffle_strategy": self.shuffle_strategy,
            "save_convention": self.save_convention,
        }
        # Kept out of the common case so pre-arena corpus headers (and
        # their golden copies in tests) stay byte-identical.
        if self.allocator != "lazy":
            summary["allocator"] = self.allocator
        return summary

    @staticmethod
    def from_summary(summary: dict) -> "CompilerConfig":
        """Rebuild a configuration from :meth:`summary` output."""
        return CompilerConfig(**summary)

    def as_dict(self) -> Dict[str, Any]:
        """Every field (recursively, ``cost_model`` included) as a
        JSON-round-trippable dict.

        Unlike :meth:`summary`, which names only the design-space axes,
        this is the *complete* configuration — the wire format of the
        batch/serve protocol and the basis of :meth:`fingerprint`.  It
        is derived from ``dataclasses.fields`` so a newly added field
        can never be silently left out.
        """
        return _field_dict(self)

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "CompilerConfig":
        """Rebuild a configuration from :meth:`as_dict` output.

        Unknown keys are rejected (a config produced by a newer version
        of the compiler must not be silently reinterpreted)."""
        doc = dict(doc)
        cost = doc.pop("cost_model", None)
        known = {f.name for f in fields(CompilerConfig)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        if cost is not None:
            doc["cost_model"] = CostModel(**cost)
        return CompilerConfig(**doc)

    def fingerprint(self) -> str:
        """A stable, canonical identity of this configuration.

        Canonical JSON over **every** field (sorted keys, no
        whitespace) — the configuration half of the compile-cache key
        (``repro.serve.cache``).  Two configs share a fingerprint iff
        every field, including the cost model, is equal; the
        exhaustiveness is asserted field-by-field in
        ``tests/serve/test_cache.py``.
        """
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))


def _field_dict(obj: Any) -> Dict[str, Any]:
    """``dataclasses.fields``-driven recursive dict: exhaustive by
    construction (``dataclasses.asdict`` would work too, but this stays
    shallow and predictable for the JSON wire format)."""
    out: Dict[str, Any] = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        out[f.name] = _field_dict(value) if is_dataclass(value) else value
    return out


@dataclass
class ObserveConfig:
    """Where the observability subsystem persists its artifacts.

    ``metrics_path`` is the JSON registry snapshot that ``repro batch``
    and ``repro serve`` write and that ``repro metrics`` / ``repro top``
    read; ``flight_dir`` (optional) is where flight-recorder dumps go.
    Resolved from the environment by :meth:`from_env`:

    * ``REPRO_METRICS_PATH`` — snapshot path (default
      ``$XDG_CACHE_HOME/repro/metrics.json``, else
      ``~/.cache/repro/metrics.json``);
    * ``REPRO_FLIGHT_DIR`` — flight-dump directory (no default: dumps
      are opt-in outside the fuzzer, which uses its corpus directory);
    * ``REPRO_TRACE_DIR`` — request-trace span-store directory (no
      default: tracing is opt-in, see ``repro serve --trace-dir``).
    """

    metrics_path: str = ""
    flight_dir: Optional[str] = None
    trace_dir: Optional[str] = None

    @staticmethod
    def default_metrics_path() -> str:
        env = os.environ.get("REPRO_METRICS_PATH")
        if env:
            return env
        xdg = os.environ.get("XDG_CACHE_HOME")
        base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
        return os.path.join(base, "repro", "metrics.json")

    @classmethod
    def from_env(cls) -> "ObserveConfig":
        return cls(
            metrics_path=cls.default_metrics_path(),
            flight_dir=os.environ.get("REPRO_FLIGHT_DIR") or None,
            trace_dir=os.environ.get("REPRO_TRACE_DIR") or None,
        )


@dataclass(frozen=True)
class ServeConfig:
    """Limits and behaviour of the daemon core behind ``repro serve``
    (:mod:`repro.serve.net.server`), over either transport.

    ``host``/``port`` are the TCP listener's address (unused over
    stdio).  ``max_clients`` bounds concurrent TCP connections; a
    connection past the bound is greeted with an ``overloaded`` event
    and closed.  ``max_pending_per_tenant`` / ``max_pending_total`` bound
    admitted-but-unresolved work requests (queued in the pool plus
    in flight plus single-flight followers); a request past either
    bound is answered immediately with ``error_kind: "overloaded"``
    (the 429 of the JSON-lines protocol) instead of queueing without
    bound.  ``drain_grace_s`` is how long a graceful drain (SIGTERM /
    ``shutdown``) waits for in-flight work before cancelling what is
    left.  ``dedup`` enables single-flight deduplication of identical
    concurrent compiles.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_clients: int = 128
    max_pending_per_tenant: int = 128
    max_pending_total: int = 1024
    drain_grace_s: float = 10.0
    dedup: bool = True

    def __post_init__(self) -> None:
        if not (0 <= self.port <= 65535):
            raise ValueError(f"port out of range: {self.port}")
        if self.max_clients < 1:
            raise ValueError("max_clients must be >= 1")
        if self.max_pending_per_tenant < 1:
            raise ValueError("max_pending_per_tenant must be >= 1")
        if self.max_pending_total < 1:
            raise ValueError("max_pending_total must be >= 1")
        if self.drain_grace_s < 0:
            raise ValueError("drain_grace_s must be non-negative")

    def as_dict(self) -> Dict[str, Any]:
        return _field_dict(self)

    def with_address(self, host: str, port: int) -> "ServeConfig":
        return replace(self, host=host, port=port)

    @staticmethod
    def parse_address(text: str) -> Tuple[str, int]:
        """``HOST:PORT`` → ``(host, port)``; port 0 asks the kernel for
        an ephemeral port (the bound port is announced in the
        ``listening`` event)."""
        host, sep, port_text = text.rpartition(":")
        if not sep or not host:
            raise ValueError(f"address must be HOST:PORT, got {text!r}")
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(f"bad port in address {text!r}") from None
        if not (0 <= port <= 65535):
            raise ValueError(f"port out of range in address {text!r}")
        return host, port


# The paper's register sweep: (c, l) points from "no registers" through
# the headline six-and-six machine (§4's c ∈ {0, 2, 6} discussion).
REGISTER_SWEEP: Tuple[Tuple[int, int], ...] = ((0, 0), (2, 1), (6, 6))


def strategy_matrix(
    num_arg_regs: int = 6, num_temp_regs: int = 6
) -> Iterator[CompilerConfig]:
    """Every save × restore × shuffle × convention point, at one
    register-file size — the full cross-product the paper's
    semantics-preservation claim quantifies over."""
    for save in SAVE_STRATEGIES:
        for restore in RESTORE_STRATEGIES:
            for shuffle in SHUFFLE_STRATEGIES:
                for convention in SAVE_CONVENTIONS:
                    yield CompilerConfig(
                        num_arg_regs=num_arg_regs,
                        num_temp_regs=num_temp_regs,
                        save_strategy=save,
                        restore_strategy=restore,
                        shuffle_strategy=shuffle,
                        save_convention=convention,
                    )


def full_matrix(
    register_sweep: Sequence[Tuple[int, int]] = REGISTER_SWEEP,
) -> Tuple[CompilerConfig, ...]:
    """The differential-testing matrix: the full strategy cross-product
    at the default register file, plus every strategy at the other
    register-sweep points, plus each rival allocator at the points that
    stress it (duplicates removed, order deterministic)."""
    configs: list = []
    seen = set()

    def add(config: CompilerConfig) -> None:
        key = tuple(sorted(config.summary().items()))
        if key not in seen:
            seen.add(key)
            configs.append(config)

    for config in strategy_matrix():
        add(config)
    default = CompilerConfig()
    for c, temps in register_sweep:
        for strategy_point in (
            default,
            default.with_(save_strategy="late"),
            default.with_(restore_strategy="lazy"),
            default.with_(shuffle_strategy="naive"),
            default.with_(save_convention="callee"),
        ):
            add(strategy_point.with_(num_arg_regs=c, num_temp_regs=temps))
    # Rival allocators: the default machine, a tiny register file (which
    # forces the spilling paths), the no-register degenerate case, and
    # the callee-save convention.
    for allocator in ALLOCATOR_STRATEGIES[1:]:
        rival = default.with_(allocator=allocator)
        add(rival)
        add(rival.with_(num_arg_regs=2, num_temp_regs=1))
        add(rival.with_(num_arg_regs=0, num_temp_regs=0))
        add(rival.with_(save_convention="callee"))
    return tuple(configs)


def allocator_matrix(
    allocator: str,
    register_sweep: Sequence[Tuple[int, int]] = REGISTER_SWEEP,
) -> Tuple[CompilerConfig, ...]:
    """A focused differential matrix for one allocator strategy: the
    register sweep crossed with one variation along each of the other
    strategy axes (``repro fuzz --allocator``)."""
    if allocator not in ALLOCATOR_STRATEGIES:
        raise ValueError(
            f"unknown allocator: {allocator!r} "
            f"(choose from {', '.join(ALLOCATOR_STRATEGIES)})"
        )
    default = CompilerConfig(allocator=allocator)
    configs: list = []
    seen = set()
    for c, temps in (*register_sweep, (2, 1)):
        for strategy_point in (
            default,
            default.with_(save_strategy="late"),
            default.with_(restore_strategy="lazy"),
            default.with_(shuffle_strategy="naive"),
            default.with_(save_convention="callee"),
        ):
            config = strategy_point.with_(num_arg_regs=c, num_temp_regs=temps)
            key = tuple(sorted(config.summary().items()))
            if key not in seen:
                seen.add(key)
                configs.append(config)
    return tuple(configs)


def shuffle_matrix(
    shuffle: str,
    register_sweep: Sequence[Tuple[int, int]] = REGISTER_SWEEP,
) -> Tuple[CompilerConfig, ...]:
    """A focused differential matrix for one shuffle strategy: the
    register sweep crossed with one variation along each of the other
    strategy axes (``repro fuzz --shuffle``)."""
    if shuffle not in SHUFFLE_STRATEGIES:
        raise ValueError(
            f"unknown shuffle strategy: {shuffle!r} "
            f"(choose from {', '.join(SHUFFLE_STRATEGIES)})"
        )
    default = CompilerConfig(shuffle_strategy=shuffle)
    configs: list = []
    seen = set()
    for c, temps in (*register_sweep, (2, 1)):
        for strategy_point in (
            default,
            default.with_(save_strategy="late"),
            default.with_(restore_strategy="lazy"),
            default.with_(save_convention="callee"),
            default.with_(allocator="linearscan"),
            default.with_(allocator="graphcolor"),
        ):
            config = strategy_point.with_(num_arg_regs=c, num_temp_regs=temps)
            key = tuple(sorted(config.summary().items()))
            if key not in seen:
                seen.add(key)
                configs.append(config)
    return tuple(configs)
