"""Oracle tests: clean programs pass the whole matrix, broken compilers
are caught, and an injected shuffle bug is found and shrunk small."""

import pytest

import repro.core.shuffle as shuffle
import repro.serve.cache as serve_cache
from repro.config import CompilerConfig, full_matrix
from repro.fuzz.genprog import generate_program
from repro.fuzz.oracle import InvalidProgram, check_program, interp_reference
from repro.fuzz.shrink import program_size, shrink_program
from repro.pipeline import compile_source

TAK = (
    "(define (tak x y z)\n"
    "  (if (not (< y x)) z\n"
    "      (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))\n"
    "(tak 6 3 1)\n"
)


class TestCleanPrograms:
    def test_tak_whole_matrix(self):
        result = check_program(TAK)
        assert result.ok, [d.describe() for d in result.divergences]
        assert result.configs_checked == len(full_matrix())
        assert result.expected_value == "3"

    def test_generated_program_whole_matrix(self):
        result = check_program(generate_program(42, 0).source)
        assert result.ok, [d.describe() for d in result.divergences]

    def test_procedure_values_are_not_divergences(self):
        # Interpreter and VM print closures differently; that is a
        # representation detail, not a semantic divergence.
        result = check_program("(define (mainf a) (lambda (k) 0))\n(mainf 0)")
        assert result.ok, [d.describe() for d in result.divergences]


class TestRegressions:
    def test_late_lazy_callee_duplicate_save(self):
        # Found by this fuzzer: with save=late + restore=lazy + callee
        # convention, redundant-save elimination was skipped, so a
        # duplicate lazy-placed save of cp stored a clobbered register
        # (restoreplace.place_restores).  Minimized reproducer.
        source = (
            "(define (f x) 0)\n"
            "(define (mainf a) (- (if (f 0) (f 0) #f) (f 0)))\n"
            "(mainf 0)\n"
        )
        result = check_program(source)
        assert result.ok, [d.describe() for d in result.divergences]

    def test_callee_scratch_clobber(self):
        # Found by this fuzzer: the code generator's scratch pool
        # included the t registers, which are callee-save under the
        # callee convention — a scratch write inside a callee clobbered
        # the caller's variable without any callee region protecting it
        # (codegen._CodeGenerator.__init__).  t63 lives in t0 across
        # the inner call; the callee used t0 for the (- -18 0) temp.
        source = (
            "(define (mainf a b c)"
            " (let ((t63 5))"
            " (+ ((lambda (k) (if (and (not (< (- -18 0) 0))) 0 0)) 0) t63)))\n"
            "(mainf 0 0 0)\n"
        )
        result = check_program(source)
        assert result.ok, [d.describe() for d in result.divergences]

    def test_callee_shuffle_evict_clobber(self):
        # Found by this fuzzer: the shuffle planner's free-register list
        # offered callee-save t registers as eviction temporaries, so a
        # naive-shuffle eviction parked a closure in a register the
        # caller expected preserved (shuffle._free_registers).  The
        # 8-argument call forces stack arguments and evictions.
        source = (
            "(define (h1 fuel p1a p1b p1c p1d p1e p1f p1g) 0)\n"
            "(define (h2 fuel p2a p2b p2c p2d)"
            " ((lambda (k) (h1 0 0 0 0 0 p2d 0 0)) 0))\n"
            "(define (mainf a b c) (let ((t3 0)) (if (< (h2 0 0 0 0 0) 0) 0 t3)))\n"
            "(mainf 0 0 0)\n"
        )
        result = check_program(source)
        assert result.ok, [d.describe() for d in result.divergences]

    def test_greedy_direct_complex_vs_stack_arg(self):
        # Found by this fuzzer: the greedy planner's direct-complex
        # candidate check only consulted simple *register* operands,
        # but simple stack arguments evaluate after the direct
        # placement too — a stale variable they reference reloads
        # into (and so reads) the chosen register
        # (shuffle.plan_shuffle).  h1 takes 9 arguments so seed-b
        # becomes a stack argument evaluated after the direct (h2 ...)
        # placement.
        source = (
            "(define (h1 fuel p1a p1b p1c p1d p1e p1f p1g p1h) p1a)\n"
            "(define (h2 fuel p2a p2b) 0)\n"
            "(define (mainf seed-a seed-b seed-c)"
            " (h1 0 (h2 0 0 0) 0 0 0 (let ((s25 seed-b)) 0) 0 0 0))\n"
            "(mainf 0 1 0)\n"
        )
        result = check_program(source)
        assert result.ok, [d.describe() for d in result.divergences]

    def test_conduit_clobbers_nested_operand_read(self):
        # Found by this fuzzer: gen_primcall's dst-conduit check only
        # looked at top-level Ref siblings, so with scratch registers
        # tight it staged (+ p0b 0) through the destination register —
        # the home of p0c, which the *nested* (- 0 p0c) still had to
        # read (codegen.gen_primcall dst_conduit_ok).
        source = (
            "(define (h0 fuel p0a p0b p0c)"
            " (if (<= fuel 0) 0"
            " (+ 0 (- p0c (h0 (- fuel 1) 0 p0c (+ (+ p0b 0) (- 0 p0c)))))))\n"
            "(define (mainf seed-a seed-b seed-c) (h0 2 0 0 1))\n"
            "(mainf 0 0 0)\n"
        )
        result = check_program(source)
        assert result.ok, [d.describe() for d in result.divergences]
        assert result.expected_value == "2"

    def test_scratch_exhaustion_reaches_frame_temp_fallback(self):
        # Found by this fuzzer: with the whole scratch pool consumed
        # (two enclosing primcalls + naive-shuffle eviction
        # temporaries) and the dst conduit unsafe, operand staging
        # raised "scratch register pool exhausted" instead of routing
        # through rv into a frame temp (codegen.gen_primcall).
        source = (
            "(define (h0 fuel p0a p0b p0c)"
            " (+ 0 (- 0 (h0 0 0 p0a (+ (+ p0b 0) (- 0 p0c))))))\n"
            "(define (mainf seed-a seed-b seed-c) 0)\n"
            "(mainf 0 0 0)\n"
        )
        result = check_program(source)
        assert result.ok, [d.describe() for d in result.divergences]


class TestInvalidPrograms:
    def test_unbound_variable(self):
        with pytest.raises(InvalidProgram):
            check_program("(undefined-variable-xyz)")

    def test_unreadable(self):
        with pytest.raises(InvalidProgram):
            check_program("(+ 1 2")

    def test_interp_step_budget(self):
        with pytest.raises(InvalidProgram, match="reference interpreter failed"):
            check_program(
                "(define (loop n) (loop (+ n 1)))\n(loop 0)",
                interp_steps=10_000,
            )

    def test_interp_reference_value(self):
        value, output = interp_reference('(begin (display "hi") (+ 1 2))')
        assert value == "3"
        assert output == "hi"


def _buggy_greedy(plan, simple, spill_all):
    """_schedule_greedy with the cycle-break flipped: instead of evicting
    the victim into a temporary, place it directly — clobbering a
    register another operand still reads."""
    edges = shuffle.dependency_edges(simple)
    plan.had_cycle = shuffle._graph_cyclic(set(range(len(simple))), edges)
    remaining = list(range(len(simple)))
    while remaining:
        placed = None
        for j in remaining:
            if not any(i != j and (i, j) in edges for i in remaining):
                placed = j
                break
        if placed is None:
            placed = max(remaining)  # the injected bug
        plan.steps.append(("direct", simple[placed]))
        remaining.remove(placed)


class TestReloadedMode:
    def test_diverging_reload_is_reported_as_reloaded(self, monkeypatch):
        # A disk hit runs the program as deserialized from the cache;
        # a serializer that loses the program must not go unnoticed.
        monkeypatch.setattr(
            serve_cache, "deserialize_compiled",
            lambda data: compile_source("(+ 1 1)"),
        )
        result = check_program(TAK, configs=[CompilerConfig()])
        (divergence,) = result.divergences
        assert divergence.kind == "vm-fast"
        assert divergence.expected == "value 3"
        assert divergence.got == "reloaded: value 2"

    def test_faithful_reload_agrees(self):
        result = check_program(TAK, configs=[CompilerConfig()])
        assert result.ok, [d.describe() for d in result.divergences]


class TestInjectedBug:
    def test_shuffle_bug_caught_and_shrunk(self, monkeypatch):
        monkeypatch.setattr(shuffle, "_schedule_greedy", _buggy_greedy)
        configs = [
            CompilerConfig(num_arg_regs=2, num_temp_regs=1),
            CompilerConfig(),
        ]

        def still_fails(candidate: str) -> bool:
            try:
                return not check_program(candidate, configs=configs).ok
            except InvalidProgram:
                return False

        failing = None
        for index in range(30):
            source = generate_program(42, index).source
            if still_fails(source):
                failing = source
                break
        assert failing is not None, "injected shuffle bug went undetected"

        shrunk = shrink_program(failing, still_fails)
        assert still_fails(shrunk)
        # The bound tracks the generator stream: a cyclic self-call
        # needs its full parameter list to keep the cycle alive, so the
        # local minimum is ~30 nodes for a 5-parameter helper.
        assert program_size(shrunk) <= 30

    def test_matrix_clean_again_without_injection(self):
        # The same seeds pass once the injection is gone (monkeypatch
        # reverted): the failure above really was the injected bug.
        configs = [CompilerConfig(num_arg_regs=2, num_temp_regs=1)]
        result = check_program(generate_program(42, 0).source, configs=configs)
        assert result.ok, [d.describe() for d in result.divergences]
