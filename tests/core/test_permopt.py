"""The permopt shuffle strategy: Buchwald–Mohr–Rutter-style
decomposition of the register-transfer graph into copies plus
permutations.

Plan-level invariants: pure register cycles become ``permute`` steps
(no temporary, no eviction); everything else — acyclic transfers and
cycles the permutation instructions cannot express — falls back to
exactly the greedy schedule, so permopt is never worse than greedy.
"""

from repro.astnodes import Call, walk
from repro.config import CompilerConfig
from repro.fuzz.genprog import generate_program
from repro.pipeline import compile_source, run_compiled, run_source
from repro.sexp.writer import write_datum
from repro.vm.machine import trace_all

SWAP_SRC = (
    "(define (f a b) (- a b))"
    "(define (g x y) (f y x))"
    "(g 10 4)"
)

ROTATE_SRC = (
    "(define (f a b c) (cons a (cons b (cons c '()))))"
    "(define (g x y z) (f z x y))"
    "(g 1 2 3)"
)

FIVE_CYCLE_SRC = (
    "(define (f a b c d e)"
    "  (+ a (+ (* 2 b) (+ (* 3 c) (+ (* 5 d) (* 7 e))))))"
    "(define (g a b c d e) (f b c d e a))"
    "(g 1 2 3 4 5)"
)

ACYCLIC_SRC = (
    "(define (f a b c) (+ a (+ b c)))"
    "(define (g x y z) (f (+ x y) (+ y 1) (+ y z)))"
    "(g 1 2 3)"
)


def plans_for(text, name, **cfg):
    prog = compile_source(text, CompilerConfig(**cfg), prelude=False)
    code = next(c for c in prog.codes if c.name == name)
    return [
        n.shuffle_plan for n in walk(code.body) if isinstance(n, Call)
    ]


def instrs_for(text, name, **cfg):
    prog = compile_source(text, CompilerConfig(**cfg), prelude=False)
    code = next(c for c in prog.codes if c.name == name)
    return code.instructions


class TestPureCycles:
    def test_swap_cycle_has_no_eviction(self):
        plan = plans_for(SWAP_SRC, "g", shuffle_strategy="permopt")[0]
        assert plan.had_cycle
        assert plan.evictions == 0
        assert plan.permutations == 1
        assert any(kind == "permute" for kind, _ in plan.steps)

    def test_swap_cycle_emits_swap_instruction(self):
        ops = [i[0] for i in instrs_for(SWAP_SRC, "g", shuffle_strategy="permopt")]
        assert "swap" in ops
        greedy_ops = [i[0] for i in instrs_for(SWAP_SRC, "g")]
        assert "swap" not in greedy_ops

    def test_swap_value_correct(self):
        r = run_source(
            SWAP_SRC,
            CompilerConfig(shuffle_strategy="permopt"),
            prelude=False,
            debug=True,
        )
        assert r.value == -6

    def test_rotation_emits_permi(self):
        plan = plans_for(ROTATE_SRC, "g", shuffle_strategy="permopt")[0]
        assert plan.evictions == 0
        assert plan.permutations == 1
        ops = [
            i[0] for i in instrs_for(ROTATE_SRC, "g", shuffle_strategy="permopt")
        ]
        assert "permi" in ops

    def test_rotation_value_correct(self):
        r = run_source(
            ROTATE_SRC,
            CompilerConfig(shuffle_strategy="permopt"),
            prelude=False,
            debug=True,
        )
        assert write_datum(r.value) == "(3 1 2)"

    def test_long_cycle_is_chunked(self):
        """A 5-cycle exceeds PERMI_MAX, so codegen emits overlapping
        rotations (permi + swap) that compose to the full permutation."""
        plan = plans_for(FIVE_CYCLE_SRC, "g", shuffle_strategy="permopt")[0]
        assert plan.had_cycle
        assert plan.evictions == 0
        instrs = instrs_for(FIVE_CYCLE_SRC, "g", shuffle_strategy="permopt")
        ops = [i[0] for i in instrs]
        assert "permi" in ops and "swap" in ops
        for strategy in ("greedy", "permopt"):
            r = run_source(
                FIVE_CYCLE_SRC,
                CompilerConfig(shuffle_strategy=strategy),
                prelude=False,
                debug=True,
            )
            # f(b c d e a) with (a..e) = (1..5):
            # 2 + 2*3 + 3*4 + 5*5 + 7*1 = 52
            assert r.value == 52


class TestGreedyFallback:
    def test_acyclic_plan_matches_greedy(self):
        greedy = plans_for(ACYCLIC_SRC, "g")[0]
        permopt = plans_for(ACYCLIC_SRC, "g", shuffle_strategy="permopt")[0]
        assert permopt.evictions == greedy.evictions == 0
        assert permopt.permutations == 0
        assert [k for k, _ in permopt.steps] == [k for k, _ in greedy.steps]

    def test_never_more_evictions_than_greedy(self):
        for src, proc in (
            (SWAP_SRC, "g"),
            (ROTATE_SRC, "g"),
            (FIVE_CYCLE_SRC, "g"),
            (ACYCLIC_SRC, "g"),
        ):
            for regs in (2, 3, 6):
                kw = {"num_arg_regs": regs, "num_temp_regs": regs}
                greedy = plans_for(src, proc, **kw)
                permopt = plans_for(src, proc, shuffle_strategy="permopt", **kw)
                assert len(greedy) == len(permopt)
                for g, p in zip(greedy, permopt):
                    assert p.evictions <= g.evictions


class TestDifferentialEquivalence:
    CONFIGS = (
        {},
        {"num_arg_regs": 1, "num_temp_regs": 2},
        {"num_arg_regs": 2, "num_temp_regs": 1},
        {"save_strategy": "late"},
        {"restore_strategy": "lazy"},
        {"save_convention": "callee"},
        {"allocator": "linearscan"},
        {"allocator": "graphcolor"},
    )

    def _signature(self, compiled, vm_fast):
        result = run_compiled(compiled, vm_fast=vm_fast)
        return write_datum(result.value), result.output

    def test_fuzz_programs_agree_across_strategies_and_loops(self):
        """permopt must be observably identical to greedy/optimal on
        value and output for every config point, and bit-identical to
        itself across the legacy loop and the fast loop, tiered and
        all-traced."""
        for index in range(12):
            program = generate_program(9001, index)
            for kw in self.CONFIGS:
                runs = {}
                for strategy in ("greedy", "optimal", "permopt"):
                    cfg = CompilerConfig(shuffle_strategy=strategy, **kw)
                    compiled = compile_source(program.source, cfg)
                    slow = run_compiled(compiled, vm_fast=False)
                    tiered = run_compiled(compiled, vm_fast=True)
                    trace_all(compiled)
                    traced = run_compiled(compiled, vm_fast=True)
                    for fast in (tiered, traced):
                        assert (
                            slow.counters.as_dict() == fast.counters.as_dict()
                        ), (index, kw, strategy)
                    runs[strategy] = (
                        write_datum(slow.value),
                        slow.output,
                    )
                assert runs["greedy"] == runs["optimal"] == runs["permopt"], (
                    index,
                    kw,
                )

    def test_permopt_cycles_never_exceed_greedy_on_rotation(self):
        compiled_g = compile_source(
            FIVE_CYCLE_SRC, CompilerConfig(), prelude=False
        )
        compiled_p = compile_source(
            FIVE_CYCLE_SRC,
            CompilerConfig(shuffle_strategy="permopt"),
            prelude=False,
        )
        greedy = run_compiled(compiled_g)
        permopt = run_compiled(compiled_p)
        assert permopt.value == greedy.value
        assert permopt.counters.cycles <= greedy.counters.cycles
