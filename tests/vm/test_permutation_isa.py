"""The permutation instructions (``swap``/``permi``) at every layer.

The permopt shuffle strategy is the only emitter, but the opcodes are
ordinary ISA citizens: the legacy interpreter, the predecoder, and the
trace compiler must all agree on their semantics, cost (one issue
cycle), and counter effect (``swaps`` +1 per instruction).
"""

import pytest

from repro.backend.isa import ISA_SPEC, OPCODES, PERMI_MAX, format_instruction
from repro.config import CompilerConfig, CostModel
from repro.vm.blockcompile import ACC_SWAP
from repro.vm.machine import Machine, trace_all
from repro.vm.predecode import OP_PERMI, OP_SWAP, predecode_code

from tests.vm.test_isa_level import RET, CP, RV, S0, S1, build

S2 = 5


def run_both(instructions, **kw):
    """Run hand-written instructions under the legacy loop and the fast
    loop, tiered and all-traced, and assert identical value/counters
    before returning the legacy pair."""
    legacy = Machine(build(instructions, **kw), vm_fast=False)
    lv = legacy.run()
    traced = build(instructions, **kw)
    trace_all(traced)
    for compiled in (build(instructions, **kw), traced):
        fast = Machine(compiled, vm_fast=True)
        assert fast.run() == lv
        assert legacy.counters.as_dict() == fast.counters.as_dict()
    return lv, legacy


class TestIsaSurface:
    def test_opcodes_registered(self):
        assert "swap" in OPCODES
        assert "permi" in OPCODES

    def test_spec_rows_present(self):
        ops = {entry["op"] for entry in ISA_SPEC}
        assert {"swap", "permi"} <= ops

    def test_format_instruction(self):
        names = ["ret", "cp", "rv", "s0", "s1", "s2"]
        assert format_instruction(["swap", S0, S1], names) == "swap %s0, %s1"
        assert (
            format_instruction(["permi", [S0, S1, S2]], names)
            == "permi (%s0, %s1, %s2)"
        )


class TestSwapSemantics:
    def test_swap_exchanges_registers(self):
        value, m = run_both([
            ("li", S0, 1),
            ("li", S1, 2),
            ("swap", S0, S1),
            ("mov", RV, S0),
            ("return",),
        ])
        assert value == 2
        assert m.counters.swaps == 1

    def test_swap_other_direction(self):
        value, _ = run_both([
            ("li", S0, 1),
            ("li", S1, 2),
            ("swap", S0, S1),
            ("mov", RV, S1),
            ("return",),
        ])
        assert value == 1

    def test_swap_costs_one_cycle(self):
        base = [("li", S0, 1), ("li", S1, 2), ("mov", RV, S0), ("return",)]
        swapped = [
            ("li", S0, 1),
            ("li", S1, 2),
            ("swap", S0, S1),
            ("mov", RV, S0),
            ("return",),
        ]
        _, a = run_both(base)
        _, b = run_both(swapped)
        assert b.counters.cycles == a.counters.cycles + 1
        assert b.counters.instructions == a.counters.instructions + 1


class TestPermiSemantics:
    def test_left_rotation(self):
        # permi (r0, r1, r2): r0 <- old r1, r1 <- old r2, r2 <- old r0.
        for out_reg, expected in ((S0, 2), (S1, 3), (S2, 1)):
            value, m = run_both([
                ("li", S0, 1),
                ("li", S1, 2),
                ("li", S2, 3),
                ("permi", [S0, S1, S2]),
                ("mov", RV, out_reg),
                ("return",),
            ])
            assert value == expected
            assert m.counters.swaps == 1

    def test_two_element_permi_is_a_swap(self):
        value, _ = run_both([
            ("li", S0, 1),
            ("li", S1, 2),
            ("permi", [S0, S1]),
            ("mov", RV, S0),
            ("return",),
        ])
        assert value == 2

    def test_permi_costs_one_cycle(self):
        base = [
            ("li", S0, 1),
            ("li", S1, 2),
            ("li", S2, 3),
            ("mov", RV, S0),
            ("return",),
        ]
        rotated = [
            ("li", S0, 1),
            ("li", S1, 2),
            ("li", S2, 3),
            ("permi", [S0, S1, S2]),
            ("mov", RV, S0),
            ("return",),
        ]
        _, a = run_both(base)
        _, b = run_both(rotated)
        assert b.counters.cycles == a.counters.cycles + 1

    def test_chunked_rotation_composes(self):
        # A 5-cycle decomposed the way codegen chunks it (PERMI_MAX wide,
        # overlapping by one) must equal the full left rotation.
        regs = [S0, S1, S2, 6, 7]
        prog = [("li", r, i + 1) for i, r in enumerate(regs)]
        i = 0
        while i < len(regs) - 1:
            group = regs[i : i + PERMI_MAX]
            if len(group) == 2:
                prog.append(("swap", group[0], group[1]))
            else:
                prog.append(("permi", list(group)))
            i += len(group) - 1
        prog += [("mov", RV, S0), ("return",)]
        value, m = run_both(prog)
        # Full rotation: S0 gets old regs[1]'s value.
        assert value == 2
        assert m.counters.swaps == 2


class TestStallInteraction:
    def test_swap_waits_for_pending_load(self):
        cfg_fast = CompilerConfig(cost_model=CostModel(load_latency=1))
        cfg_slow = CompilerConfig(cost_model=CostModel(load_latency=10))
        prog = [
            ("li", S0, 7),
            ("st", 0, S0, "spill"),
            ("li", S0, 0),
            ("ld", S0, 0, "spill"),
            ("li", S1, 1),
            ("swap", S0, S1),  # must see the loaded value
            ("mov", RV, S1),
            ("return",),
        ]
        v_fast, a = run_both(prog, config=cfg_fast)
        v_slow, b = run_both(prog, config=cfg_slow)
        assert v_fast == v_slow == 7
        assert b.counters.cycles > a.counters.cycles


class TestPredecode:
    def test_int_opcodes(self):
        compiled = build([
            ("swap", S0, S1),
            ("permi", [S0, S1, S2]),
            ("return",),
        ])
        coded = predecode_code(compiled.entry)
        assert coded[0] == (OP_SWAP, S0, S1)
        assert coded[1] == (OP_PERMI, (S0, S1, S2))

    def test_acc_slot_distinct(self):
        # ACC_SWAP must be its own accumulator slot, not aliasing moves.
        from repro.vm import blockcompile

        assert ACC_SWAP != blockcompile.ACC_MOV


class TestBlockcompileFacts:
    def test_swap_after_closure_bind_stays_correct(self):
        """Permuting a register that holds a known closure must not leave
        the trace compiler believing the closure is still there (the
        proven-callee fact table is permuted along with the values)."""
        src = """
        (define (apply-twice f x) (f (f x)))
        (define (inc n) (+ n 1))
        (define (flip f x n)
          (if (= n 0) (apply-twice f x) (flip f x (- n 1))))
        (flip inc 5 3)
        """
        from repro.pipeline import compile_source, run_compiled

        for strategy in ("greedy", "permopt"):
            cfg = CompilerConfig(shuffle_strategy=strategy)
            compiled = compile_source(src, cfg)
            slow = run_compiled(compiled, vm_fast=False)
            tiered = run_compiled(compiled, vm_fast=True)
            trace_all(compiled)
            traced = run_compiled(compiled, vm_fast=True)
            for fast in (tiered, traced):
                assert slow.value == fast.value == 7
                assert slow.counters.as_dict() == fast.counters.as_dict()
