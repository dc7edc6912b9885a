"""The warm-start measurement behind ``repro bench --warm-start``.

Wall-clock assertions are kept deliberately loose — this runs on
shared single-core CI runners — but the *ordering* the start modes
exist to create must hold: loading the ISA from the compile cache is
cheaper than (or at worst comparable to) a fully cold start.
"""

from repro.benchsuite import vmbench

#: Generous multiplier absorbing scheduler noise on shared runners.
SLACK = 1.5


def test_warm_start_orders_the_tiers():
    doc = vmbench.collect_warm_start(names=("tak", "deriv"), repeats=3)
    assert sorted(doc["benchmarks"]) == ["deriv", "tak"]
    totals = doc["totals"]
    assert sorted(totals) == ["cold_s", "isa_ready_s"]
    for key in ("cold_s", "isa_ready_s"):
        assert totals[key] > 0.0
    # An ISA hit skips the compiler.
    assert totals["isa_ready_s"] <= totals["cold_s"] * SLACK


def test_warm_start_doc_is_baseline_compatible():
    """A BENCH_vm.json with a warm_start section must still pass the
    comparison gate — the section is informational history only."""
    doc = vmbench.collect_baseline(names=["tak"], timing_names=())
    doc["warm_start"] = {"totals": {"cold_s": 1.0}}
    assert vmbench.compare_baseline(doc, doc) == []
