"""The benchmark's own arithmetic: tail rule, failure ordering, span
accounting and the judge's normalisation.

    python3 -m pytest perfledger/tests -q
"""

import math

import pytest

from perfledger import judge, stats
from perfledger.common import Op, sample_points
from perfledger.layers import per_layer
from perfledger.spans import Tracer


def test_tail_is_rank_n_minus_ten():
    samples = [float(x) for x in range(1, 101)]
    value, percentile, n = stats.tail(samples)
    assert (value, percentile, n) == (90.0, 90.0, 100)
    # Exactly ten samples lie beyond the reported one.
    assert sum(1 for s in samples if s > value) == stats.TAIL_BEYOND


def test_tail_percentile_and_count_follow_sample_size():
    value, percentile, n = stats.tail([float(x) for x in range(240)])
    assert value == 229.0 and n == 240
    assert percentile == pytest.approx(100 * 230 / 240)
    value, percentile, n = stats.tail([float(x) for x in range(11)])
    assert (value, n) == (0.0, 11)
    assert percentile == pytest.approx(100 / 11)


@pytest.mark.parametrize("n", [1, 5, 10])
def test_tail_with_too_few_samples_is_the_maximum(n):
    samples = [float(x) for x in range(n)]
    assert stats.tail(samples) == (float(n - 1), 100.0, n)


def test_failed_ops_sort_beyond_every_latency():
    samples = stats.latency_samples([0.3, None, 10_000.0, 0.1])
    assert samples[:3] == [0.1, 0.3, 10_000.0]
    assert math.isinf(samples[-1])


def test_failures_reach_the_median_and_tail():
    ok = [0.01] * 9
    assert stats.median(stats.latency_samples(ok + [None] * 8)) == 0.01
    assert math.isinf(stats.median(stats.latency_samples(ok + [None] * 10)))
    # Eleven failures among twenty: the tail can only be a failure.
    value, _, _ = stats.tail(stats.latency_samples(ok + [None] * 11))
    assert math.isinf(value)
    assert stats.reportable(value) == stats.FAILED_REPORT_S
    assert stats.reportable(0.25) == 0.25


def test_median_of_even_count_averages_the_middle():
    assert stats.median([1.0, 2.0, 3.0, 10.0]) == 2.5


def _tree():
    """One op [0, 10] with a [1, 4] > a1 [2, 3], and b [5, 9]."""
    return [
        (0, "op", 0.0, 10.0, None, 0),
        (1, "sexp.read", 1.0, 4.0, 0, 0),
        (2, "frontend.expand", 2.0, 3.0, 1, 0),
        (3, "vm.exec", 5.0, 9.0, 0, 0),
    ]


def test_self_times_subtract_children():
    assert stats.self_times(_tree()) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}


def _root_total(spans):
    return sum(end - start for _sid, _name, start, end, parent, _op in spans if parent is None)


def test_self_times_sum_to_the_root():
    spans = _tree()
    assert sum(stats.self_times(spans).values()) == _root_total(spans)


def test_layer_self_times_plus_unaccounted_cover_the_op():
    tracer = Tracer()
    tracer.spans = _tree()
    layer = per_layer(tracer, [Op("p", "run", 10.0)], {}, ["p"])
    seconds = sum(v for k, v in layer.items() if k.endswith("_s"))
    covered = seconds + layer["bench.unaccounted_share"] * _root_total(tracer.spans)
    assert covered == pytest.approx(_root_total(tracer.spans))
    assert layer["bench.unaccounted_share"] == pytest.approx(0.3)
    assert layer["vm.exec_s.p"] == layer["vm.exec_s"] == 4.0


def test_recorded_spans_nest_and_account():
    tracer = Tracer()
    tracer.op = 0
    root = tracer.open("op")
    inner = tracer.open("sexp.read")
    tracer.close(inner)
    tracer.add("alloc.liveness", *tracer.spans[inner][2:4], inner)
    tracer.close(root)
    selfs = stats.self_times(tracer.spans)
    assert tracer.spans[inner][4] == root
    assert sum(selfs.values()) == pytest.approx(_root_total(tracer.spans))
    with pytest.raises(RuntimeError):
        outer = tracer.open("op")
        tracer.open("vm.exec")
        tracer.close(outer)


def test_sample_points_spread_from_start_to_end():
    assert sample_points(4) == [0, 1, 2, 3, 4]
    assert sample_points(240) == [0, 60, 120, 180, 240]


def test_normalize_hides_opaque_objects():
    assert judge.normalize("(1 #<vmclosure f> #<interpclosure g>)") == (
        "(1 #<procedure> #<procedure>)"
    )


def test_output_compares_as_a_multiset():
    assert judge.canon_output("ab#<x>") == judge.canon_output("#<y>ba")
    assert judge.canon_output("ab") != judge.canon_output("abb")


def test_mismatch_checks_value_then_output():
    ref = {"value": "(#<procedure> 3)", "output": "12"}
    assert not judge.mismatch(ref, "(#<vmclosure> 3)", "21")
    assert judge.mismatch(ref, "(#<vmclosure> 4)", "12")
    assert judge.mismatch(ref, "(#<vmclosure> 3)", "123")


def test_hand_written_expected_value_wins():
    ref = {"value": "7", "output": ""}
    assert not judge.mismatch(ref, "8", "", expected="8")
    assert judge.mismatch(ref, "7", "", expected="8")
