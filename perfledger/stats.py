"""The benchmark's own arithmetic: latency percentiles, failure
ordering and span self times.

Kept free of any ``repro`` import so its tests run without the program
under test.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A failed op's latency.  It sorts beyond every finite latency, so a
#: failure can only push a percentile up, never hide behind a fast op.
FAILED = math.inf

#: What an infinite percentile is printed as (JSON has no infinity):
#: one hour, beyond every latency limit the benchmark could set.
FAILED_REPORT_S = 3600.0

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def latency_samples(latencies: Iterable[Optional[float]]) -> List[float]:
    """Sorted samples, with ``None`` (a failed op) as :data:`FAILED`."""
    return sorted(FAILED if x is None else x for x in latencies)


def median(samples: Sequence[float]) -> float:
    """Median of sorted *samples*; infinite when failures reach it."""
    if not samples:
        raise ValueError("median of no samples")
    n = len(samples)
    mid = n // 2
    if n % 2:
        return samples[mid]
    lo, hi = samples[mid - 1], samples[mid]
    if math.isinf(hi):
        return hi
    return (lo + hi) / 2


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least :data:`TAIL_BEYOND` samples
    beyond it, as ``(value, percentile, sample count)``.

    With *n* sorted samples that is rank ``n - 10`` (1-based), the
    ``100 * (n - 10) / n`` percentile.  With ten samples or fewer no
    percentile qualifies, and the maximum is reported as the 100th.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= TAIL_BEYOND:
        return samples[-1], 100.0, n
    rank = n - TAIL_BEYOND
    return samples[rank - 1], 100.0 * rank / n, n


def reportable(seconds: float) -> float:
    """A latency fit for JSON: infinity becomes :data:`FAILED_REPORT_S`."""
    return FAILED_REPORT_S if math.isinf(seconds) else seconds


# -- spans --------------------------------------------------------------

#: One span: ``(id, name, start, end, parent id or None, op)``.
Span = Tuple[int, str, float, float, Optional[int], object]


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus its children's durations.

    Children are laid inside their parent, so the difference is the
    time the parent spent in its own code; it is clamped at zero for
    children re-timed onto another clock (serve-mix replies).
    """
    child_sum: Dict[int, float] = {}
    for _sid, _name, start, end, parent, _op in spans:
        if parent is not None:
            child_sum[parent] = child_sum.get(parent, 0.0) + (end - start)
    return {
        sid: max(0.0, (end - start) - child_sum.get(sid, 0.0))
        for sid, _name, start, end, _parent, _op in spans
    }
