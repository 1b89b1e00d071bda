"""Summary statistics of the benchmark: percentiles, tails, lateness."""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def _rank(pct: float, count: int) -> int:
    """1-based nearest rank of *pct* among *count* samples (rounded
    first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(pct / 100.0 * count, 9)))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    *pct* percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(pct, len(ordered)) - 1]


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile of :data:`TAIL_LADDER` that leaves at
    least :data:`TAIL_MIN_BEYOND` of *count* samples beyond it."""
    for pct in TAIL_LADDER:
        if count - _rank(pct, count) >= TAIL_MIN_BEYOND:
            return pct
    return None


def tail(values: Sequence[float]) -> Tuple[Optional[float], Optional[float], int]:
    """``(value, percentile, beyond)`` of the tail of *values*."""
    pct = tail_percentile(len(values))
    if pct is None:
        return None, None, 0
    return percentile(values, pct), pct, len(values) - _rank(pct, len(values))


def lateness_ms(due: Sequence[float], sent: Sequence[float]) -> List[float]:
    """How late each open-loop send was against its schedule, in ms.

    *due* and *sent* are absolute times in seconds on the same clock; a
    send never counts as early (a negative lag is clamped to 0).
    """
    if len(due) != len(sent):
        raise ValueError("due and sent differ in length")
    return [max(0.0, (s - d) * 1000.0) for d, s in zip(due, sent)]


def latency_ms(start_ns: int, received_ns: int) -> float:
    """Latency in ms from *start_ns* to *received_ns*.

    In the open loop *start_ns* is the request's scheduled send time, so
    a stall of the generator or the server counts against every later
    request; in a closed loop it is the actual send time.
    """
    return (received_ns - start_ns) / 1e6
