"""Order statistics and interval arithmetic used by the benchmark.

Kept free of I/O and of ``repro`` so the unit tests can pin them down.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), interpolating linearly between
    the two nearest ranks (the method numpy calls ``linear``)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the ``q``-th
    percentile's rank -- at least ten are needed to report it."""
    return count - math.ceil(count * q / 100.0)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the quartile spread as a share of the median,
    with the quartiles of ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        only = float(values[0]) if values else float("nan")
        return {"median": only, "q1": only, "q3": only, "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def union_length(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    total = 0
    end = None
    start = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if end is None or lo > end:
            if end is not None:
                total += end - start
            start, end = lo, hi
        else:
            end = max(end, hi)
    if end is not None:
        total += end - start
    return total


def self_time(span: Tuple[int, int], children: Iterable[Tuple[int, int]]) -> int:
    """A span's duration minus the part of it its children cover.

    Children are clipped to the span, and overlapping children (a child
    on another thread) are counted once.
    """
    lo, hi = span
    clipped: List[Tuple[int, int]] = [
        (max(lo, c_lo), min(hi, c_hi)) for c_lo, c_hi in children
    ]
    return (hi - lo) - union_length(clipped)
