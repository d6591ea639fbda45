"""Summary statistics for benchmark samples.

A timing is reported as its median and the highest percentile that still
has at least ten samples beyond it; percentiles use the nearest-rank rule.
A throughput is total work over total time.  On a shared machine whose speed
comes in bursts, a median of a handful of calls flips between the slow and
the fast speed from run to run; the total moves smoothly with the share of
time spent in each.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10
TAIL_CANDIDATES = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)


def nearest_rank(samples, q: float) -> float:
    """Smallest sample with at least a share q of the samples at or below it."""
    if not samples:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def beyond(n: int, q: float) -> int:
    """Number of samples strictly above the nearest-rank q-percentile of n samples."""
    return n - max(1, math.ceil(q * n))


def highest_tail(n: int) -> float | None:
    """Highest candidate percentile with at least MIN_BEYOND samples beyond it."""
    for q in TAIL_CANDIDATES:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def tail(samples, q: float) -> float:
    """The q-percentile, refused when fewer than MIN_BEYOND samples lie beyond it."""
    if beyond(len(samples), q) < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {len(samples)} samples has fewer than {MIN_BEYOND} beyond it"
        )
    return nearest_rank(samples, q)


def throughput(calls) -> float:
    """Work per second over (work, seconds) pairs."""
    if not calls:
        raise ValueError("no samples")
    return sum(n for n, _ in calls) / sum(t for _, t in calls)


def median(samples) -> float:
    if not samples:
        raise ValueError("no samples")
    return statistics.median(samples)
