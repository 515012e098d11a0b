"""Order statistics for the benchmark's latency metrics.

Percentiles use the nearest-rank rule over integer arithmetic, so the
number of samples "beyond" a percentile is exact: with ``n`` samples,
the p-th percentile is the ``ceil(p * n / 100)``-th smallest value and
``n - ceil(p * n / 100)`` samples lie beyond it.
"""

from __future__ import annotations

import statistics
from typing import Dict, Hashable, List, Sequence

#: A reported percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10


def rank(n: int, pct: int) -> int:
    """1-based nearest rank of the ``pct``-th percentile of ``n`` samples."""
    return max(1, (pct * n + 99) // 100)


def beyond(n: int, pct: int) -> int:
    """How many of ``n`` samples lie beyond the ``pct``-th percentile."""
    return n - rank(n, pct) if n else 0


def percentile(values: Sequence[float], pct: int) -> float:
    """Nearest-rank ``pct``-th percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[rank(len(ordered), pct) - 1]


def median(values: Sequence[float]) -> float:
    """The median, or 0.0 for no samples."""
    return statistics.median(values) if values else 0.0



def class_median(classes: Dict[Hashable, List[float]], pct: int) -> float:
    """Median latency of the class that holds a request mix's
    ``pct``-th percentile, classes ordered by their medians.

    In a mix of several request classes the true median can fall on
    one class's sparse tail (the slowest of the requests that make up
    just over half the mix), where it moves with a handful of samples
    from run to run; the median of that class does not.
    """
    return percentile([median(values) for values in classes.values()
                       for _ in values], pct)
