"""Percentiles and spreads shared by the runner, the tracer and compare."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the sample of 1-based rank ``ceil(p n)``.

    ``p`` is a fraction in (0, 1].  Empty input gives 0.0, so a layer a
    workload never touches reports zero rather than failing the run.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"percentile fraction must be in (0, 1], got {p}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(round(p * len(ordered), 9)))
    return float(ordered[rank - 1])


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)
