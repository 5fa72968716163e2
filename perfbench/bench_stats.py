"""Arithmetic of the benchmark: percentiles, failure ratios, span self time.

Pure standard library, so the tests of this module run anywhere.
"""

from __future__ import annotations

import math

# Percentile levels tried for the ``.tail`` figure, highest first.
TAIL_LEVELS = (99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


def percentile(values, level: float) -> float:
    """Linearly interpolated percentile (numpy's default rule)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * level / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(level, value, n)``. A level qualifies when
    ``floor(n * (1 - level / 100)) >= 10``. When no level qualifies
    (fewer than 20 samples) the median is returned with level 50, and
    ``n`` shows that the tail is unresolved.
    """
    n = len(values)
    for level in TAIL_LEVELS:
        if math.floor(n * (1.0 - level / 100.0) + 1e-9) >= TAIL_MIN_BEYOND:
            return level, percentile(values, level), n
    return 50.0, median(values), n


def fail_ratio(attempted: int, failed: int) -> float:
    """Operations that raised or exited nonzero, over operations attempted."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted


def span_table(spans):
    """Per-name calls, total and self time from a list of spans.

    Each span is ``(name, start, end, parent)`` with ``parent`` the index
    of the enclosing span in the same list, or -1 for a top-level span.
    Self time is the span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.

    Returns ``(table, top_level_s)`` where ``table[name]`` is
    ``[calls, total_s, self_s]`` and ``top_level_s`` is the summed
    duration of the top-level spans.
    """
    child_s = [0.0] * len(spans)
    top_level_s = 0.0
    for name, start, end, parent in spans:
        if parent < 0:
            top_level_s += end - start
        else:
            child_s[parent] += end - start
    table: dict[str, list] = {}
    for (name, start, end, _), children in zip(spans, child_s):
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - children
    return table, top_level_s


def pooled_mean_var(groups) -> tuple[int, float, float]:
    """Combine ``(n, mean, population variance)`` groups into one."""
    total = sum(n for n, _, _ in groups)
    if total < 1:
        raise ValueError("no samples to pool")
    mean = sum(n * m for n, m, _ in groups) / total
    var = sum(n * (v + (m - mean) ** 2) for n, m, v in groups) / total
    return total, mean, var


def within(value: float, lo: float, hi: float, margin: float) -> bool:
    """True when ``value`` lies in ``[lo - margin, hi + margin]``."""
    return lo - margin <= value <= hi + margin
