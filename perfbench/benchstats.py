"""Order statistics and span arithmetic for the perfbench harness.

Everything here is pure Python over plain lists so the harness and its
tests need nothing beyond the standard library.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.  A percentile
#: with fewer samples above it is one or two outliers, not a tail.
TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) exactly as ``statistics.quantiles(values, n=4)``.

    A single sample has no spread, so all three quartiles are that sample.
    """
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def tail_percentile(values: Sequence[float], beyond: int = TAIL_SAMPLES
                    ) -> Optional[Tuple[float, float]]:
    """The highest percentile that still has ``beyond`` samples above it.

    Returns ``(percentile, value)``: the order statistic with exactly
    ``beyond`` larger-ranked samples, and the share of the sample at or
    below it (in percent).  With ``beyond`` or fewer samples there is no
    such percentile and the result is ``None``.
    """
    ordered = sorted(values)
    rank = len(ordered) - beyond
    if rank < 1:
        return None
    return (100.0 * rank / len(ordered), ordered[rank - 1])


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` are dicts with ``id``, ``parent`` (an id or ``None``),
    ``start`` and ``end``.  Child intervals are clipped to the parent's,
    and overlapping children (threads) count once, so self time is never
    negative.
    """
    children: Dict[str, List[Tuple[float, float]]] = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span.get("parent"))
        if parent is None:
            continue
        start = max(span["start"], parent["start"])
        end = min(span["end"], parent["end"])
        if end > start:
            children.setdefault(parent["id"], []).append((start, end))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered_length(children.get(span["id"], ()))
        for span in spans
    }
