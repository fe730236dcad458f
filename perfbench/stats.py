"""Latency and span arithmetic of the service benchmark.

Pure functions, no dependency on the program under test, so the rules
the benchmark reports by are unit-tested on their own
(``perfbench/test_stats.py``).

* Percentiles are nearest-rank.  A failed or refused request enters a
  latency sample as ``math.inf``, so it sorts last and counts as
  missing every latency limit.
* The *tail* of a sample is its highest percentile with at least
  :data:`TAIL_MIN_BEYOND` samples beyond it; below 20 samples no
  percentile from p50 up qualifies, and the tail falls back to p50
  (its ``beyond`` count then shows the shortfall).
* A span's *self* time is its duration minus the part of that interval
  its direct children cover.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "TAIL_MIN_BEYOND",
    "Tail",
    "percentile",
    "tail",
    "covered_length",
    "self_times",
    "finite_or_max",
]

#: the tail is the highest percentile with at least this many samples beyond
TAIL_MIN_BEYOND = 10

#: candidate tail percentiles in per-mille, highest first: p99.9, p99, ..., p50
_TAIL_GRID_PERMILLE = (999, *range(990, 499, -10))


def _rank(permille: int, n: int) -> int:
    """1-based nearest rank of the ``permille``/1000 quantile of ``n``."""
    return max(1, -(-permille * n // 1000))


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    return ordered[_rank(round(q * 10), len(ordered)) - 1]


@dataclass(frozen=True)
class Tail:
    """The tail percentile of a sample, with what it rests on."""

    percentile: float      # e.g. 99.0
    value: float
    beyond: int            # samples strictly past the percentile's rank
    n: int

    def label(self) -> str:
        return f"p{self.percentile:g} n={self.n} beyond={self.beyond}"


def tail(values: Iterable[float]) -> Tail:
    """Highest percentile of ``values`` with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("tail of an empty sample")
    for permille in _TAIL_GRID_PERMILLE:
        rank = _rank(permille, n)
        if n - rank >= TAIL_MIN_BEYOND:
            return Tail(permille / 10, ordered[rank - 1], n - rank, n)
    rank = _rank(500, n)
    return Tail(50.0, ordered[rank - 1], n - rank, n)


def covered_length(intervals: Iterable[tuple[float, float]],
                   lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[tuple[int, int | None, float, float]],
               ) -> dict[int, float]:
    """Self time of every span in ``(span_id, parent_id, start, end)`` rows.

    Only direct children are subtracted; a grandchild's time is already
    inside its parent's interval.  Overlapping children (spans of one
    parent on different threads) are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - covered_length(children.get(span_id, ()),
                                                start, end)
        for span_id, _, start, end in spans
    }


def finite_or_max(value: float) -> float:
    """JSON-safe number: an infinite latency is written as the largest float."""
    return value if math.isfinite(value) else 1.7976931348623157e308
