"""Per-phase wall-time profiling for the tuning service hot path.

PR 7's service bench reports end-to-end runs/s and p99 latency, but
neither says *where* a deployment's time goes — suggest (surrogate
refit + acquisition), evaluate (simulator executions), ingest
(production-run recording), or similarity (transfer lookup + SLO
reference).  :class:`PhaseProfiler` accumulates wall time and call
counts per named phase so the service surfaces that split in
``counters()`` and ``BENCH_service.json`` — the observability that
justified the suggest-path work and guards it against regressing.

Timing uses ``time.perf_counter`` (monotonic, telemetry-grade — the
wall-clock functions are banned from the deterministic scopes by
staticcheck RS002, perf_counter explicitly is not).  Accumulation is a
dict update, cheap enough to leave on in production.  A profiler takes
no lock: it belongs to one service, and a shard pool's services all
record from its one runner thread, one phase at a time — so a pool's
phase seconds sum to at most the wall time they were spent in.  Read
a pool's profilers after the pool's ``close()``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

__all__ = ["PhaseProfiler"]

#: canonical phase names the service stack records
PHASES = ("suggest", "evaluate", "ingest", "similarity")


class PhaseProfiler:
    """Accumulator of per-phase wall time and call counts."""

    def __init__(self) -> None:
        self._seconds: dict[str, float] = {}
        self._calls: dict[str, int] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time one block under ``name`` (exceptions still charged)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds
        self._calls[name] = self._calls.get(name, 0) + calls

    def merge(self, other: "PhaseProfiler") -> None:
        """Fold another profiler's totals into this one (aggregation)."""
        for name, seconds, calls in other.rows():
            self.add(name, seconds, calls)

    def rows(self) -> list[tuple[str, float, int]]:
        return [
            (name, self._seconds[name], self._calls[name])
            for name in sorted(self._seconds)
        ]

    def snapshot(self) -> dict[str, dict[str, float]]:
        """``{phase: {"seconds": total, "calls": n, "mean_ms": per-call}}``."""
        out: dict[str, dict[str, float]] = {}
        for name, seconds, calls in self.rows():
            out[name] = {
                "seconds": seconds,
                "calls": calls,
                "mean_ms": 1e3 * seconds / calls if calls else 0.0,
            }
        return out

    def total_seconds(self) -> float:
        return sum(self._seconds.values())
