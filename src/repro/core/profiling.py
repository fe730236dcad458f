"""Per-phase wall-time profiling for the tuning service hot path.

End-to-end runs/s and p99 latency do not say *where* a deployment's
time goes — suggest (surrogate refit + acquisition), evaluate
(simulator executions), ingest (production-run recording), or
similarity (transfer lookup + SLO reference).  :class:`PhaseProfiler`
accumulates wall time and call counts per named phase, and reports them
as flat counters (``"<phase>.seconds"``, ``"<phase>.calls"``), the one
telemetry shape of the service stack.  An owner of other telemetry
sources puts each source's counters under a prefix with
:func:`prefixed`; the shard pool adds its shards' counters key by key.

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
from typing import Iterator, Mapping

__all__ = ["PhaseProfiler", "prefixed"]


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
            elapsed = time.perf_counter() - start
            self._seconds[name] = self._seconds.get(name, 0.0) + elapsed
            self._calls[name] = self._calls.get(name, 0) + 1

    def counters(self) -> dict[str, int | float]:
        """``"<phase>.seconds"`` and ``"<phase>.calls"`` for each phase."""
        out: dict[str, int | float] = {}
        for name in sorted(self._seconds):
            out[f"{name}.seconds"] = self._seconds[name]
            out[f"{name}.calls"] = self._calls[name]
        return out


def prefixed(prefix: str,
             counters: Mapping[str, int | float]) -> dict[str, int | float]:
    """``counters`` with every key put under ``prefix.``."""
    return {f"{prefix}.{key}": value for key, value in counters.items()}
