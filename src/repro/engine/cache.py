"""Memoization cache for simulated executions.

The provider-side tuning service re-evaluates the same configurations
constantly: population tuners re-visit elites every generation, repeated
tenants submit the same workloads, and re-tuning sessions re-probe
configurations the service has already paid for.  An LRU cache keyed on
the *full* evaluation identity — workload name and job-list content,
input size, cluster, frozen configuration, interference environment,
and noise seed — makes each of those repeats free while never
conflating two genuinely different runs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

__all__ = ["EvaluationCache"]


class EvaluationCache:
    """Bounded LRU map from evaluation identity to execution result.

    It counts only its evictions; the engine counts hits and misses,
    once per answered batch.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.evictions = 0
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable):
        """Return the cached value or ``None``, refreshing its recency."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value) -> None:
        """Insert ``value``, evicting the least recently used entries."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
