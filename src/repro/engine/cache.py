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

import hashlib
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Hashable

__all__ = ["config_fingerprint", "CacheStats", "EvaluationCache"]


def config_fingerprint(config: Mapping[str, Any]) -> str:
    """Stable digest of a configuration's items.

    Python's built-in ``hash`` is salted per process (``PYTHONHASHSEED``),
    so it cannot key a cache, or seed a candidate, that must agree across
    runs.  This digest is derived from the sorted ``repr`` of the
    items, which is deterministic for the str/int/float/bool values
    configurations hold.
    """
    cached = getattr(config, "_fingerprint", None)
    if cached is not None:
        return cached
    # Configuration backs its Mapping interface with a plain dict;
    # hashing that directly skips the abc ItemsView iteration (the items
    # and therefore the digest are identical either way).
    values = getattr(config, "_values", None)
    items = values.items() if values is not None else config.items()
    payload = repr(sorted(items)).encode()
    digest = hashlib.blake2b(payload, digest_size=16).hexdigest()
    try:
        # Configuration reserves a slot for exactly this memo; other
        # mappings (plain dicts, test doubles) simply skip it.
        config._fingerprint = digest  # type: ignore[attr-defined]
    except (AttributeError, TypeError):
        pass
    return digest


@dataclass
class CacheStats:
    """Hit/miss/latency counters for one :class:`EvaluationCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: wall-clock seconds spent computing the entries that missed
    miss_latency_s: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def mean_miss_latency_s(self) -> float:
        return self.miss_latency_s / self.misses if self.misses else 0.0

    @property
    def saved_latency_s(self) -> float:
        """Estimated wall-clock saved by hits (at the mean miss latency)."""
        return self.hits * self.mean_miss_latency_s

    def snapshot(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "miss_latency_s": self.miss_latency_s,
            "saved_latency_s": self.saved_latency_s,
        }


@dataclass
class EvaluationCache:
    """Bounded LRU map from evaluation identity to execution result."""

    capacity: int = 4096
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: OrderedDict = field(default_factory=OrderedDict, repr=False)

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable):
        """Return the cached value or ``None``, updating counters/recency."""
        try:
            value = self._entries[key]
        except KeyError:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: Hashable, value, latency_s: float = 0.0) -> None:
        """Insert ``value``, recording how long the miss took to compute."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        self.stats.miss_latency_s += latency_s
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
