"""Vectorized signature index over the append-only history log.

The provider-scale problem: every transfer lookup used to re-scan the
entire history log *per workload key* — ``HistoryStore.mean_signature``
was O(total records), and :func:`~repro.core.similarity.find_similar_workloads`
called it once per known workload, making one top-k neighbour query
O(workloads × records).  At KEA-like scale (millions of records) that is
seconds per lookup on a path the service hits for every tuning session.

:class:`SignatureIndex` replaces the scans with per-(tenant, label)
running aggregates maintained **incrementally** over one
:class:`~repro.core.histlog.HistoryLog`:

* a per-key buffer of successful-run signatures (capacity-doubled), from
  which the cached mean is recomputed — with the exact ``np.mean`` the
  scan path used, so indexed answers are *bit-identical* to naive ones;
* per-key success counts, best successful record, and best runtime,
  plus the global best — serving ``best_for``/``best_runtime_overall``
  in O(1)/O(workloads);
* per-key record lists in log order, failures included — serving
  ``HistoryStore.for_workload`` (transfer planning) in O(the key's runs);
* a key-sorted mean matrix answering top-k similarity with one (W, d)
  distance computation and ``np.argpartition`` instead of a Python loop
  over full-log scans.

Synchronization is lazy and by position: a query compares the log's
length with the number of records already folded and folds in only the
records appended since (``log.tail``), so steady-state maintenance is
O(new records).  The log is append-only and an index belongs to one log,
so a folded position never changes and the log never shrinks.

One index is shared per log — every :class:`~repro.core.history.HistoryStore`
view over the same log (e.g. the per-shard stores of the multi-tenant
service) resolves to the same instance via :func:`signature_index`, so
the memory and sync cost are paid once per provider log, not per shard.
Like its log, an index takes no lock: it belongs to the thread that owns
the log (the shard pool's runner during a load run).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .histlog import ExecutionRecord, HistoryLog

__all__ = ["SignatureIndex", "signature_index"]


@dataclass
class _KeyAggregate:
    """Running aggregates of one (tenant, label): its records, and the
    signatures and best of its successful runs."""

    row: int
    sigs: np.ndarray                      # (capacity, d) signature buffer
    n_success: int = 0
    best: ExecutionRecord | None = None
    #: every record of the key, failures included, in log order
    records: list[ExecutionRecord] = field(default_factory=list)

    def append(self, signature: np.ndarray) -> None:
        n = self.n_success
        if n >= len(self.sigs):
            grown = np.empty((max(8, 2 * len(self.sigs)), self.sigs.shape[1]))
            grown[:n] = self.sigs[:n]
            self.sigs = grown
        self.sigs[n] = signature
        self.n_success = n + 1


class SignatureIndex:
    """Incremental per-workload signature aggregates over one log."""

    def __init__(self, log: HistoryLog):
        self._log = log
        self._keys: dict[tuple[str, str], _KeyAggregate] = {}
        self._dim: int | None = None
        self._synced_count = 0
        # Row-major caches, one row per key in first-seen order.
        self._means = np.zeros((0, 0))
        self._counts = np.zeros(0, dtype=np.int64)
        self._best_runtimes = np.full(0, np.inf)
        self._dirty: set[int] = set()
        self._by_row: list[_KeyAggregate] = []
        self._best_overall: ExecutionRecord | None = None
        # Key-sort caches: workload_keys without re-sorting the snapshot
        # per call; invalidated only when a *new* key appears.
        self._sorted_keys: list[tuple[str, str]] | None = None
        self._sorted_rows: np.ndarray | None = None
        # --- telemetry ----------------------------------------------------
        self.n_syncs = 0
        self.n_records_indexed = 0
        self.n_mean_refreshes = 0
        self.n_lookups = 0

    # --- maintenance ------------------------------------------------------
    def sync(self) -> None:
        """Fold in records appended since the last sync (cheap when none)."""
        if len(self._log) == self._synced_count:
            return
        for record in self._log.tail(self._synced_count):
            self._ingest(record)
            # Counted per record: after a record raises, the next sync
            # resumes at it instead of folding its predecessors twice.
            self._synced_count += 1
            self.n_records_indexed += 1
        self.n_syncs += 1

    def _ingest(self, record: ExecutionRecord) -> None:
        key = record.key
        agg = self._keys.get(key)
        if agg is None:
            agg = self._add_key(key, record)
        if not record.success:
            agg.records.append(record)
            return
        sig = np.asarray(record.signature, dtype=float)
        if self._dim is None:
            self._dim = sig.shape[0]
            self._means = np.zeros((len(self._means), self._dim))
        elif sig.shape != (self._dim,):
            raise ValueError(
                f"signature dimension {sig.shape} does not match the "
                f"log's established ({self._dim},)"
            )
        agg.records.append(record)
        agg.append(sig)
        row = agg.row
        self._counts[row] += 1
        self._dirty.add(row)
        # min() keeps the first of equal runtimes, so only strictly
        # better records displace the per-key/global incumbents.
        if agg.best is None or record.runtime_s < agg.best.runtime_s:
            agg.best = record
            self._best_runtimes[row] = record.runtime_s
        if self._best_overall is None or \
                record.runtime_s < self._best_overall.runtime_s:
            self._best_overall = record

    def _add_key(self, key: tuple[str, str],
                 record: ExecutionRecord) -> _KeyAggregate:
        row = len(self._by_row)
        if row >= len(self._counts):
            cap = max(64, 2 * len(self._counts))
            dim = self._dim if self._dim is not None else 0
            means = np.zeros((cap, dim))
            counts = np.zeros(cap, dtype=np.int64)
            best = np.full(cap, np.inf)
            means[:row] = self._means[:row]
            counts[:row] = self._counts[:row]
            best[:row] = self._best_runtimes[:row]
            self._means, self._counts, self._best_runtimes = means, counts, best
        dim = self._dim if self._dim is not None \
            else np.asarray(record.signature).shape[0]
        agg = _KeyAggregate(row=row, sigs=np.empty((4, dim)))
        self._keys[key] = agg
        self._by_row.append(agg)
        self._sorted_keys = None
        self._sorted_rows = None
        return agg

    def _refresh_means(self) -> None:
        for row in self._dirty:
            agg = self._by_row[row]
            # The exact np.mean over the stacked block the scan path
            # computes — bit-identical, not merely close.
            self._means[row] = np.mean(agg.sigs[:agg.n_success], axis=0)
            self.n_mean_refreshes += 1
        self._dirty.clear()

    def _sorted_order(self) -> tuple[list[tuple[str, str]], np.ndarray]:
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self._keys)
            self._sorted_rows = np.array(
                [self._keys[k].row for k in self._sorted_keys], dtype=np.intp,
            )
        return self._sorted_keys, self._sorted_rows

    # --- queries ----------------------------------------------------------
    def workload_keys(self) -> list[tuple[str, str]]:
        """Every (tenant, label) ever recorded, sorted."""
        self.sync()
        keys, _ = self._sorted_order()
        return list(keys)

    def mean_signature(self, tenant: str, workload_label: str) -> np.ndarray | None:
        self.sync()
        agg = self._keys.get((tenant, workload_label))
        if agg is None or agg.n_success == 0:
            return None
        if agg.row in self._dirty:
            self._means[agg.row] = np.mean(agg.sigs[:agg.n_success], axis=0)
            self._dirty.discard(agg.row)
            self.n_mean_refreshes += 1
        return self._means[agg.row].copy()

    def records_for(self, tenant: str,
                    workload_label: str) -> list[ExecutionRecord]:
        """Every record of one (tenant, label) in log order, as a copy.

        O(the key's runs): transfer planning reads its sources' runs
        here instead of filtering a snapshot of the whole log.
        """
        self.sync()
        agg = self._keys.get((tenant, workload_label))
        return list(agg.records) if agg is not None else []

    def best_for(self, tenant: str, workload_label: str) -> ExecutionRecord | None:
        self.sync()
        agg = self._keys.get((tenant, workload_label))
        return agg.best if agg is not None else None

    def best_runtime_overall(self) -> float | None:
        self.sync()
        if self._best_overall is None:
            return None
        return self._best_overall.runtime_s

    def best_runtime_excluding(self, exclude: tuple[str, str]) -> float | None:
        """Best successful runtime over every key except ``exclude``.

        The WITHIN_BEST_SIMILAR SLO reference — previously a full-log
        scan per deployment, now a masked min over per-key minima.
        """
        self.sync()
        excluded = self._keys.get(exclude)
        if excluded is None:
            return self.best_runtime_overall()
        n = len(self._by_row)
        runtimes = self._best_runtimes[:n].copy()
        runtimes[excluded.row] = np.inf
        best = float(runtimes.min()) if n else np.inf
        return None if not np.isfinite(best) else best

    def find_similar(self, target_scaled: np.ndarray, scale: np.ndarray,
                     k: int, exclude: tuple[str, str] | None,
                     max_distance: float) -> list[tuple[tuple[str, str], float, np.ndarray]]:
        """Top-k nearest keys to a pre-scaled target signature.

        Returns ``[(key, distance, mean_signature), ...]`` ordered
        exactly as the pre-index scan path ordered them: ascending
        distance, ties broken by key sort order (the scan iterated keys
        sorted and Python's sort is stable).  Selection is O(W) via
        ``argpartition``; only the k winners are sorted.
        """
        self.sync()
        self.n_lookups += 1
        self._refresh_means()
        keys, rows = self._sorted_order()
        if not keys or self._dim is None:
            return []
        means = self._means[rows]                      # (W, d), key-sorted
        counts = self._counts[rows]
        diff = means / scale - target_scaled           # rows scale like scaled()
        distances = np.sqrt(np.sum(diff * diff, axis=1))
        valid = counts > 0
        if exclude is not None and exclude in self._keys:
            # rows are key-sorted; locate exclude by bisection-free map
            valid = valid.copy()
            valid[keys.index(exclude)] = False
        valid &= distances <= max_distance
        candidate_idx = np.flatnonzero(valid)
        if len(candidate_idx) == 0 or k <= 0:
            return []
        d_valid = distances[candidate_idx]
        if len(candidate_idx) > k:
            # Exact top-k with scan-identical tie handling: take all
            # strictly inside the kth distance, then fill remaining
            # slots with boundary ties in ascending key order
            # (candidate_idx is already key-sorted).
            kth = np.partition(d_valid, k - 1)[k - 1]
            inner = candidate_idx[d_valid < kth]
            boundary = candidate_idx[d_valid == kth]
            take = boundary[: k - len(inner)]
            chosen = np.concatenate([inner, take])
        else:
            chosen = candidate_idx
        order = np.argsort(distances[chosen], kind="stable")
        out = []
        for i in chosen[order]:
            out.append((keys[i], float(distances[i]), means[i].copy()))
        return out

    # --- telemetry --------------------------------------------------------
    def counters(self) -> dict[str, int]:
        return {
            "workload_keys": len(self._keys),
            "records_indexed": self.n_records_indexed,
            "syncs": self.n_syncs,
            "mean_refreshes": self.n_mean_refreshes,
            "lookups": self.n_lookups,
        }


#: one index per log, shared by every HistoryStore view over that log
_INDEXES: "weakref.WeakKeyDictionary[HistoryLog, SignatureIndex]" = \
    weakref.WeakKeyDictionary()


def signature_index(log: HistoryLog) -> SignatureIndex:
    """The shared :class:`SignatureIndex` of ``log`` (created on first use)."""
    index = _INDEXES.get(log)
    if index is None:
        index = _INDEXES[log] = SignatureIndex(log)
    return index
