"""Provider-side execution history store.

The centerpiece of the paper's feasibility argument (Section IV): "The
cloud is a centralized place that is able to keep a record of the
different workloads' execution history under different cloud and DISC
system configurations, across users."  The store records every execution
with its observable metrics signature; the similarity and transfer
modules mine it *without* access to ground-truth workload identity
across tenants (labels are per-tenant opaque strings).

Storage lives in an append-only :class:`~repro.core.histlog.HistoryLog`
(one list of immutable records); this class is the *query view* over
one log.  Per-workload aggregates come from the log's
shared :class:`~repro.core.simindex.SignatureIndex`, so several views —
one per service shard — can share a single log and its index.
"""

from __future__ import annotations

import numpy as np

from ..config.space import Configuration
from ..sparksim.metrics import ExecutionResult
from .histlog import ExecutionRecord, HistoryLog
from .simindex import SignatureIndex, signature_index

__all__ = ["ExecutionRecord", "HistoryStore"]


class HistoryStore:
    """Multi-tenant execution history: query view over a ``HistoryLog``."""

    def __init__(self, log: HistoryLog | None = None):
        self._log = log if log is not None else HistoryLog()

    @property
    def log(self) -> HistoryLog:
        """The backing append-only log (shared across service shards)."""
        return self._log

    def index(self) -> SignatureIndex:
        """The log's shared signature index (one per log, lazily built).

        Per-workload aggregate queries below route through it; every
        store view over the same log shares the same index instance.
        """
        return signature_index(self._log)

    def __len__(self) -> int:
        return len(self._log)

    def record(self, tenant: str, workload_label: str, input_mb: float,
               cluster: str, config: Configuration, result: ExecutionResult,
               signature: np.ndarray) -> ExecutionRecord:
        return self._log.append_new(
            tenant=tenant,
            workload_label=workload_label,
            input_mb=input_mb,
            cluster=cluster,
            config=config,
            runtime_s=result.runtime_s,
            success=result.success,
            signature=signature,
        )

    def add(self, record: ExecutionRecord) -> None:
        """Insert a pre-built record (e.g. loaded from disk).

        Advances the id/clock counters past the record's, so records
        created afterwards never collide with loaded ones.
        """
        self._log.append(record)

    # --- queries ----------------------------------------------------------
    def all(self) -> list[ExecutionRecord]:
        return list(self._log.snapshot())

    def for_workload(self, tenant: str, workload_label: str) -> list[ExecutionRecord]:
        """The key's records in log order, from the index's per-key list."""
        return self.index().records_for(tenant, workload_label)

    def tenants(self) -> list[str]:
        return sorted({r.tenant for r in self._log.snapshot()})

    def workload_keys(self) -> list[tuple[str, str]]:
        """Every (tenant, label) recorded, sorted — from the index's
        cached key order (invalidated when a new key appears), not a
        fresh materialize-and-sort of the full snapshot per call."""
        return self.index().workload_keys()

    def best_for(self, tenant: str, workload_label: str) -> ExecutionRecord | None:
        return self.index().best_for(tenant, workload_label)

    def mean_signature(self, tenant: str, workload_label: str) -> np.ndarray | None:
        """Averaged characterization across a workload's executions."""
        return self.index().mean_signature(tenant, workload_label)

    def best_runtime_overall(self) -> float | None:
        """Best successful runtime of any workload, O(1) off the index's
        running global best."""
        return self.index().best_runtime_overall()
