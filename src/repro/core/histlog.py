"""Append-only history log: the provider's record of every execution.

The paper's vision makes the execution history a *shared, provider-side*
artifact — "the cloud is a centralized place that keeps a record of the
workloads' execution history across users".  The store's job is to
append records and answer queries, so the log is one list of immutable
records under one lock:

* **Appends** take the lock, allocate the record's identity
  (``record_id``) and the provider's logical clock (``timestamp``), and
  append.  Concurrent appends can never collide — the property the
  multi-tenant service layer (:mod:`repro.core.serviced`) depends on.
* **Reads** copy under the same lock: :meth:`HistoryLog.tail` returns a
  tuple of the records from one append-order position on, and
  :meth:`HistoryLog.snapshot` the whole log.  A reader always sees a
  consistent prefix of the log, never a torn state, and records never
  move, so a consumer that remembers how many records it has processed
  (the signature index) reads only what is new.

Records are frozen and their signatures read-only, so a copied tuple can
be shared with any thread.  Readers take the writers' lock: during a
load run one runner thread executes every shard job
(:mod:`repro.core.serviced.sharding`) and is the only thread that
touches the log, so the lock is uncontended where it matters.

:class:`~repro.core.history.HistoryStore` keeps its familiar query API
as a thin *view* over one of these logs; everything downstream
(similarity, transfer, SLO references, persistence) reads through it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

from ..config.space import Configuration

__all__ = ["ExecutionRecord", "HistoryLog", "readonly_signature"]


@dataclass(frozen=True)
class ExecutionRecord:
    """One workload execution as the provider sees it.

    Records are immutable log entries: once appended they are shared
    freely with concurrent readers, so every field must stay frozen —
    including the signature array, which the log stores as a read-only
    copy (see :func:`readonly_signature`).
    """

    record_id: int
    tenant: str
    workload_label: str          # tenant-scoped opaque label
    input_mb: float
    cluster: str                 # e.g. "4x h1.4xlarge (aws)"
    config: Configuration
    runtime_s: float
    success: bool
    signature: np.ndarray        # workload characterization vector
    #: logical timestamp (provider-side event counter)
    timestamp: int = 0

    @property
    def key(self) -> tuple[str, str]:
        return (self.tenant, self.workload_label)


def readonly_signature(signature: np.ndarray) -> np.ndarray:
    """A defensive, immutable copy of a characterization vector.

    The log stores records forever and hands them to concurrent readers;
    an aliased caller array mutated after insertion would silently change
    past query answers (mean signatures, similarity distances).  Every
    signature therefore enters the log as a fresh read-only copy.
    """
    sig = np.array(signature, dtype=float, copy=True)
    sig.setflags(write=False)
    return sig


class HistoryLog:
    """Append-only execution log: one list of records under one lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self._records: list[ExecutionRecord] = []
        self._next_id = 0
        self._clock = 0

    # --- writers ----------------------------------------------------------
    def append_new(self, *, tenant: str, workload_label: str, input_mb: float,
                   cluster: str, config: Configuration, runtime_s: float,
                   success: bool, signature: np.ndarray) -> ExecutionRecord:
        """Build and append a record, allocating id/clock atomically."""
        sig = readonly_signature(signature)
        with self._lock:
            rec = ExecutionRecord(
                record_id=self._next_id,
                tenant=tenant,
                workload_label=workload_label,
                input_mb=input_mb,
                cluster=cluster,
                config=config,
                runtime_s=runtime_s,
                success=success,
                signature=sig,
                timestamp=self._clock,
            )
            self._next_id += 1
            self._clock += 1
            self._records.append(rec)
        return rec

    def append(self, record: ExecutionRecord) -> ExecutionRecord:
        """Append a pre-built record (e.g. loaded from disk).

        The record's signature is replaced with a read-only copy and the
        id/clock counters advance past the record's, so records created
        afterwards never collide with loaded ones.
        """
        record = replace(
            record, signature=readonly_signature(record.signature),
        )
        with self._lock:
            self._next_id = max(self._next_id, record.record_id + 1)
            self._clock = max(self._clock, record.timestamp + 1)
            self._records.append(record)
        return record

    # --- readers ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def tail(self, start: int) -> tuple[ExecutionRecord, ...]:
        """The records from append-order position ``start`` on.

        Copied under the lock, so the tuple is a consistent slice of the
        log.  Positions never change, so an incremental consumer that has
        processed ``start`` records pays O(new records), not O(log).
        """
        with self._lock:
            return tuple(self._records[start:])

    def snapshot(self) -> tuple[ExecutionRecord, ...]:
        """Every record in append order, as one immutable tuple."""
        return self.tail(0)
