"""Append-only history log: the provider's record of every execution.

The paper's vision makes the execution history a *shared, provider-side*
artifact — "the cloud is a centralized place that keeps a record of the
workloads' execution history across users".  The store's job is to
append records and answer queries, so the log is one list of immutable
records:

* **Appends** allocate the record's identity (``record_id``), which is
  also its position in the provider's append order, and append.
* **Reads** copy: :meth:`HistoryLog.tail` returns a tuple of the records
  from one append-order position on, and :meth:`HistoryLog.snapshot`
  the whole log.  Records never move, so a consumer that remembers how
  many records it has processed (the signature index) reads only what
  is new.

The log takes no lock.  It has one owner thread at a time: during a
load run, the runner that executes every shard job
(:mod:`repro.core.serviced.sharding`) appends to it and reads it, and
other threads read it only after the pool's ``close()``.  Records are
frozen and their signatures read-only, so a copied tuple never changes
under its reader.

:class:`~repro.core.history.HistoryStore` keeps its familiar query API
as a thin *view* over one of these logs; everything downstream
(similarity, transfer, SLO references, persistence) reads through it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..config.space import Configuration

__all__ = ["ExecutionRecord", "HistoryLog", "readonly_signature"]


@dataclass(frozen=True, slots=True)
class ExecutionRecord:
    """One workload execution as the provider sees it.

    Records are immutable log entries: once appended they are shared
    freely with every reader, so every field must stay frozen —
    including the signature array, which the log stores as a read-only
    copy (see :func:`readonly_signature`).  The log holds one record per
    run it has ever seen, so records are slotted: no per-instance
    ``__dict__``.
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

    @property
    def key(self) -> tuple[str, str]:
        return (self.tenant, self.workload_label)


def readonly_signature(signature: np.ndarray) -> np.ndarray:
    """A defensive, immutable copy of a characterization vector.

    The log stores records forever and hands them to every reader; an
    aliased caller array mutated after insertion would silently change
    past query answers (mean signatures, similarity distances).  Every
    signature therefore enters the log as a fresh read-only copy.
    """
    sig = np.array(signature, dtype=float, copy=True)
    sig.setflags(write=False)
    return sig


class HistoryLog:
    """Append-only execution log: one list of records, one owner thread."""

    def __init__(self):
        self._records: list[ExecutionRecord] = []
        self._next_id = 0

    # --- writers ----------------------------------------------------------
    def append_new(self, *, tenant: str, workload_label: str, input_mb: float,
                   cluster: str, config: Configuration, runtime_s: float,
                   success: bool, signature: np.ndarray) -> ExecutionRecord:
        """Build and append a record, allocating its id."""
        rec = ExecutionRecord(
            record_id=self._next_id,
            tenant=tenant,
            workload_label=workload_label,
            input_mb=input_mb,
            cluster=cluster,
            config=config,
            runtime_s=runtime_s,
            success=success,
            signature=readonly_signature(signature),
        )
        self._next_id += 1
        self._records.append(rec)
        return rec

    def append(self, record: ExecutionRecord) -> ExecutionRecord:
        """Append a pre-built record (e.g. loaded from disk).

        The record's signature is replaced with a read-only copy and the
        id counter advances past the record's, so records created
        afterwards never collide with loaded ones.
        """
        record = replace(
            record, signature=readonly_signature(record.signature),
        )
        self._next_id = max(self._next_id, record.record_id + 1)
        self._records.append(record)
        return record

    # --- readers ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def tail(self, start: int) -> tuple[ExecutionRecord, ...]:
        """The records from append-order position ``start`` on.

        Positions never change, so an incremental consumer that has
        processed ``start`` records pays O(new records), not O(log).
        """
        return tuple(self._records[start:])

    def snapshot(self) -> tuple[ExecutionRecord, ...]:
        """Every record in append order, as one immutable tuple."""
        return self.tail(0)
