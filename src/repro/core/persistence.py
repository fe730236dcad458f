"""Durable storage for the provider-side execution history.

The vision's feasibility rests on the cloud keeping "a record of the
different workloads' execution history ... across users" — a record that
outlives any single tuning session.  This module serializes a
:class:`~repro.core.history.HistoryStore` to versioned JSON and back.
Version 1 files also carried a per-record logical ``timestamp``; the
record id already gives the append order, so version 2 drops it and
the reader ignores it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..config.space import Configuration
from .history import ExecutionRecord, HistoryStore

__all__ = ["save_history", "load_history", "FORMAT_VERSION"]

FORMAT_VERSION = 2
#: every version :func:`load_history` reads
_READABLE_VERSIONS = (1, 2)


def _record_to_dict(record: ExecutionRecord) -> dict:
    return {
        "record_id": record.record_id,
        "tenant": record.tenant,
        "workload_label": record.workload_label,
        "input_mb": record.input_mb,
        "cluster": record.cluster,
        "config": dict(record.config),
        "runtime_s": record.runtime_s,
        "success": record.success,
        "signature": [float(x) for x in record.signature],
    }


def _record_from_dict(data: dict) -> ExecutionRecord:
    return ExecutionRecord(
        record_id=int(data["record_id"]),
        tenant=str(data["tenant"]),
        workload_label=str(data["workload_label"]),
        input_mb=float(data["input_mb"]),
        cluster=str(data["cluster"]),
        config=Configuration(data["config"]),
        runtime_s=float(data["runtime_s"]),
        success=bool(data["success"]),
        signature=np.asarray(data["signature"], dtype=float),
    )


def save_history(store: HistoryStore, path: str | Path) -> None:
    """Write the store to ``path`` as versioned JSON."""
    payload = {
        "format_version": FORMAT_VERSION,
        "records": [_record_to_dict(r) for r in store.all()],
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def load_history(path: str | Path) -> HistoryStore:
    """Read a store previously written by :func:`save_history`."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("format_version")
    if version not in _READABLE_VERSIONS:
        raise ValueError(
            f"unsupported history format version {version!r}; "
            f"this build reads versions {_READABLE_VERSIONS}"
        )
    store = HistoryStore()
    for data in payload["records"]:
        store.add(_record_from_dict(data))
    return store
