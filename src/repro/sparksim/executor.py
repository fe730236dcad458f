"""Executor memory layout under Spark's unified memory manager.

Translates the memory-related configuration parameters into the runtime
memory regions real Spark derives from them: a reserved region, a unified
(execution + storage) region sized by ``spark.memory.fraction``, and a
storage sub-region protected from execution eviction by
``spark.memory.storageFraction``.  Off-heap execution memory, when
enabled, extends the execution pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

__all__ = ["ExecutorModel", "RESERVED_MB"]

#: Spark reserves 300 MB of heap for internal objects.
RESERVED_MB = 300.0


@dataclass(frozen=True)
class ExecutorModel:
    """Derived per-executor resources for a given configuration."""

    heap_mb: float
    cores: int
    concurrent_tasks: int
    unified_mb: float          # execution + storage pool
    storage_immune_mb: float   # storage protected from eviction
    offheap_mb: float

    @classmethod
    def from_config(cls, config: Mapping) -> "ExecutorModel":
        heap = float(config["spark.executor.memory"])
        cores = int(config["spark.executor.cores"])
        task_cpus = int(config.get("spark.task.cpus", 1))
        concurrent = max(1, cores // task_cpus)
        usable = max(0.0, heap - RESERVED_MB)
        unified = usable * float(config["spark.memory.fraction"])
        immune = unified * float(config["spark.memory.storageFraction"])
        offheap = 0.0
        if config.get("spark.memory.offHeap.enabled", False):
            offheap = float(config.get("spark.memory.offHeap.size", 0))
        return cls(
            heap_mb=heap,
            cores=cores,
            concurrent_tasks=concurrent,
            unified_mb=unified,
            storage_immune_mb=immune,
            offheap_mb=offheap,
        )

    def storage_capacity_mb(self) -> float:
        """Maximum cache footprint: storage may borrow all unified memory."""
        return self.unified_mb
