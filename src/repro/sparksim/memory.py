"""Memory behaviour: cache planning and GC pressure.

With the spill-or-die decision in the batch cost program
(:func:`~repro.sparksim.costmodel.compute_plan_cost_batch`), this module
produces the configuration-sensitive cliffs the tuning literature
measures: undersized execution memory spills to disk (multiplying I/O),
oversubscribed heaps burn CPU in GC superlinearly, and working sets that
cannot spill at all kill the task — the "plausible but crashes"
configurations the paper warns end-users about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .executor import ExecutorModel
from .shuffle import codec_of, serializer_of

__all__ = ["CachePlan", "plan_cache", "gc_fraction"]


@dataclass(frozen=True)
class CachePlan:
    """How much of the requested cached data actually resides in memory."""

    requested_mb: float        # logical data size of all cached RDDs
    footprint_per_mb: float    # in-memory MB per logical MB at this level
    stored_mb: float           # in-memory footprint actually held (per app)
    hit_fraction: float        # fraction of logical data servable from memory
    read_cpu_s_per_mb: float   # deserialization cost on every cached read
    miss_to_disk: bool         # MEMORY_AND_DISK: misses hit local disk, not recompute
    #: lineage-recompute cost of a miss (CPU s/MB and re-read bytes per MB)
    recompute_cpu_s_per_mb: float = 0.02
    recompute_io_mb_per_mb: float = 1.0


def plan_cache(cached_logical_mb: float, executors: int,
               executor: ExecutorModel, config: Mapping,
               recompute_cpu_s_per_mb: float = 0.02,
               recompute_io_mb_per_mb: float = 1.0) -> CachePlan:
    """Fit the cached datasets into aggregate storage memory.

    ``MEMORY_ONLY`` stores deserialized objects (large footprint, free
    reads); ``MEMORY_ONLY_SER`` stores serialized bytes (small footprint,
    CPU on every read, further shrunk by ``spark.rdd.compress``);
    ``MEMORY_AND_DISK`` overflows to local disk instead of dropping
    partitions.
    """
    if cached_logical_mb < 0:
        raise ValueError("cached_logical_mb must be non-negative")
    level = config.get("spark.storage.level", "MEMORY_ONLY")
    ser = serializer_of(config)
    read_cpu = 0.0
    if level == "MEMORY_ONLY":
        footprint = ser.expansion * 0.9  # objects, no per-read deserialization
    else:
        footprint = ser.serialized_ratio
        read_cpu = ser.deserialize_s_per_mb
        if config.get("spark.rdd.compress", False):
            codec = codec_of(config)
            footprint *= codec.ratio + 0.1
            read_cpu += codec.decompress_s_per_mb
    if level == "MEMORY_AND_DISK":
        footprint = ser.expansion * 0.9  # deserialized in memory, serialized on disk
        read_cpu = 0.0

    capacity = executor.storage_capacity_mb() * max(1, executors)
    needed = cached_logical_mb * footprint
    stored = min(needed, capacity)
    hit = 1.0 if needed == 0 else stored / needed
    return CachePlan(
        requested_mb=cached_logical_mb,
        footprint_per_mb=footprint,
        stored_mb=stored,
        hit_fraction=hit,
        read_cpu_s_per_mb=read_cpu,
        miss_to_disk=(level == "MEMORY_AND_DISK"),
        recompute_cpu_s_per_mb=recompute_cpu_s_per_mb,
        recompute_io_mb_per_mb=recompute_io_mb_per_mb,
    )


def gc_fraction(occupancy: float) -> float:
    """GC overhead as a fraction of CPU time, superlinear in heap occupancy.

    Near-empty heaps pay ~1.5% (young-gen churn); heaps running close to
    full pay several tens of percent in full-GC pauses — the regime badly
    sized ``spark.memory.fraction`` puts executors in.
    """
    occ = min(1.2, max(0.0, occupancy))
    return min(0.45, 0.015 + 0.35 * occ**4)
