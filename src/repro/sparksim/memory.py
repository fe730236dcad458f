"""Memory behaviour: cache footprint and GC pressure.

With the spill-or-die decision in the batch cost program
(:func:`~repro.sparksim.costmodel.compute_plan_cost_batch`), this module
produces the configuration-sensitive cliffs the tuning literature
measures: undersized execution memory spills to disk (multiplying I/O),
oversubscribed heaps burn CPU in GC superlinearly, and working sets that
cannot spill at all kill the task — the "plausible but crashes"
configurations the paper warns end-users about.
"""

from __future__ import annotations

from typing import Mapping

from .shuffle import codec_of, serializer_of

__all__ = ["cache_statics", "gc_fraction"]


def cache_statics(config: Mapping) -> tuple[float, float, bool]:
    """``(footprint_per_mb, read_cpu_s_per_mb, miss_to_disk)`` of the
    configuration's storage level.

    ``MEMORY_ONLY`` stores deserialized objects (large footprint, free
    reads); ``MEMORY_ONLY_SER`` stores serialized bytes (small footprint,
    CPU on every read, further shrunk by ``spark.rdd.compress``);
    ``MEMORY_AND_DISK`` overflows to local disk instead of dropping
    partitions.  How much of a cached dataset fits depends on the grant
    as well; the cost program reads that from its capacity column.
    """
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
    return footprint, read_cpu, level == "MEMORY_AND_DISK"


def gc_fraction(occupancy: float) -> float:
    """GC overhead as a fraction of CPU time, superlinear in heap occupancy.

    Near-empty heaps pay ~1.5% (young-gen churn); heaps running close to
    full pay several tens of percent in full-GC pauses — the regime badly
    sized ``spark.memory.fraction`` puts executors in.
    """
    occ = min(1.2, max(0.0, occupancy))
    return min(0.45, 0.015 + 0.35 * occ**4)
