"""Analytic per-task cost model.

Given a compiled plan, candidate configurations, a cluster and the
interference environments, compute for every (stage, candidate) the
deterministic cost components of one task (CPU, disk, network, GC) plus
stage-level driver overheads, in one struct-of-arrays sweep.  The
scheduler then turns these into a makespan by simulating slot occupancy
with noise and stragglers.

Every empirical constant lives in :class:`Calibration` so ablation
benches can perturb them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence

import numpy as np

from ..cloud.cluster import Cluster
from ..cloud.interference import Environment
from ..config.constraints import ResourceGrant
from ..config.encoding import ConfigColumns
from .dag import CompiledWorkload
from .executor import RESERVED_MB, ExecutorModel
from .memory import cache_statics, gc_fraction
from .shuffle import CODECS, serializer_of

__all__ = [
    "Calibration",
    "BatchInputs",
    "build_batch_inputs",
    "PlanArrays",
    "PlanCostBatch",
    "build_plan_arrays",
    "compute_plan_cost_batch",
]


@dataclass(frozen=True)
class Calibration:
    """Empirical constants of the cost model (ablation knobs)."""

    task_launch_s: float = 0.012          # JVM task deserialize + start
    driver_dispatch_s_per_task: float = 0.0012
    driver_stage_overhead_s: float = 0.045
    app_startup_base_s: float = 1.2       # driver + executor launch
    app_startup_per_executor_s: float = 0.02
    job_submit_s: float = 0.08
    collect_s_per_mb: float = 0.02
    cached_read_mb_s: float = 1800.0      # memory-bandwidth-bound cache scan
    #: fixed per-MB overhead of a cache-miss recompute (task re-dispatch,
    #: block-manager bookkeeping) on top of the lineage-derived cost
    recompute_cpu_s_per_mb: float = 0.012
    spill_merge_cpu_s_per_mb: float = 0.004
    straggler_probability: float = 0.025
    straggler_mean_multiplier: float = 2.2
    task_noise_sigma: float = 0.08
    run_noise_sigma: float = 0.03
    #: map-stage working sets are pipelined; only a fraction is resident
    map_working_set_fraction: float = 0.35
    shuffle_write_buffer_fraction: float = 0.5
    min_parallelism_efficiency: float = 0.05


def with_overrides(calib: Calibration, **kwargs) -> Calibration:
    """Convenience for ablations: return a modified calibration."""
    return replace(calib, **kwargs)


# --- struct-of-arrays batch cost model ----------------------------------------
#
# N candidate configurations as numpy columns, costed by the plan
# program below.  The contract is bit-identity with the scalar reference,
# ``compute_stage_cost`` in ``tests/oracles.py``, which costs one (stage,
# candidate) at a time: every elementwise operation replicates the
# scalar code's operations in the same order and association,
# per-candidate branches become exact-zero masked contributions (adding
# 0.0 to a non-negative accumulator is a bitwise no-op), and every
# transcendental term (``pow``/``exp``, where numpy's vector kernels
# differ from Python's scalar libm calls in the last ulp) is computed
# elementwise with Python arithmetic.


@dataclass
class BatchInputs:
    """Config-only columns shared by every stage of a batch evaluation.

    Built once per batch by :func:`build_batch_inputs` from the raw
    configuration columns (:class:`~repro.config.encoding.ConfigColumns`),
    the resource grants and the executor models — everything the scalar
    cost model derives per call that does not depend on the stage.
    """

    n: int
    # configuration columns
    parallelism: np.ndarray
    locality_wait: np.ndarray
    remote_frac: np.ndarray
    ser_serialize: np.ndarray
    ser_deserialize: np.ndarray
    ser_expansion: np.ndarray
    codec_ratio: np.ndarray
    codec_compress: np.ndarray
    codec_decompress: np.ndarray
    shuffle_compress: np.ndarray
    spill_compress: np.ndarray
    flush_base: np.ndarray
    bypass_threshold: np.ndarray
    fetch_efficiency: np.ndarray
    per_block_s: np.ndarray
    speculation: np.ndarray
    spec_multiplier: np.ndarray
    spec_quantile: np.ndarray
    # grant / executor columns
    executors: np.ndarray
    requested: np.ndarray
    concurrent: np.ndarray
    heap_mb: np.ndarray
    unified_mb: np.ndarray
    immune_mb: np.ndarray
    offheap_mb: np.ndarray
    # resource sharing (environment folded in)
    disk_share: np.ndarray
    net_share: np.ndarray
    env_cpu: np.ndarray
    core_speed: float
    remote_nodes_fraction: float
    # cache statics (storage level / serializer / rdd.compress derived)
    cache_footprint: np.ndarray
    cache_read_cpu: np.ndarray
    cache_miss_to_disk: np.ndarray
    cache_capacity: np.ndarray


def build_batch_inputs(configs: Sequence[Mapping[str, Any]], cluster: Cluster,
                       grants: Sequence[ResourceGrant],
                       executors: Sequence[ExecutorModel],
                       envs: Sequence[Environment]) -> BatchInputs:
    """Extract the config-only columns for one batch of candidates.

    ``grants``/``executors``/``envs`` align with ``configs``; every grant
    must have at least one executor (rejected candidates never reach the
    batch path).
    """
    cols = ConfigColumns(configs)
    n = cols.n
    ser = [serializer_of(c) for c in configs]
    codec = [CODECS[c.get("spark.io.compression.codec", "lz4")] for c in configs]

    locality_wait = cols.floats("spark.locality.wait", 3.0)
    remote_frac = cols.mapped(
        lambda c: 0.12 * pow(2.718281828, -float(c.get("spark.locality.wait", 3.0)) / 1.5)
    )
    flush_base = cols.mapped(
        lambda c: 1.0 + 0.08 * (32.0 / float(c.get("spark.shuffle.file.buffer", 32))) ** 0.5
    )

    def _fetch_eff(c: Mapping[str, Any]) -> float:
        inflight = float(c.get("spark.reducer.maxSizeInFlight", 48))
        return max(min(1.0, (inflight / 48.0) ** 0.35), 0.35)

    def _per_block(c: Mapping[str, Any]) -> float:
        connections = int(c.get("spark.shuffle.io.numConnectionsPerPeer", 1))
        per_block_s = 0.00025 / max(1, connections)
        if c.get("spark.shuffle.consolidateFiles", False):
            per_block_s *= 0.4
        return per_block_s

    executors_arr = np.array([g.executors for g in grants], dtype=np.int64)
    concurrent = np.array([e.concurrent_tasks for e in executors], dtype=np.int64)

    # Resource sharing per node: identical operation order to the scalar
    # model (two sequential divisions, not a combined divisor).
    execs_per_node = np.maximum(1.0, executors_arr / cluster.count)
    tasks_per_node = execs_per_node * concurrent
    disk_factor = np.array([e.disk_factor for e in envs], dtype=float)
    net_factor = np.array([e.network_factor for e in envs], dtype=float)
    disk_share = cluster.node_disk_mb_s / tasks_per_node / disk_factor
    net_share = cluster.node_network_mb_s / tasks_per_node / net_factor
    remote_nodes_fraction = (
        (cluster.count - 1) / cluster.count if cluster.count > 1 else 0.0
    )

    # Cache statics: footprint / per-read CPU / miss policy depend only on
    # the configuration.
    statics = [cache_statics(c) for c in configs]
    capacity = np.array(
        [e.storage_capacity_mb() * max(1, g.executors)
         for g, e in zip(grants, executors)],
        dtype=float,
    )

    return BatchInputs(
        n=n,
        parallelism=cols.ints("spark.default.parallelism"),
        locality_wait=locality_wait,
        remote_frac=remote_frac,
        ser_serialize=np.array([s.serialize_s_per_mb for s in ser]),
        ser_deserialize=np.array([s.deserialize_s_per_mb for s in ser]),
        ser_expansion=np.array([s.expansion for s in ser]),
        codec_ratio=np.array([c.ratio for c in codec]),
        codec_compress=np.array([c.compress_s_per_mb for c in codec]),
        codec_decompress=np.array([c.decompress_s_per_mb for c in codec]),
        shuffle_compress=cols.bools("spark.shuffle.compress", True),
        spill_compress=cols.bools("spark.shuffle.spill.compress", True),
        flush_base=flush_base,
        bypass_threshold=cols.ints("spark.shuffle.sort.bypassMergeThreshold", 200),
        fetch_efficiency=cols.mapped(_fetch_eff),
        per_block_s=cols.mapped(_per_block),
        speculation=cols.bools("spark.speculation", False),
        spec_multiplier=cols.floats("spark.speculation.multiplier", 1.5),
        spec_quantile=cols.floats("spark.speculation.quantile", 0.75),
        executors=executors_arr,
        requested=np.array([g.requested_executors for g in grants], dtype=np.int64),
        concurrent=concurrent,
        heap_mb=np.array([e.heap_mb for e in executors], dtype=float),
        unified_mb=np.array([e.unified_mb for e in executors], dtype=float),
        immune_mb=np.array([e.storage_immune_mb for e in executors], dtype=float),
        offheap_mb=np.array([e.offheap_mb for e in executors], dtype=float),
        disk_share=disk_share,
        net_share=net_share,
        env_cpu=np.array([e.cpu_factor for e in envs], dtype=float),
        core_speed=cluster.instance.cpu_speed,
        remote_nodes_fraction=remote_nodes_fraction,
        cache_footprint=np.array([f for f, _, _ in statics]),
        cache_read_cpu=np.array([r for _, r, _ in statics]),
        cache_miss_to_disk=np.array([d for _, _, d in statics], dtype=bool),
        cache_capacity=capacity,
    )


# --- joint stage x candidate plan program --------------------------------------
#
# All S stages of a compiled workload costed for all N candidates in one
# fused sweep of (S, N) struct-of-arrays operations, bit-identical to
# the scalar reference called once per (stage, candidate).
# Stage-level branches of the scalar model become per-row masks whose
# contributions are ``np.where(mask, term, 0.0)`` — adding exact 0.0 to
# the non-negative accumulators is a bitwise no-op — so the bit-identity
# contract extends unchanged: elementwise IEEE arithmetic does not care
# whether it ran one (stage, candidate) at a time or per plan.


@dataclass
class PlanArrays:
    """Stage-constant columns of one :class:`CompiledWorkload`.

    Compiled once per plan (and cached by the simulator alongside the
    plan itself): everything :func:`compute_plan_cost_batch` needs that
    depends only on the workload, shaped ``(S, 1)`` for broadcasting
    against ``(N,)`` candidate columns, plus the plain-Python metadata
    the simulator unboxes into per-stage metrics.
    """

    n_stages: int
    # (S, 1) compute columns
    hint: np.ndarray             # int64; -1 where the stage has no hint
    input_mb: np.ndarray
    cached_read_mb: np.ndarray
    shuffle_read_mb: np.ndarray
    shuffle_write_mb: np.ndarray
    output_mb_eff: np.ndarray    # 0.0 unless the stage writes output
    cpu_s: np.ndarray
    unspillable: np.ndarray
    collect_mb: np.ndarray
    cached_mb: np.ndarray        # cache-registry snapshot per stage
    recompute_cpu: np.ndarray
    recompute_io: np.ndarray
    # (S, 1) row masks mirroring the scalar model's stage-level branches
    has_input: np.ndarray
    has_cached: np.ndarray
    has_shuffle_read: np.ndarray
    has_shuffle_write: np.ndarray
    has_output: np.ndarray
    # per-stage metadata (plain Python, consumed by the metrics loop)
    stage_ids: list[int]
    names: list[str]
    deps: list[list[int]]        # dep *row indices* into plan order
    job_submits_before: list[int]
    trailing_job_submits: int
    writes_output: list[bool]
    out_mb: list[float]
    input_mb_l: list[float]
    cached_read_mb_l: list[float]
    shuffle_read_mb_l: list[float]
    shuffle_write_mb_l: list[float]


@dataclass
class PlanCostBatch:
    """(S, N) cost arrays for a whole compiled plan."""

    num_tasks: np.ndarray
    cpu_s: np.ndarray
    disk_s: np.ndarray
    net_s: np.ndarray
    gc_s: np.ndarray
    idle_s: np.ndarray
    total_s: np.ndarray
    driver_s: np.ndarray
    spilled_mb: np.ndarray
    spill_mb_total: np.ndarray
    oom: np.ndarray


def build_plan_arrays(compiled: CompiledWorkload) -> PlanArrays:
    """Extract the stage-constant columns of ``compiled`` in plan order."""
    stages = []
    cached = []
    rec_cpu = []
    rec_io = []
    submits_before = []
    pending = 0
    for cjob in compiled.jobs:
        pending += 1
        for cstage in cjob.stages:
            stages.append(cstage.stage)
            cached.append(cstage.cached_mb)
            rec_cpu.append(cstage.recompute_cpu_s_per_mb)
            rec_io.append(cstage.recompute_io_mb_per_mb)
            submits_before.append(pending)
            pending = 0
    s_count = len(stages)
    row_of: dict[int, int] = {s.stage_id: i for i, s in enumerate(stages)}

    def col(values, dtype=float) -> np.ndarray:
        return np.asarray(values, dtype=dtype).reshape(s_count, 1)

    return PlanArrays(
        n_stages=s_count,
        hint=col(
            [-1 if s.num_tasks_hint is None else max(1, int(s.num_tasks_hint))
             for s in stages],
            dtype=np.int64,
        ),
        input_mb=col([s.input_mb for s in stages]),
        cached_read_mb=col([s.cached_read_mb for s in stages]),
        shuffle_read_mb=col([s.shuffle_read_mb for s in stages]),
        shuffle_write_mb=col([s.shuffle_write_mb for s in stages]),
        output_mb_eff=col(
            [s.output_mb if s.writes_output else 0.0 for s in stages]
        ),
        cpu_s=col([s.cpu_s for s in stages]),
        unspillable=col([s.unspillable_fraction for s in stages]),
        collect_mb=col([s.collect_mb for s in stages]),
        cached_mb=col(cached),
        recompute_cpu=col(rec_cpu),
        recompute_io=col(rec_io),
        has_input=col([s.input_mb > 0 for s in stages], dtype=bool),
        has_cached=col([s.cached_read_mb > 0 for s in stages], dtype=bool),
        has_shuffle_read=col([s.shuffle_read_mb > 0 for s in stages], dtype=bool),
        has_shuffle_write=col([s.shuffle_write_mb > 0 for s in stages], dtype=bool),
        has_output=col(
            [s.writes_output and s.output_mb > 0 for s in stages], dtype=bool,
        ),
        stage_ids=[s.stage_id for s in stages],
        names=[s.name for s in stages],
        deps=[
            [row_of[d] for d in s.depends_on if d in row_of] for s in stages
        ],
        job_submits_before=submits_before,
        trailing_job_submits=pending,
        writes_output=[s.writes_output for s in stages],
        out_mb=[s.output_mb if s.writes_output else 0.0 for s in stages],
        input_mb_l=[s.input_mb for s in stages],
        cached_read_mb_l=[s.cached_read_mb for s in stages],
        shuffle_read_mb_l=[s.shuffle_read_mb for s in stages],
        shuffle_write_mb_l=[s.shuffle_write_mb for s in stages],
    )


def compute_plan_cost_batch(
    plan: PlanArrays,
    b: BatchInputs,
    calib: Calibration | None = None,
) -> PlanCostBatch:
    """All stages x all candidates in one fused struct-of-arrays sweep.

    Bit-identical to the scalar reference (``compute_stage_cost`` in
    ``tests/oracles.py``) called once
    per (stage, candidate): every elementwise operation is the same IEEE
    operation in the same order, broadcast over ``(S, N)``; the scalar
    model's ``if`` guards become masks with exact-zero masked
    contributions; the ``pow``-carrying GC curve stays an elementwise
    Python call.
    """
    if calib is None:
        calib = Calibration()
    n = b.n
    s_count = plan.n_stages
    core_speed = b.core_speed

    n_tasks = np.where(
        plan.hint >= 0,
        np.broadcast_to(plan.hint, (s_count, n)),
        np.broadcast_to(np.maximum(1, b.parallelism), (s_count, n)),
    )

    # Upstream map-output counts: integer sums of earlier rows, exact.
    num_map = np.zeros((s_count, n), dtype=np.int64)
    for row, dep_rows in enumerate(plan.deps):
        for d in dep_rows:
            num_map[row] += n_tasks[d]

    # --- per-task data volumes ---------------------------------------------
    input_pt = plan.input_mb / n_tasks
    cached_pt = plan.cached_read_mb / n_tasks
    shuffle_read_pt = plan.shuffle_read_mb / n_tasks
    shuffle_write_pt = plan.shuffle_write_mb / n_tasks
    output_pt = plan.output_mb_eff / n_tasks

    # --- per-stage cache fit -----------------------------------------------
    needed = plan.cached_mb * b.cache_footprint
    stored = np.minimum(needed, b.cache_capacity)
    hit = np.divide(stored, needed, out=np.ones((s_count, n)),
                    where=needed != 0)

    cpu = np.zeros((s_count, n))
    disk = np.zeros((s_count, n))
    net = np.zeros((s_count, n))

    # --- operator computation -----------------------------------------------
    cpu = cpu + plan.cpu_s / n_tasks / core_speed

    # --- external input (HDFS-style: mostly node-local) ----------------------
    has_input = plan.has_input
    disk = disk + np.where(
        has_input, input_pt * (1.0 - b.remote_frac) / b.disk_share, 0.0,
    )
    net = net + np.where(has_input, input_pt * b.remote_frac / b.net_share, 0.0)

    # --- cached input ---------------------------------------------------------
    has_cached = plan.has_cached
    cpu = cpu + np.where(
        has_cached, cached_pt * hit * b.cache_read_cpu / core_speed, 0.0,
    )
    cpu = cpu + np.where(
        has_cached, cached_pt * hit / calib.cached_read_mb_s, 0.0,
    )
    miss = cached_pt * (1.0 - hit)
    missed = miss > 0
    to_disk = has_cached & missed & b.cache_miss_to_disk
    disk = disk + np.where(to_disk, miss / b.disk_share, 0.0)
    cpu = cpu + np.where(to_disk, miss * b.ser_deserialize / core_speed, 0.0)
    # Recompute the partition: re-run its producing chain (CPU) and
    # re-read its inputs — shuffle re-fetches go over the network,
    # source re-scans over the disk.
    recompute = has_cached & missed & ~b.cache_miss_to_disk
    reread = miss * plan.recompute_io
    disk = disk + np.where(recompute, 0.4 * reread / b.disk_share, 0.0)
    net = net + np.where(recompute, 0.6 * reread / b.net_share, 0.0)
    cpu = cpu + np.where(
        recompute,
        miss * (plan.recompute_cpu + calib.recompute_cpu_s_per_mb) / core_speed,
        0.0,
    )

    # --- shuffle read ----------------------------------------------------------
    has_sr = plan.has_shuffle_read
    rf = max(0.0, min(1.0, b.remote_nodes_fraction + 0.05))
    sr_cpu = shuffle_read_pt * b.ser_deserialize
    sr_cpu = np.where(
        b.shuffle_compress, sr_cpu + shuffle_read_pt * b.codec_decompress, sr_cpu,
    )
    wire = np.where(
        b.shuffle_compress, shuffle_read_pt * b.codec_ratio, shuffle_read_pt,
    )
    sr_cpu = sr_cpu + np.maximum(1, num_map) * b.per_block_s
    cpu = cpu + np.where(has_sr, sr_cpu / core_speed, 0.0)
    disk = disk + np.where(has_sr, wire * (1.0 - rf) / b.disk_share, 0.0)
    net = net + np.where(has_sr, wire * rf / b.net_share / b.fetch_efficiency, 0.0)

    # --- shuffle write ----------------------------------------------------------
    has_sw = plan.has_shuffle_write
    sw_cpu = shuffle_write_pt * b.ser_serialize
    sw_cpu = np.where(
        b.shuffle_compress, sw_cpu + shuffle_write_pt * b.codec_compress, sw_cpu,
    )
    sw_disk = np.where(
        b.shuffle_compress, shuffle_write_pt * b.codec_ratio, shuffle_write_pt,
    )
    bypass = b.parallelism <= b.bypass_threshold
    flush = np.where(bypass, b.flush_base * 1.05, b.flush_base)
    sw_cpu = np.where(bypass, sw_cpu, sw_cpu + shuffle_write_pt * 0.0030)
    cpu = cpu + np.where(has_sw, sw_cpu / core_speed, 0.0)
    disk = disk + np.where(has_sw, sw_disk * flush / b.disk_share, 0.0)

    # --- final output ------------------------------------------------------------
    has_out = plan.has_output
    cpu = cpu + np.where(has_out, output_pt * b.ser_serialize / core_speed, 0.0)
    disk = disk + np.where(has_out, output_pt / b.disk_share, 0.0)

    # --- memory: spill or die ------------------------------------------------------
    working_set = (
        shuffle_read_pt * b.ser_expansion
        + shuffle_write_pt * calib.shuffle_write_buffer_fraction * b.ser_expansion
        + (input_pt + cached_pt) * calib.map_working_set_fraction * b.ser_expansion
    )
    storage_per_exec = stored / b.executors
    available = (
        np.maximum(0.0, b.unified_mb - np.minimum(storage_per_exec, b.immune_mb))
        + b.offheap_mb
    ) / b.concurrent
    floor = 32.0 + working_set * plan.unspillable
    oom = available < floor
    spills = ~oom & (working_set > available)
    spilled_raw = np.where(spills, working_set - available, 0.0)
    merge_passes = np.where(spills, working_set // np.maximum(available, 1.0), 0.0)
    spilled_logical = spilled_raw / b.ser_expansion
    spill_cpu = spilled_logical * (b.ser_serialize + b.ser_deserialize)
    spill_cpu = np.where(
        b.spill_compress,
        spill_cpu + spilled_logical * (b.codec_compress + b.codec_decompress),
        spill_cpu,
    )
    spill_bytes = np.where(
        b.spill_compress, spilled_logical * b.codec_ratio, spilled_logical,
    )
    spill_cpu = spill_cpu + merge_passes * spilled_logical * calib.spill_merge_cpu_s_per_mb
    cpu = cpu + np.where(spills, spill_cpu / core_speed, 0.0)
    disk = disk + np.where(spills, 2.0 * spill_bytes / b.disk_share, 0.0)

    # --- GC pressure ----------------------------------------------------------------
    resident = np.minimum(working_set, available) * b.concurrent
    occupancy = (storage_per_exec + resident + RESERVED_MB) / np.maximum(b.heap_mb, 1.0)
    # gc_fraction raises occupancy to the 4th power; numpy's pow kernel
    # differs from Python's in the last ulp, so evaluate elementwise.
    gc = np.array(
        [gc_fraction(o) for o in occupancy.ravel().tolist()]
    ).reshape(s_count, n) * cpu

    # Interference slows computation too (shared cores / hyperthread pairs).
    cpu = cpu * b.env_cpu
    gc = gc * b.env_cpu

    # --- scheduling idle from locality wait -------------------------------------------
    effective_slots = b.executors * b.concurrent
    waves = np.maximum(1.0, n_tasks / np.maximum(1, effective_slots))
    raw_idle = np.minimum(
        b.locality_wait, 0.02 * b.locality_wait * waves,
    ) / waves
    idle = np.where(
        (has_input | has_cached) & (b.locality_wait > 0), raw_idle, 0.0,
    )

    total = cpu + disk + net + gc + calib.task_launch_s + idle
    driver = (
        calib.driver_stage_overhead_s
        + calib.driver_dispatch_s_per_task * n_tasks
        + plan.collect_mb * calib.collect_s_per_mb
    )
    return PlanCostBatch(
        num_tasks=n_tasks,
        cpu_s=cpu,
        disk_s=disk,
        net_s=net,
        gc_s=gc,
        idle_s=idle,
        total_s=total,
        driver_s=driver,
        spilled_mb=spilled_logical,
        spill_mb_total=spilled_logical * n_tasks,
        oom=oom,
    )
