"""Reference implementations that the identity suites and perf benches
compare the shipped hot paths against.

Each is the code a fast path replaced, kept verbatim so "bit-identical"
has something to be identical to and the benches have a baseline to
time:

* :class:`ScalarSimulator` runs one execution stage by stage: per-stage
  scalar costing (:func:`compute_stage_cost`, with the shuffle and spill
  helpers it calls), list scheduling with ``np.median``/``np.quantile``
  reductions (:func:`schedule_stage`), and the injected faults applied
  inline.  The shipped :class:`SparkSimulator` runs every execution,
  one or many, through the stage-major ``run_batch``.
* :class:`RebuildBayesOptTuner` re-encodes the whole history on every
  ``suggest()`` (the shipped :class:`BayesOptTuner` keeps append-only
  buffers and a running incumbent).
* :func:`find_similar_workloads_scan` makes one full-log pass per
  workload key (the shipped lookup reads the signature index).
* :class:`UngroupedExecutor` runs an engine batch one ``run()`` per
  request (the shipped :class:`SerialExecutor` groups same-workload
  requests into ``run_batch`` calls).
* :func:`run_production_reference` runs a deployment's recurring
  executions with its own ``run()``, charge and record per run (the
  shipped :meth:`TuningService.run_production` sends each run through
  ``ingest_production_runs``).

Import from the repository root: ``from tests.oracles import ...``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.cloud.cluster import Cluster
from repro.cloud.interference import QUIET, Environment
from repro.config.constraints import ResourceGrant, grant_resources
from repro.core.characterization import signature
from repro.core.history import HistoryStore
from repro.core.retuning import DriftDetector, PageHinkleyDetector
from repro.core.service import Deployment, ProductionRun, TuningService
from repro.core.similarity import SimilarWorkload, signature_distance
from repro.sparksim.costmodel import Calibration
from repro.sparksim.dag import CompiledStage, CompiledWorkload, StageProfile
from repro.sparksim.executor import RESERVED_MB, ExecutorModel
from repro.sparksim.faults import NO_FAULTS
from repro.sparksim.memory import cache_statics, gc_fraction
from repro.sparksim.metrics import (
    ExecutionResult,
    StageMetrics,
    TaskMetrics,
    oom_failure_reason,
)
from repro.sparksim.scheduler import _list_schedule, _sample_durations
from repro.sparksim.shuffle import codec_of, serializer_of
from repro.sparksim.simulator import _MAX_ATTEMPTS, _REJECT_S, SparkSimulator
from repro.tuning.bo.bayesopt import BayesOptTuner

__all__ = ["ScalarSimulator", "compute_stage_cost", "TaskCost", "StageCost",
           "resolve_num_tasks", "schedule_stage", "StageSchedule",
           "shuffle_read", "shuffle_write", "ShuffleCost", "spill_outcome",
           "SpillOutcome", "CachePlan", "plan_cache",
           "execution_capacity_mb", "execution_per_task_mb",
           "RebuildBayesOptTuner",
           "find_similar_workloads_scan", "UngroupedExecutor",
           "run_production_reference"]


# --- the scalar simulator ------------------------------------------------------

@dataclass(frozen=True)
class ShuffleCost:
    """CPU and byte costs of moving one task's shuffle data."""

    cpu_s: float        # serialization + compression work
    disk_mb: float      # bytes touching local disk
    net_mb: float       # bytes crossing the network


def shuffle_write(data_mb: float, config: Mapping, num_reduce_tasks: int = 1) -> ShuffleCost:
    """Cost of one map task writing ``data_mb`` of shuffle output.

    Small ``spark.shuffle.file.buffer`` values force frequent flushes,
    inflating effective disk traffic; the sort path costs extra CPU unless
    the bypass-merge threshold admits the reduce-partition count.
    """
    if data_mb < 0:
        raise ValueError("data_mb must be non-negative")
    ser = serializer_of(config)
    cpu = data_mb * ser.serialize_s_per_mb
    disk_mb = data_mb
    if config.get("spark.shuffle.compress", True):
        codec = codec_of(config)
        cpu += data_mb * codec.compress_s_per_mb
        disk_mb = data_mb * codec.ratio
    buffer_kb = float(config.get("spark.shuffle.file.buffer", 32))
    flush_overhead = 1.0 + 0.08 * (32.0 / buffer_kb) ** 0.5
    bypass = num_reduce_tasks <= int(
        config.get("spark.shuffle.sort.bypassMergeThreshold", 200)
    )
    if bypass:
        # Hash-style path: no sort CPU, slightly more file overhead.
        flush_overhead *= 1.05
    else:
        cpu += data_mb * 0.0030  # sort-merge pass
    return ShuffleCost(cpu_s=cpu, disk_mb=disk_mb * flush_overhead, net_mb=0.0)


def shuffle_read(data_mb: float, config: Mapping, num_map_tasks: int,
                 remote_fraction: float = 0.875) -> tuple[ShuffleCost, float]:
    """Cost of one reduce task fetching ``data_mb`` of shuffle input.

    Returns ``(cost, fetch_efficiency)``.  ``fetch_efficiency`` in (0, 1]
    models request pipelining: a small ``spark.reducer.maxSizeInFlight``
    under-utilizes the network.  Per-map-output connection setup is
    amortized by ``spark.shuffle.io.numConnectionsPerPeer`` and
    consolidated files.
    """
    if data_mb < 0:
        raise ValueError("data_mb must be non-negative")
    if not 0.0 <= remote_fraction <= 1.0:
        raise ValueError("remote_fraction must be in [0, 1]")
    ser = serializer_of(config)
    cpu = data_mb * ser.deserialize_s_per_mb
    wire_mb = data_mb
    if config.get("spark.shuffle.compress", True):
        codec = codec_of(config)
        cpu += data_mb * codec.decompress_s_per_mb
        wire_mb = data_mb * codec.ratio

    inflight = float(config.get("spark.reducer.maxSizeInFlight", 48))
    fetch_efficiency = min(1.0, (inflight / 48.0) ** 0.35)
    fetch_efficiency = max(fetch_efficiency, 0.35)

    connections = int(config.get("spark.shuffle.io.numConnectionsPerPeer", 1))
    per_block_s = 0.00025 / max(1, connections)
    if config.get("spark.shuffle.consolidateFiles", False):
        per_block_s *= 0.4
    cpu += num_map_tasks * per_block_s

    cost = ShuffleCost(
        cpu_s=cpu,
        disk_mb=wire_mb * (1.0 - remote_fraction),
        net_mb=wire_mb * remote_fraction,
    )
    return cost, fetch_efficiency


@dataclass(frozen=True)
class SpillOutcome:
    """Spill behaviour of one task given its working set."""

    working_set_mb: float
    available_mb: float
    spilled_mb: float      # logical MB written+read back to disk
    merge_passes: int      # extra merge rounds over spilled runs
    oom: bool


def spill_outcome(working_set_mb: float, available_mb: float,
                  unspillable_fraction: float) -> SpillOutcome:
    """Decide whether a task fits, spills, or dies.

    The unspillable floor models aggregation hash maps and record buffers
    that must be heap-resident: when even that floor exceeds the per-task
    execution memory, the task OOMs (Spark would retry and then fail the
    stage).
    """
    if working_set_mb < 0 or available_mb < 0:
        raise ValueError("sizes must be non-negative")
    floor = 32.0 + working_set_mb * unspillable_fraction
    if available_mb < floor:
        return SpillOutcome(working_set_mb, available_mb,
                            spilled_mb=0.0, merge_passes=0, oom=True)
    if working_set_mb <= available_mb:
        return SpillOutcome(working_set_mb, available_mb,
                            spilled_mb=0.0, merge_passes=0, oom=False)
    spilled = working_set_mb - available_mb
    passes = int(working_set_mb // max(available_mb, 1.0))
    return SpillOutcome(working_set_mb, available_mb,
                        spilled_mb=spilled, merge_passes=passes, oom=False)


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
    """Fit the cached datasets into aggregate storage memory, with the
    footprint, per-read CPU and miss policy of
    :func:`~repro.sparksim.memory.cache_statics`."""
    if cached_logical_mb < 0:
        raise ValueError("cached_logical_mb must be non-negative")
    footprint, read_cpu, miss_to_disk = cache_statics(config)
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
        miss_to_disk=miss_to_disk,
        recompute_cpu_s_per_mb=recompute_cpu_s_per_mb,
        recompute_io_mb_per_mb=recompute_io_mb_per_mb,
    )


def execution_capacity_mb(executor: ExecutorModel,
                          storage_used_mb: float) -> float:
    """Execution pool size given the currently cached footprint.

    Execution can evict cached blocks down to the immune storage
    region, and additionally owns the off-heap pool.
    """
    protected = min(storage_used_mb, executor.storage_immune_mb)
    return max(0.0, executor.unified_mb - protected) + executor.offheap_mb


def execution_per_task_mb(executor: ExecutorModel,
                          storage_used_mb: float) -> float:
    return (execution_capacity_mb(executor, storage_used_mb)
            / executor.concurrent_tasks)


@dataclass(frozen=True)
class TaskCost:
    """Deterministic cost components of one task of a stage."""

    cpu_s: float
    disk_s: float
    net_s: float
    gc_s: float
    launch_s: float
    idle_s: float            # locality-wait scheduling idle
    spilled_mb: float
    oom: bool

    @property
    def total_s(self) -> float:
        return self.cpu_s + self.disk_s + self.net_s + self.gc_s + self.launch_s + self.idle_s


@dataclass(frozen=True)
class StageCost:
    """Per-stage cost: one representative task plus driver-side overheads."""

    stage: StageProfile
    num_tasks: int
    task: TaskCost
    driver_s: float
    # observable byte counters for metrics
    input_mb: float
    cached_read_mb: float
    shuffle_read_mb: float
    shuffle_write_mb: float
    spill_mb_total: float


def resolve_num_tasks(stage: StageProfile, config: Mapping) -> int:
    if stage.num_tasks_hint is not None:
        return max(1, int(stage.num_tasks_hint))
    return max(1, int(config["spark.default.parallelism"]))


def compute_stage_cost(
    stage: StageProfile,
    config: Mapping,
    cluster: Cluster,
    grant: ResourceGrant,
    executor: ExecutorModel,
    cache: CachePlan,
    env: Environment,
    num_map_tasks: int = 0,
    calib: Calibration | None = None,
) -> StageCost:
    """Compute the cost of ``stage`` under ``config`` on ``cluster``.

    ``cache`` describes the current cache fit (for stages that read cached
    data) and ``num_map_tasks`` the upstream map-output count (for stages
    that read a shuffle).
    """
    if calib is None:
        calib = Calibration()
    if grant.executors < 1:
        raise ValueError("cannot cost a stage with zero granted executors")

    n_tasks = resolve_num_tasks(stage, config)
    ser = serializer_of(config)
    core_speed = cluster.instance.cpu_speed

    # --- per-task data volumes ---------------------------------------------
    input_pt = stage.input_mb / n_tasks
    cached_pt = stage.cached_read_mb / n_tasks
    shuffle_read_pt = stage.shuffle_read_mb / n_tasks
    shuffle_write_pt = stage.shuffle_write_mb / n_tasks
    output_pt = (stage.output_mb / n_tasks) if stage.writes_output else 0.0

    # --- resource sharing on a node ------------------------------------------
    execs_per_node = max(1.0, grant.executors / cluster.count)
    tasks_per_node = execs_per_node * executor.concurrent_tasks
    disk_share = cluster.node_disk_mb_s / tasks_per_node / env.disk_factor
    net_share = cluster.node_network_mb_s / tasks_per_node / env.network_factor
    remote_nodes_fraction = (
        (cluster.count - 1) / cluster.count if cluster.count > 1 else 0.0
    )

    cpu = 0.0
    disk = 0.0
    net = 0.0

    # --- operator computation -------------------------------------------------
    cpu += stage.cpu_s / n_tasks / core_speed

    # --- external input (HDFS-style: mostly node-local) ------------------------
    if input_pt > 0:
        locality_wait = float(config.get("spark.locality.wait", 3.0))
        remote_frac = 0.12 * pow(2.718281828, -locality_wait / 1.5)
        disk += input_pt * (1.0 - remote_frac) / disk_share
        net += input_pt * remote_frac / net_share

    # --- cached input -----------------------------------------------------------
    if cached_pt > 0:
        hit = cache.hit_fraction
        cpu += cached_pt * hit * cache.read_cpu_s_per_mb / core_speed
        cpu += cached_pt * hit / calib.cached_read_mb_s  # memory scan
        miss = cached_pt * (1.0 - hit)
        if miss > 0:
            if cache.miss_to_disk:
                disk += miss / disk_share
                cpu += miss * ser.deserialize_s_per_mb / core_speed
            else:
                # Recompute the partition: re-run its producing chain
                # (CPU) and re-read its inputs — shuffle re-fetches go
                # over the network, source re-scans over the disk.
                reread = miss * cache.recompute_io_mb_per_mb
                disk += 0.4 * reread / disk_share
                net += 0.6 * reread / net_share
                cpu += miss * (
                    cache.recompute_cpu_s_per_mb + calib.recompute_cpu_s_per_mb
                ) / core_speed

    # --- shuffle read --------------------------------------------------------------
    if shuffle_read_pt > 0:
        cost, fetch_eff = shuffle_read(
            shuffle_read_pt, config,
            num_map_tasks=max(1, num_map_tasks),
            remote_fraction=max(0.0, min(1.0, remote_nodes_fraction + 0.05)),
        )
        cpu += cost.cpu_s / core_speed
        disk += cost.disk_mb / disk_share
        net += cost.net_mb / net_share / fetch_eff

    # --- shuffle write -----------------------------------------------------------------
    if shuffle_write_pt > 0:
        reduce_tasks = int(config["spark.default.parallelism"])
        cost = shuffle_write(shuffle_write_pt, config, num_reduce_tasks=reduce_tasks)
        cpu += cost.cpu_s / core_speed
        disk += cost.disk_mb / disk_share

    # --- final output -------------------------------------------------------------------
    if output_pt > 0:
        cpu += output_pt * ser.serialize_s_per_mb / core_speed
        disk += output_pt / disk_share

    # --- memory: spill or die -------------------------------------------------------------
    working_set = (
        shuffle_read_pt * ser.expansion
        + shuffle_write_pt * calib.shuffle_write_buffer_fraction * ser.expansion
        + (input_pt + cached_pt) * calib.map_working_set_fraction * ser.expansion
    )
    storage_per_exec = cache.stored_mb / grant.executors if grant.executors else 0.0
    available = execution_per_task_mb(executor, storage_per_exec)
    spill = spill_outcome(working_set, available, stage.unspillable_fraction)
    spilled_logical = spill.spilled_mb / ser.expansion
    if spilled_logical > 0:
        spill_bytes = spilled_logical
        spill_cpu = spilled_logical * (ser.serialize_s_per_mb + ser.deserialize_s_per_mb)
        if config.get("spark.shuffle.spill.compress", True):
            codec = codec_of(config)
            spill_bytes *= codec.ratio
            spill_cpu += spilled_logical * (
                codec.compress_s_per_mb + codec.decompress_s_per_mb
            )
        spill_cpu += spill.merge_passes * spilled_logical * calib.spill_merge_cpu_s_per_mb
        cpu += spill_cpu / core_speed
        disk += 2.0 * spill_bytes / disk_share  # write + read back

    # --- GC pressure ----------------------------------------------------------------------
    resident = min(working_set, available) * executor.concurrent_tasks
    occupancy = (storage_per_exec + resident + RESERVED_MB) / max(
        executor.heap_mb, 1.0
    )
    gc = gc_fraction(occupancy) * cpu

    # Interference slows computation too (shared cores / hyperthread pairs).
    cpu *= env.cpu_factor
    gc *= env.cpu_factor

    # --- scheduling idle from locality wait -------------------------------------------------
    locality_wait = float(config.get("spark.locality.wait", 3.0))
    effective_slots = grant.executors * executor.concurrent_tasks
    waves = max(1.0, n_tasks / max(1, effective_slots))
    idle = 0.0
    if (input_pt > 0 or cached_pt > 0) and locality_wait > 0:
        # Waiting for local slots delays a fraction of waves.
        idle = min(locality_wait, 0.02 * locality_wait * waves) / waves

    task = TaskCost(
        cpu_s=cpu,
        disk_s=disk,
        net_s=net,
        gc_s=gc,
        launch_s=calib.task_launch_s,
        idle_s=idle,
        spilled_mb=spilled_logical,
        oom=spill.oom,
    )

    driver = (
        calib.driver_stage_overhead_s
        + calib.driver_dispatch_s_per_task * n_tasks
        + stage.collect_mb * calib.collect_s_per_mb
    )
    return StageCost(
        stage=stage,
        num_tasks=n_tasks,
        task=task,
        driver_s=driver,
        input_mb=stage.input_mb,
        cached_read_mb=stage.cached_read_mb,
        shuffle_read_mb=stage.shuffle_read_mb,
        shuffle_write_mb=stage.shuffle_write_mb,
        spill_mb_total=spilled_logical * n_tasks,
    )


@dataclass(frozen=True)
class StageSchedule:
    """Outcome of scheduling one stage."""

    makespan_s: float
    task_metrics: TaskMetrics
    speculated_tasks: int
    wasted_task_seconds: float


def _apply_speculation(durations: np.ndarray, config: Mapping) -> tuple[np.ndarray, int, float]:
    """Clamp the straggler tail as speculative copies overtake originals."""
    median = float(np.median(durations))
    multiplier = float(config.get("spark.speculation.multiplier", 1.5))
    quantile = float(config.get("spark.speculation.quantile", 0.75))
    threshold = median * max(1.01, multiplier)
    # Speculation only monitors once `quantile` of tasks completed; tasks
    # below that completion point are never candidates.
    cutoff = float(np.quantile(durations, quantile))
    candidates = durations > max(threshold, cutoff)
    n_spec = int(candidates.sum())
    if n_spec == 0:
        return durations, 0, 0.0
    clamped = durations.copy()
    # The speculative copy starts at the threshold and runs a fresh median
    # duration; the task finishes at whichever copy is first.
    finish_with_copy = threshold + median
    clamped[candidates] = np.minimum(clamped[candidates], finish_with_copy)
    wasted = float(n_spec * median)  # duplicate occupancy
    return clamped, n_spec, wasted


def schedule_stage(n_tasks: int, base_task_s: float, slots: int,
                   config: Mapping, rng: np.random.Generator,
                   calib: Calibration | None = None,
                   noise: bool = True) -> StageSchedule:
    """List-schedule ``n_tasks`` noisy tasks onto ``slots`` slots."""
    if calib is None:
        calib = Calibration()
    if n_tasks < 1:
        raise ValueError("n_tasks must be >= 1")
    if slots < 1:
        raise ValueError("slots must be >= 1")
    if base_task_s < 0:
        raise ValueError("base_task_s must be non-negative")
    if noise:
        durations = _sample_durations(n_tasks, base_task_s, rng, calib)
    else:
        durations = np.full(n_tasks, base_task_s)

    speculated, wasted = 0, 0.0
    if config.get("spark.speculation", False) and noise and n_tasks >= 4:
        durations, speculated, wasted = _apply_speculation(durations, config)
        # Duplicate copies occupy slots: model as extra tasks of median size.
        if speculated:
            extra = np.full(speculated, float(np.median(durations)) * 0.5)
            durations = np.concatenate([durations, extra])

    makespan = _list_schedule(durations, slots)
    real = durations[:n_tasks]
    metrics = TaskMetrics(
        count=n_tasks,
        mean_s=float(real.sum() / real.size),
        p50_s=float(np.median(real)),
        p95_s=float(np.quantile(real, 0.95)),
        max_s=float(real.max()),
    )
    return StageSchedule(
        makespan_s=float(makespan),
        task_metrics=metrics,
        speculated_tasks=speculated,
        wasted_task_seconds=wasted,
    )


class ScalarSimulator(SparkSimulator):
    """:class:`SparkSimulator` whose ``run()`` is the scalar path: one
    execution, stage by stage, faults applied inline.

    ``run_batch`` is inherited; ``run()`` never calls it.
    """

    @classmethod
    def matching(cls, simulator: SparkSimulator) -> "ScalarSimulator":
        """The reference for ``simulator``: the same calibration, noise
        and fault plan."""
        return cls(calibration=simulator.calibration, noise=simulator.noise,
                   fault_plan=simulator.fault_plan)

    def run(self, workload, input_mb: float, cluster: Cluster,
            config: Mapping[str, Any],
            env: Environment = QUIET, seed: int = 0) -> ExecutionResult:
        """Execute ``workload`` at ``input_mb`` scale and return metrics."""
        compiled = self.compile_workload(workload, input_mb)
        return self._run_compiled(compiled, cluster, config, env=env, seed=seed)

    def _run_compiled(self, compiled: CompiledWorkload, cluster: Cluster,
                      config: Mapping[str, Any], env: Environment = QUIET,
                      seed: int = 0) -> ExecutionResult:
        calib = self.calibration
        name = compiled.name
        input_mb = compiled.input_mb
        rng = np.random.default_rng(seed)
        # Faults ride their own (salt, seed)-keyed stream: drawing them
        # never perturbs the noise rng, so a non-firing plan is a no-op.
        faults = (
            self.fault_plan.draw(seed) if self.fault_plan is not None
            else NO_FAULTS
        )
        injected: list[str] = []
        if faults.env_multiplier > 1.0:
            env = faults.spike_env(env)
            injected.append(f"env_spike:x{faults.env_multiplier:g}")
        grant = grant_resources(config, cluster)
        if grant.executors < 1:
            return ExecutionResult(
                workload=name, input_mb=input_mb, runtime_s=_REJECT_S,
                success=False, executors_granted=0,
                executors_requested=grant.requested_executors,
                failure_reason="executor container does not fit any node",
                environment_factor=env.combined(),
                faults_injected=tuple(injected),
            )

        executor = ExecutorModel.from_config(config)
        # spark.task.cpus reserves multiple cores per task: the number of
        # concurrently running tasks is executors x (cores // task.cpus).
        slots = max(1, grant.executors * executor.concurrent_tasks)
        runtime = calib.app_startup_base_s + calib.app_startup_per_executor_s * grant.executors
        stage_metrics: list[StageMetrics] = []
        tasks_of_stage: dict[int, int] = {}
        ordinal = 0          # executed-stage counter; targets stage faults

        for cjob in compiled.jobs:
            runtime += calib.job_submit_s
            for cstage in cjob.stages:
                stage = cstage.stage
                cache = plan_cache(
                    cstage.cached_mb, grant.executors, executor, config,
                    recompute_cpu_s_per_mb=cstage.recompute_cpu_s_per_mb,
                    recompute_io_mb_per_mb=cstage.recompute_io_mb_per_mb,
                )
                num_map_tasks = sum(
                    tasks_of_stage.get(dep, 0) for dep in stage.depends_on
                )
                cost = compute_stage_cost(
                    stage, config, cluster, grant, executor, cache, env,
                    num_map_tasks=num_map_tasks, calib=calib,
                )
                tasks_of_stage[stage.stage_id] = cost.num_tasks

                if ordinal == faults.oom_stage:
                    # Injected container kill: retries then application abort,
                    # the same expensive crash shape as a genuine OOM.
                    wasted = cost.task.total_s * _MAX_ATTEMPTS + cost.driver_s
                    runtime += wasted
                    stage_metrics.append(self._failed_stage(stage, cost, wasted))
                    injected.append(f"oom_kill:stage{ordinal}")
                    return ExecutionResult(
                        workload=name, input_mb=input_mb, runtime_s=runtime,
                        success=False, stages=stage_metrics,
                        executors_granted=grant.executors,
                        executors_requested=grant.requested_executors,
                        total_slots=slots,
                        failure_reason=(
                            f"fault-injected OOM kill in stage "
                            f"{stage.stage_id} ({stage.name})"
                        ),
                        environment_factor=env.combined(),
                        faults_injected=tuple(injected),
                    )

                if cost.task.oom:
                    # Retries then application abort.
                    wasted = cost.task.total_s * _MAX_ATTEMPTS + cost.driver_s
                    runtime += wasted
                    stage_metrics.append(self._failed_stage(stage, cost, wasted))
                    return ExecutionResult(
                        workload=name, input_mb=input_mb, runtime_s=runtime,
                        success=False, stages=stage_metrics,
                        executors_granted=grant.executors,
                        executors_requested=grant.requested_executors,
                        total_slots=slots,
                        failure_reason=oom_failure_reason(
                            stage.stage_id, stage.name, cost.task.spilled_mb,
                        ),
                        environment_factor=env.combined(),
                        faults_injected=tuple(injected),
                    )

                schedule = schedule_stage(
                    cost.num_tasks, cost.task.total_s, slots,
                    config, rng, calib=calib, noise=self.noise,
                )
                makespan = schedule.makespan_s
                if ordinal == faults.straggler_stage:
                    makespan *= faults.straggler_factor
                    injected.append(
                        f"straggler:stage{ordinal}:x{faults.straggler_factor:g}"
                    )
                if ordinal == faults.loss_stage and faults.loss_fraction > 0.0:
                    # In-flight work on the lost executors re-runs, and every
                    # later stage schedules onto the surviving slots only.
                    makespan += schedule.makespan_s * faults.loss_fraction
                    lost = min(
                        grant.executors - 1,
                        max(1, round(grant.executors * faults.loss_fraction)),
                    )
                    if lost > 0:
                        slots = max(
                            1,
                            (grant.executors - lost) * executor.concurrent_tasks,
                        )
                    injected.append(f"executor_loss:stage{ordinal}:{lost}")
                elapsed = makespan + cost.driver_s
                runtime += elapsed
                ordinal += 1
                n = cost.num_tasks
                stage_metrics.append(
                    StageMetrics(
                        stage_id=stage.stage_id,
                        name=stage.name,
                        num_tasks=n,
                        duration_s=elapsed,
                        input_mb=cost.input_mb,
                        cached_read_mb=cost.cached_read_mb,
                        shuffle_read_mb=cost.shuffle_read_mb,
                        shuffle_write_mb=cost.shuffle_write_mb,
                        spill_mb=cost.spill_mb_total,
                        cpu_time_s=cost.task.cpu_s * n,
                        gc_time_s=cost.task.gc_s * n,
                        io_time_s=cost.task.disk_s * n,
                        net_time_s=cost.task.net_s * n,
                        task_metrics=schedule.task_metrics,
                        output_mb=stage.output_mb if stage.writes_output else 0.0,
                        writes_output=stage.writes_output,
                    )
                )

        if self.noise:
            runtime *= float(
                rng.lognormal(
                    mean=-0.5 * calib.run_noise_sigma**2,
                    sigma=calib.run_noise_sigma,
                )
            )
        return ExecutionResult(
            workload=name, input_mb=input_mb, runtime_s=runtime, success=True,
            stages=stage_metrics,
            executors_granted=grant.executors,
            executors_requested=grant.requested_executors,
            total_slots=slots,
            environment_factor=env.combined(),
            faults_injected=tuple(injected),
        )

    @staticmethod
    def _failed_stage(stage: CompiledStage, cost: StageCost,
                      wasted: float) -> StageMetrics:
        return StageMetrics(
            stage_id=stage.stage_id, name=stage.name, num_tasks=cost.num_tasks,
            duration_s=wasted, input_mb=cost.input_mb,
            cached_read_mb=cost.cached_read_mb,
            shuffle_read_mb=cost.shuffle_read_mb,
            shuffle_write_mb=cost.shuffle_write_mb,
            spill_mb=0.0, cpu_time_s=0.0, gc_time_s=0.0, io_time_s=0.0,
            net_time_s=0.0, failed=True,
        )


# --- the other references ------------------------------------------------------

class RebuildBayesOptTuner(BayesOptTuner):
    """:class:`BayesOptTuner` with its surrogate data rebuilt per call."""

    @property
    def best(self):
        return super(BayesOptTuner, self).best

    def _training_data(self):
        """Rebuild the design matrix from scratch (reference path).

        The incremental buffers must stay bit-identical to this — the
        hypothesis identity suite drives both and compares.
        """
        pairs = self._warm + [(o.config, o.cost) for o in self.history]
        X = np.array([self.space.encode(c) for c, _ in pairs])
        y = np.array([cost for _, cost in pairs], dtype=float)
        if self.log_costs:
            y = np.log(np.maximum(y, 1e-9))
        return X, y

    def _model_data(self):
        return self._training_data()

    def _incumbent_y(self) -> float:
        _, y = self._training_data()
        return float(y.min())


def find_similar_workloads_scan(store: HistoryStore, target_signature: np.ndarray,
                                k: int = 3, exclude: tuple[str, str] | None = None,
                                max_distance: float = np.inf) -> list[SimilarWorkload]:
    """Pre-index reference path: one full-log scan *per workload key*.

    O(workloads × records) per query — the behaviour the index replaced.
    Kept verbatim so the identity suite can assert the indexed path
    returns bit-identical neighbours and the ``similarity_lookup_1M``
    bench can measure the speedup against it.
    """
    records = store.all()
    keys = sorted({r.key for r in records})
    neighbours = []
    for tenant, label in keys:
        if exclude is not None and (tenant, label) == exclude:
            continue
        runs = [r for r in records if r.key == (tenant, label) and r.success]
        if not runs:
            continue
        mean_sig = np.mean([r.signature for r in runs], axis=0)
        d = signature_distance(target_signature, mean_sig)
        if d <= max_distance:
            neighbours.append(SimilarWorkload(tenant, label, d, mean_sig))
    neighbours.sort(key=lambda s: s.distance)
    return neighbours[:k]


class UngroupedExecutor:
    """An engine executor that answers each request with its own ``run()``."""

    def __init__(self, simulator: SparkSimulator):
        self.simulator = simulator

    def run_batch(self, requests) -> list:
        return [
            self.simulator.run(
                r.workload, r.input_mb, r.cluster, r.config,
                env=r.env, seed=r.seed,
            )
            for r in requests
        ]


def run_production_reference(service: TuningService, deployment: Deployment,
                             input_sizes_mb,
                             detector: DriftDetector | None = None,
                             retune_budget: int = 15,
                             max_consecutive_failures: int = 3,
                             ) -> list[ProductionRun]:
    """:meth:`TuningService.run_production` with its own per-run
    simulate, charge and record: one ``run()``, ``charge_production`` and
    ``HistoryStore.record`` of ``signature(result)`` per run."""
    detector = detector or PageHinkleyDetector()
    if max_consecutive_failures < 1:
        raise ValueError("max_consecutive_failures must be >= 1")
    runs: list[ProductionRun] = []
    input_sizes_mb = list(input_sizes_mb)
    seed = service._next_seed(len(input_sizes_mb))
    consecutive_failures = 0
    for i, input_mb in enumerate(input_sizes_mb):
        env = service.interference.step() if service.interference else QUIET
        result = service.simulator.run(
            deployment.workload, input_mb, deployment.cluster,
            deployment.config, env=env, seed=seed + i,
        )
        service.ledger.charge_production(deployment.cluster, result.runtime_s)
        service.store.record(
            deployment.tenant, deployment.workload_label, input_mb,
            deployment.cluster.describe(), deployment.config, result,
            signature(result),
        )
        retune_reason = None
        detector_fed = False
        if result.success:
            consecutive_failures = 0
            detector_fed = True
            if detector.update(result.runtime_s):
                retune_reason = "drift"
        else:
            consecutive_failures += 1
            if consecutive_failures >= max_consecutive_failures:
                retune_reason = "failures"
        if retune_reason is not None:
            tuned, objective, _ = service.tune_disc(
                deployment.tenant, deployment.workload_label,
                deployment.workload, input_mb, deployment.cluster,
                budget=retune_budget, use_transfer=True,
            )
            _, deployment.config = objective.resolve(tuned.best_config)
            deployment.expected_runtime_s = tuned.best_cost
            deployment.input_mb = input_mb
            deployment.retuned_count += 1
            if retune_reason == "failures":
                # The detector re-baselines after any re-tune; a
                # drift alarm already reset it internally.
                detector.reset()
        runs.append(ProductionRun(
            index=i, runtime_s=result.runtime_s, success=result.success,
            input_mb=input_mb, retuned=retune_reason is not None,
            detector_fed=detector_fed,
            consecutive_failures=consecutive_failures,
            retune_reason=retune_reason,
        ))
        if retune_reason == "failures":
            consecutive_failures = 0
    return runs
