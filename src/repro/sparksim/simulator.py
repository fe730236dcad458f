"""The Spark application simulator.

Executes a workload (a sequence of jobs over RDD lineages) on a virtual
cluster under a given configuration and interference environment,
producing an :class:`~repro.sparksim.metrics.ExecutionResult` with
Spark-style per-stage metrics.

The execution pipeline mirrors Fig. 2 of the paper: jobs are compiled to
stage DAGs (:mod:`repro.sparksim.dag`), stages run in topological order,
each stage's tasks are costed analytically
(:mod:`repro.sparksim.costmodel`) and scheduled onto granted executor
slots (:mod:`repro.sparksim.scheduler`).  Configurations that do not fit
the cluster fail fast; tasks whose working set cannot even spill OOM and
fail the application after retries — both produce the expensive crash
behaviour Section IV of the paper describes.

Three throughput layers sit on top of the single-run path:

* a **compiled-plan cache**: the stage DAG and the cache-registry
  evolution are config-independent, so each ``(workload, input_mb,
  job-list fingerprint)`` compiles once and every candidate evaluation
  replays the immutable :class:`~repro.sparksim.dag.CompiledWorkload`;
* a **joint cost program**: :meth:`SparkSimulator.run_batch` costs all
  stages for the distinct (configuration, environment) object pairs of
  a batch in one fused ``(stages, columns)`` numpy sweep
  (:func:`~repro.sparksim.costmodel.compute_plan_cost_batch` over
  cached :class:`~repro.sparksim.costmodel.PlanArrays`) — an ingest
  batch of one deployed configuration costs a single column;
* **stage-major draws, shape-major scheduling**: every stage draws for
  every candidate before the next stage starts.  Each candidate keeps
  its own noise generator (pre-seeded by one vectorized sweep,
  :mod:`repro.sparksim.rngpool`) and draws from it exactly what
  :meth:`SparkSimulator.run` draws, in the same order — stage by stage,
  then the run-level noise — so reordering *across* generators is
  unobservable.  Candidates that share a stage's task count, slot
  count and speculation setting (every run of an ingest batch does)
  are sampled as one ``(rows, tasks)`` matrix with one masked
  straggler multiply, and the matrices of every stage with the same
  shape are scheduled in one call: each row's speculative clamp and
  copies, the greedy makespan as a vectorized argmin recurrence, and
  median / p95 / max from one row sort
  (:func:`~repro.sparksim.scheduler._schedule_rows`).  Groups below
  ``_MIN_MATRIX_ROWS`` are scheduled one row at a time at their own
  stage (:func:`~repro.sparksim.scheduler._schedule_1d`, the scalar
  scheduler's arithmetic on partition-kernel reductions).
  Results come back as a
  :class:`~repro.sparksim.metrics.RunBatch`, which keeps the columns
  and builds an :class:`ExecutionResult` only when indexed.

The contract of all three is *bit-identity*: item ``i`` of a batch
equals :meth:`SparkSimulator.run` for candidate ``i`` exactly, including
OOM/reject candidates and injected faults (fault-struck candidates drop
out of the batch and finish on the scalar path).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from ..cloud.cluster import Cluster
from ..cloud.interference import QUIET, Environment
from ..config.constraints import grant_resources
from ..config.space import Configuration
from .costmodel import (
    Calibration,
    PlanArrays,
    build_batch_inputs,
    build_plan_arrays,
    compute_plan_cost_batch,
    compute_stage_cost,
)
from .dag import CompiledWorkload, compile_workload, fingerprint_jobs
from .executor import ExecutorModel
from .faults import NO_FAULTS, FaultPlan
from .memory import plan_cache
from .metrics import (
    BatchColumns,
    ExecutionResult,
    RunBatch,
    StageMetrics,
    oom_failure_reason,
)
from .rngpool import GeneratorPool
from .scheduler import (
    _sample_duration_rows,
    _schedule_1d,
    _schedule_rows,
    schedule_stage,
)

if TYPE_CHECKING:
    from ..config.constraints import ResourceGrant
    from ..workloads.base import Workload
    from .costmodel import BatchInputs, PlanCostBatch, StageCost
    from .dag import CompiledStage
    from .rdd import Job

__all__ = ["SparkSimulator"]

#: wall-clock consumed before the cluster manager rejects an unsatisfiable
#: resource request (container negotiation + timeout)
_REJECT_S = 25.0

#: failed task attempts before Spark aborts the stage and the application
_MAX_ATTEMPTS = 4

#: fewest candidates sharing a stage's (task count, slot count,
#: speculation) that the batch path draws as one matrix, to be scheduled
#: with every other stage of that shape; smaller groups are drawn and
#: scheduled one row at a time at their own stage.  Measured on
#: default-calibration noise (DESIGN.md, "Stage-major scheduling"): the
#: matrix overtakes the per-row path at 2-4 rows for up to ~30 tasks on
#: 2-8 slots, the shapes production ingest sends, and at ~8 rows for 128
#: tasks on 16 slots; speculating groups cross over at about the same
#: sizes.  Merging the smaller groups into the shape matrices as well
#: made ``burst_mixed`` set-up and tune latency slower: tuning batches
#: are one-row groups of up to hundreds of tasks, where a vectorized step
#: per task loses to the per-row heap.
_MIN_MATRIX_ROWS = 4

#: a stage's (task count, slot count, speculation) for one cost column:
#: the rows of every stage with one shape are scheduled as one matrix
_Shape = tuple[int, int, tuple[float, float] | None]

#: one-column cost programs kept across ``run_batch`` calls (LRU).  An
#: entry is ~8 KB for a 2-stage plan.  A service shard's simulator held
#: at most 69 (``ingest_closed``), 184 (``burst_mixed``) and 334 (the
#: 1000-tenant load scenario) live deployments' columns, so this bound
#: keeps the LRU from cycling in every benchmarked scenario.
_COST_CACHE_SIZE = 1024


class SparkSimulator:
    """Simulates Spark application executions.

    Parameters
    ----------
    calibration:
        Cost-model constants; override for ablation studies.
    noise:
        When ``False``, task durations are deterministic (useful for
        model unit tests); benches keep it ``True``.
    fault_plan:
        Optional :class:`~repro.sparksim.faults.FaultPlan`; faults are
        drawn deterministically from each run's seed (never from the
        noise stream), so injected scenarios are reproducible and a
        non-firing plan leaves results bit-identical to no plan.
    plan_cache_size:
        Number of compiled workload plans kept (LRU); 0 disables plan
        caching and recompiles on every run (the throughput benchmark
        uses this to measure the cache's contribution).  Plans are
        immutable and config-independent; the cache only trades memory
        for re-compilation time, never changes results.
    """

    def __init__(self, calibration: Calibration | None = None, noise: bool = True,
                 fault_plan: FaultPlan | None = None, plan_cache_size: int = 64):
        self.calibration = calibration or Calibration()
        self.noise = noise
        self.fault_plan = fault_plan
        if plan_cache_size < 0:
            raise ValueError("plan_cache_size must be >= 0")
        self.plan_cache_size = plan_cache_size
        # Identity tier: (id(workload), input_mb) -> (workload, compiled).
        # Holding the workload object strongly pins its id, so a hit is
        # guaranteed to be the same object (ids are only reused after
        # collection).  Content tier: (name, input_mb, fingerprint) ->
        # compiled, so equal-content workload *objects* share one plan
        # while same-named workloads with different job lists never
        # collide (the fingerprint is part of the key).
        self._plan_cache_by_id: OrderedDict = OrderedDict()
        self._plan_cache_by_content: OrderedDict = OrderedDict()
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        # Joint-program cache: id(compiled) -> (compiled, PlanArrays).
        # Holding the compiled plan strongly pins its id, like the plan
        # cache's identity tier.
        self._plan_arrays_cache: OrderedDict = OrderedDict()
        # Cost-program cache for recurring one-column batches:
        # (id(plan), id(config), cluster, env, calibration) ->
        # (plan, config, BatchInputs, PlanCostBatch); the strong refs pin
        # both ids.
        self._cost_cache: OrderedDict = OrderedDict()
        self.cost_cache_hits = 0
        self.cost_cache_misses = 0
        # Pooled per-candidate noise generators for the batch fast path.
        self._rng_pool = GeneratorPool()

    # --- plan cache -------------------------------------------------------
    def compile_workload(self, workload: Workload,
                         input_mb: float) -> CompiledWorkload:
        """Return the (cached) compiled plan for ``workload`` at ``input_mb``.

        Assumes ``workload.jobs()`` is pure (same object, same job list)
        — true for every workload in :mod:`repro.workloads`.  Distinct
        objects fall through to a content fingerprint, so two same-named
        workloads with different job lists get distinct plans.
        """
        if self.plan_cache_size == 0:
            self.plan_cache_misses += 1
            return compile_workload(
                workload.name, input_mb, workload.jobs(input_mb),
            )
        id_key = (id(workload), float(input_mb))
        hit = self._plan_cache_by_id.get(id_key)
        if hit is not None and hit[0] is workload:
            self._plan_cache_by_id.move_to_end(id_key)
            self.plan_cache_hits += 1
            return hit[1]
        jobs = workload.jobs(input_mb)
        fingerprint = fingerprint_jobs(jobs)
        content_key = (workload.name, float(input_mb), fingerprint)
        compiled = self._plan_cache_by_content.get(content_key)
        if compiled is not None:
            self._plan_cache_by_content.move_to_end(content_key)
            self.plan_cache_hits += 1
        else:
            self.plan_cache_misses += 1
            compiled = compile_workload(
                workload.name, input_mb, jobs, fingerprint=fingerprint,
            )
            self._plan_cache_by_content[content_key] = compiled
            while len(self._plan_cache_by_content) > self.plan_cache_size:
                self._plan_cache_by_content.popitem(last=False)
        self._plan_cache_by_id[id_key] = (workload, compiled)
        while len(self._plan_cache_by_id) > self.plan_cache_size:
            self._plan_cache_by_id.popitem(last=False)
        return compiled

    # --- single-candidate path -------------------------------------------
    def run(self, workload: Workload, input_mb: float, cluster: Cluster,
            config: Mapping[str, Any],
            env: Environment = QUIET, seed: int = 0) -> ExecutionResult:
        """Execute ``workload`` at ``input_mb`` scale and return metrics."""
        compiled = self.compile_workload(workload, input_mb)
        return self._run_compiled(compiled, cluster, config, env=env, seed=seed)

    def run_jobs(self, name: str, input_mb: float, jobs: Sequence[Job],
                 cluster: Cluster, config: Mapping[str, Any],
                 env: Environment = QUIET, seed: int = 0) -> ExecutionResult:
        """Execute an explicit job list (compiled fresh, uncached)."""
        compiled = compile_workload(name, input_mb, jobs)
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

    # --- candidate-batched path ------------------------------------------
    def run_batch(self, workload: Workload, input_mb: float, cluster: Cluster,
                  configs: Sequence[Mapping[str, Any]],
                  envs: Sequence[Environment] | None = None,
                  seeds: Sequence[int] | None = None) -> RunBatch:
        """Evaluate many configurations of one workload; item ``i`` is
        bit-identical to ``self.run(workload, input_mb, cluster,
        configs[i], env=envs[i], seed=seeds[i])``.

        ``envs``/``seeds`` default to ``QUIET``/``0`` for every candidate
        (matching :meth:`run`'s defaults).  Candidates struck by
        simulated faults, and rejected grants, finish on the scalar
        path; everything else runs stage-major (:meth:`_run_columns`).
        """
        configs = list(configs)
        n = len(configs)
        envs = [QUIET] * n if envs is None else list(envs)
        seeds = [0] * n if seeds is None else list(seeds)
        if len(envs) != n or len(seeds) != n:
            raise ValueError("configs, envs and seeds must have equal length")
        if n == 0:
            return RunBatch(workload.name, input_mb, [])
        compiled = self.compile_workload(workload, input_mb)
        # Screen candidates: simulated faults (stage targets, env spikes)
        # perturb control flow mid-run, so those candidates take the
        # scalar path; rejected grants fail before any rng draw and are
        # also handled scalar (it is the same early-exit code).
        items: list[ExecutionResult | int] = []
        active: list[int] = []
        grants: list[ResourceGrant] = []
        for i in range(n):
            faults = (
                self.fault_plan.draw(seeds[i]) if self.fault_plan is not None
                else NO_FAULTS
            )
            grant = grant_resources(configs[i], cluster)
            if (faults.loss_stage >= 0 or faults.straggler_stage >= 0
                    or faults.oom_stage >= 0 or faults.env_multiplier > 1.0
                    or grant.executors < 1):
                items.append(self._run_compiled(compiled, cluster, configs[i],
                                                env=envs[i], seed=seeds[i]))
                continue
            items.append(len(active))
            active.append(i)
            grants.append(grant)
        columns = None
        if active:
            columns = self._run_columns(
                compiled, cluster, [configs[i] for i in active],
                [envs[i] for i in active], [seeds[i] for i in active], grants,
            )
        return RunBatch(compiled.name, compiled.input_mb, items, columns)

    def _plan_program(self, compiled: CompiledWorkload) -> PlanArrays:
        """The (cached) joint-program columns for ``compiled``.

        Keyed by plan identity like the plan cache's id tier; plans are
        immutable, so the derived arrays are too.
        """
        if self.plan_cache_size == 0:
            return build_plan_arrays(compiled)
        key = id(compiled)
        hit = self._plan_arrays_cache.get(key)
        if hit is not None and hit[0] is compiled:
            self._plan_arrays_cache.move_to_end(key)
            return hit[1]
        arrays = build_plan_arrays(compiled)
        self._plan_arrays_cache[key] = (compiled, arrays)
        while len(self._plan_arrays_cache) > self.plan_cache_size:
            self._plan_arrays_cache.popitem(last=False)
        return arrays

    def _cost_program(self, plan: PlanArrays, cluster: Cluster,
                      configs: Sequence[Mapping[str, Any]],
                      grants: Sequence[ResourceGrant],
                      envs: Sequence[Environment],
                      ) -> tuple[BatchInputs, PlanCostBatch]:
        """The joint cost program of the columns ``configs`` x ``envs``.

        A deployed configuration's recurring runs arrive batch after
        batch as one (configuration, environment) column, so a one-column
        program is kept (LRU, ``_COST_CACHE_SIZE`` entries, read-only
        arrays) and reused while plan, configuration object, cluster,
        environment and calibration all match.  Only immutable
        ``Configuration`` columns are kept: a plain mapping may change
        between calls.  ``plan_cache_size=0`` (cold simulation) keeps
        none.
        """
        key = None
        if (self.plan_cache_size and len(configs) == 1
                and isinstance(configs[0], Configuration)):
            key = (id(plan), id(configs[0]), cluster, envs[0],
                   self.calibration)
            hit = self._cost_cache.get(key)
            if hit is not None and hit[0] is plan and hit[1] is configs[0]:
                self._cost_cache.move_to_end(key)
                self.cost_cache_hits += 1
                return hit[2], hit[3]
            self.cost_cache_misses += 1
        b = build_batch_inputs(configs, cluster, grants,
                               [ExecutorModel.from_config(c) for c in configs],
                               envs)
        cost = compute_plan_cost_batch(plan, b, self.calibration)
        if key is not None:
            for array in (*vars(b).values(), *vars(cost).values()):
                if isinstance(array, np.ndarray):
                    array.setflags(write=False)
            self._cost_cache[key] = (plan, configs[0], b, cost)
            while len(self._cost_cache) > _COST_CACHE_SIZE:
                self._cost_cache.popitem(last=False)
        return b, cost

    def _run_columns(self, compiled: CompiledWorkload, cluster: Cluster,
                     configs: Sequence[Mapping[str, Any]],
                     envs: Sequence[Environment], seeds: Sequence[int],
                     grants: Sequence[ResourceGrant]) -> BatchColumns:
        """Simulate fault-free, granted candidates: draw stage-major,
        schedule shape-major.

        Costs come from one fused ``(stages, columns)`` program over the
        distinct (configuration, environment) object pairs — an ingest
        batch of one configuration in one environment costs a single
        column.  Then three phases:

        1. Stage by stage, every candidate makes its draws.  Each
           candidate's generator still makes its scalar draws in its
           scalar order (stage by stage, then the run-level noise), so
           only the interleaving across generators changes.  Within a
           stage, candidates that share a task count, a slot count and a
           speculation setting (the configuration's ``(multiplier,
           quantile)`` when it speculates, the stage has at least 4 tasks
           and noise is on, else ``None``) form a group.  A group of
           ``_MIN_MATRIX_ROWS`` or more rows is drawn as one ``(rows,
           tasks)`` matrix and kept under its shape; a smaller one is
           drawn and scheduled one row at a time, there and then
           (:func:`~repro.sparksim.scheduler._schedule_1d`).
        2. Shape by shape, the kept matrices of every stage go through
           one :func:`~repro.sparksim.scheduler._schedule_rows` call.  It
           reads each row on its own, so a row's results do not depend
           on which rows share its matrix.
        3. Stage by stage, runtimes accumulate as a column, each row
           receiving the scalar path's additions in the scalar order.

        Results stay bit-identical to :meth:`_run_compiled`.
        """
        calib = self.calibration
        noise = self.noise
        n_rows = len(configs)
        col_of: dict[tuple[int, int], int] = {}
        col = np.array([col_of.setdefault((id(c), id(e)), len(col_of))
                        for c, e in zip(configs, envs)], dtype=np.intp)
        n_cols = len(col_of)
        order = np.argsort(col, kind="stable")
        bounds = np.searchsorted(col[order], np.arange(n_cols + 1)).tolist()
        rows_of = [order[bounds[u]:bounds[u + 1]] for u in range(n_cols)]
        first = [int(rows[0]) for rows in rows_of]
        plan = self._plan_program(compiled)
        b, cost = self._cost_program(plan, cluster,
                                     [configs[k] for k in first],
                                     [grants[k] for k in first],
                                     [envs[k] for k in first])
        s_count = plan.n_stages
        slots = np.maximum(1, b.executors * b.concurrent)
        fail_stage = np.where(cost.oom.any(axis=0), cost.oom.argmax(axis=0),
                              s_count)

        def rows_of_cols(cols: list[int]) -> np.ndarray:
            if len(cols) == n_cols:
                return np.arange(n_rows)
            if len(cols) == 1:
                return rows_of[cols[0]]
            return np.concatenate([rows_of[u] for u in cols]) if cols \
                else np.empty(0, dtype=np.intp)

        rngs = self._rng_pool.generators(seeds)
        # per (row, stage): elapsed time, then task mean, p50, p95, max
        out = np.zeros((5, n_rows, s_count))
        fail_l = fail_stage.tolist()
        slots_l = slots.tolist()
        # (multiplier, quantile) of each speculating column, else None
        spec_of = [(m, q) if on else None for on, m, q in zip(
            b.speculation.tolist(), b.spec_multiplier.tolist(),
            b.spec_quantile.tolist())]
        ntasks_ll = cost.num_tasks.tolist()
        total_ll = cost.total_s.tolist()
        driver_ll = cost.driver_s.tolist()

        # Phase 1, stage by stage: every draw, in the scalar order.  Per
        # stage shape: the matrices drawn for it so far, their rows' flat
        # (row, stage) positions in ``out`` and their rows' driver time.
        shapes: dict[_Shape, tuple[list[np.ndarray], list[np.ndarray],
                                   list[np.ndarray]]] = {}
        live_rows: list[slice | np.ndarray] = []
        live = list(range(n_cols))
        for s in range(s_count):
            live = [u for u in live if fail_l[u] >= s]
            live_rows.append(slice(None) if len(live) == n_cols
                             else rows_of_cols(live))
            groups: dict[_Shape, list[int]] = {}
            single: list[int] = []
            for u in live:
                n_tasks = ntasks_ll[s][u]
                if fail_l[u] == s:
                    # Retries then application abort — the scalar early
                    # exit's arithmetic, from the cost columns.
                    out[0, rows_of[u], s] = (total_ll[s][u] * _MAX_ATTEMPTS
                                             + driver_ll[s][u])
                else:
                    spec = spec_of[u] if noise and n_tasks >= 4 else None
                    groups.setdefault((n_tasks, slots_l[u], spec),
                                      []).append(u)
            for key, cols in groups.items():
                rows = rows_of_cols(cols)
                if len(rows) < _MIN_MATRIX_ROWS:
                    single.extend(cols)
                    continue
                n_tasks = key[0]
                row_cols = col[rows]
                base = cost.total_s[s, row_cols]
                matrices, at, driver = shapes.setdefault(key, ([], [], []))
                matrices.append(
                    _sample_duration_rows(n_tasks, base,
                                          [rngs[k] for k in rows.tolist()],
                                          calib)
                    if noise else np.repeat(base[:, None], n_tasks, axis=1)
                )
                at.append(rows * s_count + s)
                driver.append(cost.driver_s[s, row_cols])
            if single:
                rows = rows_of_cols(single)
                row_cols = col[rows]
                # (makespan, task mean, p50, p95, max) per row, then the
                # makespan becomes the elapsed time as _run_compiled adds it
                scheduled = np.array([
                    _schedule_1d(ntasks_ll[s][u], total_ll[s][u], slots_l[u],
                                 spec_of[u], rngs[k], calib, noise)
                    for k, u in zip(rows.tolist(), row_cols.tolist())
                ]).T
                scheduled[0] += cost.driver_s[s, row_cols]
                out[:, rows, s] = scheduled

        # Phase 2, shape by shape: one makespan recurrence over the rows
        # of every stage with that shape.  A row's results do not depend
        # on which rows share its matrix.
        by_position = out.reshape(5, n_rows * s_count)
        for (_, n_slots, spec), (matrices, at, driver) in shapes.items():
            durations = np.concatenate(matrices)
            matrices.clear()     # free the stage copies before scheduling
            makespan, *task = _schedule_rows(durations, n_slots, spec)
            by_position[:, np.concatenate(at)] = (
                makespan + np.concatenate(driver), *task)

        # Phase 3, stage by stage: each row's runtime receives the scalar
        # path's additions in the scalar order — the stage's job submits,
        # then its elapsed (or, at an OOM stage, wasted) time.
        runtime = (calib.app_startup_base_s
                   + calib.app_startup_per_executor_s * b.executors)[col]
        job_submit_s = calib.job_submit_s
        for s, rows in enumerate(live_rows):
            for _ in range(plan.job_submits_before[s]):
                runtime[rows] += job_submit_s
            runtime[rows] += out[0, rows, s]

        done = rows_of_cols([u for u in live if fail_l[u] == s_count])
        for _ in range(plan.trailing_job_submits):
            runtime[done] += job_submit_s
        if noise:
            sigma = calib.run_noise_sigma
            runtime[done] *= np.array([
                rngs[k].lognormal(mean=-0.5 * sigma**2, sigma=sigma)
                for k in done.tolist()
            ])
        n_tasks_su = cost.num_tasks
        return BatchColumns(
            plan=plan, col=col, envs=list(envs), runtime_s=runtime,
            fail_stage=fail_stage, executors=b.executors,
            requested=b.requested, slots=slots, num_tasks=n_tasks_su,
            spill_mb=cost.spill_mb_total,
            cpu_time_s=cost.cpu_s * n_tasks_su,
            gc_time_s=cost.gc_s * n_tasks_su,
            io_time_s=cost.disk_s * n_tasks_su,
            net_time_s=cost.net_s * n_tasks_su,
            spilled_mb=cost.spilled_mb, duration_s=out[0],
            task_mean_s=out[1], task_p50_s=out[2], task_p95_s=out[3],
            task_max_s=out[4],
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
