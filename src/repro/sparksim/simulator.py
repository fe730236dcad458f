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

Every execution, one or many, runs through one path,
:meth:`SparkSimulator.run_batch`; :meth:`SparkSimulator.run` is a batch
of one.  Three throughput layers make it fast:

* a **compiled-plan cache**: the stage DAG and the cache-registry
  evolution are config-independent, so each ``(name, input_mb,
  job-list fingerprint)`` compiles once and every candidate evaluation
  replays the immutable :class:`~repro.sparksim.dag.CompiledWorkload`
  (the fingerprint is :func:`~repro.sparksim.dag.jobs_fingerprint`,
  the evaluation engine's workload identity too);
* a **joint cost program**: a batch costs all stages for the distinct
  (configuration, environment) object pairs of its candidates in one
  fused ``(stages, columns)`` numpy sweep
  (:func:`~repro.sparksim.costmodel.compute_plan_cost_batch` over the
  plan's :class:`~repro.sparksim.costmodel.PlanArrays`, kept in its
  plan-cache entry) — an ingest batch of one deployed configuration,
  and every single run, costs a single column, whose program is kept
  once it recurs;
* **stage-major draws, shape-major scheduling**: every stage draws for
  every candidate before the next stage starts.  Each candidate keeps
  its own noise generator (pre-seeded by one vectorized sweep,
  :mod:`repro.sparksim.rngpool`) and draws from it exactly what one
  execution draws on its own, in the same order — stage by stage, then
  the run-level noise — so reordering *across* generators is
  unobservable.  Candidates that share a stage's task count, slot
  count and speculation setting (every run of an ingest batch does)
  are sampled as one ``(rows, tasks)`` matrix with one masked
  straggler multiply, and the matrices of every stage with the same
  shape are scheduled in one call: each row's speculative clamp and
  copies, the greedy makespan as a vectorized argmin recurrence, and
  median / p95 / max from one row sort
  (:func:`~repro.sparksim.scheduler._schedule_rows`).  Groups below
  ``_MIN_MATRIX_ROWS`` are scheduled one row at a time at their own
  stage (:func:`~repro.sparksim.scheduler._schedule_1d`, one row's
  arithmetic on partition-kernel reductions).
  Results come back as a
  :class:`~repro.sparksim.metrics.RunBatch`, which keeps the columns
  and builds an :class:`ExecutionResult` only when indexed.

Injected faults (:mod:`repro.sparksim.faults`) ride the same path: a
rejected grant is answered while the batch is screened, and a candidate
struck by a stage fault gets a cost column of its own, scheduled row by
row with the fault applied at its stage.

The contract is *bit-identity*: item ``i`` of a batch equals, field for
field, what the scalar reference (``ScalarSimulator`` in
``tests/oracles.py``: per-stage scalar costing and list scheduling, one
execution at a time) returns for candidate ``i``, including OOM and
rejected candidates and injected faults.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from ..cloud.cluster import Cluster
from ..cloud.interference import QUIET, Environment
from ..config.constraints import grant_resources
from ..config.space import config_fingerprint
from .costmodel import (
    Calibration,
    PlanArrays,
    build_batch_inputs,
    build_plan_arrays,
    compute_plan_cost_batch,
)
from .dag import CompiledWorkload, compile_workload, jobs_fingerprint
from .executor import ExecutorModel
from .faults import NO_FAULTS, FaultDraw, FaultPlan
from .metrics import BatchColumns, ExecutionResult, RunBatch
from .rngpool import GeneratorPool
from .scheduler import _sample_duration_rows, _schedule_1d, _schedule_rows

if TYPE_CHECKING:
    from ..config.constraints import ResourceGrant
    from ..workloads.base import Workload
    from .costmodel import BatchInputs, PlanCostBatch

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

#: one-column cost programs kept across ``run_batch`` calls, and the keys
#: of columns seen once (one LRU).  A program is ~8 KB for a 2-stage
#: plan.  A service shard's simulator held at most 23 entries
#: (``ingest_closed``, seed 3), 105 (``burst_mixed``, seed 3) and 264
#: (the 1000-tenant load scenario), so this bound keeps the LRU from
#: cycling in every benchmarked scenario.
_COST_CACHE_SIZE = 1024


@dataclass(slots=True)
class _Plan:
    """A plan-cache entry: the compiled plan and, once a batch has
    needed them, its joint-program arrays (immutable, like the plan)."""

    compiled: CompiledWorkload
    arrays: PlanArrays | None = None


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
        Number of compiled workload plans kept (LRU), each with its
        joint-program arrays; 0 disables plan caching, recompiling on
        every run and rebuilding the arrays on every batch (the
        throughput benchmark uses this to measure the cache's
        contribution).  Plans are immutable and config-independent; the
        cache only trades memory for re-compilation time, never changes
        results.
    """

    def __init__(self, calibration: Calibration | None = None, noise: bool = True,
                 fault_plan: FaultPlan | None = None, plan_cache_size: int = 64):
        self.calibration = calibration or Calibration()
        self.noise = noise
        self.fault_plan = fault_plan
        if plan_cache_size < 0:
            raise ValueError("plan_cache_size must be >= 0")
        self.plan_cache_size = plan_cache_size
        # (name, input_mb, jobs fingerprint) -> _Plan: equal-content
        # workload *objects* share one plan, while same-named workloads
        # with different job lists never collide (the fingerprint is
        # part of the key).
        self._plans: OrderedDict[tuple[str, float, str], _Plan] = OrderedDict()
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        # Cost programs of recurring one-column batches:
        # (id(plan), config fingerprint, cluster, env, calibration) ->
        # (plan, (BatchInputs, PlanCostBatch) or None until the key
        # recurs); the strong ref pins the plan's id.
        self._cost_cache: OrderedDict = OrderedDict()
        self.cost_cache_hits = 0
        self.cost_cache_misses = 0
        # Pooled per-candidate noise generators for the batch fast path.
        self._rng_pool = GeneratorPool()

    def counters(self) -> dict[str, int]:
        """Hits and misses of the plan cache and the cost-program cache."""
        return {
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "cost_cache_hits": self.cost_cache_hits,
            "cost_cache_misses": self.cost_cache_misses,
        }

    # --- plan cache -------------------------------------------------------
    def compile_workload(self, workload: Workload,
                         input_mb: float) -> CompiledWorkload:
        """Return the (cached) compiled plan for ``workload`` at ``input_mb``.

        Assumes ``workload.jobs()`` is pure (same object, same job list)
        — true for every workload in :mod:`repro.workloads`.  Plans are
        keyed by job-list content, so two same-named workloads with
        different job lists get distinct plans.
        """
        return self._plan(workload, input_mb).compiled

    def _plan(self, workload: Workload, input_mb: float) -> _Plan:
        """The plan-cache entry for ``workload`` at ``input_mb``."""
        fingerprint = (jobs_fingerprint(workload, input_mb)
                       if self.plan_cache_size else None)
        if fingerprint is None:
            # Uncached, or a job list the workload refuses to build:
            # jobs() raises that ValueError here, to the caller.
            jobs = workload.jobs(input_mb)
            self.plan_cache_misses += 1
            return _Plan(compile_workload(workload.name, input_mb, jobs))
        key = (workload.name, float(input_mb), fingerprint)
        entry = self._plans.get(key)
        if entry is not None:
            self._plans.move_to_end(key)
            self.plan_cache_hits += 1
            return entry
        self.plan_cache_misses += 1
        entry = self._plans[key] = _Plan(compile_workload(
            workload.name, input_mb, workload.jobs(input_mb),
            fingerprint=fingerprint,
        ))
        while len(self._plans) > self.plan_cache_size:
            self._plans.popitem(last=False)
        return entry

    # --- the simulation path ---------------------------------------------
    def run(self, workload: Workload, input_mb: float, cluster: Cluster,
            config: Mapping[str, Any],
            env: Environment = QUIET, seed: int = 0) -> ExecutionResult:
        """Execute ``workload`` at ``input_mb`` scale and return metrics:
        a batch of one."""
        return self.run_batch(workload, input_mb, cluster, [config],
                              envs=[env], seeds=[seed])[0]

    def run_batch(self, workload: Workload, input_mb: float, cluster: Cluster,
                  configs: Sequence[Mapping[str, Any]],
                  envs: Sequence[Environment] | None = None,
                  seeds: Sequence[int] | None = None) -> RunBatch:
        """Evaluate many configurations of one workload; item ``i`` is
        the execution of ``configs[i]`` in ``envs[i]`` with noise seed
        ``seeds[i]`` (:meth:`run` is a batch of one).

        ``envs``/``seeds`` default to ``QUIET``/``0`` for every candidate
        (matching :meth:`run`'s defaults).  Each candidate's faults are
        drawn from its seed, and an interference spike applies to its
        environment before anything else.  A rejected grant fails before
        any draw and is answered here; every granted candidate, struck by
        a fault or not, runs stage-major (:meth:`_run_columns`).
        """
        configs = list(configs)
        n = len(configs)
        envs = [QUIET] * n if envs is None else list(envs)
        seeds = [0] * n if seeds is None else list(seeds)
        if len(envs) != n or len(seeds) != n:
            raise ValueError("configs, envs and seeds must have equal length")
        if n == 0:
            return RunBatch(workload.name, input_mb, [])
        entry = self._plan(workload, input_mb)
        compiled = entry.compiled
        # Screen candidates.  Faults ride their own (salt, seed)-keyed
        # stream: drawing them never perturbs the noise stream, so a
        # non-firing plan is a no-op.
        items: list[ExecutionResult | int] = []
        active: list[int] = []
        grants: list[ResourceGrant] = []
        faults: dict[int, FaultDraw] = {}
        for i in range(n):
            draw = (
                self.fault_plan.draw(seeds[i]) if self.fault_plan is not None
                else NO_FAULTS
            )
            if draw.any:
                envs[i] = draw.spike_env(envs[i])
            grant = grant_resources(configs[i], cluster)
            if grant.executors < 1:
                items.append(ExecutionResult(
                    workload=compiled.name, input_mb=compiled.input_mb,
                    runtime_s=_REJECT_S, success=False, executors_granted=0,
                    executors_requested=grant.requested_executors,
                    failure_reason="executor container does not fit any node",
                    environment_factor=envs[i].combined(),
                    faults_injected=tuple(_spike_notes(draw)),
                ))
                continue
            if draw.any:
                faults[len(active)] = draw
            items.append(len(active))
            active.append(i)
            grants.append(grant)
        columns = None
        if active:
            columns = self._run_columns(
                entry, cluster, [configs[i] for i in active],
                [envs[i] for i in active], [seeds[i] for i in active], grants,
                faults,
            )
        return RunBatch(compiled.name, compiled.input_mb, items, columns)

    def _cost_program(self, plan: PlanArrays, cluster: Cluster,
                      configs: Sequence[Mapping[str, Any]],
                      grants: Sequence[ResourceGrant],
                      envs: Sequence[Environment],
                      ) -> tuple[BatchInputs, PlanCostBatch]:
        """The joint cost program of the columns ``configs`` x ``envs``.

        A deployed configuration's recurring runs arrive batch after
        batch as one (configuration, environment) column, and so does
        every :meth:`run`, so a one-column program is kept (LRU,
        ``_COST_CACHE_SIZE`` entries, read-only arrays) and reused while
        plan, configuration content
        (:func:`~repro.config.space.config_fingerprint`), cluster,
        environment and calibration all match.  A column is kept only
        once it recurs: its first miss records the key and its second
        keeps the program, so one-off columns (a tuner's candidates)
        keep none.  ``plan_cache_size=0`` (cold simulation) keeps none.
        """
        key = seen = None
        if self.plan_cache_size and len(configs) == 1:
            key = (id(plan), config_fingerprint(configs[0]), cluster,
                   envs[0], self.calibration)
            seen = self._cost_cache.pop(key, None)
            if seen is not None and seen[1] is not None:
                self._cost_cache[key] = seen        # most recently used
                self.cost_cache_hits += 1
                return seen[1]
            self.cost_cache_misses += 1
        b = build_batch_inputs(configs, cluster, grants,
                               [ExecutorModel.from_config(c) for c in configs],
                               envs)
        cost = compute_plan_cost_batch(plan, b, self.calibration)
        if key is not None:
            program = None
            if seen is not None:
                # the key recurs: keep the program
                for array in (*vars(b).values(), *vars(cost).values()):
                    if isinstance(array, np.ndarray):
                        array.setflags(write=False)
                program = (b, cost)
            self._cost_cache[key] = (plan, program)
            while len(self._cost_cache) > _COST_CACHE_SIZE:
                self._cost_cache.popitem(last=False)
        return b, cost

    def _run_columns(self, entry: _Plan, cluster: Cluster,
                     configs: Sequence[Mapping[str, Any]],
                     envs: Sequence[Environment], seeds: Sequence[int],
                     grants: Sequence[ResourceGrant],
                     faults: Mapping[int, FaultDraw]) -> BatchColumns:
        """Simulate granted candidates: draw stage-major, schedule
        shape-major.

        ``faults`` holds the fault draw of each row that drew one, its
        environment already spiked.  Costs come from one fused ``(stages,
        columns)`` program over the distinct (configuration, environment)
        object pairs — an ingest batch of one configuration in one
        environment costs a single column — plus one column per row
        struck by a stage fault.  Then three phases:

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
           (:func:`~repro.sparksim.scheduler._schedule_1d`).  A struck
           row is always scheduled alone: a kill at or before its OOM
           stage ends the run there (on a tie the kill wins), and a
           completed stage's makespan ``m`` becomes ``m * straggler
           factor``, then gains ``m * loss fraction``; an executor loss
           shrinks the slots of every later stage.
        2. Shape by shape, the kept matrices of every stage go through
           one :func:`~repro.sparksim.scheduler._schedule_rows` call.  It
           reads each row on its own, so a row's results do not depend
           on which rows share its matrix.
        3. Stage by stage, runtimes accumulate as a column, each row
           receiving the scalar path's additions in the scalar order.

        Results stay bit-identical to the scalar reference, one
        execution at a time, faults and audit trail included.
        """
        calib = self.calibration
        noise = self.noise
        n_rows = len(configs)
        struck = {k: f for k, f in faults.items()
                  if f.oom_stage >= 0 or f.straggler_stage >= 0
                  or f.loss_stage >= 0}
        keys: list[object] = [(id(c), id(e)) for c, e in zip(configs, envs)]
        for k in struck:
            keys[k] = k          # a struck row is a cost column of its own
        col_of: dict[object, int] = {}
        col = np.array([col_of.setdefault(key, len(col_of)) for key in keys],
                       dtype=np.intp)
        n_cols = len(col_of)
        order = np.argsort(col, kind="stable")
        bounds = np.searchsorted(col[order], np.arange(n_cols + 1)).tolist()
        rows_of = [order[bounds[u]:bounds[u + 1]] for u in range(n_cols)]
        first = [int(rows[0]) for rows in rows_of]
        plan = entry.arrays
        if plan is None:
            plan = entry.arrays = build_plan_arrays(entry.compiled)
        b, cost = self._cost_program(plan, cluster,
                                     [configs[k] for k in first],
                                     [grants[k] for k in first],
                                     [envs[k] for k in first])
        s_count = plan.n_stages
        slots = np.maximum(1, b.executors * b.concurrent)
        fail_stage = np.where(cost.oom.any(axis=0), cost.oom.argmax(axis=0),
                              s_count)
        # The audit trail of each faulted row: its spike, then per stage
        # the straggler before the loss, then the kill.
        notes = {k: _spike_notes(f) for k, f in faults.items()}
        strikes = {int(col[k]): f for k, f in struck.items()}
        kill_reason: dict[int, str] = {}
        for u, f in strikes.items():
            k = f.oom_stage
            if 0 <= k < s_count and k <= fail_stage[u]:
                fail_stage[u] = k
                kill_reason[u] = (f"fault-injected OOM kill in stage "
                                  f"{plan.stage_ids[k]} ({plan.names[k]})")

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
            struck_here: list[int] = []
            for u in live:
                n_tasks = ntasks_ll[s][u]
                if fail_l[u] == s:
                    # Retries then application abort (a genuine OOM or an
                    # injected kill), from the cost columns.
                    out[0, rows_of[u], s] = (total_ll[s][u] * _MAX_ATTEMPTS
                                             + driver_ll[s][u])
                elif u in strikes:
                    struck_here.append(u)
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
                # makespan becomes the stage's elapsed time
                scheduled = np.array([
                    _schedule_1d(ntasks_ll[s][u], total_ll[s][u], slots_l[u],
                                 spec_of[u], rngs[k], calib, noise)
                    for k, u in zip(rows.tolist(), row_cols.tolist())
                ]).T
                scheduled[0] += cost.driver_s[s, row_cols]
                out[:, rows, s] = scheduled
            for u in struck_here:
                k = int(rows_of[u][0])
                f = strikes[u]
                makespan, *task = _schedule_1d(
                    ntasks_ll[s][u], total_ll[s][u], slots_l[u], spec_of[u],
                    rngs[k], calib, noise)
                elapsed = makespan
                if s == f.straggler_stage:
                    elapsed *= f.straggler_factor
                    notes[k].append(
                        f"straggler:stage{s}:x{f.straggler_factor:g}")
                if s == f.loss_stage and f.loss_fraction > 0.0:
                    # In-flight work on the lost executors re-runs, and
                    # every later stage schedules onto the surviving slots.
                    elapsed += makespan * f.loss_fraction
                    executors = int(b.executors[u])
                    lost = min(executors - 1,
                               max(1, round(executors * f.loss_fraction)))
                    if lost > 0:
                        slots_l[u] = max(
                            1, (executors - lost) * int(b.concurrent[u]))
                    notes[k].append(f"executor_loss:stage{s}:{lost}")
                out[:, k, s] = (elapsed + driver_ll[s][u], *task)

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
        for u in strikes:
            slots[u] = slots_l[u]
        for u in kill_reason:
            notes[int(rows_of[u][0])].append(f"oom_kill:stage{fail_l[u]}")
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
            faults_injected={k: tuple(v) for k, v in notes.items()},
            kill_reason=kill_reason,
        )


def _spike_notes(draw: FaultDraw) -> list[str]:
    """The first entry of a run's audit trail: its interference spike."""
    if draw.env_multiplier > 1.0:
        return [f"env_spike:x{draw.env_multiplier:g}"]
    return []
