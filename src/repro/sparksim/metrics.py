"""Execution metrics emitted by the simulator.

Shaped after the Spark event-log / REST metrics the paper's provider-side
service would mine: per-stage task statistics, shuffle volumes, spill and
GC time.  The characterization module (:mod:`repro.core.characterization`)
derives workload signatures *only* from these observable metrics, never
from ground-truth workload identity.

:class:`RunBatch` holds a whole ``run_batch`` call's results as columns
and builds each :class:`ExecutionResult` only when it is indexed; its
per-run arrays are unboxed to Python lists only then.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:
    from ..cloud.interference import Environment
    from .costmodel import PlanArrays

__all__ = ["TaskMetrics", "StageMetrics", "ExecutionResult", "BatchColumns",
           "StageTotals", "CostColumn", "RunBatch", "oom_failure_reason"]


@dataclass(frozen=True)
class TaskMetrics:
    """Aggregate task-duration statistics for one stage."""

    count: int
    mean_s: float
    p50_s: float
    p95_s: float
    max_s: float


@dataclass(frozen=True)
class StageMetrics:
    """Observable metrics for one completed (or failed) stage."""

    stage_id: int
    name: str
    num_tasks: int
    duration_s: float
    input_mb: float
    cached_read_mb: float
    shuffle_read_mb: float
    shuffle_write_mb: float
    spill_mb: float
    cpu_time_s: float          # summed task CPU seconds
    gc_time_s: float           # summed GC seconds
    io_time_s: float           # summed disk wait
    net_time_s: float          # summed network wait
    task_metrics: TaskMetrics | None = None
    failed: bool = False
    output_mb: float = 0.0     # written to external storage
    writes_output: bool = False


@dataclass
class ExecutionResult:
    """The outcome of one workload execution under one configuration."""

    workload: str
    input_mb: float
    runtime_s: float
    success: bool
    stages: list[StageMetrics] = field(default_factory=list)
    executors_granted: int = 0
    executors_requested: int = 0
    total_slots: int = 0
    failure_reason: str | None = None
    #: environment (interference) summary factor; 1.0 = quiet
    environment_factor: float = 1.0
    #: audit trail of injected faults that struck this execution
    #: (``"kind:stageN[:detail]"`` entries from :mod:`repro.sparksim.faults`)
    faults_injected: tuple[str, ...] = ()

    # --- aggregates used for characterization -----------------------------
    @property
    def total_input_mb(self) -> float:
        return sum(s.input_mb for s in self.stages)

    @property
    def total_shuffle_mb(self) -> float:
        return sum(s.shuffle_write_mb for s in self.stages)

    @property
    def total_spill_mb(self) -> float:
        return sum(s.spill_mb for s in self.stages)

    @property
    def total_cpu_s(self) -> float:
        return sum(s.cpu_time_s for s in self.stages)

    @property
    def total_gc_s(self) -> float:
        return sum(s.gc_time_s for s in self.stages)

    @property
    def total_io_s(self) -> float:
        return sum(s.io_time_s for s in self.stages)

    @property
    def total_net_s(self) -> float:
        return sum(s.net_time_s for s in self.stages)

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def num_tasks(self) -> int:
        return sum(s.num_tasks for s in self.stages)

    def effective_runtime(self, failure_penalty: float = 4.0,
                          failure_floor_s: float = 3600.0) -> float:
        """Runtime for optimization purposes; failures cost a penalty.

        A crashed execution consumed cluster time and produced nothing —
        tuners see it as ``failure_penalty`` times the wasted wall-clock,
        floored at ``failure_floor_s`` (an hour of fix-execute-debug cycle,
        per the paper's Section IV: "Any failed test execution is expensive
        and has a long fix-execute-debug cycle").  The floor guarantees a
        crash is never preferable to any completed run.
        """
        if self.success:
            return self.runtime_s
        return max(self.runtime_s * failure_penalty, failure_floor_s)


def oom_failure_reason(stage_id: int, name: str, spilled_mb: float) -> str:
    """Why an application died of a task OOM in stage ``stage_id``."""
    return (
        f"OOM in stage {stage_id} ({name}): "
        f"task working set {spilled_mb + 0:.0f}MB+ "
        f"exceeds executor execution memory"
    )


@dataclass(frozen=True)
class BatchColumns:
    """What the stage-major batch path computed, one array per field.

    ``R`` rows are the executions the batch simulated together, ``U``
    the distinct (configuration, environment) cost columns they use and
    ``S`` the plan's stages.  Everything a configuration decides — task
    counts, summed resource times, grants, the OOM stage — is stored
    once per column; only what the noise stream decides is per row.  A
    row struck by a stage fault is a column of its own, so its final
    slots and its kill stage are column fields too.
    """

    plan: PlanArrays
    col: np.ndarray              # (R,) cost column of each row
    envs: list[Environment]      # (R,)
    runtime_s: np.ndarray        # (R,)
    #: (U,) first OOM (or injected kill) stage of each column;
    #: ``plan.n_stages`` if none
    fail_stage: np.ndarray
    executors: np.ndarray        # (U,)
    requested: np.ndarray        # (U,)
    slots: np.ndarray            # (U,) after any executor loss
    num_tasks: np.ndarray        # (S, U)
    spill_mb: np.ndarray         # (S, U) stage totals, as StageMetrics
    cpu_time_s: np.ndarray       # (S, U)
    gc_time_s: np.ndarray        # (S, U)
    io_time_s: np.ndarray        # (S, U)
    net_time_s: np.ndarray       # (S, U)
    spilled_mb: np.ndarray       # (S, U) per-task spill (OOM message)
    duration_s: np.ndarray       # (R, S); the wasted time at an OOM stage
    task_mean_s: np.ndarray      # (R, S) TaskMetrics of completed stages
    task_p50_s: np.ndarray
    task_p95_s: np.ndarray
    task_max_s: np.ndarray
    #: row -> its audit trail of injected faults, for rows that drew any
    faults_injected: dict[int, tuple[str, ...]]
    #: column -> failure reason, for columns an injected kill ended
    kill_reason: dict[int, str]


class StageTotals(NamedTuple):
    """What a stage's cost column decides of its :class:`StageMetrics`:
    every field except the noise-drawn ``duration_s`` and
    ``task_metrics``, in :class:`StageMetrics` field order."""

    stage_id: int
    name: str
    num_tasks: int
    input_mb: float
    cached_read_mb: float
    shuffle_read_mb: float
    shuffle_write_mb: float
    spill_mb: float
    cpu_time_s: float
    gc_time_s: float
    io_time_s: float
    net_time_s: float
    failed: bool
    output_mb: float
    writes_output: bool


class CostColumn(NamedTuple):
    """The executions of a :class:`RunBatch` that share one cost column."""

    #: candidate index of each execution, ascending
    members: np.ndarray
    #: the executed stages, in order; an OOM stage comes last, ``failed``
    stages: list[StageTotals]
    #: ``(members, completed stages)`` task-duration medians and p95s
    task_p50_s: np.ndarray
    task_p95_s: np.ndarray


class RunBatch(Sequence[ExecutionResult]):
    """The results of one ``SparkSimulator.run_batch`` call.

    A read-only sequence whose item ``i`` is the result of candidate
    ``i``.  Executions the stage-major path simulated, fault-struck ones
    included, live in :attr:`columns` and become an
    :class:`ExecutionResult` only when indexed (each access builds a
    fresh object); rejected grants, answered before any simulation, are
    stored as built.  Callers
    that need only runtimes, outcomes or per-column statistics read
    :attr:`runtimes`, :attr:`successes` and :meth:`cost_columns`, and
    never build the per-stage object graph; only this class decodes the
    :class:`BatchColumns` layout.
    """

    __slots__ = ("workload", "input_mb", "columns", "_items", "_lists",
                 "_stages")

    def __init__(self, workload: str, input_mb: float,
                 items: Sequence[ExecutionResult | int],
                 columns: BatchColumns | None = None):
        self.workload = workload
        self.input_mb = input_mb
        self.columns = columns
        #: per candidate: its stored result, or its row in ``columns``
        self._items = list(items)
        self._lists: dict | None = None
        self._stages: dict[int, list[StageTotals]] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        item = self._items[operator.index(index)]
        if isinstance(item, ExecutionResult):
            return item
        return self._materialize(item)

    def __iter__(self):
        for item in self._items:
            yield (item if isinstance(item, ExecutionResult)
                   else self._materialize(item))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RunBatch, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"RunBatch({self.workload!r}, {self.input_mb:g} MB, "
                f"{len(self)} runs)")

    @property
    def runtimes(self) -> list[float]:
        """``runtime_s`` of every execution, in candidate order."""
        runtime = (self.columns.runtime_s.tolist()
                   if self.columns is not None else [])
        return [item.runtime_s if isinstance(item, ExecutionResult)
                else runtime[item] for item in self._items]

    @property
    def successes(self) -> list[bool]:
        """``success`` of every execution, in candidate order."""
        ok: list[bool] = []
        if self.columns is not None:
            c = self.columns
            ok = (c.fail_stage[c.col] == c.plan.n_stages).tolist()
        return [item.success if isinstance(item, ExecutionResult)
                else ok[item] for item in self._items]

    def cost_columns(self) -> list[CostColumn]:
        """The executions the stage-major path simulated, one entry per
        cost column; the rest (rejected grants) are plain items of the
        sequence.

        Every field of a member's :class:`StageMetrics` except its
        duration and task statistics is the column's
        (:attr:`CostColumn.stages`).  Only the per-column arrays are
        unboxed; the members' task statistics stay arrays.
        """
        c = self.columns
        if c is None:
            return []
        at = np.array([i for i, item in enumerate(self._items)
                       if not isinstance(item, ExecutionResult)],
                      dtype=np.intp)
        out = []
        for u, fail in enumerate(c.fail_stage.tolist()):
            rows = c.col == u
            out.append(CostColumn(at[rows], self._column_stages(u),
                                  c.task_p50_s[rows, :fail],
                                  c.task_p95_s[rows, :fail]))
        return out

    def _unboxed(self, rows: bool = False) -> dict:
        """The columns as nested Python lists, unboxed once per batch.

        The per-column arrays come first; the per-row ones (runtimes,
        durations, task statistics) are added when ``rows`` first asks
        for them.  Ingest reads a batch only through
        :meth:`cost_columns`, which never unboxes a row.
        """
        c = self.columns
        assert c is not None
        if self._lists is None:
            self._lists = {
                name: getattr(c, name).T.tolist()
                for name in ("num_tasks", "spill_mb", "cpu_time_s",
                             "gc_time_s", "io_time_s", "net_time_s",
                             "spilled_mb")
            } | {
                name: getattr(c, name).tolist()
                for name in ("fail_stage", "executors", "requested", "slots")
            }
        if rows and "col" not in self._lists:
            self._lists.update({
                name: getattr(c, name).tolist()
                for name in ("col", "runtime_s", "duration_s", "task_mean_s",
                             "task_p50_s", "task_p95_s", "task_max_s")
            })
        return self._lists

    def _column_stages(self, u: int) -> list[StageTotals]:
        """The executed stages of cost column ``u``, built once per batch."""
        stages = self._stages.get(u)
        if stages is not None:
            return stages
        c = self.columns
        assert c is not None
        lists = self._unboxed()
        plan = c.plan
        fail = lists["fail_stage"][u]
        n_tasks = lists["num_tasks"][u]
        spill = lists["spill_mb"][u]
        cpu = lists["cpu_time_s"][u]
        gc = lists["gc_time_s"][u]
        io = lists["io_time_s"][u]
        net = lists["net_time_s"][u]
        stages = [
            StageTotals(plan.stage_ids[s], plan.names[s], n_tasks[s],
                        plan.input_mb_l[s], plan.cached_read_mb_l[s],
                        plan.shuffle_read_mb_l[s], plan.shuffle_write_mb_l[s],
                        spill[s], cpu[s], gc[s], io[s], net[s], False,
                        plan.out_mb[s], plan.writes_output[s])
            for s in range(min(fail, plan.n_stages))
        ]
        if fail < plan.n_stages:
            # a failed stage keeps its task count and byte counters only
            stages.append(StageTotals(
                plan.stage_ids[fail], plan.names[fail], n_tasks[fail],
                plan.input_mb_l[fail], plan.cached_read_mb_l[fail],
                plan.shuffle_read_mb_l[fail], plan.shuffle_write_mb_l[fail],
                0.0, 0.0, 0.0, 0.0, 0.0, True, 0.0, False,
            ))
        self._stages[u] = stages
        return stages

    def _materialize(self, row: int) -> ExecutionResult:
        c = self.columns
        assert c is not None
        lists = self._unboxed(rows=True)
        u = lists["col"][row]
        totals = self._column_stages(u)
        duration = lists["duration_s"][row]
        mean = lists["task_mean_s"][row]
        p50 = lists["task_p50_s"][row]
        p95 = lists["task_p95_s"][row]
        max_s = lists["task_max_s"][row]
        stages = [
            StageMetrics(
                stage_id, name, n_tasks, duration[s], input_mb, cached_mb,
                shuffle_read_mb, shuffle_write_mb, spill_mb, cpu_s, gc_s,
                io_s, net_s,
                None if failed else TaskMetrics(n_tasks, mean[s], p50[s],
                                                p95[s], max_s[s]),
                failed, output_mb, writes_output,
            )
            for s, (stage_id, name, n_tasks, input_mb, cached_mb,
                    shuffle_read_mb, shuffle_write_mb, spill_mb, cpu_s, gc_s,
                    io_s, net_s, failed, output_mb, writes_output)
            in enumerate(totals)
        ]
        reason = None
        if totals and totals[-1].failed:
            reason = c.kill_reason.get(u)
            if reason is None:
                reason = oom_failure_reason(
                    totals[-1].stage_id, totals[-1].name,
                    lists["spilled_mb"][u][len(totals) - 1])
        return ExecutionResult(
            workload=self.workload, input_mb=self.input_mb,
            runtime_s=lists["runtime_s"][row], success=reason is None,
            stages=stages,
            executors_granted=lists["executors"][u],
            executors_requested=lists["requested"][u],
            total_slots=lists["slots"][u],
            failure_reason=reason,
            environment_factor=c.envs[row].combined(),
            faults_injected=c.faults_injected.get(row, ()),
        )
