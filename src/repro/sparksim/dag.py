"""DAG compiler: RDD lineage -> physical execution plan of stages.

Reproduces the mechanism of the paper's Fig. 2: "the RDD graph is mapped
into a Directed Acyclic Graph that represents the physical execution plan
of how a job will be split into stages".  Stage boundaries are wide
(shuffle) dependencies; maximal chains of narrow transformations pipeline
into a single stage; lineages below an already-materialized cached RDD
are truncated (Spark reads the cache instead of recomputing ancestors).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence

from .rdd import RDD, Job

__all__ = [
    "StageProfile",
    "JobPlan",
    "CacheRegistry",
    "compile_job",
    "CompiledStage",
    "CompiledJob",
    "CompiledWorkload",
    "compile_workload",
    "fingerprint_jobs",
]


@dataclass
class StageProfile:
    """Everything the cost model needs to know about one stage."""

    stage_id: int
    name: str
    #: task count; ``None`` means "use spark.default.parallelism"
    num_tasks_hint: int | None
    depends_on: list[int] = field(default_factory=list)
    # data movement (MB, logical/uncompressed)
    input_mb: float = 0.0            # external (HDFS/S3) read
    cached_read_mb: float = 0.0      # read from the block-manager cache
    cached_read_ids: list[int] = field(default_factory=list)
    shuffle_read_mb: float = 0.0
    shuffle_write_mb: float = 0.0
    output_mb: float = 0.0
    collect_mb: float = 0.0          # returned to the driver (actions)
    writes_output: bool = False      # final save to external storage
    # computation
    cpu_s: float = 0.0               # total CPU seconds on a reference core
    record_bytes: float = 100.0
    #: fraction of the in-memory working set that cannot spill (drives OOM)
    unspillable_fraction: float = 0.05
    #: cache materializations this stage performs: (rdd_id, mb, record_bytes)
    materializes: list[tuple[int, float, float]] = field(default_factory=list)
    #: recompute cost of a cache miss of data this stage materializes:
    #: CPU s/MB of the producing chain, and bytes re-read per MB (shuffle
    #: re-fetch or source re-scan) — filled in after compilation
    recompute_cpu_s_per_mb: float = 0.0
    recompute_io_mb_per_mb: float = 0.0


@dataclass
class JobPlan:
    """Compiled physical plan of one job: stages plus their dependency DAG."""

    job_name: str
    stages: list[StageProfile]

    def topological(self) -> list[StageProfile]:
        """The stages in run order: Kahn's algorithm, one generation at a
        time.

        The first generation is the stages with no dependencies, in plan
        order.  Each later generation lists, parent by parent in
        generation order, the children whose last dependency that parent
        was, in the order their dependency edges were listed.  A
        dependency listed twice counts once.  The order is the
        simulator's: every seeded number depends on it.

        Raises :class:`ValueError` if the stage graph has a cycle.
        """
        children: dict[int, list[int]] = {s.stage_id: [] for s in self.stages}
        waiting = dict.fromkeys(children, 0)
        for s in self.stages:
            for dep in dict.fromkeys(s.depends_on):
                children[dep].append(s.stage_id)
                waiting[s.stage_id] += 1
        generation = [i for i, n in waiting.items() if n == 0]
        order: list[int] = []
        while generation:
            order.extend(generation)
            ready: list[int] = []
            for parent in generation:
                for child in children[parent]:
                    waiting[child] -= 1
                    if waiting[child] == 0:
                        ready.append(child)
            generation = ready
        if len(order) < len(waiting):
            raise ValueError(
                f"job {self.job_name!r} compiled to a cyclic stage graph")
        by_id = {s.stage_id: s for s in self.stages}
        return [by_id[i] for i in order]

    @property
    def num_stages(self) -> int:
        return len(self.stages)


@dataclass(frozen=True)
class CacheEntry:
    """One materialized cached RDD and the cost of regenerating it."""

    size_mb: float
    record_bytes: float
    recompute_cpu_s_per_mb: float = 0.02
    recompute_io_mb_per_mb: float = 1.0


class CacheRegistry:
    """Materialized cached RDDs, shared across the jobs of an application."""

    def __init__(self):
        self._entries: dict[int, CacheEntry] = {}

    def is_materialized(self, rdd_id: int) -> bool:
        return rdd_id in self._entries

    def materialize(self, rdd_id: int, size_mb: float, record_bytes: float,
                    recompute_cpu_s_per_mb: float = 0.02,
                    recompute_io_mb_per_mb: float = 1.0) -> None:
        self._entries[rdd_id] = CacheEntry(
            size_mb, record_bytes, recompute_cpu_s_per_mb, recompute_io_mb_per_mb
        )

    def evict(self, rdd_id: int) -> None:
        """Unpersist; absent ids are ignored (matches Spark semantics)."""
        self._entries.pop(rdd_id, None)

    def size_mb(self, rdd_id: int) -> float:
        return self._entries[rdd_id].size_mb

    @property
    def total_cached_mb(self) -> float:
        return sum(e.size_mb for e in self._entries.values())

    def mean_recompute_cpu_s_per_mb(self) -> float:
        """Size-weighted mean recompute CPU cost across cached data."""
        total = self.total_cached_mb
        if total <= 0:
            return 0.02
        return sum(
            e.size_mb * e.recompute_cpu_s_per_mb for e in self._entries.values()
        ) / total

    def mean_recompute_io_mb_per_mb(self) -> float:
        """Size-weighted mean bytes re-read per regenerated MB."""
        total = self.total_cached_mb
        if total <= 0:
            return 1.0
        return sum(
            e.size_mb * e.recompute_io_mb_per_mb for e in self._entries.values()
        ) / total

    def entries(self) -> dict[int, CacheEntry]:
        return dict(self._entries)


def compile_job(job: Job, registry: CacheRegistry | None = None,
                first_stage_id: int = 0) -> JobPlan:
    """Cut a job's lineage into stages at shuffle boundaries.

    ``registry`` carries cache state across jobs: a cached RDD that a
    previous job materialized truncates lineage walking; a cached RDD not
    yet materialized is computed by this job and recorded in the stage's
    ``materializes`` list (the simulator commits it to the registry after
    the job succeeds).
    """
    registry = registry or CacheRegistry()
    stages: list[StageProfile] = []
    next_id = [first_stage_id]
    # Map-side stage already built for a given wide RDD within this job.
    built_for: dict[int, int] = {}

    def new_stage(name: str) -> StageProfile:
        s = StageProfile(stage_id=next_id[0], name=name, num_tasks_hint=None)
        next_id[0] += 1
        stages.append(s)
        return s

    def build_stage_producing(rdd: RDD) -> int:
        """Build (or reuse) the stage whose output is ``rdd``'s data.

        Returns the stage id.  For a wide ``rdd`` this is the *reduce*
        stage that starts by reading the shuffle.
        """
        if rdd.id in built_for:
            return built_for[rdd.id]
        stage = new_stage(rdd.op.name)
        built_for[rdd.id] = stage.stage_id
        _fill_chain(stage, rdd)
        return stage.stage_id

    def _fill_chain(stage: StageProfile, rdd: RDD) -> None:
        """Walk narrow parents from ``rdd`` down, accumulating stage costs."""
        stage.output_mb = rdd.size_mb
        stage.num_tasks_hint = rdd.partitions
        stage.record_bytes = rdd.record_bytes
        node: RDD | None = rdd
        while node is not None:
            stage.unspillable_fraction = max(
                stage.unspillable_fraction, node.unspillable_fraction
            )
            if node.cached and registry.is_materialized(node.id) and node is not rdd:
                # Read this prefix from cache instead of recomputing it.
                stage.cached_read_mb += node.size_mb
                stage.cached_read_ids.append(node.id)
                return
            if node.cached and not registry.is_materialized(node.id):
                stage.materializes.append((node.id, node.size_mb, node.record_bytes))

            kind = node.op.kind
            if kind == "source":
                stage.input_mb += node.size_mb
                return
            if kind == "narrow":
                stage.cpu_s += node.op.cpu_s_per_mb * node.input_mb
                node = node.parents[0]
                continue
            # Wide op: its reduce-side work belongs to *this* stage; each
            # parent lineage becomes a separate map-side stage.
            shuffled = node.input_mb * node.op.size_ratio
            stage.shuffle_read_mb += shuffled
            # Reduce-side merge cost over the shuffled bytes.
            stage.cpu_s += 0.5 * node.op.cpu_s_per_mb * shuffled
            for parent in node.parents:
                parent_share = (
                    parent.size_mb / node.input_mb if node.input_mb > 0 else 0.0
                )
                if parent.cached and registry.is_materialized(parent.id):
                    map_stage = new_stage(f"{node.op.name}-map")
                    map_stage.cached_read_mb = parent.size_mb
                    map_stage.cached_read_ids.append(parent.id)
                    map_stage.num_tasks_hint = parent.partitions
                    map_stage.record_bytes = parent.record_bytes
                    map_stage.output_mb = parent.size_mb
                else:
                    map_id = build_stage_producing(parent)
                    map_stage = stages[_index_of(stages, map_id)]
                # Map-side combine/partition/serialize cost over parent data.
                map_stage.cpu_s += node.op.cpu_s_per_mb * parent.size_mb
                map_stage.shuffle_write_mb += shuffled * parent_share
                stage.depends_on.append(map_stage.stage_id)
            return
        raise AssertionError("unreachable")  # pragma: no cover

    final_id = build_stage_producing(job.target)
    final = stages[_index_of(stages, final_id)]
    final.collect_mb = job.result_mb
    final.writes_output = job.writes_output
    for stage in stages:
        if stage.materializes:
            produced = max(1e-9, sum(mb for _, mb, _ in stage.materializes))
            # Regenerating an evicted partition re-runs the producing chain:
            # its CPU, plus a re-read of its inputs (shuffle files persist on
            # executor disks, so post-shuffle recompute re-fetches them).
            stage.recompute_cpu_s_per_mb = stage.cpu_s / produced
            stage.recompute_io_mb_per_mb = (
                stage.input_mb + stage.shuffle_read_mb + stage.cached_read_mb
            ) / produced
    plan = JobPlan(job_name=job.action, stages=stages)
    plan.topological()  # raises ValueError on a cyclic stage graph
    return plan


def _index_of(stages: list[StageProfile], stage_id: int) -> int:
    for i, s in enumerate(stages):
        if s.stage_id == stage_id:
            return i
    raise KeyError(stage_id)


# --- compiled (config-independent) execution plans ----------------------------
#
# Everything above — lineage walking, stage cutting, topological ordering,
# and the cache-registry evolution across jobs — depends only on the
# workload's job list, never on the configuration under test.  A
# :class:`CompiledWorkload` captures all of it once so candidate
# evaluations (and whole candidate *batches*) skip straight to costing.


@dataclass(frozen=True)
class CompiledStage:
    """One stage in run order plus the cache-registry state it observes.

    ``cached_mb`` and the recompute means are the registry snapshot taken
    *before* the stage runs — exactly what the per-run loop read from its
    live :class:`CacheRegistry`.  The registry's evolution is a pure
    function of the job list (materializations and evictions are declared
    by the compiled stages themselves), so snapshotting at compile time is
    bit-identical to replaying it per run.
    """

    stage: StageProfile
    cached_mb: float
    recompute_cpu_s_per_mb: float
    recompute_io_mb_per_mb: float


@dataclass(frozen=True)
class CompiledJob:
    """One job's physical plan with its stages in execution order."""

    job_name: str
    plan: JobPlan
    stages: tuple[CompiledStage, ...]


@dataclass(frozen=True)
class CompiledWorkload:
    """The full config-independent execution plan of a workload run.

    Plans are immutable once compiled: the simulator and the batch cost
    model only ever read :class:`StageProfile` fields.  All per-run state
    (noise rng, runtime accumulation, slot counts) stays per-candidate.
    """

    name: str
    input_mb: float
    #: content fingerprint of the job list (see :func:`fingerprint_jobs`);
    #: empty for uncached ad-hoc compilations
    fingerprint: str
    jobs: tuple[CompiledJob, ...]

    @property
    def num_stages(self) -> int:
        return sum(len(j.stages) for j in self.jobs)


def fingerprint_jobs(jobs: Sequence[Job]) -> str:
    """Content digest of a job list, independent of global RDD ids.

    RDD ids come from a process-global counter, so two calls to
    ``workload.jobs()`` build structurally identical lineages with
    different ids.  The digest renumbers nodes canonically (parents-first
    DFS order) and hashes every cost-relevant field, so it is equal
    exactly when the compiled plans would be equal — the key that keeps
    two same-named workloads with different job lists from aliasing in
    the simulator's plan cache.
    """
    h = hashlib.blake2b(digest_size=16)
    canonical: dict[int, int] = {}

    def visit(node: RDD) -> int:
        if node.id in canonical:
            return canonical[node.id]
        parent_idx = tuple(visit(p) for p in node.parents)
        idx = len(canonical)
        canonical[node.id] = idx
        h.update(repr((
            idx, parent_idx, node.op.kind, node.op.name, node.op.cpu_s_per_mb,
            node.op.size_ratio, node.input_mb, node.size_mb, node.partitions,
            node.record_bytes, node.cached, node.unspillable_fraction,
        )).encode())
        return idx

    for job in jobs:
        target = visit(job.target)
        unpersist = tuple(visit(r) for r in job.unpersist_after)
        h.update(repr((
            "job", target, job.action, job.result_mb, job.writes_output,
            unpersist,
        )).encode())
    return h.hexdigest()


def compile_workload(name: str, input_mb: float, jobs: Sequence[Job],
                     fingerprint: str = "") -> CompiledWorkload:
    """Compile a job list into an immutable :class:`CompiledWorkload`.

    Replays the exact per-run sequence: each job compiles against the
    registry state left by its predecessors, each stage snapshots the
    registry before running, materializations commit after each stage,
    and unpersists apply after each job.
    """
    registry = CacheRegistry()
    compiled_jobs: list[CompiledJob] = []
    next_stage_id = 0
    for job in jobs:
        plan = compile_job(job, registry, first_stage_id=next_stage_id)
        next_stage_id += plan.num_stages
        steps: list[CompiledStage] = []
        for stage in plan.topological():
            steps.append(CompiledStage(
                stage=stage,
                cached_mb=registry.total_cached_mb,
                recompute_cpu_s_per_mb=registry.mean_recompute_cpu_s_per_mb(),
                recompute_io_mb_per_mb=registry.mean_recompute_io_mb_per_mb(),
            ))
            for rdd_id, mb, record_bytes in stage.materializes:
                registry.materialize(
                    rdd_id, mb, record_bytes,
                    recompute_cpu_s_per_mb=stage.recompute_cpu_s_per_mb,
                    recompute_io_mb_per_mb=stage.recompute_io_mb_per_mb,
                )
        for rdd in job.unpersist_after:
            registry.evict(rdd.id)
        compiled_jobs.append(CompiledJob(plan.job_name, plan, tuple(steps)))
    return CompiledWorkload(
        name=name, input_mb=float(input_mb), fingerprint=fingerprint,
        jobs=tuple(compiled_jobs),
    )
