"""Starfish-style what-if engine (Herodotou et al., CIDR'11).

Starfish profiles a job once, then answers questions like "given the
profile of job A, input data x, cluster c1 — what will the performance
be with input y and cluster c2, under configuration c2?" by analytically
scaling the profile.  The paper notes it "showed less accuracy when
tried with heterogeneous applications and cloud workloads" — our engine
reproduces both the mechanism and that failure mode: predictions scale a
*measured* profile linearly per cost channel, so they are good near the
profiled operating point and degrade for configurations that change the
execution regime (spill onset, cache overflow, serializer switches),
which the profile cannot see.

``WhatIfTuner`` searches configurations entirely on predictions and only
executes the predicted winner — very cheap, accuracy-limited.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cloud.cluster import Cluster
from ..config.constraints import grant_resources
from ..config.space import Configuration, ConfigurationSpace
from ..sparksim.executor import ExecutorModel
from ..sparksim.metrics import ExecutionResult
from ..sparksim.shuffle import codec_of, serializer_of
from .base import Tuner

__all__ = ["JobProfile", "WhatIfEngine", "WhatIfTuner"]


@dataclass(frozen=True)
class JobProfile:
    """Per-channel cost rates measured from one profiled execution."""

    workload: str
    input_mb: float
    config: Configuration
    cluster: Cluster
    # channel totals (task-seconds) and data volumes from the profile run
    cpu_s: float
    disk_s: float
    net_s: float
    gc_s: float
    input_bytes_mb: float
    shuffle_mb: float
    num_tasks: int
    num_stages: int
    runtime_s: float
    slots: int

    @classmethod
    def from_execution(cls, result: ExecutionResult, config: Configuration,
                       cluster: Cluster) -> "JobProfile":
        if not result.success:
            raise ValueError("cannot profile a failed execution")
        grant = grant_resources(config, cluster)
        executor = ExecutorModel.from_config(config)
        slots = max(1, grant.executors * executor.concurrent_tasks)
        return cls(
            workload=result.workload,
            input_mb=result.input_mb,
            config=config,
            cluster=cluster,
            cpu_s=result.total_cpu_s,
            disk_s=result.total_io_s,
            net_s=result.total_net_s,
            gc_s=result.total_gc_s,
            input_bytes_mb=result.total_input_mb,
            shuffle_mb=result.total_shuffle_mb,
            num_tasks=result.num_tasks,
            num_stages=result.num_stages,
            runtime_s=result.runtime_s,
            slots=slots,
        )


class WhatIfEngine:
    """Analytic profile scaling: the Starfish prediction mechanism."""

    def __init__(self, profile: JobProfile):
        self.profile = profile

    def predict(self, config: Configuration, cluster: Cluster | None = None,
                input_mb: float | None = None) -> float:
        """Predict the runtime of the profiled job under new conditions.

        Scales each cost channel by first-order ratios: data volume,
        per-core speed, per-task bandwidth shares, serializer/codec CPU
        rates, and slot-count wave effects.  Regime changes (spill,
        cache overflow, OOM) are invisible to the profile — the source of
        Starfish's documented inaccuracy.
        """
        p = self.profile
        cluster = cluster or p.cluster
        input_mb = input_mb if input_mb is not None else p.input_mb

        grant = grant_resources(config, cluster)
        if grant.executors < 1:
            return float("inf")
        executor = ExecutorModel.from_config(config)
        slots = max(1, grant.executors * executor.concurrent_tasks)

        data_ratio = input_mb / p.input_mb
        cpu_ratio = p.cluster.instance.cpu_speed / cluster.instance.cpu_speed

        # Serializer / codec CPU adjustments relative to the profile.
        ser_old, ser_new = serializer_of(p.config), serializer_of(config)
        codec_old, codec_new = codec_of(p.config), codec_of(config)
        ser_scale = ser_new.serialize_s_per_mb / ser_old.serialize_s_per_mb
        # Shuffle-related CPU is roughly the serializer+codec share: apply
        # to the fraction of CPU proportional to shuffle volume.
        shuffle_cpu_share = min(
            0.6, p.shuffle_mb / max(p.input_bytes_mb + p.shuffle_mb, 1.0)
        )
        cpu = p.cpu_s * data_ratio * cpu_ratio * (
            (1 - shuffle_cpu_share) + shuffle_cpu_share * ser_scale
        )

        # Bandwidth shares: per-task disk/net scale with contention.
        tasks_per_node_old = p.slots / p.cluster.count
        tasks_per_node_new = slots / cluster.count
        disk_scale = (
            (p.cluster.node_disk_mb_s / tasks_per_node_old)
            / (cluster.node_disk_mb_s / tasks_per_node_new)
        )
        net_scale = (
            (p.cluster.node_network_mb_s / tasks_per_node_old)
            / (cluster.node_network_mb_s / tasks_per_node_new)
        )
        wire_scale = codec_new.ratio / codec_old.ratio if p.shuffle_mb > 0 else 1.0
        disk = p.disk_s * data_ratio * disk_scale
        net = p.net_s * data_ratio * net_scale * wire_scale
        gc = p.gc_s * data_ratio * cpu_ratio

        task_seconds = cpu + disk + net + gc
        # Wave model: work spreads over slots; stage barriers add latency.
        makespan = task_seconds / slots
        overhead = p.runtime_s - (p.cpu_s + p.disk_s + p.net_s + p.gc_s) / p.slots
        return max(0.1, makespan + max(0.0, overhead))


class WhatIfTuner(Tuner):
    """Search on what-if predictions; execute only predicted winners.

    The profile comes from the first observed execution; thereafter each
    ``suggest`` returns the configuration minimizing the engine's
    prediction over a random candidate pool (skipping already-run
    configurations).
    """

    def __init__(self, space: ConfigurationSpace, cluster: Cluster,
                 seed: int = 0, n_candidates: int = 800):
        super().__init__(space, seed)
        self.cluster = cluster
        self.n_candidates = n_candidates
        self._engine: WhatIfEngine | None = None

    def register_profile_run(self, result: ExecutionResult,
                             config: Configuration) -> None:
        """Feed the profiling execution (done by the caller) to the engine."""
        self._engine = WhatIfEngine(
            JobProfile.from_execution(result, config, self.cluster)
        )

    def suggest(self) -> Configuration:
        if self._engine is None:
            # First execution doubles as the profiling run.
            return self.space.default_configuration()
        seen = {o.config for o in self.history}
        candidates = [
            c for c in self.space.sample_configurations(self.n_candidates, self.rng)
            if c not in seen
        ]
        predictions = np.array([
            self._engine.predict(c, cluster=self.cluster) for c in candidates
        ])
        return candidates[int(np.argmin(predictions))]


def whatif_tune(objective, space: ConfigurationSpace, cluster: Cluster,
                budget: int, seed: int = 0):
    """Drive a WhatIfTuner against a SimulationObjective.

    Handles the profile plumbing the generic ``run_tuner`` cannot: the
    first execution's full metrics feed the engine.  Returns a
    :class:`~repro.tuning.base.TuningResult`.
    """
    from .base import TuningResult, _call_succeeded

    if budget < 1:
        raise ValueError("budget must be >= 1")
    tuner = WhatIfTuner(space, cluster, seed=seed)
    result = TuningResult()
    for _ in range(budget):
        config = tuner.suggest()
        cost = objective(config)
        obs = tuner.observe(config, cost, succeeded=_call_succeeded(objective))
        result.history.append(obs)
        if tuner._engine is None and objective.last_result.success:
            tuner.register_profile_run(
                objective.last_result, objective.resolve(config)[1]
            )
    return result
