"""Tuner interface, tuning loop, and simulation-backed objectives.

Every tuning strategy in the paper's survey (Section II) is implemented
against the same two-method interface — ``suggest`` a configuration,
``observe`` its cost — so the sample-efficiency comparisons of the E2
bench are apples-to-apples.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from ..cloud.cluster import Cluster
from ..cloud.interference import QUIET, InterferenceModel
from ..cloud.pricing import CostLedger
from ..config.constraints import repair as repair_config
from ..config.space import Configuration, ConfigurationSpace
from ..config.spark_params import SPARK_DEFAULTS
from ..sparksim.metrics import ExecutionResult
from ..sparksim.simulator import SparkSimulator

if TYPE_CHECKING:
    from ..workloads.base import Workload

__all__ = [
    "Observation",
    "TuningResult",
    "Tuner",
    "run_tuner",
    "SimulationObjective",
]


@dataclass(frozen=True)
class Observation:
    """One evaluated configuration."""

    config: Configuration
    cost: float
    succeeded: bool = True


@dataclass
class TuningResult:
    """The trace of one tuning campaign."""

    history: list[Observation] = field(default_factory=list)

    @property
    def n_evaluations(self) -> int:
        return len(self.history)

    @property
    def best(self) -> Observation:
        if not self.history:
            raise ValueError("no observations yet")
        return min(self.history, key=lambda o: o.cost)

    @property
    def best_config(self) -> Configuration:
        return self.best.config

    @property
    def best_cost(self) -> float:
        return self.best.cost

    def incumbent_curve(self) -> list[float]:
        """Best cost seen after each evaluation (the regret curve's numerator)."""
        curve, best = [], float("inf")
        for obs in self.history:
            best = min(best, obs.cost)
            curve.append(best)
        return curve

    def evaluations_to_within(self, fraction: float, reference_best: float) -> int | None:
        """Evaluations needed to get within ``fraction`` of ``reference_best``.

        The paper's proposed SLO metric ("jobs should run within X% of the
        optimal runtime", Section IV.D) applied to a tuning trace.  Returns
        ``None`` if the campaign never reached the target.
        """
        if fraction < 0:
            raise ValueError("fraction must be non-negative")
        target = reference_best * (1.0 + fraction)
        for i, cost in enumerate(self.incumbent_curve(), start=1):
            if cost <= target:
                return i
        return None


class Tuner(ABC):
    """Sequential configuration tuner."""

    def __init__(self, space: ConfigurationSpace, seed: int = 0):
        self.space = space
        self.rng = np.random.default_rng(seed)
        self.history: list[Observation] = []

    @abstractmethod
    def suggest(self) -> Configuration:
        """Propose the next configuration to evaluate."""

    def suggest_batch(self, k: int) -> list[Configuration]:
        """Propose up to ``k`` configurations to evaluate together.

        The default is ``k`` sequential :meth:`suggest` calls (correct
        for stateless samplers; model-based tuners will propose
        duplicates and should override).  Population tuners override
        this to return their natural batch — which may be *shorter*
        than ``k`` at a generation/round boundary, so the tuner sees
        the results it needs before committing to the next round.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        return [self.suggest() for _ in range(k)]

    def observe(self, config: Configuration, cost: float,
                succeeded: bool = True) -> Observation:
        """Record the measured cost of ``config``; returns the record.

        The returned :class:`Observation` is the single source of truth
        shared with any :class:`TuningResult` tracking the campaign.
        """
        if not np.isfinite(cost):
            raise ValueError(f"cost must be finite, got {cost}")
        obs = Observation(config, float(cost), succeeded=bool(succeeded))
        self.history.append(obs)
        return obs

    def observe_batch(
        self, observations: Iterable[Sequence[Any]]
    ) -> list[Observation]:
        """Record a batch of ``(config, cost)`` or ``(config, cost, succeeded)``."""
        out: list[Observation] = []
        for entry in observations:
            config, cost, *rest = entry
            out.append(self.observe(config, cost, *rest))
        return out

    @property
    def best(self) -> Observation | None:
        if not self.history:
            return None
        return min(self.history, key=lambda o: o.cost)

    @property
    def name(self) -> str:
        return type(self).__name__


def _call_succeeded(objective: object) -> bool:
    """Success of the objective's most recent evaluation, if it exposes one."""
    result = getattr(objective, "last_result", None)
    return bool(getattr(result, "success", True))


def run_tuner(tuner: Tuner, objective: Callable[[Configuration], float],
              budget: int, batch_size: int = 1) -> TuningResult:
    """Drive ``tuner`` against ``objective`` for ``budget`` evaluations.

    At ``batch_size == 1`` every evaluation is proposed by ``suggest()``.
    Above it, every chunk, a final chunk of one included, is proposed by
    ``suggest_batch(min(batch_size, remaining))``.  ``objective`` may be
    a plain callable or expose ``evaluate_batch(configs) -> list[(cost,
    succeeded)]`` (the :class:`repro.engine.EngineObjective` protocol),
    in which case each chunk is dispatched at once — memoized, and
    simulated through the batched fast path.

    The returned result shares its :class:`Observation` records with
    ``tuner.history`` — one source of truth, including the ``succeeded``
    flag when the objective exposes its last execution result.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    result = TuningResult()
    evaluate_batch = getattr(objective, "evaluate_batch", None)
    remaining = budget
    while remaining > 0:
        configs = (
            [tuner.suggest()] if batch_size == 1
            else tuner.suggest_batch(min(batch_size, remaining))
        )
        if not configs:
            raise RuntimeError(f"{tuner.name}.suggest_batch returned no configurations")
        configs = configs[:remaining]
        if evaluate_batch is not None:
            outcomes = evaluate_batch(configs)
        else:
            outcomes = [
                (objective(c), _call_succeeded(objective)) for c in configs
            ]
        for config, (cost, succeeded) in zip(configs, outcomes):
            result.history.append(tuner.observe(config, cost, succeeded=succeeded))
        remaining -= len(configs)
    return result


class SimulationObjective:
    """Cost function backed by the Spark simulator.

    Evaluates configurations from either a DISC space (fixed cluster), a
    cloud space (instance type + cluster size; DISC config defaults or a
    caller-supplied base), or the joint space.  Each call uses a fresh
    noise seed and, optionally, steps an interference process — tuners
    face the same noisy, drifting measurements real ones do.
    """

    def __init__(self, workload: Workload, input_mb: float,
                 cluster: Cluster | None = None,
                 simulator: SparkSimulator | None = None,
                 base_config: Mapping[str, Any] | None = None,
                 interference: InterferenceModel | None = None,
                 ledger: CostLedger | None = None,
                 failure_penalty: float = 4.0,
                 failure_floor_s: float = 3600.0,
                 metric: str = "runtime",
                 repair: bool = False,
                 seed: int = 0):
        if metric not in ("runtime", "price"):
            raise ValueError("metric must be 'runtime' or 'price'")
        self.workload = workload
        self.input_mb = input_mb
        self.cluster = cluster
        self.simulator = simulator or SparkSimulator()
        self.base_config = dict(SPARK_DEFAULTS)
        if base_config:
            self.base_config.update(base_config)
        self.interference = interference
        self.ledger = ledger
        self.failure_penalty = failure_penalty
        self.failure_floor_s = failure_floor_s
        self.metric = metric
        #: clamp executor sizing to fit the cluster before running — what
        #: a cloud-configuration stage does when the DISC config is held
        #: fixed across clusters of very different node sizes.  DISC
        #: tuners should leave this off and face crashes, as real ones do.
        self.repair = repair
        self._seed = seed
        self.n_calls = 0
        self.last_result: ExecutionResult | None = None

    def resolve(self, config: Mapping[str, Any]) -> tuple[Cluster, Configuration]:
        """Split a (possibly joint) configuration into cluster + full Spark config."""
        # Copy the backing dict directly when the tuner hands us a
        # Configuration — dict(mapping) walks __iter__/__getitem__.
        backing = getattr(config, "_values", None)
        values = dict(backing) if backing is not None else dict(config)
        instance = values.pop("cloud.instance_type", None)
        size = values.pop("cloud.cluster_size", None)
        if instance is not None:
            cluster = Cluster.of(instance, int(size))
        elif self.cluster is not None:
            cluster = self.cluster
        else:
            raise ValueError(
                "objective needs either a fixed cluster or cloud.* parameters"
            )
        full = dict(self.base_config)
        full.update(values)
        config = Configuration(full)
        if self.repair:
            config = repair_config(config, cluster)
        return cluster, config

    def __call__(self, config: Mapping[str, Any]) -> float:
        cluster, spark_config = self.resolve(config)
        env = self.interference.step() if self.interference else QUIET
        self.n_calls += 1
        result = self.simulator.run(
            self.workload, self.input_mb, cluster, spark_config,
            env=env, seed=self._seed + self.n_calls,
        )
        self.last_result = result
        if self.ledger is not None:
            self.ledger.charge_tuning(cluster, result.runtime_s)
        runtime = result.effective_runtime(self.failure_penalty, self.failure_floor_s)
        if self.metric == "price":
            return cluster.cost_of(runtime)
        return runtime
