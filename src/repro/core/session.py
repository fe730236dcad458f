"""A single tuning campaign: tune and record, with stopping rules.

Wraps a tuner + simulation objective so every exploratory execution is
recorded into the provider history store and charged to a cost ledger.
The characterization probe that precedes a campaign is run, recorded
and observed by :meth:`repro.core.service.TuningService.tune_disc`.
Stopping combines a hard budget with CherryPick's EI rule and an
optional SLO-attained early exit — bounding tuning cost is principle 3
of the paper's vision.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

from ..cloud.cluster import Cluster
from ..cloud.pricing import CostLedger
from ..config.space import Configuration
from ..sparksim.metrics import ExecutionResult
from ..tuning.base import (
    SimulationObjective,
    Tuner,
    TuningResult,
    _call_succeeded,
)
from ..tuning.bo.bayesopt import BayesOptTuner
from .characterization import signature
from .history import HistoryStore
from .profiling import PhaseProfiler

__all__ = ["SessionConfig", "TuningSession"]


@dataclass(frozen=True)
class SessionConfig:
    """Knobs of a tuning campaign."""

    budget: int = 25
    ei_stop_fraction: float | None = 0.02   # CherryPick stop rule; None = off
    min_evaluations: int = 10
    target_runtime_s: float | None = None   # SLO early exit


@dataclass
class TuningSession:
    """Drives one tuner against one workload on one cluster."""

    tenant: str
    workload_label: str
    workload: object                        # repro.workloads.Workload
    input_mb: float
    cluster: Cluster
    tuner: Tuner
    objective: SimulationObjective
    store: HistoryStore | None = None
    ledger: CostLedger | None = None
    #: optional per-phase wall-time accumulator (the owning service's)
    profiler: PhaseProfiler | None = None
    result: TuningResult = field(default_factory=TuningResult)

    def _phase(self, name: str):
        if self.profiler is None:
            return nullcontext()
        return self.profiler.phase(name)

    def _record(self, config: Configuration, exec_result: ExecutionResult) -> None:
        if self.store is None:
            return
        self.store.record(
            tenant=self.tenant,
            workload_label=self.workload_label,
            input_mb=self.input_mb,
            cluster=self.cluster.describe(),
            config=config,
            result=exec_result,
            signature=signature(exec_result),
        )

    def _evaluate_batch(self, configs) -> list[tuple[float, bool, ExecutionResult]]:
        """Evaluate ``configs``, batched through the engine when available."""
        evaluate_batch = getattr(self.objective, "evaluate_batch", None)
        if evaluate_batch is None or len(configs) == 1:
            out = []
            for config in configs:
                cost = self.objective(config)
                out.append((
                    cost, _call_succeeded(self.objective),
                    self.objective.last_result,
                ))
            return out
        outcomes = evaluate_batch(configs)
        results = [record.result for record in self.objective.last_records]
        return [
            (cost, succeeded, result)
            for (cost, succeeded), result in zip(outcomes, results)
        ]

    def run(self, session_config: SessionConfig = SessionConfig(),
            batch_size: int = 1) -> TuningResult:
        """Tune until the budget, the EI rule, or the SLO target stops us.

        With ``batch_size > 1``, suggestions are drawn through the
        tuner's ``suggest_batch`` and evaluated together (memoized, and
        simulated as one batch); stopping rules are checked at batch
        boundaries.
        """
        cfg = session_config
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        evals = 0
        while evals < cfg.budget:
            k = min(batch_size, cfg.budget - evals)
            with self._phase("suggest"):
                suggestions = (
                    self.tuner.suggest_batch(k) if k > 1
                    else [self.tuner.suggest()]
                )
            suggestions = suggestions[: cfg.budget - evals]
            with self._phase("evaluate"):
                outcomes = self._evaluate_batch(suggestions)
            for suggestion, (cost, succeeded, exec_result) in zip(
                suggestions, outcomes
            ):
                obs = self.tuner.observe(suggestion, cost, succeeded=succeeded)
                self.result.history.append(obs)
                self._record(suggestion, exec_result)
                if self.ledger is not None and self.objective.ledger is None:
                    self.ledger.charge_tuning(self.cluster, exec_result.runtime_s)
                evals += 1
            if evals < cfg.min_evaluations:
                continue
            if cfg.target_runtime_s is not None and self.result.best_cost <= cfg.target_runtime_s:
                break
            if (
                cfg.ei_stop_fraction is not None
                and isinstance(self.tuner, BayesOptTuner)
                and self.tuner.should_stop(cfg.ei_stop_fraction)
            ):
                break
        return self.result
