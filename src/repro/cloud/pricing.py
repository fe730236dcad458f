"""Cost accounting for executions and tuning campaigns.

Supports the paper's amortization arguments (Section IV.C): the cost of a
tuning campaign is the summed cost of every exploratory execution, and it
only pays off if the per-run savings of the tuned configuration amortize
it before re-tuning is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cluster import Cluster

__all__ = ["CostLedger", "execution_cost"]


def execution_cost(cluster: Cluster, runtime_s: float) -> float:
    """USD cost of one workload execution on ``cluster``."""
    return cluster.cost_of(runtime_s)


@dataclass
class CostLedger:
    """Accumulates the cost of a sequence of executions.

    Separates *tuning* executions (exploration) from *production*
    executions so amortization can be computed: the paper's example is
    BestConfig's 500 tuning runs versus 90 production runs in 3 months.

    A ledger keeps totals and counts only, no per-charge journal: the
    history log already holds every run's runtime, and a service ledger
    is charged once per ingested run.

    A ledger takes no lock.  In the service, each shard's ledger is
    charged only on the shard pool's runner thread, one job at a time, so
    the ledger delta around a job is exactly that job's spend.
    """

    tuning_cost: float = 0.0
    tuning_runs: int = 0
    tuning_seconds: float = 0.0
    production_cost: float = 0.0
    production_runs: int = 0
    production_seconds: float = 0.0

    def charge_tuning(self, cluster: Cluster, runtime_s: float) -> float:
        cost = execution_cost(cluster, runtime_s)
        self.tuning_cost += cost
        self.tuning_runs += 1
        self.tuning_seconds += runtime_s
        return cost

    def charge_production(self, cluster: Cluster, runtime_s: float) -> float:
        cost = execution_cost(cluster, runtime_s)
        self.production_cost += cost
        self.production_runs += 1
        self.production_seconds += runtime_s
        return cost

    @property
    def total_cost(self) -> float:
        return self.tuning_cost + self.production_cost

    def breakeven_runs(self, cost_default_run: float, cost_tuned_run: float) -> float:
        """Production runs needed for tuned-config savings to repay tuning.

        Returns ``inf`` when the tuned configuration saves nothing.
        """
        saving = cost_default_run - cost_tuned_run
        if saving <= 0:
            return float("inf")
        return self.tuning_cost / saving
