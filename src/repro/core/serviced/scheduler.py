"""Per-tenant SLO budgets and the priority scheduler they drive.

The paper proposes *tuning-effectiveness SLOs* ("jobs should run within
X% of the optimal runtime", Section IV.D); Tuneful-style operation makes
those SLOs per-tenant contracts with a spend budget attached.  The
service layer turns them into scheduling policy:

* :class:`TenantBudget` tracks, per tenant, the agreed
  :class:`~repro.core.slo.TuningSLO`, the tuning spend cap in USD, what
  has been spent so far (fed from the shared
  :class:`~repro.cloud.pricing.CostLedger` charges), and the tenant's
  SLO attainment history.
* :class:`SLOPriorityScheduler` is a priority queue of queued
  sessions.  Priority (smaller = sooner) combines two signals:

  - **SLO deficit** — tenants whose recent deployments *missed* their
    SLO jump the queue: the provider owes them tuning effort.
  - **Budget headroom** — among equal deficits, tenants with more of
    their budget remaining go first; a tenant at the end of its budget
    gains little from one more session, and admission will soon cut it
    off anyway.

  Ties break by arrival order (FIFO), so the policy is deterministic
  and starvation-free for equal-priority tenants.

The scheduler is shard-aware: sessions are pinned to a shard by
workload fingerprint (see :mod:`repro.core.serviced.sharding`), and
:meth:`SLOPriorityScheduler.pop_ready` pops the best-priority item
whose shard is currently free, leaving pinned-but-blocked work queued.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any

from ..slo import SLOReport, TuningSLO

__all__ = ["TenantBudget", "SLOPriorityScheduler"]


@dataclass
class TenantBudget:
    """One tenant's tuning-efficiency contract and spend state.

    Owned by the front end's event loop: admission reads it, and the
    front end charges each job's spend and notes each SLO report there.
    """

    tenant: str
    slo: TuningSLO | None = None
    #: tuning spend cap in USD; ``inf`` means uncapped
    max_tuning_cost: float = float("inf")
    spent_cost: float = 0.0
    slo_attained: int = 0
    slo_missed: int = 0

    def charge(self, cost: float) -> None:
        """Attribute ``cost`` USD of tuning spend to this tenant."""
        self.spent_cost += cost

    def note_report(self, report: SLOReport | None) -> None:
        """Fold one deployment's SLO outcome into the attainment history."""
        if report is None:
            return
        if report.attained:
            self.slo_attained += 1
        else:
            self.slo_missed += 1

    @property
    def exhausted(self) -> bool:
        return self.spent_cost >= self.max_tuning_cost

    @property
    def remaining_fraction(self) -> float:
        """Budget headroom in [0, 1]; uncapped tenants report 1."""
        if self.max_tuning_cost == float("inf"):
            return 1.0
        if self.max_tuning_cost <= 0:
            return 0.0
        return max(0.0, 1.0 - self.spent_cost / self.max_tuning_cost)

    @property
    def attainment(self) -> float:
        """Fraction of SLO-scored deployments that attained; 1 when unscored."""
        scored = self.slo_attained + self.slo_missed
        if not scored:
            return 1.0
        return self.slo_attained / scored


def _priority(budget: TenantBudget | None) -> float:
    """Smaller runs sooner.  Deficit dominates, headroom tie-breaks."""
    if budget is None:
        return 0.0
    deficit = 1.0 - budget.attainment        # in [0, 1]
    headroom = budget.remaining_fraction     # in [0, 1]
    return -(2.0 * deficit + headroom)


class SLOPriorityScheduler:
    """Shard-aware priority queue of pending sessions, owned by the loop."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Any]] = []
        self._seq = itertools.count()
        self.n_pushed = 0
        self.n_popped = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, item: Any, shard: int,
             budget: TenantBudget | None = None) -> None:
        """Queue ``item`` for ``shard`` at the tenant's current priority."""
        entry = (_priority(budget), next(self._seq), shard, item)
        heapq.heappush(self._heap, entry)
        self.n_pushed += 1

    def pop_ready(self, busy_shards: set[int] | frozenset[int] = frozenset(),
                  ) -> tuple[int, Any] | None:
        """Best-priority ``(shard, item)`` whose shard is not busy.

        Items pinned to busy shards stay queued at their priority; if
        every queued item is blocked (or the queue is empty), returns
        ``None``.
        """
        blocked: list[tuple[float, int, int, Any]] = []
        found: tuple[int, Any] | None = None
        while self._heap:
            entry = heapq.heappop(self._heap)
            if entry[2] in busy_shards:
                blocked.append(entry)
                continue
            found = (entry[2], entry[3])
            self.n_popped += 1
            break
        for entry in blocked:
            heapq.heappush(self._heap, entry)
        return found

    def stats(self) -> dict:
        return {
            "queued": len(self._heap),
            "n_pushed": self.n_pushed,
            "n_popped": self.n_popped,
        }
