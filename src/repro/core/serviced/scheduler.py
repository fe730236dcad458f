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
* :class:`SLOPriorityScheduler` queues admitted requests in two
  classes, named as :class:`~repro.core.serviced.frontend.SubmitOutcome`
  names them.  **Tune** requests wait in a priority queue.  Priority
  (smaller = sooner) combines two signals:

  - **SLO deficit** — tenants whose recent deployments *missed* their
    SLO jump the queue: the provider owes them tuning effort.
  - **Budget headroom** — among equal deficits, tenants with more of
    their budget remaining go first; a tenant at the end of its budget
    gains little from one more session, and admission will soon cut it
    off anyway.

  Ties break by arrival order (FIFO), so the policy is deterministic
  and starvation-free for equal-priority tenants.  **Runs** requests
  (production ingest batches) wait in arrival order: the tuning-SLO
  deficit says what a tenant is owed in tuning, not in ingest.

The two classes share the shard pool's one runner by a deficit round
robin with an equal split: the next job comes from the class that has
been served fewer measured runner seconds, so a tune waits behind at
most its class's share of ingest, and ingest is never starved by a
tune burst.  A class whose queue was empty re-enters no lower than the
other class's count, so idle time banks no credit.

The scheduler is shard-aware: sessions are pinned to a shard by
workload fingerprint (see :mod:`repro.core.serviced.sharding`), and
:meth:`SLOPriorityScheduler.pop_ready` pops the best item whose shard
is currently free, trying the other class when none of the first
class's items can run, and leaving pinned-but-blocked work queued.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any

from ..profiling import prefixed
from ..slo import SLOReport, TuningSLO

__all__ = ["TenantBudget", "SLOPriorityScheduler", "TUNE", "RUNS"]


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


#: the request classes, as ``SubmitOutcome.kind`` names them
TUNE = "tune"
RUNS = "runs"


class SLOPriorityScheduler:
    """Shard-aware two-class queue of pending requests, owned by the loop.

    An item's class is its ``kind`` attribute; an item without one is a
    tune.  Tunes are ordered by :func:`_priority`, then arrival; runs by
    arrival.  :meth:`note_served` feeds back each job's runner seconds,
    and :meth:`pop_ready` serves the class that has used fewer.
    """

    def __init__(self) -> None:
        self._queues: dict[str, list[tuple[float, int, int, Any]]] = {
            TUNE: [], RUNS: [],
        }
        #: measured runner seconds each class has been served
        self._served = {TUNE: 0.0, RUNS: 0.0}
        self._seq = itertools.count()
        self.n_pushed = 0
        self.n_popped = 0

    def __len__(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def push(self, item: Any, shard: int,
             budget: TenantBudget | None = None) -> None:
        """Queue ``item`` for ``shard`` in its class: a tune at the
        tenant's current priority, a runs batch in arrival order."""
        kind = getattr(item, "kind", TUNE)
        queue = self._queues[kind]
        if not queue:
            # Re-entering after idling: no credit for the idle time.
            self._served[kind] = max(self._served[kind],
                                     self._served[_other(kind)])
        rank = _priority(budget) if kind == TUNE else 0.0
        heapq.heappush(queue, (rank, next(self._seq), shard, item))
        self.n_pushed += 1

    def pop_ready(self, busy_shards: set[int] | frozenset[int] = frozenset(),
                  ) -> tuple[int, Any] | None:
        """The next ``(shard, item)`` whose shard is not busy.

        Tries first the class served fewer runner seconds (tunes on a
        tie), then the other.  Items pinned to busy shards stay queued
        at their place; if every queued item is blocked (or the queue
        is empty), returns ``None``.
        """
        first = TUNE if self._served[TUNE] <= self._served[RUNS] else RUNS
        for kind in (first, _other(first)):
            found = _pop_free(self._queues[kind], busy_shards)
            if found is not None:
                self.n_popped += 1
                return found
        return None

    def note_served(self, kind: str, seconds: float) -> None:
        """Count ``seconds`` of runner time against ``kind``'s share."""
        self._served[kind] += seconds

    def counters(self) -> dict[str, int | float]:
        """Queue depth, pushes, pops, and ``served_s.<class>``: the
        runner seconds each class has been served."""
        return {
            "queued": len(self),
            "n_pushed": self.n_pushed,
            "n_popped": self.n_popped,
            **prefixed("served_s", self._served),
        }


def _other(kind: str) -> str:
    return RUNS if kind == TUNE else TUNE


def _pop_free(queue: list[tuple[float, int, int, Any]],
              busy_shards: set[int] | frozenset[int],
              ) -> tuple[int, Any] | None:
    """Pop the first ``(shard, item)`` of ``queue`` whose shard is free,
    pushing back the blocked entries passed on the way."""
    blocked: list[tuple[float, int, int, Any]] = []
    found: tuple[int, Any] | None = None
    while queue:
        entry = heapq.heappop(queue)
        if entry[2] in busy_shards:
            blocked.append(entry)
            continue
        found = (entry[2], entry[3])
        break
    for entry in blocked:
        heapq.heappush(queue, entry)
    return found
