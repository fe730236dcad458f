"""Admission control for the multi-tenant service front end.

KEA (PAPERS.md) runs tuning as a shared Microsoft-internal service where
admission control and per-tenant caps are first-class concerns: a
provider cannot let one tenant's burst starve everyone else, and a
bounded request queue is what turns overload into fast, explainable
rejections instead of unbounded latency.

:class:`AdmissionController` enforces two limits at submit time, before
any work is queued:

* **Bounded pending queue** — at most ``max_pending`` requests admitted
  but not yet completed, service-wide.  Beyond that, new submissions are
  rejected with :data:`REJECT_QUEUE_FULL`.
* **Per-tenant in-flight cap** — at most ``per_tenant_inflight``
  concurrent requests per tenant, rejecting with
  :data:`REJECT_TENANT_CAP`.  This is the fairness knob: a tenant
  scripting thousands of submissions competes only with itself.

Callers may also pass ``budget_exhausted=True`` (computed from the
tenant's :class:`~repro.core.serviced.scheduler.TenantBudget`) to reject
with :data:`REJECT_BUDGET` — tuning stops when the tenant's agreed spend
is gone, which is the paper's bounded-user-cost principle enforced at
the front door.

Every decision is counted, so rejection rates are a first-class service
metric (they appear in the load report's counters and
``BENCH_service.json``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..profiling import prefixed

__all__ = [
    "REJECT_QUEUE_FULL",
    "REJECT_TENANT_CAP",
    "REJECT_BUDGET",
    "AdmissionDecision",
    "AdmissionController",
]

REJECT_QUEUE_FULL = "queue_full"
REJECT_TENANT_CAP = "tenant_inflight_cap"
REJECT_BUDGET = "budget_exhausted"


@dataclass(frozen=True)
class AdmissionDecision:
    """Admit, or reject with a machine-readable reason."""

    admitted: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.admitted


class AdmissionController:
    """Admission gate with a bounded queue and tenant caps.

    Owned by the front end's event loop, which makes every decision.
    """

    def __init__(self, max_pending: int = 256, per_tenant_inflight: int = 4):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if per_tenant_inflight < 1:
            raise ValueError("per_tenant_inflight must be >= 1")
        self.max_pending = max_pending
        self.per_tenant_inflight = per_tenant_inflight
        self._pending = 0
        self._by_tenant: Counter[str] = Counter()
        self.n_admitted = 0
        self.n_rejected: Counter[str] = Counter()

    def try_admit(self, tenant: str, *,
                  budget_exhausted: bool = False) -> AdmissionDecision:
        """Admit ``tenant``'s request or reject with a reason.

        An admitted request holds one pending slot and one tenant
        in-flight slot until :meth:`release` — the caller must pair
        every admit with exactly one release (success and failure
        paths alike).
        """
        if budget_exhausted:
            self.n_rejected[REJECT_BUDGET] += 1
            return AdmissionDecision(False, REJECT_BUDGET)
        if self._pending >= self.max_pending:
            self.n_rejected[REJECT_QUEUE_FULL] += 1
            return AdmissionDecision(False, REJECT_QUEUE_FULL)
        if self._by_tenant[tenant] >= self.per_tenant_inflight:
            self.n_rejected[REJECT_TENANT_CAP] += 1
            return AdmissionDecision(False, REJECT_TENANT_CAP)
        self._pending += 1
        self._by_tenant[tenant] += 1
        self.n_admitted += 1
        return AdmissionDecision(True)

    def release(self, tenant: str) -> None:
        """Return the slots held by one admitted request."""
        if self._pending <= 0 or self._by_tenant[tenant] <= 0:
            raise RuntimeError(
                f"release() without a matching admit for {tenant!r}"
            )
        self._pending -= 1
        self._by_tenant[tenant] -= 1
        if not self._by_tenant[tenant]:
            del self._by_tenant[tenant]

    @property
    def pending(self) -> int:
        return self._pending

    def counters(self) -> dict[str, int]:
        """Pending requests, admissions, and ``n_rejected.<reason>`` for
        each reason seen."""
        return {
            "pending": self._pending,
            "n_admitted": self.n_admitted,
            **prefixed("n_rejected", self.n_rejected),
        }
