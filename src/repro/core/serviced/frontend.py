"""The asynchronous front door of the multi-tenant tuning service.

This is the paper's Fig. 1 "submit a workload, get a tuned deployment"
contract made concurrent: tenants submit requests to an
:class:`asyncio` front end; admission control answers immediately
(admitted, or rejected with a reason); admitted work queues in the
scheduler's two request classes and is dispatched to its
fingerprint-pinned shard as soon as that shard is free.  The scheduler
takes each next job from the class that has used fewer runner seconds
(tunes by SLO deficit, ingest batches in arrival order; see
:mod:`repro.core.serviced.scheduler`), so tunes do not queue behind the
production stream.  Every accepted submission reports the latency of
its admitted attempt; a client that retries rejected attempts times
its request from the first one, as
:func:`~repro.core.serviced.loadgen.run_load` does for the headline
submit-to-deploy SLI in ``BENCH_service.json``.

Two request kinds cover the service lifecycle:

* :class:`TuneRequest` — run a tuning session and hand back a
  :class:`~repro.core.service.Deployment` (the cloud stage is skipped
  when the tenant pins a cluster, which recurring tenants do).
* :class:`RunBatchRequest` — ingest a batch of recurring production
  executions for an existing deployment through
  :func:`~repro.core.service.ingest_production_runs`, the production
  path :meth:`~repro.core.service.TuningService.run_production` shares:
  simulated through the stage-major batch path, charged to the ledger,
  appended to the shared history log.

Billing attribution: each shard owns its own
:class:`~repro.cloud.pricing.CostLedger` and executes jobs serially, so
the exact ledger delta around a job is that job's spend.  The delta and
the job's runner seconds are measured on the runner, inside the job.
Once the job settles, the loop charges the delta to the tenant's
:class:`TenantBudget` (the spend that admission control and the
priority scheduler act on) and the seconds to the job's scheduler
class.  Provider-wide totals are the sum over shard ledgers.

Ownership: this front end, its admission controller, scheduler and
tenant budgets belong to the asyncio loop's thread; every shard's
service state belongs to the pool's runner thread.  The two threads
share only the runner's queue and the futures it settles.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ...cloud.cluster import Cluster
from ..profiling import prefixed
from ..service import Deployment, TuningService, ingest_production_runs
from ..slo import TuningSLO
from .admission import AdmissionController
from .scheduler import RUNS, TUNE, SLOPriorityScheduler, TenantBudget
from .sharding import ShardPool, workload_fingerprint

__all__ = [
    "TuneRequest",
    "RunBatchRequest",
    "SubmitOutcome",
    "ServiceFrontEnd",
]


@dataclass(frozen=True)
class TuneRequest:
    """Tune ``workload`` for ``tenant`` and deploy it."""

    tenant: str
    workload: object
    input_mb: float
    workload_label: str | None = None
    slo: TuningSLO | None = None
    cluster: Cluster | None = None       # pinned cluster skips the cloud stage
    cloud_budget: int = 12
    disc_budget: int = 25
    use_transfer: bool = True
    batch_size: int = 1
    #: optional lightweight optimizer factory ``(service, seed) -> Tuner``
    #: — the load profile swaps BO for random search here
    tuner_factory: Callable | None = None


@dataclass(frozen=True)
class RunBatchRequest:
    """Ingest ``n_runs`` recurring executions of a deployed workload."""

    tenant: str
    deployment: Deployment
    input_mb: float
    n_runs: int


@dataclass
class SubmitOutcome:
    """What one submission got: a deployment, runs ingested, or a reason."""

    tenant: str
    kind: str                            # "tune" | "runs"
    accepted: bool
    reason: str | None = None            # admission reason when rejected
    deployment: Deployment | None = None
    runs_submitted: int = 0
    shard: int | None = None
    #: submit-to-completion wall time of the admitted attempt
    #: (submit-to-deploy for tune requests)
    latency_s: float | None = None


@dataclass
class _Meter:
    """What one job used, written on the runner and read on the loop
    once its future settles (a cell, so the job never references its
    entry)."""

    #: the job's exact ledger delta, USD
    cost: float = 0.0
    #: the job's wall time on the runner
    seconds: float = 0.0


@dataclass
class _Entry:
    """One admitted request queued for dispatch."""

    #: the scheduler class, as ``SubmitOutcome.kind``: "tune" | "runs"
    kind: str
    #: the metered job: the object the pool runs
    job: Callable[[TuningService], object]
    fingerprint: str
    future: asyncio.Future = field(repr=False)
    budget: TenantBudget | None = None
    meter: _Meter = field(default_factory=_Meter)


class ServiceFrontEnd:
    """Async submit → admission → two-class queue → sharded dispatch."""

    def __init__(self, pool: ShardPool,
                 admission: AdmissionController | None = None,
                 scheduler: SLOPriorityScheduler | None = None,
                 budgets: Mapping[str, TenantBudget] | None = None):
        self.pool = pool
        self.admission = admission or AdmissionController()
        self.scheduler = scheduler or SLOPriorityScheduler()
        self.budgets: dict[str, TenantBudget] = dict(budgets or {})
        self._busy: set[int] = set()
        self._wake: asyncio.Event | None = None
        self._dispatcher: asyncio.Task | None = None
        self._closed = False

    # --- tenant budgets ---------------------------------------------------
    def budget_of(self, tenant: str) -> TenantBudget | None:
        return self.budgets.get(tenant)

    def register_budget(self, budget: TenantBudget) -> None:
        self.budgets[budget.tenant] = budget

    # --- submission -------------------------------------------------------
    async def submit(self, request: TuneRequest | RunBatchRequest) -> SubmitOutcome:
        """Submit one request; resolves when it completes or is rejected.

        Rejections (queue full, tenant cap, budget exhausted) resolve
        immediately with ``accepted=False`` and the reason — the tenant
        can back off and retry.  Accepted requests hold their admission
        slot until completion, run on their fingerprint's shard, and
        have their exact ledger spend charged to the tenant budget.
        """
        if self._closed:
            raise RuntimeError("front end is closed")
        kind = TUNE if isinstance(request, TuneRequest) else RUNS
        budget = self.budgets.get(request.tenant)
        t_submit = time.monotonic()
        decision = self.admission.try_admit(
            request.tenant,
            budget_exhausted=budget.exhausted if budget is not None else False,
        )
        if not decision:
            return SubmitOutcome(
                tenant=request.tenant, kind=kind, accepted=False,
                reason=decision.reason,
            )
        entry = self._entry_for(request, kind, budget)
        shard = self.pool.shard_of(entry.fingerprint)
        try:
            self.scheduler.push(entry, shard, budget)
            self._kick()
            result = await entry.future
        finally:
            self.admission.release(request.tenant)
        latency = time.monotonic() - t_submit
        if kind == TUNE:
            deployment = result
            if budget is not None:
                budget.note_report(deployment.slo_report)
            return SubmitOutcome(
                tenant=request.tenant, kind=kind, accepted=True,
                deployment=deployment, shard=shard, latency_s=latency,
            )
        return SubmitOutcome(
            tenant=request.tenant, kind=kind, accepted=True,
            runs_submitted=int(result), shard=shard, latency_s=latency,
        )

    def _entry_for(self, request: TuneRequest | RunBatchRequest, kind: str,
                   budget: TenantBudget | None) -> _Entry:
        loop = asyncio.get_running_loop()
        if isinstance(request, TuneRequest):
            fingerprint = workload_fingerprint(request.workload, request.input_mb)
            job = self._tune_job(request)
        else:
            fingerprint = workload_fingerprint(
                request.deployment.workload, request.input_mb,
            )
            job = self._runs_job(request)
        meter = _Meter()
        return _Entry(kind=kind, job=_metered(job, meter),
                      fingerprint=fingerprint, future=loop.create_future(),
                      budget=budget, meter=meter)

    @staticmethod
    def _tune_job(request: TuneRequest) -> Callable[[TuningService], Deployment]:
        def job(service: TuningService) -> Deployment:
            disc_tuner = (
                request.tuner_factory(service, service._next_seed())
                if request.tuner_factory is not None else None
            )
            return service.submit(
                request.tenant, request.workload, request.input_mb,
                workload_label=request.workload_label, slo=request.slo,
                cloud_budget=request.cloud_budget,
                disc_budget=request.disc_budget,
                use_transfer=request.use_transfer,
                batch_size=request.batch_size,
                cluster=request.cluster, disc_tuner=disc_tuner,
            )
        return job

    @staticmethod
    def _runs_job(request: RunBatchRequest) -> Callable[[TuningService], int]:
        def job(service: TuningService) -> int:
            # Called by its module-global name, so a wrapper bound here
            # (a tracer's) sees every ingest batch.
            return len(ingest_production_runs(
                service, request.deployment, request.input_mb, request.n_runs,
            ))
        return job

    # --- dispatch ---------------------------------------------------------
    def _kick(self) -> None:
        if self._wake is None:
            self._wake = asyncio.Event()
        if self._dispatcher is None or self._dispatcher.done():
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )
        self._wake.set()

    async def _dispatch_loop(self) -> None:
        assert self._wake is not None
        while not self._closed:
            await self._wake.wait()
            self._wake.clear()
            while True:
                popped = self.scheduler.pop_ready(frozenset(self._busy))
                if popped is None:
                    break
                shard, entry = popped
                self._busy.add(shard)
                asyncio.get_running_loop().create_task(
                    self._run_entry(shard, entry)
                )

    async def _run_entry(self, shard: int, entry: _Entry) -> None:
        try:
            try:
                result = await asyncio.wrap_future(self.pool.submit(
                    shard, entry.job, fingerprint=entry.fingerprint,
                ))
            finally:
                # Back on the loop, which owns the budget and the
                # scheduler: charge what the job spent and the runner
                # time it took, failed jobs included, before the
                # submitter resumes.
                if entry.budget is not None:
                    entry.budget.charge(entry.meter.cost)
                self.scheduler.note_served(entry.kind, entry.meter.seconds)
        except Exception as exc:
            if not entry.future.done():
                entry.future.set_exception(exc)
        else:
            if not entry.future.done():
                entry.future.set_result(result)
        finally:
            self._busy.discard(shard)
            if self._wake is not None:
                self._wake.set()

    # --- lifecycle / telemetry -------------------------------------------
    async def close(self) -> None:
        """Stop the dispatcher (pending futures must be awaited first)."""
        self._closed = True
        if self._wake is not None:
            self._wake.set()
        if self._dispatcher is not None:
            await asyncio.gather(self._dispatcher, return_exceptions=True)

    def counters(self) -> dict[str, int | float]:
        """The admission and scheduler counters under ``admission.`` and
        ``scheduler.``, then the shard pool's.

        The pool's part reads runner-owned state: call it after the
        pool's ``close()``, never mid-run from the loop.
        """
        return {
            **prefixed("admission", self.admission.counters()),
            **prefixed("scheduler", self.scheduler.counters()),
            **self.pool.counters(),
        }


def _metered(job: Callable[[TuningService], object],
             meter: _Meter) -> Callable[[TuningService], object]:
    """Record the job's exact ledger delta and runner seconds in ``meter``.

    Shards execute jobs serially against their own ledger, so the delta
    observed around one job is exactly that job's spend.
    """
    def wrapped(service: TuningService) -> object:
        before = service.ledger.total_cost
        t0 = time.perf_counter()
        try:
            return job(service)
        finally:
            meter.seconds = time.perf_counter() - t0
            meter.cost = service.ledger.total_cost - before
    return wrapped
