"""Load generator for the multi-tenant service: many tenants, one stack.

Builds the full service stack — shared append-only history log, one
:class:`~repro.core.service.TuningService` per shard (own engine, own
ledger), admission control, two-class scheduling, the asyncio front
end — and drives it with a synthetic tenant population:

1. every tenant submits a :class:`~repro.core.serviced.frontend.TuneRequest`
   (lightweight random-search sessions on a pinned cluster — the load
   profile measures the *service*, not the optimizer), retrying with
   backoff when admission rejects it;
2. each deployed tenant then ingests its recurring production runs as
   concurrent :class:`~repro.core.serviced.frontend.RunBatchRequest`
   batches through the batched simulator fast path.

Tenants are drawn from a handful of workload families, so many tenants
share a fingerprint: they land on the same shard and hit its warm
engine cache — the cross-tenant amortization the sharding exists for.

:func:`run_load` returns a :class:`LoadReport` with the two headline
SLIs (run throughput, p99 submit-to-deploy latency, timed from each
tenant's first tune attempt), billing totals, and the stack's flat
counters — this is what ``benchmarks/test_perf_service.py`` writes into
``BENCH_service.json``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from ...cloud.cluster import Cluster
from ...cloud.pricing import CostLedger
from ...tuning.random_search import RandomSearchTuner
from ...workloads import get_workload
from ...workloads.suite import SUITE
from ..history import HistoryStore
from ..histlog import HistoryLog
from ..profiling import prefixed
from ..service import TuningService
from ..slo import SLOMetric, TuningSLO
from .admission import REJECT_BUDGET, AdmissionController
from .frontend import RunBatchRequest, ServiceFrontEnd, TuneRequest
from .scheduler import SLOPriorityScheduler, TenantBudget
from .sharding import ShardPool

__all__ = ["LoadScenario", "LoadReport", "build_stack", "run_load"]


@dataclass(frozen=True)
class LoadScenario:
    """One load-test configuration; defaults are a small smoke profile."""

    n_tenants: int = 50
    #: distinct workload families tenants are drawn from (≤ suite size);
    #: fewer families → more fingerprint collisions → warmer shards
    n_workload_families: int = 4
    #: recurring production executions ingested per deployed tenant
    runs_per_tenant: int = 20
    #: concurrent RunBatchRequest batches those runs are split into
    ingest_batches: int = 2
    n_shards: int = 4
    input_mb: float = 1000.0
    cluster_instance: str = "m5.xlarge"
    cluster_count: int = 4
    #: per-session DISC evaluations (random search under load)
    disc_budget: int = 4
    batch_size: int = 4
    max_pending: int = 256
    per_tenant_inflight: int = 2
    #: per-tenant tuning spend cap in USD (``inf`` = uncapped)
    max_tuning_cost_usd: float = float("inf")
    slo_target_fraction: float = 0.25
    #: rejection retries per request; the ramping backoff (see
    #: ``_submit_with_retry``) makes the total retry window minutes, so
    #: a full-population burst drains through a bounded queue
    max_retries: int = 2000
    retry_backoff_s: float = 0.004
    seed: int = 0


@dataclass
class LoadReport:
    """Outcome + telemetry of one :func:`run_load` execution."""

    scenario: LoadScenario
    wall_s: float
    tenants_deployed: int
    tenants_denied: int              # tune never admitted (retries exhausted)
    runs_submitted: int
    #: headline SLI 1: production runs ingested per second of wall time
    runs_per_s: float
    #: headline SLI 2: submit-to-deploy latency of deployed tenants'
    #: tune requests, from the first submit attempt (rejected attempts
    #: and their backoff included) to the deployment
    tune_latency_p50_s: float
    tune_latency_p99_s: float
    slo_attained: int = 0
    slo_missed: int = 0
    tuning_cost_usd: float = 0.0
    production_cost_usd: float = 0.0
    history_records: int = 0
    #: the front end's counters (admission, scheduler, and the pool's
    #: per-shard jobs and shard-summed engine, simulator and phase
    #: counters) plus the shared history index's under ``index.``
    counters: dict = field(default_factory=dict)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def build_stack(scenario: LoadScenario) -> tuple[ServiceFrontEnd, ShardPool,
                                                 HistoryStore, list[CostLedger]]:
    """Assemble log → sharded services → admission/scheduler → front end.

    Every shard's service shares the one append-only history log (so
    transfer and SLO references see all tenants) but owns its ledger —
    shard-serial execution is what makes per-tenant spend attribution
    exact (see :mod:`repro.core.serviced.frontend`).
    """
    log = HistoryLog()
    store = HistoryStore(log)
    ledgers = [CostLedger() for _ in range(scenario.n_shards)]

    def service_factory(shard: int) -> TuningService:
        return TuningService(
            store=HistoryStore(log), ledger=ledgers[shard],
            executor="serial", seed=scenario.seed + 1000 * (shard + 1),
        )

    pool = ShardPool(scenario.n_shards, service_factory)
    frontend = ServiceFrontEnd(
        pool,
        admission=AdmissionController(
            max_pending=scenario.max_pending,
            per_tenant_inflight=scenario.per_tenant_inflight,
        ),
        scheduler=SLOPriorityScheduler(),
    )
    return frontend, pool, store, ledgers


async def _submit_with_retry(frontend: ServiceFrontEnd, request,
                             scenario: LoadScenario):
    """Submit, backing off on rejection; budget rejections are final.

    The backoff ramps (capped at 32x) so a rejected burst thins out
    instead of hammering the admission gate in lockstep.
    """
    outcome = await frontend.submit(request)
    for attempt in range(scenario.max_retries):
        if outcome.accepted or outcome.reason == REJECT_BUDGET:
            return outcome
        await asyncio.sleep(scenario.retry_backoff_s * min(attempt + 1, 32))
        outcome = await frontend.submit(request)
    return outcome


async def _tenant(frontend: ServiceFrontEnd, scenario: LoadScenario,
                  index: int, workload, totals: dict) -> None:
    """One tenant's life: tune (with retries), then ingest its runs."""
    tenant = f"tenant-{index:04d}"
    cluster = Cluster.of(scenario.cluster_instance, scenario.cluster_count)
    tune = TuneRequest(
        tenant=tenant, workload=workload, input_mb=scenario.input_mb,
        slo=TuningSLO(SLOMetric.WITHIN_BEST_SIMILAR,
                      scenario.slo_target_fraction),
        cluster=cluster, disc_budget=scenario.disc_budget,
        use_transfer=False, batch_size=scenario.batch_size,
        tuner_factory=lambda service, seed: RandomSearchTuner(
            service.disc_space, seed=seed,
        ),
    )
    # Timed from the first attempt, so queue-full retries count.
    t_first = time.monotonic()
    outcome = await _submit_with_retry(frontend, tune, scenario)
    if not outcome.accepted:
        totals["denied"] += 1
        return
    totals["deployed"] += 1
    totals["tune_latencies"].append(time.monotonic() - t_first)
    report = outcome.deployment.slo_report
    if report is not None:
        totals["slo_attained" if report.attained else "slo_missed"] += 1

    per_batch = max(1, scenario.runs_per_tenant // scenario.ingest_batches)
    batches, left = [], scenario.runs_per_tenant
    while left > 0:
        n = min(per_batch, left)
        batches.append(RunBatchRequest(
            tenant=tenant, deployment=outcome.deployment,
            input_mb=scenario.input_mb, n_runs=n,
        ))
        left -= n
    results = await asyncio.gather(*[
        _submit_with_retry(frontend, b, scenario) for b in batches
    ])
    totals["runs"] += sum(r.runs_submitted for r in results if r.accepted)


async def _drive(frontend: ServiceFrontEnd, scenario: LoadScenario,
                 totals: dict) -> None:
    families = min(scenario.n_workload_families, len(SUITE))
    names = list(SUITE)[:families]
    workloads = [get_workload(name) for name in names]
    for tenant_index in range(scenario.n_tenants):
        budget = TenantBudget(
            tenant=f"tenant-{tenant_index:04d}",
            slo=TuningSLO(SLOMetric.WITHIN_BEST_SIMILAR,
                          scenario.slo_target_fraction),
            max_tuning_cost=scenario.max_tuning_cost_usd,
        )
        frontend.register_budget(budget)
    await asyncio.gather(*[
        _tenant(frontend, scenario, i, workloads[i % families], totals)
        for i in range(scenario.n_tenants)
    ])
    await frontend.close()


def run_load(scenario: LoadScenario = LoadScenario()) -> LoadReport:
    """Run one load scenario against a freshly built service stack."""
    frontend, pool, store, ledgers = build_stack(scenario)
    totals: dict = {
        "deployed": 0, "denied": 0, "runs": 0,
        "slo_attained": 0, "slo_missed": 0,
        "tune_latencies": [],
    }
    t0 = time.monotonic()
    try:
        asyncio.run(_drive(frontend, scenario, totals))
    finally:
        pool.close()
    wall = time.monotonic() - t0
    return LoadReport(
        scenario=scenario,
        wall_s=wall,
        tenants_deployed=totals["deployed"],
        tenants_denied=totals["denied"],
        runs_submitted=totals["runs"],
        runs_per_s=totals["runs"] / wall if wall > 0 else 0.0,
        tune_latency_p50_s=_percentile(totals["tune_latencies"], 0.50),
        tune_latency_p99_s=_percentile(totals["tune_latencies"], 0.99),
        slo_attained=totals["slo_attained"],
        slo_missed=totals["slo_missed"],
        tuning_cost_usd=sum(ledger.tuning_cost for ledger in ledgers),
        production_cost_usd=sum(ledger.production_cost for ledger in ledgers),
        history_records=len(store),
        counters={**frontend.counters(),
                  **prefixed("index", store.index().counters())},
    )
