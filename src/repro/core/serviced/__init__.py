"""Multi-tenant tuning service: async front end over sharded sessions.

The :mod:`repro.core` service made operational (paper Section IV read as
a provider service, KEA-style): admission control at the front door,
a two-class scheduler that splits the runner between tunes (ordered by
per-tenant SLO budgets) and production ingest, tuning sessions sharded
by workload fingerprint so similar tenants share warm models, all
appending to one shared history log.

Modules:

* :mod:`~repro.core.serviced.admission` — bounded queue + per-tenant caps
* :mod:`~repro.core.serviced.scheduler` — SLO budgets, two-class queue
* :mod:`~repro.core.serviced.sharding` — fingerprints + shard pool
* :mod:`~repro.core.serviced.frontend` — asyncio submit/dispatch loop
* :mod:`~repro.core.serviced.loadgen` — many-tenant load scenarios
"""

from ..service import ingest_production_runs
from .admission import (
    REJECT_BUDGET,
    REJECT_QUEUE_FULL,
    REJECT_TENANT_CAP,
    AdmissionController,
    AdmissionDecision,
)
from .frontend import (
    RunBatchRequest,
    ServiceFrontEnd,
    SubmitOutcome,
    TuneRequest,
)
from .loadgen import LoadReport, LoadScenario, build_stack, run_load
from .scheduler import SLOPriorityScheduler, TenantBudget
from .sharding import ShardPool, shard_index, workload_fingerprint

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "REJECT_BUDGET",
    "REJECT_QUEUE_FULL",
    "REJECT_TENANT_CAP",
    "TenantBudget",
    "SLOPriorityScheduler",
    "ShardPool",
    "shard_index",
    "workload_fingerprint",
    "TuneRequest",
    "RunBatchRequest",
    "SubmitOutcome",
    "ServiceFrontEnd",
    "ingest_production_runs",
    "LoadScenario",
    "LoadReport",
    "build_stack",
    "run_load",
]
