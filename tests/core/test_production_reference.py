"""``TuningService.run_production`` against its per-run reference.

The shipped method sends each run through ``ingest_production_runs``
as a batch of one and keeps only the drift detector and the failure
policy; ``run_production_reference`` (``tests/oracles.py``) keeps the
per-run ``run()``, charge and record it replaced.  Twin services with
one seed must end with equal history records, ledgers, audit trails
and deployments, re-tunes included: a re-tune between runs draws its
environments from the same interference stream, so the draw order is
pinned too.
"""

import pytest

from repro.cloud.cluster import Cluster
from repro.core import FixedThresholdDetector
from repro.core.service import Deployment, TuningService
from repro.sparksim import FaultPlan, SparkSimulator, oom_kill
from repro.tuning.base import SimulationObjective
from repro.workloads import get_workload
from tests.oracles import run_production_reference

CLUSTER = Cluster.of("m5.xlarge", 4)
GROWTH = [5_000.0] * 5 + [40_000.0] * 4

#: name -> (family, input sizes, service options, run_production options,
#: the re-tune reasons the schedule must produce); ``delta`` stands for a
#: fresh ``FixedThresholdDetector(delta)`` per run, since detectors keep
#: state across runs
SCHEDULES = {
    "steady": ("wordcount", [20_000.0] * 10, {}, {}, set()),
    "drift": ("wordcount", GROWTH, {}, {"delta": 0.5, "retune_budget": 6},
              {"drift"}),
    "failures": ("wordcount", [20_000.0] * 4,
                 {"fault_plan": FaultPlan.of(oom_kill(1.0))},
                 {"retune_budget": 6, "max_consecutive_failures": 3},
                 {"failures"}),
    "interference": ("wordcount", GROWTH, {"interference_level": 0.5},
                     {"delta": 0.5, "retune_budget": 6}, {"drift"}),
}


def _service(fault_plan=None, interference_level=0.0):
    return TuningService(seed=17, interference_level=interference_level,
                         simulator=SparkSimulator(fault_plan=fault_plan))


def _deployment(service, family, input_mb):
    workload = get_workload(family)
    objective = SimulationObjective(workload, input_mb, cluster=CLUSTER,
                                    simulator=service.simulator, repair=True)
    config = objective.resolve(service.disc_space.default_configuration())[1]
    return Deployment(tenant="tenant-a", workload_label=family,
                      workload=workload, input_mb=input_mb, cluster=CLUSTER,
                      config=config, expected_runtime_s=1.0,
                      slo_report=None, tuning_evaluations=0)


def _record_fields(record):
    return (record.record_id, record.tenant, record.workload_label,
            record.input_mb, record.cluster, record.config, record.runtime_s,
            record.success, record.signature.tobytes())


def _ledger_totals(ledger):
    return (ledger.tuning_runs, ledger.tuning_seconds, ledger.tuning_cost,
            ledger.production_runs, ledger.production_seconds,
            ledger.production_cost)


def _end_state(service, deployment, runs):
    return {
        "records": [_record_fields(r) for r in service.store.all()],
        "ledger": _ledger_totals(service.ledger),
        "runs": runs,
        "deployment": (deployment.config, deployment.retuned_count,
                       deployment.expected_runtime_s, deployment.input_mb),
    }


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_run_production_matches_per_run_reference(name):
    family, sizes, service_options, options, reasons = SCHEDULES[name]
    states = []
    for run_production in (TuningService.run_production,
                           run_production_reference):
        service = _service(**service_options)
        deployment = _deployment(service, family, sizes[0])
        kwargs = dict(options)
        if "delta" in kwargs:
            kwargs["detector"] = FixedThresholdDetector(
                delta=kwargs.pop("delta"))
        runs = run_production(service, deployment, sizes, **kwargs)
        states.append(_end_state(service, deployment, runs))
    shipped, reference = states
    assert {r.retune_reason for r in shipped["runs"]} - {None} == reasons
    for key in ("records", "ledger", "runs", "deployment"):
        assert shipped[key] == reference[key], key
