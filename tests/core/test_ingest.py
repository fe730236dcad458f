"""Production-run ingest: the columnar path records what the scalar
path would, and consecutive batches never replay a noise stream.

``ingest_production_runs`` simulates a whole batch stage-major, reads
runtimes and outcomes from the batch's columns and characterizes every
run with one ``signatures`` call — no per-stage metrics objects.  The
reference here is the plain path it replaces: one ``run()`` per seed,
``signature()`` of its result and ``HistoryStore.record``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.cluster import Cluster
from repro.cloud.interference import QUIET
from repro.core.characterization import signature
from repro.core.service import Deployment, TuningService
from repro.core.serviced.frontend import ingest_production_runs
from repro.tuning.base import SimulationObjective
from repro.workloads import get_workload

CLUSTER = Cluster.of("m5.xlarge", 4)
#: (family, input MB): pagerank at 4000 MB OOMs under the defaults, so
#: failed runs are recorded too
CASES = (("kmeans", 1000.0), ("sort", 500.0), ("pagerank", 4000.0),
         ("sql-join-agg", 2000.0))


def _deployment(service, family, input_mb, tenant="tenant-a"):
    workload = get_workload(family)
    objective = SimulationObjective(workload, input_mb, cluster=CLUSTER,
                                    simulator=service.simulator, repair=True)
    config = objective.resolve(service.disc_space.default_configuration())[1]
    return Deployment(tenant=tenant, workload_label=family,
                      workload=workload, input_mb=input_mb, cluster=CLUSTER,
                      config=config, expected_runtime_s=1.0,
                      slo_report=None, tuning_evaluations=0)


def _record_fields(record):
    return (record.record_id, record.tenant,
            record.workload_label, record.input_mb, record.cluster,
            record.config, record.runtime_s, record.success,
            record.signature.tobytes())


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(CASES), st.lists(st.integers(1, 40), min_size=1,
                                         max_size=3),
       st.integers(0, 2**20), st.sampled_from((0.0, 1.0)))
def test_records_match_run_signature_record_reference(case, batches, seed,
                                                      interference):
    family, input_mb = case
    service = TuningService(seed=seed, interference_level=interference)
    reference = TuningService(seed=seed, interference_level=interference)
    deployment = _deployment(service, family, input_mb)
    for n_runs in batches:
        assert ingest_production_runs(service, deployment, input_mb,
                                      n_runs) == n_runs
        base = reference._next_seed(n_runs)
        for i in range(n_runs):
            env = (reference.interference.step()
                   if reference.interference is not None else QUIET)
            result = reference.simulator.run(
                deployment.workload, input_mb, CLUSTER, deployment.config,
                env=env, seed=base + i)
            reference.ledger.charge_production(CLUSTER, result.runtime_s)
            reference.store.record(
                deployment.tenant, deployment.workload_label, input_mb,
                CLUSTER.describe(), deployment.config, result,
                signature(result))
    got = [_record_fields(r) for r in service.store.all()]
    want = [_record_fields(r) for r in reference.store.all()]
    assert got == want
    assert (service.ledger.production_runs,
            service.ledger.production_seconds,
            service.ledger.production_cost) == \
        (reference.ledger.production_runs,
         reference.ledger.production_seconds,
         reference.ledger.production_cost)


def test_failed_runs_are_recorded_as_failures():
    service = TuningService(seed=1)
    deployment = _deployment(service, "pagerank", 4000.0)
    ingest_production_runs(service, deployment, 4000.0, 6)
    records = service.store.all()
    assert len(records) == 6 and not any(r.success for r in records)


def test_consecutive_large_batches_share_no_seed():
    """A batch longer than the session stride reserves enough session
    slots that the next batch starts past its last seed."""
    service = TuningService(seed=3)
    seen = []
    run_batch = service.simulator.run_batch

    def recording(*args, seeds, **kwargs):
        seen.append(list(seeds))
        return run_batch(*args, seeds=seeds, **kwargs)

    service.simulator.run_batch = recording
    deployment = _deployment(service, "scan", 500.0)
    for _ in range(2):
        ingest_production_runs(service, deployment, 500.0, 10_000)
    first, second = seen
    assert len(set(first)) == len(set(second)) == 10_000
    assert not set(first) & set(second)
    assert len({r.runtime_s for r in service.store.all()}) == 20_000


def test_seed_blocks_within_one_stride_are_unchanged():
    service = TuningService(seed=5)
    assert [service._next_seed(n) for n in (1, 7919, 1)] == \
        [5 + 7919, 5 + 2 * 7919, 5 + 3 * 7919]
    assert service._next_seed(7920) == 5 + 4 * 7919
    assert service._next_seed() == 5 + 6 * 7919
