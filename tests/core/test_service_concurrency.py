"""Shared service state: its invariants, and the thread that owns it.

The service state takes no locks.  The shard pool's one runner thread
owns every shard's service, engine, ledger and profiler, and the history
log and index they share; the asyncio loop owns the front end, admission,
the scheduler and the tenant budgets.  The first classes pin the
invariants that state keeps: seed blocks never collide, ledger sums are
exact, objectives over one engine agree, and the pool's accounting holds
under load.  :class:`TestOwnerThread` drives a small load run with
every method of those classes wrapped and fails if any object is
touched by two threads.
"""

import asyncio
import functools
import inspect
import threading

import numpy as np
import pytest

from repro.cloud.cluster import Cluster
from repro.cloud.pricing import CostLedger
from repro.core import HistoryStore, SLOMetric, TuningService, TuningSLO
from repro.core.histlog import HistoryLog
from repro.core.profiling import PhaseProfiler
from repro.core.serviced import (
    AdmissionController,
    RunBatchRequest,
    ServiceFrontEnd,
    ShardPool,
    SLOPriorityScheduler,
    TenantBudget,
    TuneRequest,
)
from repro.core.serviced.loadgen import LoadScenario, build_stack
from repro.core.simindex import SignatureIndex
from repro.engine import EngineObjective, EvaluationEngine
from repro.sparksim import SparkSimulator
from repro.tuning.random_search import RandomSearchTuner
from repro.workloads import PageRank, Wordcount


class TestSeedAllocation:
    def test_seed_blocks_never_collide(self):
        """Two sessions sharing a seed would draw identical candidate
        streams and fake cross-tenant amortization; a block of ``n``
        runs owns the seeds ``first .. first + n - 1``."""
        service = TuningService(seed=1)
        taken: set[int] = set()
        for n_runs in [1, 3, 7919, 1, 7920, 2] * 4:
            first = service._next_seed(n_runs)
            block = set(range(first, first + n_runs))
            assert not block & taken
            taken |= block


class TestLedgerCharges:
    def test_interleaved_charges_sum_exactly(self):
        ledger = CostLedger()
        cluster = Cluster.of("m5.xlarge", 4)
        for k in range(2000):
            if k % 2:
                ledger.charge_tuning(cluster, 60.0)
            else:
                ledger.charge_production(cluster, 120.0)
        assert ledger.tuning_runs == 1000
        assert ledger.production_runs == 1000
        assert ledger.tuning_seconds == pytest.approx(1000 * 60.0)
        assert ledger.production_seconds == pytest.approx(1000 * 120.0)
        one_tuning = ledger.tuning_cost / 1000
        assert ledger.tuning_cost == pytest.approx(one_tuning * 1000)


class TestEngineDispatch:
    def test_objectives_over_one_engine_agree_and_counters_balance(self):
        """Several objectives driving one engine get identical answers
        for identical candidates, with every lookup accounted as either
        a hit or a miss."""
        simulator = SparkSimulator()
        engine = EvaluationEngine(simulator=simulator, executor="serial")
        cluster = Cluster.of("m5.xlarge", 4)
        workload = Wordcount()
        space = TuningService(seed=0).disc_space
        rng = np.random.default_rng(0)
        configs = [space.default_configuration()] + [
            space.sample_configuration(rng) for _ in range(5)
        ]
        outcomes = []
        for _ in range(6):
            objective = EngineObjective(
                engine, workload, 5_000, cluster=cluster, seed=0,
            )
            outcomes.append([objective(c) for c in configs])
        for other in outcomes[1:]:
            assert other == outcomes[0]
        counters = engine.counters()
        assert counters["n_requested"] == 6 * len(configs)
        assert counters["misses"] == len(configs)
        assert counters["hits"] == counters["n_requested"] - counters["misses"]


class TestShardPoolUnderLoad:
    def test_all_futures_resolve_and_state_stays_consistent(self):
        log = HistoryLog()
        ledgers = [CostLedger() for _ in range(3)]

        def factory(i):
            return TuningService(store=HistoryStore(log), ledger=ledgers[i],
                                 executor="serial", seed=100 + i)

        cluster = Cluster.of("m5.xlarge", 4)
        with ShardPool(3, factory) as pool:
            def job(service):
                seed = service._next_seed()
                service.ledger.charge_tuning(cluster, 30.0)
                service.store.record(
                    f"t{seed % 7}", "wc", 1_000.0, cluster.describe(),
                    service.disc_space.default_configuration(),
                    _Result(30.0, True), np.ones(4),
                )
                return seed

            futures = [
                pool.submit(i % 3, job, fingerprint=f"fp{i % 5}")
                for i in range(120)
            ]
            seeds = [f.result(timeout=30) for f in futures]
        assert len(seeds) == 120
        assert sum(s.n_jobs for s in pool._shards) == 120
        assert sum(ledger.tuning_runs for ledger in ledgers) == 120
        snap = log.snapshot()
        assert len(snap) == 120
        assert len({r.record_id for r in snap}) == 120
        assert pool.counters()["distinct_fingerprints"] == 5


#: the runner owns the first seven, the event loop the last four
_RUNNER_OWNED = (TuningService, EvaluationEngine, HistoryLog, HistoryStore,
                 SignatureIndex, CostLedger, PhaseProfiler)
_LOOP_OWNED = (ServiceFrontEnd, AdmissionController, SLOPriorityScheduler,
               TenantBudget)

_SCENARIO = LoadScenario(n_tenants=12, n_shards=2, per_tenant_inflight=2,
                         seed=3)
_SLO = TuningSLO(SLOMetric.WITHIN_BEST_SIMILAR, 0.25)


def _record_threads(monkeypatch) -> dict:
    """Wrap every method and property of the owned classes.

    Returns ``{id(obj): (obj, {thread name: first call seen there})}``,
    filled in as the wrapped methods run, the way ``perfbench/trace.py``
    records its spans; ``monkeypatch`` restores the classes afterwards.
    """
    touched: dict[int, tuple[object, dict[str, str]]] = {}

    def wrap(qualname, fn):
        @functools.wraps(fn)
        def recorded(self, *args, **kwargs):
            _, threads = touched.setdefault(id(self), (self, {}))
            threads.setdefault(threading.current_thread().name, qualname)
            return fn(self, *args, **kwargs)
        return recorded

    for cls in _RUNNER_OWNED + _LOOP_OWNED:
        for name, attr in list(vars(cls).items()):
            qualname = f"{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                monkeypatch.setattr(cls, name, wrap(qualname, attr))
            elif isinstance(attr, property):
                monkeypatch.setattr(cls, name,
                                    property(wrap(qualname, attr.fget)))
    return touched


def _shared(touched: dict) -> list[tuple[str, dict[str, str]]]:
    """Every object more than one thread touched: its class, and the
    first call each thread made on it."""
    return sorted(((type(obj).__name__, threads)
                   for obj, threads in touched.values() if len(threads) > 1),
                  key=lambda shared: shared[0])


def _tune_request(tenant: str, workload) -> TuneRequest:
    return TuneRequest(
        tenant=tenant, workload=workload, input_mb=1_000, slo=_SLO,
        cluster=Cluster.of("m5.xlarge", 4), disc_budget=3, batch_size=3,
        tuner_factory=lambda service, seed: RandomSearchTuner(
            service.disc_space, seed=seed),
    )


async def _drive(frontend: ServiceFrontEnd) -> None:
    """Every tenant registers a budget, tunes, then ingests two batches."""
    workloads = [Wordcount(), PageRank()]

    async def tenant(i: int) -> None:
        name = f"tenant-{i}"
        frontend.register_budget(
            TenantBudget(name, slo=_SLO, max_tuning_cost=100.0))
        tuned = await frontend.submit(_tune_request(name, workloads[i % 2]))
        assert tuned.accepted, tuned.reason
        batches = await asyncio.gather(*[
            frontend.submit(RunBatchRequest(
                tenant=name, deployment=tuned.deployment, input_mb=1_000,
                n_runs=5,
            )) for _ in range(2)
        ])
        assert all(b.accepted for b in batches)

    await asyncio.gather(*[tenant(i) for i in range(_SCENARIO.n_tenants)])
    await frontend.close()


class TestOwnerThread:
    """One thread touches each service object during a load run.

    Ownership passes only at the pool's hand-offs (queue put/get, the
    futures, ``close()`` joining the runner), so the stack is built
    before recording starts and read only after the pool closes.
    """

    def test_no_object_is_touched_by_two_threads(self, monkeypatch):
        frontend, pool, _, _ = build_stack(_SCENARIO)
        touched = _record_threads(monkeypatch)
        try:
            asyncio.run(_drive(frontend))
        finally:
            pool.close()
        assert _shared(touched) == []
        # every owned class was on the driven path, on both threads
        seen = {type(obj) for obj, _ in touched.values()}
        assert seen == set(_RUNNER_OWNED + _LOOP_OWNED)
        threads = {name for _, by in touched.values() for name in by}
        assert threads == {"MainThread", pool._runner.name}

    def test_a_job_body_on_a_second_thread_is_flagged(self, monkeypatch):
        """Negative control: one tune job body runs on the runner, then
        on a plain thread beside it, against the same shard."""
        _, pool, _, _ = build_stack(_SCENARIO)
        touched = _record_threads(monkeypatch)
        job = ServiceFrontEnd._tune_job(_tune_request("t", Wordcount()))
        done = []
        try:
            done.append(pool.submit(0, job).result(timeout=60))
            intruder = threading.Thread(
                target=lambda: done.append(job(pool.service_of(0))),
                name="intruder",
            )
            intruder.start()
            intruder.join(timeout=60)
        finally:
            pool.close()
        assert len(done) == 2
        shared = _shared(touched)
        assert {name for name, _ in shared} == \
            {cls.__name__ for cls in _RUNNER_OWNED}
        assert all(set(threads) == {pool._runner.name, "intruder"}
                   for _, threads in shared)


class _Result:
    def __init__(self, runtime_s, success):
        self.runtime_s = runtime_s
        self.success = success
