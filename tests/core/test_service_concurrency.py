"""Concurrency stress tests for the shared service state.

The shard pool runs every job on one runner thread, but the state its
services share — seed allocation, ledger charges, the history log and
its signature index, engine batch dispatch — is documented thread-safe
for any caller, and these tests pin the fixes that make it so.  The
pool tests pin its accounting and the lock order along its job path.
Pool jobs never overlap, so the last class runs the same job body
from eight plain threads with a one-microsecond switch interval,
with the service locks wrapped in the runtime lock-order sanitizer
(``repro.staticcheck.dynsan``), so an AB/BA inversion that a schedule
never happens to trip still fails the suite.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cloud.cluster import Cluster
from repro.cloud.pricing import CostLedger
from repro.core import HistoryStore, TuningService
from repro.core.histlog import HistoryLog
from repro.core.serviced import ShardPool
from repro.engine import EngineObjective, EvaluationEngine
from repro.sparksim import SparkSimulator
from repro.staticcheck.dynsan import LockOrderSanitizer, instrument_attr
from repro.workloads import Wordcount


class TestSeedAllocation:
    def test_concurrent_next_seed_never_collides(self):
        """Two sessions sharing a seed would draw identical candidate
        streams and fake cross-tenant amortization."""
        service = TuningService(seed=1)
        seeds: list[int] = []
        lock = threading.Lock()

        def worker():
            mine = [service._next_seed() for _ in range(200)]
            with lock:
                seeds.extend(mine)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(seeds) == 1600
        assert len(set(seeds)) == 1600


class TestLedgerCharges:
    def test_concurrent_charges_sum_exactly(self):
        ledger = CostLedger()
        cluster = Cluster.of("m5.xlarge", 4)

        def worker(k):
            for _ in range(250):
                if k % 2:
                    ledger.charge_tuning(cluster, 60.0)
                else:
                    ledger.charge_production(cluster, 120.0)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert ledger.tuning_runs == 1000
        assert ledger.production_runs == 1000
        assert ledger.tuning_seconds == pytest.approx(1000 * 60.0)
        assert ledger.production_seconds == pytest.approx(1000 * 120.0)
        assert len(ledger.history()) == 2000
        one_tuning = ledger.tuning_cost / 1000
        assert ledger.tuning_cost == pytest.approx(one_tuning * 1000)


class TestEngineDispatch:
    def test_concurrent_objectives_agree_and_counters_balance(self):
        """Several threads driving one engine must get identical
        answers for identical candidates, with every lookup accounted
        as either a hit or a miss."""
        simulator = SparkSimulator()
        engine = EvaluationEngine(simulator=simulator, executor="serial")
        cluster = Cluster.of("m5.xlarge", 4)
        workload = Wordcount()
        space = TuningService(seed=0).disc_space
        rng = np.random.default_rng(0)
        configs = [space.default_configuration()] + [
            space.sample_configuration(rng) for _ in range(5)
        ]

        def worker(_):
            objective = EngineObjective(
                engine, workload, 5_000, cluster=cluster, seed=0,
            )
            return [objective(c) for c in configs]

        with ThreadPoolExecutor(max_workers=6) as pool:
            outcomes = list(pool.map(worker, range(6)))
        for other in outcomes[1:]:
            assert other == outcomes[0]
        stats = engine.stats
        assert stats.lookups == 6 * len(configs)
        assert stats.misses == len(configs)
        assert stats.hits == stats.lookups - stats.misses


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
        assert pool.stats()["distinct_fingerprints"] == 5


class TestLockOrderUnderStress:
    def test_shard_stress_with_sanitized_locks_stays_acyclic(self):
        """The RC005 acceptance check at runtime: the shard stress path
        (seed lock, ledger lock, history-log lock) runs under the
        lock-order sanitizer with raise-on-cycle armed.  A new nested
        acquisition in either order deadlocks this test *deterministically*
        as a LockOrderViolation instead of hanging CI."""
        san = LockOrderSanitizer()
        log = HistoryLog()
        instrument_attr(log, "_lock", san, name="HistoryLog._lock")
        ledgers = [CostLedger() for _ in range(3)]
        for i, ledger in enumerate(ledgers):
            instrument_attr(ledger, "_lock", san,
                            name=f"CostLedger#{i}._lock")

        def factory(i):
            service = TuningService(store=HistoryStore(log),
                                    ledger=ledgers[i],
                                    executor="serial", seed=200 + i)
            instrument_attr(service, "_seed_lock", san,
                            name=f"TuningService#{i}._seed_lock")
            return service

        cluster = Cluster.of("m5.xlarge", 4)
        with ShardPool(3, factory) as pool:
            def job(service):
                seed = service._next_seed()
                service.ledger.charge_tuning(cluster, 30.0)
                service.store.record(
                    f"t{seed % 5}", "wc", 1_000.0, cluster.describe(),
                    service.disc_space.default_configuration(),
                    _Result(30.0, True), np.ones(4),
                )
                return seed

            futures = [pool.submit(i % 3, job) for i in range(90)]
            seeds = [f.result(timeout=30) for f in futures]
        assert len(set(seeds)) == 90
        assert len(log.snapshot()) == 90
        # no inversion was observed anywhere in the stress run
        assert san.cycles() == []
        # and the instrumentation really was on the hot path: every
        # sanitized lock appears in at least one recorded acquisition or
        # the run would have deadlocked on a wrapped-lock bug
        assert sum(ledger.tuning_runs for ledger in ledgers) == 90

    def test_sanitizer_detects_a_seeded_inversion_in_service_code_shape(self):
        """Negative control for the test above: the same wrapper setup
        around a deliberate AB/BA inversion does raise."""
        from repro.staticcheck.dynsan import LockOrderViolation

        san = LockOrderSanitizer()
        log_lock = san.lock("HistoryLog._lock")
        ledger_lock = san.lock("CostLedger._lock")
        with log_lock:
            with ledger_lock:
                pass
        with pytest.raises(LockOrderViolation):
            with ledger_lock:
                with log_lock:
                    pass


class TestSharedStateFromPlainThreads:
    def test_job_body_from_eight_threads_with_sanitized_locks(self):
        """The pool stress job body, run by eight threads at once (more
        than the cores) that switch every microsecond: ids and seeds stay
        unique, every ledger counts exactly its own charges, each thread
        reads its own appends back from the index in log order, and no
        lock-order inversion is observed."""
        san = LockOrderSanitizer()
        log = HistoryLog()
        instrument_attr(log, "_lock", san, name="HistoryLog._lock")
        store = HistoryStore(log)
        instrument_attr(store.index(), "_lock", san,
                        name="SignatureIndex._lock")
        ledgers = [CostLedger() for _ in range(3)]
        services = []
        for i, ledger in enumerate(ledgers):
            instrument_attr(ledger, "_lock", san,
                            name=f"CostLedger#{i}._lock")
            service = TuningService(store=HistoryStore(log), ledger=ledger,
                                    executor="serial", seed=300 + i)
            instrument_attr(service, "_seed_lock", san,
                            name=f"TuningService#{i}._seed_lock")
            services.append(service)
        cluster = Cluster.of("m5.xlarge", 4)
        seeds: list[int] = []
        errors: list[BaseException] = []
        collect = threading.Lock()

        def worker(k):
            service = services[k % 3]
            mine = []
            try:
                for _ in range(30):
                    seed = service._next_seed()
                    service.ledger.charge_tuning(cluster, 30.0)
                    record = service.store.record(
                        f"t{seed % 5}", "wc", 1_000.0, cluster.describe(),
                        service.disc_space.default_configuration(),
                        _Result(30.0, True), np.ones(4),
                    )
                    listed = service.store.for_workload(record.tenant, "wc")
                    assert any(r is record for r in listed)
                    ids = [r.record_id for r in listed]
                    assert ids == sorted(ids)
                    mine.append(seed)
            except BaseException as exc:
                errors.append(exc)
            with collect:
                seeds.extend(mine)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(seeds) == 240 and len(set(seeds)) == 240
        snap = log.snapshot()
        assert len(snap) == 240
        assert len({r.record_id for r in snap}) == 240
        # threads k, k+3, k+6 share service k: 3, 3 and 2 threads x 30
        assert [ledger.tuning_runs for ledger in ledgers] == [90, 90, 60]
        assert san.cycles() == []


class _Result:
    def __init__(self, runtime_s, success):
        self.runtime_s = runtime_s
        self.success = success
