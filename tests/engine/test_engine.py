"""Tests for the batch evaluation engine: cache, determinism, executors."""

import numpy as np
import pytest

from repro.cloud import CostLedger, Cluster
from repro.cloud.interference import QUIET, TYPICAL
from repro.config.spark_params import spark_core_space
from repro.engine import (
    EngineObjective,
    EvalRequest,
    EvaluationCache,
    EvaluationEngine,
    SerialExecutor,
    config_fingerprint,
)
from repro.sparksim import SparkSimulator
from repro.tuning import RandomSearchTuner, run_tuner, run_tuner_batched
from repro.workloads import PageRank, Sort
from tests.oracles import UngroupedExecutor

CLUSTER = Cluster.of("m5.2xlarge", 6)
SPACE = spark_core_space()


def _configs(n, seed=7):
    rng = np.random.default_rng(seed)
    return SPACE.sample_configurations(n, rng)


def _objective(engine, **kwargs):
    kwargs.setdefault("cluster", CLUSTER)
    kwargs.setdefault("seed", 3)
    kwargs.setdefault("repair", True)
    return EngineObjective(engine, Sort(), 4096.0, **kwargs)


class TestFingerprintAndCache:
    def test_fingerprint_is_order_insensitive_and_stable(self):
        a = {"spark.executor.cores": 4, "spark.executor.memory_mb": 8192}
        b = dict(reversed(list(a.items())))
        assert config_fingerprint(a) == config_fingerprint(b)
        assert config_fingerprint(a) != config_fingerprint(
            {**a, "spark.executor.cores": 5}
        )

    def test_fingerprint_matches_known_answers(self):
        """The digest keys caches and seeds candidates, so it must agree
        across processes, not only within one."""
        assert config_fingerprint(SPACE.default_configuration()) == \
               "b6b8b83ac0bced44e6fb8aab2dad729a"
        assert config_fingerprint(
            {"spark.executor.cores": 4, "spark.executor.memory_mb": 8192}
        ) == "4266e7d7e95e12dbfb56489b1452f971"

    def test_lru_eviction_and_counters(self):
        cache = EvaluationCache(capacity=2)
        cache.put(("a",), 1, latency_s=0.5)
        cache.put(("b",), 2, latency_s=0.5)
        assert cache.get(("a",)) == 1            # refreshes recency
        cache.put(("c",), 3, latency_s=0.5)      # evicts ("b",)
        assert cache.get(("b",)) is None
        assert cache.get(("c",)) == 3
        assert cache.stats.evictions == 1
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(2 / 3)


class TestEvaluationEngine:
    def test_repeat_request_is_a_cache_hit(self):
        engine = EvaluationEngine()
        objective = _objective(engine)
        config = _configs(1)[0]
        cost_first = objective(config)
        first = objective.last_records[0]
        cost_again = objective(config)
        again = objective.last_records[0]
        assert not first.cached and again.cached
        assert cost_again == cost_first
        assert again.result is first.result
        counters = engine.counters()
        assert counters["hits"] == 1
        assert counters["n_evaluated"] == 1
        assert counters["n_requested"] == 2

    def test_in_batch_duplicates_simulated_once(self):
        engine = EvaluationEngine()
        config = _configs(1)[0]
        objective = _objective(engine)
        outcomes = objective.evaluate_batch([config, config, config])
        assert len({cost for cost, _ in outcomes}) == 1
        assert engine.n_evaluated == 1
        cached_flags = [r.cached for r in objective.last_records]
        assert cached_flags == [False, True, True]

    def test_cache_hits_are_not_charged_to_the_ledger(self):
        ledger = CostLedger()
        engine = EvaluationEngine()
        objective = _objective(engine, ledger=ledger)
        config = _configs(1)[0]
        objective(config)
        runs_after_miss = ledger.tuning_runs
        objective(config)
        assert ledger.tuning_runs == runs_after_miss == 1

    @pytest.mark.parametrize("executor", ["threads", "process"])
    def test_rejects_unknown_executor(self, executor):
        with pytest.raises(ValueError):
            EvaluationEngine(executor=executor)


class TestDeterminism:
    """Per-candidate seeds make observations independent of call order."""

    def test_per_config_seeding_is_call_order_independent(self):
        config = _configs(1)[0]
        a = _objective(EvaluationEngine())
        b = _objective(EvaluationEngine())
        b(_configs(3, seed=99)[0])     # burn a call on b first
        assert a(config) == b(config)


class TestFailedRunSettlement:
    """Crashed executions still settle: charged, penalized, flagged."""

    def _crashing_engine(self):
        from repro.sparksim import FaultPlan, SparkSimulator, oom_kill

        return EvaluationEngine(
            simulator=SparkSimulator(fault_plan=FaultPlan.of(oom_kill(1.0)))
        )

    def test_crashed_run_is_charged_and_flagged(self):
        ledger = CostLedger()
        engine = self._crashing_engine()
        objective = _objective(engine, ledger=ledger)
        [(cost, succeeded)] = objective.evaluate_batch(_configs(1))
        assert not succeeded
        assert not objective.last_result.success
        # The provider paid for the wasted execution...
        assert ledger.tuning_runs == 1
        assert ledger.tuning_cost > 0
        # ...and the tuner sees the penalized runtime, never the raw one.
        assert cost >= objective.failure_floor_s
        assert cost >= objective.last_result.runtime_s

    def test_cached_crash_is_not_charged_twice(self):
        ledger = CostLedger()
        engine = self._crashing_engine()
        objective = _objective(engine, ledger=ledger)
        config = _configs(1)[0]
        first = objective(config)
        assert ledger.tuning_runs == 1
        again = objective(config)
        assert again == first                    # penalty memoized too
        assert ledger.tuning_runs == 1           # cache hits are free

    def test_failure_flag_propagates_through_batched_driver(self):
        engine = self._crashing_engine()
        objective = _objective(engine)
        tuner = RandomSearchTuner(SPACE, seed=4)
        result = run_tuner_batched(tuner, objective, budget=5, batch_size=3)
        assert all(not o.succeeded for o in result.history)
        assert all(o.cost >= objective.failure_floor_s for o in result.history)


class TestBatchedTunerDriver:
    def test_run_tuner_batched_matches_serial_run_tuner(self):
        def make():
            tuner = RandomSearchTuner(SPACE, seed=11)
            objective = _objective(EvaluationEngine())
            return tuner, objective

        tuner_a, obj_a = make()
        serial = run_tuner(tuner_a, obj_a, budget=12)
        tuner_b, obj_b = make()
        batched = run_tuner_batched(tuner_b, obj_b, budget=12, batch_size=5)
        assert [o.cost for o in serial.history] == [o.cost for o in batched.history]
        assert [o.config for o in serial.history] == [o.config for o in batched.history]

    def test_single_source_of_truth_history(self):
        tuner = RandomSearchTuner(SPACE, seed=2)
        objective = _objective(EvaluationEngine())
        result = run_tuner_batched(tuner, objective, budget=6, batch_size=3)
        assert result.history == tuner.history       # same records, no forks
        assert all(o is h for o, h in zip(result.history, tuner.history))
        assert all(o.succeeded is not None for o in result.history)


class TestSerialExecutorGrouping:
    def test_grouped_and_ungrouped_records_are_identical(self):
        from repro.sparksim import SparkSimulator

        def campaign(executor_cls):
            sim = SparkSimulator()
            executor = executor_cls(sim)
            engine = EvaluationEngine(simulator=sim, executor=executor)
            objective = _objective(engine)
            tuner = RandomSearchTuner(SPACE, seed=21)
            return run_tuner_batched(tuner, objective, budget=15,
                                     batch_size=5)

        grouped = campaign(SerialExecutor)
        ungrouped = campaign(UngroupedExecutor)
        assert [o.cost for o in grouped.history] == \
               [o.cost for o in ungrouped.history]


class TestEnvDistinctMisses:
    def test_same_candidate_new_environment_is_counted(self):
        engine = EvaluationEngine()
        base = EvalRequest(
            workload=Sort(), input_mb=4096.0, cluster=CLUSTER,
            config=SPACE.default_configuration(), env=QUIET, seed=11,
        )
        engine.evaluate(base)
        assert engine.counters()["n_env_distinct_misses"] == 0
        from dataclasses import replace

        engine.evaluate(replace(base, env=TYPICAL))
        counters = engine.counters()
        assert counters["n_env_distinct_misses"] == 1
        assert counters["hits"] == 0                      # both were misses
        # A true repeat stays a plain cache hit, not an env-distinct miss.
        engine.evaluate(base)
        assert engine.counters()["n_env_distinct_misses"] == 1
        assert engine.counters()["hits"] == 1


class TestSameNamedWorkloads:
    """Two workloads that share a name but not a job list are distinct
    runs: the engine keys them apart, as the simulator's plan cache
    does."""

    def _pair(self):
        base, heavy = PageRank(), PageRank(cpu_scale=3.0)
        assert base.name == heavy.name
        config = SPACE.default_configuration()
        return [EvalRequest(workload=w, input_mb=4096.0, cluster=CLUSTER,
                            config=config, seed=5) for w in (base, heavy)]

    def _direct(self, request):
        return SparkSimulator().run(
            request.workload, request.input_mb, request.cluster,
            request.config, seed=request.seed,
        ).runtime_s

    def test_second_workload_is_not_answered_from_the_first(self):
        engine = EvaluationEngine()
        first, second = (engine.evaluate(r) for r in self._pair())
        assert not second.cached
        assert second.result.runtime_s == self._direct(second.request)
        assert second.result.runtime_s != first.result.runtime_s
        assert engine.counters()["misses"] == 2

    def test_one_batch_does_not_dedup_them(self):
        requests = self._pair()
        records = EvaluationEngine().evaluate_batch(requests)
        assert [r.cached for r in records] == [False, False]
        assert [r.result.runtime_s for r in records] == \
               [self._direct(r) for r in requests]

    def test_job_digest_is_built_once_per_workload_and_size(self, monkeypatch):
        """Keying builds ``jobs()`` once per (workload object, input
        size); it reads nothing from the simulator's plan cache."""
        workload = Sort()
        calls = []
        original = workload.jobs
        monkeypatch.setattr(workload, "jobs",
                            lambda mb: calls.append(mb) or original(mb))
        for input_mb in (4096.0, 4096, 8192.0, 4096.0):
            request = EvalRequest(workload=workload, input_mb=input_mb,
                                  cluster=CLUSTER, config=_configs(1)[0])
            for _ in range(3):
                request.cache_key()
        assert calls == [4096.0, 8192.0]


class CountingExecutor(SerialExecutor):
    """The default executor, counting its ``run_batch`` calls."""

    calls = 0

    def run_batch(self, requests):
        self.calls += 1
        return super().run_batch(requests)


class BatchPathDefectExecutor(SerialExecutor):
    """A batch path that raises for any batch of more than one request."""

    def run_batch(self, requests):
        requests = list(requests)
        if len(requests) > 1:
            raise IndexError("batch path defect")
        return super().run_batch(requests)


def _requests(n, input_mb=4096.0):
    return [
        EvalRequest(workload=Sort(), input_mb=input_mb, cluster=CLUSTER,
                    config=config, seed=i)
        for i, config in enumerate(_configs(n))
    ]


class TestFailFast:
    """An executor exception reaches the caller once and unchanged."""

    def test_bad_request_raises_after_one_call_and_caches_nothing(self):
        executor = CountingExecutor()
        engine = EvaluationEngine(executor=executor)
        good = _requests(7)
        [bad] = _requests(1, input_mb=-1.0)
        with pytest.raises(ValueError, match="source size must be positive"):
            engine.evaluate_batch([*good[:3], bad, *good[3:]])
        assert executor.calls == 1
        assert len(engine.cache) == 0
        assert engine.n_evaluated == 0
        assert engine.counters() == EvaluationEngine().counters()
        records = engine.evaluate_batch(good)
        assert executor.calls == 2
        assert [r.cached for r in records] == [False] * len(good)
        fresh = EvaluationEngine().evaluate_batch(good)
        assert [r.result.runtime_s for r in records] == \
               [r.result.runtime_s for r in fresh]

    def test_batch_path_exception_is_not_answered_per_request(self):
        engine = EvaluationEngine(executor=BatchPathDefectExecutor())
        with pytest.raises(IndexError, match="batch path defect"):
            engine.evaluate_batch(_requests(4))
