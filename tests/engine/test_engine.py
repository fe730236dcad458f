"""Tests for the batch evaluation engine: cache, determinism, executors."""

import numpy as np
import pytest

from repro.cloud import CostLedger, Cluster
from repro.config.spark_params import spark_core_space
from repro.engine import (
    EngineObjective,
    EvalRequest,
    EvaluationCache,
    EvaluationEngine,
    config_fingerprint,
)
from repro.tuning import RandomSearchTuner, run_tuner, run_tuner_batched
from repro.workloads import Sort

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

    def test_cache_size_zero_disables_memoization(self):
        engine = EvaluationEngine(cache_size=0)
        objective = _objective(engine)
        config = _configs(1)[0]
        objective(config)
        objective(config)
        assert engine.n_evaluated == 2
        assert engine.counters()["hits"] == 0

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

    def test_per_call_mode_redraws_noise(self):
        objective = _objective(EvaluationEngine(), seed_mode="per-call")
        config = _configs(1)[0]
        first, second = objective(config), objective(config)
        # Distinct seeds -> distinct requests -> no cache hit.
        assert objective.engine.counters()["hits"] == 0
        assert first != second


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


class TestExecutorKind:
    def test_serial_engine_reports_serial(self):
        engine = EvaluationEngine()
        assert engine.executor_kind == "serial"
        assert engine.counters()["executor_kind"] == "serial"

    def test_custom_executor_reports_class_name(self):
        class Fake:
            def run_batch(self, requests):
                raise NotImplementedError

        engine = EvaluationEngine(executor=Fake())
        assert engine.executor_kind == "Fake"


class TestSerialExecutorGrouping:
    def test_grouped_and_ungrouped_records_are_identical(self):
        from repro.engine.executors import SerialExecutor
        from repro.sparksim import SparkSimulator

        def campaign(group_batches):
            sim = SparkSimulator()
            executor = SerialExecutor(sim, group_batches=group_batches)
            with EvaluationEngine(simulator=sim, executor=executor) as engine:
                objective = _objective(engine)
                tuner = RandomSearchTuner(SPACE, seed=21)
                return run_tuner_batched(tuner, objective, budget=15,
                                         batch_size=5)

        grouped = campaign(True)
        ungrouped = campaign(False)
        assert [o.cost for o in grouped.history] == \
               [o.cost for o in ungrouped.history]
