"""Retry/backoff/degradation: the engine survives a failing executor.

A failing executor call mid-batch must not abort the session: the batch
completes via retry (or the serial fallback), the observations equal a
fault-free serial run of the same seeds, and the engine counters record
the retries and downgrades.
"""

import numpy as np
import pytest

from repro.cloud import Cluster
from repro.cloud.interference import QUIET, TYPICAL
from repro.config.spark_params import spark_core_space
from repro.engine import (
    EngineObjective,
    EvalRequest,
    EvaluationEngine,
    RetryError,
    RetryPolicy,
    SerialExecutor,
)
from repro.sparksim import SparkSimulator
from repro.workloads import Sort

CLUSTER = Cluster.of("m5.2xlarge", 6)
SPACE = spark_core_space()

#: fast-retry policy for tests: no real sleeping between attempts
FAST = RetryPolicy(max_attempts=3, backoff_base_s=0.0)


def _configs(n, seed=7):
    rng = np.random.default_rng(seed)
    return SPACE.sample_configurations(n, rng)


def _objective(engine, **kwargs):
    kwargs.setdefault("cluster", CLUSTER)
    kwargs.setdefault("seed", 3)
    kwargs.setdefault("repair", True)
    return EngineObjective(engine, Sort(), 4096.0, **kwargs)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=1.5)

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0,
                             jitter_fraction=0.0)
        assert policy.backoff_s(0) == pytest.approx(0.1)
        assert policy.backoff_s(1) == pytest.approx(0.2)
        assert policy.backoff_s(2) == pytest.approx(0.4)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base_s=0.1, jitter_fraction=0.25)
        for attempt in range(4):
            a = policy.backoff_s(attempt, token=9)
            assert a == policy.backoff_s(attempt, token=9)   # reproducible
            base = 0.1 * 2.0**attempt
            assert base <= a <= base * 1.25
        # Different tokens de-synchronize concurrent engines.
        assert policy.backoff_s(1, token=1) != policy.backoff_s(1, token=2)


class FlakyExecutor:
    """Serial executor whose first ``fail_calls`` run_batch calls raise."""

    def __init__(self, simulator, fail_calls=1):
        self.inner = SerialExecutor(simulator)
        self.fail_calls = fail_calls
        self.calls = 0

    def run_batch(self, requests):
        self.calls += 1
        if self.calls <= self.fail_calls:
            raise RuntimeError("transient harness failure")
        return self.inner.run_batch(requests)

    def close(self):
        pass


class AlwaysFailsExecutor:
    def run_batch(self, requests):
        raise RuntimeError("permanently down")

    def close(self):
        pass


class ExplodingSimulator:
    calibration = None
    noise = False
    fault_plan = None

    def run(self, *args, **kwargs):
        raise RuntimeError("simulator down")


class TestRetryDispatch:
    def test_transient_failure_is_retried_and_completes(self):
        sim = SparkSimulator()
        engine = EvaluationEngine(
            simulator=sim, executor=FlakyExecutor(sim, fail_calls=2),
            retry=FAST,
        )
        objective = _objective(engine)
        outcomes = objective.evaluate_batch(_configs(4))
        assert len(outcomes) == 4
        serial = _objective(EvaluationEngine()).evaluate_batch(_configs(4))
        assert outcomes == serial
        counters = engine.counters()
        assert counters["n_failures"] >= 1
        assert counters["n_retries"] >= 1
        assert counters["n_degraded"] == 0

    def test_retry_none_fails_fast(self):
        sim = SparkSimulator()
        engine = EvaluationEngine(
            simulator=sim, executor=FlakyExecutor(sim), retry=None,
        )
        with pytest.raises(RuntimeError, match="transient"):
            _objective(engine).evaluate_batch(_configs(2))

    def test_exhausted_attempts_fall_back_to_serial(self):
        engine = EvaluationEngine(
            executor=AlwaysFailsExecutor(),
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
        )
        objective = _objective(engine)
        outcomes = objective.evaluate_batch(_configs(3))
        assert outcomes == _objective(EvaluationEngine()).evaluate_batch(_configs(3))
        counters = engine.counters()
        assert counters["n_exhausted"] == 3
        assert counters["n_degraded"] == 1

    def test_retry_error_when_even_serial_fallback_fails(self):
        engine = EvaluationEngine(
            simulator=ExplodingSimulator(),
            executor=AlwaysFailsExecutor(),
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
        )
        request = EvalRequest(
            workload=Sort(), input_mb=1024.0, cluster=CLUSTER,
            config=SPACE.default_configuration(), seed=1,
        )
        with pytest.raises(RetryError):
            engine.evaluate(request)


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
