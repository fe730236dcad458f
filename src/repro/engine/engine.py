"""Batch evaluation engine: memoized, executor-backed candidate evaluation.

The paper's provider-side vision only pays off if the provider can
evaluate *thousands* of candidate configurations cheaply ("more than
2000 configurations tested across 5 types of workloads").  The engine is
that layer: tuners hand it whole batches of candidates, it answers
repeats from an LRU cache (cross-tenant amortization, principle 3 of the
paper), runs the rest in-process through the simulator's batched path,
and reports hit/miss/latency counters so the service can account for
what tuning actually cost.

Determinism contract: every request carries its own noise seed, assigned
by the caller *before* dispatch, so a batch's results do not depend on
how it is grouped, retried or answered from the cache.  No engine branch
reads the wall clock; the clock only feeds the latency counters.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any

from ..cloud.cluster import Cluster
from ..cloud.interference import QUIET, Environment
from ..config.space import Configuration
from ..sparksim.costmodel import Calibration
from ..sparksim.metrics import ExecutionResult
from ..sparksim.simulator import SparkSimulator
from ..tuning.base import SimulationObjective
from .cache import CacheStats, EvaluationCache, config_fingerprint
from .executors import SerialExecutor
from .retry import FailureCounters, RetryError, RetryPolicy

__all__ = ["EvalRequest", "EvalRecord", "EvaluationEngine", "EngineObjective"]


@dataclass(frozen=True)
class EvalRequest:
    """One fully-resolved candidate evaluation."""

    workload: object                 # repro.workloads.Workload
    input_mb: float
    cluster: Cluster
    config: Configuration            # full Spark config, already resolved
    env: Environment = QUIET
    seed: int = 0

    def cache_key(self) -> tuple:
        return (
            getattr(self.workload, "name", repr(self.workload)),
            float(self.input_mb),
            self.cluster,
            config_fingerprint(self.config),
            self.env,
            int(self.seed),
        )


@dataclass(frozen=True)
class EvalRecord:
    """One engine answer: the execution result plus provenance."""

    request: EvalRequest
    result: ExecutionResult
    cached: bool
    latency_s: float


class EvaluationEngine:
    """Evaluate batches of configurations through cache + executor.

    Parameters
    ----------
    executor:
        ``"serial"`` (default) runs every batch in-process, on the
        caller's thread; any object implementing
        ``run_batch(requests) -> list[ExecutionResult]`` is used as given
        (test fakes, or an ungrouped :class:`SerialExecutor`).
    cache_size:
        LRU capacity; 0 disables memoization entirely.
    retry:
        :class:`~repro.engine.retry.RetryPolicy` governing how executor
        failures are retried before the engine falls back to the serial
        executor.  On by default; pass ``None`` to fail fast on the
        first executor error.
    """

    #: duck-typed: SerialExecutor or any run_batch() object
    _executor: Any

    def __init__(self, simulator: SparkSimulator | None = None,
                 executor: str | object = "serial",
                 cache_size: int = 4096,
                 calibration: Calibration | None = None,
                 noise: bool = True,
                 retry: RetryPolicy | None = RetryPolicy()):
        if simulator is None:
            simulator = SparkSimulator(calibration=calibration, noise=noise)
        self.simulator = simulator
        if executor == "serial":
            self._executor = SerialExecutor(simulator)
        elif hasattr(executor, "run_batch"):
            self._executor = executor
        else:
            raise ValueError("executor must be 'serial' or expose run_batch()")
        self.retry = retry
        self.cache = EvaluationCache(capacity=cache_size) if cache_size else None
        # One batch in flight at a time: the cache, the hit/miss/latency
        # counters and the simulator's plan and cost caches are
        # single-owner structures.  Callers may share an engine across
        # threads; this lock makes that safe — lost counter updates were
        # real data races.
        self._lock = threading.Lock()
        self.failures = FailureCounters()
        self.n_evaluated = 0         # simulations actually run (cache misses)
        self.n_requested = 0         # total requests answered
        #: misses whose identity differs from a previously-seen request
        #: *only* by environment — the amortization the cross-tenant cache
        #: cannot deliver under interference (env is part of the key)
        self.n_env_distinct_misses = 0
        self._env_free_keys: set[tuple] = set()

    @property
    def stats(self) -> CacheStats:
        return self.cache.stats if self.cache is not None else CacheStats()

    @property
    def executor_kind(self) -> str:
        """Which executor is answering requests right now.

        ``"serial"``, or the class name of a custom executor; surfaces a
        custom executor's mid-session fallback to serial.
        """
        if isinstance(self._executor, SerialExecutor):
            return "serial"
        return type(self._executor).__name__

    def counters(self) -> dict[str, Any]:
        """Flat snapshot: hit/miss/latency plus failure/retry/degradation."""
        snap: dict[str, Any] = dict(self.stats.snapshot())
        snap.update(n_requested=self.n_requested, n_evaluated=self.n_evaluated,
                    n_env_distinct_misses=self.n_env_distinct_misses)
        snap.update(self.failures.snapshot())
        snap["executor_kind"] = self.executor_kind
        return snap

    # --- evaluation ----------------------------------------------------------
    def evaluate(self, request: EvalRequest) -> EvalRecord:
        return self.evaluate_batch([request])[0]

    def evaluate_batch(self, requests) -> list[EvalRecord]:
        """Answer ``requests`` in order, via cache then executor.

        Duplicate requests inside one batch are simulated once and
        fanned out — population tuners re-propose elites, and a provider
        batch may carry the same candidate for several tenants.  Safe to
        call from multiple threads (batches are serialized internally;
        see ``_lock``).
        """
        with self._lock:
            return self._evaluate_batch_locked(list(requests))

    def _evaluate_batch_locked(self, requests) -> list[EvalRecord]:
        self.n_requested += len(requests)
        keys = [r.cache_key() for r in requests]
        records: list[EvalRecord | None] = [None] * len(requests)

        # Cache pass: answer known keys, dedup the rest.
        miss_of_key: dict[tuple, list[int]] = {}
        for i, (req, key) in enumerate(zip(requests, keys)):
            hit = self.cache.get(key) if self.cache is not None else None
            if hit is not None:
                records[i] = EvalRecord(req, hit, cached=True, latency_s=0.0)
            else:
                if key not in miss_of_key:
                    self._note_env_distinct(key)
                miss_of_key.setdefault(key, []).append(i)

        if miss_of_key:
            unique = [requests[slots[0]] for slots in miss_of_key.values()]
            start = time.perf_counter()
            results = self._dispatch(unique)
            elapsed = time.perf_counter() - start
            per_request = elapsed / len(unique)
            self.n_evaluated += len(unique)
            for (key, slots), result in zip(miss_of_key.items(), results):
                if self.cache is not None:
                    self.cache.put(key, result, latency_s=per_request)
                first = slots[0]
                for i in slots:
                    records[i] = EvalRecord(
                        requests[i], result,
                        cached=(i != first), latency_s=per_request,
                    )
        return records  # type: ignore[return-value]

    def _note_env_distinct(self, key: tuple) -> None:
        """Count misses that repeat a known request in a new environment.

        Under interference, ``env`` is part of the cache key, so the
        cross-tenant amortization story breaks: the same candidate
        re-proposed under different cloud weather re-simulates.  This
        counter quantifies exactly that lost amortization.  (A full key
        evicted from the LRU and re-missed counts too — rare at default
        capacity, and still a genuine re-simulation.)
        """
        env_free = key[:4] + (key[5],)      # identity minus the env slot
        if env_free in self._env_free_keys:
            self.n_env_distinct_misses += 1
        elif len(self._env_free_keys) < 65536:   # bounded diagnostic index
            self._env_free_keys.add(env_free)

    # --- fault-tolerant dispatch --------------------------------------------
    def _dispatch(self, requests) -> list[ExecutionResult]:
        """Run cache-miss requests through the executor, surviving failures.

        Each attempt re-dispatches only the requests that never produced
        a result; results are pure functions of the request, so retries
        cannot change observations.
        """
        if self.retry is None:
            return self._executor.run_batch(requests)
        policy = self.retry
        results: list = [None] * len(requests)
        pending = list(range(len(requests)))
        for attempt in range(policy.max_attempts):
            partial = self._run_attempt([requests[i] for i in pending])
            still_pending = []
            for slot, result in zip(pending, partial):
                if result is None:
                    still_pending.append(slot)
                else:
                    results[slot] = result
            if not still_pending:
                return results
            pending = still_pending
            self.failures.n_failures += len(pending)
            if attempt + 1 < policy.max_attempts:
                self.failures.n_retries += len(pending)
                time.sleep(policy.backoff_s(attempt, token=len(pending)))
        # Attempts exhausted.  Last resort: answer the stragglers on the
        # in-process serial executor (a permanent downgrade), so a sick
        # harness degrades the engine instead of aborting the session.
        self.failures.n_exhausted += len(pending)
        self._degrade_to_serial()
        try:
            answered = self._executor.run_batch([requests[i] for i in pending])
        except Exception as exc:
            raise RetryError(
                f"{len(pending)} request(s) failed after "
                f"{policy.max_attempts} attempt(s) and the serial fallback"
            ) from exc
        for slot, result in zip(pending, answered):
            results[slot] = result
        return results

    def _run_attempt(self, batch) -> list:
        """One dispatch attempt; failed requests come back as ``None``.

        A failed batch is re-run one request at a time, so one poisoned
        request cannot sink the rest.
        """
        try:
            return list(self._executor.run_batch(batch))
        except Exception:
            if len(batch) == 1:
                return [None]
        return [self._run_attempt([request])[0] for request in batch]

    def _degrade_to_serial(self) -> None:
        """One-way downgrade to in-process execution (counted, auditable)."""
        if isinstance(self._executor, SerialExecutor):
            return
        self._executor.close()
        self._executor = SerialExecutor(self.simulator)
        self.failures.n_degraded += 1

    def close(self) -> None:
        self._executor.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class EngineObjective(SimulationObjective):
    """A :class:`SimulationObjective` whose executions ride an engine.

    Adds ``evaluate_batch(configs)`` — the protocol
    :func:`repro.tuning.base.run_tuner_batched` looks for — while staying
    a drop-in single-candidate callable.  All stateful bookkeeping
    (interference stepping, seeding, ledger charges) happens here, in
    request order, before dispatch; the engine only ever sees pure
    ``EvalRequest``s, so grouping, retries and cache hits cannot change
    the observation history.

    ``seed_mode`` controls per-candidate seeding:

    - ``"per-config"`` (default): the noise seed is a stable digest of
      the configuration, so re-evaluating a candidate is a cache hit —
      the amortization the provider-side service depends on.
    - ``"per-call"``: every call draws a fresh seed (matching
      :class:`SimulationObjective`); repeats re-simulate with new noise.
    """

    def __init__(self, engine: EvaluationEngine, workload, input_mb: float,
                 seed_mode: str = "per-config", **kwargs):
        if seed_mode not in ("per-config", "per-call"):
            raise ValueError("seed_mode must be 'per-config' or 'per-call'")
        kwargs.setdefault("simulator", engine.simulator)
        super().__init__(workload, input_mb, **kwargs)
        self.engine = engine
        self.seed_mode = seed_mode
        #: engine records of the most recent batch (per-candidate
        #: ExecutionResults + cache provenance, for session recording)
        self.last_records: list[EvalRecord] = []

    def _seed_for(self, spark_config: Configuration) -> int:
        if self.seed_mode == "per-config":
            digest = int(config_fingerprint(spark_config)[:12], 16)
            return (self._seed + digest) % (2**63)
        return self._seed + self.n_calls

    def _build_request(self, config) -> EvalRequest:
        cluster, spark_config = self.resolve(config)
        env = self.interference.step() if self.interference else QUIET
        self.n_calls += 1
        return EvalRequest(
            workload=self.workload, input_mb=self.input_mb, cluster=cluster,
            config=spark_config, env=env, seed=self._seed_for(spark_config),
        )

    def _settle(self, record: EvalRecord) -> tuple[float, bool]:
        """Turn an engine record into (cost, succeeded) + side effects."""
        result = record.result
        self.last_result = result
        if self.ledger is not None and not record.cached:
            # Cache hits are free: the provider already paid for that run.
            self.ledger.charge_tuning(record.request.cluster, result.runtime_s)
        runtime = result.effective_runtime(
            self.failure_penalty, self.failure_floor_s
        )
        cost = (
            record.request.cluster.cost_of(runtime)
            if self.metric == "price" else runtime
        )
        return cost, result.success

    def evaluate_batch(self, configs) -> list[tuple[float, bool]]:
        requests = [self._build_request(c) for c in configs]
        records = self.engine.evaluate_batch(requests)
        self.last_records = records
        return [self._settle(record) for record in records]

    def __call__(self, config) -> float:
        cost, _ = self.evaluate_batch([config])[0]
        return cost
