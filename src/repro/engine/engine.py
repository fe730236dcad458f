"""Batch evaluation engine: memoized, executor-backed candidate evaluation.

The paper's provider-side vision only pays off if the provider can
evaluate *thousands* of candidate configurations cheaply ("more than
2000 configurations tested across 5 types of workloads").  The engine is
that layer: tuners hand it whole batches of candidates, it answers
repeats from an LRU cache (cross-tenant amortization, principle 3 of the
paper), runs the rest in-process through the simulator's batched path,
and counts hits and misses so the service can account for what tuning
actually cost.

Determinism contract: every request carries its own noise seed, assigned
by the caller *before* dispatch, so a batch's results do not depend on
how it is grouped or answered from the cache.  The engine reads no
clock.

Failure contract: a simulated failure (OOM kill, executor loss) is a
result, flagged in ``ExecutionResult.success`` and settled by
:class:`EngineObjective` at a penalized cost.  An exception from the
executor is a defect in the request or the program: the simulator is
deterministic, so a re-run would raise it again.  It reaches the caller
unchanged, nothing from that batch is cached, and no counter moves.

Ownership: an engine takes no lock.  It belongs to the thread that calls
it; in the multi-tenant service that is the shard pool's runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..cloud.cluster import Cluster
from ..cloud.interference import QUIET, Environment
from ..config.space import Configuration, config_fingerprint
from ..sparksim.dag import jobs_fingerprint
from ..sparksim.metrics import ExecutionResult
from ..sparksim.simulator import SparkSimulator
from ..tuning.base import SimulationObjective
from .cache import EvaluationCache
from .executors import SerialExecutor

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
        # env last: _note_env_distinct keys on everything before it
        return (
            getattr(self.workload, "name", repr(self.workload)),
            jobs_fingerprint(self.workload, self.input_mb),
            float(self.input_mb),
            self.cluster,
            config_fingerprint(self.config),
            int(self.seed),
            self.env,
        )


@dataclass(frozen=True)
class EvalRecord:
    """One engine answer: the execution result plus provenance."""

    request: EvalRequest
    result: ExecutionResult
    cached: bool


class EvaluationEngine:
    """Evaluate batches of configurations through cache + executor.

    Each batch's cache misses go to the executor in one ``run_batch``
    call; an exception from that call propagates unchanged, and the
    batch leaves every counter as it found it.

    Parameters
    ----------
    executor:
        ``"serial"`` (default) runs every batch in-process, on the
        caller's thread; any object implementing
        ``run_batch(requests) -> list[ExecutionResult]`` is used as given
        (the per-request reference loop, or a test double).
    """

    #: duck-typed: SerialExecutor or any run_batch() object
    _executor: Any

    def __init__(self, simulator: SparkSimulator | None = None,
                 executor: str | object = "serial"):
        if simulator is None:
            simulator = SparkSimulator()
        self.simulator = simulator
        if executor == "serial":
            self._executor = SerialExecutor(simulator)
        elif hasattr(executor, "run_batch"):
            self._executor = executor
        else:
            raise ValueError("executor must be 'serial' or expose run_batch()")
        self.cache = EvaluationCache()
        self.hits = 0                # requests answered without simulating
        self.misses = 0              # requests the executor answered
        self.n_evaluated = 0         # simulations actually run (unique misses)
        self.n_requested = 0         # total requests answered
        #: misses whose identity differs from a previously-seen request
        #: *only* by environment — the amortization the cross-tenant cache
        #: cannot deliver under interference (env is part of the key)
        self.n_env_distinct_misses = 0
        self._env_free_keys: set[tuple] = set()

    def counters(self) -> dict[str, int]:
        """Cache hits, misses and evictions, plus request counts."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.cache.evictions,
            "n_requested": self.n_requested,
            "n_evaluated": self.n_evaluated,
            "n_env_distinct_misses": self.n_env_distinct_misses,
        }

    # --- evaluation ----------------------------------------------------------
    def evaluate(self, request: EvalRequest) -> EvalRecord:
        return self.evaluate_batch([request])[0]

    def evaluate_batch(self, requests) -> list[EvalRecord]:
        """Answer ``requests`` in order, via cache then executor.

        Duplicate requests inside one batch are simulated once and
        fanned out — population tuners re-propose elites, and a provider
        batch may carry the same candidate for several tenants.  Counters
        move only once the batch is answered: a batch whose executor call
        raises changes none of :meth:`counters`.
        """
        requests = list(requests)
        keys = [r.cache_key() for r in requests]
        records: list[EvalRecord | None] = [None] * len(requests)

        # Cache pass: answer known keys, dedup the rest.
        miss_of_key: dict[tuple, list[int]] = {}
        for i, (req, key) in enumerate(zip(requests, keys)):
            hit = self.cache.get(key)
            if hit is not None:
                records[i] = EvalRecord(req, hit, cached=True)
            else:
                miss_of_key.setdefault(key, []).append(i)

        if miss_of_key:
            unique = [requests[slots[0]] for slots in miss_of_key.values()]
            results = self._executor.run_batch(unique)
            self.n_evaluated += len(unique)
            for (key, slots), result in zip(miss_of_key.items(), results):
                self._note_env_distinct(key)
                self.cache.put(key, result)
                first = slots[0]
                for i in slots:
                    records[i] = EvalRecord(requests[i], result,
                                            cached=(i != first))
        # Counted once the batch is answered: in-batch repeats of a miss
        # are misses, as the executor answered them.
        n_missed = sum(map(len, miss_of_key.values()))
        self.misses += n_missed
        self.hits += len(requests) - n_missed
        self.n_requested += len(requests)
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
        env_free = key[:-1]                 # identity minus the env slot
        if env_free in self._env_free_keys:
            self.n_env_distinct_misses += 1
        elif len(self._env_free_keys) < 65536:   # bounded diagnostic index
            self._env_free_keys.add(env_free)


class EngineObjective(SimulationObjective):
    """A :class:`SimulationObjective` whose executions ride an engine.

    Adds ``evaluate_batch(configs)`` — the protocol
    :func:`repro.tuning.base.run_tuner` looks for — while staying
    a drop-in single-candidate callable.  All stateful bookkeeping
    (interference stepping, seeding, ledger charges) happens here, in
    request order, before dispatch; the engine only ever sees pure
    ``EvalRequest``s, so grouping and cache hits cannot change the
    observation history.

    The noise seed of a candidate is a stable digest of its
    configuration, so re-evaluating a candidate is a cache hit — the
    amortization the provider-side service depends on.
    """

    def __init__(self, engine: EvaluationEngine, workload, input_mb: float,
                 **kwargs):
        kwargs.setdefault("simulator", engine.simulator)
        super().__init__(workload, input_mb, **kwargs)
        self.engine = engine
        #: engine records of the most recent batch (per-candidate
        #: ExecutionResults + cache provenance, for history recording)
        self.last_records: list[EvalRecord] = []

    def _seed_for(self, spark_config: Configuration) -> int:
        digest = int(config_fingerprint(spark_config)[:12], 16)
        return (self._seed + digest) % (2**63)

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
