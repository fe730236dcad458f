"""Perf — evaluation throughput of the batch engine.

Measures evaluations/sec for a 200-candidate random-search campaign and
records them in ``BENCH_throughput.json`` at the repo root, so the perf
trajectory is tracked across PRs:

* ``seed_serial``: the seed-repo loop — ``run_tuner`` driving a plain
  :class:`SimulationObjective`, one simulation per call, no cache.
* ``engine_serial_scalar``: the engine's pre-batching cold path,
  reproduced exactly — per-candidate dispatch (``UngroupedExecutor``,
  ``tests/oracles.py``) on a simulator with the compiled-plan cache disabled
  (``plan_cache_size=0``), i.e. jobs are re-planned for every
  evaluation.  This is the baseline the batch fast path is judged
  against.
* ``engine_serial_plancache``: per-candidate dispatch with the plan
  cache on — isolates the plan cache's contribution from batching's.
* ``engine_serial``: the default serial engine — plan cache plus the
  candidate-batched fast path (``run_batch``).  The headline cold
  number.
* ``sim_scalar_cold`` / ``sim_batch_cold``: the simulator alone on the
  identical 200 candidates — a cold per-eval ``run()`` loop with the
  plan cache off (the pre-batching fast path) vs cold ``run_batch``
  chunks.  This pair isolates the batch fast path from the tuner +
  objective + engine harness that every engine scenario pays
  identically (sampling, resolve/repair, request building — ~80 µs/eval
  that batching cannot touch); the fast path itself must be ≥ 3× the
  per-eval path it replaced, while the harness-inclusive
  ``engine_serial``/``engine_serial_scalar`` ratio is asserted at ≥ 2×.
* ``sim_batch_joint``: all 200 candidates in ONE ``run_batch`` call —
  the joint (stages × candidates) compiled program with nothing left to
  amortize across chunks.  This is the widest batch the fused plan
  sweep sees and must also clear the ≥ 3× bar against the scalar loop.
* ``sim_batch_repeated``: ingest-shaped batches — ONE configuration
  (the space defaults, repaired to the cluster) run under 100 seeds,
  the shape production-run ingest sends, in one ``run_batch`` call vs a
  ``run()`` loop over the same seeds.  Here every stage's task count is
  shared, so the stage-major path schedules each stage as one
  ``(runs, tasks)`` matrix; results must equal the loop bit for bit and
  the scenario reports runs/s as ``evals_per_s``.
* ``engine_memoized``: the same 200-candidate campaign re-evaluated
  through the default serial engine's warm cache, i.e. the paper's
  provider-side amortization (principle 3): a recurring or cross-tenant
  session whose candidates the provider has already paid for.  Must be
  ≥ 5× the seed serial loop.

Every scenario runs in-process, on one thread; the engine has no other
executor.

Run from the repository root, so ``tests.oracles`` imports:
``PYTHONPATH=src python -m pytest benchmarks/test_perf_throughput.py -s``
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.config.constraints import repair
from repro.config.space import Configuration
from repro.config.spark_params import SPARK_DEFAULTS, spark_core_space
from repro.cloud import Cluster
from repro.engine import EngineObjective, EvaluationEngine
from repro.sparksim import SparkSimulator
from repro.sparksim.costmodel import Calibration
from repro.sparksim.scheduler import (
    _MIN_VECTOR_SLOTS,
    _list_schedule,
    _list_schedule_heap,
    _sample_durations,
)
from repro.tuning import (
    RandomSearchTuner,
    SimulationObjective,
    run_tuner,
    run_tuner_batched,
)
from repro.workloads import Sort
from tests.oracles import UngroupedExecutor

N_CANDIDATES = 200
BATCH_SIZE = 25
#: runs per ingest-shaped batch (one configuration, this many seeds)
REPEATED_RUNS = 100
TUNER_SEED = 42
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"

CLUSTER = Cluster.of("m5.2xlarge", 6)
SPACE = spark_core_space()

#: the chosen ``_list_schedule`` path (heap below ``_MIN_VECTOR_SLOTS``
#: slots, vectorized at or above) may never be this much slower than the
#: path it rejected — guards the crossover constant against drift
MAX_WRONG_PATH_PENALTY = 1.5


def _tuner():
    return RandomSearchTuner(SPACE, seed=TUNER_SEED)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _scenario_seed_serial():
    objective = SimulationObjective(Sort(), 4096.0, cluster=CLUSTER,
                                    repair=True, seed=3)
    return _timed(lambda: run_tuner(_tuner(), objective, budget=N_CANDIDATES))


def _scenario_engine(executor, warm=False, simulator=None):
    engine = EvaluationEngine(simulator=simulator, executor=executor)

    def campaign():
        objective = EngineObjective(engine, Sort(), 4096.0,
                                    cluster=CLUSTER, repair=True, seed=3)
        return run_tuner_batched(_tuner(), objective,
                                 budget=N_CANDIDATES,
                                 batch_size=BATCH_SIZE)

    if warm:
        campaign()            # provider already paid for these runs
    result, elapsed = _timed(campaign)
    return result, elapsed, engine.counters()


def _scenario_engine_scalar(plan_cache_size):
    """Per-candidate serial dispatch, optionally without the plan cache."""
    sim = SparkSimulator(plan_cache_size=plan_cache_size)
    executor = UngroupedExecutor(sim)
    return _scenario_engine(executor, simulator=sim)


def _resolved_candidates():
    """The campaign's 200 candidates as fully-resolved (config, seed) pairs."""
    rng = np.random.default_rng(TUNER_SEED)
    base = dict(SPARK_DEFAULTS)
    configs, seeds = [], []
    for i, sampled in enumerate(SPACE.sample_configurations(N_CANDIDATES, rng)):
        full = dict(base)
        full.update(sampled.as_dict())
        configs.append(repair(Configuration(full), CLUSTER))
        seeds.append(1000 + i)
    return configs, seeds


def _scenario_sim_pair(reps=5):
    """Cold scalar ``run()`` loop vs cold ``run_batch`` over ``reps`` reps.

    Both sides simulate the identical candidates and seeds, so results
    must agree bitwise; fresh simulators per rep keep the plan cache
    cold at the start of every measurement.  A third timing covers the
    joint path: the whole campaign in one ``run_batch`` call.  Returns
    the best elapsed time per side plus the median per-rep speedup of
    each batched side over the scalar loop.
    """
    configs, seeds = _resolved_candidates()
    workload = Sort()
    scalar_times, batch_times, joint_times = [], [], []
    scalar_results = batch_results = joint_results = None
    for _ in range(reps):
        sim = SparkSimulator(plan_cache_size=0)
        t0 = time.perf_counter()
        scalar_results = [
            sim.run(workload, 4096.0, CLUSTER, configs[i], seed=seeds[i])
            for i in range(N_CANDIDATES)
        ]
        scalar_times.append(time.perf_counter() - t0)

        sim = SparkSimulator()
        t0 = time.perf_counter()
        batch_results = []
        for s in range(0, N_CANDIDATES, BATCH_SIZE):
            batch_results.extend(sim.run_batch(
                workload, 4096.0, CLUSTER, configs[s:s + BATCH_SIZE],
                seeds=seeds[s:s + BATCH_SIZE],
            ))
        batch_times.append(time.perf_counter() - t0)

        sim = SparkSimulator()
        t0 = time.perf_counter()
        joint_results = sim.run_batch(workload, 4096.0, CLUSTER, configs,
                                      seeds=seeds)
        joint_times.append(time.perf_counter() - t0)
    assert scalar_results == batch_results == joint_results  # bit-identity
    # Each rep times the sides back to back, so the per-rep ratio is
    # robust to the slow clock drift of shared runners; the median rep
    # is then robust to transient noise in either side.
    def median_ratio(times):
        ratios = sorted(s / b for s, b in zip(scalar_times, times))
        return ratios[len(ratios) // 2]

    return (min(scalar_times), min(batch_times), min(joint_times),
            median_ratio(batch_times), median_ratio(joint_times))


def _scenario_sim_repeated(reps=5):
    """One configuration x ``REPEATED_RUNS`` seeds: ``run()`` loop vs one
    ``run_batch`` call, fresh simulators per rep.  Returns the best
    elapsed time per side and the median per-rep speedup."""
    config = repair(Configuration(dict(SPARK_DEFAULTS)), CLUSTER)
    seeds = list(range(5000, 5000 + REPEATED_RUNS))
    workload = Sort()
    scalar_times, batch_times = [], []
    for _ in range(reps):
        sim = SparkSimulator()
        t0 = time.perf_counter()
        scalar = [sim.run(workload, 4096.0, CLUSTER, config, seed=s)
                  for s in seeds]
        scalar_times.append(time.perf_counter() - t0)

        sim = SparkSimulator()
        t0 = time.perf_counter()
        batch = sim.run_batch(workload, 4096.0, CLUSTER,
                              [config] * REPEATED_RUNS, seeds=seeds)
        runtimes = batch.runtimes
        batch_times.append(time.perf_counter() - t0)
        assert batch == scalar                           # bit-identity
        assert runtimes == [r.runtime_s for r in scalar]
    ratios = sorted(s / b for s, b in zip(scalar_times, batch_times))
    return min(scalar_times), min(batch_times), ratios[len(ratios) // 2]


def _scheduler_microbench():
    rng = np.random.default_rng(0)
    rows = []
    for slots in (16, 32, 64, 128, 256):
        # Durations drawn from the production noise model — the
        # crossover depends on the duration spread (tight durations give
        # long safe prefixes), so the microbench must measure the
        # distribution the simulator actually schedules.
        d = _sample_durations(5000, 1.0, rng, Calibration())
        reps = 20
        t0 = time.perf_counter()
        for _ in range(reps):
            heap = _list_schedule_heap(d, slots)
        t_heap = (time.perf_counter() - t0) / reps
        t0 = time.perf_counter()
        for _ in range(reps):
            vec = _list_schedule(d, slots)
        t_vec = (time.perf_counter() - t0) / reps
        assert vec == heap
        # _list_schedule itself delegates to the heap below the
        # crossover, so time the vectorized chunk loop directly there.
        if slots < _MIN_VECTOR_SLOTS:
            t_chosen, t_other = t_heap, _timed_vectorized(d, slots, reps)
        else:
            t_chosen, t_other = t_vec, t_heap
        rows.append({"slots": slots, "heap_ms": t_heap * 1e3,
                     "vectorized_ms": t_vec * 1e3,
                     "speedup": t_heap / t_vec,
                     "chosen_vs_other": t_chosen / t_other})
        # The crossover constant must keep choosing a path that is at
        # worst modestly slower than the alternative at every width.
        assert t_chosen <= MAX_WRONG_PATH_PENALTY * t_other, (
            f"_list_schedule chose a path {t_chosen / t_other:.2f}x slower "
            f"than the alternative at {slots} slots; "
            f"_MIN_VECTOR_SLOTS={_MIN_VECTOR_SLOTS} needs re-measuring"
        )
    return rows


def _timed_vectorized(d, slots, reps):
    """Time the vectorized chunk loop below its crossover cutoff."""
    import repro.sparksim.scheduler as sched
    saved = sched._MIN_VECTOR_SLOTS
    sched._MIN_VECTOR_SLOTS = 0
    try:
        t0 = time.perf_counter()
        for _ in range(reps):
            _list_schedule(d, slots)
        return (time.perf_counter() - t0) / reps
    finally:
        sched._MIN_VECTOR_SLOTS = saved


def test_perf_throughput():
    (sim_scalar_elapsed, sim_batch_elapsed, sim_joint_elapsed,
     fastpath_speedup, joint_speedup) = _scenario_sim_pair()
    repeated_scalar_elapsed, repeated_elapsed, repeated_speedup = \
        _scenario_sim_repeated()
    seed_result, seed_elapsed = _scenario_seed_serial()
    scalar_result, scalar_elapsed, scalar_counters = \
        _scenario_engine_scalar(plan_cache_size=0)
    plancache_result, plancache_elapsed, plancache_counters = \
        _scenario_engine_scalar(plan_cache_size=64)
    serial_result, serial_elapsed, serial_counters = _scenario_engine("serial")
    warm_result, warm_elapsed, warm_counters = _scenario_engine(
        "serial", warm=True)

    # Same tuner seed everywhere: every scenario evaluates the identical
    # 200-candidate stream.  Engine scenarios also agree on every cost
    # (per-config seeding, and the batched fast path is bit-identical to
    # per-candidate dispatch); the seed loop draws per-call noise seeds,
    # so its costs are the same distribution but not bit-equal.
    assert [o.config for o in seed_result.history] == \
           [o.config for o in serial_result.history]
    engine_results = [scalar_result, plancache_result, serial_result,
                      warm_result]
    costs = [o.cost for o in engine_results[0].history]
    for result in engine_results[1:]:
        assert [o.cost for o in result.history] == costs
    assert warm_counters["hits"] >= N_CANDIDATES  # the warm pass is all hits

    def eps(elapsed):
        return N_CANDIDATES / elapsed

    scenarios = {
        "seed_serial": {"elapsed_s": seed_elapsed, "evals_per_s": eps(seed_elapsed)},
        "sim_scalar_cold": {"elapsed_s": sim_scalar_elapsed,
                            "evals_per_s": eps(sim_scalar_elapsed)},
        "sim_batch_cold": {"elapsed_s": sim_batch_elapsed,
                           "evals_per_s": eps(sim_batch_elapsed)},
        "sim_batch_joint": {"elapsed_s": sim_joint_elapsed,
                            "evals_per_s": eps(sim_joint_elapsed)},
        "sim_batch_repeated": {
            "runs": REPEATED_RUNS,
            "elapsed_s": repeated_elapsed,
            "evals_per_s": REPEATED_RUNS / repeated_elapsed,
            "scalar_loop_evals_per_s": REPEATED_RUNS / repeated_scalar_elapsed,
            "speedup_vs_scalar_loop": repeated_speedup,
        },
        "engine_serial_scalar": {"elapsed_s": scalar_elapsed,
                                 "evals_per_s": eps(scalar_elapsed),
                                 "counters": scalar_counters},
        "engine_serial_plancache": {"elapsed_s": plancache_elapsed,
                                    "evals_per_s": eps(plancache_elapsed),
                                    "counters": plancache_counters},
        "engine_serial": {"elapsed_s": serial_elapsed,
                          "evals_per_s": eps(serial_elapsed),
                          "counters": serial_counters},
        "engine_memoized": {"elapsed_s": warm_elapsed,
                            "evals_per_s": eps(warm_elapsed),
                            "counters": warm_counters},
    }
    amortized_speedup = eps(warm_elapsed) / eps(seed_elapsed)
    batch_speedup = eps(serial_elapsed) / eps(scalar_elapsed)
    report = {
        "benchmark": "evaluation engine throughput",
        "candidates": N_CANDIDATES,
        "batch_size": BATCH_SIZE,
        "workload": "sort@4096MB",
        "cluster": "m5.2xlarge x6",
        "machine": {"cpu_count": os.cpu_count(),
                    "platform": platform.platform()},
        "scenarios": scenarios,
        "speedup_vs_seed": {
            name: s["evals_per_s"] / scenarios["seed_serial"]["evals_per_s"]
            for name, s in scenarios.items()
        },
        "batch_speedup_vs_scalar": batch_speedup,
        "fastpath_speedup_vs_scalar": fastpath_speedup,
        "joint_speedup_vs_scalar": joint_speedup,
        "repeated_speedup_vs_scalar_loop": repeated_speedup,
        "scheduler_microbench": _scheduler_microbench(),
    }
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print(f"\n{'scenario':<28}{'elapsed':>10}{'evals/s':>10}{'speedup':>9}")
    for name, s in scenarios.items():
        print(f"{name:<28}{s['elapsed_s']:>9.2f}s{s['evals_per_s']:>10.1f}"
              f"{report['speedup_vs_seed'][name]:>8.1f}x")

    # Ingest-shaped batches (one configuration, many seeds) are what the
    # stage-major matrix path exists for: they must stay well clear of
    # the scalar loop over the same seeds.
    assert repeated_speedup >= 2.0, (
        f"one-config run_batch only {repeated_speedup:.1f}x the run() loop"
    )
    # PR 3 acceptance: the batched fast path (plan cache + struct-of-
    # arrays costing) >= 3x the per-candidate cold path it replaced,
    # measured at the simulator layer where the replacement happened
    # (median of per-rep back-to-back ratios; see _scenario_sim_pair).
    assert fastpath_speedup >= 3.0, (
        f"run_batch only {fastpath_speedup:.1f}x the cold run() loop"
    )
    # PR 6 acceptance: the joint (stages x candidates) program holds the
    # same bar with the whole campaign in one call — chunking was not
    # load-bearing for the fast path's advantage.
    assert joint_speedup >= 3.0, (
        f"joint run_batch only {joint_speedup:.1f}x the cold run() loop"
    )
    # End-to-end the same campaign pays ~80 µs/eval of tuner + objective
    # + engine harness on both sides, which dilutes the ratio; the
    # engine-level guard is correspondingly lower.
    assert batch_speedup >= 2.0, (
        f"batched engine only {batch_speedup:.1f}x the scalar cold path"
    )
    # PR 1 acceptance: the memoized engine >= 5x the seed loop.
    assert amortized_speedup >= 5.0, (
        f"amortized engine only {amortized_speedup:.1f}x the seed serial loop"
    )
