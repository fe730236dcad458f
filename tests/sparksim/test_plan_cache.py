"""The compiled-plan cache: hits, misses, LRU bounds, aliasing guard.

Stage DAGs are config-independent, so the simulator compiles each
``(workload, input_mb)`` once and replays the immutable plan, and the
joint-program arrays the first batch builds from it, for every
candidate.  The cache must never change results — and in particular two
workloads that share ``name``/``input_mb`` but run different job lists
must never collide (the content fingerprint is part of the key).
"""

import numpy as np

from repro.cloud import Cluster
from repro.config.spark_params import spark_space
from repro.sparksim import SparkSimulator
from repro.workloads import Sort, Wordcount

CLUSTER = Cluster.of("m5.2xlarge", 4)


def _config():
    rng = np.random.default_rng(0)
    space = spark_space()
    for _ in range(50):
        c = space.sample_configuration(rng)
        sim = SparkSimulator()
        if sim.run(Sort(), 512.0, CLUSTER, c, seed=0).success:
            return c
    raise AssertionError("no feasible sampled config")


class _Renamed:
    """A workload masquerading under another workload's name."""

    def __init__(self, name, inner):
        self.name = name
        self._inner = inner

    def jobs(self, input_mb):
        return self._inner.jobs(input_mb)


class TestCounters:
    def test_same_object_hits_identity_tier(self):
        sim = SparkSimulator()
        w = Sort()
        config = _config()
        sim.run(w, 512.0, CLUSTER, config, seed=1)
        assert (sim.plan_cache_hits, sim.plan_cache_misses) == (0, 1)
        sim.run(w, 512.0, CLUSTER, config, seed=2)
        assert (sim.plan_cache_hits, sim.plan_cache_misses) == (1, 1)

    def test_equal_content_objects_share_one_plan(self):
        sim = SparkSimulator()
        a = sim.compile_workload(Sort(), 512.0)
        b = sim.compile_workload(Sort(), 512.0)   # distinct object, same jobs
        assert a is b
        assert sim.plan_cache_hits == 1 and sim.plan_cache_misses == 1

    def test_first_batch_builds_the_plan_arrays_and_keeps_them(self):
        sim = SparkSimulator()
        w = Sort()
        config = _config()
        sim.run(w, 512.0, CLUSTER, config, seed=1)
        [plan] = sim._plans.values()
        assert plan.arrays is None               # run() never needs them
        first = sim.run_batch(w, 512.0, CLUSTER, [config] * 2, seeds=[1, 2])
        arrays = plan.arrays
        assert arrays is not None and first.columns.plan is arrays
        again = sim.run_batch(Sort(), 512.0, CLUSTER, [config], seeds=[3])
        assert again.columns.plan is arrays      # equal content, one entry

    def test_distinct_input_sizes_compile_separately(self):
        sim = SparkSimulator()
        w = Sort()
        assert sim.compile_workload(w, 512.0) is not sim.compile_workload(w, 1024.0)
        assert sim.plan_cache_misses == 2


class TestAliasingGuard:
    def test_same_name_different_jobs_do_not_collide(self):
        sim = SparkSimulator()
        genuine = sim.compile_workload(Sort(), 512.0)
        impostor = sim.compile_workload(_Renamed("sort", Wordcount()), 512.0)
        assert impostor is not genuine
        assert sim.plan_cache_misses == 2

    def test_impostor_results_differ_from_genuine(self):
        config = _config()
        sim = SparkSimulator()
        genuine = sim.run(Sort(), 512.0, CLUSTER, config, seed=3)
        impostor = sim.run(_Renamed("sort", Wordcount()), 512.0, CLUSTER,
                           config, seed=3)
        # A name/input_mb-keyed cache would replay sort's plan here.
        fresh = SparkSimulator().run(Wordcount(), 512.0, CLUSTER, config, seed=3)
        assert impostor.runtime_s == fresh.runtime_s
        assert impostor.runtime_s != genuine.runtime_s


class TestBoundsAndDisabling:
    def test_lru_eviction_respects_capacity(self):
        sim = SparkSimulator(plan_cache_size=2)
        w = Sort()
        for mb in (256.0, 512.0, 1024.0, 2048.0):
            sim.compile_workload(w, mb)
        assert [key[1] for key in sim._plans] == [1024.0, 2048.0]
        # The oldest entry was evicted: recompiling it is a miss again.
        misses = sim.plan_cache_misses
        sim.compile_workload(w, 256.0)
        assert sim.plan_cache_misses == misses + 1

    def test_size_zero_disables_caching(self):
        sim = SparkSimulator(plan_cache_size=0)
        w = Sort()
        a = sim.compile_workload(w, 512.0)
        b = sim.compile_workload(w, 512.0)
        assert a is not b
        assert sim.plan_cache_misses == 2 and sim.plan_cache_hits == 0
        configs = [_config()] * 2
        batch = sim.run_batch(w, 512.0, CLUSTER, configs, seeds=[1, 2])
        assert not sim._plans and not sim._cost_cache
        assert batch == SparkSimulator().run_batch(w, 512.0, CLUSTER, configs,
                                                   seeds=[1, 2])

    def test_negative_size_rejected(self):
        try:
            SparkSimulator(plan_cache_size=-1)
        except ValueError:
            pass
        else:
            raise AssertionError("plan_cache_size=-1 must raise")

    def test_caching_never_changes_results(self):
        config = _config()
        cached = SparkSimulator()
        uncached = SparkSimulator(plan_cache_size=0)
        for seed in range(4):
            a = cached.run(Sort(), 512.0, CLUSTER, config, seed=seed)
            b = uncached.run(Sort(), 512.0, CLUSTER, config, seed=seed)
            assert a == b
