"""Edge-case and stress tests for the simulator."""

import pytest

from repro.cloud import Cluster
from repro.config import Configuration, SPARK_DEFAULTS
from repro.sparksim import RDD, SparkSimulator, compile_job
from repro.workloads import PageRank, Sort, Wordcount


def _config(**overrides):
    return Configuration({**SPARK_DEFAULTS, **overrides})


GOOD = _config(**{
    "spark.executor.instances": 4, "spark.executor.cores": 2,
    "spark.executor.memory": 4096, "spark.default.parallelism": 32,
})


class _AdHoc:
    """A workload that runs a fixed, hand-built job list."""

    name = "adhoc"

    def __init__(self, jobs):
        self._jobs = jobs

    def jobs(self, input_mb):
        return self._jobs


class TestExtremeClusters:
    def test_single_tiny_node(self, simulator):
        cluster = Cluster.of("m5.large", 1)  # 2 vCPU, 8 GiB
        cfg = _config(**{"spark.executor.instances": 1,
                         "spark.executor.cores": 1,
                         "spark.executor.memory": 2048})
        result = simulator.run(Wordcount(), 1_000, cluster, cfg, seed=1)
        assert result.success
        assert result.total_slots == 1

    def test_huge_cluster(self, simulator):
        cluster = Cluster.of("m5.4xlarge", 64)
        cfg = _config(**{"spark.executor.instances": 48,
                         "spark.executor.cores": 8,
                         "spark.executor.memory": 16384,
                         "spark.default.parallelism": 2000})
        result = simulator.run(Sort(), 50_000, cluster, cfg, seed=1)
        assert result.success

    def test_driver_heavier_than_node(self, simulator):
        cluster = Cluster.of("m5.large", 2)
        cfg = _config(**{"spark.driver.memory": 16384})
        result = simulator.run(Wordcount(), 1_000, cluster, cfg, seed=1)
        # Driver does not fit its node's memory, but the non-driver node
        # can still host executors.
        assert result.executors_granted >= 1


class TestExtremeInputs:
    def test_tiny_input_single_partition(self, simulator, cluster):
        result = simulator.run(Wordcount(), 1.0, cluster, GOOD, seed=1)
        assert result.success
        # Source partitioning floors at one task.
        assert all(s.num_tasks >= 1 for s in result.stages)

    def test_fractional_megabytes(self, simulator, cluster):
        result = simulator.run(Wordcount(), 0.5, cluster, GOOD, seed=1)
        assert result.success

    def test_very_large_input_completes(self, simulator, cluster):
        cfg = _config(**{
            "spark.executor.instances": 8, "spark.executor.cores": 8,
            "spark.executor.memory": 24576, "spark.default.parallelism": 1500,
            "spark.serializer": "kryo",
        })
        result = simulator.run(Sort(), 500_000, cluster, cfg, seed=1)
        assert result.success
        assert result.runtime_s > 100


class TestExtremeConfigs:
    def test_parallelism_one_floor(self, simulator, cluster):
        # Parallelism below the space minimum via direct construction.
        cfg = GOOD.replace(**{"spark.default.parallelism": 8})
        result = simulator.run(Sort(), 2_000, cluster, cfg, seed=1)
        assert result.success

    def test_memory_fraction_extremes(self, simulator, cluster):
        for fraction in (0.3, 0.9):
            cfg = GOOD.replace(**{"spark.memory.fraction": fraction})
            result = simulator.run(Wordcount(), 5_000, cluster, cfg, seed=1)
            assert result.success

    def test_zero_iteration_floor(self):
        with pytest.raises(ValueError):
            PageRank(iterations=0)

    def test_all_compression_off(self, simulator, cluster):
        cfg = GOOD.replace(**{
            "spark.shuffle.compress": False,
            "spark.shuffle.spill.compress": False,
            "spark.rdd.compress": False,
        })
        result = simulator.run(Sort(), 10_000, cluster, cfg, seed=1)
        assert result.success


class TestLineageEdgeCases:
    def test_self_join(self):
        base = RDD.source("d", 1_000).map()
        plan = compile_job(base.join(base).count())
        # The shared parent stage is built once and feeds both sides.
        assert plan.num_stages == 2
        reduce_stage = plan.topological()[-1]
        assert reduce_stage.shuffle_read_mb == pytest.approx(2_000)

    def test_deep_narrow_chain_single_stage(self):
        rdd = RDD.source("d", 1_000)
        for _ in range(30):
            rdd = rdd.map(cpu_s_per_mb=0.001)
        plan = compile_job(rdd.count())
        assert plan.num_stages == 1
        assert plan.stages[0].cpu_s > 0

    def test_chained_shuffles(self):
        rdd = RDD.source("d", 1_000)
        for i in range(4):
            rdd = rdd.reduce_by_key(f"rbk{i}", size_ratio=0.5)
        plan = compile_job(rdd.count())
        assert plan.num_stages == 5

    def test_cache_without_materialization_recomputes(self, simulator, cluster):
        # A cached RDD only helps after its first materialization; a
        # single-job workload touching it once still succeeds.
        cached = RDD.source("d", 1_000).map().cache()
        job = cached.filter().count()
        result = simulator.run(_AdHoc([job]), 1_000, cluster, GOOD, seed=1)
        assert result.success


class TestDeterminismAcrossRuns:
    def test_full_workload_bitwise_stable(self, cluster):
        sims = [SparkSimulator() for _ in range(2)]
        results = [
            s.run(PageRank(iterations=3), 5_000, cluster, GOOD, seed=99)
            for s in sims
        ]
        assert results[0].runtime_s == results[1].runtime_s
        for a, b in zip(results[0].stages, results[1].stages):
            assert a.duration_s == b.duration_s
