"""Tests for executor memory regions, cache planning, spill and GC."""

import pytest

from repro.config import Configuration, SPARK_DEFAULTS
from repro.sparksim import ExecutorModel, gc_fraction
from tests.oracles import execution_capacity_mb, plan_cache, spill_outcome


def _config(**overrides):
    cfg = dict(SPARK_DEFAULTS)
    cfg.update(overrides)
    return Configuration(cfg)


class TestExecutorModel:
    def test_unified_memory_formula(self):
        # Spark: (heap - 300) * memory.fraction
        ex = ExecutorModel.from_config(_config(**{
            "spark.executor.memory": 4096,
            "spark.memory.fraction": 0.6,
            "spark.memory.storageFraction": 0.5,
        }))
        assert ex.unified_mb == pytest.approx((4096 - 300) * 0.6)
        assert ex.storage_immune_mb == pytest.approx(ex.unified_mb * 0.5)

    def test_concurrent_tasks_from_cores(self):
        ex = ExecutorModel.from_config(_config(**{
            "spark.executor.cores": 8, "spark.task.cpus": 2,
        }))
        assert ex.concurrent_tasks == 4

    def test_execution_borrows_from_storage(self):
        ex = ExecutorModel.from_config(_config(**{
            "spark.executor.memory": 4096,
        }))
        # With nothing cached, execution gets the full unified pool.
        assert execution_capacity_mb(ex, 0.0) == pytest.approx(ex.unified_mb)
        # With a big cache, execution is pushed down to the immune boundary.
        full = execution_capacity_mb(ex, ex.unified_mb)
        assert full == pytest.approx(ex.unified_mb - ex.storage_immune_mb)

    def test_offheap_extends_execution(self):
        base = ExecutorModel.from_config(_config())
        off = ExecutorModel.from_config(_config(**{
            "spark.memory.offHeap.enabled": True,
            "spark.memory.offHeap.size": 2048,
        }))
        assert execution_capacity_mb(off, 0) == pytest.approx(
            execution_capacity_mb(base, 0) + 2048
        )

    def test_tiny_heap_has_no_usable_memory(self):
        ex = ExecutorModel.from_config(_config(**{"spark.executor.memory": 512}))
        assert ex.unified_mb < 300


class TestCachePlan:
    def _executor(self, memory=8192):
        return ExecutorModel.from_config(_config(**{"spark.executor.memory": memory}))

    def test_fits_fully(self):
        plan = plan_cache(100, executors=8, executor=self._executor(), config=_config())
        assert plan.hit_fraction == 1.0

    def test_partial_fit(self):
        plan = plan_cache(100_000, executors=2, executor=self._executor(),
                          config=_config())
        assert 0 < plan.hit_fraction < 1

    def test_memory_only_footprint_is_expanded(self):
        plan = plan_cache(1000, 4, self._executor(), _config(**{
            "spark.storage.level": "MEMORY_ONLY", "spark.serializer": "java",
        }))
        assert plan.footprint_per_mb > 2.0  # deserialized java objects
        assert plan.read_cpu_s_per_mb == 0.0

    def test_serialized_level_denser_but_costs_cpu(self):
        raw = plan_cache(1000, 4, self._executor(), _config(**{
            "spark.storage.level": "MEMORY_ONLY",
        }))
        ser = plan_cache(1000, 4, self._executor(), _config(**{
            "spark.storage.level": "MEMORY_ONLY_SER",
        }))
        assert ser.footprint_per_mb < raw.footprint_per_mb
        assert ser.read_cpu_s_per_mb > 0

    def test_rdd_compress_shrinks_serialized_cache(self):
        plain = plan_cache(1000, 4, self._executor(), _config(**{
            "spark.storage.level": "MEMORY_ONLY_SER",
        }))
        compressed = plan_cache(1000, 4, self._executor(), _config(**{
            "spark.storage.level": "MEMORY_ONLY_SER", "spark.rdd.compress": True,
        }))
        assert compressed.footprint_per_mb < plain.footprint_per_mb
        assert compressed.read_cpu_s_per_mb > plain.read_cpu_s_per_mb

    def test_memory_and_disk_misses_hit_disk(self):
        plan = plan_cache(1000, 4, self._executor(), _config(**{
            "spark.storage.level": "MEMORY_AND_DISK",
        }))
        assert plan.miss_to_disk

    def test_kryo_shrinks_everything(self):
        java = plan_cache(1000, 4, self._executor(), _config())
        kryo = plan_cache(1000, 4, self._executor(), _config(**{
            "spark.serializer": "kryo",
        }))
        assert kryo.footprint_per_mb < java.footprint_per_mb

    def test_zero_cache_full_hit(self):
        plan = plan_cache(0, 4, self._executor(), _config())
        assert plan.hit_fraction == 1.0

    def test_negative_cache_rejected(self):
        with pytest.raises(ValueError):
            plan_cache(-1, 4, self._executor(), _config())


class TestSpillOutcome:
    def test_fits_no_spill(self):
        out = spill_outcome(100, 200, unspillable_fraction=0.1)
        assert out.spilled_mb == 0 and not out.oom

    def test_spills_the_overflow(self):
        out = spill_outcome(500, 200, unspillable_fraction=0.1)
        assert out.spilled_mb == pytest.approx(300)
        assert out.merge_passes >= 2
        assert not out.oom

    def test_oom_when_floor_exceeds_memory(self):
        # 30% of 1000 MB = 300 MB unspillable > 100 MB available.
        out = spill_outcome(1000, 100, unspillable_fraction=0.3)
        assert out.oom

    def test_bigger_memory_avoids_oom(self):
        assert not spill_outcome(1000, 400, unspillable_fraction=0.3).oom

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            spill_outcome(-1, 100, 0.1)


class TestGCFraction:
    def test_low_occupancy_cheap(self):
        assert gc_fraction(0.2) < 0.03

    def test_monotone_increasing(self):
        values = [gc_fraction(o) for o in [0.0, 0.3, 0.6, 0.9, 1.1]]
        assert values == sorted(values)

    def test_capped(self):
        assert gc_fraction(10.0) <= 0.45
