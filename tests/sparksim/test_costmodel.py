"""Direct unit tests for the scalar reference cost model,
``compute_stage_cost`` (``tests/oracles.py``); the identity suites tie
it to the shipped batch cost program."""

import pytest

from repro.cloud import Cluster, NOISY, QUIET
from repro.config import Configuration, SPARK_DEFAULTS, grant_resources
from repro.sparksim import (
    Calibration,
    ExecutorModel,
    StageProfile,
    with_overrides,
)
from tests.oracles import compute_stage_cost, plan_cache


def _config(**overrides):
    cfg = dict(SPARK_DEFAULTS)
    cfg.update({
        "spark.executor.instances": 8, "spark.executor.cores": 4,
        "spark.executor.memory": 8192, "spark.default.parallelism": 64,
    })
    cfg.update(overrides)
    return Configuration(cfg)


@pytest.fixture
def setup(cluster):
    def make(stage, config=None, cached_mb=0.0):
        config = config or _config()
        grant = grant_resources(config, cluster)
        executor = ExecutorModel.from_config(config)
        cache = plan_cache(cached_mb, grant.executors, executor, config)
        return stage, config, cluster, grant, executor, cache

    return make


def _scan_stage(input_mb=12800.0):
    return StageProfile(stage_id=0, name="scan", num_tasks_hint=100,
                        input_mb=input_mb, cpu_s=input_mb * 0.01,
                        output_mb=input_mb)


def _shuffle_stage(read_mb=6400.0):
    return StageProfile(stage_id=1, name="reduce", num_tasks_hint=None,
                        shuffle_read_mb=read_mb, cpu_s=read_mb * 0.01,
                        output_mb=read_mb, depends_on=[0])


class TestStageCost:
    def test_uses_parallelism_when_no_hint(self, setup):
        args = setup(_shuffle_stage())
        cost = compute_stage_cost(*args, QUIET, num_map_tasks=100)
        assert cost.num_tasks == 64

    def test_uses_hint_when_present(self, setup):
        args = setup(_scan_stage())
        cost = compute_stage_cost(*args, QUIET)
        assert cost.num_tasks == 100

    def test_components_nonnegative_and_task_total(self, setup):
        args = setup(_scan_stage())
        cost = compute_stage_cost(*args, QUIET)
        t = cost.task
        assert min(t.cpu_s, t.disk_s, t.net_s, t.gc_s, t.launch_s, t.idle_s) >= 0
        assert t.total_s == pytest.approx(
            t.cpu_s + t.disk_s + t.net_s + t.gc_s + t.launch_s + t.idle_s
        )

    def test_cpu_splits_across_tasks(self, setup):
        small = _scan_stage()
        args = setup(small)
        few = compute_stage_cost(*args, QUIET)
        many_stage = _scan_stage()
        many_stage.num_tasks_hint = 400
        args2 = setup(many_stage)
        many = compute_stage_cost(*args2, QUIET)
        assert many.task.cpu_s < few.task.cpu_s

    def test_interference_inflates_costs(self, setup):
        args = setup(_scan_stage())
        quiet = compute_stage_cost(*args, QUIET)
        noisy = compute_stage_cost(*args, NOISY)
        assert noisy.task.cpu_s > quiet.task.cpu_s
        assert noisy.task.disk_s > quiet.task.disk_s

    def test_fast_cores_reduce_cpu(self, setup):
        stage = _scan_stage()
        args_slow = setup(stage)
        slow = compute_stage_cost(*args_slow, QUIET)
        fast_cluster = Cluster.of("c5.4xlarge", 4)  # cpu_speed 1.18
        config = _config()
        grant = grant_resources(config, fast_cluster)
        executor = ExecutorModel.from_config(config)
        cache = plan_cache(0, grant.executors, executor, config)
        fast = compute_stage_cost(stage, config, fast_cluster, grant,
                                  executor, cache, QUIET)
        assert fast.task.cpu_s < slow.task.cpu_s

    def test_oom_flag_on_starved_memory(self, setup):
        stage = _shuffle_stage(read_mb=64_000.0)
        stage.num_tasks_hint = 8            # 8 GB logical per task
        stage.unspillable_fraction = 0.3
        config = _config(**{"spark.executor.memory": 1024})
        args = setup(stage, config=config)
        cost = compute_stage_cost(*args, QUIET, num_map_tasks=100)
        assert cost.task.oom

    def test_spill_reported_in_totals(self, setup):
        stage = _shuffle_stage(read_mb=64_000.0)
        stage.num_tasks_hint = 32
        config = _config(**{"spark.executor.memory": 4096})
        args = setup(stage, config=config)
        cost = compute_stage_cost(*args, QUIET, num_map_tasks=100)
        assert not cost.task.oom
        assert cost.task.spilled_mb > 0
        assert cost.spill_mb_total == pytest.approx(
            cost.task.spilled_mb * cost.num_tasks
        )

    def test_driver_overhead_scales_with_tasks(self, setup):
        small = _scan_stage()
        args = setup(small)
        a = compute_stage_cost(*args, QUIET)
        big = _scan_stage()
        big.num_tasks_hint = 2000
        args2 = setup(big)
        b = compute_stage_cost(*args2, QUIET)
        assert b.driver_s > a.driver_s

    def test_collect_charged_to_driver(self, setup):
        stage = _scan_stage()
        stage.collect_mb = 100.0
        args = setup(stage)
        with_collect = compute_stage_cost(*args, QUIET)
        stage2 = _scan_stage()
        args2 = setup(stage2)
        without = compute_stage_cost(*args2, QUIET)
        assert with_collect.driver_s > without.driver_s

    def test_zero_granted_executors_rejected(self, cluster):
        stage = _scan_stage()
        config = _config(**{"spark.executor.memory": 65536})
        grant = grant_resources(config, cluster)
        executor = ExecutorModel.from_config(config)
        cache = plan_cache(0, 1, executor, config)
        with pytest.raises(ValueError):
            compute_stage_cost(stage, config, cluster, grant, executor,
                               cache, QUIET)

    def test_calibration_override_changes_cost(self, setup):
        args = setup(_scan_stage())
        base = compute_stage_cost(*args, QUIET)
        slow_launch = with_overrides(Calibration(), task_launch_s=1.0)
        slower = compute_stage_cost(*args, QUIET, calib=slow_launch)
        assert slower.task.launch_s == 1.0
        assert slower.task.total_s > base.task.total_s

    def test_cache_miss_costs_recompute(self, setup, cluster):
        stage = StageProfile(stage_id=0, name="iter", num_tasks_hint=100,
                             cached_read_mb=10_000.0, cpu_s=50.0,
                             output_mb=100.0)
        config = _config(**{"spark.executor.memory": 1024})  # cache won't fit
        grant = grant_resources(config, cluster)
        executor = ExecutorModel.from_config(config)
        miss_cache = plan_cache(10_000.0, grant.executors, executor, config,
                                recompute_cpu_s_per_mb=0.05,
                                recompute_io_mb_per_mb=1.0)
        assert miss_cache.hit_fraction < 1.0
        cost_miss = compute_stage_cost(stage, config, cluster, grant,
                                       executor, miss_cache, QUIET)
        big_config = _config(**{"spark.executor.memory": 32768})
        grant2 = grant_resources(big_config, cluster)
        executor2 = ExecutorModel.from_config(big_config)
        hit_cache = plan_cache(10_000.0, grant2.executors, executor2, big_config)
        cost_hit = compute_stage_cost(stage, big_config, cluster, grant2,
                                      executor2, hit_cache, QUIET)
        assert cost_miss.task.total_s > cost_hit.task.total_s
