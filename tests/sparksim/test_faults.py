"""Fault injection: deterministic draws, per-kind effects, no-op equivalence."""

import pickle

import pytest

from repro.cloud import Cluster
from repro.cloud.interference import TYPICAL
from repro.config import spark_core_space
from repro.sparksim import (
    FaultPlan,
    FaultSpec,
    SparkSimulator,
    env_spike,
    executor_loss,
    oom_kill,
    straggler,
)
from repro.workloads import PageRank, Sort

CLUSTER = Cluster.of("h1.4xlarge", 4)
CONFIG = spark_core_space().default_configuration()


def run(sim, seed=7, workload=None, env=None):
    kwargs = {"env": env} if env is not None else {}
    return sim.run(workload or Sort(), 8192.0, CLUSTER, CONFIG, seed=seed, **kwargs)


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("disk_fire", 0.5)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultSpec("oom_kill", 1.5)
        with pytest.raises(ValueError):
            FaultSpec("oom_kill", -0.1)

    def test_loss_fraction_must_be_fractional(self):
        with pytest.raises(ValueError):
            executor_loss(1.0, fraction=1.0)

    def test_slowdowns_must_be_at_least_one(self):
        with pytest.raises(ValueError):
            straggler(1.0, slowdown=0.5)
        with pytest.raises(ValueError):
            env_spike(1.0, multiplier=0.9)

    def test_span_must_be_positive(self):
        with pytest.raises(ValueError):
            oom_kill(1.0, span=0)


class TestDeterministicDraws:
    def test_same_seed_same_draw(self):
        plan = FaultPlan.of(straggler(0.5), oom_kill(0.3))
        for seed in range(50):
            assert plan.draw(seed) == plan.draw(seed)

    def test_draws_vary_across_seeds(self):
        plan = FaultPlan.of(oom_kill(0.5))
        draws = {plan.draw(seed).oom_stage for seed in range(64)}
        assert draws == {-1, 0}      # both outcomes occur at p=0.5

    def test_probability_zero_never_fires(self):
        plan = FaultPlan.of(
            executor_loss(0.0), straggler(0.0), oom_kill(0.0),
            env_spike(0.0),
        )
        assert not any(plan.draw(seed).any for seed in range(100))

    def test_probability_one_always_fires(self):
        plan = FaultPlan.of(oom_kill(1.0))
        assert all(plan.draw(seed).oom_stage == 0 for seed in range(100))

    def test_salt_changes_the_draws(self):
        a = FaultPlan.of(oom_kill(0.5), salt=1)
        b = FaultPlan.of(oom_kill(0.5), salt=2)
        assert any(a.draw(s) != b.draw(s) for s in range(64))

    def test_plan_is_hashable_and_picklable(self):
        plan = FaultPlan.of(straggler(0.3))
        assert hash(plan) == hash(pickle.loads(pickle.dumps(plan)))
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestSimulatorIntegration:
    def test_non_firing_plan_is_bit_identical_to_no_plan(self):
        quiet = FaultPlan.of(oom_kill(0.0), straggler(0.0))
        for seed in range(5):
            base = run(SparkSimulator(), seed=seed)
            faulted = run(SparkSimulator(fault_plan=quiet), seed=seed)
            assert faulted.runtime_s == base.runtime_s
            assert faulted.success == base.success
            assert faulted.faults_injected == ()

    def test_empty_plan_is_bit_identical_to_no_plan(self):
        base = run(SparkSimulator(), seed=11)
        faulted = run(SparkSimulator(fault_plan=FaultPlan()), seed=11)
        assert faulted.runtime_s == base.runtime_s

    def test_oom_kill_fails_the_run(self):
        sim = SparkSimulator(fault_plan=FaultPlan.of(oom_kill(1.0)))
        result = run(sim)
        assert not result.success
        assert "fault-injected" in result.failure_reason
        assert any(f.startswith("oom_kill:") for f in result.faults_injected)
        assert result.runtime_s > 0

    def test_straggler_slows_the_run(self):
        base = run(SparkSimulator(noise=False), seed=3)
        sim = SparkSimulator(
            noise=False, fault_plan=FaultPlan.of(straggler(1.0, slowdown=5.0)),
        )
        slowed = run(sim, seed=3)
        assert slowed.success
        assert slowed.runtime_s > base.runtime_s
        assert any(f.startswith("straggler:") for f in slowed.faults_injected)

    def test_executor_loss_slows_but_survives(self):
        base = run(SparkSimulator(noise=False), seed=3)
        sim = SparkSimulator(
            noise=False,
            fault_plan=FaultPlan.of(executor_loss(1.0, fraction=0.5)),
        )
        degraded = run(sim, seed=3)
        assert degraded.success
        assert degraded.runtime_s > base.runtime_s
        assert any(
            f.startswith("executor_loss:") for f in degraded.faults_injected
        )

    def test_env_spike_raises_environment_factor(self):
        sim = SparkSimulator(
            noise=False, fault_plan=FaultPlan.of(env_spike(1.0, multiplier=1.4)),
        )
        spiked = run(sim, seed=3, env=TYPICAL)
        base = run(SparkSimulator(noise=False), seed=3, env=TYPICAL)
        assert spiked.environment_factor > base.environment_factor
        assert spiked.runtime_s > base.runtime_s

    def test_faults_reproducible_across_simulator_instances(self):
        plan = FaultPlan.of(oom_kill(0.5), straggler(0.5, slowdown=2.0))
        for seed in range(6):
            a = run(SparkSimulator(noise=False, fault_plan=plan),
                    seed=seed, workload=PageRank())
            b = run(SparkSimulator(noise=False, fault_plan=plan),
                    seed=seed, workload=PageRank())
            assert a.runtime_s == b.runtime_s
            assert a.faults_injected == b.faults_injected

    def test_multi_stage_span_targets_later_stages(self):
        plan = FaultPlan.of(oom_kill(1.0, span=3))
        sim = SparkSimulator(fault_plan=plan)
        stages = set()
        for seed in range(30):
            result = run(sim, seed=seed, workload=PageRank())
            assert not result.success
            # A genuine OOM may pre-empt an injection drawn for a later
            # stage; only injected kills carry an audit tag.
            stages.update(f for f in result.faults_injected if "oom_kill" in f)
        assert len(stages) > 1       # the drawn stage actually varies
