"""Tests for the Starfish what-if engine, AROMA, and successive halving."""

import numpy as np
import pytest

from repro.config import Configuration, SPARK_DEFAULTS, spark_core_space
from repro.cloud import Cluster
from repro.core import probe_configuration, signature
from repro.sparksim import FaultPlan, SparkSimulator, oom_kill
from repro.tuning import (
    AromaTuner,
    JobProfile,
    KernelRidgeRegressor,
    SimulationObjective,
    WhatIfEngine,
    WorkloadCorpus,
    successive_halving,
    whatif_tune,
)
from repro.workloads import PageRank, Sort, Wordcount


@pytest.fixture
def profile(cluster, simulator):
    config = probe_configuration()
    result = simulator.run(Sort(), 10_000, cluster, config, seed=1)
    return JobProfile.from_execution(result, config, cluster)


class TestWhatIfEngine:
    def test_profile_requires_success(self, cluster, simulator):
        bad = Configuration({**SPARK_DEFAULTS, "spark.executor.memory": 65536})
        result = simulator.run(Wordcount(), 1000, cluster, bad)
        with pytest.raises(ValueError):
            JobProfile.from_execution(result, bad, cluster)

    def test_predicts_profile_point_well(self, cluster, simulator, profile):
        engine = WhatIfEngine(profile)
        predicted = engine.predict(profile.config)
        assert predicted == pytest.approx(profile.runtime_s, rel=0.35)

    def test_data_scaling_roughly_linear(self, profile):
        engine = WhatIfEngine(profile)
        small = engine.predict(profile.config, input_mb=5_000)
        big = engine.predict(profile.config, input_mb=20_000)
        assert 1.5 < big / small < 4.5

    def test_more_slots_predicts_faster(self, profile):
        engine = WhatIfEngine(profile)
        more = profile.config.replace(**{"spark.executor.instances": 16,
                                         "spark.executor.cores": 4})
        assert engine.predict(more) < engine.predict(
            profile.config.replace(**{"spark.executor.instances": 2,
                                      "spark.executor.cores": 2})
        )

    def test_infeasible_config_predicts_inf(self, profile):
        bad = profile.config.replace(**{"spark.executor.memory": 65536})
        assert WhatIfEngine(profile).predict(bad) == float("inf")

    def test_cross_cluster_prediction(self, profile):
        engine = WhatIfEngine(profile)
        bigger = Cluster.of("h1.4xlarge", 8)
        assert engine.predict(profile.config, cluster=bigger) < engine.predict(
            profile.config
        )

    def test_misses_regime_changes(self, cluster, simulator, profile):
        """The documented Starfish weakness: spill cliffs are invisible."""
        engine = WhatIfEngine(profile)
        # Coarse partitions at 5x data: true execution spills massively.
        cliff = profile.config.replace(**{"spark.default.parallelism": 8})
        predicted = engine.predict(cliff, input_mb=50_000)
        actual = simulator.run(Sort(), 50_000, cluster, cliff, seed=3)
        if actual.success:
            # Prediction underestimates the true (spilling) runtime.
            assert predicted < actual.runtime_s

    def test_whatif_tune_executes_few_but_finds_decent(self, cluster):
        objective = SimulationObjective(Sort(), 10_000, cluster=cluster, seed=5)
        space = spark_core_space()
        result = whatif_tune(objective, space, cluster, budget=5, seed=0)
        assert result.n_evaluations == 5
        default_cost = SimulationObjective(Sort(), 10_000, cluster=cluster,
                                           seed=9)(space.default_configuration())
        assert result.best_cost < default_cost

    def test_whatif_tune_records_failed_runs(self, cluster):
        """A crashed execution is observed as failed, never as a success."""
        simulator = SparkSimulator(fault_plan=FaultPlan.of(oom_kill(1.0)))
        objective = SimulationObjective(Sort(), 10_000, cluster=cluster,
                                        seed=5, simulator=simulator)
        result = whatif_tune(objective, spark_core_space(), cluster,
                             budget=3, seed=0)
        assert [o.succeeded for o in result.history] == [False, False, False]


class TestKernelRidge:
    def test_fits_smooth_function(self, rng):
        X = rng.random((80, 2))
        y = np.sin(4 * X[:, 0]) + X[:, 1]
        model = KernelRidgeRegressor(lengthscale=0.4, alpha=1e-3).fit(X, y)
        Xt = rng.random((30, 2))
        rmse = np.sqrt(np.mean((model.predict(Xt) - (np.sin(4 * Xt[:, 0]) + Xt[:, 1])) ** 2))
        assert rmse < 0.15

    def test_validates_params(self):
        with pytest.raises(ValueError):
            KernelRidgeRegressor(lengthscale=0)
        with pytest.raises(ValueError):
            KernelRidgeRegressor(alpha=-1)

    def test_predict_requires_fit(self):
        with pytest.raises(ValueError):
            KernelRidgeRegressor().predict(np.zeros((1, 2)))


class TestAroma:
    def _corpus(self, cluster, simulator):
        """Two graph jobs and one scan job with random-config histories."""
        space = spark_core_space()
        corpus = WorkloadCorpus()
        rng = np.random.default_rng(0)
        for workload, mb in [(PageRank(), 5_000),
                             (PageRank(cpu_scale=1.3), 6_000),
                             (Wordcount(), 20_000)]:
            probe = simulator.run(workload, mb, cluster, probe_configuration(), seed=0)
            history = []
            for i, cfg in enumerate(space.sample_configurations(12, rng)):
                full = probe_configuration().replace(**dict(cfg))
                r = simulator.run(workload, mb, cluster, full, seed=i)
                history.append((Configuration(dict(cfg)), r.effective_runtime()))
            corpus.add(signature(probe), history)
        return corpus

    def test_assigns_target_to_graph_cluster(self, cluster, simulator):
        corpus = self._corpus(cluster, simulator)
        space = spark_core_space()
        target = simulator.run(PageRank(cpu_scale=0.8), 5_000, cluster,
                               probe_configuration(), seed=9)
        tuner = AromaTuner(space, corpus, signature(target), k=2, seed=1)
        # The two pagerank corpus entries share a cluster; wordcount is
        # alone — the target inherits the graph cluster's observations.
        assert tuner.transferred_observations >= 12

    def test_empty_corpus_rejected(self, rng):
        with pytest.raises(ValueError):
            AromaTuner(spark_core_space(), WorkloadCorpus(), np.zeros(11))

    def test_tunes_better_than_start(self, cluster, simulator):
        corpus = self._corpus(cluster, simulator)
        space = spark_core_space()
        target_workload = PageRank(cpu_scale=0.8)
        probe = simulator.run(target_workload, 5_000, cluster,
                              probe_configuration(), seed=9)
        tuner = AromaTuner(space, corpus, signature(probe), k=2, seed=1)
        objective = SimulationObjective(target_workload, 5_000, cluster=cluster, seed=30)
        from repro.tuning import run_tuner

        result = run_tuner(tuner, objective, budget=12)
        assert result.best_cost < probe.runtime_s


class TestSuccessiveHalving:
    @staticmethod
    def _objective(cluster):
        simulator = SparkSimulator()
        calls = {"n": 0}

        def objective_at(config, fidelity):
            calls["n"] += 1
            iterations = max(1, int(round(6 * fidelity)))
            workload = PageRank(iterations=iterations)
            full = Configuration({**SPARK_DEFAULTS, **dict(config)})
            result = simulator.run(workload, 5_000, cluster, full,
                                   seed=calls["n"])
            return result.effective_runtime()

        return objective_at

    def test_promotes_and_finds_good_config(self, cluster):
        space = spark_core_space()
        result = successive_halving(self._objective(cluster), space,
                                    n_configs=18, eta=3, seed=0)
        assert result.rung_trace[0][1] == 18
        assert result.rung_trace[-1][1] < 18
        # Winner beats the default config at full fidelity.
        default_cost = self._objective(cluster)(
            space.default_configuration(), 1.0
        )
        assert result.best_cost < default_cost

    def test_spends_most_executions_cheaply(self, cluster):
        space = spark_core_space()
        result = successive_halving(self._objective(cluster), space,
                                    n_configs=18, eta=3, min_fidelity=0.25, seed=1)
        # 18 at the lowest rung vs ~2-6 at the top.
        assert result.rung_trace[0][1] >= 3 * result.rung_trace[-1][1]
        assert result.total_executions >= 24

    def test_validates_inputs(self, cluster):
        space = spark_core_space()
        obj = self._objective(cluster)
        with pytest.raises(ValueError):
            successive_halving(obj, space, n_configs=2, eta=3)
        with pytest.raises(ValueError):
            successive_halving(obj, space, eta=1)
        with pytest.raises(ValueError):
            successive_halving(obj, space, min_fidelity=0)
