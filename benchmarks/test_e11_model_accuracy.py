"""E11 — accuracy of black-box runtime-prediction models (Section II.C).

Paper: existing tuning suffers "limited accuracy (due to models which do
not take into account what the workload actually does but considers them
as black-boxes)".  This bench cross-validates four model families — GP
(CherryPick), random forest (PARIS), kernel ridge (AROMA's SVR stand-in)
and Ernest's structural model — on runtime data sampled from the
simulator, per workload.

Expected shape: flexible black-box models (GP/forest) extract a usable
but far-from-perfect ranking signal from 70 samples — the "limited
accuracy" the paper describes; Ernest's structural model, which only
sees cluster scale, ranks at noise level once the other configuration
dimensions vary ("poor adaptivity"); and MAPE in the tens of percent
everywhere shows these models rank better than they predict.
"""

import numpy as np
import pytest

from repro.analysis import cross_validate, render_table
from repro.config import OneHotEncoder, spark_core_space
from repro.sparksim import SparkSimulator
from repro.tuning import (
    ErnestModel,
    GaussianProcess,
    KernelRidgeRegressor,
    RandomForestRegressor,
)
from repro.workloads import get_workload

N_SAMPLES = 70
WORKLOADS = ["mlfit", "sql-join-agg", "pagerank"]


class _ErnestAdapter:
    """Ernest as a config->runtime model: only sees slot counts.

    Features are the one-hot config vector; Ernest consumes (machines,
    data) so the adapter reconstructs an effective machine count from the
    executor sizing columns — everything else is invisible to it, which
    is exactly its structural limitation.
    """

    def __init__(self, encoder, input_mb):
        self.encoder = encoder
        self.input_mb = input_mb
        self._model = ErnestModel()
        names = encoder.feature_names
        self._i_inst = names.index("spark.executor.instances")
        self._i_cores = names.index("spark.executor.cores")

    def _machines(self, X):
        # Undo the unit scaling approximately: instances in [1,48] log-ish
        # is opaque here, so use the raw unit values as a proxy scale.
        return 1.0 + 47.0 * X[:, self._i_inst] * (1.0 + 15.0 * X[:, self._i_cores]) / 16.0

    def fit(self, X, y):
        machines = self._machines(np.atleast_2d(X))
        self._model.fit(machines, np.full(len(machines), self.input_mb), y)
        return self

    def predict(self, X):
        machines = self._machines(np.atleast_2d(X))
        return self._model.predict(machines, np.full(len(machines), self.input_mb))


def _dataset(workload_name, cluster):
    simulator = SparkSimulator()
    space = spark_core_space()
    onehot = OneHotEncoder(space)
    workload = get_workload(workload_name)
    input_mb = workload.inputs.ds1_mb
    rng = np.random.default_rng(11)
    X, y = [], []
    # Models train on *completed* runs (how the surveyed systems work),
    # averaged over three measurements per configuration — single cloud
    # runs carry straggler noise comparable to the config differences
    # themselves (see the A1 ablation), so all serious tuning systems
    # repeat measurements.
    i = 0
    while len(y) < N_SAMPLES:
        config = space.sample_configuration(rng)
        runs = [simulator.run(workload, input_mb, cluster, _full(config),
                              seed=3 * i + r) for r in range(3)]
        i += 1
        if all(r.success for r in runs):
            X.append((onehot.encode(config), space.encode(config)))
            y.append(float(np.mean([r.runtime_s for r in runs])))
    X_onehot = np.array([a for a, _ in X])
    X_unit = np.array([b for _, b in X])
    return X_onehot, X_unit, np.array(y), onehot, input_mb


def _full(config):
    from repro.config import Configuration, SPARK_DEFAULTS

    return Configuration({**SPARK_DEFAULTS, **dict(config)})


def run_e11(cluster):
    out = {}
    for name in WORKLOADS:
        X_onehot, X_unit, y, onehot, input_mb = _dataset(name, cluster)
        # Each family gets its natural encoding: GPs and kernel methods
        # use the compact unit encoding (as in BO); trees use one-hot.
        models = {
            "gp (CherryPick)": (
                lambda: GaussianProcess(n_restarts=2, seed=0), X_unit, True),
            "forest (PARIS)": (
                lambda: RandomForestRegressor(n_trees=20, seed=0), X_onehot, True),
            "kernel-ridge (AROMA)": (
                lambda: KernelRidgeRegressor(lengthscale=0.8, alpha=5e-2),
                X_unit, True),
            "ernest (structural)": (
                lambda: _ErnestAdapter(onehot, input_mb), X_onehot, False),
        }
        scores = {}
        for model_name, (factory, X, log_targets) in models.items():
            scores[model_name] = cross_validate(factory, X, y, k=5, seed=1,
                                                log_targets=log_targets)
        out[name] = scores
    return out


@pytest.mark.benchmark(group="e11")
def test_e11_model_accuracy(benchmark, paper_cluster):
    results = benchmark.pedantic(run_e11, args=(paper_cluster,),
                                 rounds=1, iterations=1)
    rows = []
    for workload, scores in results.items():
        for model, s in scores.items():
            rows.append([workload, model, f"{s.mape:.0%}", f"{s.spearman:.2f}"])
    print(render_table(
        "E11: runtime-model accuracy (5-fold CV, 70 samples/workload)",
        ["workload", "model", "MAPE", "rank corr"], rows,
    ))

    for workload, scores in results.items():
        flexible = [scores["gp (CherryPick)"], scores["forest (PARIS)"]]
        # Flexible black boxes extract a positive (but limited) ranking
        # signal everywhere...
        assert max(s.spearman for s in flexible) > 0.2, workload
        # ...while remaining far from accurate prediction — the paper's
        # "limited accuracy" point.
        assert min(s.mape for s in flexible) > 0.10, workload
        # Ernest, blind to everything except cluster scale, ranks worse
        # than the best flexible model on every workload here ("poor
        # adaptivity" once non-scaling knobs vary).
        assert scores["ernest (structural)"].spearman < max(
            s.spearman for s in flexible
        ), workload
    # The forest (PARIS) is the strongest ranker on at least one workload.
    assert any(
        scores["forest (PARIS)"].spearman == max(s.spearman for s in scores.values())
        for scores in results.values()
    )
