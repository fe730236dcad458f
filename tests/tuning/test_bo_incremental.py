"""Identity suite: incremental BayesOpt surrogate state vs. rebuild.

``BayesOptTuner`` encodes each observation once into append-only
buffers and tracks EI's incumbent as a running minimum;
``RebuildBayesOptTuner`` (``tests/oracles.py``) is the old
rebuild-everything reference.  Whole campaigns must be *bit-identical*
between the two: same suggestion stream, same EI values, same
posteriors.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.cloud_params import cloud_space
from repro.config.spark_params import spark_core_space
from repro.tuning.bo.bayesopt import BayesOptTuner
from tests.oracles import RebuildBayesOptTuner


def _campaign(space, seed, cost_seed, n_steps, log_costs=True,
              refit_every=4, warm=None, tuner_cls=BayesOptTuner):
    tuner = tuner_cls(
        space, seed=seed, n_init=4, n_candidates=48, log_costs=log_costs,
        refit_every=refit_every, warm_start=warm,
    )
    costs = np.random.default_rng(cost_seed)
    trail = []
    for _ in range(n_steps):
        config = tuner.suggest()
        cost = float(5.0 + 500.0 * costs.random())
        tuner.observe(config, cost)
        trail.append((config, tuner.last_max_ei))
    return tuner, trail


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1),
       st.integers(5, 16), st.booleans(), st.integers(1, 6))
def test_campaigns_bit_identical(seed, cost_seed, n_steps, log_costs,
                                 refit_every):
    space = cloud_space("aws")
    t_inc, trail_inc = _campaign(
        space, seed, cost_seed, n_steps, log_costs, refit_every)
    t_ref, trail_ref = _campaign(
        space, seed, cost_seed, n_steps, log_costs, refit_every,
        tuner_cls=RebuildBayesOptTuner)
    for (c_a, ei_a), (c_b, ei_b) in zip(trail_inc, trail_ref):
        assert c_a == c_b
        assert ei_a == ei_b        # bitwise: same incumbent, same posterior
    assert t_inc.best.config == t_ref.best.config
    assert t_inc.best.cost == t_ref.best.cost
    assert t_inc.should_stop() == t_ref.should_stop()


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(3, 10))
def test_warm_started_campaigns_bit_identical(seed, n_steps):
    space = spark_core_space()
    rng = np.random.default_rng(seed)
    warm = [(space.decode(rng.random(space.dimension)),
             float(10.0 + 100.0 * rng.random())) for _ in range(3)]
    _, trail_inc = _campaign(space, seed, seed ^ 0x5bf, n_steps,
                             warm=list(warm))
    _, trail_ref = _campaign(space, seed, seed ^ 0x5bf, n_steps,
                             warm=list(warm), tuner_cls=RebuildBayesOptTuner)
    assert [c for c, _ in trail_inc] == [c for c, _ in trail_ref]
    assert [ei for _, ei in trail_inc] == [ei for _, ei in trail_ref]


def test_buffers_match_training_data_rebuild():
    """The append-only buffers must equal the reference's
    ``_training_data()`` bitwise."""
    space = cloud_space("aws")
    tuner, _ = _campaign(space, 11, 13, 12)
    reference, _ = _campaign(space, 11, 13, 12,
                             tuner_cls=RebuildBayesOptTuner)
    X_ref, y_ref = reference._training_data()
    X_buf, y_buf = tuner._model_data()
    assert np.array_equal(X_buf, X_ref)
    assert np.array_equal(y_buf, y_ref)
    assert float(tuner._y_model_min) == float(y_ref.min())


def test_design_matrix_tracks_rebuild_between_refits():
    """With hyperparameter re-optimization pushed far out (refit_every
    huge), the surrogate grows by rank-1 updates only — its training
    views must still match the from-scratch design matrix bitwise."""
    space = cloud_space("aws")
    tuner, _ = _campaign(space, 3, 7, 14, refit_every=50)
    reference, _ = _campaign(space, 3, 7, 14, refit_every=50,
                             tuner_cls=RebuildBayesOptTuner)
    tuner._refit()
    X, y = reference._training_data()
    yn = (y - tuner._gp._y_mean) / tuner._gp._y_std
    assert np.array_equal(tuner._gp._X, X)
    assert np.array_equal(tuner._gp._y, yn)


def test_failed_observations_enter_model_like_reference():
    space = cloud_space("aws")

    def run(tuner_cls):
        t = tuner_cls(space, seed=5, n_init=3, n_candidates=32)
        rng = np.random.default_rng(21)
        for i in range(10):
            c = t.suggest()
            t.observe(c, float(50 + 400 * rng.random()),
                      succeeded=(i % 3 != 0))
        return t

    a, b = run(BayesOptTuner), run(RebuildBayesOptTuner)
    assert [o.config for o in a.history] == [o.config for o in b.history]
    assert a.best.config == b.best.config and a.best.cost == b.best.cost
