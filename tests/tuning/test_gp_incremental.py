"""Identity suite: rank-1 GP Cholesky growth vs. the reference update.

``GaussianProcess.update`` grows its factor by one row and column per
appended point.  The training state ``_L``/``_X``/``_y`` — and therefore
every posterior — must be bit-identical to the reference below, whether
points arrive one at a time or as one batch, and after re-fits that
shrink the training set.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tuning.bo import GaussianProcess, Matern52


def _reference_update(gp, X_new, y_new):
    """The reference update: rebuild (n+1)-sized arrays per point."""
    theta = gp._theta
    noise = np.exp(theta[-1]) + 1e-10
    from scipy.linalg import solve_triangular
    X, y, L = gp._X.copy(), gp._y.copy(), gp._L.copy()
    for x, yv in zip(np.atleast_2d(X_new), np.ravel(y_new)):
        yn = (yv - gp._y_mean) / gp._y_std
        k_vec = gp.kernel(x[None, :], X, theta[:-1]).ravel()
        b = solve_triangular(L, k_vec, lower=True)
        d = float(gp.kernel.diag(x[None, :], theta[:-1])[0] + noise - b @ b)
        n = len(X)
        L_next = np.zeros((n + 1, n + 1))
        L_next[:n, :n] = L
        L_next[n, :n] = b
        L_next[n, n] = np.sqrt(max(d, 1e-10))
        L = L_next
        X = np.vstack([X, x[None, :]])
        y = np.append(y, yn)
    alpha = solve_triangular(
        L.T, solve_triangular(L, y, lower=True), lower=False)
    return X, y, L, alpha


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 10), st.integers(1, 40),
       st.integers(1, 4))
def test_buffered_update_bit_identical_to_rebuild(seed, n_fit, n_new, dim):
    rng = np.random.default_rng(seed)
    X = rng.random((n_fit + n_new, dim))
    y = rng.random(n_fit + n_new)
    gp = GaussianProcess(kernel=Matern52(), seed=0)
    gp.fit(X[:n_fit], y[:n_fit], optimize_hyperparams=False)
    X_ref, y_ref, L_ref, alpha_ref = _reference_update(
        gp, X[n_fit:], y[n_fit:])
    for i in range(n_fit, n_fit + n_new):
        gp.update(X[i:i + 1], y[i:i + 1])
    assert np.array_equal(gp._X, X_ref)
    assert np.array_equal(gp._y, y_ref)
    assert np.array_equal(gp._L, L_ref)
    assert np.array_equal(gp._alpha, alpha_ref)
    Xs = rng.random((8, dim))
    mean, std = gp.predict(Xs)
    gp_ref = GaussianProcess(kernel=Matern52(), seed=0)
    gp_ref.fit(X[:n_fit], y[:n_fit], optimize_hyperparams=False)
    gp_ref.update(X[n_fit:], y[n_fit:])
    mean_ref, std_ref = gp_ref.predict(Xs)
    assert np.array_equal(mean, mean_ref)
    assert np.array_equal(std, std_ref)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_refit_smaller_inside_big_buffer_leaves_no_stale_state(seed):
    """A big fit then a small fit must not leak old rows into updates."""
    rng = np.random.default_rng(seed)
    X_big = rng.random((30, 3))
    y_big = rng.random(30)
    gp = GaussianProcess(seed=0)
    gp.fit(X_big, y_big, optimize_hyperparams=False)
    X_small = rng.random((4, 3))
    y_small = rng.random(4)
    gp.fit(X_small, y_small, optimize_hyperparams=False)
    X_upd = rng.random((3, 3))
    y_upd = rng.random(3)
    gp.update(X_upd, y_upd)
    fresh = GaussianProcess(seed=0)
    fresh.fit(X_small, y_small, optimize_hyperparams=False)
    fresh.update(X_upd, y_upd)
    assert np.array_equal(gp._L, fresh._L)
    Xs = rng.random((6, 3))
    assert np.array_equal(gp.predict(Xs)[0], fresh.predict(Xs)[0])
    assert np.array_equal(gp.predict(Xs)[1], fresh.predict(Xs)[1])


def test_training_state_is_contiguous_and_owned():
    """Every solve reads ``_L`` as it is, so after ``fit`` and after each
    ``update`` it must be a C-contiguous matrix that owns its memory:
    scipy's triangular solves on a strided view differ in the last ulp.
    ``_X`` must not alias the caller's array either."""
    rng = np.random.default_rng(0)
    X = rng.random((3, 2))
    gp = GaussianProcess(seed=0)
    gp.fit(X, rng.random(3), optimize_hyperparams=False)
    assert not np.shares_memory(gp._X, X)
    for step in range(21):
        if step:
            gp.update(rng.random((1, 2)), rng.random(1))
        for state in (gp._L, gp._X, gp._y):
            assert state.flags.c_contiguous and state.flags.owndata
        assert gp._L.shape == (gp.n_observations, gp.n_observations)
    assert gp.n_observations == 23
