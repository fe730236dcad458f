"""Tests for the from-scratch Gaussian process and kernels."""

import numpy as np
import pytest

from repro.tuning.bo import AdditiveKernel, GaussianProcess, Matern52, RBF
from repro.tuning.bo.acquisition import (
    expected_improvement,
    lower_confidence_bound,
    probability_of_improvement,
)


class TestKernels:
    @pytest.mark.parametrize("kernel", [RBF(), Matern52()])
    def test_psd_and_symmetric(self, kernel, rng):
        X = rng.random((20, 3))
        K = kernel(X, X, kernel.default_theta())
        assert np.allclose(K, K.T)
        eig = np.linalg.eigvalsh(K)
        assert eig.min() > -1e-8

    @pytest.mark.parametrize("kernel", [RBF(), Matern52()])
    def test_diagonal_is_variance(self, kernel, rng):
        X = rng.random((5, 2))
        theta = kernel.default_theta()
        assert np.allclose(kernel.diag(X, theta), np.diag(kernel(X, X, theta)))

    def test_correlation_decays_with_distance(self):
        k = Matern52()
        theta = k.default_theta()
        near = k(np.array([[0.0]]), np.array([[0.1]]), theta)[0, 0]
        far = k(np.array([[0.0]]), np.array([[0.9]]), theta)[0, 0]
        assert near > far

    def test_additive_kernel_sums_groups(self, rng):
        k = AdditiveKernel(dim=3)
        X = rng.random((8, 3))
        theta = k.default_theta()
        total = k(X, X, theta)
        parts = sum(k.component(g, X, X, theta) for g in range(3))
        assert np.allclose(total, parts)

    def test_additive_kernel_validates_groups(self):
        with pytest.raises(ValueError):
            AdditiveKernel(dim=2, groups=[[0], [0]])
        with pytest.raises(ValueError):
            AdditiveKernel(dim=2, groups=[[0], [5]])

    def test_additive_group_variances(self):
        k = AdditiveKernel(dim=2)
        theta = np.array([0.0, np.log(3.0), 0.0, np.log(1.0)])
        assert np.allclose(k.group_variances(theta), [3.0, 1.0])


class TestGaussianProcess:
    def test_interpolates_noise_free_data(self, rng):
        X = rng.random((15, 2))
        y = np.sin(3 * X[:, 0]) + X[:, 1]
        gp = GaussianProcess(noise=1e-5).fit(X, y)
        mean, std = gp.predict(X)
        assert np.allclose(mean, y, atol=0.05)

    def test_uncertainty_grows_away_from_data(self, rng):
        X = rng.random((10, 1)) * 0.4  # data only in [0, 0.4]
        y = X[:, 0] ** 2
        gp = GaussianProcess().fit(X, y)
        _, std_near = gp.predict(np.array([[0.2]]))
        _, std_far = gp.predict(np.array([[0.95]]))
        assert std_far[0] > std_near[0]

    def test_learns_reasonable_fit(self, rng):
        X = rng.random((40, 2))
        y = 5 * (X[:, 0] - 0.5) ** 2 + 0.1 * rng.normal(size=40)
        gp = GaussianProcess(seed=1).fit(X, y)
        Xt = rng.random((20, 2))
        yt = 5 * (Xt[:, 0] - 0.5) ** 2
        mean, _ = gp.predict(Xt)
        rmse = np.sqrt(np.mean((mean - yt) ** 2))
        assert rmse < 0.3

    def test_handles_single_point(self):
        gp = GaussianProcess().fit(np.array([[0.5]]), np.array([2.0]))
        mean, std = gp.predict(np.array([[0.5]]))
        assert mean[0] == pytest.approx(2.0, abs=0.3)

    def test_handles_constant_targets(self, rng):
        X = rng.random((10, 2))
        gp = GaussianProcess().fit(X, np.full(10, 3.0))
        mean, _ = gp.predict(X[:3])
        assert np.allclose(mean, 3.0, atol=1e-6)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            GaussianProcess().fit(np.zeros((3, 2)), np.zeros(4))

    def test_predict_before_fit_raises(self):
        with pytest.raises(ValueError):
            GaussianProcess().predict(np.zeros((1, 2)))

    def test_log_marginal_likelihood_finite(self, rng):
        X = rng.random((12, 2))
        y = rng.normal(size=12)
        gp = GaussianProcess().fit(X, y)
        assert np.isfinite(gp.log_marginal_likelihood())

    def test_duplicate_points_no_crash(self):
        X = np.array([[0.5, 0.5]] * 6)
        y = np.array([1.0, 1.1, 0.9, 1.0, 1.05, 0.95])
        gp = GaussianProcess().fit(X, y)
        mean, _ = gp.predict(X[:1])
        assert mean[0] == pytest.approx(1.0, abs=0.2)


class TestAcquisitions:
    def test_ei_zero_when_hopeless(self):
        ei = expected_improvement(np.array([10.0]), np.array([1e-9]), best=1.0)
        assert ei[0] == pytest.approx(0.0, abs=1e-6)

    def test_ei_positive_when_promising(self):
        ei = expected_improvement(np.array([0.5]), np.array([0.1]), best=1.0)
        assert ei[0] > 0.4

    def test_ei_rewards_uncertainty(self):
        low = expected_improvement(np.array([1.0]), np.array([0.01]), best=1.0)
        high = expected_improvement(np.array([1.0]), np.array([1.0]), best=1.0)
        assert high[0] > low[0]

    def test_pi_bounded(self):
        pi = probability_of_improvement(np.array([0.5, 2.0]), np.array([0.3, 0.3]), 1.0)
        assert ((pi >= 0) & (pi <= 1)).all()

    def test_ei_and_pi_match_scipy_stats_bitwise(self):
        """EI and PI compute the normal CDF and PDF without importing
        ``scipy.stats``; the old ``stats.norm`` formulas are the oracle,
        bit for bit, over random z, |z| up to 40, +-0 and +-inf."""
        from scipy import stats

        def reference(mean, std, best, xi):
            std = np.maximum(np.asarray(std, dtype=float), 1e-12)
            improvement = best - np.asarray(mean, dtype=float) - xi
            z = improvement / std
            return (improvement * stats.norm.cdf(z)
                    + std * stats.norm.pdf(z)), stats.norm.cdf(z)

        def bits(a):
            return np.asarray(a, dtype=float).view(np.int64)

        rng = np.random.default_rng(25)
        z = np.concatenate([
            rng.standard_normal(20_000) * 4.0,
            rng.uniform(-40.0, 40.0, 20_000),
            [0.0, -0.0, 40.0, -40.0, 38.0, -38.0, 8.3, -8.3, 1e-300,
             -1e-300, np.inf, -np.inf],
        ])
        cases = [(-z, np.ones_like(z), best, 0.0) for best in (0.0, -0.0)]
        cases.append((rng.normal(0.0, 3.0, 5_000),
                      np.abs(rng.normal(0.0, 2.0, 5_000)), 0.7, 0.01))
        with np.errstate(invalid="ignore"):
            for mean, std, best, xi in cases:
                want_ei, want_pi = reference(mean, std, best, xi)
                got_ei = expected_improvement(mean, std, best, xi)
                got_pi = probability_of_improvement(mean, std, best, xi)
                np.testing.assert_array_equal(bits(got_ei), bits(want_ei))
                np.testing.assert_array_equal(bits(got_pi), bits(want_pi))

    def test_lcb_kappa_zero_is_mean(self):
        m = np.array([1.0, 2.0])
        assert np.allclose(lower_confidence_bound(m, np.ones(2), kappa=0.0), m)

    def test_lcb_rejects_negative_kappa(self):
        with pytest.raises(ValueError):
            lower_confidence_bound(np.ones(1), np.ones(1), kappa=-1)


class TestIncrementalUpdate:
    """`update()` must match an exact refactorization at frozen theta."""

    def _posterior_reference(self, gp, X_all, y_all, X_query):
        # Exact GP posterior at the incremental model's frozen
        # hyperparameters and y-normalization constants.
        theta = gp.theta
        noise = np.exp(theta[-1]) + 1e-10
        yn = (y_all - gp._y_mean) / gp._y_std
        K = gp.kernel(X_all, X_all, theta[:-1])
        K[np.diag_indices_from(K)] += noise
        L = np.linalg.cholesky(K)
        alpha = np.linalg.solve(K, yn)
        Ks = gp.kernel(X_query, X_all, theta[:-1])
        mean = Ks @ alpha
        v = np.linalg.solve(L, Ks.T)
        var = np.maximum(gp.kernel.diag(X_query, theta[:-1]) - (v**2).sum(0), 1e-12)
        return mean * gp._y_std + gp._y_mean, np.sqrt(var) * gp._y_std

    def test_update_matches_full_refactorization(self, rng):
        def f(X):
            return np.sin(3 * X[:, 0]) + X[:, 1] ** 2

        X0, X1 = rng.random((12, 2)), rng.random((7, 2))
        y0, y1 = f(X0), f(X1)
        gp = GaussianProcess(kernel=Matern52(), seed=0).fit(X0, y0)
        gp.update(X1, y1)
        assert gp.n_observations == 19

        Xq = rng.random((25, 2))
        mean, std = gp.predict(Xq)
        ref_mean, ref_std = self._posterior_reference(
            gp, np.vstack([X0, X1]), np.append(y0, y1), Xq
        )
        assert np.allclose(mean, ref_mean, atol=1e-8)
        assert np.allclose(std, ref_std, atol=1e-6)

    def test_update_one_at_a_time_matches_batch_update(self, rng):
        X0 = rng.random((10, 2))
        y0 = X0.sum(axis=1)
        X1 = rng.random((5, 2))
        y1 = X1.sum(axis=1)
        a = GaussianProcess(kernel=RBF(), seed=1).fit(X0, y0).update(X1, y1)
        b = GaussianProcess(kernel=RBF(), seed=1).fit(X0, y0)
        for x, yv in zip(X1, y1):
            b.update(x[None, :], [yv])
        Xq = rng.random((8, 2))
        for (ma, sa), (mb, sb) in [(a.predict(Xq), b.predict(Xq))]:
            assert np.allclose(ma, mb) and np.allclose(sa, sb)

    def test_update_requires_fit(self):
        with pytest.raises(ValueError):
            GaussianProcess().update(np.zeros((1, 2)), [0.0])

    def test_update_rejects_length_mismatch(self, rng):
        gp = GaussianProcess().fit(rng.random((4, 2)), rng.random(4))
        with pytest.raises(ValueError):
            gp.update(rng.random((2, 2)), [1.0])
