"""Gaussian-process regression, built from scratch on numpy/scipy.

Supports marginal-likelihood hyperparameter fitting with multi-start
L-BFGS, Cholesky-based prediction with adaptive jitter, and y
normalization — everything CherryPick's performance model needs.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize
from scipy.linalg import solve_triangular as _solve_triangular

from .kernels import Kernel, Matern52

__all__ = ["GaussianProcess"]


def solve_triangular(*args, **kwargs):
    """scipy's triangular solve without the finite-entry pre-scan.

    Every operand here is produced by our own kernel/Cholesky math from
    already-validated training data, so the O(n²) ``asarray_chkfinite``
    pass scipy runs by default is pure overhead on the hot suggest path
    (~10% of a rank-1 update + predict cycle).  Skipping it does not
    change the computation — same LAPACK routine, same operand layout,
    bit-identical results (asserted by the GP identity suite against
    the checked reference).
    """
    kwargs.setdefault("check_finite", False)
    return _solve_triangular(*args, **kwargs)


class GaussianProcess:
    """GP regressor with a learnable noise level.

    The noise variance is appended to the kernel hyperparameters in log
    space, so it is fitted jointly — important for cloud measurements
    where run-to-run variance is substantial (paper Section IV.B).
    """

    def __init__(self, kernel: Kernel | None = None, noise: float = 1e-2,
                 normalize_y: bool = True, n_restarts: int = 3, seed: int = 0):
        self.kernel = kernel or Matern52()
        self.initial_noise = noise
        self.normalize_y = normalize_y
        self.n_restarts = n_restarts
        self.rng = np.random.default_rng(seed)
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._theta: np.ndarray | None = None
        self._L: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0

    @property
    def theta(self) -> np.ndarray:
        if self._theta is None:
            raise ValueError("model is not fitted")
        return self._theta

    @property
    def noise(self) -> float:
        return float(np.exp(self.theta[-1]))

    def _chol(self, X: np.ndarray, theta: np.ndarray) -> np.ndarray:
        K = self.kernel(X, X, theta[:-1])
        K[np.diag_indices_from(K)] += np.exp(theta[-1]) + 1e-10
        jitter = 1e-10
        for _ in range(6):
            try:
                return np.linalg.cholesky(K)
            except np.linalg.LinAlgError:
                K[np.diag_indices_from(K)] += jitter
                jitter *= 10
        raise np.linalg.LinAlgError("kernel matrix is not positive definite")

    def _nll(self, theta: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
        try:
            L = self._chol(X, theta)
        except np.linalg.LinAlgError:
            return 1e10
        alpha = solve_triangular(L.T, solve_triangular(L, y, lower=True), lower=False)
        nll = (
            0.5 * y @ alpha
            + np.sum(np.log(np.diag(L)))
            + 0.5 * len(y) * np.log(2 * np.pi)
        )
        return float(nll) if np.isfinite(nll) else 1e10

    def fit(self, X: np.ndarray, y: np.ndarray, optimize_hyperparams: bool = True) -> "GaussianProcess":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if len(X) != len(y):
            raise ValueError("X and y lengths differ")
        if len(y) < 1:
            raise ValueError("need at least one observation")
        if self.normalize_y:
            self._y_mean = float(y.mean())
            self._y_std = float(y.std()) or 1.0
        else:
            self._y_mean, self._y_std = 0.0, 1.0
        yn = (y - self._y_mean) / self._y_std

        bounds = self.kernel.bounds() + [(np.log(1e-6), np.log(1.0))]
        theta0 = np.append(self.kernel.default_theta(), np.log(self.initial_noise))
        best_theta, best_nll = theta0, self._nll(theta0, X, yn)
        if optimize_hyperparams and len(y) >= 3:
            starts = [theta0]
            for _ in range(self.n_restarts):
                lo = np.array([b[0] for b in bounds])
                hi = np.array([b[1] for b in bounds])
                starts.append(lo + self.rng.random(len(bounds)) * (hi - lo))
            for start in starts:
                res = optimize.minimize(
                    self._nll, start, args=(X, yn), method="L-BFGS-B",
                    bounds=bounds, options={"maxiter": 80},
                )
                if res.fun < best_nll:
                    best_nll, best_theta = float(res.fun), res.x
        self._theta = best_theta
        L = self._chol(X, best_theta)
        # Own copies of the training state: update() grows them.
        self._X, self._y, self._L = np.array(X, order="C"), yn, L
        self._alpha = solve_triangular(
            L.T, solve_triangular(L, yn, lower=True), lower=False
        )
        return self

    @property
    def n_observations(self) -> int:
        return 0 if self._X is None else len(self._X)

    def update(self, X_new: np.ndarray, y_new: np.ndarray) -> "GaussianProcess":
        """Append observations with a rank-1 Cholesky extension.

        Each appended point costs O(n²) (two triangular solves) instead
        of the O(n³) full refactorization :meth:`fit` performs — the
        difference between refitting a tuning surrogate once per
        observation and once per batch.  Hyperparameters and the y
        normalization constants stay frozen at their last :meth:`fit`
        values; call :meth:`fit` periodically to re-optimize them.
        """
        if self._X is None:
            raise ValueError("model is not fitted; call fit() before update()")
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        y_new = np.asarray(y_new, dtype=float).ravel()
        if len(X_new) != len(y_new):
            raise ValueError("X_new and y_new lengths differ")
        if len(y_new) == 0:
            return self
        theta = self._theta
        noise = np.exp(theta[-1]) + 1e-10
        for x, yv in zip(X_new, y_new):
            yn = (yv - self._y_mean) / self._y_std
            k_vec = self.kernel(x[None, :], self._X, theta[:-1]).ravel()
            b = solve_triangular(self._L, k_vec, lower=True)
            d = float(self.kernel.diag(x[None, :], theta[:-1])[0] + noise - b @ b)
            n = len(self._X)
            L = np.zeros((n + 1, n + 1))
            L[:n, :n] = self._L
            L[n, :n] = b
            # Numerical floor mirrors the jitter the full factorization uses.
            L[n, n] = np.sqrt(max(d, 1e-10))
            self._L = L
            self._X = np.vstack([self._X, x[None, :]])
            self._y = np.append(self._y, yn)
        self._alpha = solve_triangular(
            self._L.T, solve_triangular(self._L, self._y, lower=True),
            lower=False,
        )
        return self

    def predict(self, Xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at ``Xs`` (original y scale)."""
        if self._X is None:
            raise ValueError("model is not fitted")
        Xs = np.atleast_2d(np.asarray(Xs, dtype=float))
        Ks = self.kernel(Xs, self._X, self._theta[:-1])
        mean = Ks @ self._alpha
        v = solve_triangular(self._L, Ks.T, lower=True)
        var = self.kernel.diag(Xs, self._theta[:-1]) - np.sum(v**2, axis=0)
        var = np.maximum(var, 1e-12)
        return (
            mean * self._y_std + self._y_mean,
            np.sqrt(var) * self._y_std,
        )

    def log_marginal_likelihood(self) -> float:
        if self._X is None:
            raise ValueError("model is not fitted")
        return -self._nll(self._theta, self._X, self._y)
