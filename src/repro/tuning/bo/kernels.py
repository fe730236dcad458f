"""Covariance kernels for Gaussian-process surrogates.

Hyperparameters are handled in log space (``theta = log(params)``) so the
marginal-likelihood optimizer works unconstrained-ish within bounds.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["Kernel", "RBF", "Matern52", "AdditiveKernel"]


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared euclidean distances, clipped at zero."""
    aa = np.sum(a**2, axis=1)[:, None]
    bb = np.sum(b**2, axis=1)[None, :]
    return np.maximum(0.0, aa + bb - 2.0 * (a @ b.T))


class Kernel(ABC):
    """A covariance function with ``n_params`` log-space hyperparameters."""

    @property
    @abstractmethod
    def n_params(self) -> int: ...

    @abstractmethod
    def bounds(self) -> list[tuple[float, float]]:
        """Log-space box bounds per hyperparameter."""

    @abstractmethod
    def default_theta(self) -> np.ndarray: ...

    @abstractmethod
    def __call__(self, a: np.ndarray, b: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Covariance matrix K(a, b) under hyperparameters ``theta``."""

    def diag(self, a: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return np.diag(self(a, a, theta))


class RBF(Kernel):
    """Squared-exponential kernel: theta = [log lengthscale, log variance]."""

    @property
    def n_params(self) -> int:
        return 2

    def bounds(self):
        return [(np.log(0.01), np.log(10.0)), (np.log(1e-3), np.log(1e3))]

    def default_theta(self) -> np.ndarray:
        return np.array([np.log(0.3), np.log(1.0)])

    def __call__(self, a, b, theta):
        ls, var = np.exp(theta[0]), np.exp(theta[1])
        return var * np.exp(-0.5 * _sqdist(a / ls, b / ls))

    def diag(self, a, theta):
        return np.full(len(a), np.exp(theta[1]))


class Matern52(Kernel):
    """Matern-5/2 — CherryPick's kernel choice (rougher than RBF).

    theta = [log lengthscale, log variance].
    """

    @property
    def n_params(self) -> int:
        return 2

    def bounds(self):
        return [(np.log(0.01), np.log(10.0)), (np.log(1e-3), np.log(1e3))]

    def default_theta(self) -> np.ndarray:
        return np.array([np.log(0.3), np.log(1.0)])

    def __call__(self, a, b, theta):
        ls, var = np.exp(theta[0]), np.exp(theta[1])
        r = np.sqrt(_sqdist(a / ls, b / ls))
        s5 = np.sqrt(5.0) * r
        return var * (1.0 + s5 + s5**2 / 3.0) * np.exp(-s5)

    def diag(self, a, theta):
        return np.full(len(a), np.exp(theta[1]))


class AdditiveKernel(Kernel):
    """First-order additive kernel (Duvenaud et al., NeurIPS'11).

    ``k(x, x') = sum_g var_g * rbf(x_g, x'_g; ls_g)`` over disjoint feature
    groups (default: one group per dimension).  The fitted per-group
    variances decompose the model into low-dimensional functions, giving
    the interpretability the paper's challenge V.A asks for.
    """

    def __init__(self, dim: int, groups: list[list[int]] | None = None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.groups = groups if groups is not None else [[i] for i in range(dim)]
        flat = [i for g in self.groups for i in g]
        if sorted(flat) != sorted(set(flat)) or max(flat, default=0) >= dim:
            raise ValueError("groups must contain unique in-range indices")

    @property
    def n_params(self) -> int:
        return 2 * len(self.groups)  # per group: log lengthscale, log variance

    def bounds(self):
        return [(np.log(0.01), np.log(10.0)), (np.log(1e-4), np.log(1e3))] * len(self.groups)

    def default_theta(self) -> np.ndarray:
        return np.tile([np.log(0.3), np.log(1.0 / len(self.groups))], len(self.groups))

    def __call__(self, a, b, theta):
        out = np.zeros((len(a), len(b)))
        for gi, group in enumerate(self.groups):
            ls = np.exp(theta[2 * gi])
            var = np.exp(theta[2 * gi + 1])
            ag, bg = a[:, group], b[:, group]
            out += var * np.exp(-0.5 * _sqdist(ag / ls, bg / ls))
        return out

    def group_variances(self, theta: np.ndarray) -> np.ndarray:
        """Fitted signal variance per group — the importance decomposition."""
        return np.exp(theta[1::2])

    def component(self, gi: int, a, b, theta) -> np.ndarray:
        """Covariance contribution of group ``gi`` alone."""
        group = self.groups[gi]
        ls = np.exp(theta[2 * gi])
        var = np.exp(theta[2 * gi + 1])
        return var * np.exp(-0.5 * _sqdist(a[:, group] / ls, b[:, group] / ls))
