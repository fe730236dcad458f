"""Acquisition functions for Bayesian optimization (minimization form).

The standard normal CDF and PDF are the expressions ``scipy.stats.norm``
evaluates (its ``_norm_cdf`` and ``_norm_pdf``), so EI and PI are
bit-identical to it without importing ``scipy.stats`` into the service:
``scipy.special`` is already loaded through ``scipy.optimize``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

__all__ = ["expected_improvement", "probability_of_improvement", "lower_confidence_bound"]

_SQRT_2PI = np.sqrt(2 * np.pi)


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-z**2/2.0) / _SQRT_2PI


def expected_improvement(mean: np.ndarray, std: np.ndarray, best: float,
                         xi: float = 0.0) -> np.ndarray:
    """EI for minimization: E[max(best - f - xi, 0)].

    CherryPick's acquisition; its stopping rule fires when the maximum EI
    falls below 10% of the incumbent.
    """
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    improvement = best - np.asarray(mean, dtype=float) - xi
    z = improvement / std
    return improvement * ndtr(z) + std * _norm_pdf(z)


def probability_of_improvement(mean: np.ndarray, std: np.ndarray, best: float,
                               xi: float = 0.0) -> np.ndarray:
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    z = (best - np.asarray(mean, dtype=float) - xi) / std
    return ndtr(z)


def lower_confidence_bound(mean: np.ndarray, std: np.ndarray,
                           kappa: float = 2.0) -> np.ndarray:
    """LCB (to be *minimized*): mean - kappa * std."""
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    return np.asarray(mean, dtype=float) - kappa * np.asarray(std, dtype=float)
