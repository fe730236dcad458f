"""Bayesian-optimization tuner — the CherryPick strategy.

CherryPick (Alipourfard et al., NSDI'17) finds near-optimal cloud
configurations with a GP performance model, EI acquisition, and a
stop-when-EI-small rule, needing an order of magnitude fewer executions
than search-based approaches.  This tuner implements the same loop over
any :class:`~repro.config.space.ConfigurationSpace` (cloud, DISC, or
joint), with costs modelled in log space (runtimes are positive and
heavy-tailed).

Surrogate state is **incremental**: every observation is encoded once,
on arrival, into an append-only design matrix (grown by capacity
doubling), the log-cost transform is applied per point, and the model
incumbent (the EI baseline) is tracked as a running minimum.  A
``suggest()`` call therefore never re-encodes the history — the
rebuild-from-scratch path (``incremental=False``) is kept as the
reference implementation the identity suite and the
``suggest_throughput`` bench compare against.
"""

from __future__ import annotations

import numpy as np

from ...config.space import Configuration, ConfigurationSpace
from ..base import Observation, Tuner
from .acquisition import expected_improvement, lower_confidence_bound
from .gp import GaussianProcess
from .kernels import Kernel, Matern52

__all__ = ["BayesOptTuner"]


class BayesOptTuner(Tuner):
    """GP + EI Bayesian optimization.

    Parameters
    ----------
    n_init:
        Latin-hypercube warm-up evaluations before the model kicks in.
    acquisition:
        ``"ei"`` (default, CherryPick) or ``"lcb"``.
    log_costs:
        Model ``log(cost)`` instead of cost; robust to the orders-of-
        magnitude spread misconfigurations produce.
    refit_every:
        Re-optimize GP hyperparameters every this many new observations.
        Between refits, new points enter the model through an O(n²)
        rank-1 Cholesky update instead of an O(n³) refactorization.
    warm_start:
        Optional list of ``(config, cost)`` pairs injected into the model
        before any suggestion — the transfer-learning hook used by the
        provider-side service (paper challenge V.B).
    incremental:
        Keep the encoded design matrix and transformed costs in
        append-only buffers maintained at ``observe()`` time (default).
        ``False`` restores the per-``suggest`` rebuild — bit-identical
        by the identity suite, kept as reference and bench baseline.
    """

    def __init__(self, space: ConfigurationSpace, seed: int = 0,
                 n_init: int = 8, acquisition: str = "ei",
                 kernel: Kernel | None = None,
                 n_candidates: int = 512, log_costs: bool = True,
                 refit_every: int = 4,
                 warm_start: list[tuple[Configuration, float]] | None = None,
                 incremental: bool = True):
        super().__init__(space, seed)
        if acquisition not in ("ei", "lcb"):
            raise ValueError("acquisition must be 'ei' or 'lcb'")
        if n_init < 2:
            raise ValueError("n_init must be >= 2")
        self.n_init = n_init
        self.acquisition = acquisition
        self.n_candidates = n_candidates
        self.log_costs = log_costs
        self.refit_every = max(1, refit_every)
        self.incremental = incremental
        self._init_points = space.latin_hypercube(n_init, self.rng)
        self._gp = GaussianProcess(kernel=kernel or Matern52(), seed=seed)
        self._fitted_at = 0
        self._gp_rows = 0               # observations currently inside the GP
        self._warm: list[tuple[Configuration, float]] = list(warm_start or [])
        self.last_max_ei: float | None = None
        # --- incremental surrogate state ----------------------------------
        # Append-only encoded design matrix + transformed costs, grown by
        # capacity doubling; the running minimum of the transformed costs
        # is EI's incumbent, and the best raw observation backs ``best``.
        self._n_pairs = 0
        self._X_buf = np.zeros((0, space.dimension))
        self._y_buf = np.zeros(0)
        self._y_model_min = np.inf
        self._best_obs: Observation | None = None
        for config, cost in self._warm:
            self._append_pair(config, cost)

    # --- data assembly -----------------------------------------------------
    def _transform_cost(self, cost: float) -> float:
        return float(np.log(np.maximum(cost, 1e-9))) if self.log_costs \
            else float(cost)

    def _append_pair(self, config: Configuration, cost: float) -> None:
        """Encode one (config, cost) pair into the append-only buffers."""
        n = self._n_pairs
        if n >= len(self._X_buf):
            cap = max(16, 2 * len(self._X_buf))
            X_buf = np.zeros((cap, self.space.dimension))
            y_buf = np.zeros(cap)
            X_buf[:n] = self._X_buf[:n]
            y_buf[:n] = self._y_buf[:n]
            self._X_buf, self._y_buf = X_buf, y_buf
        self._X_buf[n] = self.space.encode(config)
        y = self._transform_cost(cost)
        self._y_buf[n] = y
        self._n_pairs = n + 1
        if y < self._y_model_min:
            self._y_model_min = y

    def observe(self, config: Configuration, cost: float,
                succeeded: bool = True) -> Observation:
        obs = super().observe(config, cost, succeeded=succeeded)
        self._append_pair(obs.config, obs.cost)
        # min() keeps the first of equal costs, so only a strictly
        # better observation replaces the incumbent.
        if self._best_obs is None or obs.cost < self._best_obs.cost:
            self._best_obs = obs
        return obs

    @property
    def best(self) -> Observation | None:
        if self.incremental:
            return self._best_obs
        return super().best

    def _training_data(self):
        """Rebuild the design matrix from scratch (reference path).

        The incremental buffers must stay bit-identical to this — the
        hypothesis identity suite drives both and compares.
        """
        pairs = self._warm + [(o.config, o.cost) for o in self.history]
        X = np.array([self.space.encode(c) for c, _ in pairs])
        y = np.array([cost for _, cost in pairs], dtype=float)
        if self.log_costs:
            y = np.log(np.maximum(y, 1e-9))
        return X, y

    def _model_data(self):
        if self.incremental:
            return self._X_buf[:self._n_pairs], self._y_buf[:self._n_pairs]
        return self._training_data()

    def _refit(self) -> None:
        X, y = self._model_data()
        n = len(y)
        optimize = (n - self._fitted_at) >= self.refit_every or self._fitted_at == 0
        if optimize or self._gp_rows == 0 or self._gp_rows > n:
            # Full (re)fit: refactorize and, on schedule, re-optimize
            # hyperparameters.
            self._gp.fit(X, y, optimize_hyperparams=optimize)
            if optimize:
                self._fitted_at = n
        elif self._gp_rows < n:
            # Between refits, fold new observations in with a rank-1
            # Cholesky update (training pairs are append-only).
            self._gp.update(X[self._gp_rows:], y[self._gp_rows:])
        self._gp_rows = n

    def _candidates(self) -> np.ndarray:
        cands = [self.rng.random((self.n_candidates, self.space.dimension))]
        best = self.best
        if best is not None:
            # Local refinement around the incumbent.
            center = self.space.encode(best.config)
            local = center + self.rng.normal(0.0, 0.08, (self.n_candidates // 2, self.space.dimension))
            cands.append(np.clip(local, 0.0, 1.0))
        return np.vstack(cands)

    def _incumbent_y(self) -> float:
        """EI's baseline: the minimum of the model-space costs.

        Tracked incrementally; the rebuild path recomputes it from the
        full design so both modes answer bit-identically.
        """
        if self.incremental:
            return float(self._y_model_min)
        _, y = self._training_data()
        return float(y.min())

    # --- Tuner interface -----------------------------------------------------
    def suggest(self) -> Configuration:
        n_observed = len(self.history) + len(self._warm)
        if len(self.history) < len(self._init_points) and n_observed < max(
            self.n_init, 3
        ):
            return self._init_points[len(self.history)]
        self._refit()
        X = self._candidates()
        mean, std = self._gp.predict(X)
        if self.acquisition == "ei":
            score = expected_improvement(mean, std, best=self._incumbent_y())
            self.last_max_ei = float(score.max())
            idx = int(np.argmax(score))
        else:
            score = lower_confidence_bound(mean, std)
            idx = int(np.argmin(score))
        return self.space.decode(X[idx])

    def should_stop(self, ei_fraction: float = 0.1) -> bool:
        """CherryPick's stopping rule: max EI below a fraction of the incumbent.

        Only meaningful once the model is active (after the initial design).
        """
        if self.last_max_ei is None or self.best is None:
            return False
        incumbent = (
            np.log(max(self.best.cost, 1e-9)) if self.log_costs else self.best.cost
        )
        return self.last_max_ei < ei_fraction * abs(incumbent)
