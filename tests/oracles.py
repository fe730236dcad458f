"""Reference implementations that the identity suites and perf benches
compare the shipped hot paths against.

Each is the code a fast path replaced, kept verbatim so "bit-identical"
has something to be identical to and the benches have a baseline to
time:

* :class:`RebuildBayesOptTuner` re-encodes the whole history on every
  ``suggest()`` (the shipped :class:`BayesOptTuner` keeps append-only
  buffers and a running incumbent).
* :func:`find_similar_workloads_scan` makes one full-log pass per
  workload key (the shipped lookup reads the signature index).
* :class:`UngroupedExecutor` runs an engine batch one ``run()`` per
  request (the shipped :class:`SerialExecutor` groups same-workload
  requests into ``run_batch`` calls).

Import from the repository root: ``from tests.oracles import ...``.
"""

from __future__ import annotations

import numpy as np

from repro.core.history import HistoryStore
from repro.core.similarity import SimilarWorkload, signature_distance
from repro.sparksim.simulator import SparkSimulator
from repro.tuning.bo.bayesopt import BayesOptTuner

__all__ = ["RebuildBayesOptTuner", "find_similar_workloads_scan",
           "UngroupedExecutor"]


class RebuildBayesOptTuner(BayesOptTuner):
    """:class:`BayesOptTuner` with its surrogate data rebuilt per call."""

    @property
    def best(self):
        return super(BayesOptTuner, self).best

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
        return self._training_data()

    def _incumbent_y(self) -> float:
        _, y = self._training_data()
        return float(y.min())


def find_similar_workloads_scan(store: HistoryStore, target_signature: np.ndarray,
                                k: int = 3, exclude: tuple[str, str] | None = None,
                                max_distance: float = np.inf) -> list[SimilarWorkload]:
    """Pre-index reference path: one full-log scan *per workload key*.

    O(workloads × records) per query — the behaviour the index replaced.
    Kept verbatim so the identity suite can assert the indexed path
    returns bit-identical neighbours and the ``similarity_lookup_1M``
    bench can measure the speedup against it.
    """
    records = store.all()
    keys = sorted({r.key for r in records})
    neighbours = []
    for tenant, label in keys:
        if exclude is not None and (tenant, label) == exclude:
            continue
        runs = [r for r in records if r.key == (tenant, label) and r.success]
        if not runs:
            continue
        mean_sig = np.mean([r.signature for r in runs], axis=0)
        d = signature_distance(target_signature, mean_sig)
        if d <= max_distance:
            neighbours.append(SimilarWorkload(tenant, label, d, mean_sig))
    neighbours.sort(key=lambda s: s.distance)
    return neighbours[:k]


class UngroupedExecutor:
    """An engine executor that answers each request with its own ``run()``."""

    def __init__(self, simulator: SparkSimulator):
        self.simulator = simulator

    def run_batch(self, requests) -> list:
        return [
            self.simulator.run(
                r.workload, r.input_mb, r.cluster, r.config,
                env=r.env, seed=r.seed,
            )
            for r in requests
        ]
