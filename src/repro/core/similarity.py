"""Workload similarity: distances, k-medoids clustering, neighbour lookup.

AROMA (Lama & Zhou, ICAC'12) clusters executed jobs by their resource
signatures with k-medoids and reuses per-cluster tuning knowledge; the
paper's challenge V.B asks for exactly this machinery as the basis for
cross-workload transfer.  Implemented from scratch (PAM-style build +
FastPAM-style vectorized swap).

Neighbour lookup is served by the incremental
:class:`~repro.core.simindex.SignatureIndex` — one (W, d) matrix op per
query instead of a full-log scan per workload key.  The pre-index scan
is the reference implementation, kept with the tests
(``tests/oracles.py``): the identity suite asserts both return
bit-identical neighbours, and the ``similarity_lookup_1M`` bench
measures the gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characterization import _FEATURE_SCALE, scaled
from .history import HistoryStore

__all__ = [
    "signature_distance",
    "KMedoids",
    "find_similar_workloads",
    "SimilarWorkload",
]


def signature_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between scaled characterization vectors.

    Spelled as ``sqrt(sum(diff²))`` rather than ``np.linalg.norm`` so the
    scalar path and the index's row-wise ``sum(diff², axis=1)`` reduce
    with the same pairwise summation — bit-identical, not merely close
    (norm's BLAS dot can differ in the last ulp).
    """
    diff = scaled(a) - scaled(b)
    return float(np.sqrt(np.sum(diff * diff)))


class KMedoids:
    """Partitioning Around Medoids for small/medium datasets."""

    def __init__(self, k: int, max_iter: int = 50, seed: int = 0):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.max_iter = max_iter
        self.rng = np.random.default_rng(seed)
        self.medoid_indices_: np.ndarray | None = None
        self.labels_: np.ndarray | None = None

    @staticmethod
    def _distance_matrix(X: np.ndarray) -> np.ndarray:
        diff = X[:, None, :] - X[None, :, :]
        return np.sqrt(np.sum(diff**2, axis=-1))

    def fit(self, X: np.ndarray) -> "KMedoids":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n = len(X)
        if n < self.k:
            raise ValueError(f"need at least k={self.k} points, got {n}")
        D = self._distance_matrix(X)

        # BUILD: greedy medoid selection minimizing total distance.
        medoids = [int(np.argmin(D.sum(axis=1)))]
        while len(medoids) < self.k:
            current = np.min(D[:, medoids], axis=1)
            gains = np.maximum(0.0, current[None, :] - D).sum(axis=1)
            gains[medoids] = -np.inf
            medoids.append(int(np.argmax(gains)))

        # SWAP, FastPAM-style: instead of re-scoring every (medoid,
        # candidate) pair with a fresh assignment pass (O(k²n²) per
        # sweep in Python), keep each point's nearest/second-nearest
        # medoid distances.  Removing medoid slot ``mi`` re-assigns its
        # points to their second choice (``base``); adding candidate
        # ``c`` caps every point at D[:, c] — so one broadcast minimum
        # scores all n candidates for a slot at once.  Best-improvement
        # descent: apply the single best swap per iteration.
        meds = np.array(medoids)
        point_idx = np.arange(n)
        for _ in range(self.max_iter):
            d_med = D[:, meds]
            if self.k == 1:
                nearest = np.zeros(n, dtype=np.intp)
                d1 = d_med[:, 0]
                d2 = np.full(n, np.inf)
            else:
                order = np.argpartition(d_med, 1, axis=1)
                nearest = order[:, 0]
                d1 = d_med[point_idx, nearest]
                d2 = d_med[point_idx, order[:, 1]]
            cost = float(d1.sum())
            totals = np.empty((self.k, n))
            for mi in range(self.k):
                base = np.where(nearest == mi, d2, d1)
                totals[mi] = np.minimum(base[:, None], D).sum(axis=0)
            totals[:, meds] = np.inf
            mi, candidate = np.unravel_index(np.argmin(totals), totals.shape)
            if totals[mi, candidate] + 1e-12 < cost:
                meds[mi] = candidate
            else:
                break

        self.medoid_indices_ = np.array(sorted(meds.tolist()))
        self.labels_ = np.argmin(D[:, self.medoid_indices_], axis=1)
        return self

    def predict(self, X: np.ndarray, medoid_points: np.ndarray) -> np.ndarray:
        """Assign new points to the nearest of ``medoid_points``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        d = np.linalg.norm(X[:, None, :] - medoid_points[None, :, :], axis=-1)
        return np.argmin(d, axis=1)


@dataclass(frozen=True)
class SimilarWorkload:
    """A neighbour in signature space, with provenance."""

    tenant: str
    workload_label: str
    distance: float
    signature: np.ndarray


def find_similar_workloads(store: HistoryStore, target_signature: np.ndarray,
                           k: int = 3, exclude: tuple[str, str] | None = None,
                           max_distance: float = np.inf) -> list[SimilarWorkload]:
    """Nearest workloads in the provider history by mean signature.

    ``max_distance`` implements the negative-transfer guard the paper
    warns about (citing Ge et al.): workloads beyond the radius are not
    considered similar at all.

    Served by the store's shared :class:`~repro.core.simindex.SignatureIndex`:
    one vectorized (W, d) distance computation over cached per-workload
    means, bit-identical to the pre-index full-log scan.
    """
    hits = store.index().find_similar(
        scaled(target_signature), _FEATURE_SCALE, k, exclude, max_distance,
    )
    return [
        SimilarWorkload(tenant, label, distance, mean_sig)
        for (tenant, label), distance, mean_sig in hits
    ]

