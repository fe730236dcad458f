"""Fingerprint-sharded worker pool for tuning sessions.

One evaluation engine's memoization cache only amortizes tuning cost
(paper principle 3) for candidates *it* has seen.  The service layer
therefore shards tuning sessions by **workload fingerprint**: tenants
running similar workloads land on the same shard, whose engine cache,
compiled-plan cache and warm models answer their repeated candidates —
while unrelated workloads spread across shards.

Fingerprints come in two strengths:

* Before any execution exists, :func:`workload_fingerprint` hashes the
  observable submission facts — workload name and the input-size decade
  — which is what a provider knows at submit time.
* Once the tenant has history, the caller can pass the workload's mean
  characterization *signature* (quantized, so near-identical workloads
  collide on purpose) for content-based placement that survives tenants
  naming the same workload differently.

Shards are units of placement and state, not of execution: each owns
a full :class:`~repro.core.service.TuningService` (its own engine, warm
caches and ledger), and all share one append-only history log, so
transfer and billing stay global while model warmth stays shard-local.
**One runner thread** drains one job queue in dispatch order, returning
results through :class:`concurrent.futures.Future`.  A thread per shard
bought no parallelism: numpy's ``Generator`` releases the interpreter
lock on every array draw, so simulating shard threads convoyed on it
(on a 2-vCPU VM, 3,200 ingest batches kept two shard threads busy 16.7 s
for 12.2 s of CPU, one runner 8.5 s for 8.1 s).  A job that blocks
holds the runner, and every service engine evaluates its batches
in-process, on that runner.

The runner owns every shard's service state (services, engines, the
shared log and its index, ledgers, profilers), which therefore takes no
locks.  Ownership passes only where the pool already synchronises: the
queue's ``put``/``get`` hands set-up done before the first job to the
runner, a :class:`~concurrent.futures.Future` hands each result back,
and :meth:`ShardPool.close` joining the runner hands everything back to
the closing thread.
"""

from __future__ import annotations

import hashlib
import queue
import threading
from collections import Counter
from concurrent.futures import Future
from typing import Callable

import numpy as np

from ..service import TuningService

__all__ = ["workload_fingerprint", "shard_index", "ShardPool"]


def workload_fingerprint(workload: object, input_mb: float,
                         signature: np.ndarray | None = None) -> str:
    """Stable hex fingerprint of a submission's workload identity.

    With a characterization ``signature`` (a returning tenant), the
    fingerprint is content-based: the signature is quantized to one
    decimal per feature so measurement noise and tiny variants still
    collide onto the same shard.  Without one (first contact), it falls
    back to the submission facts: workload name + input-size decade.
    """
    if signature is not None:
        sig = np.asarray(signature, dtype=float)
        payload = "sig:" + ",".join(f"{x:.1f}" for x in sig)
    else:
        name = getattr(workload, "name", type(workload).__name__)
        decade = int(np.floor(np.log10(max(1.0, float(input_mb)))))
        payload = f"sub:{name}:{decade}"
    return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


def shard_index(fingerprint: str, n_shards: int) -> int:
    """Map a fingerprint onto one of ``n_shards`` shards."""
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    return int(fingerprint, 16) % n_shards


class _Shard:
    """One placement unit: a TuningService and its completed-job count."""

    def __init__(self, index: int, service: TuningService):
        self.index = index
        self.service = service
        self.n_jobs = 0


class ShardPool:
    """Fingerprint-addressed pool of tuning shards on one runner thread.

    ``service_factory(shard_index)`` builds each shard's
    :class:`~repro.core.service.TuningService`; give every factory call
    the same ``store=``/``ledger=`` to share history and billing across
    shards while engines stay shard-local.  Jobs run one at a time, in
    submission order, whatever their shard.  :meth:`submit` is the
    hand-off: it runs on the caller's thread, the job on the runner.
    """

    def __init__(self, n_shards: int,
                 service_factory: Callable[[int], TuningService]):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self._shards = [_Shard(i, service_factory(i)) for i in range(n_shards)]
        self.jobs_by_fingerprint: Counter[str] = Counter()
        self._jobs: queue.Queue = queue.Queue()
        self._closed = False
        self._runner = threading.Thread(target=self._run, daemon=True,
                                        name="tuning-shards")
        self._runner.start()

    def _run(self) -> None:
        while True:
            item = self._jobs.get()
            if item is None:
                break
            shard, job, future = item
            if not future.set_running_or_notify_cancel():
                continue
            try:
                future.set_result(job(shard.service))
            except BaseException as exc:
                future.set_exception(exc)
            finally:
                shard.n_jobs += 1

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def shard_of(self, fingerprint: str) -> int:
        return shard_index(fingerprint, len(self._shards))

    def service_of(self, shard: int) -> TuningService:
        return self._shards[shard].service

    def submit(self, shard: int, job: Callable[[TuningService], object],
               fingerprint: str | None = None) -> Future:
        """Queue ``job`` on ``shard``; the result arrives via the future."""
        if self._closed:
            raise RuntimeError("pool is closed")
        if fingerprint is not None:
            self.jobs_by_fingerprint[fingerprint] += 1
        future: Future = Future()
        # Unbounded, so the put never blocks the event loop submitting it.
        self._jobs.put_nowait((self._shards[shard], job, future))
        return future

    def stats(self) -> dict:
        """Per-shard job counts plus each shard engine's amortization.

        Reads runner-owned state: call after :meth:`close` or inside a
        job, never mid-run from another thread.
        """
        return {
            "n_shards": len(self._shards),
            "jobs_by_shard": [s.n_jobs for s in self._shards],
            "distinct_fingerprints": len(self.jobs_by_fingerprint),
            "engine_hits_by_shard": [
                s.service.engine.stats.hits for s in self._shards
            ],
            # Where each shard's wall time went: suggest vs evaluate vs
            # ingest vs similarity (see repro.core.profiling).
            "phases_by_shard": [
                s.service.profiler.snapshot() for s in self._shards
            ],
        }

    def phase_totals(self) -> dict[str, dict[str, float]]:
        """Pool-wide per-phase totals, merged across every shard.

        Like :meth:`stats`, read after :meth:`close` or inside a job.
        """
        from ..profiling import PhaseProfiler

        total = PhaseProfiler()
        for shard in self._shards:
            total.merge(shard.service.profiler)
        return total.snapshot()

    def close(self) -> None:
        """Run every queued job, then stop the runner."""
        if self._closed:
            return
        self._closed = True
        self._jobs.put_nowait(None)
        self._runner.join()

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
