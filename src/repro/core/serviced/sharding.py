"""Fingerprint-sharded worker pool for tuning sessions.

One evaluation engine's memoization cache only amortizes tuning cost
(paper principle 3) for candidates *it* has seen.  The service layer
therefore shards tuning sessions by **workload fingerprint**: tenants
running similar workloads land on the same shard, whose engine cache,
compiled-plan cache and warm models answer their repeated candidates —
while unrelated workloads spread across shards.

:func:`workload_fingerprint` hashes the observable submission facts —
workload name and the input-size decade — which is what a provider
knows at submit time.

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


def workload_fingerprint(workload: object, input_mb: float) -> str:
    """Stable hex fingerprint of a submission's workload identity.

    Built from the submission facts: workload name + input-size decade,
    so one workload's submissions at similar sizes land on one shard.
    """
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

    def counters(self) -> dict[str, int | float]:
        """``shard<i>.jobs``, ``distinct_fingerprints``, and each
        service's ``engine.*``, ``simulator.*`` and ``phase.*`` counters
        summed over the shards.

        ``index.*`` is left out: shards may share one log and its index,
        which a sum would count once per shard.  A shard's own values
        are its service's (:meth:`service_of`).  Reads runner-owned
        state: call after :meth:`close` or inside a job, never mid-run
        from another thread.
        """
        out: dict[str, int | float] = {
            f"shard{s.index}.jobs": s.n_jobs for s in self._shards
        }
        out["distinct_fingerprints"] = len(self.jobs_by_fingerprint)
        for shard in self._shards:
            for key, value in shard.service.counters().items():
                if not key.startswith("index."):
                    out[key] = out.get(key, 0) + value
        return out

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
