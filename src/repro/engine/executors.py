"""The evaluation engine's batch executor.

A batch executor is one method, ``run_batch(requests)``: it turns a list
of :class:`~repro.engine.engine.EvalRequest` into the matching list of
:class:`~repro.sparksim.metrics.ExecutionResult`, in order.  Every batch
runs in-process, on the caller's thread, through :class:`SerialExecutor`.
Every request carries its own noise seed and the simulator derives all
randomness from it, so grouping a batch into ``run_batch`` calls changes
wall-clock, never observations.

The engine accepts any object with that method; the throughput bench and
the identity suites pass the per-request reference loop
(``tests/oracles.py``) and test doubles through it.
"""

from __future__ import annotations

from ..sparksim.simulator import SparkSimulator

__all__ = ["SerialExecutor"]


class SerialExecutor:
    """Run every request in-process on one simulator."""

    def __init__(self, simulator: SparkSimulator | None = None):
        self.simulator = simulator or SparkSimulator()

    def run_batch(self, requests) -> list:
        """Answer ``requests`` in order, batching same-workload runs.

        Requests that share a workload object, input size and cluster form
        one :meth:`~repro.sparksim.simulator.SparkSimulator.run_batch` call
        (one plan-cache lookup + one vectorized cost sweep), which is
        bit-identical to running them one by one.  Grouping keys on the
        workload's *identity*: same-origin requests carry the same object.
        """
        requests = list(requests)
        groups: dict[tuple, list[int]] = {}
        for idx, r in enumerate(requests):
            key = (id(r.workload), float(r.input_mb), r.cluster)
            groups.setdefault(key, []).append(idx)
        results: list = [None] * len(requests)
        for idxs in groups.values():
            if len(idxs) == 1:
                i = idxs[0]
                r = requests[i]
                results[i] = self.simulator.run(
                    r.workload, r.input_mb, r.cluster, r.config,
                    env=r.env, seed=r.seed,
                )
            else:
                first = requests[idxs[0]]
                batch = self.simulator.run_batch(
                    first.workload, first.input_mb, first.cluster,
                    [requests[i].config for i in idxs],
                    envs=[requests[i].env for i in idxs],
                    seeds=[requests[i].seed for i in idxs],
                )
                for i, result in zip(idxs, batch):
                    results[i] = result
        return results
