"""Per-layer metrics and layer reconciliation from one traced pass.

Every ``*.wall_s`` is self time (the span minus what its direct
children cover) and every ``*.cpu_s`` is self thread CPU, so the
layers of one shard job add up to the job's wall time exactly, and
summed span CPU can only reach process CPU if nothing is counted twice.
The three reconciliation checks the traced run fails on are in
:func:`reconcile`.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass

from .stats import percentile, self_times, tail
from .trace import Span

__all__ = ["Counters", "PER_LAYER", "REQUEST_TOLERANCE", "layer_metrics",
           "reconcile", "request_parts"]

#: per admitted request, |latency - sum of its parts| (see
#: :func:`request_parts`) may not exceed this share of the latency plus
#: the absolute slack.  What is left over is the front end's own code
#: between try_admit and push, where the event-loop thread can lose the
#: GIL to a busy shard for a switch interval (5 ms) or two.
REQUEST_TOLERANCE = (0.01, 0.020)
#: the spans under an admitted request's frontend.submit span
REQUEST_SPANS = ("admission.try_admit", "scheduler.wait", "shard.wait",
                 "shard.job")
#: per shard job, sum of self times vs job wall (floating-point only)
JOB_TOLERANCE_S = 1e-6

#: the timed layers and which of calls / self wall / self CPU each reports
LAYER_FIELDS = {
    "service.tune": ("calls", "wall_s", "cpu_s"),
    "service.ingest": ("calls", "wall_s", "cpu_s"),
    "tuning.suggest": ("calls", "wall_s", "cpu_s"),
    "tuning.observe": ("calls", "cpu_s"),
    "engine.evaluate": ("calls", "wall_s", "cpu_s"),
    "sparksim.simulate": ("calls", "wall_s", "cpu_s"),
    "sparksim.simulate.ingest": ("calls", "wall_s", "cpu_s"),
    "sparksim.simulate.engine": ("calls", "wall_s", "cpu_s"),
    "characterize": ("calls", "cpu_s"),
    "history.append": ("calls", "cpu_s"),
    "simindex.sync": ("calls", "cpu_s"),
    "simindex.lookup": ("calls", "cpu_s"),
    "transfer.plan": ("calls", "cpu_s"),
}

#: every per-layer metric of a traced run -> (unit, which way is better)
PER_LAYER = {
    "frontend.loop_cpu_s": ("s", "lower"),
    "frontend.handoff_p50_s": ("s", "lower"),
    "frontend.handoff_tail_s": ("s", "lower"),
    "client.retries": ("count", "lower"),
    "client.lag_max_s": ("s", "lower"),
    "admission.admitted": ("count", "higher"),
    "admission.rejected": ("count", "lower"),
    "admission.admit_ratio": ("share", "higher"),
    "scheduler.wait_p50_s": ("s", "lower"),
    "scheduler.wait_tail_s": ("s", "lower"),
    "scheduler.max_depth": ("count", "lower"),
    "shard.jobs": ("count", "lower"),
    "shard.wait_tail_s": ("s", "lower"),
    "shard.busy_s": ("s", "lower"),
    "shard.cpu_s": ("s", "lower"),
    "shard.offcpu_s": ("s", "lower"),
    "shard.imbalance": ("ratio", "lower"),
    **{f"{layer}.{f}": ("count" if f == "calls" else "s", "lower")
       for layer, fields in LAYER_FIELDS.items() for f in fields},
    "engine.requests": ("count", "lower"),
    "engine.hit_ratio": ("share", "higher"),
    "sparksim.runs": ("count", "lower"),
    "history.records": ("count", "lower"),
    "simindex.records_folded": ("count", "lower"),
    "transfer.observations": ("count", "higher"),
    "ledger.charges": ("count", "lower"),
    "reconcile.requests_reconciled": ("count", "higher"),
    "reconcile.request_residual_max_s": ("s", "lower"),
    "reconcile.request_residual_p50_s": ("s", "lower"),
    "reconcile.job_error_max_s": ("s", "lower"),
    "reconcile.span_cpu_share": ("share", "higher"),
    "trace.overhead.p50_s": ("share", "lower"),
    "trace.overhead.runs_per_s": ("share", "higher"),
    "trace.overhead.wall": ("share", "lower"),
    "trace.spans": ("count", "lower"),
}


@dataclass(frozen=True)
class Counters:
    """Program counters read at the edges of the traced window."""

    engine_requested: int
    engine_evaluated: int
    records: int
    records_folded: int
    ledger_charges: int

    @classmethod
    def of(cls, stack) -> "Counters":
        engines = [stack.pool.service_of(i).engine.counters()
                   for i in range(stack.pool.n_shards)]
        return cls(
            engine_requested=sum(e["n_requested"] for e in engines),
            engine_evaluated=sum(e["n_evaluated"] for e in engines),
            records=len(stack.log),
            records_folded=stack.store.index().counters()["records_indexed"],
            ledger_charges=sum(ledger.tuning_runs + ledger.production_runs
                               for ledger in stack.ledgers),
        )

    def __sub__(self, other: "Counters") -> "Counters":
        return Counters(*(a - b for a, b in zip(vars(self).values(),
                                                vars(other).values())))


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            out[span.parent].append(span)
    return out


def _self_cpu(spans: list[Span], children: dict[int, list[Span]],
              ) -> dict[int, float]:
    """Thread CPU minus the CPU of direct children on the same thread."""
    return {
        s.id: s.cpu - sum(c.cpu for c in children.get(s.id, ())
                          if c.thread == s.thread and c.cpu is not None)
        for s in spans if s.cpu is not None
    }


def request_parts(submit: Span, children: list[Span]) -> dict[str, float]:
    """One admitted request's submit-to-complete latency, layer by layer.

    Besides admission, queue wait, shard wait and shard run, the front
    end hands the request over twice through the event loop: from
    ``pop_ready`` to ``ShardPool.submit`` (dispatch) and from the job's
    end to ``submit`` returning (complete).  Each can wait for the GIL
    behind busy shards, so both are parts of their own.
    """
    by_name = {c.name: c for c in children}
    missing = [name for name in REQUEST_SPANS if name not in by_name]
    if missing:
        raise LookupError(f"request {submit.trace}: no {missing} span")
    admit, queued, waited, job = (by_name[name] for name in REQUEST_SPANS)
    return {
        "admission": admit.wall,
        "queue": queued.wall,
        "dispatch": waited.t0 - queued.t1,
        "shard_wait": waited.wall,
        "shard_run": job.wall,
        "complete": submit.t1 - job.t1,
    }


def _admitted(spans: list[Span], children: dict[int, list[Span]]):
    """``(submit span, parts or the LookupError)`` per admitted request."""
    for submit in spans:
        if submit.name == "frontend.submit" and submit.n:
            try:
                yield submit, request_parts(submit,
                                            children.get(submit.id, []))
            except LookupError as exc:
                yield submit, exc


def reconcile(spans: list[Span], process_cpu_s: float) -> tuple[dict, list[str]]:
    """Check that the layers add up; returns (summary, failures)."""
    children = _children(spans)
    self_wall = self_times([(s.id, s.parent, s.t0, s.t1) for s in spans])
    self_cpu = _self_cpu(spans, children)
    failures: list[str] = []

    residuals = []
    rel, slack = REQUEST_TOLERANCE
    for submit, parts in _admitted(spans, children):
        if isinstance(parts, LookupError):
            failures.append(str(parts))
            continue
        residual = submit.wall - sum(parts.values())
        residuals.append(residual)
        backwards = [name for name, value in parts.items() if value < 0]
        if backwards or abs(residual) > rel * submit.wall + slack:
            failures.append(
                f"request {submit.trace}: latency {submit.wall:.4f}s but "
                f"its parts sum to {submit.wall - residual:.4f}s"
                + (f", {backwards} negative" if backwards else ""))

    def subtree(span_id: int) -> float:
        return self_wall[span_id] + sum(subtree(c.id)
                                        for c in children.get(span_id, ()))

    job_error = 0.0
    for job in (s for s in spans if s.name == "shard.job"):
        error = abs(subtree(job.id) - job.wall)
        job_error = max(job_error, error)
        if error > JOB_TOLERANCE_S:
            failures.append(f"shard job of request {job.trace}: self times "
                            f"sum {subtree(job.id):.6f}s, wall {job.wall:.6f}s")

    span_cpu = sum(self_cpu.values())
    if span_cpu > process_cpu_s * (1 + 1e-6):
        failures.append(f"spans hold {span_cpu:.3f}s CPU, the process "
                        f"used {process_cpu_s:.3f}s")
    summary = {
        "requests_reconciled": len(residuals),
        "request_residual_max_s": max((abs(r) for r in residuals),
                                      default=0.0),
        "request_residual_p50_s": (percentile(residuals, 50)
                                   if residuals else 0.0),
        "job_error_max_s": job_error,
        "span_cpu_share": span_cpu / process_cpu_s if process_cpu_s else 0.0,
    }
    return summary, failures


def layer_metrics(spans: list[Span], counters: Counters, loop_cpu_s: float,
                  retries: int, lag_max_s: float,
                  max_depth: int) -> dict[str, float]:
    """The per-layer table, from spans plus counter deltas."""
    by_id = {s.id: s for s in spans}
    children = _children(spans)
    self_wall = self_times([(s.id, s.parent, s.t0, s.t1) for s in spans])
    self_cpu = _self_cpu(spans, children)
    calls: dict[str, int] = defaultdict(int)
    wall: dict[str, float] = defaultdict(float)
    cpu: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)

    def caller(span: Span) -> str:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name == "service.ingest":
                return "ingest"
            if parent.name == "engine.evaluate":
                return "engine"
            parent = by_id.get(parent.parent)
        return "other"

    for s in spans:
        names = [s.name]
        if s.name == "sparksim.simulate":
            names.append(f"sparksim.simulate.{caller(s)}")
        for name in names:
            calls[name] += 1
            wall[name] += self_wall[s.id]
            cpu[name] += self_cpu.get(s.id, 0.0)
            counts[name] += s.n

    def waits(name: str) -> list[float]:
        return [s.wall for s in spans if s.name == name]

    jobs = [s for s in spans if s.name == "shard.job"]
    busy: dict[int, float] = defaultdict(float)
    job_cpu: dict[int, float] = defaultdict(float)
    for job in jobs:
        busy[job.n] += job.wall
        job_cpu[job.n] += job.cpu
    busy_s = sum(busy.values())
    shard_cpu = sum(job_cpu.values())
    admitted = counts["admission.try_admit"]
    rejected = calls["admission.try_admit"] - admitted
    sched = waits("scheduler.wait")
    shard_waits = waits("shard.wait")
    handoffs = [parts["dispatch"] + parts["complete"]
                for _, parts in _admitted(spans, children)
                if not isinstance(parts, LookupError)]

    out = {
        "frontend.loop_cpu_s": loop_cpu_s,
        "frontend.handoff_p50_s": (percentile(handoffs, 50)
                                   if handoffs else 0.0),
        "frontend.handoff_tail_s": tail(handoffs).value if handoffs else 0.0,
        "client.retries": retries,
        "client.lag_max_s": lag_max_s,
        "admission.admitted": admitted,
        "admission.rejected": rejected,
        "admission.admit_ratio": (admitted / calls["admission.try_admit"]
                                  if calls["admission.try_admit"] else 0.0),
        "scheduler.wait_p50_s": percentile(sched, 50) if sched else 0.0,
        "scheduler.wait_tail_s": tail(sched).value if sched else 0.0,
        "scheduler.max_depth": max_depth,
        "shard.jobs": len(jobs),
        "shard.wait_tail_s": tail(shard_waits).value if shard_waits else 0.0,
        "shard.busy_s": busy_s,
        "shard.cpu_s": shard_cpu,
        "shard.offcpu_s": busy_s - shard_cpu,
        "shard.imbalance": (max(busy.values()) / statistics.fmean(busy.values())
                            if busy_s else 0.0),
        "engine.requests": counters.engine_requested,
        "engine.hit_ratio": (1 - counters.engine_evaluated
                             / counters.engine_requested
                             if counters.engine_requested else 0.0),
        "sparksim.runs": counts["sparksim.simulate"],
        "history.records": counters.records,
        "simindex.records_folded": counters.records_folded,
        "transfer.observations": counts["transfer.plan"],
        "ledger.charges": calls["ledger.charge"],
    }
    source = {"calls": calls, "wall_s": wall, "cpu_s": cpu}
    for layer, fields in LAYER_FIELDS.items():
        for f in fields:
            out[f"{layer}.{f}"] = source[f][layer]
    return out
