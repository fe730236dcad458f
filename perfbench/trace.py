"""Spans around the service's public entry points, recorded from outside.

The traced pass wraps each layer's public entry point (see
:meth:`Tracer.install`) for the length of one run and restores it after.
Nothing inside the program is edited; a name imported into several
modules (``signature``, ``build_transfer_plan``,
``ingest_production_runs``) is replaced at every module that binds it.

A span records name, start, end, thread CPU at both ends, its parent
span and the trace id of the request it serves.  Parents follow the
``contextvars`` context, which asyncio keeps per task and threads keep
per thread.  Work that the front end hands from one task to another is
linked explicitly: ``SLOPriorityScheduler.push`` notes which request's
``frontend.submit`` span queued the entry, and ``ShardPool.submit``
wraps the job it is given, so the shard thread's spans join the
request's trace.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextvars
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Span", "Tracer", "REQUEST"]

#: the trace id of the request the current asyncio task is sending; the
#: benchmark's client sets it in both passes, only the tracer reads it
REQUEST: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_request", default=None,
)

_clock = time.perf_counter
_cpu = time.thread_time


class Span:
    """One timed call.  ``c0``/``c1`` are None where thread CPU is not
    this span's own (an async span's thread runs other tasks meanwhile)."""

    __slots__ = ("id", "parent", "trace", "name", "thread",
                 "t0", "t1", "c0", "c1", "n")

    def __init__(self, span_id: int, parent: "Span | None", trace: int | None,
                 name: str, t0: float, c0: float | None):
        self.id = span_id
        self.parent = parent.id if parent is not None else None
        self.trace = trace
        self.name = name
        self.thread = threading.get_ident()
        self.t0 = t0
        self.t1 = t0
        self.c0 = c0
        self.c1 = c0
        #: a count the entry point reports (runs simulated, observations
        #: planned, admitted or not, the shard a job ran on)
        self.n = 1

    @property
    def wall(self) -> float:
        return self.t1 - self.t0

    @property
    def cpu(self) -> float | None:
        return None if self.c0 is None else self.c1 - self.c0

    def as_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "trace": self.trace,
            "name": self.name, "thread": self.thread, "start": self.t0,
            "end": self.t1, "wall": self.wall, "cpu": self.cpu, "n": self.n,
        }


@dataclass
class _Patch:
    owner: Any
    attr: str
    original: Any
    owned: bool          # attribute lived in the owner's own __dict__


@dataclass
class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    spans: list[Span] = field(default_factory=list)
    #: high-water mark of entries queued in the scheduler
    max_depth: int = 0
    _depth: int = 0
    _ids: Any = field(default_factory=lambda: itertools.count(1))
    _current: contextvars.ContextVar = field(
        default_factory=lambda: contextvars.ContextVar("perfbench_span",
                                                       default=None))
    _queued: dict[int, tuple[float, Span | None]] = field(default_factory=dict)
    _job_parent: dict[int, Span | None] = field(default_factory=dict)
    _patches: list[_Patch] = field(default_factory=list)

    # --- recording ---------------------------------------------------------
    def _open(self, name: str, parent: Span | None, trace: int | None,
              cpu: bool = True) -> Span:
        span = Span(next(self._ids), parent, trace, name, _clock(),
                    _cpu() if cpu else None)
        self.spans.append(span)
        return span

    @staticmethod
    def _close(span: Span) -> None:
        span.t1 = _clock()
        if span.c0 is not None:
            span.c1 = _cpu()

    def _interval(self, name: str, t0: float, parent: Span | None) -> None:
        """A span measured across tasks or threads: wall time only."""
        span = Span(next(self._ids), parent,
                    parent.trace if parent is not None else None, name, t0,
                    None)
        span.t1 = _clock()
        self.spans.append(span)

    def wrap(self, name: str, fn: Callable,
             count: Callable[[tuple, Any], int] | None = None) -> Callable:
        """``fn`` inside a span; a call nested in a span of the same name
        (``super()`` chains, ``suggest_batch`` calling ``suggest``) is not
        counted again."""
        current = self._current

        def traced(*args, **kwargs):
            parent = current.get()
            if parent is not None and parent.name == name:
                return fn(*args, **kwargs)
            span = self._open(name, parent,
                              parent.trace if parent is not None else None)
            token = current.set(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                current.reset(token)
                self._close(span)
            if count is not None:
                span.n = count(args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # --- the front end's hand-offs ----------------------------------------
    def _submit(self, original: Callable) -> Callable:
        current = self._current

        async def submit(frontend, request):
            span = self._open("frontend.submit", None, REQUEST.get(),
                              cpu=False)
            token = current.set(span)
            try:
                outcome = await original(frontend, request)
            finally:
                current.reset(token)
                self._close(span)
            span.n = int(outcome.accepted)
            return outcome

        return submit

    def _push(self, original: Callable) -> Callable:
        inner = self.wrap("scheduler.push", original)

        def push(scheduler, item, shard, budget=None):
            parent = self._current.get()
            self._queued[id(item)] = (_clock(), parent)
            self._job_parent[id(item.job)] = parent
            inner(scheduler, item, shard, budget)
            self._depth += 1
            self.max_depth = max(self.max_depth, self._depth)

        return push

    def _pop_ready(self, original: Callable) -> Callable:
        def pop_ready(scheduler, busy_shards=frozenset()):
            # The dispatcher task runs in a context copied from whichever
            # request first woke it, so its parent is set, not inherited.
            span = self._open("scheduler.pop_ready", None, None)
            try:
                popped = original(scheduler, busy_shards)
            finally:
                self._close(span)
            if popped is not None:
                t_push, parent = self._queued.pop(id(popped[1]))
                self._interval("scheduler.wait", t_push, parent)
                self._depth -= 1
            return popped

        return pop_ready

    def _pool_submit(self, original: Callable) -> Callable:
        current = self._current

        def submit(pool, shard, job, fingerprint=None):
            parent = self._job_parent.pop(id(job), None)
            t_submit = _clock()

            def traced_job(service):
                self._interval("shard.wait", t_submit, parent)
                span = self._open("shard.job", parent,
                                  parent.trace if parent is not None else None)
                span.n = shard
                token = current.set(span)
                try:
                    return job(service)
                finally:
                    current.reset(token)
                    self._close(span)

            span = self._open("shard.submit", parent,
                              parent.trace if parent is not None else None)
            try:
                return original(pool, shard, traced_job, fingerprint)
            finally:
                self._close(span)

        return submit

    # --- patching ----------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        owned = isinstance(owner, type) and attr in owner.__dict__ \
            or not isinstance(owner, type)
        self._patches.append(_Patch(owner, attr, getattr(owner, attr), owned))
        setattr(owner, attr, value)

    def _set_everywhere(self, fn: Callable, value: Callable) -> None:
        """Rebind ``fn`` at every ``repro`` module that imported it by name."""
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    self._set(module, attr, value)

    def install(self) -> None:
        """Wrap every layer's public entry point the benchmark times."""
        from repro.cloud.pricing import CostLedger
        from repro.core.characterization import signature
        from repro.core.history import HistoryStore
        from repro.core.serviced import (
            AdmissionController,
            ServiceFrontEnd,
            ShardPool,
            SLOPriorityScheduler,
            ingest_production_runs,
        )
        from repro.core.service import TuningService
        from repro.core.simindex import SignatureIndex
        from repro.core.transfer import build_transfer_plan
        from repro.engine import EvaluationEngine
        from repro.sparksim.simulator import SparkSimulator
        from repro.tuning.base import Tuner
        from repro.tuning.bo.bayesopt import BayesOptTuner
        from repro.tuning.random_search import RandomSearchTuner

        if self._patches:
            raise RuntimeError("tracer already installed")
        self._set(ServiceFrontEnd, "submit",
                  self._submit(ServiceFrontEnd.submit))
        self._set(AdmissionController, "try_admit",
                  self.wrap("admission.try_admit",
                            AdmissionController.try_admit,
                            count=lambda args, decision: int(bool(decision))))
        self._set(SLOPriorityScheduler, "push",
                  self._push(SLOPriorityScheduler.push))
        self._set(SLOPriorityScheduler, "pop_ready",
                  self._pop_ready(SLOPriorityScheduler.pop_ready))
        self._set(ShardPool, "submit", self._pool_submit(ShardPool.submit))
        self._set(TuningService, "submit",
                  self.wrap("service.tune", TuningService.submit))
        self._set_everywhere(
            ingest_production_runs,
            self.wrap("service.ingest", ingest_production_runs),
        )
        for cls, attr in ((BayesOptTuner, "suggest"), (Tuner, "suggest_batch"),
                          (RandomSearchTuner, "suggest"),
                          (RandomSearchTuner, "suggest_batch")):
            self._set(cls, attr, self.wrap("tuning.suggest",
                                           getattr(cls, attr)))
        for cls in (Tuner, BayesOptTuner):
            self._set(cls, "observe", self.wrap("tuning.observe",
                                                cls.__dict__["observe"]))
        self._set(EvaluationEngine, "evaluate_batch",
                  self.wrap("engine.evaluate", EvaluationEngine.evaluate_batch,
                            count=lambda args, records: len(records)))
        self._set(SparkSimulator, "run",
                  self.wrap("sparksim.simulate", SparkSimulator.run))
        self._set(SparkSimulator, "run_batch",
                  self.wrap("sparksim.simulate", SparkSimulator.run_batch,
                            count=lambda args, results: len(results)))
        self._set_everywhere(signature, self.wrap("characterize", signature))
        self._set(HistoryStore, "record",
                  self.wrap("history.append", HistoryStore.record))
        self._set(SignatureIndex, "sync",
                  self.wrap("simindex.sync", SignatureIndex.sync))
        for attr in ("find_similar", "best_runtime_excluding"):
            self._set(SignatureIndex, attr,
                      self.wrap("simindex.lookup",
                                getattr(SignatureIndex, attr)))
        self._set_everywhere(
            build_transfer_plan,
            self.wrap("transfer.plan", build_transfer_plan,
                      count=lambda args, plan: len(plan.observations)),
        )
        for attr in ("charge_tuning", "charge_production"):
            self._set(CostLedger, attr,
                      self.wrap("ledger.charge", getattr(CostLedger, attr)))

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            patch = self._patches.pop()
            if patch.owned:
                setattr(patch.owner, patch.attr, patch.original)
            else:
                delattr(patch.owner, patch.attr)

