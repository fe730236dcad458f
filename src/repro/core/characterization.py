"""Workload characterization from observable execution metrics.

Challenge V.B of the paper: "the accurate characterization of analytic
workloads is crucial in being able to detect similarities between them
... to avoid any negative transfer".  The signature here is derived
purely from Spark-style metrics (resource-time split, shuffle intensity,
DAG shape, task skew) — never from workload identity — so similarity
genuinely depends on characterization quality, as it would for a cloud
provider.

Signatures are most comparable when produced under the same *probe*
configuration (the service runs each newly submitted workload once under
a canonical probe config, mirroring AROMA's standardized profiling run).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..config.space import Configuration
from ..config.spark_params import SPARK_DEFAULTS
from ..sparksim.metrics import ExecutionResult, RunBatch

__all__ = ["signature", "signatures", "FEATURE_NAMES", "probe_configuration"]

FEATURE_NAMES = [
    "log_input_mb",
    "shuffle_ratio",       # shuffle bytes per input byte
    "cpu_fraction",
    "io_fraction",
    "net_fraction",
    "gc_fraction",
    "cache_fraction",      # cached reads vs all reads
    "log_num_stages",
    "log_tasks_per_stage",
    "task_skew",           # p95 / median task duration
    "output_ratio",        # bytes written out per input byte
]


def probe_configuration() -> Configuration:
    """The canonical probe config used for first-contact profiling runs.

    Moderate resources that virtually always fit (AROMA profiles every
    job once under a standard allocation before clustering it).
    """
    probe = dict(SPARK_DEFAULTS)
    probe.update({
        "spark.executor.instances": 8,
        "spark.executor.cores": 4,
        "spark.executor.memory": 8192,
        "spark.default.parallelism": 128,
        "spark.serializer": "kryo",
    })
    return Configuration(probe)


def signature(result: ExecutionResult) -> np.ndarray:
    """Characterization vector of one execution (see ``FEATURE_NAMES``)."""
    skews = [
        s.task_metrics.p95_s / s.task_metrics.p50_s
        for s in result.stages
        if not s.failed and s.task_metrics is not None
        and s.task_metrics.p50_s > 0
    ]
    task_skew = float(_mean_skew(np.array([skews]))[0]) if skews else 1.0
    return _signature(result.stages, task_skew)


def signatures(batch: Sequence[ExecutionResult]) -> np.ndarray:
    """``(len(batch), n_features)``: row ``i`` is ``signature(batch[i])``
    byte for byte.

    For a :class:`~repro.sparksim.metrics.RunBatch` the executions the
    stage-major path simulated are characterized per cost column
    (:meth:`~repro.sparksim.metrics.RunBatch.cost_columns`), without
    building their per-stage metrics.  Every feature except the task
    skew depends only on the column's stages, so :func:`_signature` runs
    once per column; the skew is one matrix mean over the members'
    per-stage p95/p50.
    """
    out = np.empty((len(batch), len(FEATURE_NAMES)))
    done = np.zeros(len(batch), dtype=bool)
    columns = batch.cost_columns() if isinstance(batch, RunBatch) else []
    for column in columns:
        p50, p95 = column.task_p50_s, column.task_p95_s
        if p50.shape[1] and (p50 > 0).all():
            skew = _mean_skew(p95 / p50)
        else:
            skew = np.array([
                _mean_skew((hi[lo > 0] / lo[lo > 0])[None, :])[0]
                if (lo > 0).any() else 1.0
                for hi, lo in zip(p95, p50)
            ])
        out[column.members] = _signature(column.stages, 1.0)
        out[column.members, 9] = np.minimum(skew, 5.0)
        done[column.members] = True
    for i in np.flatnonzero(~done).tolist():
        out[i] = signature(batch[i])
    return out


def _mean_skew(ratios: np.ndarray) -> np.ndarray:
    """Row means of per-stage p95/p50 task-duration ratios (a row sum,
    numpy's pairwise reduction, over the stage count)."""
    return ratios.sum(axis=1) / ratios.shape[1]


def _signature(stages: Sequence, task_skew: float) -> np.ndarray:
    """The feature vector of one execution's stages, in execution order
    (``StageMetrics`` or ``StageTotals``), given its mean task skew.

    Both :func:`signature` and :func:`signatures` go through here, so
    they run the same additions in the same order — including Python's
    ``sum``, which CPython 3.12 compensates and 3.11 does not.
    """
    ok = [s for s in stages if not s.failed]
    input_mb = max(1.0, sum(s.input_mb for s in stages))
    task_seconds = sum(
        s.cpu_time_s + s.io_time_s + s.net_time_s + s.gc_time_s for s in ok
    )
    task_seconds = max(task_seconds, 1e-9)
    cpu = sum(s.cpu_time_s for s in ok) / task_seconds
    io = sum(s.io_time_s for s in ok) / task_seconds
    net = sum(s.net_time_s for s in ok) / task_seconds
    gc = sum(s.gc_time_s for s in ok) / task_seconds

    reads = sum(s.input_mb + s.cached_read_mb + s.shuffle_read_mb for s in ok)
    cached = sum(s.cached_read_mb for s in ok)
    cache_fraction = cached / reads if reads > 0 else 0.0

    shuffle_ratio = min(5.0, sum(s.shuffle_write_mb for s in stages) / input_mb)
    output_mb = sum(s.output_mb if s.writes_output else 0.0 for s in ok)
    output_ratio = min(3.0, output_mb / input_mb)

    n_stages = max(1, len(ok))
    tasks_per_stage = max(1.0, sum(s.num_tasks for s in stages) / n_stages)

    return np.array([
        np.log10(input_mb),
        shuffle_ratio,
        cpu,
        io,
        net,
        gc,
        cache_fraction,
        np.log10(n_stages),
        np.log10(tasks_per_stage),
        min(task_skew, 5.0),
        output_ratio,
    ])


#: per-feature scale used to put distances on comparable footing
_FEATURE_SCALE = np.array([
    2.0,    # log_input_mb spans ~2 decades
    1.0,    # shuffle_ratio
    0.5, 0.5, 0.5, 0.25,   # resource fractions
    0.5,    # cache_fraction
    1.0,    # log_num_stages
    1.0,    # log_tasks_per_stage
    1.0,    # task_skew
    1.0,    # output_ratio
])


def scaled(sig: np.ndarray) -> np.ndarray:
    """Scale a signature for distance computations."""
    sig = np.asarray(sig, dtype=float)
    if sig.shape != (_FEATURE_SCALE.shape[0],):
        raise ValueError(
            f"signature must have {len(_FEATURE_SCALE)} features, got {sig.shape}"
        )
    return sig / _FEATURE_SCALE
