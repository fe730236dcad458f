"""Discrete-event Spark simulator: RDDs, DAGs, executors, cost model."""

from .costmodel import Calibration, with_overrides
from .dag import (
    CacheRegistry,
    CompiledJob,
    CompiledStage,
    CompiledWorkload,
    JobPlan,
    StageProfile,
    compile_job,
    compile_workload,
    fingerprint_jobs,
)
from .eventlog import event_lines, read_event_log, write_event_log
from .executor import ExecutorModel
from .faults import (
    FaultDraw,
    FaultPlan,
    FaultSpec,
    env_spike,
    executor_loss,
    oom_kill,
    straggler,
)
from .memory import gc_fraction
from .metrics import ExecutionResult, RunBatch, StageMetrics, TaskMetrics
from .rdd import RDD, Job
from .shuffle import CODECS, SERIALIZERS
from .simulator import SparkSimulator

__all__ = [
    "RDD",
    "Job",
    "StageProfile",
    "JobPlan",
    "CacheRegistry",
    "compile_job",
    "CompiledStage",
    "CompiledJob",
    "CompiledWorkload",
    "compile_workload",
    "fingerprint_jobs",
    "ExecutorModel",
    "FaultSpec",
    "FaultDraw",
    "FaultPlan",
    "executor_loss",
    "straggler",
    "oom_kill",
    "env_spike",
    "gc_fraction",
    "CODECS",
    "SERIALIZERS",
    "Calibration",
    "with_overrides",
    "event_lines",
    "write_event_log",
    "read_event_log",
    "ExecutionResult",
    "RunBatch",
    "StageMetrics",
    "TaskMetrics",
    "SparkSimulator",
]
