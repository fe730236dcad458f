"""Batch evaluation engine: memoized, batched candidate evaluation."""

from .cache import CacheStats, EvaluationCache, config_fingerprint
from .engine import EngineObjective, EvalRecord, EvalRequest, EvaluationEngine
from .executors import SerialExecutor
from .retry import FailureCounters, RetryError, RetryPolicy

__all__ = [
    "CacheStats",
    "EvaluationCache",
    "config_fingerprint",
    "EvalRequest",
    "EvalRecord",
    "EvaluationEngine",
    "EngineObjective",
    "SerialExecutor",
    "RetryPolicy",
    "RetryError",
    "FailureCounters",
]
