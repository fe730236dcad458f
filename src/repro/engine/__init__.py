"""Batch evaluation engine: memoized, batched candidate evaluation."""

from ..config.space import config_fingerprint
from .cache import CacheStats, EvaluationCache
from .engine import EngineObjective, EvalRecord, EvalRequest, EvaluationEngine
from .executors import SerialExecutor

__all__ = [
    "CacheStats",
    "EvaluationCache",
    "config_fingerprint",
    "EvalRequest",
    "EvalRecord",
    "EvaluationEngine",
    "EngineObjective",
    "SerialExecutor",
]
