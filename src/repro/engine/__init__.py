"""Batch evaluation engine: memoized, batched candidate evaluation."""

from ..config.space import config_fingerprint
from .cache import EvaluationCache
from .engine import EngineObjective, EvalRecord, EvalRequest, EvaluationEngine
from .executors import SerialExecutor

__all__ = [
    "EvaluationCache",
    "config_fingerprint",
    "EvalRequest",
    "EvalRecord",
    "EvaluationEngine",
    "EngineObjective",
    "SerialExecutor",
]
