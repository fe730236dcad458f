"""The seamless tuning service: history, similarity, transfer, SLOs."""

from .amortization import AmortizationInputs, AmortizationReport, analyze_amortization
from .characterization import FEATURE_NAMES, probe_configuration, signature
from .elasticity import ElasticScaler, ScalerObservation
from .history import ExecutionRecord, HistoryStore
from .histlog import HistoryLog
from .persistence import load_history, save_history
from .profiling import PhaseProfiler
from .retuning import (
    CusumDetector,
    DriftDetector,
    FixedThresholdDetector,
    PageHinkleyDetector,
    WindowedZTestDetector,
)
from .service import Deployment, ProductionRun, TuningService
from .session import SessionConfig, TuningSession
from .simindex import SignatureIndex, signature_index
from .similarity import (
    KMedoids,
    SimilarWorkload,
    find_similar_workloads,
    signature_distance,
)
from .slo import SLOMetric, SLOReport, TuningSLO, evaluate_slo
from .transfer import TransferPlan, build_transfer_plan

__all__ = [
    "HistoryStore",
    "HistoryLog",
    "ExecutionRecord",
    "save_history",
    "load_history",
    "ElasticScaler",
    "ScalerObservation",
    "signature",
    "probe_configuration",
    "FEATURE_NAMES",
    "KMedoids",
    "SimilarWorkload",
    "find_similar_workloads",
    "signature_distance",
    "SignatureIndex",
    "signature_index",
    "PhaseProfiler",
    "TransferPlan",
    "build_transfer_plan",
    "DriftDetector",
    "FixedThresholdDetector",
    "PageHinkleyDetector",
    "CusumDetector",
    "WindowedZTestDetector",
    "SLOMetric",
    "TuningSLO",
    "SLOReport",
    "evaluate_slo",
    "AmortizationInputs",
    "AmortizationReport",
    "analyze_amortization",
    "SessionConfig",
    "TuningSession",
    "Deployment",
    "ProductionRun",
    "TuningService",
]
