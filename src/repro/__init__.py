"""repro — Seamless Configuration Tuning of Big Data Analytics.

A full reproduction of Fekry et al., "Towards Seamless Configuration
Tuning of Big Data Analytics" (ICDCS 2019): a provider-side self-tuning
service (:mod:`repro.core`) over a Spark simulator
(:mod:`repro.sparksim`), a cloud substrate (:mod:`repro.cloud`), a
HiBench-style workload suite (:mod:`repro.workloads`), and every tuning
strategy the paper surveys (:mod:`repro.tuning`).

Quickstart::

    from repro import TuningService
    from repro.workloads import PageRank

    service = TuningService(provider="aws", seed=42)
    deployment = service.submit("tenant-a", PageRank(), input_mb=12_000)
    print(deployment.cluster.describe(), deployment.expected_runtime_s)

The top-level re-exports resolve lazily (PEP 562): importing ``repro``
imports none of its subpackages, so a tool that needs one loads only
what that one imports.  ``python -m repro.staticcheck`` imports the
config spaces, clusters and workloads its domain rules validate, but
not the service, the tuners or scipy.  ``from repro import
TuningService`` still works exactly as before; the service stack loads
on first attribute access.
"""

from __future__ import annotations

from typing import Any

__version__ = "1.0.0"

#: exported name -> submodule that defines it
_EXPORTS = {
    "TuningService": "core",
    "SparkSimulator": "sparksim",
    "Cluster": "cloud",
    "Configuration": "config",
    "ConfigurationSpace": "config",
    "spark_space": "config",
    "spark_core_space": "config",
    "SimulationObjective": "tuning",
    "BayesOptTuner": "tuning",
    "RandomSearchTuner": "tuning",
    "run_tuner": "tuning",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{submodule}", __name__), name)
    globals()[name] = value          # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(__all__)
