"""Configuration tuners: every strategy the paper surveys, one interface.

Submodules are imported lazily (PEP 562).  This keeps ``import
repro.tuning.base`` cheap — the abstract interface is a leaf — and breaks
the package-level cycle ``engine.engine -> tuning.base`` /
``tuning.aroma -> core.similarity -> core.service -> engine`` that an
eager ``__init__`` would otherwise close.
"""

_EXPORTS = {
    "Tuner": "base",
    "Observation": "base",
    "TuningResult": "base",
    "run_tuner": "base",
    "SimulationObjective": "base",
    "RandomSearchTuner": "random_search",
    "GridSearchTuner": "grid_search",
    "LatinHypercubeTuner": "latin",
    "HillClimbTuner": "hillclimb",
    "TuningRule": "hillclimb",
    "DEFAULT_SPARK_RULES": "hillclimb",
    "BayesOptTuner": "bo",
    "AdditiveGPTuner": "bo",
    "GaussianProcess": "bo",
    "GeneticTuner": "genetic",
    "DACTuner": "genetic",
    "TreeTuner": "trees",
    "DecisionTreeRegressor": "trees",
    "RandomForestRegressor": "trees",
    "BestConfigTuner": "bestconfig",
    "QLearningTuner": "rl",
    "ErnestModel": "ernest",
    "ErnestTuner": "ernest",
    "JobProfile": "whatif",
    "WhatIfEngine": "whatif",
    "WhatIfTuner": "whatif",
    "whatif_tune": "whatif",
    "AromaTuner": "aroma",
    "WorkloadCorpus": "aroma",
    "KernelRidgeRegressor": "aroma",
    "successive_halving": "multifidelity",
    "SuccessiveHalvingResult": "multifidelity",
    "FidelityRung": "multifidelity",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        submodule = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    from importlib import import_module

    value = getattr(import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
