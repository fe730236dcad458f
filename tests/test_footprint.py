"""The service's import and per-record footprint.

A service process holds the provider's whole execution history, so what
each loaded module and each recorded run costs bounds how much history
it can keep.  The service stack serves requests without ``scipy.stats``
(the acquisition functions compute the normal CDF and PDF themselves)
or ``networkx`` (the DAG compiler orders stages itself), and history
records carry no per-instance ``__dict__``.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: blocks both packages, then drives the service stack: one ingest batch
#: and one model-based BayesOpt suggestion (through EI)
SCRIPT = """
import sys

sys.modules["networkx"] = None
sys.modules["scipy.stats"] = None

import numpy as np

import repro.core.serviced
import repro.tuning.random_search
import repro.workloads
from repro.cloud.cluster import Cluster
from repro.core.service import Deployment, TuningService, ingest_production_runs
from repro.tuning.base import SimulationObjective
from repro.tuning.bo.bayesopt import BayesOptTuner

cluster = Cluster.of("m5.xlarge", 4)
service = TuningService(seed=3)
workload = repro.workloads.get_workload("sort")
objective = SimulationObjective(workload, 500.0, cluster=cluster,
                                simulator=service.simulator, repair=True)
config = objective.resolve(service.disc_space.default_configuration())[1]
deployment = Deployment(tenant="t", workload_label="sort", workload=workload,
                        input_mb=500.0, cluster=cluster, config=config,
                        expected_runtime_s=1.0, slo_report=None,
                        tuning_evaluations=0)
assert len(ingest_production_runs(service, deployment, 500.0, 3)) == 3
record = service.store.all()[0]
assert not hasattr(record, "__dict__"), vars(record)

space = service.disc_space
warm = [(space.default_configuration(), 40.0), (config, 30.0),
        (space.sample_configuration(np.random.default_rng(1)), 50.0)]
tuner = BayesOptTuner(space, seed=5, n_init=2, warm_start=warm)
tuner.suggest()
assert tuner.last_max_ei is not None
print("ok")
"""


def test_service_stack_runs_without_scipy_stats_or_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
