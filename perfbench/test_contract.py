"""BENCHMARK.json names exactly the metrics the command prints.

Run: ``python -m pytest perfbench``
"""

import json
from pathlib import Path

from perfbench.profile import PER_LAYER
from perfbench.run import GATED_METRICS

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match_the_gated_table():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == GATED_METRICS


def test_per_layer_metrics_match_the_traced_table():
    assert {m["name"]: (m["unit"], m["better"])
            for m in SPEC["per_layer"]} == PER_LAYER
