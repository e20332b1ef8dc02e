"""Checks of the span tracer and of BENCHMARK.json against the benchmark code.

Run with `python -m pytest perfbench/tests` from the repository root.
"""

import json
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    # parent [0, 100); children [10, 40) and [30, 60) overlap (two threads),
    # [70, 80) is separate: covered = 50 + 10, so self = 40.
    start = np.array([0, 10, 30, 70])
    end = np.array([100, 40, 60, 80])
    parent = np.array([-1, 0, 0, 0])
    assert self_times(start, end, parent).tolist() == [40, 30, 30, 10]


def test_install_wraps_where_names_are_looked_up_and_uninstall_restores():
    import hiddenpop.cli as cli
    import hiddenpop.data as data
    import hiddenpop.kernels as kernels
    import hiddenpop.sampler as sampler

    originals = (sampler.truncated_normal, kernels.truncated_normal,
                 cli.save_draws, data.PanelDataset.from_csv)
    tracer = Tracer()
    tracer.install()
    try:
        assert sampler.truncated_normal is kernels.truncated_normal
        assert sampler.truncated_normal is not originals[0]
        tracer.request = 0
        with tracer.span("bench.test"):
            sampler.truncated_normal(np.zeros(3), 1.0, 0.0, rng=np.random.default_rng(0))
            sampler.update_level  # looked up, not called: no span
    finally:
        tracer.uninstall()
    assert (sampler.truncated_normal, kernels.truncated_normal,
            cli.save_draws, data.PanelDataset.from_csv) == originals
    cols = tracer.arrays()
    assert cols["name"].tolist() == ["bench.test", "kernels.truncated_normal"]
    assert cols["parent"].tolist() == [-1, 0]


def test_benchmark_json_lists_exactly_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.SUMMARY_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.SUMMARY_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
