"""The library surface the benchmark's scripts use.

bench/workloads.py and bench/run.py import the library directly, so a name
they read that the library drops fails here, in the test suite, and not
only when the benchmark runs.
"""

import dataclasses
import importlib
import sys
from pathlib import Path

from fairsample import dataset, synth
from fairsample.experiments import SweepResult

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_workload_builds_its_specs(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    # leave bench/ as it is: no __pycache__ from this import
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    assert set(workloads.WORKLOADS) >= {"ssb_logreg", "decomp_knn",
                                        "collect_tree"}
    for wl in workloads.WORKLOADS.values():
        assert wl.synth_spec(1).seed == 1
        spec = wl.sweep_spec(1)
        assert (spec.seed, spec.replicates) == (1, wl.replicates)
        assert callable(wl.runner) and callable(wl.check)


def test_sweep_result_keeps_what_the_benchmark_reads():
    fields = {f.name for f in dataclasses.fields(SweepResult)}
    assert {"cells", "grid", "bias_rows", "metrics",
            "population_ratio"} <= fields
    for method in ("write_csv", "write_bias_csv"):
        assert callable(getattr(SweepResult, method))
    # bench/run.py's set-up and input generation
    for owner, name in ((dataset, "load_csv"), (dataset.Schema, "from_json"),
                        (synth, "generate"), (synth, "write_csv")):
        assert callable(getattr(owner, name))
