"""The benchmark's workloads: input data, sweep spec and output checks.

Each workload builds its synthetic population from the workload seed, so
the same seed gives the same CSV, and the library only ever sees that
file.  Output checks test identities that hold for any correct solver,
never a frozen digest, so a change that legitimately moves the numbers
still passes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from fairsample.experiments import (SweepSpec, run_collect_sim,
                                    run_decomposition_sweep, run_ssb_sweep)
from fairsample.learners import Learner
from fairsample.synth import SynthSpec


@dataclass(frozen=True)
class Workload:
    name: str
    replicates: int
    synth: dict
    sweep: dict
    runner: object
    check: object

    def synth_spec(self, seed):
        return SynthSpec(seed=seed, **self.synth)

    def sweep_spec(self, seed):
        return SweepSpec(seed=seed, replicates=self.replicates, threads=1,
                         **self.sweep)


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text):
    return None if text == "" else float(text)


def check_common(result, rows, k):
    """Problems common to every family: row count and K on every row."""
    problems = []
    want = len(result.grid) * len(result.metrics)
    if len(rows) != want:
        problems.append(f"{len(rows)} rows, expected grid x metrics = {want}")
    bad_k = [r for r in rows if int(r["k_total"]) != k]
    if bad_k:
        problems.append(f"{len(bad_k)} rows with k_total != {k}")
    return problems


def check_ssb(result, rows, bias_rows):
    problems = []
    by_point = {}
    for r in rows:
        by_point.setdefault(r["grid_value"], {})[r["metric"]] = _num(r["mean"])
    for g, means in by_point.items():
        eo, fnr = means.get("EO"), means.get("FNR")
        if (eo is None) != (fnr is None) or (eo is not None and eo != -fnr):
            problems.append(f"m={g}: EO mean {eo} != -FNR mean {fnr}")
    if len(bias_rows) != len(result.grid) * len(result.metrics):
        problems.append(f"{len(bias_rows)} bias rows, expected "
                        f"{len(result.grid) * len(result.metrics)}")
    at_ref = [b for b in bias_rows
              if b["target"].split("=")[1] == b["reference"].split("=")[1]]
    if len(at_ref) != len(result.metrics):
        problems.append(f"{len(at_ref)} bias rows at the reference, "
                        f"expected {len(result.metrics)}")
    for b in at_ref:
        if _num(b["value"]) != 0.0:
            problems.append(f"bias at the reference is {b['value']} for "
                            f"{b['metric']}")
    return problems


def check_collect(result, rows, bias_rows):
    problems = []
    grid = [int(g) for g in dict.fromkeys(r["grid_value"] for r in rows)]
    if grid != list(range(2, 101, 2)):
        problems.append("grid is not 2..100 step 2")
    for r in rows:
        for key in ("group0_mean", "group1_mean"):
            v = _num(r[key])
            if v is None or not 0.0 <= v <= 1.0:
                problems.append(f"n1={r['grid_value']} {r['metric']}: "
                                f"{key}={r[key]!r} outside [0, 1]")
    return problems


def check_decomposition(result, rows, bias_rows):
    problems = []
    ref = repr(min(result.grid, key=lambda g: abs(g - result.population_ratio)))
    ref_rows = [r for r in rows if r["grid_value"] == ref]
    if len(ref_rows) != len(result.metrics):
        problems.append(f"{len(ref_rows)} rows at reference ratio {ref}")
    for r in rows:
        mean, bd, nd = (_num(r[k]) for k in ("mean", "bias_delta",
                                              "netvar_delta"))
        where = f"ratio={r['grid_value']} {r['metric']}"
        if mean is None or bd is None or nd is None:
            problems.append(f"{where}: undefined decomposition")
        elif abs(mean - (bd + nd)) > 1e-12:
            problems.append(f"{where}: mean {mean} != bias_delta + "
                            f"netvar_delta = {bd + nd}")
        elif r["grid_value"] == ref and (mean, bd, nd) != (0.0, 0.0, 0.0):
            problems.append(f"{where}: reference row is not 0")
    return problems


# Why each workload exists, and which layer metrics it exercises, is in
# bench/README.md and in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="ssb_logreg",
        replicates=5,
        synth=dict(n=4000, d=5, group1_share=0.3),
        sweep=dict(family="ssb_size", learner=Learner()),
        runner=run_ssb_sweep,
        check=check_ssb),
    Workload(
        name="collect_tree",
        replicates=10,
        synth=dict(n=3000, d=3, group1_share=0.31, mean_shift=(0.8, 0.0, 0.0),
                   intercept_a1=-0.4),
        sweep=dict(family="collect", grid=tuple(range(2, 101, 2)),
                   fixed_majority=100, variant="minority_random",
                   metrics=("EO", "SD"),
                   learner=Learner(kind="decision_tree", max_depth=4,
                                   min_leaf=5)),
        runner=run_collect_sim,
        check=check_collect),
    Workload(
        name="decomp_knn",
        replicates=5,
        synth=dict(n=20000, d=5, group1_share=0.3),
        sweep=dict(family="decomposition", decomp_kind="urb", total_m=100,
                   grid=(0.05, 0.1, 0.2, 0.5), metrics=("ZOL", "FPR", "EO"),
                   learner=Learner(kind="knn", k=5)),
        runner=run_decomposition_sweep,
        check=check_decomposition),
)}
