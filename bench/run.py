"""Sweep benchmark for fairsample.

Usage, from the repository root:

    python3 bench/run.py --workload ssb_logreg --seed 1 --seconds 60 --trace 0

One run generates the workload's CSV from the seed, then, for
``--seconds``, repeats a timed set-up (``Schema.from_json`` + ``load_csv``,
twice) and the timed sweep that ``fairsample sweep`` would make
(``run_<family>`` followed by ``write_csv`` / ``write_bias_csv``,
``threads=1``).  Every repetition's CSVs are checked and hashed.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
repetitions and reports per-layer metrics per sweep.  The last line of
standard output is one JSON object; a fuller record, with the CSV digests
and the machine, goes to ``bench/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread, like the sweep's own threads=1: on a 2-core shared host a
# second BLAS thread measures the scheduler, not the program.  Set before
# numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# The host's speed swings by up to ~2x over spans of 5-15 s and drifts
# over minutes.  Set-up is timed SETUPS_PER_REP times before every sweep,
# so its samples spread over the whole run, and sweep_s is the mean sweep
# time over the whole run, which weighs every moment of it alike.
SETUPS_PER_REP = 2
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def sha256(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def setup(dataset, csv_path, schema_path):
    """One timed set-up: the schema and CSV loading ``fairsample sweep``
    does before the sweep."""
    t0 = time.perf_counter()
    schema = dataset.Schema.from_json(schema_path)
    ds = dataset.load_csv(csv_path, schema)
    return time.perf_counter() - t0, ds


class Repetition:
    """One sweep plus its CSV writes, timed, checked and hashed."""

    def __init__(self, index, traced):
        self.index = index
        self.traced = traced
        self.seconds = None
        self.models = 0
        self.digests = None
        self.grid = None
        self.cells = 0
        self.problems = []

    def run(self, wl, ds, spec, out_dir, tracer):
        from workloads import check_common, read_rows

        os.makedirs(out_dir, exist_ok=True)
        sweep_csv = os.path.join(out_dir, "sweep.csv")
        bias_csv = os.path.join(out_dir, "bias_estimates.csv")
        try:
            t0 = time.perf_counter()
            with (tracer.span("experiments.sweep") if tracer
                  else contextlib.nullcontext()):
                result = wl.runner(ds, spec)
                result.write_csv(sweep_csv)
                if result.bias_rows:
                    result.write_bias_csv(bias_csv)
            self.seconds = time.perf_counter() - t0
            self.models = len(result.grid) * spec.replicates
            self.grid = list(result.grid)
            self.cells = len(result.cells)
            rows = read_rows(sweep_csv)
            bias_rows = read_rows(bias_csv) if os.path.exists(bias_csv) \
                else []
            self.problems += check_common(result, rows, spec.replicates)
            self.problems += wl.check(result, rows, bias_rows)
            self.digests = {"sweep.csv": sha256(sweep_csv),
                            "bias_estimates.csv": sha256(bias_csv)}
        except Exception:  # a failed repetition is counted, not fatal
            self.problems.append(traceback.format_exc())
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    i = math.ceil(p / 100 * len(sorted_values)) - 1
    return sorted_values[max(0, i)]


def logreg_unconverged(attrs):
    """True when the returned weights miss the solver's own stopping rule:
    max |gradient| of the L2-penalised mean log loss >= grad_tol."""
    learner, train, model = attrs["learner"], attrs["train"], attrs["model"]
    w = model.params["w"]
    Xb = np.hstack([train.X, np.ones((train.n, 1))])
    z = Xb @ w
    p = np.exp(-np.logaddexp(0.0, -z))
    reg = w.copy()
    reg[-1] = 0.0
    grad = Xb.T @ (p - train.y) / train.n + learner.l2 * reg
    return float(np.max(np.abs(grad))) >= learner.grad_tol


def layer_metrics(tracer, traced):
    """Per-layer metrics, per traced sweep, from the recorded spans, and
    the fit-time tail's percentile and sample count."""
    from tracer import self_times

    spans = tracer.spans
    own = self_times(spans)

    def inclusive(name):
        total = 0.0
        for s in spans:
            if s.name == name and (s.parent < 0
                                   or spans[s.parent].name != name):
                total += s.duration
        return total

    def self_of(pred):
        return sum(t for s, t in zip(spans, own) if pred(s))

    def count(name):
        return sum(1 for s in spans if s.name == name)

    fits = [s for s in spans if s.name == "learners.fit"]
    fit_ms = sorted(1e3 * s.duration for s in fits)
    tail_p = next((p for p in TAIL_PERCENTILES
                   if len(fit_ms) * (100 - p) / 100 >= 10), 50)
    lr_fits = [s.attrs for s in fits if s.attrs["kind"] ==
               "logistic_regression" and not s.attrs["constant"]]
    costs = [s for s in spans if s.name == "group_metrics.group_cost"]
    per = 1.0 / len(traced)
    metrics = {
        "trace.sweep_s": (inclusive("experiments.sweep") * per, "s"),
        "dataset.load_csv_s": (statistics.median(
            s.duration for s in spans if s.name == "dataset.load_csv"), "s"),
        "dataset.holdout_split_s": (
            inclusive("dataset.holdout_split") * per, "s"),
        "dataset.draw_sample_s": (inclusive("dataset.draw_sample") * per,
                                  "s"),
        "dataset.draw_sample_calls": (count("dataset.draw_sample") * per,
                                      "count"),
        "learners.fit_s": (inclusive("learners.fit") * per, "s"),
        "learners.fit_calls": (len(fits) * per, "count"),
        "learners.fit_ms_p50": (percentile(fit_ms, 50) if fit_ms else 0.0,
                                "ms"),
        "learners.fit_ms_tail": (percentile(fit_ms, tail_p) if fit_ms
                                 else 0.0, "ms"),
        "learners.predict_s": (inclusive("learners.predict") * per, "s"),
        "learners.predict_rows": (
            sum(s.attrs["rows"] for s in spans
                if s.name == "learners.predict") * per, "count"),
        "learners.constant_models": (
            sum(1 for s in fits if s.attrs["constant"]) * per, "count"),
        "learners.logreg_unconverged": (
            sum(1 for a in lr_fits if logreg_unconverged(a)) * per, "count"),
        "group_metrics.group_cost_s": (
            self_of(lambda s: s.name == "group_metrics.group_cost") * per,
            "s"),
        "group_metrics.group_cost_calls": (len(costs) * per, "count"),
        "group_metrics.undefined_share": (
            sum(1 for s in costs if s.attrs["undefined"]) / len(costs)
            if costs else 0.0, "share"),
        "decomposition.self_s": (
            self_of(lambda s: s.layer == "decomposition") * per, "s"),
        "decomposition.decompose_bias_gap_s": (
            inclusive("decomposition.decompose_bias_gap") * per, "s"),
        "decomposition.decompose_points_s": (
            inclusive("decomposition.decompose_points") * per, "s"),
        "decomposition.decompose_points_calls": (
            count("decomposition.decompose_points") * per, "count"),
        "decomposition.main_prediction_s": (
            inclusive("decomposition.main_prediction") * per, "s"),
        "bias_estimators.estimate_s": (
            self_of(lambda s: s.name == "bias_estimators.estimate") * per,
            "s"),
        "bias_estimators.estimate_calls": (
            count("bias_estimators.estimate") * per, "count"),
        "experiments.self_s": (
            self_of(lambda s: s.name == "experiments.sweep") * per, "s"),
        "experiments.write_s": (inclusive("experiments.write") * per, "s"),
        "experiments.cells": (statistics.median(r.cells for r in traced),
                              "count"),
    }
    return metrics, {"learners.fit_tail_pct": (tail_p, "%"),
                     "learners.fit_samples": (len(fits), "count")}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fairsample", "__init__.py")):
        print(f"bench: no fairsample sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import fairsample
    from workloads import WORKLOADS

    if not fairsample.__file__.startswith(SRC):
        print(f"bench: imported fairsample from {fairsample.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(BENCH, "_work", f"{tag}-{os.getpid()}")
    results = os.path.join(BENCH, "results")
    os.makedirs(work, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    try:
        return _run(args, wl, tag, work, results)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, wl, tag, work, results):
    import fairsample
    from fairsample import dataset, synth
    from tracer import Tracer, install

    # inputs: generated from the seed before any timing
    csv_path = os.path.join(work, "data.csv")
    schema_path = os.path.join(work, "schema.json")
    synth.write_csv(synth.generate(wl.synth_spec(args.seed)), csv_path,
                    schema_path)
    spec = wl.sweep_spec(args.seed)

    tracer = Tracer() if args.trace else None
    reps, setup_times, rep_wall = [], [], []
    minimum = 2 if args.trace else 3
    start = time.perf_counter()
    while True:
        # start no repetition that would end past --seconds, so a run lasts
        # --seconds whatever the sweep's length
        elapsed = time.perf_counter() - start
        if len(reps) >= minimum and (
                elapsed + statistics.median(rep_wall) > args.seconds):
            break
        rep_start = time.perf_counter()
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = Repetition(len(reps), traced)
        if traced:
            install(tracer)
        try:
            for _ in range(SETUPS_PER_REP):
                seconds, ds = setup(dataset, csv_path, schema_path)
                setup_times.append(seconds)
            gc.collect()  # every sweep starts from a collected heap
            rep.run(wl, ds, spec, os.path.join(work, f"rep{rep.index}"),
                    tracer if traced else None)
        finally:
            if traced:
                tracer.unpatch()
        reps.append(rep)
        rep_wall.append(time.perf_counter() - rep_start)

    # a repetition fails if it raised, failed a check, or its CSVs differ
    # from the first completed repetition's: all reps share one seed
    first = next((r.digests for r in reps if r.digests), None)
    for r in reps:
        if r.digests and r.digests != first:
            r.problems.append(f"CSV digests {r.digests} differ from "
                              f"{first}")
    failed = [r for r in reps if r.problems]
    for r in failed:
        print(f"bench: repetition {r.index} failed:\n" +
              "\n".join(r.problems), file=sys.stderr)
    timed = [r for r in reps if r.seconds is not None and not r.traced]
    if not timed:
        print("bench: no repetition completed", file=sys.stderr)
        return 1
    sweep_s = statistics.fmean(r.seconds for r in timed)

    traced = [r for r in reps if r.seconds is not None and r.traced]
    if args.trace and not traced:
        print("bench: no traced repetition completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics, notes = layer_metrics(tracer, traced)
        metrics["trace.overhead_s"] = (
            statistics.fmean(r.seconds for r in traced) - sweep_s, "s")
        tracer.write(os.path.join(results, f"{tag}-spans.jsonl"))
    else:
        metrics = {
            "sweep_s": (sweep_s, "s"),
            "models_per_s": (timed[0].models / sweep_s, "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
        }
        notes = {"sweeps": (len(timed), "count"),
                 "sweep_s_median": (statistics.median(
                     r.seconds for r in timed), "s")}
    notes["failed_share"] = (len(failed) / len(reps), "share")
    done = next(r for r in reps if r.seconds is not None)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "K": spec.replicates,
        "grid": done.grid,
        "family": spec.family,
        "learner": wl.sweep["learner"].kind,
        "metrics_evaluated": list(spec.metrics),
        "synth": {k: (list(v) if isinstance(v, tuple) else v)
                  for k, v in wl.synth.items()},
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fairsample": fairsample.__version__,
        "setup_times_s": setup_times,
        "repetitions": [{"index": r.index, "traced": r.traced,
                         "seconds": r.seconds, "digests": r.digests,
                         "problems": r.problems} for r in reps],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in {**metrics, **notes}.items()},
    }
    with open(os.path.join(results, f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    print(f"workload {wl.name}  seed {args.seed}  K {spec.replicates}  "
          f"grid {done.grid}")
    print(f"nproc {record['nproc']}  cpu {record['cpu_model']}  "
          f"python {record['python']}  numpy {record['numpy']}")
    print(f"digests {first}")
    for name, (value, unit) in {**metrics, **notes}.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {len(failed)} of {len(reps)} repetitions failed")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
