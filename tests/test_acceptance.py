"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion and finishes with a
single [PASS] line; run with -v (or -s) to see one line per criterion.
"""

import csv
import json
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from fairsample import (Learner, PredictionEnsemble, SweepSpec, SynthSpec,
                        decompose_costs, draw_from_pools, ensemble_costs,
                        fit, generate, holdout_split,
                        run_decomposition_sweep, run_ssb_sweep,
                        run_urb_sweep, sd_bounds)
from fairsample.bias_estimators import MAIN_PREDICTION, MEAN_OVER_MODELS
from fairsample.cli import main
from fairsample.synth import write_csv
from oracles import (decompose_cost, decompose_points, oracle_decomposition,
                     oracle_metrics)
from reports import model_reports

FAST_TREE = Learner("decision_tree", max_depth=4, min_leaf=5)


def ok(num, text):
    print(f"[PASS] criterion {num}: {text}")


@pytest.fixture(scope="module")
def reg_ds():
    return generate(SynthSpec(n=3600, d=3, group1_share=0.4, seed=101,
                              task="regression", noise_sd=0.5))


@pytest.fixture(scope="module")
def null_clf_ds():
    # identical feature and outcome law in both groups
    return generate(SynthSpec(n=3600, d=2, group1_share=0.5, seed=103))


def random_regression_ensemble(rng, k=10, n=200):
    scores = rng.standard_normal((k, n))
    y = rng.standard_normal(n)
    a = rng.integers(0, 2, n)
    a[0], a[1] = 0, 1
    return PredictionEnsemble(scores, scores.copy(), y, a, "squared")


def random_binary_ensemble(rng, k, n):
    labels = rng.integers(0, 2, (k, n)).astype(float)
    scores = rng.random((k, n))
    y = rng.integers(0, 2, n).astype(float)
    a = rng.integers(0, 2, n)
    a[0], a[1] = 0, 1
    return PredictionEnsemble(scores, labels, y, a, "zero_one")


def test_c01_squared_loss_identity():
    rng = np.random.default_rng(201)
    start = time.perf_counter()
    for _ in range(100):
        ens = random_regression_ensemble(rng)
        rep = decompose_costs(ens, ensemble_costs(ens, ("MSE",)))["MSE"]
        for group in (0, 1):
            sel = ens.eval_a == group
            direct = float(np.mean((ens.scores[:, sel] -
                                    ens.eval_y[sel]) ** 2))
            assert abs(rep.cost(group) - direct) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    ok(1, f"per-group MSE = bias + variance within 1e-9 on 100 random "
          f"ensembles ({elapsed:.2f}s)")


def test_c02_zero_one_identity_exact():
    rng = np.random.default_rng(202)
    for _ in range(100):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(4, 60))
        ens = random_binary_ensemble(rng, k, n)
        pts = decompose_points(ens)
        for i in range(ens.n):
            total = pts.bias[i] + pts.net_factor[i] * pts.variance[i]
            assert total == pts.mean_loss[i]
        # the library's per-group terms are the group means of the
        # per-point terms over each metric's conditioning subset
        for metric in ("ZOL", "FPR", "EO"):
            rep = decompose_costs(ens, ensemble_costs(ens, (metric,)))
            assert rep[metric] == decompose_cost(ens, metric)
    ok(2, "per-point zero-one loss = bias + (sign) * variance exactly, and "
          "the per-group ZOL/FPR/EO terms are their group means, on 100 "
          "random ensembles")


def test_c03_gap_decomposition_identity(reg_ds):
    spec = SweepSpec(family="decomposition", grid=(20, 100, 500, 2000),
                     replicates=30, seed=301,
                     learner=Learner("linear_regression"), metrics=("MSE",),
                     threads=4)
    res = run_decomposition_sweep(reg_ds, spec)
    for row in res.rows:
        assert abs(row.mean - (row.bias_delta + row.netvar_delta)) < 1e-9
    spec_urb = SweepSpec(family="decomposition", grid=(0.1, 0.3, 0.5),
                         replicates=30, seed=302, decomp_kind="urb",
                         total_m=1000, learner=Learner("linear_regression"),
                         metrics=("MSE",), threads=4)
    res_urb = run_decomposition_sweep(reg_ds, spec_urb)
    for row in res_urb.rows:
        assert abs(row.mean - (row.bias_delta + row.netvar_delta)) < 1e-9
    ok(3, "size-gap and ratio-gap MSE totals equal bias-delta + "
          "net-variance-delta within 1e-9 at every grid point")


def _random_fixture(rng):
    n = int(rng.integers(4, 201))
    y = rng.integers(0, 2, n)
    labels = rng.integers(0, 2, n).astype(float)
    # discrete score levels force AUC ties
    scores = rng.choice([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], n)
    a = rng.integers(0, 2, n)
    return y, labels, scores, a


def test_c04_metric_oracle_equivalence():
    rng = np.random.default_rng(204)
    for _ in range(1000):
        y, labels, scores, a = _random_fixture(rng)
        for rep in oracle_metrics(y, labels, scores, a):
            mine = model_reports(y, labels, scores, a, (rep.metric,))[0]
            assert mine.value_a0 == rep.value_a0
            assert mine.value_a1 == rep.value_a1
    ok(4, "all metrics match the brute-force oracle exactly on 1000 "
          "random fixtures, including tied AUC")


def test_c05_eo_is_negated_fnr():
    rng = np.random.default_rng(205)
    for _ in range(1000):
        y, labels, scores, a = _random_fixture(rng)
        eo = model_reports(y, labels, None, a, ("EO",))[0].disc
        fnr = model_reports(y, labels, None, a, ("FNR",))[0].disc
        if eo is None:
            assert fnr is None
        else:
            assert eo == -fnr
    ok(5, "EO discrimination equals negated FNR discrimination exactly on "
          "1000 random fixtures")


def test_c06_definition_zeros(null_clf_ds):
    for estimator in (MAIN_PREDICTION, MEAN_OVER_MODELS):
        spec = SweepSpec(family="ssb_size", grid=(50, 200), replicates=4,
                         seed=61, learner=FAST_TREE, metrics=("EO", "SD"),
                         estimator=estimator)
        res = run_ssb_sweep(null_clf_ds, spec)
        at_ref = [b for b in res.bias_rows if b.target == "m=200"]
        assert at_ref and all(b.value == 0 for b in at_ref)
        spec = SweepSpec(family="urb_ratio", grid=(0.2, 0.5, 0.8),
                         replicates=4, seed=62, learner=FAST_TREE,
                         metrics=("EO", "SD"), estimator=estimator,
                         total_m=100)
        res = run_urb_sweep(null_clf_ds, spec)
        at_ref = [b for b in res.bias_rows if b.target == b.reference]
        assert at_ref and all(b.value == 0 for b in at_ref)
    ok(6, "size bias at m=M and ratio bias at the population split are "
          "exactly 0 under both estimator modes")


def test_c07_null_disparity_convergence():
    # fresh data per replicate: a shared holdout would freeze its own
    # sampling noise into every replicate's discrimination
    start = time.perf_counter()
    metrics = ("FPR", "FNR", "EO", "ZOL", "SD", "AUC")
    discs = {m: [] for m in metrics}
    learner = Learner("logistic_regression")
    for rep in range(30):
        ds = generate(SynthSpec(n=3600, d=2, group1_share=0.5,
                                seed=7000 + rep))
        pool, test = holdout_split(ds, 0.3, seed=rep)
        sample = draw_from_pools(pool, (pool.group_indices(0),
                                        pool.group_indices(1)),
                                 (1000, 1000), rep, 0, False)
        model = fit(learner, sample)
        scores, labels = model.predict(test.X)
        for m in metrics:
            d = model_reports(test.y, labels, scores, test.a, (m,))[0].disc
            discs[m].append(float(d))
    elapsed = time.perf_counter() - start
    for m in metrics:
        mean = float(np.mean(discs[m]))
        stderr = float(np.std(discs[m], ddof=1) / np.sqrt(30))
        assert abs(mean) <= 3 * stderr, (m, mean, stderr)
    assert elapsed < 60.0
    ok(7, f"no-disparity data: |mean disc| <= 3*stderr for all six metrics "
          f"at m=2000, K=30 ({elapsed:.1f}s)")


def test_c08_dispersion_shrinks_with_size(null_clf_ds):
    spec = SweepSpec(family="ssb_size", replicates=12, seed=81,
                     learner=Learner("logistic_regression"),
                     metrics=("EO", "FPR"), threads=4)
    res = run_ssb_sweep(null_clf_ds, spec)
    for metric in ("EO", "FPR"):
        ms, sds = [], []
        for m in res.grid:
            disc = [d for d in res.cells[(m, metric)]["disc"]
                    if d is not None]
            assert len(disc) >= 2
            ms.append(m)
            sds.append(float(np.std(disc, ddof=1)))
        rho = spearmanr(ms, sds)[0]
        assert rho <= -0.8, (metric, rho)
    ok(8, "replicate dispersion of EO and FPR discrimination decreases "
          "with size (Spearman <= -0.8 on the default grid)")


def _standin(tmp_path, name, n, share, seed, exact_share=None):
    """Synthetic stand-in for a benchmark dataset, persisted as CSV."""
    ds = generate(SynthSpec(n=int(n * 1.5), d=3, group1_share=share,
                            seed=seed, mean_shift=(0.8, 0.0, 0.0),
                            intercept_a1=-0.4))
    if exact_share is not None:
        n1 = int(round(exact_share * n))
        idx1 = np.flatnonzero(ds.a == 1)[:n1]
        idx0 = np.flatnonzero(ds.a == 0)[:n - n1]
        ds = ds.subset(np.sort(np.concatenate([idx0, idx1])))
    else:
        ds = ds.subset(np.arange(n))
    d = tmp_path / name
    d.mkdir()
    write_csv(ds, str(d / "data.csv"), str(d / "schema.json"))
    return d


def _config(tmp_path, name, data_dir, sweep, metrics=None):
    payload = {
        "dataset": {"csv": str(data_dir / "data.csv"),
                    "schema": str(data_dir / "schema.json")},
        "learner": {"kind": "decision_tree", "max_depth": 4, "min_leaf": 5},
        "sweep": sweep,
        "seed": 91,
    }
    if metrics:
        payload["metrics"] = metrics
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_c09_protocol_reproduction(tmp_path):
    # stand-ins for the three benchmark shapes: a 31%-minority income
    # dataset, a mid-sized recidivism dataset, a large balanced census
    income = _standin(tmp_path, "income", 2000, 0.31, 901, exact_share=0.31)
    recid = _standin(tmp_path, "recid", 3600, 0.45, 902)
    census = _standin(tmp_path, "census", 4000, 0.5, 903)

    # recidivism-style size sweep from 10 to 2000
    cfg = _config(tmp_path, "ssb.json", recid,
                  {"family": "ssb_size",
                   "grid": [10, 20, 50, 100, 200, 500, 1000, 2000],
                   "replicates": 5})
    out = tmp_path / "out_ssb"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--threads", "4"]) == 0
    rows = _read_rows(out / "sweep.csv")
    assert len(rows) == 8 * 6
    assert {r["grid_value"] for r in rows} >= {"10", "2000"}
    assert (out / "bias_estimates.csv").exists()

    # census-style ratio sweep at m=1000 with the default dense grid
    cfg = _config(tmp_path, "urb.json", census,
                  {"family": "urb_ratio", "total_m": 1000, "replicates": 3},
                  metrics=["EO", "SD"])
    out = tmp_path / "out_urb"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--threads", "4"]) == 0
    rows = _read_rows(out / "sweep.csv")
    vals = sorted(float(r["grid_value"]) for r in rows)
    assert min(vals) == 0.001 and max(vals) == 0.999
    assert 0.003 in vals and 0.997 in vals
    assert len({v for v in vals}) >= 30

    # collection simulation: fixed majority 100, minority 2..100, K=50
    for variant in ("minority_random", "majority_random",
                    "minority_positive_only"):
        cfg = _config(tmp_path, f"collect_{variant}.json", income,
                      {"family": "collect", "fixed_majority": 100,
                       "replicates": 50, "variant": variant},
                      metrics=["EO", "SD"])
        out = tmp_path / f"out_collect_{variant}"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--threads", "4"]) == 0
        rows = _read_rows(out / "sweep.csv")
        assert {int(r["grid_value"]) for r in rows} == set(range(2, 101, 2))
        assert all(r["k_total"] == "50" for r in rows)

    manifest = json.loads((tmp_path / "out_collect_minority_random" /
                           "manifest.json").read_text())
    assert abs(manifest["population_ratio"] - 0.31) < 1e-9
    ok(9, "size sweep to 2000, dense ratio sweep at m=1000, and all three "
          "collection variants run end to end; manifest records the 31% "
          "population share")


def test_c10_determinism_across_worker_counts(tmp_path):
    data = _standin(tmp_path, "det", 1200, 0.4, 904)
    cfg = _config(tmp_path, "det.json", data,
                  {"family": "ssb_size", "grid": [20, 100],
                   "replicates": 4}, metrics=["EO", "SD"])
    outputs = []
    for threads in (1, 4, 8):
        out = tmp_path / f"det_out_{threads}"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--threads", str(threads)]) == 0
        outputs.append(((out / "sweep.csv").read_bytes(),
                        (out / "bias_estimates.csv").read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]
    ok(10, "sweep output is byte-identical for worker counts 1, 4, and 8")


def test_c11_sd_bounds_match_oracle():
    rng = np.random.default_rng(211)
    records = []
    for _ in range(100):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(4, 21))
        ens = random_binary_ensemble(rng, k, n)
        rep = sd_bounds(ens)
        _, bias, variance, net_factor, _ = oracle_decomposition(
            ens, "absolute")
        for group in (0, 1):
            sel = [i for i in range(n) if ens.eval_a[i] == group]
            b = sum(bias[i] for i in sel) / len(sel)
            v = sum(net_factor[i] * variance[i] for i in sel) / len(sel)
            assert getattr(rep, f"bias_a{group}") == b
            assert getattr(rep, f"net_variance_a{group}") == v
        records.append(rep)
    assert all(isinstance(r.within_bounds, bool) for r in records)
    inside = sum(r.within_bounds for r in records)
    ok(11, f"disparity-bound components match the exhaustive oracle on 100 "
           f"fixtures; observed gap within bounds for {inside}/100 "
           f"(reported, not asserted)")
