from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsample import (ConfigError, DataError, Dataset, Learner, SweepSpec,
                        SynthSpec, generate, run_collect_sim,
                        run_decomposition_sweep, run_ssb_sweep,
                        run_urb_sweep)
from fairsample import decomposition, experiments, group_metrics
from fairsample.dataset import holdout_split, population_ratio
from fairsample.experiments import (DEFAULT_URB_GRID, _mean_stderr,
                                    _split_counts, default_ssb_grid,
                                    task_seed)

FAST_TREE = Learner("decision_tree", max_depth=3, min_leaf=5)
FAST_OLS = Learner("linear_regression")


@pytest.fixture(scope="module")
def clf_ds():
    return generate(SynthSpec(n=600, d=2, group1_share=0.4, seed=21))


@pytest.fixture(scope="module")
def reg_ds():
    return generate(SynthSpec(n=600, d=2, group1_share=0.4, seed=22,
                              task="regression", noise_sd=0.5))


def test_mean_stderr_documented_example():
    mean, stderr, k = _mean_stderr([0.1, 0.3])
    assert mean == pytest.approx(0.2)
    assert stderr == pytest.approx(0.1)
    assert k == 2


def test_mean_stderr_edge_cases():
    assert _mean_stderr([]) == (None, None, 0)
    assert _mean_stderr([None, None]) == (None, None, 0)
    mean, stderr, k = _mean_stderr([0.5, None])
    assert (mean, stderr, k) == (0.5, None, 1)


def test_task_seed_stable_and_distinct():
    s = task_seed(7, "ssb_size", 100)
    assert s == task_seed(7, "ssb_size", 100)
    assert 0 <= s < 2 ** 63
    assert s != task_seed(7, "ssb_size", 200)
    assert s != task_seed(8, "ssb_size", 100)
    assert s != task_seed(7, "urb_ratio", 100)


def test_task_seed_hashes_numpy_scalars_as_python_numbers():
    assert task_seed(7, "ssb_size", np.int64(20)) == task_seed(7, "ssb_size",
                                                               20)
    assert task_seed(7, "decomposition", ("ssb", np.int64(14), 6)) == \
        task_seed(7, "decomposition", ("ssb", 14, 6))
    assert task_seed(7, "collect", ("minority_random", np.float64(0.5))) == \
        task_seed(7, "collect", ("minority_random", 0.5))


def _ints(*values):
    return tuple(np.array(values))


# per family, a spec with Python numbers and the equal spec with numpy
# scalars where a config built in code may carry them
NUMPY_SPECS = {
    "ssb_size": ({"grid": (20, 100)}, {"grid": _ints(20, 100)}),
    "collect": ({"grid": (4, 20), "fixed_majority": 40},
                {"grid": _ints(4, 20), "fixed_majority": np.int64(40)}),
    "decomposition": ({"grid": (20, 100)}, {"grid": _ints(20, 100)}),
    "urb_ratio": ({"grid": (0.2, 0.5), "total_m": 80},
                  {"grid": _ints(0.2, 0.5), "total_m": np.int64(80)}),
    "urb decomposition": (
        {"family": "decomposition", "decomp_kind": "urb",
         "grid": (0.2, 0.5), "total_m": 80},
        {"family": "decomposition", "decomp_kind": "urb",
         "grid": _ints(0.2, 0.5), "total_m": np.int64(80)}),
}
RUNNERS = {"ssb_size": run_ssb_sweep, "urb_ratio": run_urb_sweep,
           "decomposition": run_decomposition_sweep,
           "collect": run_collect_sim}


@pytest.mark.parametrize("family", NUMPY_SPECS)
def test_equal_specs_with_numpy_scalars_write_the_same_bytes(
        family, clf_ds, tmp_path):
    specs = [SweepSpec(**{"family": family, **kw}, replicates=2, seed=3,
                       learner=FAST_TREE) for kw in NUMPY_SPECS[family]]
    assert specs[0] == specs[1]
    written = []
    for i, spec in enumerate(specs):
        result = RUNNERS[spec.family](clf_ds, spec)
        result.write_csv(tmp_path / f"sweep{i}.csv")
        result.write_bias_csv(tmp_path / f"bias{i}.csv")
        written.append([(tmp_path / f"{name}{i}.csv").read_bytes()
                        for name in ("sweep", "bias")])
    assert written[0] == written[1]


PREFIX_SYNTH = SynthSpec(n=1500, d=3, group1_share=0.3, seed=5)
PREFIX_LEARNERS = {
    "lr": Learner("logistic_regression"), "knn": Learner("knn", k=5),
    "tree": Learner("decision_tree", max_depth=4, min_leaf=5),
    "ols": FAST_OLS}
PREFIX_SPECS = {
    "ssb_size": {"family": "ssb_size", "grid": (20, 100, 400)},
    "urb_ratio": {"family": "urb_ratio", "grid": (0.1, 0.3, 0.5),
                  "total_m": 200},
    "decomposition": {"family": "decomposition", "decomp_kind": "urb",
                      "grid": (0.1, 0.3, 0.5), "total_m": 200},
    "collect": {"family": "collect", "grid": (4, 20, 60),
                "fixed_majority": 60},
    "collect_cv": {"family": "collect", "grid": (4, 20, 60),
                   "fixed_majority": 60, "use_cv": True},
}


@pytest.fixture(scope="module")
def prefix_data():
    return {task: generate(replace(PREFIX_SYNTH, task=task))
            for task in ("classification", "regression")}


# collect simulates a classification task only
@pytest.mark.parametrize("case, learner", [
    (case, learner) for case in PREFIX_SPECS for learner in PREFIX_LEARNERS
    if not (learner == "ols" and case.startswith("collect"))])
def test_replicates_are_a_prefix_of_a_larger_sweep(case, learner,
                                                   prefix_data):
    # replicate k of a cell draws the same sample whatever K is, so a K=3
    # sweep's per-replicate values are the first three of a K=6 sweep's
    kw = PREFIX_SPECS[case]
    ds = prefix_data["regression" if learner == "ols" else "classification"]
    small, large = (RUNNERS[kw["family"]](ds, SweepSpec(
        **kw, replicates=k, seed=4, learner=PREFIX_LEARNERS[learner]))
        for k in (3, 6))
    # a decomposition's per-replicate disc is a model's gap to the
    # reference ensemble's K-model mean, so it depends on K by design
    keys = ("a0", "a1") if kw["family"] == "decomposition" \
        else ("a0", "a1", "disc")
    assert small.cells.keys() == large.cells.keys()
    for cell, values in small.cells.items():
        for key in keys:
            assert values[key] == large.cells[cell][key][:3], (cell, key)


def test_default_ssb_grid():
    assert default_ssb_grid(1000, 0.8) == (10, 20, 50, 100, 200, 500, 800)
    assert default_ssb_grid(3000, 0.8) == (10, 20, 50, 100, 200, 500, 1000,
                                           2000, 2400)
    with pytest.raises(DataError, match="pool too small"):
        default_ssb_grid(12, 0.8)


def test_default_urb_grid():
    grid = DEFAULT_URB_GRID
    # dense 0.002 steps below 2 percent and above 98 percent
    for v in (0.001, 0.003, 0.019, 0.981, 0.983, 0.999):
        assert v in grid
    # coarse 0.1 steps in the middle; the resolver adds the population
    # split's point
    for v in (0.1, 0.5, 0.9):
        assert v in grid
    assert grid == tuple(sorted(grid))
    assert len(grid) == 10 + 9 + 10


def test_spec_validation():
    with pytest.raises(ConfigError, match="unknown family"):
        SweepSpec(family="nope")
    with pytest.raises(ConfigError, match="strictly increasing"):
        SweepSpec(family="ssb_size", grid=(10, 10, 20))
    with pytest.raises(ConfigError, match="replicates"):
        SweepSpec(family="ssb_size", replicates=1)
    with pytest.raises(ConfigError, match="unknown metric"):
        SweepSpec(family="ssb_size", metrics=("WOMBAT",))
    with pytest.raises(ConfigError, match="unknown collect variant"):
        SweepSpec(family="collect", variant="everything_random")
    for portion in (float("nan"), float("inf"), 0.0, -0.5):
        with pytest.raises(ConfigError, match="pool_portion"):
            SweepSpec(family="ssb_size", pool_portion=portion)
    # counts must be integers (numpy ints count), ratios finite
    nan = float("nan")
    for field, value in (("replicates", 2.5), ("replicates", nan),
                         ("cv_folds", nan), ("total_m", nan),
                         ("total_m", 60.5), ("fixed_majority", 2.5),
                         ("seed", nan)):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            SweepSpec(family="collect", **{field: value})
    SweepSpec(family="collect", replicates=np.int64(3), seed=np.int32(1),
              total_m=np.int64(60), grid=(np.int64(4), 20))
    for kw, message in (({"estimator": "median"}, "unknown estimator"),
                        ({"decomp_kind": "both"}, "unknown decomp_kind"),
                        ({"test_fraction": 0.0}, "test_fraction must be in"),
                        ({"test_fraction": 1.0}, "test_fraction must be in"),
                        ({"cv_folds": 1}, "cv_folds must be >= 2"),
                        ({"seed": -1}, "seed must be non-negative")):
        with pytest.raises(ConfigError, match=message):
            SweepSpec(family="decomposition", **kw)
    for family, kind in (("ssb_size", "ssb"), ("collect", "ssb"),
                         ("decomposition", "ssb")):
        with pytest.raises(ConfigError, match="grid point must be an int"):
            SweepSpec(family=family, decomp_kind=kind, grid=(10, 20.5))
    for family, kind in (("urb_ratio", "ssb"), ("decomposition", "urb")):
        for bad in (nan, float("inf")):
            with pytest.raises(ConfigError, match="ratio grid point must "
                                                  "be finite"):
                SweepSpec(family=family, decomp_kind=kind, grid=(0.2, bad))


def test_pool_portion_above_one_reaches_the_grid_check(clf_ds):
    # a cap above the pool is a grid point the pool cannot draw
    spec = SweepSpec(family="ssb_size", replicates=3, seed=2,
                     learner=FAST_TREE, metrics=("SD",), pool_portion=1.5)
    with pytest.raises(DataError, match="infeasible grid points"):
        run_ssb_sweep(clf_ds, spec)


def test_ssb_sweep_shape_and_reference_zero(clf_ds):
    spec = SweepSpec(family="ssb_size", grid=(20, 50, 100), replicates=4,
                     seed=5, learner=FAST_TREE, metrics=("EO", "SD"))
    res = run_ssb_sweep(clf_ds, spec)
    assert res.grid_param == "m"
    assert len(res.rows) == 6
    for row in res.rows:
        assert row.k_total == 4
    # SSB of the largest grid size against itself is exactly zero
    at_ref = [b for b in res.bias_rows if b.target == "m=100"]
    assert len(at_ref) == 2
    assert all(b.value == 0 for b in at_ref)
    # smaller sizes get a bias row per metric too
    assert len(res.bias_rows) == 6


def test_ssb_sweep_thread_count_irrelevant(clf_ds, tmp_path):
    outs = []
    for threads in (1, 3):
        spec = SweepSpec(family="ssb_size", grid=(20, 60), replicates=4,
                         seed=9, learner=FAST_TREE, metrics=("SD", "ZOL"),
                         threads=threads)
        res = run_ssb_sweep(clf_ds, spec)
        path = tmp_path / f"t{threads}.csv"
        res.write_csv(path)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_ssb_sweep_seed_changes_results(clf_ds):
    rows = []
    for seed in (1, 2):
        spec = SweepSpec(family="ssb_size", grid=(20, 60), replicates=4,
                         seed=seed, learner=FAST_TREE, metrics=("SD",))
        res = run_ssb_sweep(clf_ds, spec)
        rows.append([r.mean for r in res.rows])
    assert rows[0] != rows[1]


def test_urb_sweep_population_reference(clf_ds):
    spec = SweepSpec(family="urb_ratio", grid=(0.2, 0.5, 0.8), replicates=3,
                     seed=3, learner=FAST_TREE, metrics=("SD",), total_m=60)
    res = run_urb_sweep(clf_ds, spec)
    # the population ratio is appended to the grid as the URB reference
    assert len(res.grid) == 4
    assert any(abs(g - res.population_ratio) < 1e-6 for g in res.grid)
    ref = [b for b in res.bias_rows if b.target == b.reference]
    assert ref and all(b.value == 0 for b in ref)


def test_urb_sweep_degenerate_ratio_rejected(clf_ds):
    spec = SweepSpec(family="urb_ratio", grid=(0.001, 0.5), replicates=3,
                     seed=3, learner=FAST_TREE, metrics=("SD",), total_m=60)
    with pytest.raises(ConfigError, match="empty group"):
        run_urb_sweep(clf_ds, spec)


def _count_fit_many(monkeypatch):
    """The samples of every experiments.fit_many call, in call order; it is
    the only fitter experiments calls."""
    assert not hasattr(experiments, "fit")
    fitted = []
    real = experiments.fit_many
    monkeypatch.setattr(experiments, "fit_many",
                        lambda learner, samples: fitted.append(samples)
                        or real(learner, samples))
    return fitted


def test_infeasible_grid_rejected_before_any_fit(clf_ds, monkeypatch):
    fits = _count_fit_many(monkeypatch)
    ds = generate(SynthSpec(n=4000, d=5, group1_share=0.3, seed=1))
    pool, _ = holdout_split(ds, 0.3, 1)
    a1_rows = len(pool.group_indices(1))
    grid = DEFAULT_URB_GRID
    short = [r for r in grid if _split_counts(r, 1000)[1] > a1_rows]
    assert 0 < len(short) < len(grid)
    for run, kw in ((run_urb_sweep, {"family": "urb_ratio"}),
                    (run_decomposition_sweep, {"family": "decomposition",
                                               "decomp_kind": "urb"})):
        # an explicit grid is kept as given; the default one drops them
        spec = SweepSpec(replicates=2, seed=1, total_m=1000, grid=grid, **kw)
        with pytest.raises(DataError, match="group pool exhausted") as err:
            run(ds, spec)
        # one error names every infeasible grid point
        assert str(err.value).count(f"pool has {a1_rows}") == len(short)
        for r in short:
            assert f"{r!r} needs" in str(err.value)
        with pytest.raises(ConfigError, match="empty group"):
            run(clf_ds, replace(spec, grid=(0.001, 0.5), total_m=60))
    # SSB sizes past the pools (210 rows here) fail the same check
    small = generate(SynthSpec(n=300, d=2, group1_share=0.3, seed=1))
    for run, kw in ((run_ssb_sweep, {"family": "ssb_size"}),
                    (run_decomposition_sweep, {"family": "decomposition"})):
        spec = SweepSpec(replicates=2, seed=1, grid=(20, 250, 400), **kw)
        with pytest.raises(DataError, match="group pool exhausted") as err:
            run(small, spec)
        assert [m for m in spec.grid if f"{m!r} needs" in str(err.value)] \
            == [250, 400]
    assert fits == []


def test_ssb_sizes_past_the_pool_draw_with_replacement(monkeypatch):
    fitted = _count_fit_many(monkeypatch)
    small = generate(SynthSpec(n=300, d=2, group1_share=0.3, seed=1))
    for run, kw in ((run_ssb_sweep, {"family": "ssb_size"}),
                    (run_decomposition_sweep, {"family": "decomposition"})):
        fitted.clear()
        spec = SweepSpec(replicates=2, seed=1, grid=(20, 250, 400),
                         learner=FAST_TREE, metrics=("ZOL",),
                         with_replacement=True, **kw)
        res = run(small, spec)
        assert [r.grid_value for r in res.rows] == [20, 250, 400]
        # the reference (400) is fitted first
        assert sorted(s.n for samples in fitted for s in samples) == \
            [20, 20, 250, 250, 400, 400]


@pytest.mark.parametrize("family, grid, bad, kw", [
    ("urb_ratio", (0.2, 0.5, 1.5), [1.5], {"total_m": 60}),
    ("decomposition", (0.2, 0.5, 1.2), [1.2],
     {"total_m": 60, "decomp_kind": "urb"}),
    ("ssb_size", (-10, 20, 50), [-10], {}),
    ("ssb_size", (0, 20, 50), [0], {}),
    ("collect", (-4, 10), [-4], {"fixed_majority": 40}),
    # one error names every bad point
    ("ssb_size", (-10, 0, 20), [-10, 0], {}),
    # a 1-row draw leaves one CV fold nothing to train on
    ("collect", (1, 10), [1], {"fixed_majority": 0, "use_cv": True}),
])
def test_impossible_grid_points_rejected_before_any_fit(clf_ds, monkeypatch,
                                                         family, grid, bad,
                                                         kw):
    # a negative group count, an empty training set or a 1-row CV draw
    fits = _count_fit_many(monkeypatch)
    spec = SweepSpec(family=family, grid=grid, replicates=2, seed=1,
                     learner=FAST_TREE, metrics=("ZOL",), **kw)
    run = {"ssb_size": run_ssb_sweep, "urb_ratio": run_urb_sweep,
           "decomposition": run_decomposition_sweep,
           "collect": run_collect_sim}[family]
    with pytest.raises(ConfigError, match="infeasible grid points") as err:
        run(clf_ds, spec)
    assert [p for p in grid if f"{p!r} gives" in str(err.value)] == bad
    assert fits == []


def test_one_fit_many_per_unique_cell(clf_ds, monkeypatch):
    fitted = _count_fit_many(monkeypatch)
    # a collect grid of G points makes G calls of K draws each
    spec = SweepSpec(family="collect", grid=(4, 10, 20), replicates=3,
                     seed=17, learner=FAST_TREE, metrics=("SD",),
                     fixed_majority=40, variant="minority_positive_only")
    run_collect_sim(clf_ds, spec)
    assert [len(samples) for samples in fitted] == [3, 3, 3]
    # the growing group is drawn from its positive rows only
    for samples in fitted:
        assert all(np.all(s.y[s.a == 1] == 1) for s in samples)

    # with use_cv, every fold of every draw goes into the cell's one call
    fitted.clear()
    run_collect_sim(clf_ds, replace(spec, use_cv=True, cv_folds=4))
    assert [len(samples) for samples in fitted] == [3 * 4] * 3

    # ratios that give the same counts share one cell: two at the
    # population split (the reference) and two at 12 of 60 rows
    fitted.clear()
    pop = _split_counts(population_ratio(clf_ds), 60)
    r_a, r_b = round(pop[1] / 60, 6), round((pop[1] + 0.3) / 60, 6)
    assert _split_counts(r_a, 60) == _split_counts(r_b, 60) == pop
    assert _split_counts(0.2, 60) == _split_counts(0.205, 60) != pop
    grid = (0.2, 0.205, r_a, r_b, 0.8)
    spec = SweepSpec(family="urb_ratio", grid=grid, replicates=3, seed=3,
                     learner=FAST_TREE, metrics=("SD",), total_m=60)
    res = run_urb_sweep(clf_ds, spec)
    assert len(fitted) == 3
    assert res.grid == grid
    at_ref = [b for b in res.bias_rows if b.target == b.reference]
    assert len(at_ref) == 2 and all(b.value == 0 for b in at_ref)


def test_main_prediction_once_per_distinct_cell(clf_ds, monkeypatch):
    # the shared-cell ratio grid above: five points, three distinct cells
    calls = []
    real = decomposition.main_prediction
    monkeypatch.setattr(decomposition, "main_prediction",
                        lambda ens: calls.append(ens.k) or real(ens))
    pop = _split_counts(population_ratio(clf_ds), 60)
    r_a, r_b = round(pop[1] / 60, 6), round((pop[1] + 0.3) / 60, 6)
    spec = SweepSpec(family="urb_ratio", grid=(0.2, 0.205, r_a, r_b, 0.8),
                     replicates=3, seed=3, learner=FAST_TREE,
                     metrics=("SD",), total_m=60, estimator="main_prediction")
    res = run_urb_sweep(clf_ds, spec)
    # one main prediction per cell; once per grid point plus the
    # reference's made 6
    assert calls == [3, 3, 3]
    assert len(res.bias_rows) == 5
    assert {b.k for b in res.bias_rows} == {3}


@pytest.mark.parametrize("total_m", [0, 1])
def test_degenerate_population_split_rejected_before_any_fit(
        clf_ds, monkeypatch, total_m):
    # urb_ratio used to raise a DataError, URB decomposition a ConfigError
    # listing every grid point
    fits = _count_fit_many(monkeypatch)
    pop = _split_counts(population_ratio(clf_ds), total_m)
    assert min(pop) == 0
    for run, kw in ((run_urb_sweep, {"family": "urb_ratio"}),
                    (run_decomposition_sweep, {"family": "decomposition",
                                               "decomp_kind": "urb"})):
        for grid in ((0.2, 0.5), ()):
            spec = SweepSpec(grid=grid, replicates=2, seed=1,
                             learner=FAST_TREE, metrics=("ZOL",),
                             total_m=total_m, **kw)
            with pytest.raises(ConfigError) as err:
                run(clf_ds, spec)
            assert str(err.value).startswith(
                f"total_m={total_m} splits the population "
                f"{pop[1]}/{pop[0]} (a1/a0)")
            assert "gives" not in str(err.value)
    assert fits == []


def test_size_sweep_packs_small_cells_into_one_fit_many(monkeypatch):
    fitted = _count_fit_many(monkeypatch)
    # the ssb_logreg benchmark's data shape and default grid
    ds = generate(SynthSpec(n=4000, d=5, group1_share=0.3, seed=1))
    spec = SweepSpec(family="ssb_size", replicates=2, seed=1,
                     metrics=("ZOL",))
    res = run_ssb_sweep(ds, spec)
    *small, m2000, cap = res.grid
    assert small == [10, 20, 50, 100, 200, 500, 1000] and m2000 == 2000
    # the reference first, then the cells of 10 to 1000 rows (1880 in all)
    # together, until 2000 more would pass the reference's rows
    assert [sorted({s.n for s in samples}) for samples in fitted] == [
        [cap], small, [m2000]]
    assert all(sum(s.n for s in samples) <= spec.replicates * cap
               for samples in fitted)
    assert sorted(s.n for samples in fitted for s in samples) == sorted(
        m for m in res.grid for _ in range(spec.replicates))


def test_decomposition_sweep_mse_identity(reg_ds):
    spec = SweepSpec(family="decomposition", grid=(20, 50, 120),
                     replicates=4, seed=11, learner=FAST_OLS,
                     metrics=("MSE",))
    res = run_decomposition_sweep(reg_ds, spec)
    assert len(res.rows) == 3
    for row in res.rows:
        assert abs(row.mean - (row.bias_delta + row.netvar_delta)) < 1e-9
    ref_row = [r for r in res.rows if r.grid_value == 120][0]
    assert ref_row.mean == 0.0
    assert ref_row.bias_delta == 0.0 and ref_row.netvar_delta == 0.0


def test_decomposition_sweep_urb_kind(clf_ds):
    spec = SweepSpec(family="decomposition", grid=(0.2, 0.4, 0.6),
                     replicates=3, seed=13, learner=FAST_TREE,
                     metrics=("ZOL",), decomp_kind="urb", total_m=60)
    res = run_decomposition_sweep(clf_ds, spec)
    assert res.grid_param == "ratio"
    # the reference is the grid point that splits as the population does
    pop = _split_counts(res.population_ratio, 60)
    ref = next(r for r in res.grid if _split_counts(r, 60) == pop)
    row = [r for r in res.rows if r.grid_value == ref][0]
    assert row.mean == 0.0


@pytest.fixture(scope="module")
def split_ds():
    """10003 rows, 3351 in group a1: at total_m=100 the population splits
    (67, 33), but its ratio rounded to 6 places, 0.335, splits (66, 34)."""
    rng = np.random.default_rng(5)
    n = 10003
    a = np.zeros(n, dtype=int)
    a[rng.permutation(n)[:3351]] = 1
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] + 0.5 * a + rng.normal(size=n) > 0).astype(float)
    return Dataset(X, y, a, np.arange(n))


def test_ratio_reference_is_the_population_split(split_ds):
    ratio = population_ratio(split_ds)
    assert _split_counts(ratio, 100) == (67, 33)
    assert _split_counts(round(ratio, 6), 100) == (66, 34)
    for family, kw in (("urb_ratio", {}),
                       ("decomposition", {"decomp_kind": "urb"})):
        spec = SweepSpec(family=family, replicates=2, seed=1,
                         learner=FAST_TREE, metrics=("ZOL",), total_m=100,
                         **kw)
        plan = experiments._resolve(split_ds, spec)
        assert plan.cells[plan.ref].counts == (67, 33)
        assert plan.ref == next(g for g in plan.grid
                                if plan.cells[g].counts == (67, 33))
    # a default urb_ratio used to exit 2: "ratio grid must include the
    # population ratio"
    res = run_urb_sweep(split_ds, replace(spec, family="urb_ratio"))
    at_ref = [b for b in res.bias_rows if b.target == b.reference]
    assert [b.target for b in at_ref] == ["split=33/67"]
    assert at_ref[0].value == 0
    # a decomposition used to take (66, 34), the ratio nearest the
    # population's, as its zero row
    res = run_decomposition_sweep(split_ds, spec)
    zero = [r for r in res.rows if r.bias_delta == r.netvar_delta == 0.0]
    assert [_split_counts(r.grid_value, 100) for r in zero] == [(67, 33)]
    assert zero[0].mean == 0.0


def test_decomposition_reference_is_not_the_nearest_ratio(split_ds):
    # 0.335 is the point nearest the population ratio but splits (66, 34);
    # 0.3349 splits (67, 33)
    grid = (0.2, 0.3349, 0.335, 0.5)
    spec = SweepSpec(family="decomposition", decomp_kind="urb", grid=grid,
                     replicates=2, seed=1, learner=FAST_TREE,
                     metrics=("ZOL",), total_m=100)
    ratio = population_ratio(split_ds)
    assert min(grid, key=lambda r: abs(r - ratio)) == 0.335
    res = run_decomposition_sweep(split_ds, spec)
    assert res.grid == grid
    rows = {r.grid_value: r for r in res.rows}
    assert rows[0.3349].mean == 0.0
    assert rows[0.3349].bias_delta == rows[0.3349].netvar_delta == 0.0
    assert rows[0.335].mean != 0.0


def test_decomposition_rows_are_mean_over_models_for_any_estimator(clf_ds):
    # the gap terms and totals are mean-over-models whatever the estimator
    spec = SweepSpec(family="decomposition", grid=(0.2, 0.4, 0.6),
                     replicates=3, seed=13, learner=FAST_TREE,
                     decomp_kind="urb", total_m=60)
    default = run_decomposition_sweep(clf_ds, spec)
    main = run_decomposition_sweep(clf_ds, replace(
        spec, estimator="main_prediction"))
    assert main.rows == default.rows
    assert {r.estimator for r in main.rows} == {"mean_over_models"}


def test_decomposition_rejects_metrics_without_decomposition(reg_ds):
    spec = SweepSpec(family="decomposition", grid=(20, 50), replicates=3,
                     seed=1, learner=FAST_OLS, metrics=("MSE",))
    bad = SweepSpec(family="decomposition", grid=(20, 50), replicates=3,
                    seed=1, learner=FAST_TREE, metrics=("SD",))
    run_decomposition_sweep(reg_ds, spec)
    with pytest.raises(ConfigError, match="no decomposition"):
        run_decomposition_sweep(generate(SynthSpec(
            n=400, d=2, group1_share=0.4, seed=30)), bad)


def test_collect_sim_variants(clf_ds):
    for variant in ("minority_random", "majority_random",
                    "minority_positive_only"):
        # n1 = 0 is a valid point: the growing group starts empty
        spec = SweepSpec(family="collect", grid=(0, 4, 10, 20),
                         replicates=3, seed=17, learner=FAST_TREE,
                         metrics=("SD", "ZOL"), fixed_majority=40,
                         variant=variant)
        res = run_collect_sim(clf_ds, spec)
        assert res.grid_param == "n1"
        assert len(res.rows) == 8
        for row in res.rows:
            assert row.estimator == "holdout"
            assert row.k_total == 3


def test_collect_sim_cv_label(clf_ds):
    spec = SweepSpec(family="collect", grid=(10, 20), replicates=3, seed=17,
                     learner=FAST_TREE, metrics=("ZOL",), fixed_majority=40,
                     use_cv=True, cv_folds=3)
    res = run_collect_sim(clf_ds, spec)
    assert all(row.estimator == "cv3" for row in res.rows)


def test_collect_sim_pool_exhaustion(clf_ds):
    spec = SweepSpec(family="collect", grid=(4, 100000), replicates=2,
                     seed=1, learner=FAST_TREE, metrics=("SD",),
                     fixed_majority=40)
    with pytest.raises(DataError, match="growing pool"):
        run_collect_sim(clf_ds, spec)


def test_collect_sim_with_replacement_draws_past_its_pools(monkeypatch):
    ds = generate(SynthSpec(n=600, d=3, group1_share=0.3, seed=1))
    spec = SweepSpec(family="collect", grid=(0, 5), replicates=2, seed=1,
                     learner=FAST_TREE, metrics=("ZOL",),
                     fixed_majority=1000, with_replacement=True)
    fitted = _count_fit_many(monkeypatch)
    for s in (spec, replace(spec, fixed_majority=40, grid=(5, 500))):
        fitted.clear()
        run_collect_sim(ds, s)
        assert [[x.n for x in samples] for samples in fitted] == [
            [s.fixed_majority + n1] * 2 for n1 in s.grid]
    # without replacement, one error names every short point
    fitted.clear()
    with pytest.raises(DataError, match="growing pool") as err:
        run_collect_sim(ds, replace(spec, grid=(5, 300, 500),
                                    with_replacement=False))
    msg = str(err.value)
    assert msg.count("needs 1000 rows from fixed group a0") == 3
    assert "300 needs 300 rows" in msg and "500 needs 500 rows" in msg
    assert "5 needs 5 rows" not in msg
    assert fitted == []


# a size grid from m=1, whose 30% split leaves group a1 empty, and a ratio
# grid, each with its base family
BASE_SWEEPS = {
    "ssb": (run_ssb_sweep, "ssb_size", {"grid": (1, 20, 100)}),
    "urb": (run_urb_sweep, "urb_ratio", {"grid": (0.2, 0.5, 0.8),
                                         "total_m": 60}),
}


def _decomposition_and_base(ds, kind, estimators, **common):
    """A decomposition sweep and its base sweep under each estimator."""
    run, family, grid = BASE_SWEEPS[kind]
    dec = run_decomposition_sweep(ds, SweepSpec(
        family="decomposition", decomp_kind=kind, **grid, **common))
    bases = [run(ds, SweepSpec(family=family, estimator=e, **grid, **common))
             for e in estimators]
    # the same (grid value, metric) points, in the same order, both ways
    points = [(r.grid_value, r.metric) for r in dec.rows]
    for base in bases:
        assert [(r.grid_value, r.metric) for r in base.rows] == points
        assert [b.metric for b in base.bias_rows] == [m for _, m in points]
    return dec, bases


@pytest.mark.parametrize("kind", BASE_SWEEPS)
@pytest.mark.parametrize("learner", [
    Learner(), Learner("knn", k=5),
    Learner("decision_tree", max_depth=4, min_leaf=5)],
    ids=["logreg", "knn", "tree"])
def test_decomposition_rows_are_their_base_sweeps_estimates(kind, learner):
    # a decomposition draws its base sweep's cells: its row totals are that
    # sweep's bias estimates, exactly; decomposition-ssb used to hash its
    # own cell seeds, and to reject m=1 at a 30% split ("empty group")
    ds = generate(SynthSpec(n=600, d=2, group1_share=0.3, seed=23))
    dec, (mean, main) = _decomposition_and_base(
        ds, kind, ("mean_over_models", "main_prediction"), replicates=3,
        seed=5, learner=learner, metrics=("ZOL", "FPR", "EO"))
    for row, base_row, mo, mp in zip(dec.rows, mean.rows, mean.bias_rows,
                                     main.bias_rows):
        for name in ("group0_mean", "group1_mean", "k_defined", "k_total"):
            assert getattr(row, name) == getattr(base_row, name)
        assert isinstance(mo.value, Fraction)
        assert isinstance(mp.value, Fraction)
        assert row.mean == float(mo.value)
        assert row.bias_delta == float(mp.value)
        assert row.netvar_delta == float(mo.value - mp.value)


@pytest.mark.parametrize("kind", BASE_SWEEPS)
def test_mse_decomposition_rows_are_their_base_sweeps_estimates(reg_ds,
                                                                kind):
    dec, (mean,) = _decomposition_and_base(
        reg_ds, kind, ("mean_over_models",), replicates=3, seed=5,
        learner=FAST_OLS, metrics=("MSE",))
    for row, base_row, mo in zip(dec.rows, mean.rows, mean.bias_rows):
        assert row.group0_mean == base_row.group0_mean
        assert row.group1_mean == base_row.group1_mean
        assert abs(row.mean - mo.value) <= 1e-9


_PROPERTY_DS = generate(SynthSpec(n=300, d=2, group1_share=0.3, seed=31))
# counts near 0 (negative, empty, 1-row) or up to past the pools' sizes
_SMALL_OR_ANY = st.integers(-2, 2) | st.integers(-2, 240)


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(["collect", "ssb_size", "urb_ratio"]),
       points=st.lists(_SMALL_OR_ANY, min_size=1, max_size=3, unique=True),
       fixed_majority=_SMALL_OR_ANY, total_m=st.integers(1, 160),
       variant=st.sampled_from(experiments.VARIANTS),
       with_replacement=st.booleans(), use_cv=st.booleans(),
       learner=st.sampled_from([FAST_TREE, FAST_OLS]))
def test_feasible_spec_never_fails_once_fitting_starts(
        family, points, fixed_majority, total_m, variant, with_replacement,
        use_cv, learner):
    # every spec either fails up front, before any fit, or finishes; a
    # regression learner on classification data always fails up front
    grid = sorted(points) if family != "urb_ratio" \
        else sorted({round(p / 200 - 0.05, 3) for p in points})
    spec = SweepSpec(family=family, grid=tuple(grid), replicates=2, seed=3,
                     learner=learner, metrics=("ZOL", "EO"),
                     fixed_majority=fixed_majority, total_m=total_m,
                     variant=variant, with_replacement=with_replacement,
                     use_cv=use_cv)
    run = {"ssb_size": run_ssb_sweep, "urb_ratio": run_urb_sweep,
           "collect": run_collect_sim}[family]
    with pytest.MonkeyPatch.context() as mp:
        fitted = _count_fit_many(mp)
        try:
            run(_PROPERTY_DS, spec)
        except (ConfigError, DataError):
            assert fitted == []
        else:
            assert learner.task == _PROPERTY_DS.task


def test_collect_sim_deterministic(clf_ds, tmp_path):
    outs = []
    for threads in (1, 4):
        spec = SweepSpec(family="collect", grid=(6, 12), replicates=3,
                         seed=23, learner=FAST_TREE, metrics=("SD",),
                         fixed_majority=30, threads=threads)
        res = run_collect_sim(clf_ds, spec)
        path = tmp_path / f"c{threads}.csv"
        res.write_csv(path)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_write_csv_header_and_rows(clf_ds, tmp_path):
    spec = SweepSpec(family="ssb_size", grid=(20, 50), replicates=3, seed=2,
                     learner=FAST_TREE, metrics=("SD",))
    res = run_ssb_sweep(clf_ds, spec)
    path = tmp_path / "sweep.csv"
    n = res.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ("family,grid_param,grid_value,metric,estimator,"
                        "mean,stderr,k_defined,k_total,bias_delta,"
                        "netvar_delta,group0_mean,group1_mean")
    assert len(lines) == n + 1
    bpath = tmp_path / "bias.csv"
    nb = res.write_bias_csv(bpath)
    blines = bpath.read_text().strip().split("\n")
    assert blines[0].startswith("kind,metric,estimator")
    assert len(blines) == nb + 1


def test_each_ensemble_is_evaluated_once(monkeypatch):
    # the ssb_logreg benchmark shape: default grid (9 points, the
    # reference included), K = 5, the default estimator
    ds = generate(SynthSpec(n=4000, d=5, group1_share=0.3, seed=1))
    spec = SweepSpec(family="ssb_size", replicates=5, seed=1,
                     metrics=("AUC",))
    calls = []
    auc = group_metrics._auc

    def counted(y, scores):
        calls.append(1)
        return auc(y, scores)

    monkeypatch.setattr(group_metrics, "_auc", counted)
    result = run_ssb_sweep(ds, spec)
    grid_points = len(result.grid)
    assert grid_points == 9
    # one AUC per (model, group) for each grid point, plus the reference
    # once before the grid
    assert len(calls) <= 2 * spec.replicates * (grid_points + 1)


@pytest.fixture(scope="module")
def no_a1_negatives_ds():
    """clf-like data whose a1 rows are all positive: the dataset, and so
    every holdout, lacks the (a1, negative) stratum."""
    ds = generate(SynthSpec(n=600, d=2, group1_share=0.4, seed=21))
    y = np.where(ds.a == 1, 1.0, ds.y)
    return Dataset(ds.X, y, ds.a, ds.row_ids, ds.feature_names, ds.task)


@pytest.mark.parametrize("family, options", [
    ("ssb_size", {"grid": (20, 100)}),
    ("ssb_size", {"grid": (20, 100), "estimator": "main_prediction"}),
    ("urb_ratio", {"grid": (0.2, 0.5), "total_m": 80}),
    ("urb_ratio", {"grid": (0.2, 0.5), "total_m": 80,
                   "estimator": "main_prediction"}),
    ("decomposition", {"grid": (20, 100)}),
    ("decomposition", {"grid": (0.2, 0.5), "total_m": 80,
                       "decomp_kind": "urb"}),
    ("collect", {"grid": (4, 20), "fixed_majority": 40}),
])
def test_a_missing_stratum_leaves_its_metrics_undefined_in_every_row(
        family, options, no_a1_negatives_ds):
    # undefined holdout values are a property of the dataset: a metric is
    # undefined for every model at every grid point or for none
    metrics = ("ZOL", "FPR", "EO") if family == "decomposition" else \
        ("FPR", "FNR", "EO", "ZOL", "SD", "AUC")
    spec = SweepSpec(family=family, replicates=3, seed=4, learner=FAST_TREE,
                     metrics=metrics, **options)
    result = RUNNERS[family](no_a1_negatives_ds, spec)
    undefined = {"FPR", "AUC"}
    for row in result.rows:
        assert row.k_total == 3
        assert row.k_defined == (0 if row.metric in undefined else 3)
        assert (row.mean is None) == (row.metric in undefined)
        assert (row.group1_mean is None) == (row.metric in undefined)
        assert row.group0_mean is not None
    assert {r.metric for r in result.rows} >= {"FPR", "EO"}
    assert result.bias_rows or family in ("decomposition", "collect")
    for est in result.bias_rows:
        value = est.to_csv_row()[5]
        assert (value == "") == (est.metric in undefined), est


@pytest.mark.parametrize("family, options", [
    # m=2 draws one row per group: some draws are single-class
    ("ssb_size", {"grid": (2, 20, 100)}),
    # 0.5 and 0.502 both split total_m=100 as 50/50: one cell
    ("urb_ratio", {"grid": (0.2, 0.5, 0.502), "total_m": 100}),
    ("decomposition", {"grid": (2, 20, 100)}),
    ("decomposition", {"grid": (0.2, 0.5, 0.502), "total_m": 100,
                       "decomp_kind": "urb"}),
    ("collect", {"grid": (4, 20), "fixed_majority": 40}),
    ("collect", {"grid": (4, 20), "fixed_majority": 40, "use_cv": True}),
], ids=["ssb_size", "urb_ratio", "decomposition-ssb", "decomposition-urb",
        "collect", "collect-cv"])
def test_phases_time_every_phase_and_count_the_plan(clf_ds, family,
                                                    options):
    spec = SweepSpec(family=family, replicates=3, seed=4, learner=FAST_TREE,
                     metrics=("ZOL", "EO"), **options)
    result = RUNNERS[family](clf_ds, spec)
    phases = result.phases
    assert {name: list(phase) for name, phase in phases.items()} == {
        "split": ["seconds", "rows"], "draw": ["seconds", "samples", "rows"],
        "fit": ["seconds", "fits", "constant"], "predict": ["seconds", "rows"],
        "metrics": ["seconds", "tables"],
        "reduce": ["seconds", "rows", "estimates"]}
    for name, phase in phases.items():
        assert phase["seconds"] > 0, name
    plan = experiments._resolve(clf_ds, spec)
    cells = set(plan.cells.values())
    assert len(cells) < len(plan.grid) or family != "urb_ratio"
    draws = [s for cell in cells
             for s in experiments._draws(cell, spec, plan)]
    folds = spec.cv_folds if spec.use_cv else 1
    assert phases["split"]["rows"] == clf_ds.n
    assert phases["draw"]["samples"] == len(cells) * spec.replicates * folds
    assert phases["fit"]["fits"] == len(cells) * spec.replicates * folds
    single_class = sum(len(np.unique(s.y)) < 2 for s in draws)
    if plan.grid[0] == 2:
        assert single_class > 0
    if not spec.use_cv:
        assert phases["draw"]["rows"] == sum(s.n for s in draws)
        assert phases["fit"]["constant"] == single_class
        assert phases["predict"]["rows"] == len(draws) * plan.test.n
    else:
        # each draw's rows are held out once, by one of its folds
        assert phases["predict"]["rows"] == sum(s.n for s in draws)
    assert phases["metrics"]["tables"] == len(cells)
    assert phases["reduce"]["rows"] == len(result.rows) == \
        len(plan.grid) * len(plan.metrics)
    assert phases["reduce"]["estimates"] == len(result.bias_rows)
