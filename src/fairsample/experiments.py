"""End-to-end experiment families: sample-size sweeps, group-ratio sweeps,
decomposition sweeps, and data-collection simulations.

Every (grid point, replicate) task draws from its own RNG stream derived
by hashing (seed, family, grid value, replicate index), and aggregation
consumes task results in fixed grid order, so a sweep's output is
byte-identical for any worker count.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import bias_estimators as be
from .dataset import (CLASSIFICATION, REGRESSION, SamplingPlan, draw_sample,
                      holdout_split, population_ratio)
from .decomposition import (SQUARED, ZERO_ONE, PredictionEnsemble,
                            decompose_bias_gap)
from .errors import ConfigError, DataError
from .group_metrics import (ALL_METRICS, CLASSIFICATION_METRICS, group_cost)
from .learners import Learner, fit, fit_many

FAMILIES = ("ssb_size", "urb_ratio", "decomposition", "collect")
VARIANTS = ("minority_random", "majority_random", "minority_positive_only")

CSV_COLUMNS = ["family", "grid_param", "grid_value", "metric", "estimator",
               "mean", "stderr", "k_defined", "k_total", "bias_delta",
               "netvar_delta", "group0_mean", "group1_mean"]


@dataclass(frozen=True)
class SweepSpec:
    family: str
    grid: tuple = ()              # empty: use the family default
    replicates: int = 30
    seed: int = 0
    learner: Learner = field(default_factory=Learner)
    metrics: tuple = ()           # empty: task-appropriate defaults
    estimator: str = be.MEAN_OVER_MODELS
    test_fraction: float = 0.3
    with_replacement: bool = False
    total_m: int = 1000           # urb_ratio / urb decomposition
    pool_portion: float = 0.8     # ssb default-grid cap
    # collect options
    fixed_majority: int = 100
    variant: str = "minority_random"
    cv_folds: int = 3
    use_cv: bool = False
    # decomposition options
    decomp_kind: str = "ssb"      # "ssb" or "urb"
    threads: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}")
        if self.grid:
            g = list(self.grid)
            if any(b <= a for a, b in zip(g, g[1:])):
                raise ConfigError("grid must be strictly increasing")
        if self.replicates < 2:
            raise ConfigError("replicates must be >= 2 for dispersion "
                              "reporting")
        if self.estimator not in be.ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown collect variant {self.variant!r}")
        if self.decomp_kind not in ("ssb", "urb"):
            raise ConfigError(f"unknown decomp_kind {self.decomp_kind!r}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must be in (0, 1)")
        if self.cv_folds < 2:
            raise ConfigError("cv_folds must be >= 2")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        for m in self.metrics:
            if m not in ALL_METRICS:
                raise ConfigError(f"unknown metric {m!r}")


@dataclass
class SweepRow:
    family: str
    grid_param: str
    grid_value: object
    metric: str
    estimator: str
    mean: float = None
    stderr: float = None
    k_defined: int = 0
    k_total: int = 0
    bias_delta: float = None
    netvar_delta: float = None
    group0_mean: float = None
    group1_mean: float = None

    def to_csv_row(self):
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, float):
                return repr(v)
            return str(v)
        return [self.family, self.grid_param, fmt(self.grid_value),
                self.metric, self.estimator, fmt(self.mean),
                fmt(self.stderr), str(self.k_defined), str(self.k_total),
                fmt(self.bias_delta), fmt(self.netvar_delta),
                fmt(self.group0_mean), fmt(self.group1_mean)]


@dataclass
class SweepResult:
    family: str
    grid_param: str
    grid: tuple
    metrics: tuple
    spec: SweepSpec
    population_ratio: float
    cells: dict               # (grid_value, metric) -> per-replicate values
    rows: list = field(default_factory=list)
    bias_rows: list = field(default_factory=list)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_COLUMNS)
            for row in self.rows:
                w.writerow(row.to_csv_row())
        return len(self.rows)

    def write_bias_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(be.CSV_HEADER)
            for row in self.bias_rows:
                w.writerow(row.to_csv_row())
        return len(self.bias_rows)


def task_seed(seed, family, grid_value, tag=0):
    """Stable 63-bit stream seed for one (sweep, grid point) cell."""
    text = f"{seed}|{family}|{grid_value!r}|{tag}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _map_tasks(fn, tasks, threads):
    if threads and threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, tasks))
    return [fn(t) for t in tasks]


def _mean_stderr(values):
    """(mean, stderr, k_defined) over defined replicate values."""
    defined = [float(v) for v in values if v is not None]
    k = len(defined)
    if k == 0:
        return None, None, 0
    mean = float(np.mean(defined))
    if k < 2:
        return mean, None, k
    stderr = float(np.std(defined, ddof=1) / np.sqrt(k))
    return mean, stderr, k


def aggregate(result):
    """Recompute summary rows from per-replicate cell values; idempotent."""
    rows = []
    for grid_value in result.grid:
        for metric in result.metrics:
            cell = result.cells.get((grid_value, metric))
            if cell is None:
                continue
            mean, stderr, k_defined = _mean_stderr(cell["disc"])
            g0, _, _ = _mean_stderr(cell.get("a0", []))
            g1, _, _ = _mean_stderr(cell.get("a1", []))
            row = SweepRow(result.family, result.grid_param, grid_value,
                           metric, cell.get("estimator",
                                            result.spec.estimator),
                           mean, stderr, k_defined, len(cell["disc"]),
                           cell.get("bias_delta"), cell.get("netvar_delta"),
                           g0, g1)
            if "ensemble_total" in cell:
                row.mean = cell["ensemble_total"]
            rows.append(row)
    result.rows = rows
    return rows


def _default_metrics(spec, task):
    if spec.metrics:
        _validate_metrics(spec.metrics, task)
        return tuple(spec.metrics)
    if task == REGRESSION:
        return ("MSE",)
    return ("FPR", "FNR", "EO", "ZOL", "SD", "AUC")


def _validate_metrics(metrics, task):
    for m in metrics:
        if task == REGRESSION and m != "MSE":
            raise ConfigError(f"metric {m} requires a classification task")
        if task == CLASSIFICATION and m == "MSE":
            raise ConfigError("MSE requires a regression task")


def default_ssb_grid(pool_n, portion=0.8):
    cap = int(portion * pool_n)
    if cap < 10:
        raise DataError(f"training pool too small for an SSB sweep "
                        f"(cap {cap})")
    base = [10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000]
    grid = [m for m in base if m <= cap]
    if grid[-1] < cap:
        grid.append(cap)
    return tuple(grid)


def default_urb_grid(pop_ratio):
    lo = np.arange(0.001, 0.0201, 0.002)
    mid = np.arange(0.1, 0.901, 0.1)
    hi = np.arange(0.981, 0.9991, 0.002)
    vals = {round(float(v), 6) for v in np.concatenate([lo, mid, hi])}
    vals.add(round(float(pop_ratio), 6))
    return tuple(sorted(vals))


def _fit_cell_ensemble(pool, test, learner, m0, m1, replicates, seed,
                       with_replacement, threads, loss_kind):
    """K seeded draws -> K models fitted together -> stacked test-set
    predictions."""
    plan = SamplingPlan(m0=m0, m1=m1, replicates=replicates, seed=seed,
                        with_replacement=with_replacement)
    samples = _map_tasks(lambda rep: draw_sample(pool, plan, rep),
                         list(range(replicates)), threads)
    models = fit_many(learner, samples)
    preds = _map_tasks(lambda model: model.predict(test.X), models, threads)
    scores = np.stack([p[0] for p in preds])
    labels = np.stack([p[1] for p in preds])
    return PredictionEnsemble(scores, labels, test.y, test.a, loss_kind)


def _per_model_cells(ens, metrics):
    """Per-replicate disc and group values for each metric."""
    cells = {}
    for metric in metrics:
        disc, a0, a1 = [], [], []
        for k in range(ens.k):
            rep = group_cost(metric, ens.eval_y, ens.labels[k],
                             ens.scores[k], ens.eval_a)
            v0, v1, d = rep.as_floats()
            disc.append(d)
            a0.append(v0)
            a1.append(v1)
        cells[metric] = {"disc": disc, "a0": a0, "a1": a1}
    return cells


def _loss_kind(task):
    return SQUARED if task == REGRESSION else ZERO_ONE


def _check_cells(pool, counts, with_replacement, allow_empty=False):
    """Reject an infeasible grid before any model is fitted.

    counts maps each grid point to its (m0, m1).  One error names every
    point that leaves a group empty (ConfigError, unless allow_empty) or
    asks a group for more rows than its pool holds (DataError).
    """
    sizes = (len(pool.group_indices(0)), len(pool.group_indices(1)))
    empty, short = [], []
    for g, (m0, m1) in counts.items():
        if not allow_empty and (m0 == 0 or m1 == 0):
            empty.append(f"{g!r} gives an empty group (m0={m0}, m1={m1})")
        for group, want in ((0, m0), (1, m1)):
            if want > sizes[group] and (not with_replacement
                                        or sizes[group] == 0):
                short.append(f"{g!r} needs {want} rows from group "
                             f"a{group}, pool has {sizes[group]}")
    if empty:
        raise ConfigError("infeasible grid points; both group counts must "
                          "be positive: " + "; ".join(empty + short))
    if short:
        raise DataError("infeasible grid points; group pool exhausted: "
                        + "; ".join(short))


def run_ssb_sweep(ds, spec):
    """Discrimination vs training-set size, plus SSB against the largest
    grid size as reference."""
    if spec.family != "ssb_size":
        raise ConfigError("spec.family must be ssb_size")
    metrics = _default_metrics(spec, ds.task)
    pool, test = holdout_split(ds, spec.test_fraction, spec.seed)
    grid = tuple(spec.grid) if spec.grid \
        else default_ssb_grid(pool.n, spec.pool_portion)
    if max(grid) > pool.n:
        raise DataError(f"grid point {max(grid)} exceeds training pool "
                        f"size {pool.n}")
    ratio = population_ratio(ds)
    loss_kind = _loss_kind(ds.task)
    counts = {m: _split_counts(ratio, m) for m in grid}
    _check_cells(pool, counts, spec.with_replacement, allow_empty=True)

    ensembles = {}
    for m in grid:
        m0, m1 = counts[m]
        ensembles[m] = _fit_cell_ensemble(
            pool, test, spec.learner, m0, m1, spec.replicates,
            task_seed(spec.seed, spec.family, m), spec.with_replacement,
            spec.threads, loss_kind)

    cells = {}
    for m in grid:
        per_metric = _per_model_cells(ensembles[m], metrics)
        for metric in metrics:
            cells[(m, metric)] = per_metric[metric]

    result = SweepResult(spec.family, "m", grid, metrics, spec, ratio, cells)
    big = max(grid)
    for m in grid:
        for metric in metrics:
            result.bias_rows.append(be.ssb(
                ensembles[m], ensembles[big], metric, spec.estimator,
                target_desc=f"m={m}", ref_desc=f"M={big}"))
    aggregate(result)
    return result


def _split_counts(ratio, m):
    m1 = int(round(ratio * m))
    return m - m1, m1


def run_urb_sweep(ds, spec):
    """Discrimination vs protected-group share at fixed total size, plus
    URB against the population-split reference."""
    if spec.family != "urb_ratio":
        raise ConfigError("spec.family must be urb_ratio")
    if ds.task != CLASSIFICATION and ds.task != REGRESSION:
        raise ConfigError("unknown task")
    metrics = _default_metrics(spec, ds.task)
    pool, test = holdout_split(ds, spec.test_fraction, spec.seed)
    ratio = population_ratio(ds)
    m = spec.total_m
    grid = tuple(spec.grid) if spec.grid else default_urb_grid(ratio)
    pop_m0, pop_m1 = _split_counts(ratio, m)
    if pop_m1 == 0 or pop_m0 == 0:
        raise DataError("population split degenerates to an empty group")
    # the population ratio must be a grid point (the URB reference)
    if not any(_split_counts(r, m) == (pop_m0, pop_m1) for r in grid):
        grid = tuple(sorted(set(grid) | {round(ratio, 6)}))
    loss_kind = _loss_kind(ds.task)
    counts = {r: _split_counts(r, m) for r in grid}
    _check_cells(pool, counts, spec.with_replacement)

    ensembles = {}
    ref_ens = None
    ref_key = None
    for r in grid:
        m0, m1 = counts[r]
        if (m0, m1) == (pop_m0, pop_m1) and ref_ens is not None:
            ensembles[r] = ref_ens
            continue
        ens = _fit_cell_ensemble(
            pool, test, spec.learner, m0, m1, spec.replicates,
            task_seed(spec.seed, spec.family, (m0, m1)),
            spec.with_replacement, spec.threads, loss_kind)
        ensembles[r] = ens
        if (m0, m1) == (pop_m0, pop_m1) and ref_ens is None:
            ref_ens = ens
            ref_key = r
    if ref_ens is None:
        raise ConfigError("ratio grid must include the population ratio")

    cells = {}
    for r in grid:
        per_metric = _per_model_cells(ensembles[r], metrics)
        for metric in metrics:
            cells[(r, metric)] = per_metric[metric]

    result = SweepResult(spec.family, "ratio", grid, metrics, spec, ratio,
                         cells)
    ref_desc = f"split={pop_m1}/{pop_m0}"
    for r in grid:
        m0, m1 = counts[r]
        for metric in metrics:
            result.bias_rows.append(be.urb(
                ensembles[r], ensembles[ref_key], metric, spec.estimator,
                target_desc=f"split={m1}/{m0}", ref_desc=ref_desc))
    aggregate(result)
    return result


def run_decomposition_sweep(ds, spec):
    """Per-group bias/net-variance deltas along a size or ratio grid.

    Row means are the ensemble-level SSB/URB totals (average-over-models
    discrimination gap); for squared loss they equal
    bias_delta + netvar_delta exactly.  stderr is over the per-replicate
    single-model gaps.
    """
    if spec.family != "decomposition":
        raise ConfigError("spec.family must be decomposition")
    metrics = spec.metrics or ((("MSE",) if ds.task == REGRESSION
                                else ("ZOL", "FPR", "EO")))
    _validate_metrics(metrics, ds.task)
    for metric in metrics:
        if metric not in ("MSE", "ZOL", "FPR", "EO"):
            raise ConfigError(f"metric {metric} has no decomposition")
    pool, test = holdout_split(ds, spec.test_fraction, spec.seed)
    ratio = population_ratio(ds)
    loss_kind = _loss_kind(ds.task)

    if spec.decomp_kind == "ssb":
        grid = tuple(spec.grid) if spec.grid \
            else default_ssb_grid(pool.n, spec.pool_portion)
        if max(grid) > pool.n:
            raise DataError(f"grid point {max(grid)} exceeds training pool "
                            f"size {pool.n}")
        grid_param = "m"
        counts = {g: _split_counts(ratio, g) for g in grid}
        ref_key = max(grid)
    else:
        m = spec.total_m
        grid = tuple(spec.grid) if spec.grid else default_urb_grid(ratio)
        pop_m0, pop_m1 = _split_counts(ratio, m)
        if not any(_split_counts(r, m) == (pop_m0, pop_m1) for r in grid):
            grid = tuple(sorted(set(grid) | {round(ratio, 6)}))
        grid_param = "ratio"
        counts = {g: _split_counts(g, m) for g in grid}
        ref_key = min(grid, key=lambda r: abs(r - ratio))
    _check_cells(pool, counts, spec.with_replacement)

    ensembles = {}
    for g in grid:
        m0, m1 = counts[g]
        ensembles[g] = _fit_cell_ensemble(
            pool, test, spec.learner, m0, m1, spec.replicates,
            task_seed(spec.seed, spec.family, (spec.decomp_kind, m0, m1)),
            spec.with_replacement, spec.threads, loss_kind)

    ref_ens = ensembles[ref_key]
    ref_disc = {}
    for metric in metrics:
        d, _ = be.ensemble_disc(ref_ens, metric, be.MEAN_OVER_MODELS)
        ref_disc[metric] = None if d is None else float(d)

    cells = {}
    for g in grid:
        ens = ensembles[g]
        per_metric = _per_model_cells(ens, metrics)
        for metric in metrics:
            gap = decompose_bias_gap(ens, ref_ens, metric)
            sign = gap.target.cost_sign
            bias_delta = None if gap.bias_delta_diff is None \
                else float(sign * gap.bias_delta_diff)
            netvar_delta = None if gap.net_variance_delta_diff is None \
                else float(sign * gap.net_variance_delta_diff)
            cell = per_metric[metric]
            # per-replicate single-model gaps drive the dispersion column
            rd = ref_disc[metric]
            cell["disc"] = [None if (d is None or rd is None) else d - rd
                            for d in cell["disc"]]
            cell["bias_delta"] = bias_delta
            cell["netvar_delta"] = netvar_delta
            if gap.total is not None:
                cell["ensemble_total"] = float(gap.total)
            cells[(g, metric)] = cell

    result = SweepResult(spec.family, grid_param, grid, tuple(metrics), spec,
                         ratio, cells)
    aggregate(result)
    return result


def run_collect_sim(ds, spec):
    """Per-group costs while one group's sample count grows and the other
    stays fixed, simulating continued data collection."""
    if spec.family != "collect":
        raise ConfigError("spec.family must be collect")
    if ds.task != CLASSIFICATION:
        raise ConfigError("collect simulation requires a classification task")
    metrics = _default_metrics(spec, ds.task)
    pool, test = holdout_split(ds, spec.test_fraction, spec.seed)
    grid = tuple(spec.grid) if spec.grid else tuple(range(2, 101, 2))
    replicates = spec.replicates

    # the "fixed" group is the privileged group a0 except when the roles
    # are swapped by the majority_random variant
    if spec.variant == "majority_random":
        fixed_group, grow_group = 1, 0
    else:
        fixed_group, grow_group = 0, 1
    fixed_pool = pool.group_indices(fixed_group)
    if spec.fixed_majority > len(fixed_pool):
        raise DataError(
            f"fixed group a{fixed_group} pool has {len(fixed_pool)} rows, "
            f"need {spec.fixed_majority}")
    if spec.variant == "minority_positive_only":
        grow_pool = np.flatnonzero((pool.a == grow_group) & (pool.y == 1))
    else:
        grow_pool = pool.group_indices(grow_group)
    max_n1 = max(grid)
    if max_n1 > len(grow_pool):
        raise DataError(
            f"growing pool for variant {spec.variant} has only "
            f"{len(grow_pool)} rows, grid needs {max_n1}")

    estimator_label = f"cv{spec.cv_folds}" if spec.use_cv else "holdout"

    def run_draw(args):
        n1, rep = args
        seed = task_seed(spec.seed, spec.family,
                         (spec.variant, n1), tag=0)
        rng = np.random.default_rng(np.random.SeedSequence((seed, rep)))
        take_fixed = rng.choice(fixed_pool, size=spec.fixed_majority,
                                replace=spec.with_replacement)
        take_grow = rng.choice(grow_pool, size=n1,
                               replace=spec.with_replacement)
        idx = np.sort(np.concatenate([take_fixed, take_grow]))
        sample = pool.subset(idx)
        if spec.variant == "minority_positive_only":
            assert np.all(sample.y[sample.a == grow_group] == 1)
        if spec.use_cv:
            return _cv_costs(sample, spec.learner, spec.cv_folds,
                             np.random.SeedSequence((seed, rep, 0xCF)),
                             metrics)
        model = fit(spec.learner, sample)
        scores, labels = model.predict(test.X)
        out = {}
        for metric in metrics:
            rep_m = group_cost(metric, test.y, labels, scores, test.a)
            out[metric] = rep_m.as_floats()
        return out

    tasks = [(n1, rep) for n1 in grid for rep in range(replicates)]
    outputs = _map_tasks(run_draw, tasks, spec.threads)

    cells = {}
    for (n1, _rep), out in zip(tasks, outputs):
        for metric in metrics:
            cell = cells.setdefault((n1, metric),
                                    {"disc": [], "a0": [], "a1": [],
                                     "estimator": estimator_label})
            v0, v1, d = out[metric]
            cell["disc"].append(d)
            cell["a0"].append(v0)
            cell["a1"].append(v1)

    result = SweepResult(spec.family, "n1", grid, metrics, spec,
                         population_ratio(ds), cells)
    aggregate(result)
    return result


def _cv_costs(sample, learner, folds, seed_seq, metrics):
    """Fold-mean per-group costs from k-fold CV on the sampled set."""
    rng = np.random.default_rng(seed_seq)
    perm = rng.permutation(sample.n)
    chunks = np.array_split(perm, folds)
    per_metric = {m: {"disc": [], "a0": [], "a1": []} for m in metrics}
    for f in range(folds):
        test_idx = np.sort(chunks[f])
        train_idx = np.sort(np.concatenate(
            [chunks[j] for j in range(folds) if j != f]))
        model = fit(learner, sample.subset(train_idx))
        hold = sample.subset(test_idx)
        scores, labels = model.predict(hold.X)
        for metric in metrics:
            rep = group_cost(metric, hold.y, labels, scores, hold.a)
            v0, v1, d = rep.as_floats()
            per_metric[metric]["disc"].append(d)
            per_metric[metric]["a0"].append(v0)
            per_metric[metric]["a1"].append(v1)
    out = {}
    for metric in metrics:
        means = []
        for key in ("a0", "a1", "disc"):
            m, _, _ = _mean_stderr(per_metric[metric][key])
            means.append(m)
        out[metric] = tuple(means)
    return out
