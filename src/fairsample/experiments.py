"""End-to-end experiment families: sample-size sweeps, group-ratio sweeps,
decomposition sweeps, and data-collection simulations.

Every family runs on one engine.  A resolver maps (dataset, spec) to the
holdout split, the training pool's named row-index pools, the grid, the
metrics, the reference grid point and one Cell (a count per pool) per
grid point.  The evaluation step draws each distinct cell's K samples
through one dataset primitive, fits consecutive cells together, one
``fit_many`` call per batch, a batch stacking no more training rows than
the sweep's largest cell, and evaluates each cell once, keeping only what
its family's evaluation returns.  A small reducer per family turns each
grid point's value into summary rows and bias estimates.

Every (cell, replicate) draw has its own RNG stream derived by hashing
(seed, base family, cell key, replicate index); a decomposition's base
family is the ssb_size or urb_ratio sweep its decomp_kind names (_base),
so it decomposes exactly the ensembles that sweep reports.  The reducers
read the values in fixed grid order, so a sweep's output depends on the
dataset and the spec only.

A phase timer (_Timer) books each sweep's seconds and counts to split,
draw, fit, predict, metrics and reduce; it reads the clock once per batch
or cell, never per model, and SweepResult.phases carries it.
"""

from __future__ import annotations

import csv
import hashlib
import math
import numbers
import time
from dataclasses import dataclass, field, fields
from itertools import starmap

import numpy as np

from . import bias_estimators as be
from .dataset import (CLASSIFICATION, REGRESSION, can_draw,
                      draw_from_pools, holdout_split, population_ratio)
from .decomposition import (_CONDITIONING, SQUARED, ZERO_ONE,
                            PredictionEnsemble, bias_gap, decompose_costs,
                            ensemble_costs)
from .errors import (ConfigError, DataError, check_fields, check_finite,
                     check_integer)
from .group_metrics import ALL_METRICS, model_costs, task_metrics
from .learners import Learner, fit_many

FAMILIES = ("ssb_size", "urb_ratio", "decomposition", "collect")
VARIANTS = ("minority_random", "majority_random", "minority_positive_only")
# the base family of a decomposition sweep of each decomp_kind
_DECOMP_BASES = {"ssb": "ssb_size", "urb": "urb_ratio"}


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
    threads: int = 1              # accepted for compatibility; no effect

    def __post_init__(self):
        # before check_fields, whose finite message would pre-empt this one
        if isinstance(self.pool_portion, numbers.Real) and \
                not 0.0 < self.pool_portion < math.inf:
            raise ConfigError("pool_portion must be positive and finite")
        check_fields(self)
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}")
        if self.decomp_kind not in _DECOMP_BASES:
            raise ConfigError(f"unknown decomp_kind {self.decomp_kind!r}")
        for p in self.grid:
            if _base(self) == "urb_ratio":
                check_finite("ratio grid point", p)
            else:
                check_integer("grid point", p)
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigError("grid must be strictly increasing")
        if self.replicates < 2:
            raise ConfigError("replicates must be >= 2 for dispersion "
                              "reporting")
        if self.estimator not in be.ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown collect variant {self.variant!r}")
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
        values = (getattr(self, column) for column in CSV_COLUMNS)
        return ["" if v is None else str(v) for v in values]


# sweep.csv's header: SweepRow's fields, in order
CSV_COLUMNS = [f.name for f in fields(SweepRow)]


@dataclass
class SweepResult:
    family: str
    grid_param: str
    grid: tuple
    metrics: tuple
    population_ratio: float
    cells: dict               # (grid_value, metric) -> per-replicate values
    rows: list = field(default_factory=list)
    bias_rows: list = field(default_factory=list)
    grid_dropped: tuple = ()  # default-grid points that cannot be drawn
    phases: dict = field(default_factory=dict)  # _Timer.phases

    def write_csv(self, path):
        return _write_rows(path, CSV_COLUMNS, self.rows)

    def write_bias_csv(self, path):
        return _write_rows(path, be.CSV_HEADER, self.bias_rows)


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(row.to_csv_row() for row in rows)
    return len(rows)


class _Timer:
    """Seconds and counts per engine phase of one sweep.

    mark(phase, **counts) books the time since the previous mark, or since
    the timer was made, to phase, and adds counts to its counts, so the
    phases' seconds add up to the sweep's.  The engine marks once per
    batch or cell, never per model.
    """

    def __init__(self):
        # each phase's counts
        self.phases = {phase: dict.fromkeys(("seconds", *counts), 0)
                       for phase, counts in (
                           ("split", ("rows",)), ("draw", ("samples", "rows")),
                           ("fit", ("fits", "constant")),
                           ("predict", ("rows",)), ("metrics", ("tables",)),
                           ("reduce", ("rows", "estimates")))}
        self._last = time.perf_counter()

    def mark(self, phase, **counts):
        now = time.perf_counter()
        entry = self.phases[phase]
        entry["seconds"] += now - self._last
        self._last = now
        for key, n in counts.items():
            entry[key] += n


def task_seed(seed, family, grid_value, tag=0):
    """Stable 63-bit stream seed for one (sweep, grid point) cell; a numpy
    scalar, inside a tuple too, hashes as the Python number it equals."""
    text = f"{seed}|{family}|{_plain(grid_value)!r}|{tag}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _base(spec):
    """The family whose grid, reference, feasibility rule and cell seeds
    spec's sweep takes: its own, or for a decomposition the family its
    decomp_kind names."""
    if spec.family == "decomposition":
        return _DECOMP_BASES[spec.decomp_kind]
    return spec.family


def _plain(value):
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    return value.item() if isinstance(value, np.generic) else value


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


def _add_row(result, g, metric, values, estimator, mean=None,
             bias_delta=None, netvar_delta=None):
    """Store grid point g's per-replicate (a0, a1, disc) values for metric
    as its cell and append its summary row; mean, when not given, is the
    mean of the defined per-replicate discs."""
    a0, a1, disc = zip(*values)
    result.cells[(g, metric)] = {"disc": disc, "a0": a0, "a1": a1}
    disc_mean, stderr, k_defined = _mean_stderr(disc)
    result.rows.append(SweepRow(
        result.family, result.grid_param, g, metric, estimator,
        disc_mean if mean is None else mean, stderr, k_defined, len(disc),
        bias_delta, netvar_delta, _mean_stderr(a0)[0], _mean_stderr(a1)[0]))


def _float(value, sign=1):
    return None if value is None else float(sign * value)


def _sweep_metrics(spec, task):
    """spec.metrics checked against the task, or the task's defaults; a
    decomposition's defaults are the ones it can decompose, in the order
    of its table."""
    metrics = task_metrics(task, spec.metrics)
    if spec.family == "decomposition":
        if not spec.metrics:
            metrics = tuple(m for m in _CONDITIONING if m in metrics)
        for metric in metrics:
            if metric not in _CONDITIONING:
                raise ConfigError(f"metric {metric} has no decomposition")
    return metrics


def default_ssb_grid(pool_n, portion):
    cap = int(portion * pool_n)
    if cap < 10:
        raise DataError(f"training pool too small for an SSB sweep "
                        f"(cap {cap})")
    base = [10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000]
    grid = [m for m in base if m <= cap]
    if grid[-1] < cap:
        grid.append(cap)
    return tuple(grid)


# every default share of a ratio grid: 0.002 steps below 2 percent and
# above 98 percent, 0.1 steps between; the resolver adds the population
# split's point and drops the shares its pools cannot draw
DEFAULT_URB_GRID = tuple(sorted({round(float(v), 6) for v in np.concatenate([
    np.arange(0.001, 0.0201, 0.002), np.arange(0.1, 0.901, 0.1),
    np.arange(0.981, 0.9991, 0.002)])}))


def _split_counts(ratio, m):
    m1 = int(round(ratio * m))
    return m - m1, m1


def _cell_problems(pools, counts, spec):
    """(bad-count, pool-exhausted) messages for the grid points whose
    counts (one per named pool) cannot be drawn: a negative count, no rows
    at all, a 1-row draw that collect's k-fold CV leaves with an empty
    training fold, an empty group where the base family needs both, or a
    count a pool cannot give (dataset.can_draw)."""
    cv = spec.family == "collect" and spec.use_cv
    allow_empty = _base(spec) in ("ssb_size", "collect")
    bad, short = [], []
    for g, c in counts.items():
        drawn = ", ".join(f"{want} from {name}"
                          for name, want in zip(pools, c))
        if min(c) < 0:
            bad.append(f"{g!r} gives a negative group count ({drawn})")
        elif sum(c) == 0:
            bad.append(f"{g!r} gives an empty training set")
        elif cv and sum(c) == 1:
            bad.append(f"{g!r} gives a 1-row draw, whose {spec.cv_folds}"
                       f"-fold CV has an empty training fold")
        elif not (allow_empty or all(c)):
            bad.append(f"{g!r} gives an empty group ({drawn})")
        for (name, rows), want in zip(pools.items(), c):
            if not can_draw(rows, want, spec.with_replacement):
                short.append(f"{g!r} needs {want} rows from {name}, pool "
                             f"has {len(rows)}")
    return bad, short


def _check_cells(pools, counts, spec):
    """Reject an infeasible grid before any model is fitted: one error
    names every point whose counts cannot make a training set
    (ConfigError) or that asks a pool for more rows than it holds
    (DataError)."""
    bad, short = _cell_problems(pools, counts, spec)
    if bad:
        raise ConfigError("infeasible grid points: " + "; ".join(bad + short))
    if short:
        raise DataError("infeasible grid points; group pool exhausted: "
                        + "; ".join(short))


@dataclass(frozen=True)
class Cell:
    """The K draws behind one grid point.

    counts are the rows a draw takes from each of the plan's pools, in
    pool order, and replicate rep draws from the stream (seed, rep); seed
    is task_seed of the base family's key for the point (_SEED_KEYS).
    Grid points with equal cells share one ensemble.
    """

    counts: tuple
    seed: int


@dataclass(frozen=True)
class _Plan:
    grid_param: str
    grid: tuple
    metrics: tuple
    ratio: float
    test: object
    pool: object              # the training pool the cells draw from
    pools: dict               # pool name -> row indices, in draw order
    cells: dict               # grid value -> Cell
    ref: object = None        # grid value of the reference cell
    dropped: tuple = ()       # default-grid points that cannot be drawn
    timer: _Timer = None      # the sweep's phase timer


# the grid value each base family's task_seed hashes, from a grid point g
# and its counts c
_SEED_KEYS = {
    "ssb_size": lambda spec, g, c: g,
    "urb_ratio": lambda spec, g, c: c,
    "collect": lambda spec, g, c: (spec.variant, g),
}


def _resolve(ds, spec):
    """Holdout split, pools, grid, metrics, reference and one Cell per
    grid point, all from spec's base family; an infeasible grid fails
    here, before any fit.  A size grid's reference is its largest size; a
    ratio grid's, its first point that splits total_m as the population
    does, added when no point does.  The plan's timer books all of it to
    split."""
    timer = _Timer()
    family = _base(spec)
    if family == "collect" and ds.task != CLASSIFICATION:
        raise ConfigError("collect simulation requires a classification task")
    spec.learner.check_task(ds.task)
    metrics = _sweep_metrics(spec, ds.task)
    pool, test = holdout_split(ds, spec.test_fraction, spec.seed)
    ratio = population_ratio(ds)
    pools = {f"group a{g}": pool.group_indices(g) for g in (0, 1)}
    ref, dropped = None, ()
    if family == "collect":
        # the fixed group (a0, or a1 under majority_random), then the
        # growing pool: the other group's rows, or only its positive rows
        fixed = int(spec.variant == "majority_random")
        grow, rows = pool.a == 1 - fixed, f"a{1 - fixed} rows"
        if spec.variant == "minority_positive_only":
            grow, rows = grow & (pool.y == 1), "positive " + rows
        pools = {f"fixed group a{fixed}": pools[f"group a{fixed}"],
                 f"growing pool of {rows}": np.flatnonzero(grow)}
        grid_param = "n1"
        grid = tuple(spec.grid) if spec.grid else tuple(range(2, 101, 2))
        counts = {n1: (spec.fixed_majority, n1) for n1 in grid}
    elif family == "ssb_size":
        grid_param = "m"
        grid = tuple(spec.grid) if spec.grid \
            else default_ssb_grid(pool.n, spec.pool_portion)
        counts = {m: _split_counts(ratio, m) for m in grid}
        ref = max(grid)
    else:
        grid_param = "ratio"
        pop = _split_counts(ratio, spec.total_m)
        if min(pop) < 1:
            raise ConfigError(f"total_m={spec.total_m} splits the population "
                              f"{pop[1]}/{pop[0]} (a1/a0): a group is empty")
        grid = tuple(spec.grid) if spec.grid else DEFAULT_URB_GRID
        # the reference is a point that splits as the population does:
        # round(ratio, 6), or ratio itself where rounding moves the split
        if not any(_split_counts(r, spec.total_m) == pop for r in grid):
            point = round(ratio, 6)
            if _split_counts(point, spec.total_m) != pop:
                point = ratio
            grid = tuple(sorted(set(grid) | {point}))
        counts = {r: _split_counts(r, spec.total_m) for r in grid}
        if not spec.grid:
            dropped = tuple(r for r in grid if counts[r] != pop and any(
                _cell_problems(pools, {r: counts[r]}, spec)))
            grid = tuple(r for r in grid if r not in dropped)
        ref = next(r for r in grid if counts[r] == pop)
    _check_cells(pools, {g: counts[g] for g in grid}, spec)
    key = _SEED_KEYS[family]
    cells = {g: Cell(counts[g], task_seed(spec.seed, family,
                                          key(spec, g, counts[g])))
             for g in grid}
    timer.mark("split", rows=ds.n)
    return _Plan(grid_param, grid, metrics, ratio, test, pool, pools, cells,
                 ref, dropped, timer)


def _draws(cell, spec, plan):
    """A cell's K samples: replicate rep takes cell.counts rows from the
    plan's pools."""
    return [draw_from_pools(plan.pool, plan.pools.values(), cell.counts,
                            cell.seed, rep, spec.with_replacement)
            for rep in range(spec.replicates)]


def _fitted(cells, spec, draw, timer):
    """(models, extra) of each cell, in order, where draw(cell) gives the
    cell's training samples and extra, what its evaluation needs with them.

    Consecutive cells share one fit_many call until the next cell would
    take the batch past the largest cell's rows (sum(cell.counts) per
    draw, K draws per cell), so a batch stacks no more training rows than
    that cell alone.  Each batch is drawn when the caller reaches it, and
    a cell's models are let go when the caller takes the next cell's.
    """
    budget = max(sum(cell.counts) for cell in cells)
    batches = []
    for cell in cells:
        if not batches or rows + sum(cell.counts) > budget:
            batches.append([])
            rows = 0
        batches[-1].append(cell)
        rows += sum(cell.counts)
    for batch in batches:
        fitted = _fit_batch(batch, spec, draw, timer)
        while fitted:
            yield fitted.pop(0)


def _fit_batch(batch, spec, draw, timer):
    """[(models, extra)] of each cell of a batch, from one fit_many."""
    drawn = [draw(cell) for cell in batch]
    flat = [s for samples, _ in drawn for s in samples]
    timer.mark("draw", samples=len(flat), rows=sum(s.n for s in flat))
    models = fit_many(spec.learner, flat)
    timer.mark("fit", fits=len(models),
               constant=sum("constant" in m.params for m in models))
    models = iter(models)
    return [([next(models) for _ in samples], extra)
            for samples, extra in drawn]


def _predict(models, plan, main):
    """(ensemble, costs): the stacked holdout predictions of a cell's
    models, and {metric: (main costs, model costs)} from one model_costs
    call; the main costs are None unless main."""
    test = plan.test
    preds = [model.predict(test.X) for model in models]
    scores, labels = (np.stack(p) for p in zip(*preds))
    plan.timer.mark("predict", rows=labels.size)
    loss = SQUARED if test.task == REGRESSION else ZERO_ONE
    ens = PredictionEnsemble(scores, labels, test.y, test.a, loss)
    if main:
        costs = ensemble_costs(ens, plan.metrics)
    else:
        costs = {m: (None, c) for m, c in model_costs(
            test.y, labels, scores, test.a, plan.metrics).items()}
    plan.timer.mark("metrics", tables=1)
    return ens, costs


def _evaluated(plan, spec, evaluate, draw=None):
    """{grid value: evaluate(models, extra)}, each distinct cell drawn,
    fitted and evaluated once.

    draw(cell) gives (training samples, extra); by default the cell's K
    holdout draws and None.  The distinct cells are fitted in _fitted's
    batches, the reference first, then the grid's in grid order; only
    what evaluate returns is kept, never the models.
    """
    if draw is None:
        def draw(cell):
            return _draws(cell, spec, plan), None
    cells = list(dict.fromkeys(plan.cells[g] for g in (plan.ref, *plan.grid)
                               if g is not None))
    values = dict(zip(cells, starmap(evaluate,
                                     _fitted(cells, spec, draw, plan.timer))))
    return {g: values[plan.cells[g]] for g in plan.grid}


def _reduce_bias(result, plan, spec):
    """ssb_size / urb_ratio: per-model cells, plus SSB against the largest
    size or URB against the population split, from the same costs."""
    if result.family == "ssb_size":
        kind, desc, ref_desc = (be.SSB_ENSEMBLE, "m={}".format,
                                f"M={plan.ref}")
    else:
        def desc(g):
            return "split={0[1]}/{0[0]}".format(plan.cells[g].counts)
        kind, ref_desc = be.URB_ENSEMBLE, desc(plan.ref)

    main = spec.estimator == be.MAIN_PREDICTION
    per_point = _evaluated(plan, spec,
                           lambda models, _: _predict(models, plan, main)[1])
    ref = per_point[plan.ref]
    for g, costs in per_point.items():
        for metric, (_, models) in costs.items():
            _add_row(result, g, metric, models.floats(), spec.estimator)
            result.bias_rows.append(be.estimate(
                kind, metric, spec.estimator, desc(g), ref_desc,
                costs[metric], ref[metric], spec.replicates))


def _reduce_decomposition(result, plan, spec):
    """Per-group bias/net-variance deltas against the base family's
    reference: the largest size, or the population split's grid point.

    Each row reads its grid point's bias_gap report: mean is cost_disc,
    the mean-over-models SSB/URB whatever spec.estimator says;
    bias_delta and netvar_delta are cost_sign times bias_diff and
    net_variance_diff (for zero-one loss, bias_delta is exactly the
    main-prediction SSB/URB).  stderr is over the per-replicate
    single-model gaps.
    """
    def evaluate(models, _):
        ens, costs = _predict(models, plan, True)
        terms = decompose_costs(ens, costs)
        plan.timer.mark("reduce")
        return costs, terms
    per_point = _evaluated(plan, spec, evaluate)
    ref_costs, ref_terms = per_point[plan.ref]
    ref_disc = {metric: _float(models.mean_disc())
                for metric, (_, models) in ref_costs.items()}
    for g, (costs, terms) in per_point.items():
        for metric, (_, models) in costs.items():
            gap = bias_gap(terms[metric], ref_terms[metric])
            # per-replicate single-model gaps drive the dispersion column
            rd = ref_disc[metric]
            values = [(v0, v1, None if (d is None or rd is None) else d - rd)
                      for v0, v1, d in models.floats()]
            _add_row(result, g, metric, values, be.MEAN_OVER_MODELS,
                     _float(gap.cost_disc),
                     _float(gap.bias_diff, gap.cost_sign),
                     _float(gap.net_variance_diff, gap.cost_sign))


def _reduce_collect(result, plan, spec):
    """Per-model group costs on the holdout or, with use_cv, fold-mean
    costs from k-fold CV on each draw: the folds are the cell's training
    samples, fitted in the same pass, and the holdout is not used."""
    if spec.use_cv:
        label = f"cv{spec.cv_folds}"
        per_point = _evaluated(
            plan, spec,
            lambda models, holds: _cv_cells(models, holds, spec.cv_folds,
                                            plan),
            lambda cell: _cv_folds(cell, spec, plan))
    else:
        label = "holdout"
        per_point = _evaluated(plan, spec, lambda models, _: {
            m: costs.floats()
            for m, (_, costs) in _predict(models, plan, False)[1].items()})
    for g, per_metric in per_point.items():
        for metric, values in per_metric.items():
            _add_row(result, g, metric, values, label)


_REDUCERS = {"ssb_size": _reduce_bias, "urb_ratio": _reduce_bias,
             "decomposition": _reduce_decomposition,
             "collect": _reduce_collect}


def _run(ds, spec, family):
    if spec.family != family:
        raise ConfigError(f"spec.family must be {family}")
    plan = _resolve(ds, spec)
    result = SweepResult(family, plan.grid_param, plan.grid, plan.metrics,
                         plan.ratio, {}, grid_dropped=plan.dropped,
                         phases=plan.timer.phases)
    _REDUCERS[family](result, plan, spec)
    plan.timer.mark("reduce", rows=len(result.rows),
                    estimates=len(result.bias_rows))
    return result


def run_ssb_sweep(ds, spec):
    """Discrimination vs training-set size, plus SSB against the largest
    grid size as reference."""
    return _run(ds, spec, "ssb_size")


def run_urb_sweep(ds, spec):
    """Discrimination vs protected-group share at fixed total size, plus
    URB against the population-split reference."""
    return _run(ds, spec, "urb_ratio")


def run_decomposition_sweep(ds, spec):
    """Per-group bias/net-variance deltas along a size or ratio grid,
    against the largest size or the population split."""
    return _run(ds, spec, "decomposition")


def run_collect_sim(ds, spec):
    """Per-group costs while one group's sample count grows and the other
    stays fixed, simulating continued data collection."""
    return _run(ds, spec, "collect")


def _cv_folds(cell, spec, plan):
    """A collect cell's training folds, every fold of every draw, and the
    held-out fold of each."""
    folds, trains, holds = spec.cv_folds, [], []
    for rep, sample in enumerate(_draws(cell, spec, plan)):
        rng = np.random.default_rng(
            np.random.SeedSequence((cell.seed, rep, 0xCF)))
        chunks = np.array_split(rng.permutation(sample.n), folds)
        for f, chunk in enumerate(chunks):
            trains.append(sample.subset(np.sort(np.concatenate(
                chunks[:f] + chunks[f + 1:]))))
            holds.append(sample.subset(np.sort(chunk)))
    return trains, holds


def _cv_cells(models, holds, folds, plan):
    """Per-draw fold-mean group costs of a collect cell, from the models of
    its training folds and their held-out folds."""
    preds = [model.predict(hold.X) for model, hold in zip(models, holds)]
    plan.timer.mark("predict", rows=sum(hold.n for hold in holds))
    costs = [{m: c.floats()[0] for m, c in model_costs(
        hold.y, [labels], [scores], hold.a, plan.metrics).items()}
        for (scores, labels), hold in zip(preds, holds)]
    draws = [costs[r:r + folds] for r in range(0, len(costs), folds)]
    values = {m: [[_mean_stderr(v)[0]
                   for v in zip(*(fold[m] for fold in draw))]
                  for draw in draws] for m in plan.metrics}
    plan.timer.mark("metrics", tables=1)
    return values
