"""Reference implementations: the CSV loader that holds the whole table
as strings, the stratified holdout split one row at a time, the two
samplers the sweep families drew with before they shared one draw
primitive (the library keeps only that primitive,
dataset.draw_from_pools; draw_sample here takes each group's count, the
seed and the replacement flag as plain arguments and checks each group's
pool itself), logistic-regression fitting one sample at a time, per-row kNN
and tree scoring, a decision tree fitted as a nested dict, the per-point
decomposition (exact for zero-one loss, one point at a time), and
brute-force group metrics (one model and one group at a time) and
decompositions.

These are the straightforward loops the library's array code must match
exactly: one list of cells per CSV row, one stratum key per row, one
gradient-descent loop per training sample, one stable argsort per query
row, one dict per tree node and one walk of it per query row, one
``Fraction`` per evaluation point.  Tests compare against them with
``np.array_equal`` and ``==`` on ``Fraction``s, and can monkeypatch them
in for an end-to-end byte comparison.
"""

import csv
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from fairsample.dataset import CLASSIFICATION, NUMERIC, Dataset, _parse_float
from fairsample.decomposition import (_COST_AFFINE, _CONDITIONING, SQUARED,
                                      ZERO_ONE, DecompositionReport,
                                      SdBoundsReport, _majority_labels)
from fairsample.errors import ConfigError, DataError
from fairsample.group_metrics import ALL_METRICS, MetricCosts
from fairsample.learners import _best_split

_ORACLE_N_CAP = 500


def load_csv(path, schema):
    """Load and encode a UTF-8 CSV file (a leading byte-order mark is
    skipped) per the schema.

    Categorical features are one-hot encoded with one indicator per level;
    numeric features are standardized over the full file.  Target and
    sensitive columns are mapped to {0,1}.  A schema column the header
    names twice is an error.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file")
        rows = [r for r in reader if r]

    col = {name: i for i, name in enumerate(header)}
    needed = [schema.target, schema.sensitive] + [n for n, _ in schema.features]
    for name in needed:
        if name not in col:
            raise DataError(f"missing column {name!r}")
        if header.count(name) > 1:
            raise DataError(f"header names column {name!r} more than once")
    if not rows:
        raise DataError(f"{path}: no data rows")
    need = max(col[name] for name in needed) + 1
    if min(map(len, rows)) < need:
        r = next(r for r, row in enumerate(rows) if len(row) < need)
        raise DataError(f"row {r + 1} has {len(rows[r])} fields, the "
                        f"schema's columns need {need}")

    def column(name):
        i = col[name]
        vals = [row[i].strip() for row in rows]
        if "" in vals:
            raise DataError(f"missing value in column {name!r}, row "
                            f"{vals.index('') + 1}")
        return vals

    def numeric(name):
        # float() strips the whitespace str.strip() does, so the raw cells
        # give column()'s values; a column that fails is walked cell by
        # cell to name its first bad row
        i = col[name]
        try:
            x = np.array([float(row[i]) for row in rows])
        except ValueError:
            x = None
        if x is None or not np.isfinite(x).all():
            x = np.array([_parse_float(v, name, r)
                          for r, v in enumerate(column(name))])
        return x

    # sensitive -> group vector
    svals = column(schema.sensitive)
    levels = sorted(set(svals))
    if len(levels) != 2:
        raise DataError(
            f"sensitive not binary: column {schema.sensitive!r} has "
            f"{len(levels)} distinct values {levels[:5]}")
    if schema.privileged_value not in levels:
        raise DataError(
            f"privileged value {schema.privileged_value!r} not present in "
            f"column {schema.sensitive!r}")
    a = (np.array(svals, dtype=object)
         != schema.privileged_value).astype(int)

    # target
    if schema.task == CLASSIFICATION:
        tvals = column(schema.target)
        tlevels = sorted(set(tvals))
        if len(tlevels) != 2:
            raise DataError(
                f"target not binary: column {schema.target!r} has "
                f"{len(tlevels)} distinct values {tlevels[:5]}")
        if schema.positive_label not in tlevels:
            raise DataError(
                f"positive label {schema.positive_label!r} not present in "
                f"column {schema.target!r}")
        y = (np.array(tvals, dtype=object)
             == schema.positive_label).astype(float)
    else:
        y = numeric(schema.target)

    # features
    blocks = []
    names = []
    for name, kind in schema.features:
        if kind == NUMERIC:
            x = numeric(name)
            mu = x.mean()
            sd = x.std(ddof=1) if len(x) > 1 else 0.0
            if sd > 0:
                x = (x - mu) / sd
            else:
                x = np.zeros_like(x)
            blocks.append(x[:, None])
            names.append(name)
        else:
            vals = column(name)
            flevels = sorted(set(vals))
            idx = {lv: j for j, lv in enumerate(flevels)}
            onehot = np.zeros((len(vals), len(flevels)))
            for r, v in enumerate(vals):
                onehot[r, idx[v]] = 1.0
            blocks.append(onehot)
            names.extend(f"{name}={lv}" for lv in flevels)

    if not blocks:
        raise DataError("schema declares no feature columns")
    X = np.hstack(blocks)

    for group in (0, 1):
        if not np.any(a == group):
            raise DataError(f"empty group: no rows with group a{group}")

    return Dataset(X, y, a, np.arange(len(rows)), tuple(names), schema.task)


def holdout_split(ds, test_fraction, seed):
    """Stratified split into (train_pool, test), deterministic per seed.

    Classification stratifies jointly on (group, label); regression on
    group only.  Every stratum needs at least 2 rows.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError("test_fraction must be in (0, 1)")
    if ds.task == CLASSIFICATION:
        keys = [(int(g), int(l)) for g, l in zip(ds.a, ds.y)]
    else:
        keys = [(int(g),) for g in ds.a]
    strata = {}
    for i, k in enumerate(keys):
        strata.setdefault(k, []).append(i)

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5B117)))
    test_idx = []
    train_idx = []
    for key in sorted(strata):
        members = np.array(strata[key])
        if len(members) < 2:
            raise DataError(f"stratum {key} has fewer than 2 rows")
        n_test = int(round(test_fraction * len(members)))
        n_test = min(max(n_test, 1), len(members) - 1)
        perm = rng.permutation(len(members))
        test_idx.extend(members[perm[:n_test]])
        train_idx.extend(members[perm[n_test:]])
    return ds.subset(sorted(train_idx)), ds.subset(sorted(test_idx))


def draw_sample(ds, m0, m1, seed, replicate_index, with_replacement):
    """Draw one replicate with exactly (m0, m1) rows per group; a group
    with a count of 0 is skipped without touching the stream."""
    rng = np.random.default_rng(
        np.random.SeedSequence((seed, replicate_index)))
    picked = []
    for group, want in ((0, m0), (1, m1)):
        pool = ds.group_indices(group)
        if want == 0:
            continue
        if not with_replacement and want > len(pool):
            raise DataError(
                f"group pool exhausted: need {want} rows from group "
                f"a{group}, pool has {len(pool)}")
        picked.append(rng.choice(pool, size=want, replace=with_replacement))
    idx = np.sort(np.concatenate(picked)) if picked else np.array([], dtype=int)
    return ds.subset(idx)


def _draw(pool, spec, cell, rep):
    """Replicate rep of a cell: exactly (m0, m1) rows per group."""
    return draw_sample(pool, cell.m0, cell.m1, cell.seed, rep,
                       spec.with_replacement)


def _collect_sampler(pool, spec, max_n1):
    """Sampler for collect cells: fixed_majority rows of the fixed group,
    then n1 rows of the growing pool, from one stream per (cell, rep).

    The fixed group is the privileged group a0, except under
    majority_random, which swaps the roles; minority_positive_only grows
    from the growing group's positive rows only.
    """
    fixed_group = 1 if spec.variant == "majority_random" else 0
    grow_group = 1 - fixed_group
    fixed_pool = pool.group_indices(fixed_group)
    if spec.fixed_majority > len(fixed_pool):
        raise DataError(
            f"fixed group a{fixed_group} pool has {len(fixed_pool)} rows, "
            f"need {spec.fixed_majority}")
    if spec.variant == "minority_positive_only":
        grow_pool = np.flatnonzero((pool.a == grow_group) & (pool.y == 1))
    else:
        grow_pool = pool.group_indices(grow_group)
    if max_n1 > len(grow_pool):
        raise DataError(
            f"growing pool for variant {spec.variant} has only "
            f"{len(grow_pool)} rows, grid needs {max_n1}")

    def sample(cell, rep):
        rng = np.random.default_rng(np.random.SeedSequence((cell.seed, rep)))
        take_fixed = rng.choice(fixed_pool, size=spec.fixed_majority,
                                replace=spec.with_replacement)
        take_grow = rng.choice(grow_pool, size=cell.counts[1],
                               replace=spec.with_replacement)
        return pool.subset(np.sort(np.concatenate([take_fixed, take_grow])))
    return sample


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logreg_loss_grad(w, Xb, y, l2):
    """Loss and gradient at w, with Xb the (d+1, m) feature-major rows."""
    z = w @ Xb
    # log(1 + exp(-m)) with m = (2y-1) z, numerically stable
    margin = np.where(y > 0.5, z, -z)
    loss = float(np.mean(np.logaddexp(0.0, -margin)))
    reg = w.copy()
    reg[-1] = 0.0  # intercept not penalized
    loss += 0.5 * l2 * float(reg @ reg)
    p = _sigmoid(z)
    grad = Xb @ (p - y) / len(y) + l2 * reg
    return loss, grad


def _fit_logreg(learner, X, y):
    # C-ordered, as the library stacks it: an F-ordered Xb (np.vstack of
    # X.T) would select another BLAS kernel, whose sums round differently
    Xb = np.empty((X.shape[1] + 1, len(y)))
    Xb[:-1] = X.T
    Xb[-1] = 1.0
    w = np.zeros(len(Xb))
    loss, grad = _logreg_loss_grad(w, Xb, y, learner.l2)
    for _ in range(learner.max_iter):
        if np.max(np.abs(grad)) < learner.grad_tol:
            break
        step = learner.learning_rate
        while step > 1e-12:
            w_new = w - step * grad
            loss_new, grad_new = _logreg_loss_grad(w_new, Xb, y, learner.l2)
            if loss_new <= loss:
                break
            step *= 0.5
        else:
            break
        w, loss, grad = w_new, loss_new, grad_new
    return {"w": w}


def fit_logreg_each(learner, Xs, ys):
    """_fit_logreg behind the library's many-sample fitter interface."""
    return [_fit_logreg(learner, X, y) for X, y in zip(Xs, ys)]


def score_logreg(params, X):
    """Logistic-regression scores through the masked sigmoid."""
    w = params["w"]
    return _sigmoid(X @ w[:-1] + w[-1])


def score_knn(params, X):
    """kNN scores, one query row at a time."""
    if "constant" in params:
        return np.full(len(X), params["constant"])
    Xt, yt, k = params["X"], params["y"], params["k"]
    out = np.empty(len(X))
    for i, x in enumerate(X):
        d2 = np.sum((Xt - x) ** 2, axis=1)
        # stable argsort: equal distances resolved by lower row index
        nn = np.argsort(d2, kind="stable")[:k]
        out[i] = yt[nn].mean()
    return out


def _build_tree(X, y, depth, learner):
    n = len(y)
    mean = float(y.mean())
    if (depth >= learner.max_depth or n < 2 * learner.min_leaf
            or mean in (0.0, 1.0)):
        return {"leaf": mean}
    split = _best_split(X, y, learner.min_leaf)
    if split is None:
        return {"leaf": mean}
    _, j, thr = split
    left = X[:, j] <= thr
    if left.all() or not left.any():
        return {"leaf": mean}
    return {
        "feature": j,
        "threshold": thr,
        "left": _build_tree(X[left], y[left], depth + 1, learner),
        "right": _build_tree(X[~left], y[~left], depth + 1, learner),
    }


def fit_tree(learner, X, y):
    """A decision tree as a nested dict, built by recursion."""
    return {"tree": _build_tree(X, y, 0, learner)}


def fit_tree_each(learner, Xs, ys):
    """fit_tree behind the library's many-sample fitter interface."""
    return [fit_tree(learner, X, y) for X, y in zip(Xs, ys)]


def score_tree_one(node, x):
    while "leaf" not in node:
        node = node["left"] if x[node["feature"]] <= node["threshold"] \
            else node["right"]
    return node["leaf"]


def score_tree(params, X):
    """Tree scores, one walk of the fitted dict per query row."""
    if "constant" in params:
        return np.full(len(X), params["constant"])
    tree = params["tree"]
    return np.array([score_tree_one(tree, x) for x in X])


def zero_one_points(ens):
    """(bias, variance, net_factor, mean_loss) tuples, one entry per
    evaluation point, for a zero-one ensemble."""
    mean_scores = ens.scores.mean(axis=0)
    labels = _majority_labels(ens, mean_scores)
    k = ens.k
    n_diff_main = (ens.labels != labels).sum(axis=0)
    n_diff_y = (ens.labels != ens.eval_y).sum(axis=0)
    bias, variance, net_factor, mean_loss = [], [], [], []
    zero = Fraction(0)
    for i in range(ens.n):
        b = zero if labels[i] == ens.eval_y[i] else Fraction(1)
        v = Fraction(int(n_diff_main[i]), k)
        c = 1 if b == 0 else -1
        bias.append(b)
        variance.append(v)
        net_factor.append(c)
        mean_loss.append(Fraction(int(n_diff_y[i]), k))
    return tuple(bias), tuple(variance), tuple(net_factor), tuple(mean_loss)


@dataclass(frozen=True)
class PointDecomposition:
    """Per evaluation point terms.  For squared loss the entries are float
    arrays; for zero-one loss they are tuples of Fractions."""

    loss_kind: str
    bias: tuple
    variance: tuple
    net_factor: tuple     # c(x): +1 / -1 for 0-1 loss, 1 for squared
    mean_loss: tuple


def decompose_points(ens):
    """The per-point form of the decomposition: a point's mean loss over
    the models is its bias plus net_factor times its variance."""
    if ens.loss_kind == SQUARED:
        mean_scores = ens.scores.mean(axis=0)
        return PointDecomposition(
            SQUARED, (mean_scores - ens.eval_y) ** 2,
            ((ens.scores - mean_scores) ** 2).mean(axis=0), np.ones(ens.n),
            ((ens.scores - ens.eval_y) ** 2).mean(axis=0))
    return PointDecomposition(ZERO_ONE, *zero_one_points(ens))


def _subset_mask(metric, y):
    cond = _CONDITIONING[metric]
    if cond == "all":
        return np.ones(len(y), dtype=bool), cond
    if cond == "y==0":
        return y == 0, cond
    return y == 1, cond


def decompose_cost(ens, metric):
    """Per-group decomposition of one cost metric, summing one term per
    evaluation point."""
    if metric not in _CONDITIONING:
        raise ConfigError(f"metric {metric!r} has no decomposition")
    loss_kind = SQUARED if metric == "MSE" else ZERO_ONE
    if loss_kind != ens.loss_kind:
        raise ConfigError(
            f"metric {metric} needs {loss_kind} loss, ensemble carries "
            f"{ens.loss_kind}")
    if loss_kind == SQUARED:
        points = decompose_points(ens)
        bias, variance = points.bias, points.variance
    else:
        bias, variance, net_factor, _ = zero_one_points(ens)
    mask, cond = _subset_mask(metric, ens.eval_y)
    offset, sign = _COST_AFFINE[metric]
    terms = {}
    for group in (0, 1):
        sel = np.flatnonzero(mask & (ens.eval_a == group))
        if len(sel) == 0:
            terms[group] = (None, None, None)
            continue
        if loss_kind == SQUARED:
            b = float(np.mean(np.asarray(bias)[sel]))
            v = float(np.mean(np.asarray(variance)[sel]))
            n0 = 0.0
        else:
            b = sum(bias[i] for i in sel) / len(sel)
            v = sum(net_factor[i] * variance[i] for i in sel) / len(sel)
            n0 = Fraction(0)
        terms[group] = (n0, b, v)
    return DecompositionReport(metric, cond, offset, sign,
                               terms[0][1], terms[0][2],
                               terms[1][1], terms[1][2])


def decompose_costs(ens, metrics):
    """{metric: DecompositionReport} from decompose_cost, one metric at a
    time."""
    return {metric: decompose_cost(ens, metric) for metric in metrics}


def sd_bounds(ens):
    """Statistical-disparity bounds, summing one term per evaluation
    point."""
    if ens.loss_kind != ZERO_ONE:
        raise ConfigError("sd_bounds requires a classification ensemble")
    for group in (0, 1):
        if not np.any(ens.eval_a == group):
            raise DataError(f"empty group a{group} in evaluation set")
    mean_scores = ens.scores.mean(axis=0)
    main = _majority_labels(ens, mean_scores)
    k = ens.k
    n_diff_main = (ens.labels != main).sum(axis=0)
    terms = {}
    sd_hat = {}
    sd_true = {}
    for group in (0, 1):
        sel = np.flatnonzero(ens.eval_a == group)
        n = len(sel)
        b_sum = Fraction(0)
        v_sum = Fraction(0)
        for i in sel:
            b = Fraction(0) if main[i] == ens.eval_y[i] else Fraction(1)
            v = Fraction(int(n_diff_main[i]), k)
            b_sum += b
            v_sum += (1 - 2 * b) * v
        terms[group] = (Fraction(0), b_sum / n, v_sum / n)
        sd_hat[group] = Fraction(int(ens.labels[:, sel].sum()), k * n)
        sd_true[group] = Fraction(int(ens.eval_y[sel].sum()), n)
    dn = terms[1][0] - terms[0][0]
    db = terms[1][1] - terms[0][1]
    dv = terms[1][2] - terms[0][2]
    upper = dn + db + dv
    lower = max(dn - db - dv, db - dn - dv, dv - db - dn)
    observed = abs((sd_hat[1] - sd_hat[0]) - (sd_true[1] - sd_true[0]))
    within = lower <= observed <= upper
    return SdBoundsReport(observed, upper, lower, within,
                          terms[0][1], terms[0][2],
                          terms[1][1], terms[1][2])


@dataclass(frozen=True)
class Report:
    """One model's exact per-group values of one metric (None where
    undefined) and their difference a1 - a0."""

    metric: str
    value_a0: object
    value_a1: object
    disc: object


def oracle_metrics(y, labels, scores, a, metrics=None):
    """Naive loop-based recomputation of every metric; tests only."""
    if len(y) > _ORACLE_N_CAP:
        raise ConfigError(f"oracle size cap {_ORACLE_N_CAP} exceeded")
    metrics = metrics or [m for m in ALL_METRICS if m != "MSE"]
    reports = []
    for metric in metrics:
        vals = []
        for group in (0, 1):
            idx = [i for i in range(len(y)) if a[i] == group]
            num, den = _oracle_counts(metric, y, labels, scores, idx)
            vals.append(num if metric == "MSE" and den else _frac(num, den))
        disc = None if None in vals else vals[1] - vals[0]
        reports.append(Report(metric, vals[0], vals[1], disc))
    return reports


def oracle_model_costs(y, labels, scores, a, metrics):
    """group_metrics.model_costs one model and one group at a time:
    {metric: MetricCosts} for a (K, n) stack, each model's numerators
    counted in loops over the rows, its denominators checked equal to
    every other model's."""
    if len(y) > _ORACLE_N_CAP:
        raise ConfigError(f"oracle size cap {_ORACLE_N_CAP} exceeded")
    labels = np.asarray(labels)
    groups = [[i for i in range(len(y)) if a[i] == g] for g in (0, 1)]
    costs = {}
    for metric in metrics:
        rows = [[_oracle_counts(metric, y, labels[k],
                                None if scores is None else scores[k], idx)
                 for idx in groups] for k in range(len(labels))]
        dens = {tuple(d for _, d in row) for row in rows}
        assert len(dens) == 1, (metric, dens)
        costs[metric] = MetricCosts(
            tuple(tuple(n for n, _ in row) for row in rows), dens.pop())
    return costs


def _oracle_counts(metric, y, labels, scores, idx):
    """(numerator, denominator) of one model's metric over the rows idx:
    counts for the rate metrics, 2 * wins + ties over 2 * positive-negative
    pairs for AUC, the mean squared error over 1 for MSE (0.0 over 0 for no
    rows)."""
    if metric == "FPR":
        den = [i for i in idx if y[i] == 0]
        return sum(1 for i in den if labels[i] == 1), len(den)
    if metric == "FNR":
        den = [i for i in idx if y[i] == 1]
        return sum(1 for i in den if labels[i] == 0), len(den)
    if metric == "EO":
        den = [i for i in idx if y[i] == 1]
        return sum(1 for i in den if labels[i] == 1), len(den)
    if metric == "ZOL":
        return sum(1 for i in idx if labels[i] != y[i]), len(idx)
    if metric == "SD":
        return sum(1 for i in idx if labels[i] == 1), len(idx)
    if metric == "MSE":
        if not idx:
            return 0.0, 0
        # the squared errors one row at a time, squared as e * e (Python's
        # e ** 2 can differ in the last bit) and averaged in numpy's
        # summation order, so that a sweep's bytes can be compared
        errors = [float(scores[i]) - float(y[i]) for i in idx]
        return float(np.mean([e * e for e in errors])), 1
    if metric == "AUC":
        pos = [scores[i] for i in idx if y[i] == 1]
        neg = [scores[i] for i in idx if y[i] == 0]
        doubled = 0
        for sp in pos:
            for sn in neg:
                if sp > sn:
                    doubled += 2
                elif sp == sn:
                    doubled += 1
        return doubled, 2 * len(pos) * len(neg)
    raise ConfigError(f"unknown metric {metric!r}")


def _frac(num, den):
    return None if den == 0 else Fraction(num, den)


def oracle_decomposition(ens, loss_kind=None):
    """Exhaustive per-point decomposition for tiny ensembles (K <= 5,
    n <= 20): returns (noise, bias, variance, net_factor, mean_loss) lists."""
    loss_kind = loss_kind or ens.loss_kind
    if ens.k > 5 or ens.n > 20:
        raise ConfigError("oracle decomposition caps: K <= 5, n <= 20")
    noise, bias, variance, net_factor, mean_loss = [], [], [], [], []
    for i in range(ens.n):
        y = float(ens.eval_y[i])
        if loss_kind == "squared":
            preds = [float(ens.scores[k][i]) for k in range(ens.k)]
            main = sum(preds) / len(preds)
            b = (main - y) ** 2
            v = sum((p - main) ** 2 for p in preds) / len(preds)
            c = 1
            ml = sum((p - y) ** 2 for p in preds) / len(preds)
        else:
            preds = [float(ens.labels[k][i]) for k in range(ens.k)]
            ones = sum(1 for p in preds if p == 1)
            if 2 * ones > len(preds):
                main = 1.0
            elif 2 * ones < len(preds):
                main = 0.0
            else:
                main = 1.0 if np.mean(ens.scores[:, i]) >= 0.5 else 0.0
            b = Fraction(0) if main == y else Fraction(1)
            v = Fraction(sum(1 for p in preds if p != main), len(preds))
            ml = Fraction(sum(1 for p in preds if p != y), len(preds))
            if loss_kind == "zero_one":
                c = 1 if b == 0 else -1
            else:  # absolute loss: net factor (1 - 2B)
                c = 1 - 2 * b
        noise.append(0 if loss_kind != "squared" else 0.0)
        bias.append(b)
        variance.append(v)
        net_factor.append(c)
        mean_loss.append(ml)
    return noise, bias, variance, net_factor, mean_loss
