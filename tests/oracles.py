"""Per-row and per-point reference implementations of kNN scoring, tree
scoring and the exact zero-one decomposition.

These are the straightforward loops the library's array code must match
exactly: one stable argsort per query row, one walk of the fitted tree
dict per query row, one ``Fraction`` per evaluation point.  Tests compare
against them with ``np.array_equal`` and ``==`` on ``Fraction``s, and can
monkeypatch them in for an end-to-end byte comparison.
"""

from fractions import Fraction

import numpy as np

from fairsample.decomposition import (_COST_AFFINE, _CONDITIONING, SQUARED,
                                      ZERO_ONE, DecompositionReport,
                                      SdBoundsReport, _majority_labels,
                                      _subset_mask, decompose_points)
from fairsample.errors import ConfigError, DataError


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
                               terms[0][0], terms[0][1], terms[0][2],
                               terms[1][0], terms[1][1], terms[1][2])


def sd_bounds(ens):
    """Statistical-disparity bounds, summing one term per evaluation
    point."""
    if ens.loss_kind not in (ZERO_ONE, "absolute"):
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
                          terms[0][0], terms[0][1], terms[0][2],
                          terms[1][0], terms[1][1], terms[1][2])
