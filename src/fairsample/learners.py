"""Dependency-free deterministic learners behind a single interface.

Every learner produces continuous scores and thresholded labels.  fit and
predict are pure functions: identical inputs give bit-identical outputs,
which the experiment harness relies on for reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import CLASSIFICATION, REGRESSION
from .errors import ConfigError, DataError

KINDS = ("logistic_regression", "decision_tree", "knn", "linear_regression")


@dataclass(frozen=True)
class Learner:
    kind: str = "logistic_regression"
    threshold: float = 0.5
    # logistic regression
    l2: float = 1e-4
    learning_rate: float = 0.1
    max_iter: int = 2000
    grad_tol: float = 1e-6
    # decision tree
    max_depth: int = 8
    min_leaf: int = 5
    # knn
    k: int = 5
    # linear regression
    ridge_jitter: float = 1e-8

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown learner kind {self.kind!r}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("threshold must be in (0, 1)")
        # an infinite learning rate never finds a step; NaN fits nothing
        for name in ("l2", "learning_rate", "grad_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.l2 < 0 or self.learning_rate <= 0 or self.max_iter < 1:
            raise ConfigError("invalid logistic regression hyperparameters")
        if self.max_depth < 1 or self.min_leaf < 1:
            raise ConfigError("invalid decision tree hyperparameters")
        if self.k < 1:
            raise ConfigError("k must be >= 1")

    @property
    def task(self):
        return REGRESSION if self.kind == "linear_regression" else CLASSIFICATION

    def check_task(self, task):
        """Reject a dataset whose labels this learner does not fit."""
        if task != self.task:
            raise ConfigError(f"learner {self.kind} fits {self.task} labels, "
                              f"the dataset's task is {task}")


@dataclass(frozen=True)
class FittedModel:
    """Opaque fitted parameters."""

    kind: str
    threshold: float
    n_features: int
    params: dict
    task: str

    def predict(self, X):
        """Return (scores, labels) for a feature matrix.

        Classification: scores in [0, 1], labels = 1[score >= threshold].
        Regression: labels are the real-valued scores.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DataError(
                f"feature dimension mismatch: model expects {self.n_features},"
                f" got {X.shape}")
        if "constant" in self.params:
            scores = np.full(len(X), self.params["constant"])
        else:
            scores = _SCORERS[self.kind](self.params, X)
        if self.task == CLASSIFICATION:
            scores = np.clip(scores, 0.0, 1.0)
            labels = (scores >= self.threshold).astype(float)
        else:
            labels = scores
        return scores, labels


def fit(learner, train):
    return fit_many(learner, [train])[0]


def fit_many(learner, samples):
    """One FittedModel per training sample, in order.

    Samples of one shape are fitted together, so a cell's K same-size
    draws make one batched logistic-regression solve; each model is
    bit-identical to a fit of its sample alone.
    """
    models = [None] * len(samples)
    by_shape = {}
    for i, train in enumerate(samples):
        if train.n == 0:
            raise DataError("cannot fit on an empty training set")
        if train.X.shape[1] == 0:
            raise DataError("zero-feature input")
        if learner.task == CLASSIFICATION and len(np.unique(train.y)) < 2:
            # Single-class draws are common at very small m; a constant
            # model keeps sweeps running instead of crashing.
            models[i] = FittedModel(learner.kind, learner.threshold,
                                    train.X.shape[1],
                                    {"constant": float(train.y[0])},
                                    CLASSIFICATION)
        else:
            by_shape.setdefault(train.X.shape, []).append(i)
    for idx in by_shape.values():
        fitted = _FITTERS[learner.kind](learner, [samples[i].X for i in idx],
                                        [samples[i].y for i in idx])
        for i, params in zip(idx, fitted):
            models[i] = FittedModel(learner.kind, learner.threshold,
                                    samples[i].X.shape[1], params,
                                    learner.task)
    return models


def _each(fit_one):
    """A fitter over same-shape samples from a one-sample fitter."""
    return lambda learner, Xs, ys: [fit_one(learner, X, y)
                                    for X, y in zip(Xs, ys)]


# ---------------------------------------------------------------- logistic

def _sigmoid(z):
    """Logistic function without masks: exp(-|z|) is exp(-z) for z >= 0
    and exp(z) below, so either branch is what a masked version computes."""
    e = np.exp(-np.abs(z))
    q = 1.0 + e
    return np.where(z >= 0, 1.0 / q, e / q)


def _logreg_loss_grad(w, Xb, y, flip, l2):
    """Loss and gradient of each replicate k at its own weights w[k].

    Each replicate gets the arithmetic of a one-sample fit: a matmul per
    slice (gemv, ddot), a mean as np.mean takes it (a pairwise sum along
    the contiguous row axis, then a divide), and -margin = z * flip with
    flip = -1 where y is positive, which is exact.
    """
    n = y.shape[1]
    z = np.matmul(Xb, w[:, :, None])[:, :, 0]
    # log(1 + exp(-m)) with m = (2y-1) z, numerically stable
    loss = np.add.reduce(np.logaddexp(0.0, z * flip), axis=1) / n
    reg = w.copy()
    reg[:, -1] = 0.0  # intercept not penalized
    loss += 0.5 * l2 * np.matmul(reg[:, None, :], reg[:, :, None])[:, 0, 0]
    r = _sigmoid(z) - y
    grad = (np.matmul(Xb.transpose(0, 2, 1), r[:, :, None])[:, :, 0] / n
            + l2 * reg)
    return loss, grad


def _max_abs(grad):
    """Largest |gradient| entry of each replicate."""
    return np.maximum.reduce(np.abs(grad), axis=1)


def _fit_logreg(learner, Xs, ys):
    """Gradient descent with backtracking, the K replicates in lockstep.

    Every round tries one step for each live replicate.  A replicate
    accepts it when the loss does not rise, else halves its step; it
    stops once its gradient is below grad_tol, after max_iter accepted
    steps, or when its step falls to 1e-12.  Stopped replicates leave
    the batch.
    """
    lr, l2 = learner.learning_rate, learner.l2
    K, (n, d) = len(Xs), Xs[0].shape
    Xb = np.empty((K, n, d + 1))
    for k, X in enumerate(Xs):
        Xb[k, :, :d] = X
    Xb[:, :, d] = 1.0
    y = np.stack(ys)
    flip = np.where(y > 0.5, -1.0, 1.0)
    w = np.zeros((K, d + 1))
    loss, grad = _logreg_loss_grad(w, Xb, y, flip, l2)
    step = np.full(K, lr)
    accepted = np.zeros(K, dtype=int)
    live = np.arange(K)
    out = np.empty((K, d + 1))
    stop = (_max_abs(grad) < learner.grad_tol) | ~(step > 1e-12)
    while True:
        if stop.any():
            out[live[stop]] = w[stop]
            keep = ~stop
            if not keep.any():
                break
            Xb, y, flip, w, loss, grad, step, accepted, live = (
                a[keep] for a in (Xb, y, flip, w, loss, grad, step,
                                  accepted, live))
        w_new = w - step[:, None] * grad
        loss_new, grad_new = _logreg_loss_grad(w_new, Xb, y, flip, l2)
        ok = loss_new <= loss
        w = np.where(ok[:, None], w_new, w)
        loss = np.where(ok, loss_new, loss)
        grad = np.where(ok[:, None], grad_new, grad)
        accepted += ok
        step = np.where(ok, lr, step * 0.5)
        # not (step > 1e-12), the one-sample loop's test: a NaN step stops
        stop = ~(step > 1e-12) | (ok & (
            (accepted >= learner.max_iter)
            | (_max_abs(grad) < learner.grad_tol)))
    return [{"w": wk} for wk in out]


def _score_logreg(params, X):
    w = params["w"]
    return _sigmoid(X @ w[:-1] + w[-1])


# ---------------------------------------------------------------- tree

def _best_split(X, y, min_leaf):
    """Lowest-impurity split; ties broken by lowest feature index then
    lowest threshold (first strict improvement wins)."""
    n = len(y)
    best = None  # (impurity, feature, threshold)
    for j in range(X.shape[1]):
        xj = X[:, j]
        order = np.argsort(xj, kind="stable")
        xs = xj[order]
        ys = y[order]
        pos_left = np.cumsum(ys)
        total_pos = pos_left[-1]
        # candidate cut puts i items on the left
        i = np.arange(min_leaf, n - min_leaf + 1)
        valid = xs[i - 1] < xs[i]
        i = i[valid]
        if len(i) == 0:
            continue
        nl = i.astype(float)
        nr = n - nl
        pl = pos_left[i - 1]
        pr = total_pos - pl
        gl = 1.0 - (pl / nl) ** 2 - ((nl - pl) / nl) ** 2
        gr = 1.0 - (pr / nr) ** 2 - ((nr - pr) / nr) ** 2
        imp = (nl * gl + nr * gr) / n
        # thresholds increase with i, so argmin's first-occurrence rule
        # picks the lowest threshold among exact ties within a feature
        k = int(np.argmin(imp))
        thr = 0.5 * (xs[i[k] - 1] + xs[i[k]])
        if best is None or imp[k] < best[0] - 1e-15:
            best = (float(imp[k]), j, thr)
    return best


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


def _fit_tree(learner, X, y):
    return {"tree": _build_tree(X, y, 0, learner)}


def _flatten_tree(tree):
    """Preorder node arrays (feature, threshold, left, right, value) and
    the tree's height.  A leaf points to itself on both sides, so a row
    that reaches it early stays there while deeper rows descend."""
    feature, threshold, left, right, value = [], [], [], [], []

    def add(node):
        i = len(feature)
        feature.append(node.get("feature", 0))
        threshold.append(node.get("threshold", 0.0))
        value.append(node.get("leaf", 0.0))
        left.append(i)
        right.append(i)
        if "leaf" in node:
            return 0
        left[i] = len(feature)
        height = add(node["left"])
        right[i] = len(feature)
        return 1 + max(height, add(node["right"]))

    height = add(tree)
    return (np.array(feature), np.array(threshold), np.array(left),
            np.array(right), np.array(value), height)


def _score_tree(params, X):
    """Leaf value of each row, all rows descending one level per step.

    The same `<=` comparisons against the same thresholds as a walk of the
    fitted dict one row at a time, so every row reaches the same leaf.
    """
    feature, threshold, left, right, value, height = _flatten_tree(
        params["tree"])
    rows = np.arange(len(X))
    node = np.zeros(len(X), dtype=np.intp)
    for _ in range(height):
        go_left = X[rows, feature[node]] <= threshold[node]
        node = np.where(go_left, left[node], right[node])
    return value[node]


# ---------------------------------------------------------------- knn

# distance terms (query rows x training rows x features) per chunk in
# _score_knn: ~512 KB as float64, shared out over one array per feature;
# larger chunks cut per-chunk overhead until they fall out of cache
_KNN_CHUNK_ELEMS = 65536


def _fit_knn(learner, X, y):
    return {"X": X.copy(), "y": y.copy(), "k": min(learner.k, len(y))}


def _sq_distances(Xt_cols, Xq_cols, lo, hi):
    """Squared distances over features lo..hi-1, shape (queries, n_train).

    One (queries, n_train) term per feature, added in numpy's pairwise
    order for a d-long float64 reduction: sequential below 8 terms; 8
    lanes combined ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) plus the remainder
    up to 128; above that, halves split at a multiple of 8.  The result is
    bit-equal to np.sum((Xt - Xq[:, None]) ** 2, axis=2) without its 3-D
    temporary and short-axis reduction.
    """
    def term(j):
        t = Xt_cols[j] - Xq_cols[j][:, None]
        return np.multiply(t, t, out=t)

    n = hi - lo
    if n > 128:
        half = n // 2 - n // 2 % 8
        return (_sq_distances(Xt_cols, Xq_cols, lo, lo + half)
                + _sq_distances(Xt_cols, Xq_cols, lo + half, hi))
    if n < 8:
        acc = term(lo)
        for j in range(lo + 1, hi):
            acc += term(j)
        return acc
    r = [term(lo + i) for i in range(8)]
    end = hi - n % 8
    for s in range(lo + 8, end, 8):
        for i in range(8):
            r[i] += term(s + i)
    acc = (((r[0] + r[1]) + (r[2] + r[3]))
           + ((r[4] + r[5]) + (r[6] + r[7])))
    for j in range(end, hi):
        acc += term(j)
    return acc


def _score_knn(params, X):
    """Fraction of positive labels among the k nearest training rows.

    Query rows are scored in chunks of at most _KNN_CHUNK_ELEMS distance
    terms.  Squared distances come from _sq_distances, whose summation
    order does not depend on the chunk, so ties are exact.  A row with
    exactly k training rows at or below its k-th distance takes them all;
    only a row with more, a tie across the k-th place, gives the tied
    places to the lower training rows, as a stable argsort would.  Labels
    are 0/1, so the positive count over k is exact too.
    """
    Xt, yt, k = params["X"], params["y"], params["k"]
    Xt_cols = np.ascontiguousarray(Xt.T)
    rows = max(1, _KNN_CHUNK_ELEMS // Xt.size)
    out = np.empty(len(X))
    for s in range(0, len(X), rows):
        Xq_cols = np.ascontiguousarray(X[s:s + rows].T)
        d2 = _sq_distances(Xt_cols, Xq_cols, 0, len(Xt_cols))
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        near = d2 <= kth
        # rows with more than k candidates have ties across the k-th place
        over = np.flatnonzero(np.count_nonzero(near, axis=1) > k)
        if over.size:
            d2, kth = d2[over], kth[over]
            fill = d2 < kth
            tie = d2 == kth
            need = k - fill.sum(axis=1, keepdims=True)
            fill |= tie & (np.cumsum(tie, axis=1) <= need)
            near[over] = fill
        out[s:s + rows] = near @ yt / k
    return out


# ---------------------------------------------------------------- OLS

def _fit_ols(learner, X, y):
    Xb = np.hstack([X, np.ones((len(y), 1))])
    G = Xb.T @ Xb
    b = Xb.T @ y
    try:
        np.linalg.cholesky(G)
        w = np.linalg.solve(G, b)
    except np.linalg.LinAlgError:
        # small samples routinely make the Gram matrix singular
        G = G + learner.ridge_jitter * np.eye(G.shape[0])
        w = np.linalg.solve(G, b)
    return {"w": w}


def _score_ols(params, X):
    w = params["w"]
    return X @ w[:-1] + w[-1]


# each takes the features and labels of K samples of one shape and returns
# K params dicts
_FITTERS = {
    "logistic_regression": _fit_logreg,
    "decision_tree": _each(_fit_tree),
    "knn": _each(_fit_knn),
    "linear_regression": _each(_fit_ols),
}

_SCORERS = {
    "logistic_regression": _score_logreg,
    "decision_tree": _score_tree,
    "knn": _score_knn,
    "linear_regression": _score_ols,
}
