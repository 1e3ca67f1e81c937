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
from .errors import ConfigError, DataError, check_fields


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
        check_fields(self)
        if self.kind not in _FITTERS:
            raise ConfigError(f"unknown learner kind {self.kind!r}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("threshold must be in (0, 1)")
        if self.l2 < 0 or self.learning_rate <= 0 or self.max_iter < 1:
            raise ConfigError("invalid logistic regression hyperparameters")
        if self.ridge_jitter <= 0:
            # a singular Gram matrix would reach the solve unregularised
            raise ConfigError("ridge_jitter must be > 0")
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

    The samples share one feature count.  Single-class samples get a
    constant model; every other sample, whatever its size, goes to the
    learner's fitter in one call.  Logistic regression solves them all in
    one lockstep loop, so the draws of several sweep cells make one solve;
    each model is bit-identical to a fit of its sample alone.
    """
    models = [None] * len(samples)
    idx = []
    for i, train in enumerate(samples):
        if train.n == 0:
            raise DataError("cannot fit on an empty training set")
        if train.X.shape[1] == 0:
            raise DataError("zero-feature input")
        if train.X.shape[1] != samples[0].X.shape[1]:
            raise DataError("fit_many takes samples of one feature count, "
                            f"got {samples[0].X.shape[1]} and "
                            f"{train.X.shape[1]}")
        if learner.task == CLASSIFICATION and len(np.unique(train.y)) < 2:
            # Single-class draws are common at very small m; a constant
            # model keeps sweeps running instead of crashing.
            models[i] = FittedModel(learner.kind, learner.threshold,
                                    train.X.shape[1],
                                    {"constant": float(train.y[0])},
                                    CLASSIFICATION)
        else:
            idx.append(i)
    fitted = _FITTERS[learner.kind](learner, [samples[i].X for i in idx],
                                    [samples[i].y for i in idx])
    for i, params in zip(idx, fitted):
        models[i] = FittedModel(learner.kind, learner.threshold,
                                samples[i].X.shape[1], params, learner.task)
    return models


def _each(fit_one):
    """A fitter over many samples from a one-sample fitter."""
    return lambda learner, Xs, ys: [fit_one(learner, X, y)
                                    for X, y in zip(Xs, ys)]


# ---------------------------------------------------------------- logistic

def _sigmoid(z, out=None):
    """Logistic function without masks, into out if given: e = exp(-|z|)
    is exp(-z) for z >= 0 and exp(z) below, and max(e, 1[z >= 0]) is 1
    for z >= 0 (e is at most 1) and e below, so either side divides what a
    masked version divides."""
    e = np.abs(z, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    top = np.maximum(e, z >= 0)
    e += 1.0
    return np.divide(top, e, out=e)


def _stacks(Xbs):
    """_logreg_grad's (Xb, replicate slice, row slice) of each stack: a
    (k, m, d+1) stack holds k replicates of m rows each, after the stack
    before it."""
    out, i, o = [], 0, 0
    for Xb in Xbs:
        k, m = Xb.shape[:2]
        out.append((Xb, slice(i, i + k), slice(o, o + k * m)))
        i, o = i + k, o + k * m
    return out


def _logreg_grad(w, stacks, y, n, l2, work):
    """Margins z = Xb w and loss gradient of each replicate k at its own
    weights w[k].

    stacks holds (Xb, replicate slice, row slice) per sample size m: a
    (k, m, d+1) stack, where its replicates are in w and n (each
    replicate's row count), and where their rows, replicate after
    replicate, are in y and in the flat z.  Each replicate gets the
    arithmetic of a one-sample fit: a matmul per slice (gemv) and the mean
    gradient as a sum, then a divide.  Every other step runs once over all
    replicates, the residual in the work buffer.
    """
    z = np.empty(len(y))
    grad = np.empty_like(w)
    for Xb, reps, rows in stacks:
        np.matmul(Xb, w[reps, :, None], out=z[rows].reshape(*Xb.shape[:2], 1))
    r = _sigmoid(z, out=work)
    r -= y
    for Xb, reps, rows in stacks:
        np.matmul(Xb.transpose(0, 2, 1), r[rows].reshape(*Xb.shape[:2], 1),
                  out=grad[reps, :, None])
    grad /= n[:, None]
    reg = l2 * w
    reg[:, -1] = 0.0  # intercept not penalized
    grad += reg
    return z, grad


def _logreg_loss(z, w, flip, stacks, l2):
    """Loss of each replicate at weights w[k], from its margins z, laid out
    as in _logreg_grad.

    A pure function of (z, w), with a one-sample fit's arithmetic: a mean
    as np.mean takes it (a pairwise sum along the contiguous row axis, per
    stack, then a divide), -margin = z * flip with flip = -1 where y is
    positive, which is exact, and the penalty as a matmul per slice.
    """
    # log(1 + exp(-m)) with m = (2y-1) z, numerically stable
    terms = np.logaddexp(0.0, z * flip)
    loss = np.empty(len(w))
    for Xb, reps, rows in stacks:
        k, m = Xb.shape[:2]
        loss[reps] = np.add.reduce(terms[rows].reshape(k, m), axis=1) / m
    reg = w.copy()
    reg[:, -1] = 0.0
    loss += 0.5 * l2 * np.matmul(reg[:, None, :], reg[:, :, None])[:, 0, 0]
    return loss


# float64 unit roundoff
_U = 2.0 ** -53


def _fit_logreg(learner, Xs, ys):
    """Gradient descent with backtracking, every sample in one lockstep
    loop: the weights of each sample, in order, as params dicts.

    Every round tries one step for each live replicate.  A replicate
    accepts it when the loss does not rise, else halves its step; it
    stops once its gradient is below grad_tol, after max_iter accepted
    steps, or when its step falls to 1e-12.  Stopped replicates leave
    the batch.

    Samples of every size share the rounds.  The replicates of one size
    m are a (k, m, d+1) stack with its own two matmuls per round, Xb w and
    Xb' r; every other step runs once per round on flat arrays over all
    live replicates: the residual over all their rows, the step, the
    certificate, the stop test and compaction, which copies only the
    stacks that lost a replicate.  No step mixes two replicates, so each
    one's arithmetic is that of a fit of its sample alone.

    Most steps are certified: a bound shows that the computed loss at
    the trial point w' cannot exceed the one at w.  A round that
    certifies every live step computes no loss (one logaddexp per row,
    most of a round's time).  Any other round computes both losses of
    every live replicate from its margins and accepts each step whose
    loss does not rise, which a certified step passes too.  Each
    replicate therefore takes the steps, and ends at the weights, of a
    fit that computes every loss.

    The bound.  Let u = 2**-53, gh the computed gradient at w, g = ||gh||,
    s the step, q = ||w||, q' = ||w'||, R the mean row norm of Xb and
    L = tr(Xb'Xb) / (4n) + l2, which bounds the Hessian everywhere
    (sigma' <= 1/4, and the trace bounds the largest eigenvalue).  Loss
    and gradient are means over rows, so a row's share of any error
    below scales with its own norm, and the mean norm R bounds the total.
    Every float error term is over-estimated by at least 4x, which also
    covers the terms of order u^2 and the rounding of the test's own
    arithmetic.

    - Gradient error: ||gh - grad f(w)|| <= (a + b q) / 4 + u g, with
      a = 4u (n + 8) R and b = 4u ((d+1) (L - l2) + l2), from the
      (d+1)-term gemv for z (|dz_i| <= (d+1) u ||x_i|| q, through
      sigma' <= 1/4), 5u for the sigmoid and u for sigma - y, the n-row
      gemv Xb'r (n u R in any summation order), the divide by n,
      l2 * reg and the final add.  As ||grad f|| <= R + l2 q, also
      g <= 2R + (l2 + b) q.
    - Step rounding: w' = fl(w - fl(s gh)) = w - s gh + r, with
      ||r|| <= u (s g + q').
    - The descent lemma (Nesterov, Introductory Lectures on Convex
      Optimization, 1.2.3), f(w') <= f(w) + grad f(w).(w' - w)
      + L/2 ||w' - w||^2, with sL < 2 (else the test fails anyway), gives
      the exact decrease, error terms 4x,

          f(w) - f(w') >= s g^2 (1 - 16u - sL/2) - s g (a + b q)
                          - 12u (2R + (l2 + b) q) q'.

      Young's inequality, s g a <= (t1 s^2 g^2 + a^2 / t1) / 2 with
      t1 = a^2 / u and s g b q <= (t2 s^2 g^2 + b^2 q^2 / t2) / 2 with
      t2 = L / 1024, moves the middle terms into Lt = L + t1 + t2 and
      into the slack.
    - Loss error: |fl(f(v)) - f(v)| <= u (d + h + 8) (R q + 1 + l2 q^2)
      at ||v|| = q, from the (d+1)-term gemv for z (logaddexp(0, .) is
      1-Lipschitz); libm logaddexp, 5u relative (exp and log1p within an
      ulp each, one add); numpy's pairwise add.reduce of the n terms,
      each at most log 2 + ||x_i|| q, where a term meets at most
      h = log2 n + 19 + n / 8192 roundings (8 lanes of 16 per 128-block,
      three levels to combine them, a remainder of 7, one level per
      halving above 128, and one per 8192-element buffer should numpy sum
      in buffers); the divide by n; the penalty's (d+1)-term ddot and
      products; the final add.

    A point's slack holds its loss error 4x, its share of the last term
    above, 24u R q' + 12u (l2 + b) q q' <= 24u R q'
    + 6u (l2 + b) (q^2 + q'^2), and the Young remainders b^2 q^2 / (2 t2)
    and a^2 / (2 t1) = u / 2: with c = 4 (d + h + 14),

        slack(v) = c u (R q + 1 + l2 q^2) + (6u b + 512 b^2 / L) q^2 + u,

    and a replicate's step is certified when

        s g^2 (1 - 16u - s Lt / 2) > slack(w) + slack(w').

    Then the exact decrease exceeds the float error of both computed
    losses, and fl(f(w')) <= fl(f(w)) is what the comparison would find.
    R and L are inflated by 2**-20 for their own rounding (sums of fewer
    than 2**31 terms).  Lt >= 1/4 (the intercept column), so a positive
    factor needs s < 8, and g^2 is capped at 2**960, which only lowers
    the left side: it cannot overflow.  A NaN or an overflow anywhere
    fails the test, and the step takes the exact path.
    """
    if not Xs:
        return []
    lr, l2, d = learner.learning_rate, learner.l2, Xs[0].shape[1]
    by_n = {}
    for i, X in enumerate(Xs):
        by_n.setdefault(len(X), []).append(i)
    Xbs, consts = [], []
    for m, idx in by_n.items():
        Xb = np.empty((len(idx), m, d + 1))
        for k, i in enumerate(idx):
            Xb[k, :, :d] = Xs[i]
        Xb[:, :, d] = 1.0
        Xbs.append(Xb)
        # the bound's constants, one per replicate
        row_sq = np.einsum("kij,kij->ki", Xb, Xb)
        R = np.sum(np.sqrt(row_sq), axis=1) / m * (1.0 + 2.0 ** -20)
        L = (np.sum(row_sq, axis=1) / (4 * m) + l2) * (1.0 + 2.0 ** -20)
        a = 4 * _U * (m + 8) * R
        b = 4 * _U * ((d + 1) * (L - l2) + l2)
        cu = 4 * (d + math.log2(m) + m / 8192 + 33) * _U
        # half_Lt, and slack(v) = k0 + k1 ||v|| + k2 ||v||^2
        consts.append(((L + a * a / _U + L / 1024) / 2,
                       np.full(len(idx), cu + _U), cu * R,
                       cu * l2 + 6 * _U * b + 512 * b * b / L))
    half_Lt, k0, k1, k2 = (np.concatenate(c) for c in zip(*consts))
    live = np.array([i for idx in by_n.values() for i in idx])
    n = np.array([len(Xs[i]) for i in live])
    y = np.concatenate([ys[i] for i in live])
    flip = np.where(y > 0.5, -1.0, 1.0)

    K = len(Xs)
    w = np.zeros((K, d + 1))
    stacks, work = _stacks(Xbs), np.empty(len(y))
    z, grad = _logreg_grad(w, stacks, y, n, l2, work)
    slack = k0.copy()
    step = np.full(K, lr)
    accepted = np.zeros(K, dtype=int)
    out = np.empty((K, d + 1))
    stop = ((np.maximum.reduce(np.abs(grad), axis=1) < learner.grad_tol)
            | ~(step > 1e-12))
    while True:
        if stop.any():
            out[live[stop]] = w[stop]
            keep = ~stop
            if not keep.any():
                break
            kept = np.split(keep, np.cumsum([len(Xb) for Xb in Xbs[:-1]]))
            Xbs = [Xb if s.all() else Xb[s] for Xb, s in zip(Xbs, kept)
                   if s.any()]
            stacks = _stacks(Xbs)
            rows = np.repeat(keep, n)
            y, flip, z, work = y[rows], flip[rows], z[rows], work[:rows.sum()]
            w, grad, slack, step, accepted, live, n, half_Lt, k0, k1, k2 = (
                v[keep] for v in (w, grad, slack, step, accepted, live, n,
                                  half_Lt, k0, k1, k2))
        g2 = np.minimum(np.vecdot(grad, grad), 2.0 ** 960)
        w_new = w - step[:, None] * grad
        z_new, grad_new = _logreg_grad(w_new, stacks, y, n, l2, work)
        q = np.sqrt(np.vecdot(w_new, w_new))
        slack_new = (k2 * q + k1) * q + k0
        sure = (step * g2 * ((1.0 - 16 * _U) - step * half_Lt)
                > slack + slack_new)
        if sure.all():
            w, z, grad, slack = w_new, z_new, grad_new, slack_new
            accepted += 1
            step.fill(lr)  # above 1e-12, or no replicate would be live
            stop = ((accepted >= learner.max_iter)
                    | (np.maximum.reduce(np.abs(grad), axis=1)
                       < learner.grad_tol))
        else:
            # the bound leaves a step open: compare computed losses
            ok = (_logreg_loss(z_new, w_new, flip, stacks, l2)
                  <= _logreg_loss(z, w, flip, stacks, l2))
            w = np.where(ok[:, None], w_new, w)
            z = np.where(np.repeat(ok, n), z_new, z)
            grad = np.where(ok[:, None], grad_new, grad)
            slack = np.where(ok, slack_new, slack)
            accepted += ok
            step = np.where(ok, lr, step * 0.5)
            # not (step > 1e-12), the one-sample loop's test: a NaN step
            # stops
            stop = ~(step > 1e-12) | (ok & (
                (accepted >= learner.max_iter)
                | (np.maximum.reduce(np.abs(grad), axis=1)
                   < learner.grad_tol)))
    return [{"w": w} for w in out]


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


def _fit_tree(learner, X, y):
    """Preorder node arrays (feature, threshold, left, right, and value,
    each node's mean label) and the tree's height, its largest node depth.
    Subsets wait on a stack, right under left, so nodes are appended in
    preorder; a right child writes its index into its parent's right.  A
    leaf points to itself on both sides, so a row that reaches it early
    stays there while deeper rows descend."""
    nodes = []
    height = 0
    stack = [(X, y, 0, None)]  # subset, depth, parent if a right child
    while stack:
        X, y, depth, parent = stack.pop()
        i = len(nodes)
        if parent is not None:
            nodes[parent][3] = i
        mean = float(y.mean())
        nodes.append([0, 0.0, i, i, mean])
        height = max(height, depth)
        if (depth >= learner.max_depth or len(y) < 2 * learner.min_leaf
                or mean in (0.0, 1.0)):
            continue
        split = _best_split(X, y, learner.min_leaf)
        if split is None:
            continue
        _, j, thr = split
        go = X[:, j] <= thr
        if go.all() or not go.any():
            continue
        nodes[i][:3] = j, thr, i + 1
        stack.append((X[~go], y[~go], depth + 1, i))
        stack.append((X[go], y[go], depth + 1, None))
    names = ("feature", "threshold", "left", "right", "value")
    return dict(zip(names, map(np.array, zip(*nodes))), height=height)


def _score_tree(params, X):
    """Leaf value of each row, all rows descending one level per step.

    The same `<=` comparisons against the same thresholds as a walk of the
    tree one row at a time, so every row reaches the same leaf.
    """
    feature, threshold = params["feature"], params["threshold"]
    left, right = params["left"], params["right"]
    rows = np.arange(len(X))
    node = np.zeros(len(X), dtype=np.intp)
    for _ in range(params["height"]):
        go_left = X[rows, feature[node]] <= threshold[node]
        node = np.where(go_left, left[node], right[node])
    return params["value"][node]


# ---------------------------------------------------------------- knn

# query rows per chunk in _score_knn: _KNN_CHUNK_ELEMS // (n_train * d),
# so a chunk's one-gemm filter array stays ~512 KB as float32 (~1 MB once
# the filter turns to float64) and each of the exact fallback's
# per-feature terms ~1 MB as float64 at most; larger chunks cut per-chunk
# overhead until they fall out of cache (four times this size ran slower;
# twice it read ~5% faster on 100 training rows but slower on one feature
# and 4000, where the float64 filter array grows to 2 MB)
_KNN_CHUNK_ELEMS = 131072


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


def _knn_exact(Xt_cols, Xq, k):
    """Neighbour mask of query rows Xq, (queries, n_train), exactly.

    Squared distances come from _sq_distances, whose summation order does
    not depend on the chunk, so ties are exact.  A row with exactly k
    training rows at or below its k-th distance takes them all; only a row
    with more, a tie across the k-th place, gives the tied places to the
    lower training rows, as a stable argsort would.
    """
    d2 = _sq_distances(Xt_cols, np.ascontiguousarray(Xq.T), 0, len(Xt_cols))
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
    return near


def _score_knn(params, X):
    """Fraction of positive labels among the k nearest training rows.

    The neighbours are those of _knn_exact: distances as
    np.sum((Xt - q) ** 2, axis=1) computes them, ties at the k-th place
    to the lower training rows.  Query rows are scored in chunks of
    _KNN_CHUNK_ELEMS // (n_train * d) rows, and a filter settles almost
    every row without the exact pass.  Scores do not depend on the chunk
    size.  The filter runs in float32; the rows it leaves open go to the
    same filter in float64 and only then to the exact pass.  Once float32
    leaves more than a quarter of a chunk's rows open, where it cannot
    separate the k-th from the next distance (dense training rows in one
    or two dimensions), later chunks filter in float64 alone.

    The filter, at the type's unit roundoff u (2**-24 in float32, 2**-53
    in float64) and with m = u times its smallest normal number (2**-150,
    2**-1075).  One gemm per chunk, [-2q, 1] @ [t, ||t||^2]', gives
    a = ||t||^2 - 2 q.t for every query row q and training row t: the
    squared distance less ||q||^2, which is the same along a row.  Let T
    be a row's k-th smallest a, P = max(T + ||q||^2, 0) and

        B = 24 (d + 2) (u (P + ||q||^2) + m) in float32,
        B = 32 (d + 2) (u (P + ||q||^2) + m) in float64.

    Let D be the exact squared distance to t, D' the one _knn_exact
    computes and x_t = ||q|| + ||t||.  Rounding is off by at most u times
    the value, or by m where it lands below the smallest normal number; a
    sum that lands there is exact (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2.4 and 3.1).  With (d + 2) u < 2**-11,
    a is within 2.03 (d + 2) (u x_t^2 + m) of D - ||q||^2, from:

    - the inputs.  ||t||^2 is a float64 d-term sum, off by at most
      gamma_d ||t||^2 + d 2**-1075 at float64's u.  In float64 the other
      inputs are exact, so they are off by at most
      1.01 d (u x_t^2 + m) in all.  In float32, where that sum's error is
      below 2**-16 u ||t||^2, rounding -2q, t and ||t||^2 costs
      4u ||q|| ||t|| + 1.01u ||t||^2 <= 2.01u x_t^2, and each input below
      the smallest normal number is off by up to m, which the other
      factor scales: m (2 sum |q_j| + sum |t_j|) <= 2 sqrt(d) m x_t
      <= (d + 1) (u x_t^2 + m), as m x_t <= u x_t^2 where x_t is at least
      the smallest normal number;
    - the (d+1)-term sum in any order, fused or not: gamma_(d+1)
      <= 1.01 (d + 1) u times the |terms|, which add up to at most
      (1 + 3u) x_t^2, plus m for each product or fused add that rounds
      below the smallest normal number.

    The exact path's own float64 error, |D' - D| <= gamma_(d+2) D
    + d 2**-1075, makes that g (u x_t^2 + m), with g = 2.04 (d + 2) in
    float32, whose u is 2**29 times float64's, and
    g = (1.01 d + 1.02 (d + 1) + 1.01 (d + 2)) <= 3.05 (d + 2) in float64.
    As x_t <= 2 ||q|| + sqrt(D), x_t^2 <= 5 (||q||^2 + D), so
    |a + ||q||^2 - D'| <= e D' + b, with e = 5.02 g u < 0.008 and
    b = 1.01 g (5u ||q||^2 + m).

    A row is decided when exactly k training rows have a <= T + 2B,
    (d + 2) u < 2**-11 (d < 8190 in float32) and x^2 < 2**-8 times the
    type's largest number, for x = ||q|| + max ||t||.  At least k rows
    have a <= T, so the k are those rows, each with
    D' <= (T + ||q||^2 + b) / (1 - e).  Every other row has a > T + 2B,
    so its D' >= (a + ||q||^2 - b) / (1 + e) is strictly larger, because
    2B exceeds 2e (P + b) / (1 - e) + 2b and the rounding of T + 2B in
    the filter's type (at most 2u (P + ||q||^2 + 2B) + m) at least 2x
    over: per (d + 2) (u (P + ||q||^2) + m), 48 against at most 21 in
    float32 and 64 against at most 31.5 in float64, which also leaves room
    for the float64 rounding of ||q||^2, P and B.  The other rows are
    strictly farther than each of the k, never tied with them, so the k
    are the k nearest under any tie rule.  The
    limit on x^2 keeps every value finite, and it fails for a NaN or an
    inf in the data.  A row float32 leaves open takes the float64 filter,
    and one that leaves open takes _knn_exact.  Labels are 0/1, so the
    positive counts are exact: in float32 below 2**24 training rows, else
    in float64, each divided by k in float64.
    """
    Xt, yt, k = params["X"], params["y"], params["k"]
    n, d = Xt.shape
    Xt_cols = np.ascontiguousarray(Xt.T)
    tt = np.vecdot(Xt, Xt)
    qq = np.vecdot(X, X)
    x2 = (np.sqrt(qq) + np.sqrt(tt.max())) ** 2
    Xa = np.hstack([-2.0 * X, np.ones((len(X), 1))])
    Ta = np.vstack([Xt_cols, tt])
    # one product gives each row's positive and neighbour counts, exact
    # in float32 below 2**24 training rows; in float64 it converts each
    # chunk's mask to a twice larger temporary, which made the float64
    # filter ~1.8x slower on one feature and 4000 training rows
    y_one = np.stack([yt, np.ones(n)], axis=1).astype(
        np.float32 if n < 2 ** 24 else np.float64)

    def filter_in(dtype, scale):
        """The filter in dtype: [-2q, 1], [t, ||t||^2]', c and
        2B = c (P + ||q||^2 + the smallest normal number) less its P term,
        or NaN, which selects no training row, so the row is not
        decided."""
        f = np.finfo(dtype)
        u = float(f.eps) / 2
        c = scale * (d + 2) * u
        fits = (x2 < f.max * 2.0 ** -8) & ((d + 2) * u < 2.0 ** -11)
        return (Xa.astype(dtype), Ta.astype(dtype), c,
                np.where(fits, c * (qq + float(f.smallest_normal)), np.nan))

    # B = 24 (d + 2) (...) in float32, 32 (d + 2) (...) in float64
    f32, f64 = filter_in(np.float32, 48), filter_in(np.float64, 64)
    rows = max(1, _KNN_CHUNK_ELEMS // Xt.size)
    out, index = np.empty(len(X)), np.arange(len(X))
    filters = (f32, f64)
    for s in range(0, len(X), rows):
        # the chunk, then the rows the last filter left open
        left = slice(s, s + rows)
        for Xa, Ta, c, two_B in filters:
            a = Xa[left] @ Ta
            # a copy, so the partitioned chunk is freed at once
            T = np.partition(a, k - 1, axis=1)[:, k - 1].copy()
            lim = T + c * np.maximum(T + qq[left], 0.0) + two_B[left]
            # a later pass overwrites the positive count of an open row
            out[left], count = ((a <= lim.astype(a.dtype)[:, None]) @ y_one).T
            open_ = np.flatnonzero(count != k)
            # float32 left over a quarter open: later chunks skip it
            if a.dtype == np.float32 and 4 * open_.size > count.size:
                filters = (f64,)
            if not open_.size:
                break
            left = index[left][open_]
        else:
            out[left] = _knn_exact(Xt_cols, X[left], k) @ yt
    return out / k


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


# the learner kinds; each takes the features and labels of K samples of one
# feature count and returns K params dicts
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
