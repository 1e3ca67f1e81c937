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
        if (self.l2 < 0 or self.learning_rate <= 0 or self.max_iter < 1
                or self.grad_tol < 0):
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
    """Opaque fitted parameters, with the learner that fitted them."""

    learner: Learner
    n_features: int
    params: dict

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
        if not np.isfinite(X).all():
            raise DataError("feature matrix holds NaN or infinite values")
        if "constant" in self.params:
            scores = np.full(len(X), self.params["constant"])
        else:
            scores = _SCORERS[self.learner.kind](self.params, X)
        if self.learner.task == CLASSIFICATION:
            scores = np.clip(scores, 0.0, 1.0)
            labels = (scores >= self.learner.threshold).astype(float)
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
            models[i] = FittedModel(learner, train.X.shape[1],
                                    {"constant": float(train.y[0])})
        else:
            idx.append(i)
    fitted = _FITTERS[learner.kind](learner, [samples[i].X for i in idx],
                                    [samples[i].y for i in idx])
    for i, params in zip(idx, fitted):
        models[i] = FittedModel(learner, samples[i].X.shape[1], params)
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


class _Grad:
    """Margins z and gradient grad of every live replicate, and the stack
    layout: per C-ordered, feature-major (k, d+1, m) stack Xb, whose k
    replicates and their rows follow the stack before it, views holds
    (Xb, replicate slice, row slice, and the stack's rows of z, of the
    residual in work and of grad, which _logreg_grad's matmuls write).

    A fit keeps two, at its weights and at its trial point, and swaps
    them when every step is accepted, so no round allocates them or
    slices them anew; it makes new ones only when replicates leave.
    """

    def __init__(self, Xbs, work):
        self.z = np.empty(len(work))
        self.grad = np.empty((sum(map(len, Xbs)), Xbs[0].shape[1]))
        self.views = []
        i = o = 0
        for Xb in Xbs:
            k, _, m = Xb.shape
            reps, rows = slice(i, i + k), slice(o, o + k * m)
            self.views.append((Xb, reps, rows, self.z[rows].reshape(k, 1, m),
                               work[rows].reshape(k, m, 1),
                               self.grad[reps, :, None]))
            i, o = i + k, o + k * m


def _logreg_grad(w, out, y, n, l2, work):
    """Margins z = Xb' w and loss gradient of each replicate k at its own
    weights w[k], into out's z and grad; w, y and n, each replicate's row
    count, follow the layout of out, a _Grad.

    Each replicate gets the arithmetic of a one-sample fit on its (d+1, m)
    feature rows: a matmul per slice for the margins, w Xb, and for the
    gradient, Xb r, both gemv along contiguous feature rows, then the
    mean gradient's divide.  Every other step runs once over all
    replicates, the residual in the work buffer.
    """
    for Xb, reps, _, z, _, _ in out.views:
        np.matmul(w[reps, None, :], Xb, out=z)
    r = _sigmoid(out.z, out=work)
    r -= y
    for Xb, _, _, _, r_rows, grad in out.views:
        np.matmul(Xb, r_rows, out=grad)
    grad = out.grad
    grad /= n[:, None]
    reg = l2 * w
    reg[:, -1] = 0.0  # intercept not penalized
    grad += reg


def _logreg_loss(at, w, y, l2):
    """Loss of each replicate at weights w[k], from the margins z of at, the
    _Grad of w, whose layout y follows.

    A pure function of (z, w), with a one-sample fit's arithmetic: a mean
    as np.mean takes it (a pairwise sum along the contiguous row axis, per
    stack, then a divide), -margin = z * (-1 where y is positive, else 1),
    which is exact, and the penalty as one stacked matmul, which numpy
    evaluates slice by slice, each slice a one-sample reg @ reg.
    """
    # log(1 + exp(-m)) with m = (2y-1) z, numerically stable
    terms = np.logaddexp(0.0, at.z * np.where(y > 0.5, -1.0, 1.0))
    loss = np.empty(len(w))
    for Xb, reps, rows, *_ in at.views:
        k, _, m = Xb.shape
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
    m are a C-ordered, feature-major (k, d+1, m) stack, each replicate's
    feature rows contiguous, whatever the memory order of its sample,
    with its own two matmuls per round, the margins w Xb and the
    gradient's Xb r, into buffers that last until a replicate leaves
    (_Grad); every other step runs once per round on flat arrays over
    all live replicates: the residual over all their rows, the step, the
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
        Xb = np.empty((len(idx), d + 1, m))
        for k, i in enumerate(idx):
            Xb[k, :d] = Xs[i].T
        Xb[:, d] = 1.0
        Xbs.append(Xb)
        # the bound's constants, one per replicate
        row_sq = np.einsum("kji,kji->ki", Xb, Xb)
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

    def below_tol(grad):
        return np.maximum.reduce(np.abs(grad), axis=1) < learner.grad_tol

    K = len(Xs)
    w = np.zeros((K, d + 1))
    work = np.empty(len(y))
    # the margins and gradient at w, and at the trial point
    cur, new = _Grad(Xbs, work), _Grad(Xbs, work)
    _logreg_grad(w, cur, y, n, l2, work)
    slack = k0.copy()
    step = np.full(K, lr)
    accepted = np.zeros(K, dtype=int)
    out = np.empty((K, d + 1))
    stop = below_tol(cur.grad) | ~(step > 1e-12)
    while True:
        if stop.any():
            out[live[stop]] = w[stop]
            keep = ~stop
            if not keep.any():
                break
            Xbs = [Xb if s.all() else Xb[s] for Xb, reps, *_ in cur.views
                   if (s := keep[reps]).any()]
            rows = np.repeat(keep, n)
            y, work = y[rows], work[:rows.sum()]
            z, grad = cur.z[rows], cur.grad[keep]
            cur, new = _Grad(Xbs, work), _Grad(Xbs, work)
            cur.z[:], cur.grad[:] = z, grad
            w, slack, step, accepted, live, n, half_Lt, k0, k1, k2 = (
                v[keep] for v in (w, slack, step, accepted, live, n,
                                  half_Lt, k0, k1, k2))
        g2 = np.minimum(np.vecdot(cur.grad, cur.grad), 2.0 ** 960)
        w_new = w - step[:, None] * cur.grad
        _logreg_grad(w_new, new, y, n, l2, work)
        q = np.sqrt(np.vecdot(w_new, w_new))
        slack_new = (k2 * q + k1) * q + k0
        sure = (step * g2 * ((1.0 - 16 * _U) - step * half_Lt)
                > slack + slack_new)
        if sure.all():
            w, slack = w_new, slack_new
            cur, new = new, cur
            accepted += 1
            step.fill(lr)  # above 1e-12, or no replicate would be live
            stop = (accepted >= learner.max_iter) | below_tol(cur.grad)
        else:
            # the bound leaves a step open: compare computed losses
            ok = _logreg_loss(new, w_new, y, l2) <= _logreg_loss(cur, w, y, l2)
            w = np.where(ok[:, None], w_new, w)
            np.copyto(cur.z, new.z, where=np.repeat(ok, n))
            np.copyto(cur.grad, new.grad, where=ok[:, None])
            slack = np.where(ok, slack_new, slack)
            accepted += ok
            step = np.where(ok, lr, step * 0.5)
            # not (step > 1e-12), the one-sample loop's test: a NaN step
            # stops
            stop = ~(step > 1e-12) | (ok & ((accepted >= learner.max_iter)
                                           | below_tol(cur.grad)))
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
        if best is None or imp[k] < best[0] - 1e-15:
            # the midpoint, halved first so that +-1e308 cannot overflow;
            # where it rounds onto the right value (adjacent floats), the
            # left value, so `x <= thr` cuts where the cut was scored
            lo, hi = xs[i[k] - 1], xs[i[k]]
            thr = 0.5 * lo + 0.5 * hi
            best = (float(imp[k]), j, thr if lo <= thr < hi else lo)
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
# so a chunk's one-gemm filter array stays ~512 KB / d as float32 and the
# exact step's (candidates, d) differences, at most every training row for
# every row of the chunk, ~1 MB as float64
_KNN_CHUNK_ELEMS = 131072

# training rows up to which _score_knn takes each chunk row's k-th smallest
# a from a row sort, not np.partition.  numpy sorts float32 rows of up to
# 512 values with one SIMD sorting network; on a 2-core AVX-512 Xeon
# (numpy 2.4), k = 5 and d = 5, per element of a chunk, sort against
# partition read 1.27 / 2.05 ns at 256 training rows, 1.39 / 2.14 at 512,
# 2.20 / 2.22 at 513, 2.46 / 1.66 at 2000 and 2.59 / 1.50 at 4000
_KNN_SORT_ROWS = 512


def _fit_knn(learner, X, y):
    return {"X": X.copy(), "y": y.copy(), "k": min(learner.k, len(y))}


def _nearest_positives(Xt, yt, Xq, cand, k):
    """Positive labels among the k nearest training rows of each query row
    in Xq, ranked among its candidates, row i of the (queries, n_train)
    mask cand, which must hold those k.

    Distances are np.sum((Xt[t] - q) ** 2, axis=1), the definition, and
    ties go to the lower training row, as a stable argsort would.
    """
    q, t = divmod(np.flatnonzero(cand), cand.shape[1])
    d2 = np.sum((Xt[t] - Xq[q]) ** 2, axis=1)
    # by query row, then distance; stable, so then by training row
    order = np.lexsort((d2, q))
    counts = np.bincount(q, minlength=len(cand))
    rank = np.arange(len(q)) - (np.cumsum(counts) - counts)[q]
    near = order[rank < k]
    return np.bincount(q[near], weights=yt[t[near]], minlength=len(Xq))


def _score_knn(params, X):
    """Fraction of positive labels among the k nearest training rows.

    Distances are those np.sum((Xt - x) ** 2, axis=1) computes, and ties
    at the k-th place go to the lower training rows.  Query rows are
    scored in chunks of _KNN_CHUNK_ELEMS // (n_train * d) rows.  A float32
    filter decides almost every row; a row it leaves open goes to
    _nearest_positives with its candidates, the training rows that can be
    among its k nearest.  Scores do not depend on the chunk size.

    The filter runs on rows centred at the training mean mu in float64:
    q = fl(x - mu) for a query row x and t = fl(z - mu) for a training
    row z.  The shift leaves squared distances as they are and keeps the
    norms below small for data far from the origin.  Let u = 2**-24 be
    float32's unit roundoff and m = 2**-150 u times its smallest normal
    number.  One gemm per chunk, [-2q, 1] @ [t, ||t||^2]', gives
    a = ||t||^2 - 2 q.t for every query row and training row: the squared
    distance less ||q||^2, which is the same along a row.  Let T be a
    row's k-th smallest a, P = max(T + ||q||^2, 0) and

        B = 24 (d + 2) (u (P + ||q||^2) + m).

    The row's candidates are the training rows with a <= T + 2B.

    Let D be the exact squared distance ||z - x||^2, D' the one np.sum
    computes and x_t = ||q|| + ||t||.  Rounding is off by at most u times
    the value, or by m where it lands below the smallest normal number; a
    sum that lands there is exact (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2.4 and 3.1).  With (d + 2) u < 2**-11,
    a is within 2.03 (d + 2) (u x_t^2 + m) of D - ||q||^2, from:

    - the centring.  Each coordinate of q and t is off by at most float64's
      unit roundoff, 2**-29 u, times its own size, so t - q is within
      2**-29 u x_t of z - x and ||t - q||^2 within 2**-27 u x_t^2 of D;
    - the inputs.  ||t||^2 is a float64 d-term sum, off by below
      2**-16 u ||t||^2.  Rounding -2q, t and ||t||^2 to float32 costs
      4u ||q|| ||t|| + 1.01u ||t||^2 <= 2.01u x_t^2, and each input below
      the smallest normal number is off by up to m, which the other
      factor scales: m (2 sum |q_j| + sum |t_j|) <= 2 sqrt(d) m x_t
      <= (d + 1) (u x_t^2 + m), as m x_t <= u x_t^2 where x_t is at least
      the smallest normal number;
    - the (d+1)-term sum in any order, fused or not: gamma_(d+1)
      <= 1.01 (d + 1) u times the |terms|, which add up to at most
      (1 + 3u) x_t^2, plus m for each product or fused add that rounds
      below the smallest normal number.

    The last two add up to at most 2.01 (d + 2) (u x_t^2 + m), so 2.03
    holds the centring's 2**-27 u x_t^2 too.

    np.sum's own float64 error on the uncentred rows,
    |D' - D| <= gamma_(d+2) D + d 2**-1075, makes that g (u x_t^2 + m)
    with g = 2.04 (d + 2).  As x_t <= 2 ||q|| + sqrt(D) + 2**-29 u x_t,
    x_t^2 <= 5.01 (||q||^2 + D), so |a + ||q||^2 - D'| <= e D' + b, with
    e = 5.02 g u < 0.008 and b = 1.01 g (5u ||q||^2 + m).

    The candidate property holds where (d + 2) u < 2**-11 (d < 8190) and
    x^2 < 2**-8 times float32's largest number, for x = ||q|| + max ||t||;
    outside them every training row is a candidate.  At least k rows
    have a <= T, each with D' <= (T + ||q||^2 + b) / (1 - e).  A row that
    is not a candidate has a > T + 2B, so its
    D' >= (a + ||q||^2 - b) / (1 + e) is strictly larger, because 2B
    exceeds 2e (P + b) / (1 - e) + 2b and the rounding of T + 2B in
    float32 (at most 2u (P + ||q||^2 + 2B) + m) at least 2x over: per
    (d + 2) (u (P + ||q||^2) + m), 48 against at most 21, which also
    leaves room for the float64 rounding of ||q||^2, P and B.  So every
    row that is not a candidate is strictly farther than each of at least
    k candidates and cannot be among the k nearest under any tie rule:
    the k nearest are candidates.  A row with exactly k candidates takes
    them; every other row's candidates, ranked by D' with the tie rule,
    give the k nearest.  The limit on x^2 keeps every value finite, and it
    fails for a NaN or an inf in the data.  Labels are 0/1, so the
    positive counts are exact: in float32 below 2**24 training rows, else
    in float64, each divided by k in float64.
    """
    Xt, yt, k = params["X"], params["y"], params["k"]
    n, d = Xt.shape
    mu = Xt.mean(axis=0)
    Xc, Tc = X - mu, Xt - mu
    qq, tt = np.vecdot(Xc, Xc), np.vecdot(Tc, Tc)
    f = np.finfo(np.float32)
    u = float(f.eps) / 2
    # 2B = c (P + ||q||^2 + the smallest normal number) less its P term,
    # or NaN outside the bound's range (and for a NaN or an inf), which
    # selects no training row, so the row stays open
    c = 48 * (d + 2) * u
    fits = (((np.sqrt(qq) + np.sqrt(tt.max())) ** 2 < f.max * 2.0 ** -8)
            & ((d + 2) * u < 2.0 ** -11))
    two_B = np.where(fits, c * (qq + float(f.smallest_normal)), np.nan)
    # built in place and C-ordered: temporaries and an F-ordered stack
    # slowed the set-up and the gemm of small chunks
    Xa = np.empty((len(X), d + 1), dtype=np.float32)
    np.multiply(Xc, -2.0, out=Xa[:, :d], casting="same_kind")
    Xa[:, d] = 1.0
    Ta = np.empty((d + 1, n), dtype=np.float32)
    Ta[:d], Ta[d] = Tc.T, tt
    # one product gives each row's positive and neighbour counts, exact
    # in float32 below 2**24 training rows
    y_one = np.stack([yt, np.ones(n)], axis=1).astype(
        np.float32 if n < 2 ** 24 else np.float64)
    rows = max(1, _KNN_CHUNK_ELEMS // Xt.size)
    out = np.empty(len(X))
    for s in range(0, len(X), rows):
        chunk = slice(s, s + rows)
        a = Xa[chunk] @ Ta
        # both give the k-th order statistic, NaN last; a copy, so the
        # sorted or partitioned chunk is freed at once
        if n <= _KNN_SORT_ROWS:
            T = np.sort(a, axis=1)[:, k - 1].copy()
        else:
            T = np.partition(a, k - 1, axis=1)[:, k - 1].copy()
        lim = T + c * np.maximum(T + qq[chunk], 0.0) + two_B[chunk]
        cand = a <= lim.astype(np.float32)[:, None]
        out[chunk], count = (cand @ y_one).T
        open_ = np.flatnonzero(count != k)
        if open_.size:
            cand = cand[open_]
            open_ += s
            # outside the bound's range every training row is a candidate
            cand[~fits[open_]] = True
            out[open_] = _nearest_positives(Xt, yt, X[open_], cand, k)
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
