"""Main prediction and bias/net-variance decomposition of loss, per-group
costs, and discrimination, plus the statistical-disparity
estimation-error bounds.

The optimal prediction is identified with the observed outcome, so the
noise term of the decomposition is zero and no report carries it.

Zero-one terms are exact rationals: a point's mean loss over the models
is its bias plus its net variance (Domingos, ICML 2000), so a group's bias
is the main prediction's loss rate and its net variance the models' mean
loss rate less it.  One group_metrics confusion_counts table per ensemble,
the main prediction stacked over the K models, serves every zero-one
metric of decompose_costs and sd_bounds.  Squared-loss terms are float64
with fixed-order summation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DataError
from .group_metrics import _RATE_CELLS, _check_binary, confusion_counts

SQUARED = "squared"
ZERO_ONE = "zero_one"

# conditioning subset per decomposable metric, in a decomposition sweep's
# default order
_CONDITIONING = {"MSE": "all", "ZOL": "all", "FPR": "y==0", "EO": "y==1"}
# cost = offset + sign * (mean conditioned loss)
_COST_AFFINE = {"MSE": (0, 1), "ZOL": (0, 1), "FPR": (0, 1), "EO": (1, -1)}
# the group_metrics rate that counts each zero-one metric's conditioned loss
_LOSS_RATE = {"ZOL": "ZOL", "FPR": "FPR", "EO": "FNR"}


@dataclass(frozen=True)
class PredictionEnsemble:
    """K models' predictions on one fixed evaluation set."""

    scores: np.ndarray            # (K, n)
    labels: np.ndarray            # (K, n); equals scores for regression
    eval_y: np.ndarray
    eval_a: np.ndarray
    loss_kind: str = ZERO_ONE

    def __post_init__(self):
        if self.scores.ndim != 2 or self.scores.shape[0] < 1:
            raise ConfigError("scores must be a K x n matrix with K >= 1")
        n = self.scores.shape[1]
        if self.labels.shape != self.scores.shape:
            raise ConfigError("labels shape must match scores")
        if len(self.eval_y) != n or len(self.eval_a) != n:
            raise ConfigError("evaluation vectors misaligned with predictions")
        if self.loss_kind not in (SQUARED, ZERO_ONE):
            raise ConfigError(f"unknown loss kind {self.loss_kind!r}")
        _check_binary(eval_a=self.eval_a)
        if self.loss_kind != SQUARED:
            _check_binary(eval_y=self.eval_y, labels=self.labels)

    @property
    def k(self):
        return self.scores.shape[0]

    @property
    def n(self):
        return self.scores.shape[1]


@dataclass(frozen=True)
class PointDecomposition:
    """Per evaluation point terms.  For squared loss the entries are float
    arrays; for zero-one loss they are tuples of Fractions."""

    loss_kind: str
    bias: tuple
    variance: tuple
    net_factor: tuple     # c(x): +1 / -1 for 0-1 loss, 1 for squared
    mean_loss: tuple


def main_prediction(ens):
    """(scores, labels) of the ensemble's main prediction.

    Squared loss: per-point mean of model scores.  Zero-one: per-point
    majority vote, ties resolved to label 1 iff the mean score >= 0.5.
    """
    mean_scores = ens.scores.mean(axis=0)
    if ens.loss_kind == SQUARED:
        return mean_scores, mean_scores
    return mean_scores, _majority_labels(ens, mean_scores)


def _majority_labels(ens, mean_scores):
    ones = (ens.labels == 1).sum(axis=0)
    k = ens.k
    labels = np.where(2 * ones > k, 1.0, 0.0)
    tie = 2 * ones == k
    labels[tie] = np.where(mean_scores[tie] >= 0.5, 1.0, 0.0)
    return labels


def _zero_one_table(ens):
    """int (K + 1, 2, 4) confusion_counts of the main prediction (row 0)
    stacked over the K models."""
    _, main = main_prediction(ens)
    return confusion_counts(ens.eval_y, np.vstack([main, ens.labels]),
                            ens.eval_a)


def _zero_one_terms(counts, rate):
    """[(bias, net_variance)] per group: the exact mean terms of the
    zero-one loss that rate counts, over the points its denominator counts,
    or (None, None) for a group with none, from a _zero_one_table."""
    num, den = (counts[..., list(c)].sum(axis=-1).tolist()
                for c in _RATE_CELLS[rate])
    k = len(num) - 1
    terms = []
    for group in (0, 1):
        n = den[0][group]
        if n == 0:
            terms.append((None, None))
            continue
        bias = Fraction(num[0][group], n)
        models = sum(row[group] for row in num[1:])
        terms.append((bias, Fraction(models, k * n) - bias))
    return terms


def decompose_points(ens):
    if ens.loss_kind == SQUARED:
        mean_scores = ens.scores.mean(axis=0)
        bias = (mean_scores - ens.eval_y) ** 2
        variance = ((ens.scores - mean_scores) ** 2).mean(axis=0)
        mean_loss = ((ens.scores - ens.eval_y) ** 2).mean(axis=0)
        return PointDecomposition(SQUARED, bias, variance, np.ones(ens.n),
                                  mean_loss)
    _, main = main_prediction(ens)
    biased = main != ens.eval_y
    n_diff_main = (ens.labels != main).sum(axis=0)
    n_diff_y = (ens.labels != ens.eval_y).sum(axis=0)
    k = ens.k
    zero, one = Fraction(0), Fraction(1)
    return PointDecomposition(
        ZERO_ONE,
        tuple(one if b else zero for b in biased),
        tuple(Fraction(int(v), k) for v in n_diff_main),
        tuple(-1 if b else 1 for b in biased),
        tuple(Fraction(int(v), k) for v in n_diff_y))


def _diff(x1, x0):
    """x1 - x0, undefined when either term is."""
    return None if x0 is None or x1 is None else x1 - x0


@dataclass(frozen=True)
class DecompositionReport:
    """Per-group mean bias / net-variance terms of the conditioned
    loss, the implied cost values, and the between-group differences.

    cost_a = cost_offset + cost_sign * (bias_a + net_variance_a); for all
    decomposable metrics except EO offset is 0 and sign is +1.
    """

    metric: str
    conditioning: str
    cost_offset: int
    cost_sign: int
    bias_a0: object
    net_variance_a0: object
    bias_a1: object
    net_variance_a1: object

    @property
    def bias_diff(self):
        return _diff(self.bias_a1, self.bias_a0)

    @property
    def net_variance_diff(self):
        return _diff(self.net_variance_a1, self.net_variance_a0)

    def cost(self, group):
        b = getattr(self, f"bias_a{group}")
        v = getattr(self, f"net_variance_a{group}")
        if b is None or v is None:
            return None
        return self.cost_offset + self.cost_sign * (b + v)

    @property
    def cost_disc(self):
        return _diff(self.cost(1), self.cost(0))


def _squared_terms(ens):
    """[(bias, net_variance)] per group: the mean squared-loss terms over
    the group's points, or (None, None) for a group with none."""
    points = decompose_points(ens)
    return [(float(np.mean(points.bias[sel])),
             float(np.mean(points.variance[sel]))) if sel.any()
            else (None, None)
            for sel in (ens.eval_a == g for g in (0, 1))]


def decompose_costs(ens, metrics):
    """{metric: DecompositionReport}: the per-group decomposition of each
    cost metric over its conditioning subset (MSE/ZOL: all points; FPR:
    y=0; EO: y=1).  Every zero-one metric reads one _zero_one_table."""
    for metric in metrics:
        if metric not in _CONDITIONING:
            raise ConfigError(f"metric {metric!r} has no decomposition")
        loss_kind = SQUARED if metric == "MSE" else ZERO_ONE
        if loss_kind != ens.loss_kind:
            raise ConfigError(
                f"metric {metric} needs {loss_kind} loss, ensemble carries "
                f"{ens.loss_kind}")
    if ens.loss_kind == ZERO_ONE:
        counts = _zero_one_table(ens)
        terms = {m: _zero_one_terms(counts, _LOSS_RATE[m]) for m in metrics}
    else:  # MSE conditions on all points
        terms = {m: _squared_terms(ens) for m in metrics}
    return {m: DecompositionReport(m, _CONDITIONING[m], *_COST_AFFINE[m],
                                   *terms[m][0], *terms[m][1])
            for m in metrics}


@dataclass(frozen=True)
class BiasGapReport:
    """Term-wise deltas between a target and a reference decomposition.

    total = cost_sign * (bias_delta_diff + net_variance_delta_diff) equals
    the discrimination gap between the two ensembles under the
    mean-over-models estimator; for zero-one loss, exactly, and
    cost_sign * bias_delta_diff is the gap under the main-prediction
    estimator.
    """

    metric: str
    target: DecompositionReport
    reference: DecompositionReport
    bias_delta_a0: object
    bias_delta_a1: object
    net_variance_delta_a0: object
    net_variance_delta_a1: object

    @property
    def bias_delta_diff(self):
        return _diff(self.bias_delta_a1, self.bias_delta_a0)

    @property
    def net_variance_delta_diff(self):
        return _diff(self.net_variance_delta_a1, self.net_variance_delta_a0)

    @property
    def total(self):
        b = self.bias_delta_diff
        v = self.net_variance_delta_diff
        if b is None or v is None:
            return None
        return self.target.cost_sign * (b + v)


def bias_gap(target, reference):
    """Term-wise deltas between a target's and a reference's
    DecompositionReport of one metric on one evaluation set."""

    def delta(term):
        return [_diff(getattr(target, f"{term}_a{g}"),
                      getattr(reference, f"{term}_a{g}")) for g in (0, 1)]

    db = delta("bias")
    dv = delta("net_variance")
    return BiasGapReport(target.metric, target, reference, db[0], db[1],
                         dv[0], dv[1])


@dataclass(frozen=True)
class SdBoundsReport:
    """Absolute-loss components and the statistical-disparity
    estimation-error bounds, evaluated verbatim and reported (never
    asserted: the expressions can be negative as written)."""

    observed: object
    upper: object
    lower: object
    within_bounds: bool
    bias_a0: object
    net_variance_a0: object
    bias_a1: object
    net_variance_a1: object

    def to_json_dict(self):
        conv = lambda v: None if v is None else float(v)
        return {
            "observed": conv(self.observed),
            "upper": conv(self.upper),
            "lower": conv(self.lower),
            "within_bounds": self.within_bounds,
            "a0": {"bias": conv(self.bias_a0),
                   "net_variance": conv(self.net_variance_a0)},
            "a1": {"bias": conv(self.bias_a1),
                   "net_variance": conv(self.net_variance_a1)},
        }


def sd_bounds(ens):
    """Absolute-loss decomposition terms and the estimation-error bounds
    for statistical disparity.

    observed is |Disc^SD of the ensemble's expected labels - Disc^SD of the
    true outcomes|.  All quantities are exact rationals.
    """
    if ens.loss_kind != ZERO_ONE:
        raise ConfigError("sd_bounds requires a classification ensemble")
    counts = _zero_one_table(ens)
    # per group: the main prediction's cells, whose y = 1 cells count the
    # outcomes, and the K models' cells, whose label = 1 cells count labels
    main, models = counts[0].tolist(), counts[1:].sum(axis=0).tolist()
    sd_hat = {}
    sd_true = {}
    for group in (0, 1):
        n = sum(main[group])
        if n == 0:
            raise DataError(f"empty group a{group} in evaluation set")
        sd_hat[group] = Fraction(models[group][1] + models[group][3],
                                 ens.k * n)
        sd_true[group] = Fraction(main[group][2] + main[group][3], n)
    terms = _zero_one_terms(counts, "ZOL")
    db = terms[1][0] - terms[0][0]
    dv = terms[1][1] - terms[0][1]
    upper = db + dv
    lower = max(-db - dv, db - dv, dv - db)
    observed = abs((sd_hat[1] - sd_hat[0]) - (sd_true[1] - sd_true[0]))
    within = lower <= observed <= upper
    return SdBoundsReport(observed, upper, lower, within, *terms[0],
                          *terms[1])
