"""Main prediction and bias/net-variance decomposition of loss, per-group
costs, and discrimination, plus the statistical-disparity
estimation-error bounds.

The optimal prediction is identified with the observed outcome, so the
noise term of the decomposition is zero and no report carries it.

ensemble_costs evaluates an ensemble with one group_metrics.model_costs
call: the main prediction stacked as row 0 over the K models, split into
the main prediction's MetricCosts and the models'.  Zero-one terms read
their exact means over the shared denominators: a point's mean loss over
the models is its bias plus its net variance (Domingos, ICML 2000), so a
group's bias is the main prediction's loss rate and its net variance the
models' mean loss rate less it.  Squared-loss terms are float64 with
fixed-order summation: a group's bias is the main prediction's MSE, its
net variance the mean of the models' per-point variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from . import group_metrics as gm

SQUARED = "squared"
ZERO_ONE = "zero_one"

# conditioning subset per decomposable metric, in a decomposition sweep's
# default order
_CONDITIONING = {"MSE": "all", "ZOL": "all", "FPR": "y==0", "EO": "y==1"}
# cost = offset + sign * (mean conditioned loss)
_COST_AFFINE = {"MSE": (0, 1), "ZOL": (0, 1), "FPR": (0, 1), "EO": (1, -1)}


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
        gm._check_binary(eval_a=self.eval_a)
        if self.loss_kind != SQUARED:
            gm._check_binary(eval_y=self.eval_y, labels=self.labels)

    @property
    def k(self):
        return self.scores.shape[0]

    @property
    def n(self):
        return self.scores.shape[1]


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


def ensemble_costs(ens, metrics):
    """{metric: (main costs, model costs)} on the ensemble's evaluation
    set: rows 0 and 1..K of one group_metrics.model_costs call on the main
    prediction stacked over the K models."""
    scores, labels = main_prediction(ens)
    costs = gm.model_costs(ens.eval_y, [labels, *ens.labels],
                           [scores, *ens.scores], ens.eval_a, metrics)
    return {m: (gm.MetricCosts(c.num[:1], c.den),
                gm.MetricCosts(c.num[1:], c.den)) for m, c in costs.items()}


def _zero_one_terms(main, models, offset, sign):
    """[(bias, net_variance)] per group of a zero-one metric's main and
    model costs, cost = offset + sign * loss: the main prediction's
    conditioned loss, and the models' mean loss less it, or (None, None)
    for a group its conditioning set leaves empty."""
    return [(None, None) if value is None else
            (sign * (value - offset), sign * (mean - value))
            for value, mean in zip(main.means(), models.means())]


def _diff(x1, x0):
    """x1 - x0, undefined when either term is."""
    return None if x0 is None or x1 is None else x1 - x0


@dataclass(frozen=True)
class DecompositionReport:
    """Per-group mean bias / net-variance terms of the conditioned
    loss, the implied cost values, and the between-group differences.

    cost_a = cost_offset + cost_sign * (bias_a + net_variance_a); for all
    decomposable metrics except EO offset is 0 and sign is +1.  cost_disc
    is cost_sign * (bias_diff + net_variance_diff): cost(1) - cost(0),
    exactly for zero-one terms.
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
        b, v = self.bias_diff, self.net_variance_diff
        return None if b is None or v is None else self.cost_sign * (b + v)


def _squared_terms(ens, main):
    """[(bias, net_variance)] per group: the main prediction's MSE, read
    from its costs, and the mean over the group's points of the models'
    spread about the mean score, or (None, None) for a group with none."""
    variance = ens.scores.var(axis=0)
    return [(None, None) if bias is None else
            (bias, float(np.mean(variance[ens.eval_a == g])))
            for g, bias in enumerate(main.means())]


def decompose_costs(ens, costs):
    """{metric: DecompositionReport}: each metric of costs, ens's
    ensemble_costs, decomposed per group over its conditioning subset
    (MSE/ZOL: all points; FPR: y=0; EO: y=1)."""
    reports = {}
    for metric, (main, models) in costs.items():
        if metric not in _CONDITIONING:
            raise ConfigError(f"metric {metric!r} has no decomposition")
        loss_kind = SQUARED if metric == "MSE" else ZERO_ONE
        if loss_kind != ens.loss_kind:
            raise ConfigError(
                f"metric {metric} needs {loss_kind} loss, ensemble carries "
                f"{ens.loss_kind}")
        affine = _COST_AFFINE[metric]
        # MSE conditions on all points
        terms = _squared_terms(ens, main) if loss_kind == SQUARED else \
            _zero_one_terms(main, models, *affine)
        reports[metric] = DecompositionReport(
            metric, _CONDITIONING[metric], *affine, *terms[0], *terms[1])
    return reports


def bias_gap(target, reference):
    """The term deltas target - reference of one metric's decompositions
    on one evaluation set, as a DecompositionReport with cost_offset 0 and
    the target's metric, conditioning and sign.

    Its cost_disc is the discrimination gap between the two ensembles
    under the mean-over-models estimator, and cost_sign * bias_diff the
    gap under the main-prediction estimator; for zero-one loss, exactly.
    """
    return DecompositionReport(
        target.metric, target.conditioning, 0, target.cost_sign,
        *(_diff(getattr(target, term), getattr(reference, term))
          for term in ("bias_a0", "net_variance_a0", "bias_a1",
                       "net_variance_a1")))


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


def sd_bounds(ens):
    """Absolute-loss decomposition terms and the estimation-error bounds
    for statistical disparity.

    observed is |Disc^SD of the ensemble's expected labels - Disc^SD of the
    true outcomes|.  All quantities are exact rationals.
    """
    if ens.loss_kind != ZERO_ONE:
        raise ConfigError("sd_bounds requires a classification ensemble")
    costs = ensemble_costs(ens, ("ZOL", "SD"))
    terms = _zero_one_terms(*costs["ZOL"], 0, 1)
    for g, (bias, _) in enumerate(terms):
        if bias is None:
            raise DataError(f"empty group a{g} in evaluation set")
    # SD of the K models' labels, and of the true outcomes
    sd_hat = costs["SD"][1].mean_disc()
    sd_true = gm.model_costs(ens.eval_y, [ens.eval_y], None, ens.eval_a,
                             ("SD",))["SD"].mean_disc()
    db = terms[1][0] - terms[0][0]
    dv = terms[1][1] - terms[0][1]
    upper = db + dv
    lower = max(-db - dv, db - dv, dv - db)
    observed = abs(sd_hat - sd_true)
    within = lower <= observed <= upper
    return SdBoundsReport(observed, upper, lower, within, *terms[0],
                          *terms[1])
