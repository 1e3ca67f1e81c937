"""Sample-size-bias and underrepresentation-bias estimators.

Every estimate is a difference of discriminations, target minus reference.
Two estimator modes exist: the main prediction of each ensemble, or the
average of per-model discriminations ("mean over models").  Undefined
discrimination in either term propagates to an undefined estimate with the
cause recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .decomposition import main_prediction
from .errors import ConfigError
from .group_metrics import group_cost

MAIN_PREDICTION = "main_prediction"
MEAN_OVER_MODELS = "mean_over_models"
ESTIMATORS = (MAIN_PREDICTION, MEAN_OVER_MODELS)

SSB_ENSEMBLE = "SSB_M_ensemble"
SSB_SINGLE = "SSB_single_set"
URB_ENSEMBLE = "URB_ensemble"
URB_SINGLE = "URB_single_set"


@dataclass(frozen=True)
class BiasEstimate:
    kind: str
    metric: str
    estimator: str
    target: str          # descriptor, e.g. "m=100" or "split=310/690"
    reference: str       # e.g. "M=2000" or "split=310/690"
    value: object        # Fraction, float, or None
    k: int
    cause: str = ""

    def to_csv_row(self):
        val = "" if self.value is None else repr(float(self.value))
        return [self.kind, self.metric, self.estimator, self.target,
                self.reference, val, str(self.k)]


CSV_HEADER = ["kind", "metric", "estimator", "target", "reference",
              "value", "k"]


def ensemble_disc(ens, metric, estimator):
    """(disc, cause) for one ensemble under the chosen estimator mode."""
    if estimator == MAIN_PREDICTION:
        scores, labels = main_prediction(ens)
        disc = group_cost(metric, ens.eval_y, labels, scores,
                          ens.eval_a).disc
        return disc, "" if disc is not None else "undefined group value"
    if estimator == MEAN_OVER_MODELS:
        defined = []
        undefined = 0
        for k in range(ens.k):
            d = group_cost(metric, ens.eval_y, ens.labels[k],
                           ens.scores[k], ens.eval_a).disc
            if d is None:
                undefined += 1
            else:
                defined.append(d)
        if not defined:
            return None, "all per-model discriminations undefined"
        return sum(defined) / len(defined), ""
    raise ConfigError(f"unknown estimator {estimator!r}")


def single_disc(scores, labels, ens, metric):
    d = group_cost(metric, ens.eval_y, labels, scores, ens.eval_a).disc
    return d, "" if d is not None else "undefined group value"


def _estimate(kind, metric, estimator, target_desc, ref_desc,
              disc_t, cause_t, disc_r, cause_r, k):
    if disc_t is None or disc_r is None:
        cause = "; ".join(c for c, d in ((f"target: {cause_t}", disc_t),
                                         (f"reference: {cause_r}", disc_r))
                          if d is None)
        return BiasEstimate(kind, metric, estimator, target_desc, ref_desc,
                            None, k, cause)
    return BiasEstimate(kind, metric, estimator, target_desc, ref_desc,
                        disc_t - disc_r, k)


def _ensemble_bias(kind, target_ens, ref_ens, metric,
                   estimator=MEAN_OVER_MODELS, target_desc=None,
                   ref_desc=None):
    """Bias of the target ensemble against the reference ensemble, both
    under one estimator mode; kind labels the estimate."""
    _check_eval(target_ens, ref_ens)
    dt, ct = ensemble_disc(target_ens, metric, estimator)
    dr, cr = ensemble_disc(ref_ens, metric, estimator)
    return _estimate(kind, metric, estimator,
                     target_desc or f"K={target_ens.k}",
                     ref_desc or f"K={ref_ens.k}", dt, ct, dr, cr,
                     target_ens.k)


def _single_bias(kind, scores, labels, ref_ens, metric,
                 target_desc="single", ref_desc=None):
    """Bias of one specific trained model against the main prediction of
    the reference ensemble; kind labels the estimate."""
    dt, ct = single_disc(scores, labels, ref_ens, metric)
    dr, cr = ensemble_disc(ref_ens, metric, MAIN_PREDICTION)
    return _estimate(kind, metric, MAIN_PREDICTION, target_desc,
                     ref_desc or f"K={ref_ens.k}", dt, ct, dr, cr, 1)


# Sample size bias is measured against the largest-size reference
# ensemble, underrepresentation bias against the population-split
# reference of the same total size; the arithmetic is the same.
ssb = partial(_ensemble_bias, SSB_ENSEMBLE)
urb = partial(_ensemble_bias, URB_ENSEMBLE)
ssb_single = partial(_single_bias, SSB_SINGLE)
urb_single = partial(_single_bias, URB_SINGLE)


def _check_eval(target_ens, ref_ens):
    if not target_ens.same_eval_set(ref_ens):
        raise ConfigError("target and reference ensembles must share the "
                          "same evaluation set")
