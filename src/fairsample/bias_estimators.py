"""Sample-size-bias and underrepresentation-bias estimators.

Every estimate is a difference of discriminations, target minus reference.
Two estimator modes exist: the main prediction of each ensemble, or the
average of per-model discriminations ("mean over models"), both from one
group_metrics.model_costs call for all metrics (the main prediction is a
one-row stack).  Undefined discrimination in either term propagates to an
undefined estimate with the cause recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .decomposition import main_prediction
from .errors import ConfigError
from .group_metrics import disc_vector, group_cost, model_costs

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


def mean_over_models(reports):
    """(disc, cause): the mean of the defined per-model discriminations."""
    defined = [r.disc for r in reports if r.disc is not None]
    if not defined:
        return None, "all per-model discriminations undefined"
    return sum(defined) / len(defined), ""


def _defined(disc):
    return disc, "" if disc is not None else "undefined group value"


def ensemble_discs(ens, costs, metrics, estimator):
    """{metric: (disc, cause)} under the chosen estimator mode; mean over
    models reads costs, the ensemble's model_costs (or computes them)."""
    if estimator == MAIN_PREDICTION:
        scores, labels = main_prediction(ens)
        return {r.metric: _defined(r.disc) for r in disc_vector(
            ens.eval_y, labels, scores, ens.eval_a, metrics)}
    if estimator == MEAN_OVER_MODELS:
        costs = costs or model_costs(ens.eval_y, ens.labels, ens.scores,
                                     ens.eval_a, metrics)
        return {m: mean_over_models(costs[m]) for m in metrics}
    raise ConfigError(f"unknown estimator {estimator!r}")


def ensemble_disc(ens, metric, estimator):
    """(disc, cause) for one ensemble under the chosen estimator mode."""
    return ensemble_discs(ens, None, (metric,), estimator)[metric]


def estimate(kind, metric, estimator, target_desc, ref_desc,
             disc_t, cause_t, disc_r, cause_r, k):
    """disc_t - disc_r, or undefined with each undefined term's cause."""
    causes = [f"{term}: {cause}" for term, disc, cause in
              (("target", disc_t, cause_t), ("reference", disc_r, cause_r))
              if disc is None]
    return BiasEstimate(kind, metric, estimator, target_desc, ref_desc,
                        None if causes else disc_t - disc_r, k,
                        "; ".join(causes))


def _ensemble_bias(kind, target_ens, ref_ens, metric,
                   estimator=MEAN_OVER_MODELS, target_desc=None,
                   ref_desc=None):
    """Bias of the target ensemble against the reference ensemble, both
    under one estimator mode; kind labels the estimate."""
    if not target_ens.same_eval_set(ref_ens):
        raise ConfigError("target and reference ensembles must share the "
                          "same evaluation set")
    return estimate(kind, metric, estimator,
                    target_desc or f"K={target_ens.k}",
                    ref_desc or f"K={ref_ens.k}",
                    *ensemble_disc(target_ens, metric, estimator),
                    *ensemble_disc(ref_ens, metric, estimator), target_ens.k)


def _single_bias(kind, scores, labels, ref_ens, metric,
                 target_desc="single", ref_desc=None):
    """Bias of one specific trained model against the main prediction of
    the reference ensemble; kind labels the estimate."""
    return estimate(kind, metric, MAIN_PREDICTION, target_desc,
                    ref_desc or f"K={ref_ens.k}",
                    *_defined(group_cost(metric, ref_ens.eval_y, labels,
                                         scores, ref_ens.eval_a).disc),
                    *ensemble_disc(ref_ens, metric, MAIN_PREDICTION), 1)


# Sample size bias is measured against the largest-size reference
# ensemble, underrepresentation bias against the population-split
# reference of the same total size; the arithmetic is the same.
ssb = partial(_ensemble_bias, SSB_ENSEMBLE)
urb = partial(_ensemble_bias, URB_ENSEMBLE)
ssb_single = partial(_single_bias, SSB_SINGLE)
urb_single = partial(_single_bias, URB_SINGLE)
