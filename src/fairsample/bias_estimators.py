"""Sample-size-bias and underrepresentation-bias estimators.

Every estimate is a difference of discriminations, target minus reference:
sample size bias against the largest-size reference ensemble,
underrepresentation bias against the population-split reference of the
same total size; the arithmetic is the same.  ensemble_discs gives an
ensemble's discrimination per metric under one of two estimator modes: the
main prediction of the ensemble, or the average of per-model
discriminations ("mean over models"), both from group_metrics.model_costs
reports of all metrics (the main prediction is a one-row stack).  estimate
takes the difference; undefined discrimination in either term propagates
to an undefined estimate with the cause recorded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import main_prediction
from .errors import ConfigError
from .group_metrics import disc_vector

MAIN_PREDICTION = "main_prediction"
MEAN_OVER_MODELS = "mean_over_models"
ESTIMATORS = (MAIN_PREDICTION, MEAN_OVER_MODELS)

SSB_ENSEMBLE = "SSB_M_ensemble"
URB_ENSEMBLE = "URB_ensemble"


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
    models reads costs, the ensemble's model_costs reports."""
    if estimator == MAIN_PREDICTION:
        scores, labels = main_prediction(ens)
        return {r.metric: _defined(r.disc) for r in disc_vector(
            ens.eval_y, labels, scores, ens.eval_a, metrics)}
    if estimator == MEAN_OVER_MODELS:
        return {m: mean_over_models(costs[m]) for m in metrics}
    raise ConfigError(f"unknown estimator {estimator!r}")


def estimate(kind, metric, estimator, target_desc, ref_desc,
             disc_t, cause_t, disc_r, cause_r, k):
    """disc_t - disc_r, or undefined with each undefined term's cause."""
    causes = [f"{term}: {cause}" for term, disc, cause in
              (("target", disc_t, cause_t), ("reference", disc_r, cause_r))
              if disc is None]
    return BiasEstimate(kind, metric, estimator, target_desc, ref_desc,
                        None if causes else disc_t - disc_r, k,
                        "; ".join(causes))
