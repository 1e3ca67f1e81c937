"""Sample-size-bias and underrepresentation-bias estimators.

Every estimate is a difference of discriminations, target minus reference:
sample size bias against the largest-size reference ensemble,
underrepresentation bias against the population-split reference of the
same total size; the arithmetic is the same.  ensemble_discs gives an
ensemble's discrimination per metric under one of two estimator modes: the
main prediction's, or the average of per-model discriminations ("mean
over models"), the exact mean disc of the ensemble's main or model costs
per metric.  estimate takes the difference; undefined discrimination in
either term propagates to an undefined estimate with the cause recorded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

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


def ensemble_discs(costs, estimator):
    """{metric: (disc, cause)} under the chosen estimator mode, from costs,
    an ensemble's {metric: (main costs, model costs)}: the main
    prediction's disc, or the mean of the models' discs."""
    if estimator not in ESTIMATORS:
        raise ConfigError(f"unknown estimator {estimator!r}")
    row = 0 if estimator == MAIN_PREDICTION else 1
    discs = {m: pair[row].mean_disc() for m, pair in costs.items()}
    return {m: (d, "" if d is not None else "undefined group value")
            for m, d in discs.items()}


def estimate(kind, metric, estimator, target_desc, ref_desc,
             disc_t, cause_t, disc_r, cause_r, k):
    """disc_t - disc_r, or undefined with each undefined term's cause."""
    causes = [f"{term}: {cause}" for term, disc, cause in
              (("target", disc_t, cause_t), ("reference", disc_r, cause_r))
              if disc is None]
    return BiasEstimate(kind, metric, estimator, target_desc, ref_desc,
                        None if causes else disc_t - disc_r, k,
                        "; ".join(causes))
