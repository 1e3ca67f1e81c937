"""Sample-size-bias and underrepresentation-bias estimators.

Every estimate is a difference of discriminations, target minus reference:
sample size bias against the largest-size reference ensemble,
underrepresentation bias against the population-split reference of the
same total size; the arithmetic is the same.  estimate reads each
ensemble's (main costs, model costs) for the metric and takes, under one
of two estimator modes, the exact mean disc of the main prediction's
costs or of the models' ("mean over models").  Undefined discrimination
in either term propagates to an undefined estimate with the cause
recorded.
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


def estimate(kind, metric, estimator, target_desc, ref_desc, target,
             reference, k):
    """The target's disc minus the reference's, each read from its
    (main costs, model costs) for the metric under the estimator mode, or
    undefined with each undefined term's cause."""
    if estimator not in ESTIMATORS:
        raise ConfigError(f"unknown estimator {estimator!r}")
    row = 0 if estimator == MAIN_PREDICTION else 1
    disc_t, disc_r = target[row].mean_disc(), reference[row].mean_disc()
    causes = [f"{term}: undefined group value" for term, disc in
              (("target", disc_t), ("reference", disc_r)) if disc is None]
    return BiasEstimate(kind, metric, estimator, target_desc, ref_desc,
                        None if causes else disc_t - disc_r, k,
                        "; ".join(causes))
