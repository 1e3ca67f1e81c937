"""Sample-size-bias and underrepresentation-bias estimators.

Every estimate is a difference of discriminations, target minus reference:
sample size bias against the largest-size reference ensemble,
underrepresentation bias against the population-split reference of the
same total size; the arithmetic is the same.  ensemble_discs gives an
ensemble's discrimination per metric under one of two estimator modes: the
main prediction's, or the average of per-model discriminations ("mean
over models"), read from the ensemble's (main report, model reports) per
metric.  estimate takes the difference; undefined discrimination in either
term propagates to an undefined estimate with the cause recorded.
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


def mean_over_models(reports):
    """(disc, cause): the mean of the defined per-model discriminations."""
    defined = [r.disc for r in reports if r.disc is not None]
    if not defined:
        return None, "all per-model discriminations undefined"
    return sum(defined) / len(defined), ""


def _defined(disc):
    return disc, "" if disc is not None else "undefined group value"


def ensemble_discs(costs, estimator):
    """{metric: (disc, cause)} under the chosen estimator mode, from costs,
    an ensemble's {metric: (main report, model reports)}: the main
    report's disc, or the mean over the model reports."""
    if estimator == MAIN_PREDICTION:
        return {m: _defined(main.disc) for m, (main, _) in costs.items()}
    if estimator == MEAN_OVER_MODELS:
        return {m: mean_over_models(models)
                for m, (_, models) in costs.items()}
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
