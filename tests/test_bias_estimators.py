from fractions import Fraction

import numpy as np
import pytest

from fairsample import (ConfigError, PredictionEnsemble, ensemble_costs,
                        estimate)
from fairsample.bias_estimators import (MAIN_PREDICTION, MEAN_OVER_MODELS,
                                        SSB_ENSEMBLE, URB_ENSEMBLE)


def make_ens(labels, y, a, scores=None):
    labels = np.asarray(labels, dtype=float)
    scores = labels if scores is None else np.asarray(scores, dtype=float)
    return PredictionEnsemble(scores, labels,
                              np.asarray(y, dtype=float), np.asarray(a),
                              "zero_one")


def estimate_bias(target, ref, metric, estimator=MEAN_OVER_MODELS,
                  kind=SSB_ENSEMBLE, target_desc="target",
                  ref_desc="reference"):
    """The sweep engine's estimate of target against ref, from each
    ensemble's ensemble_costs."""
    costs = [ensemble_costs(ens, (metric,))[metric] for ens in (target, ref)]
    return estimate(kind, metric, estimator, target_desc, ref_desc,
                    *costs, target.k)


Y = [1, 0, 1, 0, 1, 0]
A = [0, 0, 0, 1, 1, 1]


def test_ssb_zero_when_target_is_reference():
    ens = make_ens([[1, 0, 0, 1, 1, 0], [1, 1, 0, 0, 1, 0]], Y, A)
    for estimator in (MAIN_PREDICTION, MEAN_OVER_MODELS):
        est = estimate_bias(ens, ens, "EO", estimator)
        assert est.value == 0


def test_single_model_estimators_coincide():
    t = make_ens([[1, 0, 0, 1, 1, 0]], Y, A)
    r = make_ens([[1, 1, 0, 0, 1, 1]], Y, A)
    v1 = estimate_bias(t, r, "EO", MAIN_PREDICTION).value
    v2 = estimate_bias(t, r, "EO", MEAN_OVER_MODELS).value
    assert v1 == v2


def test_ssb_toy_enumeration():
    # K=3 target, K=2 reference; hand-enumerable confusion matrices
    t = make_ens([[1, 0, 0, 1, 1, 0],
                  [1, 1, 1, 0, 1, 0],
                  [0, 0, 1, 0, 0, 1]], Y, A)
    r = make_ens([[1, 0, 1, 1, 1, 0],
                  [1, 0, 1, 1, 1, 0]], Y, A)
    # per-model EO disc for target:
    # m1: a0 TPR (pts 0,2)=1/2, a1 TPR (pt 4)=1 -> +1/2
    # m2: a0 TPR=1, a1 TPR=1 -> 0
    # m3: a0 TPR=1/2, a1 TPR=0 -> -1/2
    # mean = 0; reference models both: a0 TPR=1, a1 TPR=1 -> 0
    est = estimate_bias(t, r, "EO", MEAN_OVER_MODELS)
    assert est.value == 0
    # FPR: m1: a0 (pts 1)=0, a1 (pts 3,5)=1/2 -> +1/2
    # m2: a0=1, a1=0 -> -1; m3: a0=0, a1=1/2 -> +1/2; mean = 0
    # ref both: a0=0, a1=1/2 -> +1/2
    est = estimate_bias(t, r, "FPR", MEAN_OVER_MODELS)
    assert est.value == Fraction(0) - Fraction(1, 2)


def test_antisymmetry():
    rng = np.random.default_rng(2)
    y = rng.integers(0, 2, 12)
    a = rng.integers(0, 2, 12)
    t = make_ens(rng.integers(0, 2, (3, 12)), y, a)
    r = make_ens(rng.integers(0, 2, (4, 12)), y, a)
    for metric in ("EO", "FPR", "ZOL", "SD"):
        fwd = estimate_bias(t, r, metric, MEAN_OVER_MODELS).value
        bwd = estimate_bias(r, t, metric, MEAN_OVER_MODELS).value
        if fwd is None:
            assert bwd is None
        else:
            assert fwd == -bwd


def test_model_order_invariance():
    rng = np.random.default_rng(4)
    y = rng.integers(0, 2, 10)
    a = rng.integers(0, 2, 10)
    labels = rng.integers(0, 2, (4, 10))
    r = make_ens(rng.integers(0, 2, (2, 10)), y, a)
    v1 = estimate_bias(make_ens(labels, y, a), r, "ZOL",
                       MEAN_OVER_MODELS).value
    v2 = estimate_bias(make_ens(labels[::-1], y, a), r, "ZOL",
                       MEAN_OVER_MODELS).value
    assert v1 == v2


def test_undefined_propagates_with_cause():
    # group a1 has no negatives: FPR undefined
    y = [1, 0, 1, 1]
    a = [0, 0, 1, 1]
    t = make_ens([[1, 0, 1, 0]], y, a)
    est = estimate_bias(t, t, "FPR", MEAN_OVER_MODELS)
    assert est.value is None
    assert "undefined" in est.cause


def test_each_undefined_term_names_its_cause():
    y, a = [1, 0, 1, 1], [0, 0, 1, 1]
    undefined = make_ens([[1, 0, 1, 0]], y, a)  # a1 has no negatives
    defined = make_ens([[1, 0, 1, 0]], Y[:4], A[1:5])
    for t, r, cause in (
            (undefined, defined, "target: undefined group value"),
            (defined, undefined, "reference: undefined group value"),
            (undefined, undefined, "target: undefined group value; "
                                   "reference: undefined group value")):
        for estimator in (MAIN_PREDICTION, MEAN_OVER_MODELS):
            est = estimate_bias(t, r, "FPR", estimator)
            assert (est.value, est.cause) == (None, cause)
    assert estimate_bias(defined, defined, "FPR").cause == ""


def test_unknown_estimator_rejected():
    ens = make_ens([[1, 0, 0, 1, 1, 0]], Y, A)
    with pytest.raises(ConfigError, match="unknown estimator 'median'"):
        estimate_bias(ens, ens, "EO", "median")


def test_urb_zero_at_population_split():
    ens = make_ens([[1, 0, 0, 1, 1, 0], [0, 0, 1, 1, 0, 0]], Y, A)
    for estimator in (MAIN_PREDICTION, MEAN_OVER_MODELS):
        assert estimate_bias(ens, ens, "SD", estimator,
                             URB_ENSEMBLE).value == 0


def test_urb_toy_enumeration():
    t = make_ens([[1, 1, 0, 1, 1, 0], [0, 0, 0, 1, 0, 1]], Y, A)
    r = make_ens([[1, 0, 1, 0, 1, 0], [1, 0, 1, 0, 1, 0]], Y, A)
    # SD target: m1 a0=2/3, a1=2/3 -> 0; m2 a0=0, a1=2/3 -> 2/3; mean 1/3
    # SD ref: both a0=2/3, a1=1/3 -> -1/3
    est = estimate_bias(t, r, "SD", MEAN_OVER_MODELS, URB_ENSEMBLE)
    assert est.value == Fraction(1, 3) - Fraction(-1, 3)


def test_csv_row_serialization():
    ens = make_ens([[1, 0, 0, 1, 1, 0]], Y, A)
    est = estimate_bias(ens, ens, "EO", MEAN_OVER_MODELS,
                        target_desc="m=10", ref_desc="M=100")
    row = est.to_csv_row()
    assert row[0] == "SSB_M_ensemble"
    assert row[3] == "m=10" and row[4] == "M=100"
    assert row[5] == "0.0"
    y = [1, 0, 1, 1]
    a = [0, 0, 1, 1]
    und = estimate_bias(make_ens([[1, 0, 1, 0]], y, a),
                        make_ens([[1, 0, 1, 0]], y, a), "FPR")
    assert und.to_csv_row()[5] == ""
