"""Property tests of the exact identities on random ensembles and label
vectors: estimator antisymmetry and zero at the reference, the squared and
zero-one decompositions, and EO = -FNR.  Example-based versions are in
test_bias_estimators.py and test_acceptance.py (c01-c03, c05)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsample import (PredictionEnsemble, bias_gap, decompose_costs,
                        ensemble_costs, estimate)
from fairsample.bias_estimators import (ESTIMATORS, MEAN_OVER_MODELS,
                                        SSB_ENSEMBLE, URB_ENSEMBLE)
from oracles import decompose_points
from reports import model_reports

CLASSIFICATION = ("FPR", "FNR", "EO", "ZOL", "SD", "AUC")
ZERO_ONE_DECOMPOSABLE = ("ZOL", "FPR", "EO")


def estimate_bias(target, ref, metric, estimator, kind=SSB_ENSEMBLE):
    """The sweep engine's estimate of target against ref, from each
    ensemble's ensemble_costs."""
    costs = [ensemble_costs(ens, (metric,))[metric] for ens in (target, ref)]
    return estimate(kind, metric, estimator, "target", "reference",
                    *costs, target.k)


def decompose_gap(target, ref, metric):
    """bias_gap of the two ensembles' decompose_costs reports."""
    return bias_gap(*(decompose_costs(ens, ensemble_costs(ens, (metric,)))
                      [metric] for ens in (target, ref)))


@st.composite
def eval_sets(draw, max_n=30):
    """Labels y and groups a of one evaluation set; either group, and
    either class within a group, may be empty."""
    n = draw(st.integers(1, max_n))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                 dtype=float)
    a = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return y, a


@st.composite
def binary_ensemble_pairs(draw):
    """Target and reference zero-one ensembles on one evaluation set, with
    scores on a coarse grid so that AUC and the main-prediction tie rule
    see ties."""
    y, a = draw(eval_sets())
    n = len(y)

    def ensemble():
        k = draw(st.integers(1, 5))
        labels = np.array(draw(st.lists(st.integers(0, 1), min_size=k * n,
                                        max_size=k * n)),
                          dtype=float).reshape(k, n)
        scores = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5,
                                                         0.75, 1.0]),
                                        min_size=k * n, max_size=k * n)))
        return PredictionEnsemble(scores.reshape(k, n), labels, y, a,
                                  "zero_one")

    return ensemble(), ensemble()


@st.composite
def squared_ensemble_pairs(draw):
    y, a = draw(eval_sets())
    n = len(y)
    finite = st.floats(-10, 10, allow_nan=False)

    def ensemble():
        k = draw(st.integers(1, 5))
        scores = np.array(draw(st.lists(finite, min_size=k * n,
                                        max_size=k * n))).reshape(k, n)
        return PredictionEnsemble(scores, scores.copy(), y, a, "squared")

    return ensemble(), ensemble()


@settings(max_examples=150, deadline=None)
@given(pair=binary_ensemble_pairs(),
       metric=st.sampled_from(CLASSIFICATION),
       estimator=st.sampled_from(ESTIMATORS))
def test_estimates_are_antisymmetric_and_zero_at_the_reference(
        pair, metric, estimator):
    t, r = pair
    for kind in (SSB_ENSEMBLE, URB_ENSEMBLE):
        fwd = estimate_bias(t, r, metric, estimator, kind).value
        bwd = estimate_bias(r, t, metric, estimator, kind).value
        assert (fwd is None) == (bwd is None)
        if fwd is not None:
            assert fwd == -bwd
        at_ref = estimate_bias(r, r, metric, estimator, kind).value
        assert at_ref is None or at_ref == 0


@settings(max_examples=100, deadline=None)
@given(pair=squared_ensemble_pairs(), estimator=st.sampled_from(ESTIMATORS))
def test_mse_estimates_are_antisymmetric_and_zero_at_the_reference(
        pair, estimator):
    t, r = pair
    fwd = estimate_bias(t, r, "MSE", estimator).value
    bwd = estimate_bias(r, t, "MSE", estimator).value
    assert (fwd is None) == (bwd is None)
    if fwd is not None:
        assert fwd == -bwd
    at_ref = estimate_bias(r, r, "MSE", estimator).value
    assert at_ref is None or at_ref == 0.0


@settings(max_examples=150, deadline=None)
@given(pair=binary_ensemble_pairs())
def test_zero_one_decomposition_identities(pair):
    t, r = pair
    points = decompose_points(t)
    for i in range(t.n):
        assert (points.bias[i] + points.net_factor[i] * points.variance[i]
                == points.mean_loss[i])
    for metric in ZERO_ONE_DECOMPOSABLE:
        # each group's cost is the mean over models of its metric value
        rep = decompose_costs(t, ensemble_costs(t, (metric,)))[metric]
        for group in (0, 1):
            values = [getattr(model_reports(t.eval_y, t.labels[k],
                                            t.scores[k], t.eval_a,
                                            (metric,))[0],
                              f"value_a{group}") for k in range(t.k)]
            if values[0] is None:
                assert rep.cost(group) is None
            else:
                assert rep.cost(group) == sum(values) / t.k
        # the gap's terms add up to the mean-over-models estimate
        gap = decompose_gap(t, r, metric)
        assert gap.cost_disc == estimate_bias(t, r, metric,
                                              MEAN_OVER_MODELS).value


@settings(max_examples=100, deadline=None)
@given(pair=squared_ensemble_pairs())
def test_squared_decomposition_identities(pair):
    t, r = pair
    rep = decompose_costs(t, ensemble_costs(t, ("MSE",)))["MSE"]
    for group in (0, 1):
        sel = t.eval_a == group
        if not sel.any():
            assert rep.cost(group) is None
            continue
        direct = float(np.mean((t.scores[:, sel] - t.eval_y[sel]) ** 2))
        assert abs(rep.cost(group) - direct) <= 1e-9 * (1 + direct)
    gap = decompose_gap(t, r, "MSE")
    value = estimate_bias(t, r, "MSE", MEAN_OVER_MODELS).value
    if value is None:
        assert gap.cost_disc is None
    else:
        assert abs(gap.cost_disc - value) <= 1e-9 * (1 + abs(value))


@settings(max_examples=300, deadline=None)
@given(data=eval_sets(max_n=60), seed=st.integers(0, 2**32 - 1))
def test_eo_is_negated_fnr(data, seed):
    y, a = data
    labels = np.random.default_rng(seed).integers(0, 2, len(y)).astype(float)
    eo = model_reports(y, labels, None, a, ("EO",))[0].disc
    fnr = model_reports(y, labels, None, a, ("FNR",))[0].disc
    assert (eo is None) == (fnr is None)
    if eo is not None:
        assert eo == -fnr
