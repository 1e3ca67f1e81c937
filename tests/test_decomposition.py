from fractions import Fraction

import numpy as np
import pytest

from fairsample import (ConfigError, PredictionEnsemble, bias_gap,
                        decompose_costs, ensemble_costs, main_prediction,
                        sd_bounds)
from oracles import decompose_points, oracle_decomposition


def make_ens(scores, labels=None, y=None, a=None, loss="zero_one"):
    scores = np.asarray(scores, dtype=float)
    labels = scores if labels is None else np.asarray(labels, dtype=float)
    k, n = scores.shape
    y = np.zeros(n) if y is None else np.asarray(y, dtype=float)
    a = np.zeros(n, dtype=int) if a is None else np.asarray(a)
    return PredictionEnsemble(scores, labels, y, a, loss)


def decompose_gap(target, ref, metric):
    """bias_gap of the two ensembles' decompose_costs reports."""
    return bias_gap(*(decompose_costs(ens, ensemble_costs(ens, (metric,)))
                      [metric] for ens in (target, ref)))


def test_main_prediction_mean_and_majority():
    ens = make_ens([[1.0], [2.0], [3.0]], loss="squared")
    scores, labels = main_prediction(ens)
    assert scores[0] == 2.0
    assert labels[0] == 2.0

    ens = make_ens([[0.9], [0.8], [0.1]], [[1.0], [1.0], [0.0]])
    _, labels = main_prediction(ens)
    assert labels[0] == 1.0


def test_main_prediction_tie_by_mean_score():
    ens = make_ens([[0.2], [0.9]], [[0.0], [1.0]])
    _, labels = main_prediction(ens)
    assert labels[0] == 1.0  # mean score 0.55 >= 0.5
    ens = make_ens([[0.2], [0.6]], [[0.0], [1.0]])
    _, labels = main_prediction(ens)
    assert labels[0] == 0.0  # mean score 0.4 < 0.5


def test_squared_point_identity_fixture():
    ens = make_ens([[1.0], [2.0], [3.0]], y=[0.0], loss="squared")
    pts = decompose_points(ens)
    assert pts.bias[0] == 4.0
    assert pts.variance[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert pts.mean_loss[0] == pytest.approx(14.0 / 3.0, abs=1e-12)
    assert pts.mean_loss[0] == pytest.approx(pts.bias[0] + pts.variance[0],
                                             abs=1e-12)


def test_zero_one_point_identity_fixture():
    ens = make_ens([[1.0], [1.0], [0.0]], [[1.0], [1.0], [0.0]], y=[1.0])
    pts = decompose_points(ens)
    assert pts.bias[0] == 0
    assert pts.variance[0] == Fraction(1, 3)
    assert pts.net_factor[0] == 1
    assert pts.mean_loss[0] == Fraction(1, 3)
    assert pts.mean_loss[0] == pts.bias[0] + pts.net_factor[0] * pts.variance[0]


def test_zero_one_biased_point_identity():
    # majority disagrees with the truth: c = -1
    ens = make_ens([[0.0], [0.0], [1.0]], [[0.0], [0.0], [1.0]], y=[1.0])
    pts = decompose_points(ens)
    assert pts.bias[0] == 1
    assert pts.net_factor[0] == -1
    assert pts.mean_loss[0] == Fraction(2, 3)
    assert pts.mean_loss[0] == pts.bias[0] + pts.net_factor[0] * pts.variance[0]


def test_identical_models_zero_variance():
    ens = make_ens([[1.0, 0.0]] * 4, y=[0.0, 0.0])
    pts = decompose_points(ens)
    assert all(v == 0 for v in pts.variance)
    assert pts.mean_loss[0] == pts.bias[0]


def test_absolute_loss_rejected():
    # sd_bounds reads absolute-loss terms from a zero-one ensemble; no
    # ensemble carries absolute loss itself
    with pytest.raises(ConfigError, match="unknown loss kind 'absolute'"):
        make_ens([[1.0]], loss="absolute")


def test_ensemble_shapes_checked():
    s, y, a = np.zeros((2, 3)), np.zeros(3), np.zeros(3, int)
    for args, message in (
            ((np.zeros(3), np.zeros(3), y, a), "K x n matrix"),
            ((np.zeros((0, 3)), np.zeros((0, 3)), y, a), "K x n matrix"),
            ((s, np.zeros((2, 4)), y, a), "labels shape"),
            ((s, s, np.zeros(2), a), "misaligned"),
            ((s, s, y, np.zeros(4, int)), "misaligned")):
        with pytest.raises(ConfigError, match=message):
            PredictionEnsemble(*args)


def test_decompose_costs_checks_metric_and_loss():
    ens = make_ens([[0.2, 0.8], [0.6, 0.4]], [[0, 1], [1, 0]], y=[0, 1],
                   a=[0, 1])
    with pytest.raises(ConfigError, match="'SD' has no decomposition"):
        decompose_costs(ens, ensemble_costs(ens, ("SD",)))
    with pytest.raises(ConfigError, match="MSE needs squared loss"):
        decompose_costs(ens, ensemble_costs(ens, ("MSE",)))
    reg = make_ens([[0.2, 0.8], [0.6, 0.4]], y=[0, 1], a=[0, 1],
                   loss="squared")
    with pytest.raises(ConfigError, match="ZOL needs zero_one loss"):
        decompose_costs(reg, ensemble_costs(ens, ("ZOL",)))
    with pytest.raises(ConfigError, match="requires a classification"):
        sd_bounds(reg)


@pytest.mark.parametrize("field, loss, values", [
    ("eval_a", "zero_one", {"a": [0, 1, 2, 1]}),
    ("eval_a", "squared", {"a": [0, 1, 2, 1]}),
    ("eval_y", "zero_one", {"y": [0, 2, 1, 1]}),
    ("labels", "zero_one", {"labels": [[0, 1, 1, 0], [1, 2, 0, 0]]}),
], ids=["group-2", "group-2-squared", "outcome-2", "label-2"])
@pytest.mark.parametrize("run", [
    decompose_points,
    lambda ens: decompose_costs(ens, ensemble_costs(
        ens, ("MSE",) if ens.loss_kind == "squared" else ("ZOL",))),
    sd_bounds,
], ids=["points", "cost", "sd_bounds"])
def test_values_outside_zero_one_are_config_errors(field, loss, values, run):
    # each used to give a report that dropped the group-2 row or counted a
    # 2 as a miss
    scores = [[0.1, 0.9, 0.9, 0.1], [0.9, 0.9, 0.1, 0.1]]
    spec = {"y": [0, 1, 1, 0], "a": [0, 1, 0, 1], **values}
    with pytest.raises(ConfigError, match=f"{field} must be 0 or 1"):
        run(make_ens(scores, spec.get("labels"), spec["y"], spec["a"],
                     loss))


def test_points_match_oracle():
    rng = np.random.default_rng(3)
    for loss in ("squared", "zero_one"):
        for _ in range(20):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(2, 15))
            if loss == "squared":
                scores = rng.standard_normal((k, n))
                ens = make_ens(scores, y=rng.standard_normal(n), loss=loss)
            else:
                labels = rng.integers(0, 2, (k, n)).astype(float)
                ens = make_ens(rng.random((k, n)), labels,
                               y=rng.integers(0, 2, n), loss=loss)
            pts = decompose_points(ens)
            _, bias, var, net, ml = oracle_decomposition(ens, loss)
            for i in range(n):
                if loss == "squared":
                    assert pts.bias[i] == pytest.approx(bias[i], abs=1e-12)
                    assert pts.variance[i] == pytest.approx(var[i], abs=1e-12)
                    assert pts.mean_loss[i] == pytest.approx(ml[i], abs=1e-12)
                else:
                    assert pts.bias[i] == bias[i]
                    assert pts.variance[i] == var[i]
                    assert pts.net_factor[i] == net[i]
                    assert pts.mean_loss[i] == ml[i]


def test_main_prediction_optimality():
    # majority vote minimizes mean 0-1 loss; mean score minimizes mean
    # squared loss (checked by perturbation)
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 2, (5, 12)).astype(float)
    ens = make_ens(rng.random((5, 12)), labels, y=rng.integers(0, 2, 12))
    _, main = main_prediction(ens)
    for i in range(12):
        for alt in (0.0, 1.0):
            own = np.mean(labels[:, i] != main[i])
            other = np.mean(labels[:, i] != alt)
            assert own <= other + 1e-12

    scores = rng.standard_normal((5, 12))
    ens = make_ens(scores, y=rng.standard_normal(12), loss="squared")
    main, _ = main_prediction(ens)
    for i in range(12):
        base = np.mean((scores[:, i] - main[i]) ** 2)
        for eps in (1e-3, -1e-3):
            assert base <= np.mean((scores[:, i] - main[i] - eps) ** 2)


def test_decompose_cost_mse_identity():
    rng = np.random.default_rng(9)
    scores = rng.standard_normal((6, 40))
    y = rng.standard_normal(40)
    a = rng.integers(0, 2, 40)
    ens = make_ens(scores, y=y, a=a, loss="squared")
    rep = decompose_costs(ens, ensemble_costs(ens, ("MSE",)))["MSE"]
    for group in (0, 1):
        g = a == group
        cost = float(np.mean((scores[:, g] - y[g]) ** 2))
        assert rep.cost(group) == pytest.approx(cost, abs=1e-9)


def test_decompose_cost_perfect_ensemble():
    y = np.array([0.0, 1.0, 1.0, 0.0])
    a = np.array([0, 0, 1, 1])
    labels = np.tile(y, (3, 1))
    ens = make_ens(labels, labels, y=y, a=a)
    for metric in ("ZOL", "FPR", "EO"):
        rep = decompose_costs(ens, ensemble_costs(ens, (metric,)))[metric]
        assert rep.bias_diff == 0
        assert rep.net_variance_diff == 0
        assert rep.bias_a0 == 0 and rep.net_variance_a0 == 0


def test_decompose_cost_conditioning_subsets():
    # EO conditions on y=1; a group without positives is undefined
    y = np.array([0.0, 0.0, 1.0])
    a = np.array([1, 1, 0])
    labels = np.array([[1.0, 0.0, 1.0]])
    ens = make_ens(labels, labels, y=y, a=a)
    rep = decompose_costs(ens, ensemble_costs(ens, ("EO",)))["EO"]
    assert rep.bias_a1 is None
    assert rep.cost_disc is None
    assert rep.cost(0) == 1  # TPR of the single a0 positive


def test_decompose_cost_eo_fixture_enumeration():
    # 6 points, 3 per group, K=3; oracle terms by hand over y=1 points
    y = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 0.0])
    a = np.array([0, 0, 0, 1, 1, 1])
    labels = np.array([
        [1.0, 0.0, 0.0, 1.0, 1.0, 1.0],
        [1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
    ])
    ens = make_ens(labels, labels, y=y, a=a)
    rep = decompose_costs(ens, ensemble_costs(ens, ("EO",)))["EO"]
    # group a0 positives: points 0 (main 1, diff 1/3) and 1 (main 0 != y,
    # diff 1/3, c = -1); loss terms: B = (0+1)/2, Vnet = (1/3 - 1/3)/2
    assert rep.bias_a0 == Fraction(1, 2)
    assert rep.net_variance_a0 == 0
    # group a1 positives: point 3 (main 0 != y, diff 1/3, c=-1),
    # point 4 (main 1 == y, diff 0)
    assert rep.bias_a1 == Fraction(1, 2)
    assert rep.net_variance_a1 == Fraction(-1, 6)
    # cost = 1 - (B + Vnet): TPR_a0 = 1/2, TPR_a1 = 2/3
    assert rep.cost(0) == Fraction(1, 2)
    assert rep.cost(1) == Fraction(2, 3)


def test_bias_gap_zero_for_identical_ensembles():
    rng = np.random.default_rng(21)
    scores = rng.standard_normal((4, 30))
    y = rng.standard_normal(30)
    a = rng.integers(0, 2, 30)
    ens = make_ens(scores, y=y, a=a, loss="squared")
    gap = decompose_gap(ens, ens, "MSE")
    assert gap.bias_diff == 0
    assert gap.net_variance_diff == 0
    assert gap.cost_disc == 0


def test_bias_gap_total_matches_recomputed_disc_gap():
    rng = np.random.default_rng(23)
    y = rng.standard_normal(50)
    a = rng.integers(0, 2, 50)
    small = make_ens(rng.standard_normal((5, 50)), y=y, a=a, loss="squared")
    ref = make_ens(rng.standard_normal((7, 50)), y=y, a=a, loss="squared")
    gap = decompose_gap(small, ref, "MSE")

    def disc(ens):
        out = []
        for g in (0, 1):
            sel = a == g
            out.append(np.mean((ens.scores[:, sel] - y[sel]) ** 2))
        return out[1] - out[0]

    assert gap.cost_disc == pytest.approx(disc(small) - disc(ref), abs=1e-9)


def test_bias_gap_perfect_reference():
    y = np.array([1.0, 0.0, 1.0, 0.0])
    a = np.array([0, 0, 1, 1])
    ref = make_ens(np.tile(y, (3, 1)), y=y, a=a, loss="squared")
    small = make_ens(np.array([[0.5, 0.5, 0.0, 1.0]]), y=y, a=a,
                     loss="squared")
    gap = decompose_gap(small, ref, "MSE")
    own = decompose_costs(small, ensemble_costs(small, ("MSE",)))["MSE"]
    assert gap.bias_diff == own.bias_diff
    assert gap.net_variance_diff == own.net_variance_diff


def test_sd_bounds_perfect_ensemble():
    y = np.array([1.0, 0.0, 1.0, 0.0])
    a = np.array([0, 0, 1, 1])
    labels = np.tile(y, (3, 1))
    ens = make_ens(labels, labels, y=y, a=a)
    rep = sd_bounds(ens)
    assert rep.observed == 0
    assert rep.bias_a0 == 0 and rep.bias_a1 == 0
    assert rep.net_variance_a0 == 0 and rep.net_variance_a1 == 0


def test_sd_bounds_single_model_zero_variance():
    y = np.array([1.0, 0.0, 1.0, 0.0])
    a = np.array([0, 0, 1, 1])
    labels = np.array([[1.0, 1.0, 0.0, 0.0]])
    ens = make_ens(labels, labels, y=y, a=a)
    rep = sd_bounds(ens)
    assert rep.net_variance_a0 == 0
    assert rep.net_variance_a1 == 0
    # V = 0: bounds reduce to bias differences
    assert rep.upper == rep.bias_a1 - rep.bias_a0


def test_sd_bounds_components_match_oracle():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = 8
        k = 3
        labels = rng.integers(0, 2, (k, n)).astype(float)
        y = rng.integers(0, 2, n).astype(float)
        a = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        ens = make_ens(rng.random((k, n)), labels, y=y, a=a)
        rep = sd_bounds(ens)
        _, bias, var, net, _ = oracle_decomposition(ens, "absolute")
        for group in (0, 1):
            sel = [i for i in range(n) if a[i] == group]
            b = sum(bias[i] for i in sel) / len(sel)
            v = sum(net[i] * var[i] for i in sel) / len(sel)
            assert getattr(rep, f"bias_a{group}") == b
            assert getattr(rep, f"net_variance_a{group}") == v
