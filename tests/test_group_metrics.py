from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsample import ConfigError
from fairsample.group_metrics import (CLASSIFICATION_METRICS, MetricCosts,
                                      confusion_counts, model_costs)
from oracles import oracle_metrics, oracle_model_costs
from reports import model_reports


def test_hand_fixture_fpr_eo():
    # a1 pairs (y, yhat): (0,1),(0,0),(1,1); a0: (0,0),(0,1),(1,0)
    y = np.array([0, 0, 1, 0, 0, 1])
    labels = np.array([1, 0, 1, 0, 1, 0])
    a = np.array([1, 1, 1, 0, 0, 0])
    fpr = model_reports(y, labels, None, a, ("FPR",))[0]
    assert fpr.value_a1 == Fraction(1, 2)
    assert fpr.value_a0 == Fraction(1, 2)
    assert fpr.disc == 0
    eo = model_reports(y, labels, None, a, ("EO",))[0]
    assert eo.value_a1 == 1
    assert eo.value_a0 == 0
    assert eo.disc == 1


def test_auc_tie_handling():
    # pos scores {0.9, 0.7}, neg {0.8, 0.1}: 3 of 4 pairs concordant
    y = np.array([1, 1, 0, 0])
    scores = np.array([0.9, 0.7, 0.8, 0.1])
    a = np.zeros(4, dtype=int)
    rep = model_reports(y, y, scores, a, ("AUC",))[0]
    assert rep.value_a0 == Fraction(3, 4)
    # ties count one half
    scores = np.array([0.5, 0.7, 0.5, 0.1])
    rep = model_reports(y, y, scores, a, ("AUC",))[0]
    assert rep.value_a0 == Fraction(1, 2) * Fraction(1, 4) + Fraction(3, 4)


def test_auc_requires_scores():
    y = np.array([0, 1])
    with pytest.raises(ConfigError, match="AUC requires scores"):
        model_reports(y, y, None, np.array([0, 1]), ("AUC",))[0]


def test_an_empty_stack_is_a_config_error():
    # K = 0 has no model row to read the shared denominators from
    y = np.array([0, 1, 0, 1])
    with pytest.raises(ConfigError, match="at least one model"):
        model_costs(y, np.empty((0, 4)), None, np.array([0, 0, 1, 1]),
                    ("FPR",))
    with pytest.raises(ConfigError, match="unknown metric 'WOMBAT'"):
        model_costs(y, [y], None, np.array([0, 0, 1, 1]), ("WOMBAT",))


def test_identical_groups_zero_disc():
    y = np.array([0, 1, 1, 0, 0, 1, 1, 0])
    labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    scores = np.array([0.1, 0.9, 0.4, 0.6, 0.1, 0.9, 0.4, 0.6])
    a = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    for rep in model_reports(y, labels, scores, a,
                             ["FPR", "FNR", "EO", "ZOL", "SD", "AUC"]):
        assert rep.disc == 0


def test_eo_equals_negated_fnr_exactly():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(4, 60))
        y = rng.integers(0, 2, n)
        labels = rng.integers(0, 2, n).astype(float)
        a = rng.integers(0, 2, n)
        eo = model_reports(y, labels, None, a, ("EO",))[0].disc
        fnr = model_reports(y, labels, None, a, ("FNR",))[0].disc
        if eo is None:
            assert fnr is None
        else:
            assert eo == -fnr


def test_undefined_on_empty_conditioning_set():
    y = np.array([1, 1, 0, 1])  # group 1 has no negatives
    labels = np.array([1, 0, 0, 1])
    a = np.array([1, 1, 0, 0])
    rep = model_reports(y, labels, None, a, ("FPR",))[0]
    assert rep.value_a1 is None
    assert rep.value_a0 is not None
    assert rep.disc is None


def test_permutation_invariance():
    rng = np.random.default_rng(11)
    n = 40
    y = rng.integers(0, 2, n)
    labels = rng.integers(0, 2, n).astype(float)
    scores = rng.choice([0.1, 0.3, 0.5, 0.9], n)
    a = rng.integers(0, 2, n)
    perm = rng.permutation(n)
    for m in ["FPR", "FNR", "EO", "ZOL", "SD", "AUC"]:
        r1 = model_reports(y, labels, scores, a, (m,))[0]
        r2 = model_reports(y[perm], labels[perm], scores[perm], a[perm],
                           (m,))[0]
        assert (r1.value_a0, r1.value_a1) == (r2.value_a0, r2.value_a1)


def test_values_in_range():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(4, 80))
        y = rng.integers(0, 2, n)
        labels = rng.integers(0, 2, n).astype(float)
        scores = rng.random(n)
        a = rng.integers(0, 2, n)
        for m in ["FPR", "FNR", "EO", "ZOL", "SD", "AUC"]:
            rep = model_reports(y, labels, scores, a, (m,))[0]
            for v in (rep.value_a0, rep.value_a1):
                assert v is None or 0 <= v <= 1
        mse = model_reports(y, labels, scores, a, ("MSE",))[0]
        for v in (mse.value_a0, mse.value_a1):
            assert v is None or v >= 0


def test_model_reports_match_individual_calls():
    y = np.array([0, 1, 1, 0, 1, 0])
    labels = np.array([1, 1, 0, 0, 1, 0]).astype(float)
    scores = np.array([0.8, 0.9, 0.2, 0.3, 0.7, 0.1])
    a = np.array([0, 1, 0, 1, 0, 1])
    metrics = ["EO", "FNR", "SD"]
    combined = model_reports(y, labels, scores, a, metrics)
    for rep, m in zip(combined, metrics):
        single = model_reports(y, labels, scores, a, (m,))[0]
        assert (rep.value_a0, rep.value_a1) == (single.value_a0,
                                                single.value_a1)
    assert model_reports(y, labels, scores, a, []) == []


def test_matches_oracle_on_fixtures():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(6, 100))
        y = rng.integers(0, 2, n)
        labels = rng.integers(0, 2, n).astype(float)
        scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], n)
        a = rng.integers(0, 2, n)
        oracle = oracle_metrics(y, labels, scores, a)
        for rep in oracle:
            mine = model_reports(y, labels, scores, a, (rep.metric,))[0]
            assert (mine.value_a0, mine.value_a1) == (rep.value_a0,
                                                      rep.value_a1)


def test_values_outside_zero_one_are_config_errors():
    y = np.array([0, 0, 1, 0, 0, 1])
    scores = np.array([0.9, 0.2, 0.8, 0.3, 0.6, 0.7])
    a = np.array([1, 1, 1, 0, 0, 0])
    # a fractional label once truncated to 0 and counted as a negative
    with pytest.raises(ConfigError, match="labels must be 0 or 1"):
        model_reports(y, [0.7, 0.7, 1, 0, 0, 1], None, a, ("FPR",))[0]
    # a label of 2 once counted twice under SD
    with pytest.raises(ConfigError, match="labels must be 0 or 1"):
        model_reports(y, [2, 0, 1, 0, 0, 1], None, a, ("SD",))[0]
    # rows of a third group once dropped out of both groups
    for metric in ("FPR", "AUC", "MSE"):
        with pytest.raises(ConfigError, match="groups must be 0 or 1"):
            model_reports(y, y, scores, [1, 1, 2, 0, 0, 0], (metric,))[0]
    for metric in ("EO", "ZOL", "AUC"):
        with pytest.raises(ConfigError, match="outcomes must be 0 or 1"):
            model_reports([0, 0, 3, 0, 0, 1], y, scores, a, (metric,))[0]
    # MSE takes real-valued outcomes and predictions
    rep = model_reports([0.5, 2.0, 1.0, 0.0, 0.25, 3.0], scores, scores, a,
                        ("MSE",))[0]
    assert rep.value_a0 is not None and rep.value_a1 is not None


def test_mse_requires_scores():
    y = np.array([0.5, 1.5])
    with pytest.raises(ConfigError, match="MSE requires scores"):
        model_reports(y, y, None, np.array([0, 1]), ("MSE",))[0]


def test_confusion_counts_one_bincount_layout():
    y = np.array([0, 0, 1, 1, 0, 1])
    a = np.array([0, 0, 0, 1, 1, 1])
    labels = np.array([[0, 1, 1, 0, 1, 1], [1, 1, 1, 1, 1, 1]])
    counts = confusion_counts(y, labels, a)
    assert counts.shape == (2, 2, 4)
    # model 0: a0 has tn, fp, tp; a1 has fn, fp, tp
    assert counts[0].tolist() == [[1, 1, 0, 1], [0, 1, 1, 1]]
    # model 1 predicts 1 everywhere: fp and tp only
    assert counts[1].tolist() == [[0, 2, 0, 1], [0, 1, 0, 2]]


@st.composite
def label_stacks(draw):
    """A (K, n) stack of 0/1 labels and coarse-grid scores on one
    evaluation set, where groups may be empty and y or a model's labels
    single-class."""
    k, n = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    y_kind, a_kind, label_kind = (draw(st.sampled_from(("mixed", 0, 1)))
                                  for _ in range(3))
    y = rng.integers(0, 2, n) if y_kind == "mixed" else np.full(n, y_kind)
    a = rng.integers(0, 2, n) if a_kind == "mixed" else np.full(n, a_kind)
    labels = rng.integers(0, 2, (k, n)).astype(float)
    if label_kind != "mixed":
        labels[0] = label_kind
    scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], (k, n))
    return y, labels, scores, a


@settings(max_examples=200, deadline=None)
@given(stack=label_stacks())
def test_model_costs_match_oracle_model_by_model(stack):
    y, labels, scores, a = stack
    costs = model_costs(y, labels, scores, a, CLASSIFICATION_METRICS)
    assert list(costs) == list(CLASSIFICATION_METRICS)
    assert costs == oracle_model_costs(y, labels, scores, a,
                                       CLASSIFICATION_METRICS)
    for k in range(len(labels)):
        assert {m: MetricCosts(c.num[k:k + 1], c.den)
                for m, c in costs.items()} == model_costs(
            y, labels[k:k + 1], scores[k:k + 1], a, CLASSIFICATION_METRICS)


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 6), n=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_model_costs_mse_matches_oracle_on_a_regression_stack(k, n, seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n)
    scores = rng.normal(size=(k, n))
    a = rng.integers(0, 2, n)
    assert (model_costs(y, scores, scores, a, ("MSE",))
            == oracle_model_costs(y, scores, scores, a, ("MSE",)))


# numerators and denominators up to 2**120, most of them past 2**53, where
# a float64 operand would no longer be exact
_BIG = st.one_of(st.integers(0, 2**20), st.integers(2**53, 2**120))


@settings(max_examples=300, deadline=None)
@given(num=st.lists(st.tuples(_BIG, _BIG), min_size=1, max_size=5),
       den=st.tuples(st.one_of(st.just(0), _BIG), st.one_of(st.just(0), _BIG)))
def test_float_view_and_means_are_the_exact_values(num, den):
    costs = MetricCosts(tuple(num), den)
    exact = [[None if d == 0 else Fraction(n, d) for n, d in zip(pair, den)]
             for pair in num]
    discs = [None if None in v else v[1] - v[0] for v in exact]
    assert costs.floats() == [
        tuple(None if v is None else float(v) for v in (*values, disc))
        for values, disc in zip(exact, discs)]
    assert costs.means() == tuple(
        None if d == 0 else sum(v[g] for v in exact) / len(num)
        for g, d in enumerate(den))
    assert costs.mean_disc() == (None if None in discs
                                 else sum(discs) / len(num))


def test_auc_past_two_to_the_53_matches_fraction_arithmetic():
    # ~20,000 rows per group: every operand of a disc, n1 * d0, n0 * d1
    # and d0 * d1, is past 2**53
    rng = np.random.default_rng(53)
    n = 40000
    y = rng.integers(0, 2, n)
    a = rng.integers(0, 2, n)
    scores = rng.integers(0, 1000, (2, n)) / 1000  # many ties
    costs = model_costs(y, scores, scores, a, ("AUC",))["AUC"]
    d0, d1 = costs.den
    assert min(min(n1 * d0, n0 * d1) for n0, n1 in costs.num) > 2**53
    for k, s in enumerate(scores):
        exact = []
        for g in (0, 1):
            pos = np.sort(s[(a == g) & (y == 1)])
            neg = np.sort(s[(a == g) & (y == 0)])
            below = np.searchsorted(neg, pos, side="left")
            ties = np.searchsorted(neg, pos, side="right") - below
            doubled = 2 * int(below.sum()) + int(ties.sum())
            assert (costs.num[k][g], costs.den[g]) == (
                doubled, 2 * len(pos) * len(neg))
            exact.append(Fraction(doubled, 2 * len(pos) * len(neg)))
        assert costs.floats()[k] == (float(exact[0]), float(exact[1]),
                                     float(exact[1] - exact[0]))
