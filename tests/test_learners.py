import warnings

import numpy as np
import pytest

from fairsample import ConfigError, DataError, Dataset, Learner, fit
from oracles import fit_tree, score_tree


def make_ds(X, y, a=None, task="classification"):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    a = np.zeros(n, dtype=int) if a is None else np.asarray(a)
    return Dataset(X, y, a, np.arange(n), task=task)


def test_knn_k1_memorizes_training_rows():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    model = fit(Learner("knn", k=1), make_ds(X, y))
    scores, labels = model.predict(X)
    assert np.array_equal(labels, y)


def test_logreg_separable_two_points():
    X = np.array([[-1.0], [1.0]])
    y = np.array([0.0, 1.0])
    model = fit(Learner("logistic_regression"), make_ds(X, y))
    _, labels = model.predict(X)
    assert np.array_equal(labels, y)


def test_ols_exact_line():
    x1 = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    X = x1[:, None]
    y = 2.0 * x1 + 1.0
    model = fit(Learner("linear_regression"),
                make_ds(X, y, task="regression"))
    w = model.params["w"]
    assert abs(w[0] - 2.0) < 1e-8
    assert abs(w[1] - 1.0) < 1e-8


def test_ols_singular_handled_by_jitter():
    # duplicated feature makes the Gram matrix singular
    x1 = np.array([0.0, 1.0, 2.0])
    X = np.column_stack([x1, x1])
    y = x1.copy()
    model = fit(Learner("linear_regression"),
                make_ds(X, y, task="regression"))
    scores, _ = model.predict(X)
    assert np.allclose(scores, y, atol=1e-4)


def test_constant_model_single_class():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.ones(3)
    for kind in ("logistic_regression", "decision_tree", "knn"):
        model = fit(Learner(kind), make_ds(X, y))
        scores, labels = model.predict(np.array([[9.0]]))
        assert scores[0] == 1.0
        assert labels[0] == 1.0


def test_zero_features_rejected():
    ds = make_ds(np.zeros((3, 0)), np.array([0.0, 1.0, 0.0]))
    with pytest.raises(DataError, match="zero-feature"):
        fit(Learner("logistic_regression"), ds)
    with pytest.raises(DataError, match="empty training set"):
        fit(Learner("logistic_regression"), make_ds(np.zeros((0, 2)), []))


def test_predict_dimension_mismatch():
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    model = fit(Learner("knn", k=1), make_ds(X, np.array([0.0, 1.0])))
    with pytest.raises(DataError, match="dimension mismatch"):
        model.predict(np.zeros((2, 3)))


@pytest.mark.parametrize("kind", ["logistic_regression", "decision_tree",
                                  "knn", "linear_regression"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_predict_rejects_non_finite_features(kind, value):
    # a NaN row used to score 0.0 in kNN, NaN in logistic regression and
    # go right at every tree node
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 2))
    y = (X[:, 0] > 0).astype(float)
    task = "regression" if kind == "linear_regression" else "classification"
    model = fit(Learner(kind), make_ds(X, y, task=task))
    Xq = rng.standard_normal((5, 2))
    Xq[3, 1] = value
    with pytest.raises(DataError, match="NaN or infinite"):
        model.predict(Xq)


def test_tree_leaf_frequency_score():
    # feature splits the 8 rows into two leaves: left 3 pos / 1 neg,
    # right all neg
    X = np.array([[0.0], [0.1], [0.2], [0.3], [5.0], [5.1], [5.2], [5.3]])
    y = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    model = fit(Learner("decision_tree", min_leaf=4), make_ds(X, y))
    scores, _ = model.predict(np.array([[0.05], [5.05]]))
    assert scores[0] == 0.75
    assert scores[1] == 0.0


def test_tree_deterministic_tie_break():
    # two identical features: the split must use the lower feature index
    x = np.array([0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0])
    X = np.column_stack([x, x])
    y = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    model = fit(Learner("decision_tree", min_leaf=2), make_ds(X, y))
    assert model.params["feature"][0] == 0


def test_tree_deeper_than_the_recursion_limit():
    # alternating labels along one feature: a chain of n - 1 splits, which
    # a recursive builder cannot reach (RecursionError past ~1000 levels)
    n = 1500
    X = np.arange(n, dtype=float)[:, None]
    y = (np.arange(n) % 2).astype(float)
    model = fit(Learner("decision_tree", max_depth=5000, min_leaf=1),
                make_ds(X, y))
    assert model.params["height"] == n - 1
    _, labels = model.predict(X)
    assert np.array_equal(labels, y)


ADJ_LO, ADJ_HI = 1 + 2 ** -52, 1 + 2 ** -51


@pytest.mark.parametrize("x, y", [
    # adjacent floats: their midpoint rounds up to the right value
    ([ADJ_LO] * 5 + [ADJ_HI] * 5, [0] * 5 + [1] * 5),
    # the sum of the two values overflows
    ([1e308] * 5 + [1.5e308] * 5, [0] * 5 + [1] * 5),
    ([ADJ_LO] * 5 + [ADJ_HI] * 5 + [2.0] * 5, [0] * 5 + [1] * 10),
], ids=["adjacent", "huge", "adjacent-then-far"])
def test_tree_applies_the_split_it_scored(x, y):
    # each used to apply `x <= midpoint` with the midpoint at or past the
    # right value: one 0.5 leaf, or 0.5 for the ADJ_HI rows
    X, y = np.array(x)[:, None], np.array(y, dtype=float)
    learner = Learner("decision_tree", min_leaf=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores, _ = fit(learner, make_ds(X, y)).predict(X)
        oracle = score_tree(fit_tree(learner, X, y), X)
    assert np.array_equal(scores, y)
    assert np.array_equal(oracle, y)


def test_knn_distance_tie_lower_row_index():
    # two training rows equidistant from the query: row 0 must win
    X = np.array([[-1.0], [1.0], [5.0]])
    y = np.array([1.0, 0.0, 0.0])
    model = fit(Learner("knn", k=1), make_ds(X, y))
    scores, _ = model.predict(np.array([[0.0]]))
    assert scores[0] == 1.0


def test_knn_score_is_neighbor_fraction():
    X = np.array([[0.0], [0.1], [0.2], [10.0], [10.1]])
    y = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    model = fit(Learner("knn", k=3), make_ds(X, y))
    scores, _ = model.predict(np.array([[0.05]]))
    assert scores[0] == pytest.approx(2.0 / 3.0)


def test_fit_predict_deterministic():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((60, 3))
    y = (rng.random(60) < 0.5).astype(float)
    ds = make_ds(X, y)
    Xq = rng.standard_normal((20, 3))
    for kind in ("logistic_regression", "decision_tree", "knn"):
        m1 = fit(Learner(kind), ds)
        m2 = fit(Learner(kind), ds)
        s1, l1 = m1.predict(Xq)
        s2, l2 = m2.predict(Xq)
        assert np.array_equal(s1, s2)
        assert np.array_equal(l1, l2)


def test_threshold_monotone():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((80, 2))
    y = (X[:, 0] + 0.3 * rng.standard_normal(80) > 0).astype(float)
    ds = make_ds(X, y)
    Xq = rng.standard_normal((50, 2))
    prev = None
    for thr in (0.2, 0.4, 0.6, 0.8):
        model = fit(Learner("logistic_regression", threshold=thr), ds)
        _, labels = model.predict(Xq)
        count = int(labels.sum())
        if prev is not None:
            assert count <= prev
        prev = count


def test_scores_in_unit_interval():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((50, 2))
    y = (rng.random(50) < 0.4).astype(float)
    ds = make_ds(X, y)
    Xq = 10 * rng.standard_normal((30, 2))
    for kind in ("logistic_regression", "decision_tree", "knn"):
        scores, _ = fit(Learner(kind), ds).predict(Xq)
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)


@pytest.mark.parametrize("name", ["learning_rate", "l2", "grad_tol",
                                  "ridge_jitter"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_logreg_settings_rejected(name, value):
    with pytest.raises(ConfigError, match=name):
        Learner(**{name: value})


@pytest.mark.parametrize("kw, message", [
    ({"kind": "svm"}, "unknown learner kind 'svm'"),
    ({"threshold": 0.0}, "threshold must be in"),
    ({"threshold": 1.0}, "threshold must be in"),
    ({"l2": -1e-9}, "invalid logistic regression"),
    ({"learning_rate": 0.0}, "invalid logistic regression"),
    ({"max_iter": 0}, "invalid logistic regression"),
    ({"max_depth": 0}, "invalid decision tree"),
    ({"min_leaf": 0}, "invalid decision tree"),
    ({"k": 0}, "k must be >= 1"),
    ({"grad_tol": -1e-9}, "invalid logistic regression"),
])
def test_out_of_range_settings_rejected(kw, message):
    with pytest.raises(ConfigError, match=message):
        Learner(**kw)


@pytest.mark.parametrize("value", [0.0, -1.0])
def test_non_positive_ridge_jitter_rejected(value):
    # a zero jitter would hand a singular Gram matrix to the solve as is
    with pytest.raises(ConfigError, match="ridge_jitter"):
        Learner("linear_regression", ridge_jitter=value)


@pytest.mark.parametrize("name", ["max_iter", "max_depth", "min_leaf", "k"])
@pytest.mark.parametrize("value", [2.5, float("nan"), 3.0, True])
def test_non_integer_counts_rejected(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        Learner(**{name: value})
    Learner(**{name: np.int64(3)})
