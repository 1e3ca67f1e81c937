"""The block-wise CSV loader and the array implementations of the holdout
split, the sweep draws, logistic-regression fitting, kNN scoring, tree
fitting and scoring, the group metrics and the exact zero-one
decomposition against the whole-table loader, the per-sample / per-row /
per-model / per-point loops and the per-family samplers in oracles.py."""

import csv
import io
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from fairsample import (DataError, Dataset, FairsampleError, Learner,
                        PredictionEnsemble, Schema, SweepSpec, SynthSpec,
                        bias_gap, decompose_costs, ensemble_costs, fit,
                        generate, holdout_split,
                        run_collect_sim, run_decomposition_sweep,
                        run_ssb_sweep, run_urb_sweep, sd_bounds)
from fairsample import dataset, experiments, group_metrics, learners
from fairsample.synth import write_csv as write_synth_csv


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 6),
       n=st.integers(2, 300),
       d=st.integers(1, 6),
       learning_rate=st.sampled_from([0.1, 5.0, 50.0]),
       max_iter=st.integers(1, 50),
       single_class=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_logreg_fit_many_matches_one_sample_oracle(k, n, d, learning_rate,
                                                   max_iter, single_class,
                                                   seed):
    rng = np.random.default_rng(seed)
    # per-replicate feature scales: at 1e7 every step overshoots down to
    # the 1e-12 floor, so replicates of one batch stop on different
    # rounds and for different reasons
    scales = rng.choice([1.0, 10.0, 1e7], k)
    X = rng.standard_normal((k, n, d)) * scales[:, None, None]
    y = rng.integers(0, 2, (k, n)).astype(float)
    y[:, :2] = (0.0, 1.0)
    if single_class:
        y[rng.integers(k)] = float(rng.integers(2))
    learner = Learner(learning_rate=learning_rate, max_iter=max_iter)
    samples = [Dataset(X[i], y[i], np.zeros(n, dtype=int), np.arange(n))
               for i in range(k)]
    models = learners.fit_many(learner, samples)
    for model, s in zip(models, samples):
        if len(np.unique(s.y)) < 2:
            assert model.params == {"constant": s.y[0]}
        else:
            w = oracles._fit_logreg(learner, s.X, s.y)["w"]
            assert np.array_equal(model.params["w"], w)


@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.integers(2, 200), min_size=2, max_size=4,
                      unique=True),
       per_size=st.integers(1, 3),
       d=st.integers(1, 5),
       learning_rate=st.sampled_from([0.1, 5.0, 50.0]),
       max_iter=st.integers(1, 60),
       single_class=st.booleans(),
       other_d=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_logreg_fit_many_of_mixed_sizes_matches_one_sample_oracle(
        sizes, per_size, d, learning_rate, max_iter, single_class, other_d,
        seed):
    # samples of several sizes, interleaved, share one lockstep solve; at a
    # 1e7 feature scale every step overshoots down to the 1e-12 floor, so
    # replicates of different sizes stop on different rounds
    rng = np.random.default_rng(seed)
    shapes = [(n, d) for n in sizes for _ in range(per_size)]
    if other_d:
        shapes.append((sizes[0], d + 1))
    samples = []
    for i in rng.permutation(len(shapes)):
        n, dk = shapes[i]
        X = rng.standard_normal((n, dk)) * rng.choice([1.0, 10.0, 1e7])
        y = rng.integers(0, 2, n).astype(float)
        y[:2] = (0.0, 1.0)
        samples.append(Dataset(X, y, np.zeros(n, dtype=int), np.arange(n)))
    if single_class:
        samples[rng.integers(len(samples))].y[:] = float(rng.integers(2))
    learner = Learner(learning_rate=learning_rate, max_iter=max_iter)
    if other_d:
        with pytest.raises(DataError, match="one feature count"):
            learners.fit_many(learner, samples)
        return
    models = learners.fit_many(learner, samples)
    for model, s in zip(models, samples):
        if len(np.unique(s.y)) < 2:
            assert model.params == {"constant": s.y[0]}
        else:
            w = oracles._fit_logreg(learner, s.X, s.y)["w"]
            assert np.array_equal(model.params["w"], w)


@pytest.mark.parametrize(
    "layout", [np.asfortranarray, lambda X: X[:, ::-1], lambda X: X[::2]],
    ids=["fortran", "reversed-columns", "every-other-row"])
def test_logreg_weights_do_not_depend_on_the_sample_memory_order(layout):
    # the solver stacks every sample C-ordered and feature-major: a sample
    # matrix in another memory order must not reach BLAS as is, where an
    # F-ordered operand selects another kernel whose sums round otherwise
    rng = np.random.default_rng(5)
    learner = Learner(max_iter=200)
    samples, copies = [], []
    for n in (3, 40, 40, 257):
        X = layout(rng.standard_normal((2 * n, 4)) * rng.choice([1.0, 30.0]))
        y = rng.integers(0, 2, len(X)).astype(float)
        y[:2] = (0.0, 1.0)
        assert not X.flags.c_contiguous
        ids = np.arange(len(X))
        samples.append(Dataset(X, y, np.zeros(len(X), dtype=int), ids))
        copies.append(Dataset(np.ascontiguousarray(X), y,
                              np.zeros(len(X), dtype=int), ids))
    models = learners.fit_many(learner, samples)
    for model, copy, s in zip(models, learners.fit_many(learner, copies),
                              samples):
        assert np.array_equal(model.params["w"], copy.params["w"])
        w = oracles._fit_logreg(learner, s.X, s.y)["w"]
        assert np.array_equal(model.params["w"], w)


def _record_logreg_parts(monkeypatch):
    """Log of the solver's calls to its two parts, as (part, w) with part
    "grad" (the gradient at trial points w) or "loss"."""
    log = []
    grad_part, loss_part = learners._logreg_grad, learners._logreg_loss

    def grad(w, *args):
        log.append(("grad", w.copy()))
        return grad_part(w, *args)

    def loss(z, w, *args):
        log.append(("loss", w.copy()))
        return loss_part(z, w, *args)

    monkeypatch.setattr(learners, "_logreg_grad", grad)
    monkeypatch.setattr(learners, "_logreg_loss", loss)
    return log


@pytest.mark.parametrize("m", [10, 2000])
def test_logreg_certified_steps_skip_the_loss(monkeypatch, m):
    # the shape of the ssb_logreg benchmark: five standardized features,
    # K = 5 draws of one size
    ds = generate(SynthSpec(n=4000, d=5, group1_share=0.3, seed=1))
    X = (ds.X - ds.X.mean(axis=0)) / ds.X.std(axis=0, ddof=1)
    rng = np.random.default_rng(m)
    rows = [np.sort(rng.choice(ds.n, m, replace=False)) for _ in range(5)]
    samples = [Dataset(X[r], ds.y[r], ds.a[r], r) for r in rows]
    assert all(len(np.unique(s.y)) == 2 for s in samples)
    log = _record_logreg_parts(monkeypatch)
    learner = Learner()
    models = learners.fit_many(learner, samples)
    # every step is certified: no loss is computed
    assert all(part == "grad" for part, _ in log)
    assert sum(part == "grad" for part, _ in log) > 100
    for model, s in zip(models, samples):
        w = oracles._fit_logreg(learner, s.X, s.y)["w"]
        assert np.array_equal(model.params["w"], w)


def test_logreg_mixed_certified_and_exact_steps_match_oracle(monkeypatch):
    rng = np.random.default_rng(11)
    k, n, d = 4, 80, 3
    X = rng.standard_normal((k, n, d))
    y = (rng.random((k, n)) < 1 / (1 + np.exp(-X.sum(axis=2)))).astype(float)
    # steps near 2 / L, with L the solver's Hessian bound, leave the bound
    # little room: it settles the early steps, and the steps near the
    # optimum, which a tiny grad_tol lets run, take the exact path
    L = (np.einsum("kij,kij->k", X, X) / n + 1) / 4
    learner = Learner(learning_rate=1.9 / L.max(), grad_tol=1e-13,
                      max_iter=150)
    samples = [Dataset(X[i], y[i], np.zeros(n, dtype=int), np.arange(n))
               for i in range(k)]
    log = _record_logreg_parts(monkeypatch)
    models = learners.fit_many(learner, samples)
    # each round after the starting gradient is one gradient call at the
    # live replicates' trial points; an open round adds two loss calls
    # (trial points and weights), each over every live replicate
    rounds = []
    for part, w in log[1:]:
        if part == "grad":
            rounds.append((len(w), []))
        else:
            rounds[-1][1].append(len(w))
    open_rounds = [(live, losses) for live, losses in rounds if losses]
    assert 0 < len(open_rounds) < len(rounds)
    assert all(losses == [live, live] for live, losses in open_rounds)
    for model, s in zip(models, samples):
        w = oracles._fit_logreg(learner, s.X, s.y)["w"]
        assert np.array_equal(model.params["w"], w)


def test_logreg_scores_match_masked_sigmoid():
    rng = np.random.default_rng(0)
    # the sigmoid has no mask, so the edges of either side: infinities,
    # NaN and subnormal margins, whose exp(-|z|) rounds to 1
    z = np.concatenate([[0.0, -0.0, 800.0, -800.0, 36.0, -36.0, 745.0,
                         -745.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                         1e-310, -1e-310], rng.standard_normal(500) * 20])
    assert np.array_equal(learners._sigmoid(z), oracles._sigmoid(z),
                          equal_nan=True)
    params = {"w": np.array([1.0, 0.0])}
    assert np.array_equal(learners._score_logreg(params, z[:, None]),
                          oracles.score_logreg(params, z[:, None]),
                          equal_nan=True)
    params = {"w": rng.standard_normal(4) * 3}
    X = rng.standard_normal((300, 3)) * 10
    assert np.array_equal(learners._score_logreg(params, X),
                          oracles.score_logreg(params, X))


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 5, 7, 8, 9, 20, 130]),
       n_train=st.integers(20, 60),
       k=st.sampled_from(["1", "5", "n_train"]),
       levels=st.integers(1, 3),
       scale=st.sampled_from([1.0, 0.1, 0.37]),
       seed=st.integers(0, 2**32 - 1))
def test_knn_predict_matches_per_row_oracle(d, n_train, k, levels, scale,
                                            seed):
    rng = np.random.default_rng(seed)
    # few distinct rows on a coarse grid, drawn with repeats: distances tie
    distinct = rng.integers(-levels, levels + 1, (max(2, n_train // 3), d))
    X = scale * distinct[rng.integers(0, len(distinct), n_train)]
    y = rng.integers(0, 2, n_train).astype(float)
    y[:2] = (0.0, 1.0)
    k = n_train if k == "n_train" else int(k)
    model = fit(Learner("knn", k=k),
                Dataset(X, y, np.zeros(n_train, dtype=int),
                        np.arange(n_train)))
    rows_per_chunk = max(1, learners._KNN_CHUNK_ELEMS // X.size)
    n_query = rows_per_chunk + int(rng.integers(1, rows_per_chunk + 1))
    Xq = scale * rng.integers(-levels - 1, levels + 2, (n_query, d))
    scores, labels = model.predict(Xq)
    expected = oracles.score_knn(model.params, Xq)
    assert np.array_equal(scores, expected)
    assert np.array_equal(labels, (expected >= 0.5).astype(float))


def _record_exact_step(monkeypatch):
    """Query rows and their candidate masks handed to the exact step, one
    (rows, candidates) pair per call."""
    calls = []
    exact = learners._nearest_positives

    def record(Xt, yt, Xq, cand, k):
        calls.append((Xq.copy(), cand.copy()))
        return exact(Xt, yt, Xq, cand, k)

    monkeypatch.setattr(learners, "_nearest_positives", record)
    return calls


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2, 5, 9]),
       n_train=st.integers(20, 60),
       k=st.sampled_from([1, 3, 5]),
       seed=st.integers(0, 2**32 - 1))
def test_knn_predict_mixes_fast_path_and_tie_fill_rows(d, n_train, k, seed):
    rng = np.random.default_rng(seed)
    # continuous rows, so the filter decides most queries; row 0 has k + 1
    # copies after it, so a query on it ties across the k-th place; rows
    # c .. c+k-1 are k copies of one row and row c+k a copy off by a few
    # ulps, so a query on them has exactly k rows at or below its k-th
    # distance, but the filter cannot tell the near copy apart; a few
    # other rows are duplicated; the last k + 1 rows lie far from the
    # rest, so a query on one of them has k distinct nearest rows that the
    # filter decides even when the copies leave too few distinct rows
    # elsewhere (in one dimension, with few rows, every other query's k
    # nearest can cut a block of copies)
    X = rng.standard_normal((n_train, d))
    X[1:k + 2] = X[0]
    c = k + 2
    X[c + 1:c + k] = X[c]
    X[c + k] = X[c] * (1 + 2.0 ** -40)
    rest = c + k + 1
    far = n_train - (k + 1)
    X[rng.integers(rest, far, 3)] = X[rng.integers(rest, far, 3)]
    X[far:] += 100.0
    y = rng.integers(0, 2, n_train).astype(float)
    y[:2] = (0.0, 1.0)
    model = fit(Learner("knn", k=k),
                Dataset(X, y, np.zeros(n_train, dtype=int),
                        np.arange(n_train)))
    rows_per_chunk = max(1, learners._KNN_CHUNK_ELEMS // X.size)
    n_query = rows_per_chunk + int(rng.integers(1, rows_per_chunk + 1))
    Xq = rng.standard_normal((n_query, d))
    on_train = rng.choice(n_query, n_query // 4, replace=False)
    Xq[on_train] = X[rng.integers(0, n_train, len(on_train))]
    Xq[rng.choice(rows_per_chunk, 3, replace=False)] = X[0], X[c], X[far]
    # the first chunk holds rows of both kinds
    d2 = np.sum((X - Xq[:rows_per_chunk, None]) ** 2, axis=2)
    kth = np.sort(d2, axis=1)[:, k - 1:k]
    excess = np.count_nonzero(d2 <= kth, axis=1) > k
    assert excess.any() and not excess.all()
    with pytest.MonkeyPatch.context() as mp:
        calls = _record_exact_step(mp)
        scores, labels = model.predict(Xq)
    expected = oracles.score_knn(model.params, Xq)
    assert np.array_equal(scores, expected)
    assert np.array_equal(labels, (expected >= 0.5).astype(float))
    # the first chunk has both filtered and exact rows, and its exact rows
    # hold both a tie across the k-th place and a row with exactly k rows
    # at or below its k-th distance that the filter cannot tell apart
    first, _ = calls[0]
    assert 0 < len(first) < rows_per_chunk
    d2 = np.sum((X - first[:, None]) ** 2, axis=2)
    kth = np.sort(d2, axis=1)[:, k - 1:k]
    at_or_below = np.count_nonzero(d2 <= kth, axis=1)
    assert (at_or_below > k).any() and (at_or_below == k).any()


@settings(max_examples=300, deadline=None)
@given(d=st.sampled_from([1, 2, 5, 9]),
       n_train=st.integers(1, 30),
       k=st.sampled_from(["1", "3", "n_train"]),
       scale=st.sampled_from([1.0, 1e160, 1e-160, 1e-161, 1e19, 1e-20,
                              1e-23, 1e-40]),
       rows=st.sampled_from(["normal", "grid", "duplicated"]),
       scaled=st.sampled_from(["all", "some"]),
       seed=st.integers(0, 2**32 - 1))
def test_knn_filter_matches_per_row_oracle_at_extreme_scales(
        d, n_train, k, scale, rows, scaled, seed):
    # at 1e160 squares overflow, and with "some" rows scaled, some of a
    # row's distances do and others do not; at 1e-160 and 1e-161 squared
    # distances are subnormal, a few thousand or tens of multiples of
    # 2**-1074; in the float32 filter, sums of squares overflow near
    # 1e19, squares are subnormal at 1e-20 and round to 0 at 1e-23, and at
    # 1e-40 the inputs themselves are subnormal
    rng = np.random.default_rng(seed)
    if rows == "grid":
        X = rng.integers(-2, 3, (n_train, d)).astype(float)
        Xq = rng.integers(-3, 4, (60, d)).astype(float)
    else:
        X = rng.standard_normal((n_train, d))
        Xq = rng.standard_normal((60, d))
    if rows == "duplicated":
        X = X[rng.integers(0, n_train, n_train)]
    Xq[:10] = X[rng.integers(0, n_train, 10)]
    for A in (X, Xq):
        A *= scale if scaled == "all" else \
            np.where(rng.random((len(A), 1)) < 0.5, scale, 1.0)
    k = n_train if k == "n_train" else min(int(k), n_train)
    params = {"X": X, "y": rng.integers(0, 2, n_train).astype(float),
              "k": k}
    with np.errstate(over="ignore", invalid="ignore"):
        expected = oracles.score_knn(params, Xq)
        # and one query row per chunk: after a row float32 leaves open,
        # the float64 filter takes the later rows
        for elems in (learners._KNN_CHUNK_ELEMS, X.size):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(learners, "_KNN_CHUNK_ELEMS", elems)
                scores = learners._score_knn(params, Xq)
            assert np.array_equal(scores, expected)


@settings(max_examples=150, deadline=None)
@given(d=st.sampled_from([1, 2, 5, 9]),
       n_train=st.integers(1, 30),
       k=st.sampled_from(["1", "3", "n_train"]),
       offset=st.sampled_from([1e3, 1e6, 1e9]),
       rows=st.sampled_from(["normal", "grid", "duplicated"]),
       seed=st.integers(0, 2**32 - 1))
def test_knn_filter_matches_per_row_oracle_on_translated_data(
        d, n_train, k, offset, rows, seed):
    # rows far from the origin, each feature shifted by +-offset: the
    # filter ranks rows centred at the training mean, the oracle the rows
    # as they are; at 1e9 the shift rounds the rows themselves.  Without
    # the centring, float32's bound would grow with the offset and leave
    # every normal row open
    rng = np.random.default_rng(seed)
    if rows == "grid":
        X = rng.integers(-2, 3, (n_train, d)).astype(float)
        Xq = rng.integers(-3, 4, (60, d)).astype(float)
    else:
        X = rng.standard_normal((n_train, d))
        Xq = rng.standard_normal((60, d))
    if rows == "duplicated":
        X = X[rng.integers(0, n_train, n_train)]
    Xq[:10] = X[rng.integers(0, n_train, 10)]
    shift = offset * rng.choice([-1.0, 1.0], d)
    X += shift
    Xq += shift
    k = n_train if k == "n_train" else min(int(k), n_train)
    params = {"X": X, "y": rng.integers(0, 2, n_train).astype(float),
              "k": k}
    with pytest.MonkeyPatch.context() as mp:
        calls = _record_exact_step(mp)
        scores = learners._score_knn(params, Xq)
    assert np.array_equal(scores, oracles.score_knn(params, Xq))
    if rows == "normal":
        assert sum(len(q) for q, _ in calls) < len(Xq) // 2


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2, 3]),
       k=st.sampled_from([1, 3, 5]),
       seed=st.integers(0, 2**32 - 1))
def test_knn_filter_matches_per_row_oracle_far_from_the_training_mean(
        d, k, seed):
    # half the training rows near the origin and half in a dense cluster
    # near 100, queries in the cluster: centred, the queries sit ~50 from
    # the mean, so float32 rounds a by far more than the cluster's
    # distances differ, and a bound 48x smaller than B picks wrong
    # neighbours
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.standard_normal((200, d)),
                   100.0 + 1e-3 * rng.standard_normal((200, d))])
    Xq = 100.0 + 1e-3 * rng.standard_normal((100, d))
    params = {"X": X, "y": rng.integers(0, 2, len(X)).astype(float),
              "k": k}
    assert np.array_equal(learners._score_knn(params, Xq),
                          oracles.score_knn(params, Xq))


def _one_hot_rows(rng, n):
    """Three categorical columns (3, 4 and 8 levels) one-hot encoded and an
    integer column standardized, as load_csv encodes them: most query rows
    tie across the k-th place."""
    blocks = [np.eye(levels)[rng.integers(0, levels, n)]
              for levels in (3, 4, 8)]
    ints = rng.integers(0, 5, n).astype(float)
    return np.hstack(blocks + [((ints - 2.0) / 1.4)[:, None]])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_knn_matches_per_row_oracle_on_one_hot_rows(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    X = _one_hot_rows(rng, 500)
    params = {"X": X, "y": rng.integers(0, 2, len(X)).astype(float),
              "k": 5}
    Xq = _one_hot_rows(rng, 400)
    calls = _record_exact_step(monkeypatch)
    scores = learners._score_knn(params, Xq)
    monkeypatch.undo()
    assert np.array_equal(scores, oracles.score_knn(params, Xq))
    # the ties leave many rows open, and each is ranked among the training
    # rows at or near its k-th distance, not among all of them
    n_open = sum(len(q) for q, _ in calls)
    assert n_open > len(Xq) // 4
    pairs = sum(np.count_nonzero(cand) for _, cand in calls)
    assert pairs < 0.25 * n_open * len(X)


@settings(max_examples=150, deadline=None)
@given(d=st.sampled_from([1, 2, 5, 9]),
       n_train=st.integers(5, 30),
       k=st.sampled_from([1, 3]),
       query_scale=st.sampled_from([1e-8, 1e-7, 1e-6]),
       opposite=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_knn_filter_matches_per_row_oracle_on_a_thin_shell(
        d, n_train, k, query_scale, opposite, seed):
    # training rows on a shell of radius 1 and width ~1e-7, queries near
    # its centre: the float32 rounding of ||t||^2 (relative to the
    # distance, not to ||q||) can reorder the training rows, so the bound
    # must grow with the k-th distance; with each row followed by its
    # opposite, the shell's mean, where the filter centres rows, is its
    # centre, so the queries stay near the centre after the shift
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_train, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    X *= 1 + 1e-7 * rng.standard_normal((n_train, 1))
    if opposite:
        X = np.stack([X, -X], axis=1).reshape(-1, d)
    Xq = query_scale * rng.standard_normal((60, d))
    params = {"X": X, "y": rng.integers(0, 2, len(X)).astype(float),
              "k": k}
    assert np.array_equal(learners._score_knn(params, Xq),
                          oracles.score_knn(params, Xq))


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2, 5]),
       n_train=st.integers(5, 40),
       k=st.sampled_from(["1", "3", "n_train"]),
       n_query=st.integers(1, 150),
       seed=st.integers(0, 2**32 - 1))
def test_knn_scores_do_not_depend_on_chunk_size(d, n_train, k, n_query,
                                                seed):
    # integer-grid rows with repeats: many distances tie at the k-th place
    rng = np.random.default_rng(seed)
    X = rng.integers(-2, 3, (n_train, d)).astype(float)
    X = X[rng.integers(0, n_train, n_train)]
    Xq = rng.integers(-3, 4, (n_query, d)).astype(float)
    k = n_train if k == "n_train" else int(k)
    params = {"X": X, "y": rng.integers(0, 2, n_train).astype(float),
              "k": k}
    expected = oracles.score_knn(params, Xq)
    # one element, one training set (both one row per chunk), seven
    # training sets, the default and more rows than the queries
    for elems in (1, X.size, 7 * X.size, learners._KNN_CHUNK_ELEMS,
                  (n_query + 1) * X.size):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(learners, "_KNN_CHUNK_ELEMS", elems)
            assert np.array_equal(learners._score_knn(params, Xq), expected)


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2, 5]),
       n_train=st.sampled_from([5, 60, 1100]),
       k=st.sampled_from(["1", "5", "n_train"]),
       rows=st.sampled_from(["grid", "normal"]),
       seed=st.integers(0, 2**32 - 1))
def test_knn_filter_matches_per_row_oracle_on_small_and_large_training_sets(
        d, n_train, k, rows, seed):
    # on an integer grid many distances tie at the k-th place, and on
    # normal rows the filter decides queries
    rng = np.random.default_rng(seed)
    if rows == "grid":
        X = rng.integers(-2, 3, (n_train, d)).astype(float)
        X = X[rng.integers(0, n_train, n_train)]
        Xq = rng.integers(-3, 4, (80, d)).astype(float)
    else:
        X = rng.standard_normal((n_train, d))
        Xq = rng.standard_normal((80, d))
    k = n_train if k == "n_train" else int(k)
    params = {"X": X, "y": rng.integers(0, 2, n_train).astype(float),
              "k": k}
    with pytest.MonkeyPatch.context() as mp:
        calls = _record_exact_step(mp)
        scores = learners._score_knn(params, Xq)
    assert np.array_equal(scores, oracles.score_knn(params, Xq))
    if rows == "normal":
        assert sum(len(q) for q, _ in calls) < len(Xq)


def test_knn_filter_leaves_very_wide_rows_to_the_exact_step(monkeypatch):
    # the filter's bound holds below 8190 features; these rows, whose
    # second and third neighbours lie far apart, the filter decides at
    # 8189, and at 8190 every row reaches the exact step with every
    # training row as a candidate
    calls = _record_exact_step(monkeypatch)
    rng = np.random.default_rng(4)
    for d in (8189, 8190):
        params = {"X": np.outer([0.0, 10.0, 100.0], np.ones(d)),
                  "y": np.array([0.0, 1.0, 1.0]), "k": 2}
        Xq = 0.01 * rng.standard_normal((4, d))
        calls.clear()
        scores = learners._score_knn(params, Xq)
        assert np.array_equal(scores, oracles.score_knn(params, Xq))
        if d == 8189:
            assert not calls
    assert sum(len(q) for q, _ in calls) == len(Xq)
    assert all(cand.all() for _, cand in calls)


def test_knn_exact_step_ranks_few_candidates_on_dense_training_rows(
        monkeypatch):
    # 2000 training rows on one feature: float32 cannot separate the k-th
    # from the next distance for many query rows, but each such row's
    # candidates are a few rows around its k-th place, not the training set
    rng = np.random.default_rng(5)
    params = {"X": rng.standard_normal((2000, 1)),
              "y": rng.integers(0, 2, 2000).astype(float), "k": 5}
    Xq = rng.standard_normal((600, 1))
    calls = _record_exact_step(monkeypatch)
    scores = learners._score_knn(params, Xq)
    monkeypatch.undo()
    assert np.array_equal(scores, oracles.score_knn(params, Xq))
    n_open = sum(len(q) for q, _ in calls)
    assert n_open > 0
    pairs = sum(np.count_nonzero(cand) for _, cand in calls)
    assert pairs <= 3 * params["k"] * n_open


def test_knn_filter_decides_almost_every_standard_normal_row(monkeypatch):
    # the decomposition benchmark's shape: 100 training rows, 5 features,
    # k = 5
    rng = np.random.default_rng(3)
    params = {"X": rng.standard_normal((100, 5)),
              "y": rng.integers(0, 2, 100).astype(float), "k": 5}
    Xq = rng.standard_normal((6000, 5))
    calls = _record_exact_step(monkeypatch)
    scores = learners._score_knn(params, Xq)
    assert np.array_equal(scores, oracles.score_knn(params, Xq))
    assert sum(len(q) for q, _ in calls) < 0.01 * len(Xq)


def _load_outcome(load, path, schema):
    """The loaded Dataset's fields as bytes, or the error's type and text."""
    try:
        ds = load(path, schema)
    except FairsampleError as exc:
        return type(exc), str(exc)
    return ([(arr.dtype, arr.shape, arr.tobytes())
             for arr in (ds.X, ds.y, ds.a, ds.row_ids)], ds.feature_names)


# valid numeric cells, padded as float() or only str.strip() accepts them
_NUMBERS = st.tuples(
    st.sampled_from(["", " ", "\t", "\x1c", "\u2002"]),
    st.one_of(st.floats(-1e6, 1e6).map(repr),
              st.integers(-50, 50).map(str),
              st.sampled_from(["1_0", "+.5", "-0", "1e-400",
                               "\u0661\u0662"])),
    st.sampled_from(["", " ", "\x1c"])).map("".join)
_WORDS = st.sampled_from(["a", "b", " a", "b\t", "c,d", "line\nbreak", '"q"'])
_FAULTS = ["", " ", "oops", "inf", "-nan", "1e400", "\x1c", "z", "short"]


@st.composite
def csv_files(draw):
    """(block rows, CSV text, schema): numeric and categorical features,
    padded and quoted cells, runs of blank lines, and up to four faults
    (an empty, unparsable, non-finite or third-level cell, or a short
    row) at drawn rows and columns; the text may start with a byte-order
    mark, and the spare column may repeat a schema column's name."""
    block = draw(st.integers(1, 4))
    task = draw(st.sampled_from(["classification", "regression"]))
    kinds = draw(st.lists(st.sampled_from(["numeric", "categorical"]),
                          min_size=1, max_size=3))
    features = tuple((f"f{j}", kind) for j, kind in enumerate(kinds))
    header = draw(st.permutations(
        ["label", "sex", "spare"] + [name for name, _ in features]))
    if draw(st.integers(0, 3)) == 0:
        header[header.index("spare")] = draw(st.sampled_from(
            [h for h in header if h != "spare"]))
    cells = {"sex": st.sampled_from(["m", "f", " m", "f\t"]),
             "label": (st.sampled_from(["yes", "no", "yes "])
                       if task == "classification" else _NUMBERS),
             "spare": st.sampled_from(["", "x", "1,2"])}
    for name, kind in features:
        cells[name] = _NUMBERS if kind == "numeric" else _WORDS
    n = draw(st.integers(2, 4 * block + 2))
    rows = [[draw(cells[h]) for h in header] for _ in range(n)]
    # both groups and both labels appear, at drawn rows
    for name, levels in (("sex", ("m", "f")), ("label", ("yes", "no"))):
        if name == "sex" or task == "classification":
            first = draw(st.integers(0, n - 1))
            second = draw(st.integers(0, n - 2))
            rows[first][header.index(name)] = levels[0]
            rows[second + (second >= first)][header.index(name)] = levels[1]
    need = 1 + max(i for i, h in enumerate(header) if h != "spare")
    for _ in range(draw(st.integers(0, 4))):
        fault = draw(st.sampled_from(_FAULTS))
        r = draw(st.integers(0, n - 1))
        if fault == "short":
            rows[r] = rows[r][:draw(st.integers(1, need - 1))]
        else:
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = fault
    out = io.StringIO()
    out.write(draw(st.sampled_from(["", "\ufeff"])))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    blanks = dict(draw(st.lists(st.tuples(st.integers(0, n),
                                          st.integers(1, 2 * block + 1)),
                                max_size=3)))
    for r, row in enumerate(rows + [None]):
        out.write("\n" * blanks.get(r, 0))
        if row is not None:
            writer.writerow(row)
    schema = Schema(target="label", sensitive="sex", privileged_value="m",
                    features=features, task=task,
                    positive_label="yes" if task == "classification" else "")
    return block, out.getvalue(), schema


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=csv_files())
# an empty cell in a later block outranks an unparsable one
@example(case=(2, "label,sex,f0\nyes,m,oops\nno,f,1\nyes,f,2\nno,m, \n",
               Schema(target="label", sensitive="sex", privileged_value="m",
                      features=(("f0", "numeric"),), positive_label="yes")))
def test_load_csv_in_blocks_matches_whole_table_oracle(tmp_path, case):
    block, text, schema = case
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    with mock.patch.object(dataset, "_BLOCK_ROWS", block):
        got = _load_outcome(dataset.load_csv, path, schema)
    assert got == _load_outcome(oracles.load_csv, path, schema)


@pytest.mark.parametrize("text", [
    "",
    "label,sex,f0\n",
    "label,sex,f0\n" + "\n" * 5,
    "label,sex,f0\nyes,m,1\n\n\n\n\nno,m,2\n",
    "label,sex\nyes,m\nno,f\n",
])
def test_load_csv_edge_files_match_oracle(tmp_path, text):
    # empty, header only, blank lines only (more than a block), one group
    # only, and a missing column
    schema = Schema(target="label", sensitive="sex", privileged_value="m",
                    features=(("f0", "numeric"),), positive_label="yes")
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    with mock.patch.object(dataset, "_BLOCK_ROWS", 2):
        got = _load_outcome(dataset.load_csv, path, schema)
    assert got == _load_outcome(oracles.load_csv, path, schema)
    assert got[0] is DataError


def test_load_csv_at_default_block_size_matches_oracle(tmp_path):
    # a synthetic CSV several blocks long, with blank lines and one
    # unparsable cell past the first block
    ds = generate(SynthSpec(n=3 * dataset._BLOCK_ROWS + 100, d=3,
                            group1_share=0.3, seed=8))
    csv_path, schema_path = tmp_path / "data.csv", tmp_path / "schema.json"
    write_synth_csv(ds, csv_path, schema_path)
    schema = Schema.from_json(schema_path)
    expected = _load_outcome(oracles.load_csv, csv_path, schema)
    assert _load_outcome(dataset.load_csv, csv_path, schema) == expected
    lines = csv_path.read_text(encoding="utf-8").split("\n")
    row = 2 * dataset._BLOCK_ROWS + 7
    fields = lines[row].split(",")
    fields[2] = "oops"
    lines[row] = ",".join(fields)
    lines[5:5] = [""] * (dataset._BLOCK_ROWS + 1)
    csv_path.write_text("\n".join(lines), encoding="utf-8")
    expected = _load_outcome(oracles.load_csv, csv_path, schema)
    assert expected == (DataError, f"unparsable numeric cell 'oops' in "
                                   f"column 'x0', row {row}")
    assert _load_outcome(dataset.load_csv, csv_path, schema) == expected


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 150),
       task=st.sampled_from(["classification", "regression"]),
       group1_share=st.sampled_from([0.0, 0.02, 0.3, 0.5, 1.0]),
       test_fraction=st.floats(0.01, 0.99),
       seed=st.integers(0, 2**32 - 1))
def test_holdout_split_matches_per_row_oracle(n, task, group1_share,
                                              test_fraction, seed):
    rng = np.random.default_rng(seed)
    a = (rng.random(n) < group1_share).astype(int)
    if task == "classification":
        y = rng.integers(0, 2, n).astype(float)
    else:
        y = rng.standard_normal(n)
    ds = Dataset(rng.standard_normal((n, 2)), y, a, np.arange(n), task=task)

    def split(f):
        try:
            return [part.row_ids for part in f(ds, test_fraction, seed)]
        except DataError as exc:
            return str(exc)

    got, expected = split(holdout_split), split(oracles.holdout_split)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert all(np.array_equal(g, e) and g.dtype == e.dtype
                   for g, e in zip(got, expected))


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 4),
       n_train=st.integers(2, 80),
       max_depth=st.integers(1, 8),
       min_leaf=st.integers(1, 5),
       levels=st.integers(1, 4),
       single_class=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_tree_predict_matches_per_row_oracle(d, n_train, max_depth, min_leaf,
                                             levels, single_class, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(-levels, levels + 1, (n_train, d)).astype(float)
    y = rng.integers(0, 2, n_train).astype(float)
    if single_class:
        y[:] = y[0]
    learner = Learner("decision_tree", max_depth=max_depth,
                      min_leaf=min_leaf)
    model = fit(learner, Dataset(X, y, np.zeros(n_train, dtype=int),
                                 np.arange(n_train)))
    # halves of the grid: thresholds are midpoints of grid values, so
    # queries land exactly on them as well as on both sides
    Xq = rng.integers(-2 * levels - 2, 2 * levels + 3, (50, d)) / 2.0
    scores, labels = model.predict(Xq)
    expected = oracles.score_tree(oracles.fit_tree(learner, X, y), Xq)
    assert np.array_equal(scores, expected)
    assert np.array_equal(labels, (expected >= 0.5).astype(float))
    if "constant" in model.params:
        return
    # preorder node arrays: exactly the leaves point to themselves, an
    # internal node's left child is the next node, and height is the
    # deepest leaf's depth
    p = model.params
    nodes = np.arange(len(p["value"]))
    leaf = (p["left"] == nodes) & (p["right"] == nodes)
    assert np.all((p["left"] == nodes) == leaf)
    assert np.all((p["right"] == nodes) == leaf)
    assert np.array_equal(p["left"][~leaf], nodes[~leaf] + 1)
    depth = np.zeros(len(nodes), dtype=int)
    for i in nodes[~leaf]:
        depth[[p["left"][i], p["right"][i]]] = depth[i] + 1
    assert p["height"] == depth[leaf].max()


@st.composite
def zero_one_ensembles(draw):
    k = draw(st.integers(1, 8))
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, (k, n)).astype(float)
    # scores at 0.5 make majority-vote ties (even K) land on both sides
    scores = rng.choice([0.1, 0.5, 0.9], (k, n))
    y = rng.integers(0, 2, n).astype(float)
    a = rng.integers(0, 2, n)
    # empty conditioning subsets: one outcome or one group missing
    y_only = draw(st.sampled_from([None, 0.0, 1.0]))
    if y_only is not None:
        y[:] = y_only
    a_only = draw(st.sampled_from([None, 0, 1]))
    if a_only is not None:
        a[:] = a_only
    return PredictionEnsemble(scores, labels, y, a, "zero_one")


def _is_exact(report, fields):
    return all(v is None or isinstance(v, Fraction)
               for v in (getattr(report, f) for f in fields))


@settings(max_examples=300, deadline=None)
@given(ens=zero_one_ensembles())
def test_zero_one_decomposition_matches_per_point_oracle(ens):
    # each point's mean loss is the share of models whose label differs
    # from its outcome, and its bias plus net_factor times its variance
    pts = oracles.decompose_points(ens)
    for i in range(ens.n):
        loss = Fraction(sum(int(label != ens.eval_y[i])
                            for label in ens.labels[:, i]), ens.k)
        assert pts.mean_loss[i] == loss
        assert pts.bias[i] + pts.net_factor[i] * pts.variance[i] == loss
    terms = ("bias_a0", "net_variance_a0", "bias_a1", "net_variance_a1")
    for metric in ("ZOL", "FPR", "EO"):
        rep = decompose_costs(ens, ensemble_costs(ens, (metric,)))[metric]
        assert rep == oracles.decompose_cost(ens, metric)
        assert _is_exact(rep, terms)
    if all(np.any(ens.eval_a == g) for g in (0, 1)):
        rep = sd_bounds(ens)
        assert rep == oracles.sd_bounds(ens)
        assert _is_exact(rep, terms + ("observed", "upper", "lower"))
    else:
        with pytest.raises(DataError, match="empty group"):
            sd_bounds(ens)


@settings(max_examples=300, deadline=None)
@given(ens=zero_one_ensembles())
def test_decompose_costs_matches_per_metric_oracle(ens):
    # one count table serves all three metrics, empty denominators too
    metrics = ("ZOL", "FPR", "EO")
    reports = decompose_costs(ens, ensemble_costs(ens, metrics))
    assert list(reports) == list(metrics)
    for metric in metrics:
        assert reports[metric] == oracles.decompose_cost(ens, metric)


@settings(max_examples=300, deadline=None)
@given(target=zero_one_ensembles(), other=zero_one_ensembles())
def test_zero_one_gap_terms_are_the_estimators_gaps(target, other):
    # the reference reuses other's models on the target's evaluation set
    cols = np.arange(target.n) % other.n
    ref = PredictionEnsemble(other.scores[:, cols], other.labels[:, cols],
                             target.eval_y, target.eval_a, "zero_one")

    def disc(ens, metric, estimator):
        row = 0 if estimator == "main_prediction" else 1
        return ensemble_costs(ens, (metric,))[metric][row].mean_disc()

    for metric in ("ZOL", "FPR", "EO"):
        gap = bias_gap(*(decompose_costs(ens, ensemble_costs(ens, (metric,)))
                         [metric] for ens in (target, ref)))
        main_t, mean_t = (disc(target, metric, e)
                          for e in ("main_prediction", "mean_over_models"))
        main_r, mean_r = (disc(ref, metric, e)
                          for e in ("main_prediction", "mean_over_models"))
        if gap.bias_diff is None:  # a group's conditioning set is empty
            assert (gap.cost_disc is main_t is main_r is mean_t is mean_r
                    is None)
            continue
        assert gap.cost_sign * gap.bias_diff == main_t - main_r
        assert gap.cost_disc == mean_t - mean_r


def test_empty_conditioning_subset_gives_none():
    ens = PredictionEnsemble(np.full((2, 3), 0.9), np.ones((2, 3)),
                             np.zeros(3), np.array([0, 1, 1]), "zero_one")
    rep = decompose_costs(ens, ensemble_costs(ens, ("EO",)))["EO"]
    assert rep == oracles.decompose_cost(ens, "EO")
    assert rep.bias_a0 is None and rep.net_variance_a1 is None
    assert decompose_costs(ens, ensemble_costs(ens, ("FPR",)))[
        "FPR"].bias_a1 == 1


@pytest.mark.parametrize("with_replacement", [False, True])
@pytest.mark.parametrize("family, share, kw", [
    # n1 = 0 in the grid: the growing pool's draw is empty
    ("collect", 0.3, {"variant": "minority_random"}),
    ("collect", 0.3, {"variant": "majority_random"}),
    ("collect", 0.3, {"variant": "minority_positive_only"}),
    # fixed_majority 0: the fixed group's empty draw comes first
    ("collect", 0.3, {"variant": "minority_random", "fixed_majority": 0,
                      "grid": (1, 3, 20)}),
    ("collect", 0.3, {"variant": "majority_random", "fixed_majority": 0,
                      "grid": (1, 3, 20)}),
    # m=1 draws (1, 0) rows from (a0, a1) at a 30% a1 share, (0, 1) at 60%
    ("ssb_size", 0.3, {"grid": (1, 10, 100)}),
    ("ssb_size", 0.6, {"grid": (1, 10, 100)}),
    ("urb_ratio", 0.3, {"grid": (0.1, 0.5, 0.9), "total_m": 60}),
])
def test_sweep_draws_match_family_samplers(family, share, kw,
                                           with_replacement):
    # every cell's K draws are the rows, in the order, that the sampler
    # its family used before all families shared one draw primitive gives;
    # that sampler skipped an empty group where the primitive draws 0 rows,
    # which holds only while a 0-row Generator.choice consumes no state
    ds = generate(SynthSpec(n=600, d=2, group1_share=share, seed=41))
    spec = SweepSpec(family=family, replicates=4, seed=41,
                     with_replacement=with_replacement,
                     **{"grid": (0, 3, 20), "fixed_majority": 40, **kw})
    plan = experiments._resolve(ds, spec)
    if family == "collect":
        oracle = oracles._collect_sampler(plan.pool, spec, max(plan.grid))
    else:
        def oracle(cell, rep):
            m0, m1 = cell.counts
            return oracles._draw(plan.pool, spec, SimpleNamespace(
                m0=m0, m1=m1, seed=cell.seed), rep)
    for cell in plan.cells.values():
        draws = experiments._draws(cell, spec, plan)
        assert len(draws) == spec.replicates
        for rep, drawn in enumerate(draws):
            assert drawn.n == sum(cell.counts)
            assert np.array_equal(drawn.row_ids, oracle(cell, rep).row_ids)


def _sweep_csv_bytes(run, ds, spec, path):
    """The bytes of the sweep's sweep.csv and bias_estimates.csv."""
    result = run(ds, spec)
    result.write_csv(path)
    bias_path = path.with_name("bias_estimates.csv")
    result.write_bias_csv(bias_path)
    return path.read_bytes() + bias_path.read_bytes()


def _swap_in_logreg_oracles(monkeypatch):
    monkeypatch.setitem(learners._FITTERS, "logistic_regression",
                        oracles.fit_logreg_each)
    monkeypatch.setitem(learners._SCORERS, "logistic_regression",
                        oracles.score_logreg)


@pytest.mark.parametrize("learning_rate", [0.1, 5.0])
def test_logreg_ssb_sweep_matches_oracle_bytewise(tmp_path, monkeypatch,
                                                  learning_rate):
    # m=6 at a 10% positive rate gives single-class draws in the batch; at
    # learning rate 5 most rounds leave a step open, inside batches of
    # several sizes and across compaction
    ds = generate(SynthSpec(n=1500, d=3, group1_share=0.3, seed=5,
                            intercept_a0=-2.5, intercept_a1=-2.0))
    spec = SweepSpec(family="ssb_size", grid=(6, 30, 120), replicates=5,
                     seed=5, metrics=("FPR", "EO", "AUC"),
                     learner=Learner(learning_rate=learning_rate))
    path = tmp_path / "sweep.csv"
    before = _sweep_csv_bytes(run_ssb_sweep, ds, spec, path)
    _swap_in_logreg_oracles(monkeypatch)
    assert _sweep_csv_bytes(run_ssb_sweep, ds, spec, path) == before


def test_logreg_urb_sweep_matches_oracle_bytewise(tmp_path, monkeypatch):
    ds = generate(SynthSpec(n=1500, d=3, group1_share=0.3, seed=8))
    spec = SweepSpec(family="urb_ratio", grid=(0.1, 0.5, 0.9), total_m=80,
                     replicates=4, seed=8, metrics=("SD", "EO", "AUC"))
    path = tmp_path / "sweep.csv"
    before = _sweep_csv_bytes(run_urb_sweep, ds, spec, path)
    _swap_in_logreg_oracles(monkeypatch)
    assert _sweep_csv_bytes(run_urb_sweep, ds, spec, path) == before


def test_logreg_urb_decomposition_sweep_matches_oracle_bytewise(
        tmp_path, monkeypatch):
    ds = generate(SynthSpec(n=1500, d=3, group1_share=0.3, seed=6))
    spec = SweepSpec(family="decomposition", decomp_kind="urb", total_m=80,
                     grid=(0.1, 0.5), replicates=4, seed=6,
                     metrics=("ZOL", "FPR", "EO"))
    path = tmp_path / "sweep.csv"
    before = _sweep_csv_bytes(run_decomposition_sweep, ds, spec, path)
    _swap_in_logreg_oracles(monkeypatch)
    assert _sweep_csv_bytes(run_decomposition_sweep, ds, spec, path) == before


def test_knn_urb_decomposition_sweep_matches_oracles_bytewise(
        tmp_path, monkeypatch):
    ds = generate(SynthSpec(n=1500, d=3, group1_share=0.3, seed=5))
    spec = SweepSpec(family="decomposition", decomp_kind="urb", total_m=80,
                     grid=(0.1, 0.5), replicates=4, seed=5,
                     metrics=("ZOL", "FPR", "EO"),
                     learner=Learner("knn", k=5))
    path = tmp_path / "sweep.csv"
    before = _sweep_csv_bytes(run_decomposition_sweep, ds, spec, path)
    monkeypatch.setitem(learners._SCORERS, "knn", oracles.score_knn)
    monkeypatch.setattr(experiments, "decompose_costs",
                        oracles.decompose_costs)
    assert _sweep_csv_bytes(run_decomposition_sweep, ds, spec, path) == before


@pytest.mark.parametrize("kind, grid", [("ssb", (10, 40, 160)),
                                        ("urb", (0.1, 0.5, 0.9))])
def test_ols_mse_decomposition_sweep_matches_oracle_bytewise(
        tmp_path, monkeypatch, kind, grid):
    # the per-point squared-loss terms, averaged one group at a time
    ds = generate(SynthSpec(n=1500, d=3, group1_share=0.3, seed=13,
                            task="regression"))
    spec = SweepSpec(family="decomposition", decomp_kind=kind, grid=grid,
                     total_m=120, replicates=4, seed=13,
                     learner=Learner("linear_regression"))
    path = tmp_path / "sweep.csv"
    before = _sweep_csv_bytes(run_decomposition_sweep, ds, spec, path)
    monkeypatch.setattr(experiments, "decompose_costs",
                        oracles.decompose_costs)
    assert _sweep_csv_bytes(run_decomposition_sweep, ds, spec, path) == before


@pytest.mark.parametrize("family, estimator, main_row", [
    ("decomposition", "mean_over_models", 1),
    ("urb_ratio", "main_prediction", 1),
    ("urb_ratio", "mean_over_models", 0),
])
def test_each_distinct_cell_builds_one_count_table(monkeypatch, family,
                                                   estimator, main_row):
    # the decomposition benchmark's shape: four ratios plus the population
    # split at total_m=100, kNN k=5, ZOL/FPR/EO, K=5; 0.2 and 0.201 draw
    # the same counts, so they share one cell and one ensemble.  Each of
    # the 5 cells is counted once, engine-wide: its K models, under the
    # main prediction as row 0 where the family reads it
    ds = generate(SynthSpec(n=3000, d=5, group1_share=0.3, seed=1))
    spec = SweepSpec(family=family, decomp_kind="urb", total_m=100,
                     grid=(0.05, 0.1, 0.2, 0.201, 0.5), replicates=5, seed=1,
                     metrics=("ZOL", "FPR", "EO"), estimator=estimator,
                     learner=Learner("knn", k=5))
    tables = []
    counts = group_metrics.confusion_counts

    def record(*args):
        tables.append(counts(*args))
        return tables[-1]

    monkeypatch.setattr(group_metrics, "confusion_counts", record)
    run = {"decomposition": run_decomposition_sweep,
           "urb_ratio": run_urb_sweep}[family]
    result = run(ds, spec)
    assert len(result.grid) == 6
    assert [len(t) for t in tables] == [spec.replicates + main_row] * 5


def test_tree_collect_sweep_matches_oracle_bytewise(tmp_path, monkeypatch):
    ds = generate(SynthSpec(n=1500, d=3, group1_share=0.3, seed=5))
    spec = SweepSpec(family="collect", grid=(2, 10, 40), replicates=3,
                     seed=5, fixed_majority=60,
                     learner=Learner("decision_tree", min_leaf=2))
    path = tmp_path / "sweep.csv"
    before = _sweep_csv_bytes(run_collect_sim, ds, spec, path)
    monkeypatch.setitem(learners._FITTERS, "decision_tree",
                        oracles.fit_tree_each)
    monkeypatch.setitem(learners._SCORERS, "decision_tree",
                        oracles.score_tree)
    assert _sweep_csv_bytes(run_collect_sim, ds, spec, path) == before


@pytest.mark.parametrize("use_cv", [False, True])
def test_logreg_collect_sweep_matches_oracle_bytewise(tmp_path, monkeypatch,
                                                      use_cv):
    # a cell's draws, or under CV every fold of every draw, are fitted
    # together
    ds = generate(SynthSpec(n=1500, d=3, group1_share=0.3, seed=7))
    spec = SweepSpec(family="collect", grid=(2, 10, 40), replicates=4,
                     seed=7, fixed_majority=60, use_cv=use_cv,
                     metrics=("EO", "SD", "ZOL"))
    path = tmp_path / "sweep.csv"
    before = _sweep_csv_bytes(run_collect_sim, ds, spec, path)
    _swap_in_logreg_oracles(monkeypatch)
    assert _sweep_csv_bytes(run_collect_sim, ds, spec, path) == before


def _swap_in_metric_oracles(monkeypatch):
    """Every per-model metric value from oracle_metrics, one model and one
    group at a time (holdouts stay under its 500-row cap)."""
    for module in (group_metrics, experiments):
        monkeypatch.setattr(module, "model_costs", oracles.oracle_model_costs)


@pytest.mark.parametrize("estimator", ["mean_over_models", "main_prediction"])
def test_ssb_sweep_matches_metric_oracle_bytewise(tmp_path, monkeypatch,
                                                  estimator):
    ds = generate(SynthSpec(n=1500, d=3, group1_share=0.3, seed=9,
                            intercept_a1=-1.0))
    spec = SweepSpec(family="ssb_size", grid=(6, 30, 120), replicates=4,
                     seed=9, estimator=estimator,
                     metrics=("FPR", "FNR", "EO", "ZOL", "SD", "AUC"))
    path = tmp_path / "sweep.csv"
    before = _sweep_csv_bytes(run_ssb_sweep, ds, spec, path)
    _swap_in_metric_oracles(monkeypatch)
    assert _sweep_csv_bytes(run_ssb_sweep, ds, spec, path) == before


def test_urb_decomposition_sweep_matches_metric_oracle_bytewise(
        tmp_path, monkeypatch):
    ds = generate(SynthSpec(n=1500, d=3, group1_share=0.3, seed=10))
    spec = SweepSpec(family="decomposition", decomp_kind="urb", total_m=80,
                     grid=(0.1, 0.5), replicates=4, seed=10,
                     learner=Learner("knn", k=5))
    path = tmp_path / "sweep.csv"
    before = _sweep_csv_bytes(run_decomposition_sweep, ds, spec, path)
    _swap_in_metric_oracles(monkeypatch)
    assert _sweep_csv_bytes(run_decomposition_sweep, ds, spec, path) == before


def test_cv_collect_sweep_matches_metric_oracle_bytewise(tmp_path,
                                                         monkeypatch):
    ds = generate(SynthSpec(n=1500, d=3, group1_share=0.3, seed=11))
    spec = SweepSpec(family="collect", grid=(4, 20), replicates=3, seed=11,
                     fixed_majority=30, use_cv=True,
                     learner=Learner("decision_tree", min_leaf=2),
                     metrics=("FPR", "FNR", "EO", "ZOL", "SD", "AUC"))
    path = tmp_path / "sweep.csv"
    before = _sweep_csv_bytes(run_collect_sim, ds, spec, path)
    _swap_in_metric_oracles(monkeypatch)
    assert _sweep_csv_bytes(run_collect_sim, ds, spec, path) == before


def test_ols_ssb_sweep_matches_metric_oracle_bytewise(tmp_path, monkeypatch):
    ds = generate(SynthSpec(n=1500, d=3, group1_share=0.3, seed=12,
                            task="regression"))
    spec = SweepSpec(family="ssb_size", grid=(10, 40, 160), replicates=4,
                     seed=12, learner=Learner("linear_regression"))
    path = tmp_path / "sweep.csv"
    before = _sweep_csv_bytes(run_ssb_sweep, ds, spec, path)
    _swap_in_metric_oracles(monkeypatch)
    assert _sweep_csv_bytes(run_ssb_sweep, ds, spec, path) == before
