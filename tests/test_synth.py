import numpy as np
import pytest

from fairsample import (ConfigError, Learner, SynthSpec, fit, generate,
                        load_csv, population_ratio)
from fairsample.dataset import Schema
from fairsample.synth import write_csv


def test_generate_deterministic():
    spec = SynthSpec(n=200, d=3, group1_share=0.4, seed=9)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.a, b.a)


def test_group_share_concentrates():
    spec = SynthSpec(n=10000, d=2, group1_share=0.31, seed=1)
    ds = generate(spec)
    assert abs(population_ratio(ds) - 0.31) < 0.01


def test_null_construction_symmetric():
    # no shift, shared intercept: the two groups follow the same law
    spec = SynthSpec(n=5000, d=2, group1_share=0.5, seed=2)
    ds = generate(spec)
    rate0 = ds.y[ds.a == 0].mean()
    rate1 = ds.y[ds.a == 1].mean()
    assert abs(rate0 - rate1) < 0.05


def test_mean_shift_moves_group1_features():
    spec = SynthSpec(n=4000, d=2, group1_share=0.5, seed=3,
                     mean_shift=(1.5, 0.0))
    ds = generate(spec)
    gap0 = ds.X[ds.a == 1, 0].mean() - ds.X[ds.a == 0, 0].mean()
    gap1 = ds.X[ds.a == 1, 1].mean() - ds.X[ds.a == 0, 1].mean()
    assert abs(gap0 - 1.5) < 0.1
    assert abs(gap1) < 0.1


def test_intercept_shift_moves_positive_rate():
    base = SynthSpec(n=6000, d=2, group1_share=0.5, seed=4)
    shifted = SynthSpec(n=6000, d=2, group1_share=0.5, seed=4,
                        intercept_a1=2.0)
    r_base = generate(base)
    r_shift = generate(shifted)
    assert r_shift.y[r_shift.a == 1].mean() > r_base.y[r_base.a == 1].mean() \
        + 0.2


def test_noiseless_regression_is_exactly_linear():
    spec = SynthSpec(n=300, d=3, group1_share=0.5, seed=5, task="regression",
                     coef=(1.0, -2.0, 0.5), noise_sd=0.0)
    ds = generate(spec)
    expected = ds.X @ np.array([1.0, -2.0, 0.5])
    assert np.allclose(ds.y, expected, atol=1e-12)
    # an OLS fit recovers the coefficients
    model = fit(Learner("linear_regression"), ds)
    assert np.allclose(model.params["w"][:3], [1.0, -2.0, 0.5], atol=1e-6)


def test_spec_validation():
    with pytest.raises(ConfigError):
        SynthSpec(n=2, d=1, group1_share=0.5, seed=0)
    with pytest.raises(ConfigError):
        SynthSpec(n=100, d=2, group1_share=0.0, seed=0)
    with pytest.raises(ConfigError):
        SynthSpec(n=100, d=2, group1_share=0.5, seed=0, mean_shift=(1.0,))
    with pytest.raises(ConfigError):
        SynthSpec(n=100, d=2, group1_share=0.5, seed=0, noise_sd=-1.0)
    with pytest.raises(ConfigError):
        SynthSpec(n=100, d=2, group1_share=0.5, seed=0, task="ranking")
    for field, value in (("n", 100.5), ("d", float("nan")), ("seed", 1.5)):
        spec = dict(n=100, d=2, group1_share=0.5, seed=0)
        spec[field] = value
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            SynthSpec(**spec)
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        SynthSpec(n=100, d=2, group1_share=0.5, seed=-1)
    nan, inf = float("nan"), float("inf")
    for field, value in (("group1_share", nan), ("intercept_a0", inf),
                         ("intercept_a1", nan), ("noise_sd", nan),
                         ("noise_sd", inf), ("mean_shift", (inf, 0.0)),
                         ("coef", (nan, 1.0))):
        spec = dict(n=100, d=2, group1_share=0.5, seed=0)
        spec[field] = value
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            SynthSpec(**spec)
    SynthSpec(n=np.int64(100), d=np.int32(2), group1_share=0.5,
              seed=np.uint64(3))
    for field, value, message in (
            ("noise_sd", -1.0, "noise_sd must be >= 0"),
            ("coef", (1.0,), "coef length must equal d"),
            ("group1_share", 0.01, "expected protected-group count below 2")):
        spec = dict(n=100, d=2, group1_share=0.5, seed=0)
        spec[field] = value
        with pytest.raises(ConfigError, match=message):
            SynthSpec(**spec)
    # four rows that all fall in one group
    with pytest.raises(ConfigError, match="degenerate draw"):
        generate(SynthSpec(n=4, d=1, group1_share=0.5, seed=0))


def test_write_csv_roundtrip(tmp_path):
    spec = SynthSpec(n=150, d=2, group1_share=0.4, seed=6)
    ds = generate(spec)
    csv_path = tmp_path / "data.csv"
    schema_path = tmp_path / "schema.json"
    write_csv(ds, str(csv_path), str(schema_path))
    schema = Schema.from_json(str(schema_path))
    loaded = load_csv(str(csv_path), schema)
    assert loaded.n == ds.n
    assert np.array_equal(loaded.y, ds.y)
    assert np.array_equal(loaded.a, ds.a)
    # loader standardizes, so compare after standardizing the original
    for j in range(ds.X.shape[1]):
        col = ds.X[:, j]
        std = (col - col.mean()) / col.std(ddof=1)
        assert np.allclose(loaded.X[:, j], std, atol=1e-10)


def test_regression_roundtrip(tmp_path):
    spec = SynthSpec(n=80, d=1, group1_share=0.5, seed=7, task="regression",
                     noise_sd=0.3)
    ds = generate(spec)
    write_csv(ds, str(tmp_path / "r.csv"), str(tmp_path / "r.json"))
    schema = Schema.from_json(str(tmp_path / "r.json"))
    loaded = load_csv(str(tmp_path / "r.csv"), schema)
    assert loaded.task == "regression"
    assert np.allclose(loaded.y, ds.y, atol=1e-12)
