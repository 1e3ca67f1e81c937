import dataclasses
import re
import statistics

import numpy as np
import pytest

from fairsample import (ConfigError, DataError, Dataset, Schema, SweepSpec,
                        SynthSpec, draw_from_pools, generate, holdout_split,
                        load_csv, population_ratio, run_collect_sim)
from fairsample.dataset import can_draw


def write_csv(path, header, rows):
    path.write_text("\n".join([",".join(header)] +
                              [",".join(map(str, r)) for r in rows]) + "\n")
    return str(path)


BASIC_SCHEMA = Schema(
    target="label", positive_label="yes", sensitive="sex",
    privileged_value="m",
    features=(("age", "numeric"), ("job", "categorical")))


def basic_csv(tmp_path, rows=None):
    rows = rows or [
        ["yes", "m", "1", "x"],
        ["no", "f", "2", "y"],
        ["yes", "f", "3", "z"],
        ["no", "m", "4", "x"],
    ]
    return write_csv(tmp_path / "d.csv", ["label", "sex", "age", "job"], rows)


def test_one_hot_one_indicator_per_level(tmp_path):
    ds = load_csv(basic_csv(tmp_path), BASIC_SCHEMA)
    # 1 numeric + 3 indicator columns for levels {x, y, z}
    assert ds.X.shape == (4, 4)
    assert ds.feature_names == ("age", "job=x", "job=y", "job=z")
    assert ds.X[:, 1:].sum() == 4  # exactly one indicator per row


def test_standardization_values(tmp_path):
    ds = load_csv(basic_csv(tmp_path), BASIC_SCHEMA)
    xs = [1.0, 2.0, 3.0, 4.0]
    expected = [(x - statistics.mean(xs)) / statistics.stdev(xs) for x in xs]
    assert np.allclose(ds.X[:, 0], expected, atol=1e-12)
    assert abs(ds.X[:, 0].mean()) < 1e-12


def test_sensitive_not_binary(tmp_path):
    path = basic_csv(tmp_path, [
        ["yes", "m", "1", "x"],
        ["no", "f", "2", "y"],
        ["yes", "o", "3", "z"],
        ["no", "m", "4", "x"],
    ])
    with pytest.raises(DataError, match="sensitive not binary"):
        load_csv(path, BASIC_SCHEMA)


def test_missing_column(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["label", "sex", "age"],
                     [["yes", "m", "1"], ["no", "f", "2"]])
    with pytest.raises(DataError, match="missing column"):
        load_csv(path, BASIC_SCHEMA)


def test_unparsable_numeric(tmp_path):
    path = basic_csv(tmp_path, [
        ["yes", "m", "1", "x"],
        ["no", "f", "oops", "y"],
        ["yes", "f", "inf", "z"],
    ])
    with pytest.raises(DataError, match=r"^unparsable numeric cell 'oops' in "
                                        r"column 'age', row 2$"):
        load_csv(path, BASIC_SCHEMA)


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e400"])
def test_non_finite_numeric_names_first_bad_row(tmp_path, cell):
    path = basic_csv(tmp_path, [
        ["yes", "m", "1", "x"],
        ["no", "f", "2", "y"],
        ["yes", "f", cell, "z"],
        ["no", "m", "oops", "x"],
    ])
    with pytest.raises(DataError,
                       match=r"^non-finite value in column 'age', row 3$"):
        load_csv(path, BASIC_SCHEMA)


def test_regression_target_non_finite_names_row(tmp_path):
    schema = Schema(target="label", sensitive="sex", privileged_value="m",
                    features=(("age", "numeric"),), task="regression")
    path = basic_csv(tmp_path, [
        ["0.5", "m", "1", "x"],
        ["nan", "f", "2", "y"],
    ])
    with pytest.raises(DataError,
                       match=r"^non-finite value in column 'label', row 2$"):
        load_csv(path, schema)


def test_padded_numeric_cells_load_as_stripped(tmp_path):
    # float() strips the whitespace str.strip() does, except ASCII
    # separators such as \x1c, whose block takes the per-cell path
    schema = Schema(target="label", sensitive="sex", privileged_value="m",
                    features=(("age", "numeric"), ("job", "categorical")),
                    task="regression")
    plain = [["0.5", "m", "1", "x"], ["1.5", "f", "2", "y"],
             ["2.5", "f", "3", "z"]]
    padded = [[" 0.5\t", "m", " 1", "x"], ["1.5 ", "f", "\x1c2", "y"],
              ["2.5", "f", "3 ", "z"]]
    loaded = []
    for name, rows in (("plain.csv", plain), ("padded.csv", padded)):
        path = tmp_path / name
        path.write_text("label,sex,age,job\n"
                        + "".join(",".join(r) + "\n" for r in rows),
                        encoding="utf-8")
        loaded.append(load_csv(str(path), schema))
    assert np.array_equal(loaded[0].X, loaded[1].X)
    assert np.array_equal(loaded[0].y, loaded[1].y)


def test_missing_value_rejected(tmp_path):
    path = basic_csv(tmp_path, [
        ["yes", "m", "", "x"],
        ["no", "f", "2", "y"],
    ])
    with pytest.raises(DataError, match="missing value"):
        load_csv(path, BASIC_SCHEMA)


def test_utf8_byte_order_mark_is_skipped(tmp_path):
    # Excel's "CSV UTF-8" starts the file with a BOM; it used to stick to
    # the first header name, and the column was reported missing
    plain = load_csv(basic_csv(tmp_path), BASIC_SCHEMA)
    path = tmp_path / "bom.csv"
    path.write_text("\ufeff" + (tmp_path / "d.csv").read_text(),
                    encoding="utf-8")
    ds = load_csv(str(path), BASIC_SCHEMA)
    assert ds.fingerprint() == plain.fingerprint()
    assert ds.feature_names == plain.feature_names


def test_non_utf8_file_is_a_data_error(tmp_path):
    # a latin-1 cell used to stop with a UnicodeDecodeError
    path = tmp_path / "latin1.csv"
    path.write_bytes("label,sex,age,job\nyes,m,1,café\nno,f,2,x\n"
                     .encode("latin-1"))
    with pytest.raises(DataError, match=r"latin1\.csv: not UTF-8 text$"):
        load_csv(str(path), BASIC_SCHEMA)


def test_schema_column_named_twice_rejected(tmp_path):
    # the last copy used to win without a word
    path = write_csv(tmp_path / "d.csv", ["label", "sex", "age", "job", "age"],
                     [["yes", "m", "1", "x", "999"],
                      ["no", "f", "2", "y", "999"]])
    with pytest.raises(DataError,
                       match=r"^header names column 'age' more than once$"):
        load_csv(path, BASIC_SCHEMA)
    # a column the schema does not use may repeat
    path = write_csv(tmp_path / "d.csv",
                     ["label", "sex", "age", "job", "note", "note"],
                     [["yes", "m", "1", "x", "", ""],
                      ["no", "f", "2", "y", "", ""]])
    assert load_csv(path, BASIC_SCHEMA).n == 2


def test_encoding_idempotence(tmp_path):
    path = basic_csv(tmp_path)
    a = load_csv(path, BASIC_SCHEMA)
    b = load_csv(path, BASIC_SCHEMA)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.a, b.a)


def test_schema_invariants():
    with pytest.raises(ConfigError):
        Schema(target="t", positive_label="1", sensitive="t",
               privileged_value="a", features=())
    with pytest.raises(ConfigError):
        Schema(target="t", positive_label="1", sensitive="s",
               privileged_value="a", features=(("t", "numeric"),))
    valid = dict(target="t", positive_label="1", sensitive="s",
                 privileged_value="a", features=(("x", "numeric"),))
    for kw, message in (
            ({"features": (("t", "numeric"),)},
             "'t' cannot also be a feature"),
            ({"features": (("x", "ordinal"),)}, "unknown kind 'ordinal'"),
            ({"task": "ranking"}, "unknown task 'ranking'"),
            ({"features": (("x", "numeric"), ("x", "categorical"))},
             "duplicate feature column"),
            ({"positive_label": ""}, "requires positive_label")):
        with pytest.raises(ConfigError, match=message):
            Schema(**{**valid, **kw})


@pytest.mark.parametrize("rows, schema, message", [
    ([["yes", "m", "1", "x"], ["no", "f", "2", "y"]],
     dataclasses.replace(BASIC_SCHEMA, positive_label="maybe"),
     "positive label 'maybe' not present in column 'label'"),
    ([["yes", "m", "1", "x"], ["no", "f", "2", "y"],
      ["maybe", "f", "3", "z"]], BASIC_SCHEMA,
     "target not binary: column 'label' has 3 distinct values "
     "['maybe', 'no', 'yes']"),
    ([["yes", "m", "1", "x"], ["no", "f", "2", "y"]],
     dataclasses.replace(BASIC_SCHEMA, features=()),
     "schema declares no feature columns"),
], ids=["absent-positive-label", "three-level-target", "no-features"])
def test_column_checks_are_data_errors(tmp_path, rows, schema, message):
    with pytest.raises(DataError, match=re.escape(message)):
        load_csv(basic_csv(tmp_path, rows), schema)


def test_dataset_vectors_aligned_and_finite():
    X, v = np.zeros((3, 1)), np.zeros(3)
    with pytest.raises(DataError, match="misaligned"):
        Dataset(X, v[:2], v.astype(int), np.arange(3))
    with pytest.raises(DataError, match="non-finite"):
        Dataset(np.array([[0.0], [np.nan], [1.0]]), v, v.astype(int),
                np.arange(3))


def test_population_ratio(tmp_path):
    ds = load_csv(basic_csv(tmp_path), BASIC_SCHEMA)
    assert population_ratio(ds) == 0.5
    rows = [["yes", "f", str(i), "x"] if i < 3 else ["no", "m", str(i), "x"]
            for i in range(10)]
    ds = load_csv(basic_csv(tmp_path, rows), BASIC_SCHEMA)
    assert population_ratio(ds) == 0.3


@pytest.fixture
def pool_ds(tmp_path):
    rows = []
    for i in range(40):
        sex = "f" if i % 4 == 0 else "m"
        label = "yes" if i % 2 == 0 else "no"
        rows.append([label, sex, str(i), "x" if i % 3 else "y"])
    return load_csv(basic_csv(tmp_path, rows), BASIC_SCHEMA)


def draw(ds, counts, seed, rep, with_replacement=False):
    """Replicate rep of counts[g] rows from each group g's pool."""
    return draw_from_pools(ds, (ds.group_indices(0), ds.group_indices(1)),
                           counts, seed, rep, with_replacement)


def test_draw_sample_exact_counts(pool_ds):
    for rep in range(4):
        s = draw(pool_ds, (12, 5), 11, rep)
        assert int((s.a == 0).sum()) == 12
        assert int((s.a == 1).sum()) == 5


def test_draw_sample_deterministic(pool_ds):
    s1 = draw(pool_ds, (10, 4), 3, 1)
    s2 = draw(pool_ds, (10, 4), 3, 1)
    assert np.array_equal(s1.row_ids, s2.row_ids)
    # different replicates differ
    s0 = draw(pool_ds, (10, 4), 3, 0)
    assert not np.array_equal(s0.row_ids, s1.row_ids)


def test_draw_sample_exhaustive_is_permutation(pool_ds):
    n0 = int((pool_ds.a == 0).sum())
    n1 = int((pool_ds.a == 1).sum())
    s = draw(pool_ds, (n0, n1), 0, 0)
    assert sorted(s.row_ids) == sorted(pool_ds.row_ids)


def test_draw_sample_pool_exhausted(pool_ds):
    # with replacement a count past the group's pool draws; without, a
    # sweep rejects it before drawing (test_experiments)
    s = draw(pool_ds, (0, 1000), 0, 0, with_replacement=True)
    assert s.n == 1000


def test_draw_a_pool_cannot_give_is_a_data_error():
    # these used to raise numpy's ValueError
    ds = generate(SynthSpec(n=100, d=2, group1_share=0.3, seed=1))
    n1 = len(ds.group_indices(1))
    with pytest.raises(DataError, match=f"pool 1 has {n1} rows, cannot "
                                        f"give 1000"):
        draw(ds, (0, 1000), 0, 0)
    empty = np.array([], dtype=np.int64)
    with pytest.raises(DataError, match="pool 0 has 0 rows, cannot give 5"):
        draw_from_pools(ds, (empty,), (5,), 0, 0, True)
    # the rule _check_cells applies to a sweep's grid before any draw
    assert can_draw(empty, 0, False) and can_draw(empty, 0, True)
    assert not can_draw(empty, 5, True)
    assert can_draw(ds.group_indices(1), 1000, True)
    assert not can_draw(ds.group_indices(1), n1 + 1, False)


def test_draw_a_negative_count_is_a_data_error():
    # numpy used to raise "negative dimensions are not allowed"
    ds = generate(SynthSpec(n=100, d=2, group1_share=0.3, seed=1))
    n0 = len(ds.group_indices(0))
    for replace in (False, True):
        with pytest.raises(DataError, match=f"pool 0 has {n0} rows, cannot "
                                            f"give -1"):
            draw_from_pools(ds, (ds.group_indices(0),), (-1,), 0, 0, replace)
    # a sweep names a negative grid point once, before any draw
    spec = SweepSpec(family="collect", grid=(-4, 10), replicates=2,
                     fixed_majority=20, metrics=("ZOL",))
    with pytest.raises(ConfigError, match="infeasible grid points") as err:
        run_collect_sim(ds, spec)
    assert str(err.value).count("gives a negative group count") == 1
    assert "needs -4" not in str(err.value)


@pytest.mark.parametrize("groups, counts, message", [
    ((0,), (3, 4), "no pool 1 to give count 4"),
    ((0, 1), (3,), "pool 1 has no count"),
    ((0,), (2.5,), "pool 0 has 68 rows, cannot give 2.5"),
    ((0, 1), (3, True), "pool 1 has 32 rows, cannot give True"),
], ids=["count-without-pool", "pool-without-count", "fraction", "bool"])
def test_draw_counts_that_do_not_fit_the_pools_are_data_errors(
        groups, counts, message):
    # each used to draw 3 rows, or raise numpy's TypeError
    ds = generate(SynthSpec(n=100, d=2, group1_share=0.3, seed=1))
    pools = [ds.group_indices(g) for g in groups]
    with pytest.raises(DataError, match=re.escape(message)):
        draw_from_pools(ds, pools, counts, 0, 0, False)


def test_holdout_split_disjoint_and_sized(pool_ds):
    pool, test = holdout_split(pool_ds, 0.3, seed=5)
    assert set(pool.row_ids).isdisjoint(test.row_ids)
    assert pool.n + test.n == pool_ds.n
    # stratum proportions within one row of pool proportions
    for g in (0, 1):
        for l in (0.0, 1.0):
            total = int(((pool_ds.a == g) & (pool_ds.y == l)).sum())
            in_test = int(((test.a == g) & (test.y == l)).sum())
            assert abs(in_test - 0.3 * total) <= 1.0


def test_holdout_split_deterministic(pool_ds):
    a1, b1 = holdout_split(pool_ds, 0.3, seed=5)
    a2, b2 = holdout_split(pool_ds, 0.3, seed=5)
    assert np.array_equal(a1.row_ids, a2.row_ids)
    assert np.array_equal(b1.row_ids, b2.row_ids)


def test_holdout_split_small_stratum(tmp_path):
    rows = [["yes", "m", "1", "x"],
            ["no", "m", "2", "x"],
            ["no", "m", "3", "x"],
            ["yes", "f", "4", "x"],
            ["no", "f", "5", "x"],
            ["no", "f", "6", "x"]]
    ds = load_csv(basic_csv(tmp_path, rows), BASIC_SCHEMA)
    with pytest.raises(DataError, match="stratum"):
        holdout_split(ds, 0.3, seed=1)
    for fraction in (0.0, 1.0):
        with pytest.raises(ConfigError, match="test_fraction must be in"):
            holdout_split(ds, fraction, seed=1)
