"""Tabular data ingestion, encoding, and seeded group-controlled sampling."""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DataError, build, check_fields, check_keys,
                     check_type, read_json)

NUMERIC = "numeric"
CATEGORICAL = "categorical"
CLASSIFICATION = "classification"
REGRESSION = "regression"


def _feature(raw):
    """A schema file's {"name": ..., "kind": ...} feature as a pair."""
    raw = check_keys(raw, ("name", "kind"), "schema feature")
    return raw.get("name"), raw.get("kind")


@dataclass(frozen=True)
class Schema:
    """Column roles for a CSV file.

    The privileged sensitive value is mapped to group a0; the other value
    becomes the protected group a1.  For classification the positive label
    is mapped to outcome 1.
    """

    target: str
    sensitive: str
    privileged_value: str
    features: tuple  # of (name, kind) pairs
    positive_label: str = ""
    task: str = CLASSIFICATION

    def __post_init__(self):
        check_fields(self)
        for name, kind in self.features:
            check_type("feature name", name, str, "a string")
            if kind not in (NUMERIC, CATEGORICAL):
                raise ConfigError(f"feature {name!r} has unknown kind {kind!r}")
            if name in (self.target, self.sensitive):
                raise ConfigError(f"column {name!r} cannot also be a feature")
        if self.task not in (CLASSIFICATION, REGRESSION):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.target == self.sensitive:
            raise ConfigError("target and sensitive columns must be distinct")
        if len({n for n, _ in self.features}) != len(self.features):
            raise ConfigError("duplicate feature column")
        if self.task == CLASSIFICATION and not self.positive_label:
            raise ConfigError("classification schema requires positive_label")

    @classmethod
    def from_json(cls, path):
        """The schema in a JSON file; features are name/kind objects."""
        raw = read_json(path, "schema")
        if isinstance(raw, dict):
            if isinstance(raw.get("features"), list):
                raw["features"] = [_feature(f) for f in raw["features"]]
            # CSV cells are text, so a JSON number names a value too
            for key in ("privileged_value", "positive_label"):
                if isinstance(raw.get(key), (int, float)):
                    raw[key] = str(raw[key])
        return build(cls, raw, "schema")


@dataclass(frozen=True)
class Dataset:
    """Encoded feature matrix with aligned outcome and group vectors.

    Immutable after construction; all sampling operations return new
    Dataset views referencing the original row indices.
    """

    X: np.ndarray
    y: np.ndarray
    a: np.ndarray
    row_ids: np.ndarray
    feature_names: tuple = ()
    task: str = CLASSIFICATION

    def __post_init__(self):
        n = self.X.shape[0]
        if not (len(self.y) == len(self.a) == len(self.row_ids) == n):
            raise DataError("misaligned dataset vectors")
        if not np.all(np.isfinite(self.X)):
            raise DataError("non-finite value in encoded feature matrix")

    @property
    def n(self):
        return self.X.shape[0]

    def group_indices(self, group):
        return np.flatnonzero(self.a == group)

    def subset(self, idx):
        idx = np.asarray(idx)
        return Dataset(self.X[idx], self.y[idx], self.a[idx],
                       self.row_ids[idx], self.feature_names, self.task)

    def fingerprint(self):
        import hashlib
        h = hashlib.sha256()
        for arr in (self.X, self.y.astype(float), self.a.astype(float),
                    self.row_ids.astype(np.int64)):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


# Rows decoded per block: a load holds one block of cells as text, and the
# rest of the file only as encoded arrays.
_BLOCK_ROWS = 512


def load_csv(path, schema):
    """Load and encode a UTF-8 CSV file (a leading byte-order mark is
    skipped) per the schema.

    Categorical features are one-hot encoded with one indicator per level;
    numeric features are standardized over the full file.  Target and
    sensitive columns are mapped to {0,1}.  The file is read in blocks of
    rows; a row too short for the schema's columns raises at once, and the
    column checks raise after the read in the order sensitive, target,
    features, each naming the column's first bad row.  A file that cannot
    be read (an OSError or csv.Error, such as an over-long field) or is
    not UTF-8 is a DataError naming the path.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            columns, n = _read_columns(csv.reader(fh), path, schema)
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    except (OSError, csv.Error) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise DataError(f"{path}: cannot be read ({reason})") from None
    if not n:
        raise DataError(f"{path}: no data rows")

    a = (~_indicator(columns[schema.sensitive], schema.privileged_value,
                     "sensitive", "privileged value")).astype(int)
    if schema.task == CLASSIFICATION:
        y = _indicator(columns[schema.target], schema.positive_label,
                       "target", "positive label").astype(float)
    else:
        y = columns[schema.target].values()

    # features
    blocks = []
    names = []
    for name, kind in schema.features:
        if kind == NUMERIC:
            x = columns[name].values()
            mu = x.mean()
            sd = x.std(ddof=1) if len(x) > 1 else 0.0
            if sd > 0:
                x = (x - mu) / sd
            else:
                x = np.zeros_like(x)
            blocks.append(x[:, None])
            names.append(name)
        else:
            flevels, fcodes = columns[name].levels()
            onehot = np.zeros((n, len(flevels)))
            onehot[np.arange(n), fcodes] = 1.0
            blocks.append(onehot)
            names.extend(f"{name}={lv}" for lv in flevels)

    if not blocks:
        raise DataError("schema declares no feature columns")
    X = np.hstack(blocks)
    return Dataset(X, y, a, np.arange(n), tuple(names), schema.task)


def _indicator(column, value, role, what):
    """Whether each row of a text column holds value: the column must have
    exactly two levels, value one of them."""
    levels, codes = column.levels()
    if len(levels) != 2:
        raise DataError(f"{role} not binary: column {column.name!r} has "
                        f"{len(levels)} distinct values {levels[:5]}")
    if value not in levels:
        raise DataError(f"{what} {value!r} not present in column "
                        f"{column.name!r}")
    return codes == levels.index(value)


def _read_columns(reader, path, schema):
    """(columns, n): the schema's columns of the CSV rows reader yields,
    each a _NumericColumn or _TextColumn by name, and the data row count."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file")
    col = {name: i for i, name in enumerate(header)}
    needed = ([schema.target, schema.sensitive]
              + [n for n, _ in schema.features])
    for name in needed:
        if name not in col:
            raise DataError(f"missing column {name!r}")
        if header.count(name) > 1:
            raise DataError(f"header names column {name!r} more than once")
    need = max(col[name] for name in needed) + 1
    numeric = {n for n, kind in schema.features if kind == NUMERIC}
    if schema.task == REGRESSION:
        numeric.add(schema.target)
    columns = {name: _NumericColumn(name) if name in numeric
               else _TextColumn(name) for name in needed}
    n = 0
    # a block of blank lines is not the end of the file
    while chunk := list(itertools.islice(reader, _BLOCK_ROWS)):
        block = [r for r in chunk if r]
        if not block:
            continue
        if min(map(len, block)) < need:
            r, row = next((r, row) for r, row in enumerate(block)
                          if len(row) < need)
            raise DataError(f"row {n + r + 1} has {len(row)} fields, the "
                            f"schema's columns need {need}")
        cells = list(zip(*block))
        for name, column in columns.items():
            column.add(cells[col[name]], n)
        n += len(block)
    return columns, n


def _missing(name, row):
    return DataError(f"missing value in column {name!r}, row {row + 1}")


class _TextColumn:
    """A string column read block by block: its stripped cells as integer
    codes, in order of first appearance, and the first empty cell's row."""

    def __init__(self, name):
        self.name = name
        self.code = {}
        self.codes = []
        self.missing = None

    def add(self, cells, start):
        vals = list(map(str.strip, cells))
        code = self.code
        for v in set(vals).difference(code):
            code[v] = len(code)
        if self.missing is None and "" in code:
            self.missing = start + vals.index("")
        self.codes.append(np.fromiter(map(code.__getitem__, vals), np.intp,
                                      len(vals)))

    def levels(self):
        """(sorted levels, each row's index into them)."""
        if self.missing is not None:
            raise _missing(self.name, self.missing)
        levels = sorted(self.code)
        rank = np.empty(len(levels), np.intp)
        rank[[self.code[v] for v in levels]] = np.arange(len(levels))
        return levels, rank[np.concatenate(self.codes)]


class _NumericColumn:
    """A numeric column read block by block.

    numpy parses each block's raw cells with Python's float(), which
    accepts the padding str.strip() removes except ASCII separators such
    as \x1c.  A block that fails, or holds a non-finite value, is stripped
    and parsed cell by cell to find its first empty and first bad cell; an
    empty cell anywhere outranks a bad one.
    """

    def __init__(self, name):
        self.name = name
        self.parts = []
        self.missing = None
        self.error = None

    def add(self, cells, start):
        if self.missing is not None:
            return
        try:
            x = np.array(cells, dtype=np.float64)
        except ValueError:
            x = None
        if x is None or not np.isfinite(x).all():
            vals = list(map(str.strip, cells))
            if "" in vals:
                self.missing = start + vals.index("")
                return
            if self.error is not None:
                return
            try:
                x = np.array([_parse_float(v, self.name, start + r)
                              for r, v in enumerate(vals)])
            except DataError as exc:
                self.error = str(exc)
                return
        self.parts.append(x)

    def values(self):
        if self.missing is not None:
            raise _missing(self.name, self.missing)
        if self.error is not None:
            raise DataError(self.error)
        return np.concatenate(self.parts)


def _parse_float(v, name, row):
    try:
        x = float(v)
    except ValueError:
        raise DataError(
            f"unparsable numeric cell {v!r} in column {name!r}, row {row + 1}")
    if not math.isfinite(x):
        raise DataError(f"non-finite value in column {name!r}, row {row + 1}")
    return x


def population_ratio(ds):
    """Protected-group share |G1| / n, the reference split for URB."""
    return float(np.count_nonzero(ds.a == 1)) / ds.n


def can_draw(pool, want, with_replacement):
    """Whether the row-index array pool can give want rows: it holds that
    many, or it is drawn with replacement and is not empty."""
    return want <= len(pool) or (with_replacement and len(pool) > 0)


def draw_from_pools(ds, pools, counts, seed, replicate_index,
                    with_replacement):
    """One replicate: counts[i] rows of pools[i] (row-index arrays), drawn
    pool by pool from the stream SeedSequence((seed, replicate_index)),
    as a subset sorted by row.  A count of 0 draws nothing and consumes no
    randomness; a pool without a count or a count without a pool, a count
    that is not an integer (a bool included), a negative count, or one a
    pool cannot give (can_draw), is a DataError."""
    pairs = list(itertools.zip_longest(pools, counts))
    for i, (pool, want) in enumerate(pairs):
        if pool is None or want is None:
            raise DataError(f"pool {i} has no count" if want is None
                            else f"no pool {i} to give count {want}")
        if isinstance(want, bool) or not isinstance(want, (int, np.integer)) \
                or want < 0 or not can_draw(pool, want, with_replacement):
            raise DataError(f"pool {i} has {len(pool)} rows, cannot give "
                            f"{want}")
    rng = np.random.default_rng(
        np.random.SeedSequence((seed, replicate_index)))
    picked = [rng.choice(pool, size=want, replace=with_replacement)
              for pool, want in pairs]
    return ds.subset(np.sort(np.concatenate(picked)))


def holdout_split(ds, test_fraction, seed):
    """Stratified split into (train_pool, test), deterministic per seed.

    Classification stratifies jointly on (group, label); regression on
    group only.  Every stratum needs at least 2 rows.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError("test_fraction must be in (0, 1)")
    # one integer per stratum, ordered as the (group, label) tuples are
    if ds.task == CLASSIFICATION:
        key = ds.a.astype(np.int64) * 2 + ds.y.astype(np.int64)
    else:
        key = ds.a.astype(np.int64)

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5B117)))
    test_idx = []
    train_idx = []
    for k in np.unique(key):
        members = np.flatnonzero(key == k)
        if len(members) < 2:
            stratum = (divmod(int(k), 2) if ds.task == CLASSIFICATION
                       else (int(k),))
            raise DataError(f"stratum {stratum} has fewer than 2 rows")
        n_test = int(round(test_fraction * len(members)))
        n_test = min(max(n_test, 1), len(members) - 1)
        perm = rng.permutation(len(members))
        test_idx.append(members[perm[:n_test]])
        train_idx.append(members[perm[n_test:]])
    return (ds.subset(np.sort(np.concatenate(train_idx))),
            ds.subset(np.sort(np.concatenate(test_idx))))
