"""Parametric two-group synthetic populations.

The generators give analytically controllable group gaps (Gaussian
features, logistic or linear outcomes).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .dataset import CLASSIFICATION, REGRESSION, Dataset
from .errors import ConfigError, check_fields, check_finite


@dataclass(frozen=True)
class SynthSpec:
    n: int
    d: int
    group1_share: float
    seed: int
    task: str = CLASSIFICATION
    mean_shift: tuple = ()        # per-feature group-1 mean offset
    coef: tuple = ()              # outcome coefficients, default all 1/sqrt(d)
    intercept_a0: float = 0.0
    intercept_a1: float = 0.0
    noise_sd: float = 1.0         # regression only

    def __post_init__(self):
        check_fields(self)
        for name in ("mean_shift", "coef"):
            for v in getattr(self, name):
                check_finite(name, v)
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.n < 4 or self.d < 1:
            raise ConfigError("degenerate synthetic spec: need n >= 4, d >= 1")
        if not 0.0 < self.group1_share < 1.0:
            raise ConfigError("group1_share must be in (0, 1)")
        if self.group1_share * self.n < 2:
            raise ConfigError("expected protected-group count below 2")
        if self.noise_sd < 0:
            raise ConfigError("noise_sd must be >= 0")
        if self.task not in (CLASSIFICATION, REGRESSION):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.mean_shift and len(self.mean_shift) != self.d:
            raise ConfigError("mean_shift length must equal d")
        if self.coef and len(self.coef) != self.d:
            raise ConfigError("coef length must equal d")


def generate(spec):
    """Deterministic synthetic Dataset for the spec's seed."""
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 0x51717)))
    a = (rng.random(spec.n) < spec.group1_share).astype(int)
    X = rng.standard_normal((spec.n, spec.d))
    shift = np.array(spec.mean_shift) if spec.mean_shift else np.zeros(spec.d)
    X[a == 1] += shift
    beta = np.array(spec.coef) if spec.coef \
        else np.full(spec.d, 1.0 / np.sqrt(spec.d))
    intercept = np.where(a == 1, spec.intercept_a1, spec.intercept_a0)
    z = X @ beta + intercept
    if spec.task == CLASSIFICATION:
        p = 1.0 / (1.0 + np.exp(-z))
        y = (rng.random(spec.n) < p).astype(float)
    else:
        y = z + spec.noise_sd * rng.standard_normal(spec.n)
    if not (np.any(a == 0) and np.any(a == 1)):
        raise ConfigError("degenerate draw: one group is empty; "
                          "increase n or adjust group1_share")
    names = tuple(f"x{j}" for j in range(spec.d))
    return Dataset(X, y, a, np.arange(spec.n), names, spec.task)


def write_csv(ds, csv_path, schema_path):
    """Persist a generated dataset as CSV plus a matching schema JSON."""
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["outcome", "group"] + list(ds.feature_names))
        for i in range(ds.n):
            if ds.task == CLASSIFICATION:
                out = "pos" if ds.y[i] == 1 else "neg"
            else:
                out = repr(float(ds.y[i]))
            grp = "a1" if ds.a[i] == 1 else "a0"
            w.writerow([out, grp] + [repr(float(v)) for v in ds.X[i]])
    schema = {
        "target": "outcome",
        "positive_label": "pos",
        "sensitive": "group",
        "privileged_value": "a0",
        "features": [{"name": n, "kind": "numeric"}
                     for n in ds.feature_names],
        "task": ds.task,
    }
    with open(schema_path, "w", encoding="utf-8") as fh:
        json.dump(schema, fh, indent=2)
        fh.write("\n")
