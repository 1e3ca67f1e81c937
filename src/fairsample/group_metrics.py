"""Per-group cost metrics and discrimination differences.

Rate metrics (FPR, FNR, EO, ZOL, SD) are exact Fractions of two sums of a
whole ensemble's confusion_counts, one np.bincount; AUC is exact too, so
Disc^EO == -Disc^FNR and disc = value_a1 - value_a0 hold exactly.  MSE is
a float.  Empty conditioning sets yield None (UNDEFINED), never a silent
zero.  Groups, and the outcomes and labels a metric counts, must be 0/1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dataset import REGRESSION
from .errors import ConfigError

# each task's metrics, in the default order of its reports
CLASSIFICATION_METRICS = ("FPR", "FNR", "EO", "ZOL", "SD", "AUC")
REGRESSION_METRICS = ("MSE",)
ALL_METRICS = CLASSIFICATION_METRICS + REGRESSION_METRICS


def task_metrics(task, metrics=()):
    """metrics, each named once, or all of the task's metrics when none
    are given; a metric of the other task is a ConfigError."""
    own = REGRESSION_METRICS if task == REGRESSION else CLASSIFICATION_METRICS
    for m in metrics:
        if m not in own:
            raise ConfigError(f"metric {m} does not apply to a {task} task"
                              if m in ALL_METRICS
                              else f"unknown metric {m!r}")
    return tuple(dict.fromkeys(metrics)) or own


@dataclass(frozen=True)
class GroupCostReport:
    metric: str
    value_a0: object  # Fraction, float, or None
    value_a1: object

    @property
    def disc(self):
        if self.value_a0 is None or self.value_a1 is None:
            return None
        return self.value_a1 - self.value_a0

    def as_floats(self):
        conv = lambda v: None if v is None else float(v)
        return conv(self.value_a0), conv(self.value_a1), conv(self.disc)


def disc_vector(y, labels, scores, a, metrics):
    """One model's report per metric: the K = 1 row of model_costs."""
    costs = model_costs(y, [labels], None if scores is None else [scores], a,
                        metrics)
    return [costs[m][0] for m in metrics]


# each rate metric's (numerator, denominator) cells; cell 2y + label
_RATE_CELLS = {"FPR": ((1,), (0, 1)), "FNR": ((2,), (2, 3)),
               "EO": ((3,), (2, 3)), "ZOL": ((1, 2), (0, 1, 2, 3)),
               "SD": ((1, 3), (0, 1, 2, 3))}


def _check_binary(**named):
    """Reject any of the named arrays (None: unchecked) that is not 0/1."""
    for name, values in named.items():
        if values is None:
            continue
        values = np.asarray(values)
        if not ((values == 0) | (values == 1)).all():
            raise ConfigError(f"{name} must be 0 or 1")


def confusion_counts(y, labels, a):
    """int (K, 2, 4) tn/fp/fn/tp counts per model and group of 0/1 y, a
    and a (K, n) label stack: one np.bincount of 8k + 4a + 2y + label."""
    _check_binary(groups=a, outcomes=y, labels=labels)
    codes = np.array(labels, dtype=np.intp)  # one (K, n) array, in place
    k = len(codes)
    codes += 4 * np.asarray(a, np.intp) + 2 * np.asarray(y, np.intp)
    codes += 8 * np.arange(k)[:, None]
    return np.bincount(codes.ravel(), minlength=8 * k).reshape(k, 2, 4)


def model_costs(y, labels, scores, a, metrics):
    """{metric: K GroupCostReports} for a (K, n) stack of labels and
    scores on one evaluation set (y, a); AUC and MSE run per model."""
    for m in metrics:
        if m not in ALL_METRICS:
            raise ConfigError(f"unknown metric {m!r}")
        if m in ("AUC", "MSE") and scores is None:
            raise ConfigError(f"{m} requires scores")
    y, a = np.asarray(y), np.asarray(a)
    _check_binary(groups=a, outcomes=y if "AUC" in metrics else None)
    if any(m in _RATE_CELLS for m in metrics):
        counts = confusion_counts(y, labels, a)
    costs = {}
    for m in metrics:
        if m in _RATE_CELLS:
            num, den = (counts[..., list(c)].sum(axis=-1).tolist()
                        for c in _RATE_CELLS[m])
            values = [[None if d == 0 else Fraction(n, d)
                       for n, d in zip(*nd)] for nd in zip(num, den)]
        else:
            value = _auc if m == "AUC" else _mse
            values = [[value(y[a == g], s[a == g]) for g in (0, 1)]
                      for s in np.asarray(scores)]
        costs[m] = [GroupCostReport(m, *v) for v in values]
    return costs


def _mse(y, scores):
    return None if len(y) == 0 else float(np.mean((scores - y) ** 2))


def _auc(y, scores):
    """Within-group probability a positive outscores a negative, ties 1/2.

    Mid-rank Mann-Whitney: with doubled mid-ranks everything stays integer,
    so the result is an exact rational equal to pair counting with ties
    counted half.
    """
    pos = y == 1
    npos = int(pos.sum())
    nneg = int(len(y) - npos)
    if npos == 0 or nneg == 0:
        return None
    uniq, inv, counts = np.unique(scores, return_inverse=True,
                                  return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts + 1
    double_midrank = starts + ends  # 2 * average rank, always integer
    rank2_pos = int(double_midrank[inv][pos].sum())
    # U = sum(ranks_pos) - npos (npos + 1) / 2
    return Fraction(rank2_pos - npos * (npos + 1), 2 * npos * nneg)
