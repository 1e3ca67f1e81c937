"""Per-group cost metrics and discrimination differences.

Rate metrics (FPR, FNR, EO, ZOL, SD) and AUC are computed as exact
rationals (fractions.Fraction) so identities like Disc^EO == -Disc^FNR and
the disc = value_a1 - value_a0 contract hold exactly, not just to float
precision.  MSE is a float.  Empty conditioning sets yield None
(UNDEFINED), never a silent zero.
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


def group_cost(metric, y, labels, scores, a):
    """One metric evaluated per group, with disc = a1 - a0."""
    if metric not in ALL_METRICS:
        raise ConfigError(f"unknown metric {metric!r}")
    y = np.asarray(y)
    labels = np.asarray(labels)
    a = np.asarray(a)
    if metric == "AUC" and scores is None:
        raise ConfigError("AUC requires scores")
    if scores is not None:
        scores = np.asarray(scores)
    values = []
    for group in (0, 1):
        g = a == group
        values.append(_metric_value(metric, y[g], labels[g],
                                    None if scores is None else scores[g]))
    return GroupCostReport(metric, values[0], values[1])


def disc_vector(y, labels, scores, a, metrics):
    """group_cost applied per metric; identical to individual calls."""
    return [group_cost(m, y, labels, scores, a) for m in metrics]


def _rate(num, den):
    if den == 0:
        return None
    return Fraction(int(num), int(den))


def _metric_value(metric, y, labels, scores):
    if metric == "FPR":
        neg = y == 0
        return _rate(labels[neg].sum(), neg.sum())
    if metric == "FNR":
        pos = y == 1
        return _rate((1 - labels[pos]).sum(), pos.sum())
    if metric == "EO":
        pos = y == 1
        return _rate(labels[pos].sum(), pos.sum())
    if metric == "ZOL":
        return _rate((labels != y).sum(), len(y))
    if metric == "SD":
        return _rate(labels.sum(), len(labels))
    if metric == "MSE":
        if len(y) == 0:
            return None
        return float(np.mean((scores - y) ** 2))
    if metric == "AUC":
        return _auc(y, scores)
    raise ConfigError(f"unknown metric {metric!r}")


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
