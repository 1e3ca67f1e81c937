"""Per-group cost metrics and discrimination differences.

model_costs gives one MetricCosts per metric: each model's numerators over
the per-group denominators all models on one evaluation set share, read
from one confusion_counts table (np.bincount) for the rate metrics.  Means
over models are exact, so Disc^EO == -Disc^FNR holds exactly.  A group
whose denominator is 0 is undefined (None), never a silent zero.  Groups,
and the outcomes and labels a metric counts, must be 0/1.
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
class MetricCosts:
    """One metric's per-group costs of K models on one evaluation set: num,
    each model's (a0, a1) numerators (ints, or MSE's floats), over den, the
    (a0, a1) denominators all K share, 0 where a group is undefined."""

    num: tuple
    den: tuple

    def means(self):
        """Exact (a0, a1) means over the models; None where undefined."""
        return tuple(_ratio(sum(n[g] for n in self.num), len(self.num) * d,
                            exact=True) for g, d in enumerate(self.den))

    def mean_disc(self):
        """Exact mean over the models of a1 - a0, or None."""
        d0, d1 = self.den
        return _ratio(sum(n1 * d0 - n0 * d1 for n0, n1 in self.num),
                      len(self.num) * d0 * d1, exact=True)

    def floats(self):
        """Each model's (a0, a1, disc) as floats, None where undefined: one
        division of Python ints each, so each is float() of the exact value
        (numpy int64 division misrounds past 2**53)."""
        d0, d1 = self.den
        return [(_ratio(n0, d0), _ratio(n1, d1),
                 _ratio(n1 * d0 - n0 * d1, d0 * d1)) for n0, n1 in self.num]


def _ratio(num, den, exact=False):
    """num / den, or None for den 0; exact: a Fraction of ints."""
    if den == 0:
        return None
    return Fraction(num, den) if exact and isinstance(num, int) else num / den


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
    """{metric: MetricCosts} for a (K, n) stack of labels and scores on
    one evaluation set (y, a); AUC and MSE run per model."""
    if len(labels) == 0:
        raise ConfigError("model_costs needs at least one model")
    for m in metrics:
        if m not in ALL_METRICS:
            raise ConfigError(f"unknown metric {m!r}")
        if m in ("AUC", "MSE") and scores is None:
            raise ConfigError(f"{m} requires scores")
    y, a = np.asarray(y), np.asarray(a)
    _check_binary(groups=a, outcomes=y if "AUC" in metrics else None)
    if any(m in _RATE_CELLS for m in metrics):
        counts = confusion_counts(y, labels, a)
    groups = (a == 0, a == 1)
    costs = {}
    for m in metrics:
        if m in _RATE_CELLS:
            num, den = (counts[..., list(c)].sum(axis=-1).tolist()
                        for c in _RATE_CELLS[m])
        else:
            cost = _auc if m == "AUC" else _mse
            # per model, [(num, den) per group] -> (nums, dens)
            num, den = zip(*(zip(*(cost(y[sel], s[sel]) for sel in groups))
                             for s in np.asarray(scores)))
        costs[m] = MetricCosts(tuple(map(tuple, num)), tuple(den[0]))
    return costs


def _mse(y, scores):
    """(mean squared error, 1), or (0.0, 0) for an empty group."""
    return (float(np.mean((scores - y) ** 2)), 1) if len(y) else (0.0, 0)


def _auc(y, scores):
    """(2U, 2 * positives * negatives): U counts the (positive, negative)
    pairs where the positive scores higher, ties as 1/2.

    Mid-rank Mann-Whitney: doubled mid-ranks keep everything integer, and
    2U is pair counting with each win 2 and each tie 1.
    """
    pos = y == 1
    npos = int(pos.sum())
    _, inv, counts = np.unique(scores, return_inverse=True,
                               return_counts=True)
    ends = np.cumsum(counts)
    double_midrank = 2 * ends - counts + 1  # first + last rank of a tie
    rank2_pos = int(double_midrank[inv][pos].sum())
    # U = sum(ranks_pos) - npos (npos + 1) / 2
    return rank2_pos - npos * (npos + 1), 2 * npos * (len(y) - npos)
