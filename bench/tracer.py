"""Spans recorded from outside the library.

The tracer replaces a function at the name its caller looks it up under
(``fairsample.experiments.fit``, not ``fairsample.learners.fit``, because
``experiments`` imports ``fit`` by name) with a wrapper that records one
span per call: name, start, end, parent span and thread id.  Spans stay in
memory; ``write`` saves them once, at the end of a run.  Nothing under
``src/`` is changed.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int        # index of the enclosing span, -1 for a root
    thread: int
    attrs: dict = None

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Call-site patches plus the spans they record."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        stack = self._stack()
        span = Span(name, 0.0, 0.0, stack[-1] if stack else -1,
                    threading.get_ident())
        stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def patch(self, owner, attr, name, describe=None):
        """Wrap ``owner.attr`` so each call records a span called ``name``.

        ``describe(args, kwargs, result)`` returns the span's attributes;
        it runs after the span has closed.  A missing attribute is skipped,
        so a later refactor that removes a private helper does not break
        the benchmark.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            return

        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
            if describe is not None:
                span.attrs = describe(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unpatch(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "thread": s.thread,
                    "attrs": _jsonable(s.attrs)}) + "\n")


def _jsonable(attrs):
    if not attrs:
        return None
    return {k: v for k, v in attrs.items() if isinstance(v, (int, float, str,
                                                             bool))}


def self_times(spans):
    """Per-span duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(s.duration - covered)
    return out


def install(tracer):
    """Patch every layer boundary the sweeps cross."""
    from fairsample import (bias_estimators, dataset, decomposition,
                            experiments, learners)

    def fit_attrs(args, kwargs, model):
        learner, train = args[0], args[1]
        return {"kind": learner.kind, "rows": int(train.n),
                "constant": "constant" in model.params,
                "learner": learner, "train": train, "model": model}

    def predict_attrs(args, kwargs, result):
        return {"rows": int(len(args[1]))}

    def cost_attrs(args, kwargs, report):
        return {"undefined": report.disc is None}

    tracer.patch(dataset, "load_csv", "dataset.load_csv")
    tracer.patch(experiments, "holdout_split", "dataset.holdout_split")
    tracer.patch(experiments, "draw_sample", "dataset.draw_sample")
    tracer.patch(experiments, "fit", "learners.fit", fit_attrs)
    tracer.patch(learners.FittedModel, "predict", "learners.predict",
                 predict_attrs)
    tracer.patch(experiments, "group_cost", "group_metrics.group_cost",
                 cost_attrs)
    tracer.patch(bias_estimators, "group_cost", "group_metrics.group_cost",
                 cost_attrs)
    for fn in ("ssb", "urb", "ensemble_disc"):
        tracer.patch(bias_estimators, fn, "bias_estimators.estimate")
    tracer.patch(bias_estimators, "main_prediction",
                 "decomposition.main_prediction")
    tracer.patch(experiments, "decompose_bias_gap",
                 "decomposition.decompose_bias_gap")
    tracer.patch(decomposition, "decompose_cost",
                 "decomposition.decompose_cost")
    tracer.patch(decomposition, "decompose_points",
                 "decomposition.decompose_points")
    # decompose_points computes the majority vote through this private
    # helper rather than main_prediction; count it as main-prediction work
    tracer.patch(decomposition, "_majority_labels",
                 "decomposition.main_prediction")
    tracer.patch(experiments.SweepResult, "write_csv", "experiments.write")
    tracer.patch(experiments.SweepResult, "write_bias_csv",
                 "experiments.write")
