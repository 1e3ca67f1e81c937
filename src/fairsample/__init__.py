"""Measurement toolkit for sample-size and underrepresentation bias in
fairness evaluation of trained models."""

__version__ = "0.1.0"

from .dataset import (Dataset, Schema, draw_from_pools, holdout_split,
                      load_csv, population_ratio)
from .learners import FittedModel, Learner, fit
from .group_metrics import MetricCosts, model_costs
from .decomposition import (PredictionEnsemble, bias_gap, decompose_costs,
                            ensemble_costs, main_prediction, sd_bounds)
from .bias_estimators import BiasEstimate, estimate
from .experiments import (SweepResult, SweepSpec, run_collect_sim,
                          run_decomposition_sweep, run_ssb_sweep,
                          run_urb_sweep)
from .synth import SynthSpec, generate
from .errors import ConfigError, DataError, FairsampleError
