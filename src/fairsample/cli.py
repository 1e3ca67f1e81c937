"""Command-line frontend: metrics, sweep, decompose, and synth subcommands.

Each run is driven by a single JSON config file; --seed and --out
override the corresponding config entries.  seed, test_fraction, learner,
metrics and threads are top-level run settings; a sweep section may not
name them.
--threads and the config key threads (an integer) are accepted for
compatibility and have no effect.
Exit codes: 0 success, 2 configuration error (an output file that cannot
be written too), 3 data error, 4 internal error: any other exception,
reported with its traceback.
A sweep's manifest.json records the engine's phases (SweepResult.phases)
and the seconds spent writing its CSVs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import sys
import time
import traceback
from datetime import datetime, timezone

from . import __version__
from .dataset import Schema, holdout_split, load_csv, population_ratio
from .errors import (ConfigError, DataError, build, check_finite,
                     check_integer, check_keys, check_type, read_json)
from .experiments import (SweepSpec, run_collect_sim, run_decomposition_sweep,
                          run_ssb_sweep, run_urb_sweep)
from .group_metrics import model_costs, task_metrics
from .learners import Learner, fit
from .synth import SynthSpec, generate, write_csv


_TOP_KEYS = ("dataset", "learner", "metrics", "sweep", "seed", "threads",
             "output_dir", "test_fraction")


def _metrics(config):
    """The config's metrics as a tuple; absent or null means none."""
    metrics = config.get("metrics")
    if metrics is None:
        return ()
    check_type("metrics", metrics, list, "a list")
    return tuple(metrics)


def _test_fraction(config):
    """The config's holdout share, SweepSpec's default when absent."""
    test_fraction = config.get("test_fraction", SweepSpec.test_fraction)
    check_finite("test_fraction", test_fraction)
    return test_fraction


def _build_dataset(raw, seed):
    """Returns (dataset, sha256 of the source)."""
    check_keys(raw, ("csv", "schema", "synth"), "dataset")
    if "synth" in raw:
        if "csv" in raw or "schema" in raw:
            raise ConfigError("dataset: give either csv+schema or synth")
        ds = generate(build(SynthSpec, raw["synth"], "dataset.synth",
                            {"seed": seed}))
        return ds, ds.fingerprint()
    if "csv" not in raw or "schema" not in raw:
        raise ConfigError("dataset requires both 'csv' and 'schema' paths")
    for key in ("csv", "schema"):
        check_type(f"dataset.{key}", raw[key], str, "a string")
    schema = Schema.from_json(raw["schema"])
    if not os.path.exists(raw["csv"]):
        raise DataError(f"dataset file not found: {raw['csv']}")
    ds = load_csv(raw["csv"], schema)
    sha = hashlib.sha256()
    with open(raw["csv"], "rb") as fh:
        while chunk := fh.read(1 << 20):
            sha.update(chunk)
    return ds, sha.hexdigest()


@contextlib.contextmanager
def _writing(path):
    """Report an output file that cannot be written, a directory in its
    place say, as a ConfigError (exit 2) that names it, or path where the
    error names no file."""
    try:
        yield
    except OSError as e:
        raise ConfigError(f"cannot write {e.filename or path}: "
                          f"{e.strerror or e}") from None


def _write_manifest(path, config, seed, started_at, dataset_sha, pop_ratio,
                    rows_written, grid_dropped=None, phases=None):
    manifest = {
        "config": config,
        "seed": seed,
        "dataset_sha256": dataset_sha,
        "version": __version__,
        "started_at": started_at,
        "population_ratio": pop_ratio,
        "rows_written": rows_written,
    }
    if grid_dropped is not None:
        manifest["grid_dropped"] = list(grid_dropped)
    if phases is not None:
        manifest["phases"] = phases
    with _writing(path), open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _prepare(args):
    """(config, seed, output directory, start time): the start time is
    taken before the dataset loads, as an ISO 8601 UTC string."""
    started_at = datetime.now(timezone.utc).isoformat()
    config = check_keys(read_json(args.config, "config"), _TOP_KEYS,
                        "config")
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    check_integer("seed", seed)
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    check_integer("threads", config.get("threads", 1))
    check_type("output_dir", config.get("output_dir", "."), str, "a string")
    out_dir = args.out or config.get("output_dir", ".")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except (OSError, ValueError) as e:
        # a file on the path, an empty name, a NUL byte
        raise ConfigError(f"output directory {out_dir!r} cannot be made: "
                          f"{getattr(e, 'strerror', None) or e}") from None
    return config, seed, out_dir, started_at


_RUNNERS = {
    "ssb_size": run_ssb_sweep,
    "urb_ratio": run_urb_sweep,
    "decomposition": run_decomposition_sweep,
    "collect": run_collect_sim,
}


def cmd_metrics(args):
    config, seed, out_dir, started_at = _prepare(args)
    ds, sha = _build_dataset(config.get("dataset"), seed)
    learner = build(Learner, config.get("learner"), "learner")
    learner.check_task(ds.task)
    metrics = task_metrics(ds.task, _metrics(config))
    pool, test = holdout_split(ds, _test_fraction(config), seed)
    model = fit(learner, pool)
    scores, labels = model.predict(test.X)
    costs = model_costs(test.y, [labels], [scores], test.a, metrics)
    csv_path = os.path.join(out_dir, "metrics.csv")
    with _writing(csv_path), open(csv_path, "w", encoding="utf-8",
                                  newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["metric", "value_a0", "value_a1", "disc"])
        for metric, c in costs.items():
            w.writerow([metric, *("" if v is None else repr(v)
                                  for v in c.floats()[0])])
    _write_manifest(os.path.join(out_dir, "manifest.json"), config, seed,
                    started_at, sha, population_ratio(ds), len(costs))
    return 0


def _run_sweep_family(args, **defaults):
    config, seed, out_dir, started_at = _prepare(args)
    ds, sha = _build_dataset(config.get("dataset"), seed)
    learner = build(Learner, config.get("learner"), "learner")
    # the run settings are top-level config entries
    spec = build(SweepSpec, config.get("sweep"), "sweep", defaults,
                 learner=learner, metrics=_metrics(config), threads=1,
                 seed=seed, test_fraction=_test_fraction(config))
    result = _RUNNERS[defaults.get("family", spec.family)](ds, spec)
    start = time.perf_counter()
    with _writing(out_dir):
        rows = result.write_csv(os.path.join(out_dir, "sweep.csv"))
        if result.bias_rows:
            result.write_bias_csv(os.path.join(out_dir, "bias_estimates.csv"))
    write = {"seconds": time.perf_counter() - start,
             "rows": rows + len(result.bias_rows)}
    _write_manifest(os.path.join(out_dir, "manifest.json"), config, seed,
                    started_at, sha, result.population_ratio, rows,
                    result.grid_dropped, {**result.phases, "write": write})
    return 0


def cmd_sweep(args):
    return _run_sweep_family(args)


def cmd_decompose(args):
    return _run_sweep_family(args, family="decomposition")


def cmd_synth(args):
    config, seed, out_dir, started_at = _prepare(args)
    raw = check_keys(config.get("dataset") or {}, ("synth",), "dataset")
    if "synth" not in raw:
        raise ConfigError("synth command requires dataset.synth")
    ds, sha = _build_dataset(raw, seed)
    csv_path = os.path.join(out_dir, "data.csv")
    schema_path = os.path.join(out_dir, "schema.json")
    with _writing(csv_path):
        write_csv(ds, csv_path, schema_path)
    _write_manifest(os.path.join(out_dir, "manifest.json"), config, seed,
                    started_at, sha, population_ratio(ds), ds.n)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fairsample",
        description="Measure how sample size and group underrepresentation "
                    "bias fairness conclusions of trained models.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text in (
            ("metrics", cmd_metrics,
             "train one model and report per-group costs"),
            ("sweep", cmd_sweep, "run an experiment sweep family"),
            ("decompose", cmd_decompose,
             "run a bias/variance decomposition sweep"),
            ("synth", cmd_synth,
             "generate a synthetic dataset CSV + schema")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="path to the JSON run config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None,
                       help="override the config output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility; has no effect")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
