import csv
import hashlib
import json
from datetime import datetime, timezone

import pytest

from fairsample import (Learner, SweepSpec, SynthSpec, cli, experiments, fit,
                        generate, run_ssb_sweep)
from fairsample.cli import main
from fairsample.dataset import holdout_split
from fairsample.group_metrics import model_costs


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SYNTH = {"synth": {"n": 400, "d": 2, "group1_share": 0.4, "seed": 21}}
TREE = {"kind": "decision_tree", "max_depth": 3, "min_leaf": 5}


def test_metrics_matches_library_call(tmp_path):
    cfg = write_config(tmp_path, {
        "dataset": SYNTH, "learner": TREE, "metrics": ["EO", "SD"],
        "seed": 4})
    out = tmp_path / "out"
    assert main(["metrics", "--config", cfg, "--out", str(out)]) == 0

    ds = generate(SynthSpec(n=400, d=2, group1_share=0.4, seed=21))
    pool, test = holdout_split(ds, 0.3, 4)
    model = fit(Learner("decision_tree", max_depth=3, min_leaf=5), pool)
    scores, labels = model.predict(test.X)
    expected = model_costs(test.y, [labels], [scores], test.a, ["EO", "SD"])

    with open(out / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["metric"] for r in rows] == ["EO", "SD"]
    for row, rep in zip(rows, expected.values()):
        v0, v1, d = rep.floats()[0]
        assert float(row["value_a0"]) == v0
        assert float(row["value_a1"]) == v1
        assert float(row["disc"]) == d

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 4
    assert manifest["dataset_sha256"] == ds.fingerprint()
    assert manifest["rows_written"] == 2
    assert 0 < manifest["population_ratio"] < 1


def _library_sweep_csv(tmp_path, **given):
    """The sweep.csv bytes of a library SD size sweep of the SYNTH data with
    a TREE learner, with the fields given set."""
    ds = generate(SynthSpec(n=400, d=2, group1_share=0.4, seed=21))
    spec = SweepSpec(family="ssb_size", grid=(20, 50), replicates=3,
                     learner=Learner("decision_tree", max_depth=3,
                                     min_leaf=5),
                     metrics=("SD",), **given)
    path = tmp_path / "expected.csv"
    run_ssb_sweep(ds, spec).write_csv(path)
    return path.read_bytes()


def test_sweep_matches_library_call(tmp_path):
    cfg = write_config(tmp_path, {
        "dataset": SYNTH, "learner": TREE, "metrics": ["SD"],
        "sweep": {"family": "ssb_size", "grid": [20, 50], "replicates": 3},
        "seed": 6})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "sweep.csv").read_bytes() == \
        _library_sweep_csv(tmp_path, seed=6)
    assert (out / "bias_estimates.csv").exists()


def test_seed_override_beats_config(tmp_path):
    base = {"dataset": SYNTH, "learner": TREE, "metrics": ["SD"],
            "sweep": {"family": "ssb_size", "grid": [20, 50],
                      "replicates": 3},
            "seed": 6}
    cfg = write_config(tmp_path, base)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2),
                 "--seed", "7"]) == 0
    assert (out2 / "sweep.csv").read_bytes() == \
        _library_sweep_csv(tmp_path, seed=7)
    assert (out1 / "sweep.csv").read_bytes() != \
        (out2 / "sweep.csv").read_bytes()
    assert json.loads((out2 / "manifest.json").read_text())["seed"] == 7


def test_top_level_test_fraction_reaches_the_sweep(tmp_path):
    # a sweep used to ignore it and hold out 0.3
    cfg = write_config(tmp_path, {
        "dataset": SYNTH, "learner": TREE, "metrics": ["SD"],
        "sweep": {"family": "ssb_size", "grid": [20, 50], "replicates": 3},
        "seed": 6, "test_fraction": 0.5})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    expected = _library_sweep_csv(tmp_path, seed=6, test_fraction=0.5)
    assert (out / "sweep.csv").read_bytes() == expected
    assert expected != _library_sweep_csv(tmp_path, seed=6)


@pytest.mark.parametrize("key, value", [("seed", 1), ("test_fraction", 0.5)])
def test_run_setting_in_sweep_section_exit_2(tmp_path, capsys, key, value):
    # a sweep-section seed used to override the top-level one and --seed,
    # and a sweep-section test_fraction was the only one a sweep read
    cfg = write_config(tmp_path, {
        "dataset": SYNTH, "learner": TREE, "metrics": ["SD"],
        "sweep": {"family": "ssb_size", "grid": [20, 50], "replicates": 3,
                  key: value},
        "seed": 6})
    for command in ("sweep", "decompose"):
        assert main([command, "--config", cfg, "--out",
                     str(tmp_path / "o"), "--seed", "7"]) == 2
        assert f"unknown sweep keys: ['{key}']" in capsys.readouterr().err


def test_negative_seed_flag_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"dataset": SYNTH, "learner": TREE})
    assert main(["metrics", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--seed", "-1"]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err


def test_unexpected_exception_exit_4(tmp_path, capsys, monkeypatch):
    # any exception but a ConfigError or DataError is an internal error,
    # reported with its traceback
    def broken(path, schema):
        raise RuntimeError("broken invariant")

    monkeypatch.setattr(cli, "load_csv", broken)
    # the config file stands in for the CSV, which is never read
    cfg = write_config(tmp_path, {
        "dataset": {"csv": str(tmp_path / "config.json"),
                    "schema": write_schema(tmp_path)}})
    assert main(["metrics", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert 'raise RuntimeError("broken invariant")' in err
    assert err.endswith(
        "internal error: RuntimeError('broken invariant')\n")


def test_missing_config_exit_2(tmp_path, capsys):
    assert main(["metrics", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_json_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["metrics", "--config", str(path)]) == 2


def test_unknown_keys_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"dataset": SYNTH, "typo_key": 1})
    assert main(["metrics", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    assert "typo_key" in capsys.readouterr().err
    cfg = write_config(tmp_path, {
        "dataset": SYNTH, "learner": {"kind": "knn", "n_neighbors": 3}})
    assert main(["metrics", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2


def test_infinite_learning_rate_exit_2(tmp_path, capsys):
    # json reads Infinity; the fit it would start never finds a step
    cfg = write_config(tmp_path, {
        "dataset": SYNTH, "metrics": ["SD"],
        "learner": {"kind": "logistic_regression",
                    "learning_rate": float("inf")}})
    assert "Infinity" in (tmp_path / "config.json").read_text()
    assert main(["metrics", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    assert "learning_rate must be finite" in capsys.readouterr().err


def test_nan_pool_portion_exit_2(tmp_path, capsys):
    # json reads NaN; the default SSB grid would take its cap from it
    cfg = write_config(tmp_path, {
        "dataset": SYNTH, "learner": TREE, "metrics": ["SD"],
        "sweep": {"family": "ssb_size", "replicates": 3,
                  "pool_portion": float("nan")}})
    assert "NaN" in (tmp_path / "config.json").read_text()
    assert main(["sweep", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    assert "pool_portion must be positive and finite" in \
        capsys.readouterr().err


@pytest.mark.parametrize("command, change, field", [
    ("sweep", {"sweep": {"family": "ssb_size", "grid": [20, 50],
                         "replicates": 2.5}}, "replicates"),
    ("metrics", {"learner": {"kind": "knn", "k": 2.5}}, "k"),
    ("metrics", {"seed": float("nan")}, "seed"),
])
def test_non_integer_count_exit_2(tmp_path, capsys, command, change, field):
    # each would otherwise stop in numpy with a traceback (exit 1), or
    # truncate silently
    cfg = write_config(tmp_path, {
        "dataset": SYNTH, "learner": TREE, "metrics": ["SD"], **change})
    assert main([command, "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    assert f"{field} must be an integer" in capsys.readouterr().err


def write_schema(tmp_path):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({
        "target": "outcome", "positive_label": "pos", "sensitive": "group",
        "privileged_value": "a0",
        "features": [{"name": "x0", "kind": "numeric"}]}))
    return str(schema)


def test_degenerate_population_split_exit_2(tmp_path, capsys):
    # a 1-row population split leaves a group empty; it used to exit 3
    cfg = write_config(tmp_path, {
        "dataset": SYNTH, "learner": TREE, "metrics": ["SD"],
        "sweep": {"family": "urb_ratio", "total_m": 1, "replicates": 3}})
    assert main(["sweep", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    assert "total_m=1 splits the population" in capsys.readouterr().err


def test_missing_data_file_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "dataset": {"csv": str(tmp_path / "missing.csv"),
                    "schema": write_schema(tmp_path)}})
    assert main(["metrics", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 3
    assert "data error" in capsys.readouterr().err


def test_short_row_exit_3(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("outcome,group,x0\npos,a0,1.0\nneg,a1,2.0\npos,a1\n"
                    "neg,a0,0.5\npos,a1\n")
    cfg = write_config(tmp_path, {
        "dataset": {"csv": str(data), "schema": write_schema(tmp_path)}})
    assert main(["metrics", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: row 3 has 2 fields")
    assert "Traceback" not in err


def test_non_utf8_csv_exit_3(tmp_path, capsys):
    # a latin-1 cell used to stop with a UnicodeDecodeError (exit 1)
    data = tmp_path / "data.csv"
    data.write_bytes("outcome,group,x0\npos,a0,1.0\nneg,café,2.0\n"
                     .encode("latin-1"))
    cfg = write_config(tmp_path, {
        "dataset": {"csv": str(data), "schema": write_schema(tmp_path)}})
    assert main(["metrics", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "not UTF-8 text" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["directory", "long_field"])
def test_unreadable_csv_exit_3(tmp_path, capsys, case):
    # both used to stop with a traceback (exit 1): IsADirectoryError, and
    # _csv.Error past the csv module's 131072-character field limit
    data = tmp_path / "data.csv"
    if case == "directory":
        data.mkdir()
    else:
        data.write_text('outcome,group,x0\npos,a0,1.0\nneg,a1,"'
                        + "x" * 200000 + '"\n')
    cfg = write_config(tmp_path, {
        "dataset": {"csv": str(data), "schema": write_schema(tmp_path)}})
    assert main(["metrics", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {data}: cannot be read")
    assert "Traceback" not in err


def test_out_naming_a_file_exit_2(tmp_path, capsys):
    # makedirs used to stop with a FileExistsError traceback (exit 1)
    cfg = write_config(tmp_path, {"dataset": SYNTH})
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(["synth", "--config", cfg, "--out", str(afile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: output directory {str(afile)!r}")
    assert afile.read_text() == ""


@pytest.mark.parametrize("command, sweep, blocked", [
    ("sweep", {"family": "ssb_size", "grid": [20, 50], "replicates": 3},
     "sweep.csv"),
    ("sweep", {"family": "ssb_size", "grid": [20, 50], "replicates": 3},
     "bias_estimates.csv"),
    ("sweep", {"family": "ssb_size", "grid": [20, 50], "replicates": 3},
     "manifest.json"),
    ("decompose", {"grid": [20, 50], "replicates": 3}, "sweep.csv"),
    ("metrics", None, "metrics.csv"),
    ("metrics", None, "manifest.json"),
    ("synth", None, "data.csv"),
    ("synth", None, "schema.json"),
], ids=["sweep-csv", "sweep-bias", "sweep-manifest", "decompose-csv",
        "metrics-csv", "metrics-manifest", "synth-csv", "synth-schema"])
def test_unwritable_output_file_exit_2(tmp_path, capsys, command, sweep,
                                       blocked):
    # an output file that cannot be written, here a directory in its
    # place, used to stop with an IsADirectoryError traceback (exit 4)
    config = {"dataset": SYNTH, "learner": TREE, "metrics": ["ZOL"]}
    if sweep is not None:
        config["sweep"] = sweep
    if command == "synth":
        config = {"dataset": SYNTH}
    cfg = write_config(tmp_path, config)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out / blocked}: ")
    assert "Traceback" not in err


def test_failed_write_that_names_no_file_exit_2(tmp_path, capsys,
                                               monkeypatch):
    # a write that fails after the file opened, on a full disk say, has
    # no file name: the message names the output directory
    def full(self, path):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(experiments.SweepResult, "write_csv", full)
    cfg = write_config(tmp_path, {
        "dataset": SYNTH, "learner": TREE, "metrics": ["SD"],
        "sweep": {"family": "ssb_size", "grid": [20, 50], "replicates": 3}})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot write {out}: No space left on device\n")


def test_sweep_manifest_records_the_phases(tmp_path):
    cfg = write_config(tmp_path, {
        "dataset": SYNTH, "learner": TREE, "metrics": ["SD"],
        "sweep": {"family": "ssb_size", "grid": [20, 50, 100],
                  "replicates": 3},
        "seed": 6})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    phases = json.loads((out / "manifest.json").read_text())["phases"]
    assert list(phases) == ["draw", "fit", "metrics", "predict", "reduce",
                            "split", "write"]
    assert all(phase["seconds"] > 0 for phase in phases.values())
    assert phases["fit"]["fits"] == 3 * 3
    assert phases["metrics"]["tables"] == 3
    # three sweep.csv rows and three bias estimates
    assert phases["write"]["rows"] == 6


@pytest.mark.parametrize("out_dir", ["", "a\u0000b"], ids=["empty", "nul"])
def test_unmakeable_output_dir_exit_2(tmp_path, monkeypatch, capsys, out_dir):
    # makedirs used to stop with FileNotFoundError or ValueError (exit 1)
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {"dataset": SYNTH, "learner": TREE,
                                  "output_dir": out_dir})
    assert main(["metrics", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: output directory {out_dir!r}")
    assert "Traceback" not in err


def test_mse_on_classification_exit_2(tmp_path):
    cfg = write_config(tmp_path, {
        "dataset": SYNTH, "learner": TREE, "metrics": ["MSE"],
        "sweep": {"grid": [20, 50], "replicates": 3}})
    assert main(["decompose", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2


REG_SYNTH = {"synth": {"n": 400, "d": 2, "group1_share": 0.4, "seed": 21,
                       "task": "regression"}}


@pytest.mark.parametrize("command, dataset, learner", [
    ("sweep", SYNTH, "linear_regression"),
    ("sweep", REG_SYNTH, "logistic_regression"),
    ("metrics", SYNTH, "linear_regression"),
    ("metrics", REG_SYNTH, "logistic_regression"),
], ids=["sweep-ols-on-labels", "sweep-logreg-on-targets",
        "metrics-ols-on-labels", "metrics-logreg-on-targets"])
def test_learner_for_the_other_task_exit_2(tmp_path, capsys, command,
                                           dataset, learner):
    cfg = write_config(tmp_path, {
        "dataset": dataset, "learner": {"kind": learner},
        "sweep": {"family": "ssb_size", "grid": [20, 50], "replicates": 3}})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "labels, the dataset" in capsys.readouterr().err
    assert not any(p.suffix == ".csv" for p in out.iterdir())


@pytest.mark.parametrize("dataset, learner, metrics", [
    (SYNTH, TREE, ["MSE"]),
    (REG_SYNTH, {"kind": "linear_regression"}, ["SD", "ZOL"]),
], ids=["mse-on-classification", "rates-on-regression"])
def test_metrics_of_the_other_task_exit_2(tmp_path, capsys, dataset,
                                          learner, metrics):
    cfg = write_config(tmp_path, {
        "dataset": dataset, "learner": learner, "metrics": metrics})
    out = tmp_path / "o"
    assert main(["metrics", "--config", cfg, "--out", str(out)]) == 2
    assert f"metric {metrics[0]} does not apply" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


def test_nan_noise_sd_exit_2(tmp_path, capsys):
    # json reads NaN; it would make every regression target NaN and the
    # metrics run write MSE,nan,nan,nan with exit 0
    synth = {"synth": {**REG_SYNTH["synth"], "noise_sd": float("nan")}}
    cfg = write_config(tmp_path, {
        "dataset": synth, "learner": {"kind": "linear_regression"}})
    out = tmp_path / "o"
    assert main(["metrics", "--config", cfg, "--out", str(out)]) == 2
    assert "noise_sd must be finite" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


SSB = {"family": "ssb_size", "grid": [20, 50], "replicates": 3}
HUGE = 10**400  # a JSON integer beyond the float range
COLLECT = {"family": "collect", "grid": [4, 8], "replicates": 3,
           "fixed_majority": 30}


@pytest.mark.parametrize("command, change, message", [
    ("metrics", {"dataset": {"synth": {**REG_SYNTH["synth"],
                                       "noise_sd": "high"}},
                 "learner": {"kind": "linear_regression"}, "metrics": None},
     "noise_sd must be a real number, got 'high'"),
    ("metrics", {"learner": {"kind": "logistic_regression", "l2": "x"}},
     "l2 must be a real number, got 'x'"),
    ("metrics", {"learner": {**TREE, "threshold": "x"}},
     "threshold must be a real number, got 'x'"),
    ("metrics", {"test_fraction": "x"},
     "test_fraction must be a real number, got 'x'"),
    ("sweep", {"sweep": SSB, "test_fraction": "x"},
     "test_fraction must be a real number, got 'x'"),
    ("sweep", {"sweep": {**SSB, "pool_portion": "x"}},
     "pool_portion must be a real number, got 'x'"),
    ("sweep", {"sweep": {**SSB, "grid": 5}}, "grid must be a list, got 5"),
    ("sweep", {"sweep": SSB, "metrics": "SD"},
     "metrics must be a list, got 'SD'"),
    ("metrics", {"metrics": 5}, "metrics must be a list, got 5"),
    ("metrics", {"dataset": {"synth": {"n": 400, "d": 2}}},
     "dataset.synth requires ['group1_share']"),
    ("metrics", {"dataset": {"synth": {**SYNTH["synth"],
                                       "mean_shift": 1}}},
     "mean_shift must be a list, got 1"),
    ("metrics", {"dataset": {"synth": {**SYNTH["synth"],
                                       "coef": ["a", "b"]}}},
     "coef must be a real number, got 'a'"),
    ("metrics", {"learner": {"kind": ["knn"]}},
     "kind must be a string, got ['knn']"),
    ("metrics", {"learner": "knn"},
     "learner must be a JSON object, got 'knn'"),
    ("metrics", {"dataset": {"synth": 5}},
     "dataset.synth must be a JSON object, got 5"),
    ("sweep", {"sweep": "x"}, "sweep must be a JSON object, got 'x'"),
    # these used to exit 0: output_dir under --out went unread, "false"
    # and 1 ran CV, "no" and 0 read as with/without replacement, and
    # decompose ignored the family the sweep named
    ("metrics", {"output_dir": 5}, "output_dir must be a string, got 5"),
    ("sweep", {"sweep": {**COLLECT, "use_cv": "false"}},
     "use_cv must be true or false, got 'false'"),
    ("sweep", {"sweep": {**COLLECT, "use_cv": 1}},
     "use_cv must be true or false, got 1"),
    ("sweep", {"sweep": {**COLLECT, "with_replacement": "no"}},
     "with_replacement must be true or false, got 'no'"),
    ("sweep", {"sweep": {**COLLECT, "with_replacement": 0}},
     "with_replacement must be true or false, got 0"),
    ("decompose", {"sweep": SSB, "metrics": ["ZOL"]},
     "spec.family must be decomposition"),
    # integers beyond the float or int64 range stopped with OverflowError
    ("metrics", {"learner": {"kind": "logistic_regression", "l2": HUGE}},
     "l2 must be finite"),
    ("sweep", {"sweep": {**SSB, "grid": [20, HUGE]}},
     "grid point must be within the int64 range"),
    ("sweep", {"sweep": {"family": "urb_ratio", "grid": [0.2, 0.5],
                         "replicates": 3, "total_m": HUGE}},
     "total_m must be within the int64 range"),
    ("sweep", {"sweep": {"family": "urb_ratio", "grid": [0.2, HUGE],
                         "replicates": 3, "total_m": 60}},
     "ratio grid point must be finite"),
    # these used to exit 0 too: threads went unread and a seed beyond
    # int64 seeded the run
    ("metrics", {"threads": "x"}, "threads must be an integer, got 'x'"),
    ("metrics", {"seed": 2**64}, "seed must be within the int64 range"),
    # a dataset section or family the command cannot run
    ("sweep", {"dataset": REG_SYNTH, "learner": {"kind": "linear_regression"},
               "metrics": None, "sweep": COLLECT},
     "collect simulation requires a classification task"),
    ("metrics", {"dataset": {**SYNTH, "csv": "data.csv"}},
     "dataset: give either csv+schema or synth"),
    ("metrics", {"dataset": {"csv": "data.csv"}},
     "dataset requires both 'csv' and 'schema' paths"),
    ("synth", {"dataset": {}}, "synth command requires dataset.synth"),
])
def test_wrong_type_or_missing_value_exit_2(tmp_path, capsys, command, change,
                                            message):
    # each would otherwise stop with a TypeError or ValueError traceback
    # (exit 1)
    cfg = write_config(tmp_path, {
        "dataset": SYNTH, "learner": TREE, "metrics": ["SD"], **change})
    assert main([command, "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("config, schema, message", [
    ("5", None, "config must be a JSON object, got 5"),
    ("null", None, "config must be a JSON object, got None"),
    ('{"dataset": {"csv": ["a"], "schema": "SCHEMA"}}', None,
     "dataset.csv must be a string, got ['a']"),
    ('{"dataset": {"csv": "data.csv", "schema": "SCHEMA"}}', "{not json",
     "schema.json is not valid JSON"),
    ('{"dataset": {"csv": "data.csv", "schema": "SCHEMA"}}',
     '[{"target": "outcome"}]',
     "schema must be a JSON object, got [{'target': 'outcome'}]"),
], ids=["config-5", "config-null", "csv-list", "schema-not-json",
        "schema-list"])
def test_config_or_schema_file_of_the_wrong_shape_exit_2(
        tmp_path, capsys, config, schema, message):
    # each stopped with a TypeError or JSONDecodeError traceback (exit 1)
    if schema is None:
        schema_path = write_schema(tmp_path)
    else:
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(schema)
    path = tmp_path / "config.json"
    path.write_text(config.replace("SCHEMA", str(schema_path)))
    assert main(["metrics", "--config", str(path), "--out",
                 str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_negative_collect_grid_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "dataset": SYNTH, "learner": TREE, "metrics": ["SD"],
        "sweep": {"family": "collect", "grid": [-4, 10], "replicates": 3,
                  "fixed_majority": 30}})
    assert main(["sweep", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    assert "-4 gives a negative group count" in capsys.readouterr().err


def test_synth_roundtrip_through_sweep(tmp_path):
    gen_cfg = write_config(tmp_path, {"dataset": SYNTH}, "gen.json")
    data_dir = tmp_path / "data"
    assert main(["synth", "--config", gen_cfg, "--out", str(data_dir)]) == 0
    assert (data_dir / "data.csv").exists()
    assert (data_dir / "schema.json").exists()

    run_cfg = write_config(tmp_path, {
        "dataset": {"csv": str(data_dir / "data.csv"),
                    "schema": str(data_dir / "schema.json")},
        "learner": TREE, "metrics": ["SD"],
        "sweep": {"family": "ssb_size", "grid": [20, 50],
                  "replicates": 3}}, "run.json")
    out = tmp_path / "run_out"
    assert main(["sweep", "--config", run_cfg, "--out", str(out)]) == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {r["grid_value"] for r in rows} == {"20", "50"}


def test_manifest_hashes_the_csv_bytes(tmp_path):
    # a CSV larger than one 1 MiB read of the hash loop
    gen_cfg = write_config(tmp_path, {"dataset": {"synth": {
        "n": 15000, "d": 4, "group1_share": 0.3, "seed": 3}}}, "gen.json")
    data_dir = tmp_path / "data"
    assert main(["synth", "--config", gen_cfg, "--out", str(data_dir)]) == 0
    data = (data_dir / "data.csv").read_bytes()
    assert len(data) > 1 << 20
    run_cfg = write_config(tmp_path, {
        "dataset": {"csv": str(data_dir / "data.csv"),
                    "schema": str(data_dir / "schema.json")},
        "learner": TREE, "metrics": ["SD"]}, "run.json")
    out = tmp_path / "run_out"
    assert main(["metrics", "--config", run_cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dataset_sha256"] == hashlib.sha256(data).hexdigest()


def test_manifest_started_at_precedes_the_sweep(tmp_path, monkeypatch):
    called_at = []
    runner = cli._RUNNERS["ssb_size"]

    def record(ds, spec):
        called_at.append(datetime.now(timezone.utc))
        return runner(ds, spec)

    monkeypatch.setitem(cli._RUNNERS, "ssb_size", record)
    cfg = write_config(tmp_path, {
        "dataset": SYNTH, "learner": TREE, "metrics": ["SD"],
        "sweep": {"family": "ssb_size", "grid": [20, 50], "replicates": 3},
        "seed": 6})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(called_at) == 1
    assert datetime.fromisoformat(manifest["started_at"]) <= called_at[0]


def test_threads_flag_does_not_change_output(tmp_path):
    cfg = write_config(tmp_path, {
        "dataset": SYNTH, "learner": TREE, "metrics": ["SD"],
        "sweep": {"family": "collect", "grid": [4, 8], "replicates": 3,
                  "fixed_majority": 30},
        "seed": 2})
    out1, out4 = tmp_path / "t1", tmp_path / "t4"
    assert main(["sweep", "--config", cfg, "--out", str(out1),
                 "--threads", "1"]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out4),
                 "--threads", "4"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == \
        (out4 / "sweep.csv").read_bytes()


def test_default_urb_grid_drops_shares_the_pools_cannot_draw(tmp_path):
    # the a1 training pool holds 795 rows, so at total_m=1000 every share
    # from 0.8 up is out of reach; the population split stays
    cfg = write_config(tmp_path, {
        "dataset": {"synth": {"n": 4000, "d": 5, "group1_share": 0.3,
                              "seed": 1}},
        "learner": TREE, "metrics": ["SD"],
        "sweep": {"family": "urb_ratio", "replicates": 2}, "seed": 1})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    dropped = [0.8, 0.9] + [round(0.981 + 0.002 * i, 6) for i in range(10)]
    assert manifest["grid_dropped"] == dropped
    with open(out / "sweep.csv") as fh:
        grid = {float(r["grid_value"]) for r in csv.DictReader(fh)}
    assert len(grid) == 30 - len(dropped)
    assert not grid & set(dropped)
    assert round(manifest["population_ratio"], 6) in grid
