"""Each config dataclass field is checked against the type it declares."""

import dataclasses
import json
import typing

import numpy as np
import pytest

from fairsample import ConfigError, Learner, Schema, SweepSpec, SynthSpec
from fairsample.errors import check_fields

VALID = {
    SweepSpec: dict(family="ssb_size"),
    Learner: dict(),
    SynthSpec: dict(n=100, d=2, group1_share=0.5, seed=0),
    Schema: dict(target="t", sensitive="s", privileged_value="p",
                 features=(("x", "numeric"),), positive_label="1"),
}

# a value of the wrong type for each type a field may declare
WRONG = {int: 2.5, float: "x", bool: "false", str: 5, tuple: 5,
         Learner: "knn"}

FIELDS = [(cls, f.name) for cls in VALID for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("cls, name", FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, n in FIELDS])
def test_every_field_rejects_a_value_of_the_wrong_type(cls, name):
    # a field added with a type that check_fields has no rule for raises
    # TypeError here, and one whose class skips check_fields raises nothing
    kind = typing.get_type_hints(cls)[name]
    assert kind in WRONG, f"{cls.__name__}.{name}: no wrong value for {kind}"
    cls(**VALID[cls])
    with pytest.raises(ConfigError, match=f"^{name} must be"):
        cls(**{**VALID[cls], name: WRONG[kind]})


def test_a_field_type_without_a_rule_is_a_type_error():
    @dataclasses.dataclass(frozen=True)
    class Spec:
        options: dict

        def __post_init__(self):
            check_fields(self)

    with pytest.raises(TypeError, match="no rule for Spec.options"):
        Spec({})


def test_flags_and_lists_take_their_python_forms():
    # numpy bools are bools; a list stands for a tuple
    spec = SweepSpec(family="collect", use_cv=np.bool_(True),
                     with_replacement=False, grid=[4, 8], metrics=["SD"])
    assert spec.grid == [4, 8]
    for flag in (1, 0, "false", None):
        with pytest.raises(ConfigError, match="use_cv must be true or false"):
            SweepSpec(family="collect", use_cv=flag)
    SynthSpec(n=100, d=2, group1_share=0.5, seed=0, mean_shift=[0.5, 0.0])


def test_schema_file_features_and_labels(tmp_path):
    path = tmp_path / "schema.json"
    raw = {"target": "y", "sensitive": "g", "privileged_value": 1,
           "positive_label": 1, "features": [{"name": "x", "kind": "numeric"}]}
    path.write_text(json.dumps(raw))
    # the CSV's cells are text, so JSON numbers name them as strings
    assert Schema.from_json(path) == Schema(
        target="y", sensitive="g", privileged_value="1", positive_label="1",
        features=(("x", "numeric"),))
    for features, message in (
            ([{"name": "x", "kind": "numeric", "unit": "cm"}],
             r"unknown schema feature keys: \['unit'\]"),
            (["x"], "schema feature must be a JSON object, got 'x'"),
            ([{"kind": "numeric"}], "feature name must be a string"),
            ({"x": "numeric"}, "features must be a list")):
        path.write_text(json.dumps({**raw, "features": features}))
        with pytest.raises(ConfigError, match=message):
            Schema.from_json(path)
    path.write_text(json.dumps({**raw, "target": None}))
    with pytest.raises(ConfigError, match="target must be a string"):
        Schema.from_json(path)
    path.write_text(json.dumps({"target": "y"}))
    with pytest.raises(ConfigError, match=r"schema requires \['sensitive'"):
        Schema.from_json(path)
    with pytest.raises(ConfigError, match="cannot read schema"):
        Schema.from_json(tmp_path / "missing.json")
