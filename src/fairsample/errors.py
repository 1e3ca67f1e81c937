"""Exception hierarchy and the config checks shared across the toolkit.

ConfigError maps to CLI exit code 2, DataError to 3; any other exception
escaping the library is an internal error, which the CLI reports with its
traceback as exit code 4.  Config dataclasses declare each field's type
once, and check_fields enforces it.
"""

import dataclasses
import json
import math
import numbers
import typing

import numpy as np


class FairsampleError(Exception):
    pass


class ConfigError(FairsampleError):
    """Invalid configuration, schema, or parameter combination."""


class DataError(FairsampleError):
    """Input data violates a documented precondition (bad CSV, empty group,
    exhausted sampling pool, undersized stratum, ...)."""


def check_type(name, value, types, what):
    """Raise a ConfigError naming value unless it is one of types."""
    if not isinstance(value, types):
        raise ConfigError(f"{name} must be {what}, got {value!r}")


def check_integer(name, value):
    """Raise a ConfigError naming value unless it is an integer (a Python
    or numpy int, not a bool) in the int64 range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if not -2**63 <= value < 2**63:
        raise ConfigError(
            f"{name} must be within the int64 range, got {value!r}")


def check_finite(name, value):
    """Raise a ConfigError naming value unless it is a finite real number
    (a Python or numpy int or float, not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be finite, got {value!r}")


# the rule per declared type; JSON has no tuples, so a tuple takes a list
_RULES = {
    int: check_integer,
    float: check_finite,
    bool: lambda n, v: check_type(n, v, (bool, np.bool_), "true or false"),
    str: lambda n, v: check_type(n, v, str, "a string"),
    tuple: lambda n, v: check_type(n, v, (tuple, list), "a list"),
}


def check_fields(obj):
    """Check each field of the config dataclass obj against its declared
    type; a type with no rule is a TypeError, so no field goes unchecked."""
    types = typing.get_type_hints(type(obj))  # annotations may be strings
    for f in dataclasses.fields(obj):
        kind, value = types[f.name], getattr(obj, f.name)
        if kind in _RULES:
            _RULES[kind](f.name, value)
        elif dataclasses.is_dataclass(kind):
            check_type(f.name, value, kind, f"a {kind.__name__}")
        else:
            raise TypeError(f"no rule for {type(obj).__name__}.{f.name}")


def read_json(path, what):
    """The JSON value in the file at path; what names the file in errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON or not UTF-8
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def check_keys(raw, allowed, context):
    """raw, once it is a JSON object with no key outside allowed."""
    check_type(context, raw, dict, "a JSON object")
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")
    return raw


def build(cls, raw, context, defaults=None, **given):
    """The config dataclass cls from raw, the JSON object (or null) of the
    config section named context.  given fixes fields the section may not
    name; defaults fill fields it leaves out.  A JSON list becomes a tuple
    for a tuple field, and a field with no default must be present."""
    fields = dataclasses.fields(cls)
    raw = check_keys({} if raw is None else raw,
                     [f.name for f in fields if f.name not in given], context)
    values = {**(defaults or {}), **raw, **given}
    missing = [f.name for f in fields if f.name not in values
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{context} requires {missing}")
    types = typing.get_type_hints(cls)
    return cls(**{k: tuple(v) if types[k] is tuple and isinstance(v, list)
                  else v for k, v in values.items()})
