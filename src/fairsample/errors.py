"""Exception hierarchy shared across the toolkit.

ConfigError maps to CLI exit code 2, DataError to 3; anything else escaping
the library is treated as an internal invariant violation (exit 4).
"""

import numbers


class FairsampleError(Exception):
    pass


class ConfigError(FairsampleError):
    """Invalid configuration, schema, or parameter combination."""


class DataError(FairsampleError):
    """Input data violates a documented precondition (bad CSV, empty group,
    exhausted sampling pool, undersized stratum, ...)."""


def check_integer(name, value):
    """Raise a ConfigError naming value unless it is an integer (a Python
    or numpy int, not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def check_real(name, value):
    """Raise a ConfigError naming value unless it is a real number (a
    Python or numpy int or float, not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
