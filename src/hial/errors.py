"""Exception hierarchy shared across the package."""

import operator


class HialError(Exception):
    """Base class for all errors raised by this package."""


class DataError(HialError):
    """Malformed or inconsistent input data (files, edge lists, features)."""


class ConfigError(HialError):
    """Invalid or degenerate configuration (parameter out of range, etc.)."""


def check_integer(name: str, value) -> None:
    try:  # any integer type, numpy's included
        operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
