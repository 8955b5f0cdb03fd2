"""Shared exception types, the one integer rule for sizes and budgets,
and the one rule for real-valued steps and rates.

Errors caused by bad user input (malformed tables, schema violations,
impossible budgets) derive from ``InputError`` and map to CLI exit code 2;
everything else is treated as an internal error (exit code 1).
"""

import math
from numbers import Real


class AdapterQaError(Exception):
    """Base class for all toolkit errors."""


class InputError(AdapterQaError):
    """Invalid user-supplied data or configuration."""

    # The JSONL line at fault; ``data.read_jsonl`` sets it and prefixes the
    # message with ``line N: ``.
    line: int | None = None


class SchemaError(InputError):
    """A JSON document does not match the expected schema."""


def check_int(name: str, value: object, error: type[InputError] = InputError,
              allow_zero: bool = False, at_most: int | None = None) -> int:
    """The one rule for sizes, spans and budgets: an ``int`` (never a
    ``bool``) that is positive, or non-negative with ``allow_zero``, and
    at most ``at_most`` when that is given."""
    if isinstance(value, bool) or not isinstance(value, int) or value < (0 if allow_zero else 1):
        kind = "non-negative" if allow_zero else "positive"
        raise error(f"{name} must be a {kind} integer, got {value!r}")
    if at_most is not None and value > at_most:
        raise error(f"{name} must be at most {at_most}, got {value!r}")
    return value


def check_positive_real(name: str, value: object,
                        error: type[InputError] = InputError) -> float:
    """The one rule for steps and rates: a real number (never a ``bool``)
    that is finite and positive."""
    if isinstance(value, bool) or not isinstance(value, Real) or not (
            math.isfinite(value) and value > 0):
        raise error(f"{name} must be finite and positive, got {value!r}")
    return value
