"""What a valid setting value is, for configs, checkpoint manifests and the
command line. ``RULES`` maps each rule's phrase ("an integer >= 1") to its
test; ``check`` raises ``ConfigError`` "<name> must be <rule>, got <value>".
A dataclass declares each setting once with its default and its rule
(``setting``), and ``check_fields`` checks them all. A bool is never a
number: JSON reads ``true`` as one, and Python counts it as the integer 1.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

__all__ = ["ConfigError", "RULES", "BUCKETS", "check", "setting", "check_fields"]


class ConfigError(ValueError):
    """A setting that breaks its rule, or an invalid experiment config."""


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _finite(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


# a hash bucket count: ids, PAD (= the count) included, are int64, and an
# embedding table has one row per id
BUCKETS = "an integer >= 2 and below 2**63 - 1"

RULES = {
    "an integer >= 0": lambda v: _integer(v) and v >= 0,
    "an integer >= 1": lambda v: _integer(v) and v >= 1,
    "an integer >= 2": lambda v: _integer(v) and v >= 2,
    BUCKETS: lambda v: _integer(v) and 2 <= v < 2**63 - 1,
    "a finite number >= 0": lambda v: _finite(v) and v >= 0,
    "a finite number > 0": lambda v: _finite(v) and v > 0,
    "a string": lambda v: isinstance(v, str),
    "true or false": lambda v: isinstance(v, bool),
    "an object": lambda v: isinstance(v, dict),
}


def check(name: str, value, rule: str):
    """``value`` if it passes ``rule``, else a ``ConfigError`` naming it."""
    if not RULES[rule](value):
        raise ConfigError(f"{name} must be {rule}, got {value!r}")
    return value


def setting(default, rule: str):
    """A dataclass field with its default and the rule of its values."""
    return dataclasses.field(default=default, metadata={"rule": rule})


def check_fields(obj) -> None:
    """Check every field of the dataclass ``obj`` against its rule."""
    for field in dataclasses.fields(obj):
        check(field.name, getattr(obj, field.name), field.metadata["rule"])
