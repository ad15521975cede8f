"""Guided local feature matching at desk scale.

A coarse image matcher (4D correlation volume filtered by a trainable
consensus network) constrains local keypoint matching, backed by a small
reverse-mode autodiff core, a synthetic calibrated-scene generator, robust
two-view pose estimation, and an evaluation CLI.
"""

import numbers

__version__ = "0.1.0"


class ConfigError(ValueError):
    """A bad setting, where a plain ``ValueError`` is bad data. Library entries and
    config dataclasses check their settings before any work; the CLI exits 1 on it."""


def check_count(value, name: str) -> None:
    """The rule on a count setting: a ``ConfigError`` unless ``value`` is an integer >= 1 (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")


def check_seed(value, name: str) -> None:
    """The rule on a seed, or any setting that may be 0 or more: a ``ConfigError``
    unless ``value`` is an integer >= 0 (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ConfigError(f"{name} must be an integer >= 0, got {value!r}")
