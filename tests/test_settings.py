"""The package's shared rules on count and seed settings."""

import re

import numpy as np
import pytest

from guidematch import ConfigError, check_count, check_seed


@pytest.mark.parametrize("value", [0, 1, 2**40, np.int64(3)])
def test_seed_rule_accepts_every_integer_of_at_least_zero(value):
    check_seed(value, "seed")


@pytest.mark.parametrize("value", [-1, 1.5, 2.0, True, False, "0", None, np.float64(1.0)])
def test_seed_rule_rejects_anything_else_naming_the_setting(value):
    with pytest.raises(ConfigError, match=re.escape(f"--seed must be an integer >= 0, got {value!r}")):
        check_seed(value, "--seed")


@pytest.mark.parametrize("value", [0, -3, 2.0, True, np.float64(4.0)])
def test_count_rule_rejects_anything_but_an_integer_of_at_least_one(value):
    with pytest.raises(ConfigError, match=re.escape(f"max_count must be an integer >= 1, got {value!r}")):
        check_count(value, "max_count")
