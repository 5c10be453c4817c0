"""Unit constants, and the configuration error with its check of numbers."""

from __future__ import annotations

import math

# Speed of light in fiber (refractive index ~1.5): 100 m ~ 0.5 us, 50 km ~ 0.25 ms.
PROPAGATION_SPEED_M_S = 2.0e8

# 1 KB = 1000 bytes = 8000 bits (decimal interpretation, see config reference).
BITS_PER_KB = 8000.0


class ConfigurationError(Exception):
    """Invalid topology/scenario/experiment description."""


def check_number(what: str, value, *, integer: bool = False, zero: bool = False) -> None:
    """Raise the ConfigurationError of a `value` that is not a finite JSON number
    (an integer if `integer`; a bool is neither) greater than 0, or 0 or more
    if `zero`."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ConfigurationError(
            f"{what} must be {'an integer' if integer else 'a number'}, not {value!r}")
    if not (0 <= value if zero else 0 < value) or not value < math.inf:
        raise ConfigurationError(f"{what} must be {'>= 0' if zero else '> 0'} and finite")
