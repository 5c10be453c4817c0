"""Unit constants, the configuration error with its check of numbers, and the
record base of every value type."""

from __future__ import annotations

import math
import sys

# Speed of light in fiber (refractive index ~1.5): 100 m ~ 0.5 us, 50 km ~ 0.25 ms.
PROPAGATION_SPEED_M_S = 2.0e8

# 1 KB = 1000 bytes = 8000 bits (decimal interpretation, see config reference).
BITS_PER_KB = 8000.0


class ConfigurationError(Exception):
    """Invalid topology/scenario/experiment description."""


def check_number(what: str, value, *, integer: bool = False, zero: bool = False) -> None:
    """Raise the ConfigurationError of a `value` that is not a finite JSON number
    (an integer if `integer`; a bool is neither) greater than 0, or 0 or more
    if `zero`. An integer too large for a float is refused too, since every
    number ends up in float arithmetic."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ConfigurationError(
            f"{what} must be {'an integer' if integer else 'a number'}, not {value!r}")
    if not (0 <= value if zero else 0 < value) or not value < math.inf:
        raise ConfigurationError(f"{what} must be {'>= 0' if zero else '> 0'} and finite")
    if value > sys.float_info.max:  # an integer: `10**400 < math.inf` holds
        raise ConfigurationError(f"{what} must be at most {sys.float_info.max!r}")


class Record:
    """A value type whose fields are its class's own annotations, in order.

    What the standard library's dataclasses would generate, with neither
    their import nor their per-class code generation, both of which every
    process paid at start-up. A field's class-level value is its default. The
    constructor takes fields positionally or by name, raises TypeError on an
    unknown, missing or repeated one, and then runs `__post_init__`, the
    record's checks. Records compare equal to records of the same class with
    equal fields, and pickle and print like dataclasses. Every record is
    frozen: it refuses assignment and hashes by its fields, so one holding an
    unhashable value, such as an `array`, raises TypeError on hash().
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs) -> None:
        if len(args) > len(self._fields):
            raise TypeError(f"{type(self).__name__}() takes {len(self._fields)} positional "
                            f"arguments but {len(args)} were given")
        given = dict(zip(self._fields, args))
        for key, value in kwargs.items():
            if key in given:
                raise TypeError(f"{type(self).__name__}() got multiple values for argument "
                                f"{key!r}")
            if key not in self._fields:
                raise TypeError(f"{type(self).__name__}() got an unexpected keyword argument "
                                f"{key!r}")
            given[key] = value
        missing = [key for key in self._fields if key not in given and key not in self._defaults]
        if missing:
            raise TypeError(f"{type(self).__name__}() missing required argument(s): "
                            + ", ".join(missing))
        values = self._defaults | given
        # in field order, and past __setattr__, which refuses assignment
        vars(self).update((key, values[key]) for key in self._fields)
        self.__post_init__()

    def __post_init__(self) -> None:
        """The record's checks, run by every construction."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value=None) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen "
                             f"{type(self).__name__}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields) + ")")


def fields(record) -> tuple[str, ...]:
    """The field names of a record or record class, in order."""
    return record._fields


def replace(record, **changes):
    """A copy of `record` with `changes`, built, and so checked, anew."""
    return type(record)(**{name: getattr(record, name) for name in record._fields} | changes)
