"""Exception types shared across the package, and the one pass over a config's fields."""

import math
import numbers
from collections.abc import Iterable
from dataclasses import fields

import numpy as np


class ConfigError(ValueError):
    """A scenario or training configuration is inconsistent or infeasible."""


def whole_number(value, name: str) -> int:
    """``value`` as an int; a ConfigError naming ``name`` unless it is a
    whole number (``2`` and ``2.0`` pass, ``2.5``, ``"2"`` and ``True`` do not)."""
    try:
        number = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value:
        raise ConfigError(f"{name} takes whole numbers only, got {value!r}")
    return number


def real_number(value, name: str):
    """``value`` as it is; a ConfigError naming ``name`` unless it is a finite
    real number (``8`` and ``0.5`` pass, ``"8"``, ``True`` and ``nan`` do not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} takes numbers only, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return value


def real_array(value, shape: tuple, name: str, error: type[ValueError] = ConfigError) -> np.ndarray:
    """``value`` as a float array; an ``error`` naming ``name`` unless it
    has ``shape`` and finite entries only.  Config fields take the default;
    geometry, whose values are also built while a run acts, passes ValueError."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise error(f"{name} takes numbers only, got {value!r}") from None
    if array.shape != shape:
        raise error(f"{name} must have shape {shape}, got {array.shape}")
    if not np.all(np.isfinite(array)):
        raise error(f"{name} must be finite, got {array.tolist()}")
    return array


def check_ranges(values, ranges: dict) -> None:
    """ConfigError naming the first setting of the mapping ``values`` that
    fails its ``(test, rule)`` entry of ``ranges``; a setting that is absent
    or None is not tested."""
    for name, (within, rule) in ranges.items():
        value = values.get(name)
        if value is not None and not within(value):
            raise ConfigError(f"{name} must {rule}, got {value!r}")


def _coerce(value, kind: str, name: str):
    if kind.endswith(" | None"):
        return None if value is None else _coerce(value, kind.removesuffix(" | None"), name)
    if kind.startswith("tuple["):  # tuple[<kind>, ...]
        if isinstance(value, str) or not isinstance(value, Iterable):
            raise ConfigError(f"{name} takes a list, got {value!r}")
        return tuple(_coerce(v, kind[len("tuple["):-len(", ...]")], name) for v in value)
    if kind == "bool" and not isinstance(value, bool):
        raise ConfigError(f"{name} takes true or false only, got {value!r}")
    coerce = {"int": whole_number, "float": real_number}.get(kind)
    return value if coerce is None else coerce(value, name)


def check_fields(config, ranges: dict) -> None:
    """Coerce each field of the frozen dataclass ``config`` by its annotation
    as written (``int``, ``float``, ``bool``, ``tuple[<kind>, ...]``,
    ``<kind> | None``; others are left to the config), then
    :func:`check_ranges` the fields against ``ranges``."""
    for f in fields(config):
        object.__setattr__(config, f.name, _coerce(getattr(config, f.name), f.type, f.name))
    check_ranges(vars(config), ranges)


class ProtocolError(RuntimeError):
    """An operation was called outside its allowed cadence or sequence."""


class SingularityError(ValueError):
    """Geometry degenerated to a point where the channel model is undefined."""


class InvariantError(RuntimeError):
    """A simulator invariant failed: the world state is inconsistent."""
