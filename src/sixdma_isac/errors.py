"""Exception types shared across the package."""

import numbers


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
    """``value`` as it is; a ConfigError naming ``name`` unless it is a real
    number (``8`` and ``0.5`` pass, ``"8"`` and ``True`` do not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} takes numbers only, got {value!r}")
    return value


class ProtocolError(RuntimeError):
    """An operation was called outside its allowed cadence or sequence."""


class SingularityError(ValueError):
    """Geometry degenerated to a point where the channel model is undefined."""


class InvariantError(RuntimeError):
    """A simulator invariant failed: the world state is inconsistent."""
