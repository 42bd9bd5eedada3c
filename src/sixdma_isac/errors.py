"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A scenario or training configuration is inconsistent or infeasible."""


class ProtocolError(RuntimeError):
    """An operation was called outside its allowed cadence or sequence."""


class SingularityError(ValueError):
    """Geometry degenerated to a point where the channel model is undefined."""


class InvariantError(RuntimeError):
    """A simulator invariant failed: the world state is inconsistent."""
