"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, NumericsError
(and subclasses) -> 3, OSError -> 4; it also maps MemoryError to 3.
"""


class ConfigError(ValueError):
    """Invalid run configuration, preset name, or config file."""


class DimensionError(ValueError):
    """Matrix or vector shape outside the supported 2/4-dimensional set."""


class NumericsError(RuntimeError):
    """A numerical routine produced an unusable result."""


class IntegrationError(NumericsError):
    """An integration failed: the decay-integral quadrature cannot reach its
    tolerance (the rate overflows), or the RK4 oracle's trace drifted or its
    gains overflowed to a non-finite state entry."""


class StateError(NumericsError):
    """A density matrix violated hermiticity, trace, or positivity bounds."""
