"""Exception types shared across the simulator."""


class ConfigError(ValueError):
    """Raised when a scenario configuration violates a documented bound."""


class GeometryError(ValueError):
    """Raised for degenerate geometric input (zero-length segments and the like)."""
