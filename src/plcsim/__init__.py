"""Monte Carlo feasibility study of power-line front-haul for small cells."""

__version__ = "0.1.0"

from .config import SimulationConfig
from .deployment import CellDeployment, deploy
from .errors import ConfigError, GeometryError
from .gridgen import PowerGrid, build_grid, mark_served, reachability_fraction
from .simulator import (
    MetricsReport,
    RateSeries,
    SweepResult,
    derive_seed,
    run_replication,
    run_sweep,
)
from .traffic import SessionSet, TrafficModel

__all__ = [
    "CellDeployment",
    "ConfigError",
    "GeometryError",
    "MetricsReport",
    "PowerGrid",
    "RateSeries",
    "SessionSet",
    "SimulationConfig",
    "SweepResult",
    "TrafficModel",
    "build_grid",
    "deploy",
    "derive_seed",
    "mark_served",
    "reachability_fraction",
    "run_replication",
    "run_sweep",
    "__version__",
]
