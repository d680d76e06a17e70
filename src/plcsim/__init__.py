"""Monte Carlo feasibility study of power-line front-haul for small cells.

``import plcsim`` loads the config, the errors and the traffic model (and
with them numpy), which every command needs.  The names of the deployment,
grid and simulation layers load their module on first use (PEP 562), so a
call compiles and runs only the layers it uses.
"""

__version__ = "0.1.0"

import importlib

from .config import SimulationConfig
from .errors import ConfigError, GeometryError
from .traffic import SessionSet, TrafficModel

# the public names of each module that loads on first use
_HOMES = {
    "deployment": ("CellDeployment", "deploy"),
    "gridgen": ("PowerGrid", "build_grid", "mark_served", "reachability_fraction"),
    "simulator": (
        "MetricsReport", "RateSeries", "SweepResult", "derive_seed", "run_replication", "run_sweep"
    ),
}
_LAZY = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [
    "ConfigError", "GeometryError", "SessionSet", "SimulationConfig", "TrafficModel", *_LAZY,
    "__version__",
]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _LAZY[name], __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
