"""Random small-cell deployments on a square service area.

Cell sites form a binomial point process: the number of cells is fixed by
the requested density and the per-cell coverage footprint, positions are
drawn uniformly over the square.  Each cell is then binned into one of
``n_branches`` equal angular sectors around the hub.

A deployment is a set of arrays indexed by cell id: ``xy[n, 2]`` holds the
positions and ``sector[n]`` the sector labels; ``hub`` is one ``(x, y)``
pair and ``radius_m`` the footprint radius every cell shares.  Two rules
keep every layout identical to the one the seed has always produced:

* the draws come in a fixed order: the hub first (``uniform`` hub mode
  only), then all x coordinates, then all y coordinates.  Drawing one
  ``(n, 2)`` array instead would interleave x and y;
* sector angles come from ``math.atan2`` on Python floats, not
  ``np.arctan2``, which can differ from it in the last ulp and so move a
  cell that sits on a sector boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SimulationConfig

# guards the floor() against products like 0.6 * 490000 / 400 landing one
# float ulp below the exact integer
_COUNT_EPS = 1e-9

_TWO_PI = 2.0 * math.pi


@dataclass
class CellDeployment:
    """Hub position, cell positions ``xy[n, 2]`` and sector labels
    ``sector[n]``; cell ``i`` is row ``i``."""

    hub: tuple[float, float]
    xy: np.ndarray
    sector: np.ndarray
    radius_m: float


def cell_count(density: float, side_m: float, cell_area_m2: float) -> int:
    """Deterministic cell count: floor(density * side^2 / cell_area)."""
    raw = density * side_m * side_m / cell_area_m2
    return int(math.floor(raw + _COUNT_EPS))


def place_cells(count: int, side_m: float, rng: np.random.Generator) -> np.ndarray:
    """Positions ``(count, 2)`` drawn uniformly on [0, side_m]^2: all x
    coordinates first, then all y coordinates."""
    xs = rng.uniform(0.0, side_m, size=count)
    ys = rng.uniform(0.0, side_m, size=count)
    return np.column_stack((xs, ys))


def place_hub(config: SimulationConfig, rng: np.random.Generator) -> tuple[float, float]:
    """Hub coordinates: square center, or uniform-random when configured."""
    if config.hub_mode == "center":
        return config.side_m / 2.0, config.side_m / 2.0
    x = float(rng.uniform(0.0, config.side_m))
    y = float(rng.uniform(0.0, config.side_m))
    return x, y


def assign_sectors(
    xy: np.ndarray,
    hub: tuple[float, float],
    n_branches: int,
    anchor_rad: float = 0.0,
) -> np.ndarray:
    """Sector label of every cell: a half-open angular sector about the hub.

    Sector k covers angles [anchor + k*w, anchor + (k+1)*w) with
    w = 2*pi/n_branches; a cell exactly on the hub gets sector 0.
    """
    width = _TWO_PI / n_branches
    dx = xy[:, 0] - hub[0]
    dy = xy[:, 1] - hub[1]
    theta = np.array(list(map(math.atan2, dy.tolist(), dx.tolist())))
    theta = (theta - anchor_rad) % _TWO_PI
    # float division can round exactly up to n_branches when theta sits
    # one ulp below 2*pi
    labels = np.minimum((theta / width).astype(np.intp), n_branches - 1)
    labels[(dx == 0.0) & (dy == 0.0)] = 0
    return labels


def deploy(config: SimulationConfig, rng: np.random.Generator) -> CellDeployment:
    """Full deployment pipeline: hub, cells, sector assignment."""
    hub = place_hub(config, rng)
    n = cell_count(config.density, config.side_m, config.cell_area_m2)
    xy = place_cells(n, config.side_m, rng)
    sector = assign_sectors(xy, hub, config.n_branches, config.sector_anchor_rad)
    return CellDeployment(hub, xy, sector, math.sqrt(config.cell_area_m2 / math.pi))
