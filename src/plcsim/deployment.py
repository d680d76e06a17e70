"""Random small-cell deployments on a square service area.

Cell sites form a binomial point process: the number of cells is fixed by
the requested density and the per-cell coverage footprint, positions are
drawn uniformly over the square, on a lattice of 2^26 points per axis
(spacing ``side_m / 2**26``): a uniform double U becomes the lattice
coordinate floor(U * 2^26), and the centre hub sits at 2^25.  Each cell is
then binned into one of ``n_branches`` equal angular sectors around the hub.

A deployment is a set of arrays indexed by cell id: ``q[n, 2]`` holds the
lattice positions and ``sector[n]`` the sector labels; ``hub_q`` is one
``(x, y)`` pair and ``radius_m`` the footprint radius every cell shares.
Metres derive from the lattice (q * spacing), never the other way round,
so every squared distance and orientation of the points is an exact
integer in float64 (`plcsim.gridgen`), whatever ``side_m`` is.  Two rules
fix every layout:

* the draws come in a fixed order: the hub first (``uniform`` hub mode
  only), then all x coordinates, then all y coordinates.  Drawing one
  ``(n, 2)`` array instead would interleave x and y;
* sector angles come from ``math.atan2`` on Python floats of the lattice
  differences, not ``np.arctan2``, which can differ from it in the last
  ulp and so move a cell that sits on a sector boundary.
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

# lattice points per axis: coordinate differences stay below 2^26, so their
# squares and orientation products below 2^52 and sums of two below 2^53
LATTICE = 2**26


@dataclass
class CellDeployment:
    """Hub ``hub_q``, cells ``q[n, 2]`` and sector labels ``sector[n]`` (cell
    ``i`` is row ``i``): integer lattice coordinates, any two less than 2^26
    apart on each axis, in units of ``spacing_m``; ``hub`` and ``xy`` in metres."""

    hub_q: tuple[float, float]
    q: np.ndarray
    sector: np.ndarray
    radius_m: float
    spacing_m: float = 1.0

    @property
    def hub(self) -> tuple[float, float]:
        return self.hub_q[0] * self.spacing_m, self.hub_q[1] * self.spacing_m

    @property
    def xy(self) -> np.ndarray:
        return self.q * self.spacing_m


def cell_count(density: float, side_m: float, cell_area_m2: float) -> int:
    """Deterministic cell count: floor(density * side^2 / cell_area)."""
    raw = density * side_m * side_m / cell_area_m2
    return int(math.floor(raw + _COUNT_EPS))


def _lattice(u: np.ndarray) -> np.ndarray:
    """floor(u * 2^26) in place, exact: the product only shifts u's exponent."""
    return np.floor(np.multiply(u, LATTICE, out=u), out=u)


def place_cells(count: int, rng: np.random.Generator) -> np.ndarray:
    """Lattice positions ``(count, 2)``, as int32, of the doubles that
    ``uniform(0, side_m)`` would draw: all x coordinates first, then all y."""
    x, y = (_lattice(rng.random(count)).astype(np.int32) for _ in "xy")
    return np.column_stack((x, y))


def place_hub(config: SimulationConfig, rng: np.random.Generator) -> tuple[float, float]:
    """Hub lattice position: the square's centre, or uniform-random when
    configured."""
    if config.hub_mode == "center":
        return LATTICE / 2, LATTICE / 2
    return tuple(_lattice(rng.random(2)).tolist())


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
    q = place_cells(n, rng)
    sector = assign_sectors(q, hub, config.n_branches, config.sector_anchor_rad)
    radius = math.sqrt(config.cell_area_m2 / math.pi)
    return CellDeployment(hub, q, sector, radius, config.side_m / LATTICE)
