"""Synthesis of low-voltage feeder grids over a cell deployment.

Each angular sector gets its own feeder subgraph rooted at the hub, built
under one of three wiring disciplines:

* ``bus``   -- a straight spine along the sector bisector with
               perpendicular service drops,
* ``tree``  -- nearest-neighbour accretion (every new cell wires to the
               closest already-connected node),
* ``chain`` -- a serpentine that walks cell to cell, branching only when
               the next hop would cross an existing wire.

Wire distance to the hub, not Euclidean distance, decides whether a cell
can be served.

A grid keeps its ``deployment`` and stores only what it adds.  Node ``i``
is cell ``node_cell[i]``, or the hub or a junction where that is -1: node
0 is the hub, then come, sector by sector, the sector's cells in id order
and its bus junctions, whose positions and sectors are ``junction_xy`` and
``junction_sector`` in node order.  So a cell node's position and sector
are its cell's by construction; ``node_xy``, ``node_kind`` (``"hub"``,
``"cell"``, ``"junction"``) and ``node_sector`` (-1 at the hub) are derived.
A bus groups a sector's cells into runs of equal spine projection; a run
gets a new junction unless one of its cells lies on the spine, and the
junctions are numbered, and the runs laid, in increasing projection.
Edge ``e`` wires node ``edges[e, 0]`` to node ``edges[e, 1]`` with
``length_m[e]`` of cable, edges listed sector by sector in the order they
were laid (for a bus: each run's spine edge, then its drops).  Per cell
(indexed by cell id) the grid holds ``wire_m``, the hub-to-cell path
length, and ``served``, set by `mark_served`; a cell's branch is its
deployment sector.

The ``tree`` and ``chain`` feeders of all sectors of all deployments
given to `build_grids` are grown in lockstep: each occupied (deployment,
sector) pair is a row of ``(rows, max_cells)`` arrays, the rows are taken
in blocks of at most ``_ROW_BLOCK``, and one numpy call serves every row
of a block.  A tree wires one more cell per row at each step; a chain is
grown in three phases (see `plcsim.chain`).  The rows do not interact, so
the result is bit-identical to growing each sector alone, whatever the
batch or the block, provided that unused cell slots hold ``+inf``
coordinates, never NaN (``argmin`` would pick a NaN), so that no padding is
ever the nearest cell.  Trees and tours compare squared distances, and
``np.hypot`` within a margin (`plcsim.nearest`), so each choice is the one
``np.hypot`` makes.  Bus spine lengths come from ``math.hypot`` on scalars,
which defines them (``np.hypot`` can differ from it in the last ulp).
The tree and chain code (`plcsim.nearest`, `plcsim.chain`) loads with the
first tree or chain build, so a bus run never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SimulationConfig
from .deployment import CellDeployment
from .errors import GeometryError


@dataclass
class PowerGrid:
    """Feeder grid over its deployment (see the module docstring)."""

    deployment: CellDeployment
    node_cell: np.ndarray
    junction_xy: np.ndarray
    junction_sector: np.ndarray
    edges: np.ndarray
    length_m: np.ndarray
    wire_m: np.ndarray
    served: np.ndarray
    n_branches: int
    forced_crossings: int = 0

    @property
    def node_xy(self) -> np.ndarray:
        d = self.deployment
        return np.concatenate((d.xy, [d.hub], self.junction_xy))[self.node_rows()]

    @property
    def node_kind(self) -> np.ndarray:
        kind = np.where(self.node_cell >= 0, "cell", "junction")
        kind[0] = "hub"
        return kind

    @property
    def node_sector(self) -> np.ndarray:
        d = self.deployment
        return np.concatenate((d.sector, [-1], self.junction_sector))[self.node_rows()]

    def node_rows(self) -> np.ndarray:
        """Each node's row in the rows of the cells, the hub, the junctions."""
        rows = self.node_cell.copy()
        own = np.flatnonzero(rows < 0)
        rows[own] = len(self.deployment.xy) + np.arange(own.size)
        return rows


# ---------------------------------------------------------------------------
# feeder builders

def build_bus(deployment: CellDeployment, config: SimulationConfig) -> PowerGrid:
    """Straight spine from the hub along each sector's bisector.

    Spine length is min(max_wire_m, furthest positive projection); every
    cell drops perpendicularly onto its (clamped) projection point t, and
    cells projecting at or behind the hub (t = 0) wire straight to it.
    The cells of a sector with equal t form a run sharing one junction: the
    run's first cell (by id) lying on the spine, or else a new junction
    node at hub + t * u.  Runs are laid sector by sector in increasing t,
    each as its spine edge from the previous junction (the hub for the
    first) and then its drops in id order.  A sector's new junctions are
    numbered after its cells, in run order.
    """
    xy, sector, n = deployment.xy, deployment.sector, len(deployment.xy)
    hub = np.array(deployment.hub, dtype=float)
    nb = config.n_branches
    by_sector, sizes = _by_sector(sector, nb)
    # the unit bisector of each occupied sector, by scalar cos and sin
    occupied = np.flatnonzero(sizes)
    bisectors = (config.sector_anchor_rad + (occupied + 0.5) * (2.0 * math.pi / nb)).tolist()
    unit = np.zeros((nb, 2))
    unit[occupied, 0] = list(map(math.cos, bisectors))
    unit[occupied, 1] = list(map(math.sin, bisectors))
    u = unit[sector]
    proj = (xy[:, 0] - hub[0]) * u[:, 0] + (xy[:, 1] - hub[1]) * u[:, 1]
    furthest = np.zeros(nb)
    np.maximum.at(furthest, sector, proj)
    t = np.clip(proj, 0.0, np.minimum(config.max_wire_m, furthest)[sector])
    foot = hub + t[:, None] * u
    drop = np.hypot(xy[:, 0] - foot[:, 0], xy[:, 1] - foot[:, 1])

    # runs of equal (sector, t), sorted by sector then t; ties keep id order
    order = np.lexsort((t, sector))
    ks, ts = sector[order], t[order]
    first = np.ones(n, dtype=bool)
    first[1:] = (ks[1:] != ks[:-1]) | (ts[1:] != ts[:-1])
    run = np.cumsum(first) - 1
    head = order[first]  # each run's first cell
    run_k, spine = sector[head], t[head] > 0.0
    on = np.flatnonzero((drop[order] == 0.0) & spine[run])
    on_runs, i = np.unique(run[on], return_index=True)
    on_cell = order[on[i]]  # each such run's first on-spine cell
    new = np.setdiff1d(np.flatnonzero(spine), on_runs, assume_unique=True)

    # node ids: the hub, then per sector its cells and its new junctions
    n_new = np.bincount(run_k[new], minlength=nb)
    node_of = np.empty(n, dtype=np.intp)
    node_of[by_sector] = np.arange(1, n + 1) + np.repeat(np.cumsum(n_new) - n_new, sizes)
    # each run's junction node and position; row -1 is the hub
    jnode = np.zeros(head.size + 1, dtype=np.intp)
    jxy = np.tile(hub, (head.size + 1, 1))
    jnode[on_runs], jxy[on_runs] = node_of[on_cell], xy[on_cell]
    # after the cells of sectors <= its own and all earlier new junctions
    jnode[new] = 1 + np.cumsum(sizes)[run_k[new]] + np.arange(new.size)
    jxy[new] = foot[head[new]]

    # per run its spine edge from the previous junction, then its drops
    # a run's predecessor in its sector is a spine run or the t = 0 (hub) run
    sp = np.flatnonzero(spine)
    prev = np.where((sp > 0) & (run_k[sp - 1] == run_k[sp]), sp - 1, -1)
    gap = (jxy[sp] - jxy[prev]).T.tolist()
    cell_node, junction = node_of[order], jnode[run]
    dropped = cell_node != junction
    laid = np.argsort(np.concatenate((2 * sp, 2 * run[dropped] + 1)), kind="stable")
    a = np.concatenate((jnode[prev], junction[dropped]))
    b = np.concatenate((jnode[sp], cell_node[dropped]))
    length = np.concatenate((list(map(math.hypot, *gap)), drop[order][dropped]))

    node_cell = np.full(1 + n + new.size, -1, dtype=np.intp)
    node_cell[node_of] = np.arange(n)
    return PowerGrid(
        deployment=deployment,
        node_cell=node_cell,
        junction_xy=jxy[new],  # new runs are in node order
        junction_sector=run_k[new],
        edges=np.column_stack((a, b))[laid],
        length_m=length[laid],
        wire_m=t + drop,
        served=np.zeros(n, dtype=bool),
        n_branches=nb,
    )


def _by_sector(sector: np.ndarray, nb: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell ids sector by sector (id order within a sector), and the number
    of cells in each sector."""
    return np.argsort(sector, kind="stable"), np.bincount(sector, minlength=nb)


# ---------------------------------------------------------------------------
# lockstep growth
#
# A grower (`nearest.grow_tree`, `chain.grow_chains`) takes node_xy,
# (rows, slots + 1, 2): the hub in slot 0, then the row's cells in id order,
# then +inf padding, rows sorted by cell count (descending) so the rows still
# growing at step k are a prefix; and filled, (rows, slots), true at the
# row's cells.  Node i is the hub for i == 0, else cell slot i - 1.  It returns
# (parent, child, length, forced): hop k of row r wires node child[r, k] to
# node parent[r, k] with length[r, k] of wire; forced[r] counts its crossings.

# rows per grower call, which bounds the (rows, slots) arrays of one call
_ROW_BLOCK = 256


def _build_feeders(deployments: list[CellDeployment], nb: int, grow) -> list[PowerGrid]:
    """Grow every sector's feeder of every deployment with `grow`.

    Each occupied (deployment, sector) pair is one row; the rows of all
    deployments, sorted by cell count, grow _ROW_BLOCK at a time."""
    cells, sizes = [], []  # per deployment: cell ids by sector, row sizes
    for d in deployments:
        ids, per_sector = _by_sector(d.sector, nb)
        cells.append(ids)
        sizes.append(per_sector[per_sector > 0])
    # cells in (deployment, sector, id) order, which is the order of their
    # nodes, and the rows as runs of that order
    flat_xy = np.concatenate([d.xy[ids] for d, ids in zip(deployments, cells)])
    size = np.concatenate(sizes)
    dep_of = np.repeat(np.arange(len(deployments)), [s.size for s in sizes])
    start = np.cumsum(size) - size
    hubs = np.array([d.hub for d in deployments], dtype=float)

    parent = np.empty(len(flat_xy), dtype=np.intp)
    child = np.empty(len(flat_xy), dtype=np.intp)
    length = np.empty(len(flat_xy))
    wire = np.empty(len(flat_xy))
    forced = np.zeros(len(deployments), dtype=np.intp)
    order = np.argsort(-size, kind="stable")
    for lo in range(0, order.size, _ROW_BLOCK):
        rows = order[lo : lo + _ROW_BLOCK]
        slots = int(size[rows[0]])
        filled = np.arange(slots) < size[rows, None]  # (row, slot)
        at = (start[rows, None] + np.arange(slots))[filled]
        node_xy = np.full((rows.size, slots + 1, 2), np.inf)
        node_xy[:, 0] = hubs[dep_of[rows]]
        node_xy[:, 1:][filled] = flat_xy[at]
        p, c, h, f = grow(node_xy, filled)
        parent[at], child[at], length[at] = p[filled], c[filled], h[filled]
        wire[at] = _wire(p, c, h, filled.sum(axis=0).tolist())[:, 1:][filled]
        np.add.at(forced, dep_of[rows], f)

    # a row's node i is its deployment's node i + (cells in earlier sectors)
    n = np.array([ids.size for ids in cells], dtype=np.intp)
    first = np.cumsum(n) - n
    offset = np.repeat(start - first[dep_of], size)
    parent = np.where(parent == 0, 0, parent + offset)
    child += offset
    grids = []
    for d, ids, lo, hi, f in zip(
        deployments, cells, first.tolist(), (first + n).tolist(), forced.tolist()
    ):
        wire_m = np.empty(hi - lo)
        wire_m[ids] = wire[lo:hi]
        grids.append(
            PowerGrid(
                deployment=d,
                node_cell=np.concatenate(([-1], ids)),
                junction_xy=np.empty((0, 2)),
                junction_sector=np.empty(0, dtype=np.intp),
                edges=np.column_stack((parent[lo:hi], child[lo:hi])),
                length_m=length[lo:hi],
                wire_m=wire_m,
                served=np.zeros(hi - lo, dtype=bool),
                n_branches=nb,
                forced_crossings=f,
            )
        )
    return grids


def _wire(parent, child, length, lives: list[int]) -> np.ndarray:
    """Wire distance of each (row, node), summed in hop order."""
    rows, slots = parent.shape
    at = np.arange(rows)[:, None] * (slots + 1)  # flat (row, node) indices
    pT, cT, hT = (parent + at).T.copy(), (child + at).T.copy(), length.T.copy()
    w = np.zeros(rows * (slots + 1))
    for k, live in enumerate(lives):
        w.put(cT[k, :live], w.take(pT[k, :live]) + hT[k, :live])
    return w.reshape(rows, slots + 1)


# ---------------------------------------------------------------------------
# whole-grid assembly

def build_grid(deployment: CellDeployment, config: SimulationConfig) -> PowerGrid:
    """Build every sector's feeder under config.topology.

    Sectors are convex for n_branches >= 2, so wires from different
    sectors cannot cross; the merged graph stays a tree rooted at the hub.
    """
    return build_grids([deployment], config)[0]


def build_grids(deployments: list[CellDeployment], config: SimulationConfig) -> list[PowerGrid]:
    """build_grid of each deployment, the tree or chain feeders of all of
    them grown in one lockstep; each grid is the one build_grid gives."""
    nb = config.n_branches
    for deployment in deployments:
        if any(math.isnan(v) for v in deployment.hub):
            raise GeometryError("deployment has no hub position")
        sector = deployment.sector
        unlabelled = np.flatnonzero((sector < 0) | (sector >= nb))
        if unlabelled.size:
            raise GeometryError(
                "cell %d has no valid sector label (run assign_sectors first)"
                % unlabelled[0]
            )
    if config.topology == "bus":
        return [build_bus(deployment, config) for deployment in deployments]
    if config.topology == "tree":
        from .nearest import grow_tree as grow
    else:
        from .chain import grow_chains as grow
    return _build_feeders(deployments, nb, grow)


def mark_served(
    grid: PowerGrid, max_wire_m: float, max_cells_per_branch: int
) -> PowerGrid:
    """Flag the served cells: wire distance within reach, and within the
    per-branch fan-out cap (nearest first, ties by cell id)."""
    # lexsort is stable, so equal (branch, wire) keys stay in cell id order
    ranked = np.lexsort((grid.wire_m, grid.deployment.sector))
    ranked = ranked[grid.wire_m[ranked] <= max_wire_m]
    branch = grid.deployment.sector[ranked]
    rank = np.arange(ranked.size) - np.searchsorted(branch, branch)
    grid.served = np.zeros(grid.wire_m.size, dtype=bool)
    grid.served[ranked[rank < max_cells_per_branch]] = True
    return grid


def reachability_fraction(grid: PowerGrid) -> float | None:
    """Served fraction of all cells; None for an empty deployment."""
    n = grid.served.size
    if n == 0:
        return None
    return int(np.count_nonzero(grid.served)) / n


def __getattr__(name: str):
    # test_acceptance.py imports chain.crosses_any from here; loading it on
    # first use keeps the chain code out of bus runs
    if name == "_crosses_any":
        from .chain import crosses_any

        return crosses_any
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
