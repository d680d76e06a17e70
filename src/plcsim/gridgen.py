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

The ``tree`` and ``chain`` feeders of all sectors are grown in lockstep:
sector ``s`` is row ``s`` of ``(n_sectors, max_cells)`` arrays, and each
step wires one more cell in every sector that still has one, so one numpy
call serves every sector.  The sectors do not interact, so the result is
bit-identical to growing them one at a time, provided that

* unused cell slots hold ``+inf`` coordinates, never NaN (``argmin``
  would pick a NaN), so a padded slot is never the nearest cell, and
  unused edge slots hold NaN, whose comparisons are all False, so a
  padded edge never crosses or touches a wire;
* chain hop lengths come from ``math.hypot`` on scalars, which defines
  them (``np.hypot`` can differ from it in the last ulp); tree hop
  lengths are the ``np.hypot`` distances its nearest-node search holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import SimulationConfig
from .deployment import Cell, CellDeployment
from .errors import GeometryError

Point = tuple[float, float]

@dataclass
class GridNode:
    id: int
    x_m: float
    y_m: float
    kind: str  # "hub" | "cell" | "junction"
    cell_id: int | None = None
    sector: int | None = None


@dataclass
class GridEdge:
    a: int
    b: int
    length_m: float


@dataclass
class PowerGrid:
    nodes: list[GridNode] = field(default_factory=list)
    edges: list[GridEdge] = field(default_factory=list)
    hub_node: int = 0
    n_branches: int = 1
    wire_distance_m: dict[int, float] = field(default_factory=dict)
    branch_of: dict[int, int] = field(default_factory=dict)
    served: dict[int, bool] = field(default_factory=dict)
    forced_crossings: int = 0


# ---------------------------------------------------------------------------
# segment crossing

def _in_box(px: float, py: float, ax: float, ay: float, bx: float, by: float) -> bool:
    """Point p within the bounding box of segment ab."""
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def _crosses_any(
    s: np.ndarray, t: np.ndarray, ea: np.ndarray, eb: np.ndarray
) -> np.ndarray:
    """Row-wise crossing test: does wire s[i]-t[i] cross any wire ea[i, j]-eb[i, j]?

    ``s`` and ``t`` are ``(rows, 2)``, ``ea`` and ``eb`` ``(rows, edges, 2)``;
    returns one bool per row.  Two closed segments cross when they share a
    point that is not an endpoint of both: a proper crossing, a T-contact
    or a collinear overlap.  Wires that only meet at a common endpoint do
    not cross.  NaN edge slots never cross.
    """
    sx, sy = s[:, 0:1], s[:, 1:2]
    tx, ty = t[:, 0:1], t[:, 1:2]
    ax, ay = ea[..., 0], ea[..., 1]
    bx, by = eb[..., 0], eb[..., 1]

    abx = bx - ax
    aby = by - ay
    d1 = abx * (sy - ay) - aby * (sx - ax)
    d2 = abx * (ty - ay) - aby * (tx - ax)
    stx = tx - sx
    sty = ty - sy
    d3 = stx * (ay - sy) - sty * (ax - sx)
    d4 = stx * (by - sy) - sty * (bx - sx)

    proper = (np.sign(d1) * np.sign(d2) < 0) & (np.sign(d3) * np.sign(d4) < 0)
    hit = proper.any(axis=1)
    # Every contact other than a proper crossing has a zero orientation.
    # Those pairs are rare apart from wires sharing an endpoint, so the
    # endpoint rules run on them one by one.
    zero = (d1 == 0) | (d2 == 0) | (d3 == 0) | (d4 == 0)
    r, j = np.nonzero(zero & ~hit[:, None])
    if r.size:
        s_rows, t_rows = s.tolist(), t.tolist()
        for i, e in zip(r.tolist(), j.tolist()):
            px, py = s_rows[i]
            qx, qy = t_rows[i]
            ax, ay = ea[i, e].tolist()
            bx, by = eb[i, e].tolist()
            p_is_a = px == ax and py == ay
            p_is_b = px == bx and py == by
            q_is_a = qx == ax and qy == ay
            q_is_b = qx == bx and qy == by
            if (
                (p_is_a and q_is_b)
                or (p_is_b and q_is_a)
                or (
                    d1[i, e] == 0
                    and not (p_is_a or p_is_b)
                    and _in_box(px, py, ax, ay, bx, by)
                )
                or (
                    d2[i, e] == 0
                    and not (q_is_a or q_is_b)
                    and _in_box(qx, qy, ax, ay, bx, by)
                )
                or (
                    d3[i, e] == 0
                    and not (p_is_a or q_is_a)
                    and _in_box(ax, ay, px, py, qx, qy)
                )
                or (
                    d4[i, e] == 0
                    and not (p_is_b or q_is_b)
                    and _in_box(bx, by, px, py, qx, qy)
                )
            ):
                hit[i] = True
    return hit


# ---------------------------------------------------------------------------
# per-sector builders

def _empty_sector_grid(hub: Point) -> PowerGrid:
    return PowerGrid(nodes=[GridNode(0, hub[0], hub[1], "hub")], edges=[])


def _cell_xy(cells: list[Cell]) -> np.ndarray:
    return np.array([[c.x_m, c.y_m] for c in cells], dtype=float)


def build_bus(
    sector_cells: list[Cell],
    hub: Point,
    bisector_rad: float,
    max_wire_m: float,
) -> PowerGrid:
    """Straight spine from the hub along the sector bisector.

    Spine length is min(max_wire_m, furthest positive projection); every
    cell drops perpendicularly onto its (clamped) projection point, and
    cells projecting at or behind the hub wire straight to the hub.
    """
    cells = sorted(sector_cells, key=lambda c: c.id)
    grid = _empty_sector_grid(hub)
    if not cells:
        return grid

    hx, hy = hub
    ux = math.cos(bisector_rad)
    uy = math.sin(bisector_rad)
    xy = _cell_xy(cells)
    proj = (xy[:, 0] - hx) * ux + (xy[:, 1] - hy) * uy
    positive = proj[proj > 0.0]
    spine_len = min(max_wire_m, float(positive.max())) if positive.size else 0.0
    t = np.clip(proj, 0.0, spine_len)
    attach_x = hx + t * ux
    attach_y = hy + t * uy
    drop = np.hypot(xy[:, 0] - attach_x, xy[:, 1] - attach_y)

    nodes = grid.nodes
    edges = grid.edges
    cell_node = {}
    for i, c in enumerate(cells):
        node = GridNode(len(nodes), c.x_m, c.y_m, "cell", cell_id=c.id)
        nodes.append(node)
        cell_node[i] = node.id
        grid.wire_distance_m[c.id] = float(t[i] + drop[i])

    for i in np.flatnonzero(t == 0.0):
        edges.append(GridEdge(0, cell_node[int(i)], float(drop[i])))

    prev = 0
    for tv in np.unique(t[t > 0.0]):
        group = np.flatnonzero(t == tv)
        on_spine = [int(i) for i in group if drop[i] == 0.0]
        if on_spine:
            junction = cell_node[on_spine[0]]
            hang = [int(i) for i in group if int(i) != on_spine[0]]
        else:
            junction = len(nodes)
            nodes.append(
                GridNode(junction, float(hx + tv * ux), float(hy + tv * uy), "junction")
            )
            hang = [int(i) for i in group]
        jx, jy = nodes[junction].x_m, nodes[junction].y_m
        px, py = nodes[prev].x_m, nodes[prev].y_m
        edges.append(GridEdge(prev, junction, math.hypot(jx - px, jy - py)))
        for i in hang:
            edges.append(GridEdge(junction, cell_node[i], float(drop[i])))
        prev = junction

    return grid


def build_tree(sector_cells: list[Cell], hub: Point) -> PowerGrid:
    """Accretion tree: repeatedly wire the unconnected cell closest to any
    already-connected node (ties: lower cell id; equidistant targets:
    earliest-connected node)."""
    return _sector_grid(sector_cells, hub, _grow_trees)


def build_chain(sector_cells: list[Cell], hub: Point) -> PowerGrid:
    """Serpentine chain: keep extending from the last-wired cell to the
    nearest unconnected cell; when that hop would cross an existing wire,
    branch from the candidate's nearest crossing-free node instead.

    If every attachment would cross (possible only in pathological
    layouts), the nearest node is used anyway and the grid's
    forced_crossings counter is bumped.
    """
    return _sector_grid(sector_cells, hub, _grow_chains)


# ---------------------------------------------------------------------------
# lockstep growth
#
# A grower takes node_xy, (rows, slots + 1, 2): the hub in slot 0, then the
# row's cells in id order, then +inf padding, with rows sorted by cell count
# (descending) so the rows still growing at step k are a prefix; and lives,
# that prefix length per step.  Node i is the hub for i == 0, else cell
# slot i - 1.  Hop k of row r wires node child[r, k] to node parent[r, k]
# with a wire of length[r, k]; wire[r, i] is node i's wire distance and
# forced[r] the row's forced crossings.

def _add_feeders(
    grid: PowerGrid, sectors: list[list[Cell]], hub: Point, grow, labels: bool
) -> None:
    """Grow every sector's feeder with `grow` in lockstep and append them
    to `grid`, sector by sector; nodes get their sector number as label
    when `labels` is set."""
    cells = [sorted(s, key=lambda c: c.id) for s in sectors]
    sizes = np.array([len(c) for c in cells], dtype=np.intp)
    order = np.argsort(-sizes, kind="stable")
    slots = int(sizes.max(initial=0))
    node_xy = np.full((len(cells), slots + 1, 2), np.inf)
    node_xy[:, 0] = hub
    for row, k in enumerate(order.tolist()):
        if cells[k]:
            node_xy[row, 1 : sizes[k] + 1] = _cell_xy(cells[k])
    lives = (sizes[order] > np.arange(slots)[:, None]).sum(axis=1).tolist()
    parent, child, length, wire, forced = grow(node_xy, lives)

    for k, row in enumerate(np.argsort(order).tolist()):
        n = int(sizes[k])
        offset = len(grid.nodes) - 1
        sector = k if labels else None
        for c in cells[k]:
            node = GridNode(len(grid.nodes), c.x_m, c.y_m, "cell", c.id, sector)
            grid.nodes.append(node)
        hops = zip(
            parent[row, :n].tolist(),
            child[row, :n].tolist(),
            length[row, :n].tolist(),
            wire[row, child[row, :n]].tolist(),
        )
        for a, b, hop, dist in hops:
            grid.edges.append(GridEdge(a + offset if a else 0, b + offset, hop))
            grid.wire_distance_m[cells[k][b - 1].id] = dist
        grid.forced_crossings += int(forced[row])


def _sector_grid(sector_cells: list[Cell], hub: Point, grow) -> PowerGrid:
    grid = _empty_sector_grid(hub)
    _add_feeders(grid, [sector_cells], hub, grow, labels=False)
    return grid


def _grow_trees(node_xy: np.ndarray, lives: list[int]):
    rows, slots = node_xy.shape[0], node_xy.shape[1] - 1
    xy = node_xy[:, 1:]
    hub = node_xy[:, 0]
    dist = np.hypot(xy[..., 0] - hub[:, 0:1], xy[..., 1] - hub[:, 1:2])
    nearest = np.zeros((rows, slots), dtype=np.intp)
    connected = np.zeros((rows, slots), dtype=bool)
    wire = np.zeros((rows, slots + 1))
    parent = np.zeros((rows, slots), dtype=np.intp)
    child = np.zeros((rows, slots), dtype=np.intp)
    length = np.zeros((rows, slots))
    all_rows = np.arange(rows)

    for k, live in enumerate(lives):
        r = all_rows[:live]
        d = dist[:live]
        c = np.argmin(np.where(connected[:live], np.inf, d), axis=1)
        node = c + 1
        attach = nearest[r, c]
        hop = d[r, c]
        wire[r, node] = wire[r, attach] + hop
        connected[r, c] = True
        c_xy = xy[r, c]
        newd = np.hypot(
            xy[:live, :, 0] - c_xy[:, 0:1], xy[:live, :, 1] - c_xy[:, 1:2]
        )
        closer = ~connected[:live] & (newd < d)
        np.copyto(d, newd, where=closer)
        np.copyto(nearest[:live], node[:, None], where=closer)
        parent[:live, k] = attach
        child[:live, k] = node
        length[:live, k] = hop

    return parent, child, length, wire, np.zeros(rows, dtype=np.intp)


def _grow_chains(node_xy: np.ndarray, lives: list[int]):
    rows, slots = node_xy.shape[0], node_xy.shape[1] - 1
    xy = node_xy[:, 1:]
    connected = np.zeros((rows, slots), dtype=bool)
    wire = np.zeros((rows, slots + 1))
    edge_a = np.full((rows, slots, 2), np.nan)
    edge_b = np.full((rows, slots, 2), np.nan)
    tip = np.zeros(rows, dtype=np.intp)
    parent = np.zeros((rows, slots), dtype=np.intp)
    child = np.zeros((rows, slots), dtype=np.intp)
    length = np.zeros((rows, slots))
    forced = np.zeros(rows, dtype=np.intp)
    all_rows = np.arange(rows)

    for k, live in enumerate(lives):
        r = all_rows[:live]
        tip_xy = node_xy[r, tip[:live]]
        d_tip = np.hypot(
            xy[:live, :, 0] - tip_xy[:, 0:1], xy[:live, :, 1] - tip_xy[:, 1:2]
        )
        c = np.argmin(np.where(connected[:live], np.inf, d_tip), axis=1)
        c_xy = xy[r, c]

        attach = tip[:live].copy()
        if k:
            blocked = (d_tip[r, c] > 0.0) & _crosses_any(
                tip_xy, c_xy, edge_a[:live, :k], edge_b[:live, :k]
            )
            for i in np.flatnonzero(blocked).tolist():
                attach[i], was_forced = _branch_point(
                    node_xy[i],
                    connected[i],
                    int(tip[i]),
                    c_xy[i],
                    edge_a[i, :k],
                    edge_b[i, :k],
                )
                forced[i] += was_forced

        node = c + 1
        a_xy = node_xy[r, attach]
        hop = np.array([math.hypot(dx, dy) for dx, dy in (c_xy - a_xy).tolist()])
        wire[r, node] = wire[r, attach] + hop
        edge_a[:live, k] = a_xy
        edge_b[:live, k] = c_xy
        connected[r, c] = True
        tip[:live] = node
        parent[:live, k] = attach
        child[:live, k] = node
        length[:live, k] = hop

    return parent, child, length, wire, forced


def _branch_point(
    node_xy: np.ndarray,
    connected: np.ndarray,
    tip: int,
    c_xy: np.ndarray,
    ea: np.ndarray,
    eb: np.ndarray,
) -> tuple[int, bool]:
    """Attachment node for a chain hop to c_xy that is blocked from the tip.

    Returns the nearest connected node (ties: lower node id) whose wire to
    c_xy crosses none of the wires ea-eb, or, failing that, the nearest
    node with a forced-crossing flag.
    """
    ids = np.concatenate(([0], np.flatnonzero(connected) + 1))
    nd = np.hypot(node_xy[ids, 0] - c_xy[0], node_xy[ids, 1] - c_xy[1])
    order = ids[np.lexsort((ids, nd))]
    t, wires_a, wires_b = c_xy[None], ea[None], eb[None]
    for nid in order.tolist():
        if nid == tip:
            continue  # already known to cross
        s = node_xy[nid : nid + 1]
        if (s == t).all() or not _crosses_any(s, t, wires_a, wires_b)[0]:
            return nid, False
    return int(order[0]), True


# ---------------------------------------------------------------------------
# whole-grid assembly

def build_grid(deployment: CellDeployment, config: SimulationConfig) -> PowerGrid:
    """Build every sector's feeder under config.topology and merge them.

    Sectors are convex for n_branches >= 2, so wires from different
    sectors cannot cross; the merged graph stays a tree rooted at the hub.
    """
    if math.isnan(deployment.hub_x_m) or math.isnan(deployment.hub_y_m):
        raise GeometryError("deployment has no hub position")
    hub = (deployment.hub_x_m, deployment.hub_y_m)
    nb = config.n_branches
    for cell in deployment.cells:
        if not 0 <= cell.sector < nb:
            raise GeometryError(
                "cell %d has no valid sector label (run assign_sectors first)"
                % cell.id
            )

    grid = PowerGrid(
        nodes=[GridNode(0, hub[0], hub[1], "hub")],
        edges=[],
        n_branches=nb,
    )
    sectors = [[c for c in deployment.cells if c.sector == k] for k in range(nb)]
    if config.topology == "bus":
        width = 2.0 * math.pi / nb
        for k, sector_cells in enumerate(sectors):
            bisector = config.sector_anchor_rad + (k + 0.5) * width
            sub = build_bus(sector_cells, hub, bisector, config.max_wire_m)
            offset = len(grid.nodes) - 1
            for node in sub.nodes[1:]:
                grid.nodes.append(
                    GridNode(
                        node.id + offset,
                        node.x_m,
                        node.y_m,
                        node.kind,
                        cell_id=node.cell_id,
                        sector=k,
                    )
                )
            for e in sub.edges:
                a = e.a + offset if e.a else 0
                b = e.b + offset if e.b else 0
                grid.edges.append(GridEdge(a, b, e.length_m))
            grid.wire_distance_m.update(sub.wire_distance_m)
            grid.forced_crossings += sub.forced_crossings
    else:
        grow = _grow_trees if config.topology == "tree" else _grow_chains
        _add_feeders(grid, sectors, hub, grow, labels=True)

    for k, sector_cells in enumerate(sectors):
        for c in sector_cells:
            grid.branch_of[c.id] = k
    return grid


def wire_distance(grid: PowerGrid, cell_id: int) -> float:
    """Hub-to-cell path length along the feeder, in meters."""
    try:
        return grid.wire_distance_m[cell_id]
    except KeyError:
        raise KeyError("cell %d is not part of this grid" % cell_id) from None


def mark_served(
    grid: PowerGrid, max_wire_m: float, max_cells_per_branch: int
) -> PowerGrid:
    """Flag the served cells: wire distance within reach, and within the
    per-branch fan-out cap (nearest first, ties by cell id)."""
    per_branch: dict[int, list[tuple[float, int]]] = {}
    for cid, branch in grid.branch_of.items():
        grid.served[cid] = False
        dist = grid.wire_distance_m[cid]
        if dist <= max_wire_m:
            per_branch.setdefault(branch, []).append((dist, cid))
    for ranked in per_branch.values():
        ranked.sort()
        for _, cid in ranked[:max_cells_per_branch]:
            grid.served[cid] = True
    return grid


def reachability_fraction(grid: PowerGrid) -> float | None:
    """Served fraction of all cells; None for an empty deployment."""
    if not grid.served:
        return None
    return sum(grid.served.values()) / len(grid.served)
