"""Independent reference implementations used only to check the package.

Everything here is deliberately written with different tools than the
library code (heapq Dijkstra instead of accumulation during growth,
closed-form / brentq fits instead of bisection, scipy quadrature instead
of closed-form means) so that agreement between the two routes is
meaningful.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
from scipy import integrate, optimize, stats
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import pdist, squareform

from plcsim.errors import GeometryError

Point = tuple[float, float]


def dijkstra_from_hub(n_nodes: int, edges, hub: int = 0) -> dict[int, float]:
    """Shortest path lengths from the hub over an undirected edge list."""
    adj: dict[int, list[tuple[int, float]]] = {i: [] for i in range(n_nodes)}
    for a, b, w in edges:
        adj[a].append((b, w))
        adj[b].append((a, w))
    dist = {hub: 0.0}
    heap = [(0.0, hub)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def pareto_alpha_closed_form(top_q: float = 0.1, top_share: float = 0.9) -> float:
    """Shape for which the top q of a Pareto mass carries `top_share`."""
    return 1.0 / (1.0 - math.log(top_share) / math.log(top_q))


def pareto_alpha_brentq(top_q: float = 0.1, top_share: float = 0.9) -> float:
    f = lambda a: top_q ** (1.0 - 1.0 / a) - top_share
    return optimize.brentq(f, 1.0 + 1e-12, 50.0, xtol=1e-14)


def pareto_xm(alpha: float, small_bits: float = 10_000.0, p_small: float = 0.80) -> float:
    return small_bits * (1.0 - p_small) ** (1.0 / alpha)


def lognorm_two_quantile(
    q1: float = 0.8, x1_kb: float = 11.0, q2: float = 0.999, x2_kb: float = 200.0
) -> tuple[float, float]:
    z1 = stats.norm.ppf(q1)
    z2 = stats.norm.ppf(q2)
    sigma = (math.log(x2_kb) - math.log(x1_kb)) / (z2 - z1)
    mu = math.log(x1_kb) - z1 * sigma
    return mu, sigma


def clipped_pareto_mean_quad(alpha: float, xm: float, cap: float) -> float:
    """E[min(V, cap)] for V ~ Pareto(alpha, xm), by quadrature."""
    pdf = lambda x: alpha * xm**alpha / x ** (alpha + 1.0)
    body, _ = integrate.quad(pdf, xm, cap, points=[xm])
    weighted, _ = integrate.quad(lambda x: x * pdf(x), xm, cap, limit=200)
    tail = (xm / cap) ** alpha
    return weighted + cap * tail


def expected_session_volume_quad(
    alpha: float,
    xm: float,
    cap: float,
    data_fraction: float = 0.97,
    voice_rate_bps: float = 128_000.0,
    voice_mean_s: float = 100.0,
) -> float:
    data = clipped_pareto_mean_quad(alpha, xm, cap)
    voice = voice_rate_bps * voice_mean_s
    return data_fraction * data + (1.0 - data_fraction) * voice


# ---------------------------------------------------------------------------
# segment crossing and per-sector feeder builders
#
# These are the builders as they stood before the lockstep rewrite: one
# sector at a time, one scalar crossing test per hop.  The lockstep
# builders must reproduce their edges, wire distances and forced-crossing
# counts exactly.

def _orient(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> float:
    """Signed area cross product of (b - a) x (c - a)."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _in_box(px, py, ax, ay, bx, by) -> bool:
    """Point within the bounding box of segment ab (caller knows collinear)."""
    return (
        min(ax, bx) <= px <= max(ax, bx)
        and min(ay, by) <= py <= max(ay, by)
    )


def segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """True iff the closed segments share a point that is not a common endpoint.

    Two wires that merely meet at a shared junction endpoint do not count
    as crossing; any other contact (proper crossing, T-contact, collinear
    overlap) does.  Zero-length segments are rejected.
    """
    if p1 == p2 or q1 == q2:
        raise GeometryError("degenerate segment: endpoints coincide")

    p1x, p1y = p1
    p2x, p2y = p2
    q1x, q1y = q1
    q2x, q2y = q2

    d1 = _orient(q1x, q1y, q2x, q2y, p1x, p1y)
    d2 = _orient(q1x, q1y, q2x, q2y, p2x, p2y)
    d3 = _orient(p1x, p1y, p2x, p2y, q1x, q1y)
    d4 = _orient(p1x, p1y, p2x, p2y, q2x, q2y)

    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True

    if {p1, p2} == {q1, q2}:
        return True  # identical segments overlap everywhere

    p_ends = (p1, p2)
    q_ends = (q1, q2)
    contacts = set()
    if d1 == 0 and _in_box(p1x, p1y, q1x, q1y, q2x, q2y):
        contacts.add(p1)
    if d2 == 0 and _in_box(p2x, p2y, q1x, q1y, q2x, q2y):
        contacts.add(p2)
    if d3 == 0 and _in_box(q1x, q1y, p1x, p1y, p2x, p2y):
        contacts.add(q1)
    if d4 == 0 and _in_box(q2x, q2y, p1x, p1y, p2x, p2y):
        contacts.add(q2)

    for pt in contacts:
        if not (pt in p_ends and pt in q_ends):
            return True
    return False


def crosses_any_scalar(sx, sy, tx, ty, ea: np.ndarray, eb: np.ndarray) -> bool:
    """segments_intersect of segment (s, t) against edge arrays, as one
    vectorised test (zero-length edges allowed)."""
    ax = ea[:, 0]
    ay = ea[:, 1]
    bx = eb[:, 0]
    by = eb[:, 1]

    abx = bx - ax
    aby = by - ay
    d1 = abx * (sy - ay) - aby * (sx - ax)
    d2 = abx * (ty - ay) - aby * (tx - ax)
    stx = tx - sx
    sty = ty - sy
    d3 = stx * (ay - sy) - sty * (ax - sx)
    d4 = stx * (by - sy) - sty * (bx - sx)

    proper = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & (
        ((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0))
    )
    if proper.any():
        return True

    s_is_a = (sx == ax) & (sy == ay)
    s_is_b = (sx == bx) & (sy == by)
    t_is_a = (tx == ax) & (ty == ay)
    t_is_b = (tx == bx) & (ty == by)

    lo_x = np.minimum(ax, bx)
    hi_x = np.maximum(ax, bx)
    lo_y = np.minimum(ay, by)
    hi_y = np.maximum(ay, by)
    touch = (d1 == 0) & (lo_x <= sx) & (sx <= hi_x) & (lo_y <= sy) & (sy <= hi_y) & ~(
        s_is_a | s_is_b
    )
    touch |= (d2 == 0) & (lo_x <= tx) & (tx <= hi_x) & (lo_y <= ty) & (ty <= hi_y) & ~(
        t_is_a | t_is_b
    )

    st_lo_x = min(sx, tx)
    st_hi_x = max(sx, tx)
    st_lo_y = min(sy, ty)
    st_hi_y = max(sy, ty)
    touch |= (d3 == 0) & (st_lo_x <= ax) & (ax <= st_hi_x) & (st_lo_y <= ay) & (
        ay <= st_hi_y
    ) & ~(s_is_a | t_is_a)
    touch |= (d4 == 0) & (st_lo_x <= bx) & (bx <= st_hi_x) & (st_lo_y <= by) & (
        by <= st_hi_y
    ) & ~(s_is_b | t_is_b)

    touch |= (s_is_a & t_is_b) | (s_is_b & t_is_a)
    return bool(touch.any())


def reference_tree(cells, hub: Point):
    """Accretion tree over one sector: (edges (a, b, length_m), wire
    distance by cell id, forced crossings), node 0 the hub and node i + 1
    the i-th cell in id order."""
    cells = sorted(cells, key=lambda c: c.id)
    edges: list[tuple[int, int, float]] = []
    wire: dict[int, float] = {}
    if not cells:
        return edges, wire, 0

    xy = np.array([[c.x_m, c.y_m] for c in cells], dtype=float)
    n = len(cells)
    dist = np.hypot(xy[:, 0] - hub[0], xy[:, 1] - hub[1])
    nearest_node = np.zeros(n, dtype=int)
    connected = np.zeros(n, dtype=bool)
    wire_by_node = np.zeros(n + 1)

    for _ in range(n):
        c = int(np.argmin(np.where(connected, np.inf, dist)))
        attach = int(nearest_node[c])
        hop = float(dist[c])
        edges.append((attach, c + 1, hop))
        wire_by_node[c + 1] = wire_by_node[attach] + hop
        wire[cells[c].id] = float(wire_by_node[c + 1])
        connected[c] = True
        newd = np.hypot(xy[:, 0] - xy[c, 0], xy[:, 1] - xy[c, 1])
        closer = ~connected & (newd < dist)
        dist[closer] = newd[closer]
        nearest_node[closer] = c + 1

    return edges, wire, 0


def reference_chain(cells, hub: Point):
    """Serpentine chain over one sector, in the format of reference_tree."""
    cells = sorted(cells, key=lambda c: c.id)
    edges: list[tuple[int, int, float]] = []
    wire: dict[int, float] = {}
    forced = 0
    if not cells:
        return edges, wire, forced

    xy = np.array([[c.x_m, c.y_m] for c in cells], dtype=float)
    n = len(cells)
    node_xy = np.vstack([np.array(hub, dtype=float)[None, :], xy])

    edge_a = np.empty((n, 2))
    edge_b = np.empty((n, 2))
    n_edges = 0
    connected = np.zeros(n, dtype=bool)
    wire_by_node = np.zeros(n + 1)
    tip = 0

    for _ in range(n):
        d_tip = np.hypot(xy[:, 0] - node_xy[tip, 0], xy[:, 1] - node_xy[tip, 1])
        c = int(np.argmin(np.where(connected, np.inf, d_tip)))
        cx, cy = xy[c]

        attach = tip
        if d_tip[c] > 0.0 and n_edges and crosses_any_scalar(
            node_xy[tip, 0], node_xy[tip, 1], cx, cy, edge_a[:n_edges], edge_b[:n_edges]
        ):
            node_ids = np.concatenate(([0], np.flatnonzero(connected) + 1))
            nd = np.hypot(node_xy[node_ids, 0] - cx, node_xy[node_ids, 1] - cy)
            order = node_ids[np.lexsort((node_ids, nd))]
            attach = -1
            for nid in order:
                if nid == tip:
                    continue  # already known to cross
                nx, ny = node_xy[nid]
                if (nx == cx and ny == cy) or not crosses_any_scalar(
                    nx, ny, cx, cy, edge_a[:n_edges], edge_b[:n_edges]
                ):
                    attach = int(nid)
                    break
            if attach < 0:
                attach = int(order[0])
                forced += 1

        hop = math.hypot(cx - node_xy[attach, 0], cy - node_xy[attach, 1])
        edges.append((attach, c + 1, hop))
        wire_by_node[c + 1] = wire_by_node[attach] + hop
        wire[cells[c].id] = float(wire_by_node[c + 1])
        edge_a[n_edges] = node_xy[attach]
        edge_b[n_edges] = xy[c]
        n_edges += 1
        connected[c] = True
        tip = c + 1

    return edges, wire, forced


def reference_feeders(deployment, topology: str, n_branches: int):
    """Build each sector's tree or chain on its own and merge them like
    build_grid: (edges, wire distance by cell id, forced crossings)."""
    build = reference_tree if topology == "tree" else reference_chain
    hub = (deployment.hub_x_m, deployment.hub_y_m)
    edges: list[tuple[int, int, float]] = []
    wire: dict[int, float] = {}
    forced = 0
    n_nodes = 1
    for k in range(n_branches):
        sector_cells = [c for c in deployment.cells if c.sector == k]
        sub_edges, sub_wire, sub_forced = build(sector_cells, hub)
        offset = n_nodes - 1
        edges += [(a + offset if a else 0, b + offset, w) for a, b, w in sub_edges]
        wire.update(sub_wire)
        forced += sub_forced
        n_nodes += len(sector_cells)
    return edges, wire, forced


def mst_length(points: np.ndarray) -> float:
    """Total Euclidean minimum-spanning-tree length over distinct points."""
    return float(minimum_spanning_tree(squareform(pdist(points))).sum())
