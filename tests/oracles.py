"""Independent reference implementations used only to check the package.

Everything here is deliberately written with different tools than the
library code (heapq Dijkstra instead of accumulation during growth,
closed-form / brentq fits instead of bisection, scipy quadrature instead
of closed-form means) so that agreement between the two routes is
meaningful.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np
from scipy import integrate, optimize, stats
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import pdist, squareform

from plcsim.config import SimulationConfig
from plcsim.deployment import cell_count, deploy
from plcsim.errors import GeometryError
from plcsim.gridgen import PowerGrid, build_grid, mark_served
from plcsim.simulator import (
    MetricsReport,
    _step_count,
    aggregate_rate_series,
    compute_metrics,
)
from plcsim.traffic import SessionSet, TrafficModel, generate_traffic, sample_data_volumes

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


def pareto_alpha_bisection() -> float:
    """The bisection that plcsim's stored Pareto exponent comes from: alpha
    solves 0.1**(1 - 1/alpha) = 0.9, by bisection to a residual
    below 1e-10."""
    lo, hi = 1.0 + 1e-12, 1e6
    while True:
        alpha = 0.5 * (lo + hi)
        r = 0.10 ** (1.0 - 1.0 / alpha) - 0.90
        if abs(r) <= 1e-10:
            return alpha
        if r > 0.0:
            lo = alpha
        else:
            hi = alpha


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


# closed forms of the same means for a fitted plcsim TrafficModel; the
# quadrature routes above check them

def expected_data_volume_bits(model: TrafficModel) -> float:
    """E[min(V, cap)] for the fitted Pareto, in closed form."""
    a = model.pareto_alpha
    xm = model.pareto_xm_bits
    cap = model.volume_cap_bits
    body = a / (a - 1.0) * xm * (1.0 - (xm / cap) ** (a - 1.0))
    tail = xm**a * cap ** (1.0 - a)
    return body + tail


def expected_session_volume_bits(model: TrafficModel) -> float:
    """Mean bits per session across both traffic classes."""
    voice = model.voice_rate_bps * model.voice_mean_duration_s
    return (
        model.data_fraction * expected_data_volume_bits(model)
        + (1.0 - model.data_fraction) * voice
    )


# ---------------------------------------------------------------------------
# bus reach in closed form (geometric probability; Santalo, Integral
# Geometry and Geometric Probability, 1976)

def bus_reachability_closed_form(config: SimulationConfig) -> float:
    """E[reachability] of a `bus` grid with the hub at the centre.

    In a sector's bisector coordinates (u, v) a cell's wire distance is
    u + |v|: its drop meets the spine at its projection u.  So the sector's
    within-reach region {u + |v| <= R, |v| <= u tan(pi/nb)} has area
    A = a u1^2 + (R - u1)^2 with a = tan(pi/nb) and u1 = R / (1 + a), and
    its within-reach count is Binomial(n, A / side^2), a marginal of the
    multinomial.  By linearity the mean reach is
    nb E[min(Binomial(n, A / side^2), cap)] / n.  Valid for nb >= 3 while
    the region stays inside the square: max(R, u1 / cos(pi/nb)) <= side/2.
    """
    nb, reach, side = config.n_branches, config.max_wire_m, config.side_m
    a = math.tan(math.pi / nb)
    u1 = reach / (1.0 + a)
    assert config.hub_mode == "center" and nb >= 3
    assert max(reach, u1 / math.cos(math.pi / nb)) <= side / 2.0
    n = cell_count(config.density, side, config.cell_area_m2)
    k = np.arange(n + 1)
    pmf = stats.binom.pmf(k, n, (a * u1**2 + (reach - u1) ** 2) / side**2)
    return nb * float(np.minimum(k, config.max_cells_per_branch) @ pmf) / n


# ---------------------------------------------------------------------------
# mean hub rate in closed form (Campbell's theorem; Kingman, Poisson
# Processes, 1993)

def mean_hub_rate_closed_form(config: SimulationConfig, served_cells: float) -> float:
    """E[avg_rate_bps] given `served_cells` served cells.

    Each served cell's sessions start as a Poisson process of rate 1/g on
    [0, H), so by Campbell's theorem the hub carries on average
    served_cells (H / g) b bits in H seconds, where b is the mean number of
    bits a session started uniformly in [0, H) delivers before H:

        b = p_d E[min(V, cap)] E[min(1, (H - s) / D)]
            + (1 - p_d) r_v (m - m^2 (1 - exp(-H / m)) / H)

    for Pareto volume V, lognormal data duration D, voice rate r_v and mean
    holding time m.  For u = H - s ~ U(0, H), E[min(1, u / D) | D] is
    1 - D / 2H when D <= H and H / 2D past it.  The steps must tile the
    horizon, so that avg_rate_bps is the bits carried over H.
    """
    model = TrafficModel.from_config(config)
    h, m = config.horizon_s, model.voice_mean_duration_s
    assert _step_count(h, config.dt_s) * config.dt_s == h
    volume = clipped_pareto_mean_quad(
        model.pareto_alpha, model.pareto_xm_bits, model.volume_cap_bits
    )
    pdf = stats.lognorm(model.lognorm_sigma, scale=math.exp(model.lognorm_mu)).pdf
    inside, _ = integrate.quad(lambda d: (1.0 - d / (2.0 * h)) * pdf(d), 0.0, h, limit=200)
    past, _ = integrate.quad(lambda d: h / (2.0 * d) * pdf(d), h, math.inf, limit=200)
    data = volume * (inside + past)
    voice = model.voice_rate_bps * (m - m * m * -math.expm1(-h / m) / h)
    per_session = model.data_fraction * data + (1.0 - model.data_fraction) * voice
    return served_cells * per_session / model.mean_interarrival_s


# ---------------------------------------------------------------------------
# per-cell session generator
#
# generate_traffic as it stood before the one-pass rewrite: each cell in id
# order draws exponential arrival gaps in batches until they pass the
# horizon, then its sessions' classes, Pareto volumes (numpy's `pareto`),
# data durations and voice durations.  A different random stream from the
# library's, so the two are compared in distribution, not bit for bit.

def _arrival_chunk(horizon_s: float, mean_interarrival_s: float) -> float:
    """Arrivals drawn per batch for one cell: the expected count plus six
    standard deviations, so that one batch almost always covers the
    horizon."""
    expect = horizon_s / mean_interarrival_s
    return max(16.0, expect + 6.0 * math.sqrt(expect) + 8.0)


def empty_sessions() -> SessionSet:
    """A SessionSet with no rows, each column of generate_traffic's dtype."""
    return SessionSet(
        np.empty(0, dtype=int), np.empty(0, dtype=bool), np.empty(0), np.empty(0), np.empty(0)
    )


def reference_traffic(
    rng: np.random.Generator,
    model: TrafficModel,
    n_cells: int,
    horizon_s: float,
) -> SessionSet:
    mean = model.mean_interarrival_s
    chunk = int(_arrival_chunk(horizon_s, mean))
    counts = np.zeros(n_cells, dtype=int)
    cols: list[tuple[np.ndarray, ...]] = []
    for cid in range(n_cells):
        arrivals = np.cumsum(rng.exponential(mean, chunk))
        while arrivals[-1] < horizon_s:
            more = np.cumsum(rng.exponential(mean, chunk)) + arrivals[-1]
            arrivals = np.concatenate([arrivals, more])
        starts = arrivals[arrivals < horizon_s]

        n = starts.size
        if not n:  # zero-size draws would leave the generator as it is
            continue
        is_data = rng.random(n) < model.data_fraction
        n_data = int(is_data.sum())
        raw = (rng.pareto(model.pareto_alpha, n_data) + 1.0) * model.pareto_xm_bits
        volumes = np.minimum(raw, model.volume_cap_bits)
        data_dur = rng.lognormal(model.lognorm_mu, model.lognorm_sigma, n_data)
        voice_dur = rng.exponential(model.voice_mean_duration_s, n - n_data)
        durations = np.empty(n)
        rates = np.empty(n)
        durations[is_data] = data_dur
        rates[is_data] = volumes / data_dur
        durations[~is_data] = voice_dur
        rates[~is_data] = model.voice_rate_bps
        counts[cid] = n
        cols.append((is_data, starts, durations, rates))
    if not cols:
        return empty_sessions()
    return SessionSet(
        np.repeat(np.arange(n_cells), counts), *(np.concatenate(c) for c in zip(*cols))
    )


# ---------------------------------------------------------------------------
# the one-pass session generator (v2)
#
# generate_traffic as it stood before it drew sessions in blocks of cells:
# the same Poisson counts, then each of the five later draws once for every
# session of every cell.  A replication whose cells all start before session
# BLOCK_SESSIONS makes one block, and then the library's stream equals this
# one bit for bit; longer ones are compared in distribution.

def reference_traffic_v2(
    rng: np.random.Generator,
    model: TrafficModel,
    n_cells: int,
    horizon_s: float,
) -> SessionSet:
    counts = rng.poisson(horizon_s / model.mean_interarrival_s, n_cells)
    total = int(counts.sum())
    slots = np.arange(counts.max(initial=0)) < counts[:, None]
    table = np.full(slots.shape, np.inf)
    table[slots] = rng.random(total)
    table.sort(axis=1)
    starts = table[slots] * horizon_s

    is_data = rng.random(total) < model.data_fraction
    volumes = sample_data_volumes(rng, model, int(is_data.sum()))
    data_dur = rng.lognormal(model.lognorm_mu, model.lognorm_sigma, volumes.size)
    durations = np.empty(total)
    rates = np.empty(total)
    durations[is_data] = data_dur
    rates[is_data] = volumes / data_dur
    durations[~is_data] = rng.exponential(model.voice_mean_duration_s, total - volumes.size)
    rates[~is_data] = model.voice_rate_bps
    return SessionSet(
        np.repeat(np.arange(n_cells), counts), is_data, starts, durations, rates
    )


def reference_replication_v2(config: SimulationConfig, seed: int) -> MetricsReport:
    """run_replication with the sessions of its served cells drawn by
    reference_traffic_v2."""
    config.validate()
    rng = np.random.default_rng(seed)
    grid = build_grid(deploy(config, rng), config)
    mark_served(grid, config.max_wire_m, config.max_cells_per_branch)
    served = np.flatnonzero(grid.served)
    model = TrafficModel.from_config(config)
    sessions = reference_traffic_v2(rng, model, served.size, config.horizon_s)
    sessions.cell_id = served[sessions.cell_id]
    series = aggregate_rate_series(sessions, grid, config.dt_s, config.horizon_s)
    return compute_metrics(series, grid, seed=seed)


class CountingRng:
    """A Generator that records each draw made through it as (method name,
    number of values returned)."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.draws: list[tuple[str, int]] = []

    def __getattr__(self, name):
        draw = getattr(self._rng, name)

        def counted(*args, **kwargs):
            out = draw(*args, **kwargs)
            self.draws.append((name, int(np.size(out))))
            return out

        return counted


# ---------------------------------------------------------------------------
# replication that draws sessions for every cell
#
# run_replication as it stood before it drew sessions for the served cells
# only: generate_traffic over every deployed cell, then the served mask drops
# the unserved cells' sessions in aggregation and in the mean wait.  The
# same draws up to the traffic, so reachability and forced crossings match
# the library's exactly; the traffic metrics match in distribution.

def reference_replication(config: SimulationConfig, seed: int) -> MetricsReport:
    config.validate()
    rng = np.random.default_rng(seed)
    deployment = deploy(config, rng)
    grid = build_grid(deployment, config)
    mark_served(grid, config.max_wire_m, config.max_cells_per_branch)
    model = TrafficModel.from_config(config)
    sessions = generate_traffic(rng, model, len(deployment.xy), config.horizon_s)
    series = aggregate_rate_series(sessions, grid, config.dt_s, config.horizon_s)
    return compute_metrics(series, grid, seed=seed)


# ---------------------------------------------------------------------------
# segment crossing and per-sector feeder builders
#
# These are the builders as they stood before the lockstep rewrite: one
# sector at a time, one scalar crossing test per hop, taking one sector's
# cell positions and cell ids.  The lockstep builders must reproduce their
# edges, wire distances and forced-crossing counts exactly.

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
    """segments_intersect of segment (s, t) against edge arrays, edge by
    edge (zero-length edges allowed).  A shared point lies in both closed
    bounding boxes, so an edge whose box misses the segment's is skipped
    before any orientation is taken."""
    st_lo_x, st_hi_x = min(sx, tx), max(sx, tx)
    st_lo_y, st_hi_y = min(sy, ty), max(sy, ty)
    stx = tx - sx
    sty = ty - sy
    for (ax, ay), (bx, by) in zip(ea.tolist(), eb.tolist()):
        lo_x, hi_x = min(ax, bx), max(ax, bx)
        lo_y, hi_y = min(ay, by), max(ay, by)
        if not (lo_x <= st_hi_x and st_lo_x <= hi_x and lo_y <= st_hi_y and st_lo_y <= hi_y):
            continue  # also skips NaN edges, which never cross
        abx = bx - ax
        aby = by - ay
        d1 = abx * (sy - ay) - aby * (sx - ax)
        d2 = abx * (ty - ay) - aby * (tx - ax)
        d3 = stx * (ay - sy) - sty * (ax - sx)
        d4 = stx * (by - sy) - sty * (bx - sx)
        if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
            (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
        ):
            return True  # a proper crossing
        s_is_a = sx == ax and sy == ay
        s_is_b = sx == bx and sy == by
        t_is_a = tx == ax and ty == ay
        t_is_b = tx == bx and ty == by
        if (s_is_a and t_is_b) or (s_is_b and t_is_a):
            return True  # identical segments
        # a contact at a point that is not an endpoint of both
        if (
            (d1 == 0 and lo_x <= sx <= hi_x and lo_y <= sy <= hi_y and not (s_is_a or s_is_b))
            or (d2 == 0 and lo_x <= tx <= hi_x and lo_y <= ty <= hi_y and not (t_is_a or t_is_b))
            or (d3 == 0 and st_lo_x <= ax <= st_hi_x and st_lo_y <= ay <= st_hi_y and not (s_is_a or t_is_a))
            or (d4 == 0 and st_lo_x <= bx <= st_hi_x and st_lo_y <= by <= st_hi_y and not (s_is_b or t_is_b))
        ):
            return True
    return False


def _by_id(q, ids):
    """Cell ids in id order, and their lattice points as tuples of Python
    ints."""
    order = np.argsort(ids, kind="stable")
    q = np.asarray(q, dtype=float).reshape(-1, 2)[order]
    return np.asarray(ids)[order].tolist(), [(int(x), int(y)) for x, y in q.tolist()]


def _sq(p, c) -> int:
    """Squared distance of two lattice points, in exact integer arithmetic."""
    return (p[0] - c[0]) ** 2 + (p[1] - c[1]) ** 2


def reference_tree(q, ids, hub, spacing: float = 1.0):
    """Accretion tree over one sector's cells (lattice points q, cell ids
    ids, hub lattice point hub, metres per lattice unit spacing): (edges
    (a, b, length_m), wire distance by cell id, forced crossings), node 0
    the hub and node i + 1 the i-th cell in id order.  Squared distances
    are Python ints; a hop is math.sqrt of its square times spacing."""
    ids, pts = _by_id(q, ids)
    hub = (int(hub[0]), int(hub[1]))
    edges: list[tuple[int, int, float]] = []
    wire: dict[int, float] = {}
    dist = [_sq(p, hub) for p in pts]  # to the nearest connected node
    nearest_node = [0] * len(pts)
    wire_by_node = [0.0] * (len(pts) + 1)
    free = list(range(len(pts)))
    while free:
        c = min(free, key=lambda i: (dist[i], i))
        free.remove(c)
        attach = nearest_node[c]
        hop = math.sqrt(dist[c]) * spacing
        edges.append((attach, c + 1, hop))
        wire_by_node[c + 1] = wire_by_node[attach] + hop
        wire[ids[c]] = wire_by_node[c + 1]
        for i in free:
            d = _sq(pts[i], pts[c])
            if d < dist[i]:
                dist[i], nearest_node[i] = d, c + 1
    return edges, wire, 0


def reference_chain(q, ids, hub, spacing: float = 1.0):
    """Serpentine chain over one sector, in the format of reference_tree;
    crossings are tested on int64 lattice points, exactly."""
    ids, pts = _by_id(q, ids)
    edges: list[tuple[int, int, float]] = []
    wire: dict[int, float] = {}
    forced = 0
    n = len(ids)
    node = [(int(hub[0]), int(hub[1])), *pts]
    edge_a = np.empty((n, 2), dtype=np.int64)
    edge_b = np.empty((n, 2), dtype=np.int64)
    connected = [False] * n
    wire_by_node = [0.0] * (n + 1)
    tip = 0

    for n_edges in range(n):
        c = min((i for i in range(n) if not connected[i]), key=lambda i: (_sq(pts[i], node[tip]), i))
        cx, cy = pts[c]

        attach = tip
        if pts[c] != node[tip] and n_edges and crosses_any_scalar(
            *node[tip], cx, cy, edge_a[:n_edges], edge_b[:n_edges]
        ):
            nodes = [0] + [i + 1 for i in range(n) if connected[i]]
            order = sorted(nodes, key=lambda i: (_sq(node[i], pts[c]), i))
            attach = -1
            for nid in order:
                if nid == tip:
                    continue  # already known to cross
                if node[nid] == pts[c] or not crosses_any_scalar(
                    *node[nid], cx, cy, edge_a[:n_edges], edge_b[:n_edges]
                ):
                    attach = nid
                    break
            if attach < 0:
                attach = order[0]
                forced += 1

        hop = math.sqrt(_sq(pts[c], node[attach])) * spacing
        edges.append((attach, c + 1, hop))
        wire_by_node[c + 1] = wire_by_node[attach] + hop
        wire[ids[c]] = wire_by_node[c + 1]
        edge_a[n_edges] = node[attach]
        edge_b[n_edges] = pts[c]
        connected[c] = True
        tip = c + 1

    return edges, wire, forced


def reference_tour(q, ids, hub) -> list[int]:
    """Cell ids of one sector in the order a greedy walk from the hub visits
    them: each step on to the nearest unvisited cell (exact squared
    distance, ties: lower id), whatever wire the chain lays to it."""
    ids, pts = _by_id(q, ids)
    left = list(range(len(ids)))
    at = (int(hub[0]), int(hub[1]))
    tour = []
    while left:
        c = min(left, key=lambda i: (_sq(pts[i], at), i))
        left.remove(c)
        tour.append(ids[c])
        at = pts[c]
    return tour


def reference_feeders(deployment, topology: str, n_branches: int):
    """Build each sector's tree or chain on its own and merge them like
    build_grid: (edges, wire distance by cell id, forced crossings)."""
    build = reference_tree if topology == "tree" else reference_chain
    edges: list[tuple[int, int, float]] = []
    wire: dict[int, float] = {}
    forced = 0
    n_nodes = 1
    for k in range(n_branches):
        ids = np.flatnonzero(deployment.sector == k)
        sub_edges, sub_wire, sub_forced = build(
            deployment.q[ids], ids, deployment.hub_q, deployment.spacing_m
        )
        offset = n_nodes - 1
        edges += [(a + offset if a else 0, b + offset, w) for a, b, w in sub_edges]
        wire.update(sub_wire)
        forced += sub_forced
        n_nodes += len(ids)
    return edges, wire, forced


def reference_mark_served(
    wire, branch, max_wire_m: float, max_cells_per_branch: int
) -> dict[int, bool]:
    """Served flag by cell id, ranked per branch with a dict of lists and a
    tuple sort: within reach, nearest first, ties by cell id, at most
    max_cells_per_branch per branch."""
    served: dict[int, bool] = {}
    per_branch: dict[int, list[tuple[float, int]]] = {}
    for cid, (dist, b) in enumerate(zip(wire, branch)):
        served[cid] = False
        if dist <= max_wire_m:
            per_branch.setdefault(b, []).append((dist, cid))
    for ranked in per_branch.values():
        ranked.sort()
        for _, cid in ranked[:max_cells_per_branch]:
            served[cid] = True
    return served


def mst_length(points: np.ndarray) -> float:
    """Total Euclidean minimum-spanning-tree length over distinct points."""
    return float(minimum_spanning_tree(squareform(pdist(points))).sum())


def layout_dict(deployment, grid, manifest: dict) -> dict:
    """layout.json as a document of dicts, one per cell, node and edge;
    ``json.dumps(..., indent=2, allow_nan=False) + "\\n"`` of it is the
    file the CLI writes."""
    hub_x, hub_y = deployment.hub
    cells = zip(
        deployment.xy.tolist(),
        deployment.sector.tolist(),
        grid.wire_m.tolist(),
        grid.served.tolist(),
    )
    nodes = zip(
        grid.node_xy.tolist(),
        grid.node_kind.tolist(),
        grid.node_cell.tolist(),
        grid.node_sector.tolist(),
    )
    return {
        "manifest": manifest,
        "hub": {"x_m": hub_x, "y_m": hub_y},
        "forced_crossings": grid.forced_crossings,
        "cells": [
            {
                "id": i,
                "x_m": x,
                "y_m": y,
                "radius_m": deployment.radius_m,
                "sector": sector,
                "wire_distance_m": wire,
                "served": served,
            }
            for i, ((x, y), sector, wire, served) in enumerate(cells)
        ],
        "nodes": [
            {
                "id": i,
                "x_m": x,
                "y_m": y,
                "kind": kind,
                "cell_id": None if cell < 0 else cell,
                "sector": None if sector < 0 else sector,
            }
            for i, ((x, y), kind, cell, sector) in enumerate(nodes)
        ],
        "edges": [
            {"a": a, "b": b, "length_m": length}
            for (a, b), length in zip(grid.edges.tolist(), grid.length_m.tolist())
        ],
    }


# ---------------------------------------------------------------------------
# scalar sector labels, bus builder and rate aggregation
#
# The three stages as they stood before their array rewrites: a per-cell
# `math.atan2` loop for the sector labels, a per-sector sort-and-group loop
# for the bus feeder, and aggregation by concatenating eight n-long parts.
# The library must reproduce their outputs bit for bit.

def reference_sectors(xy, hub, n_branches: int, anchor_rad: float = 0.0) -> np.ndarray:
    """Sector label of every cell, one Python float at a time."""
    width = 2.0 * math.pi / n_branches
    hx, hy = hub
    labels = []
    for x, y in np.asarray(xy, dtype=float).reshape(-1, 2).tolist():
        dx = x - hx
        dy = y - hy
        if dx == 0.0 and dy == 0.0:
            labels.append(0)
            continue
        theta = (math.atan2(dy, dx) - anchor_rad) % (2.0 * math.pi)
        labels.append(min(int(theta / width), n_branches - 1))
    return np.array(labels, dtype=np.intp)


def reference_bus(deployment, config: SimulationConfig) -> PowerGrid:
    """Bus feeder built sector by sector: cells sorted by projection and
    grouped by equal projection, one spine edge and the drops per group."""
    xy, sector = deployment.xy, deployment.sector
    hx, hy = deployment.hub
    nb = config.n_branches
    width = 2.0 * math.pi / nb
    bisectors = [config.sector_anchor_rad + (k + 0.5) * width for k in range(nb)]
    ux = [math.cos(b) for b in bisectors]
    uy = [math.sin(b) for b in bisectors]
    cell_ux = np.array(ux)[sector]
    cell_uy = np.array(uy)[sector]
    proj = (xy[:, 0] - hx) * cell_ux + (xy[:, 1] - hy) * cell_uy
    furthest = np.zeros(nb)
    np.maximum.at(furthest, sector, proj)
    t = np.clip(proj, 0.0, np.minimum(config.max_wire_m, furthest)[sector])
    drop = np.hypot(xy[:, 0] - (hx + t * cell_ux), xy[:, 1] - (hy + t * cell_uy))

    xy_l, t_l, drop_l = xy.tolist(), t.tolist(), drop.tolist()
    node_xy, node_cell, node_sector = [[hx, hy]], [-1], [-1]
    edges: list[tuple[int, int]] = []
    length: list[float] = []
    node_of = {}
    for k in range(nb):
        cells = np.flatnonzero(sector == k).tolist()
        for c in cells:
            node_of[c] = len(node_xy)
            node_xy.append(xy_l[c])
        node_cell += cells
        prev, px, py = 0, hx, hy
        by_t = sorted(cells, key=t_l.__getitem__)  # stable: ties keep id order
        for tv, group in itertools.groupby(by_t, t_l.__getitem__):
            group = list(group)
            if tv == 0.0:
                junction = 0  # at or behind the hub: drop straight to it
            else:
                on_spine = [c for c in group if drop_l[c] == 0.0]
                if on_spine:
                    junction = node_of[on_spine[0]]
                    jx, jy = xy_l[on_spine[0]]
                else:
                    junction = len(node_xy)
                    jx, jy = hx + tv * ux[k], hy + tv * uy[k]
                    node_xy.append([jx, jy])
                    node_cell.append(-1)
                edges.append((prev, junction))
                length.append(math.hypot(jx - px, jy - py))
                prev, px, py = junction, jx, jy
            for c in group:
                if node_of[c] != junction:
                    edges.append((junction, node_of[c]))
                    length.append(drop_l[c])
        node_sector += [k] * (len(node_xy) - len(node_sector))

    node_cell = np.array(node_cell, dtype=np.intp)
    junction = node_cell < 0
    junction[0] = False  # the hub
    return PowerGrid(
        deployment=deployment,
        node_cell=node_cell,
        junction_xy=np.array(node_xy)[junction],
        junction_sector=np.array(node_sector, dtype=np.intp)[junction],
        edges=np.array(edges, dtype=np.intp).reshape(-1, 2),
        length_m=np.array(length),
        wire_m=t + drop,
        served=np.zeros(len(xy), dtype=bool),
        n_branches=nb,
    )


def reference_aggregate(sessions: SessionSet, grid, dt_s: float, horizon_s: float):
    """Hub and branch series as (hub, branches): the kept sessions copied
    out by `subset`, then every bincount index and weight built as four
    n-long parts joined by `concatenate`."""
    steps = _step_count(horizon_s, dt_s)
    nb = grid.n_branches
    width = steps + 2
    keep = (sessions.start_s >= 0.0) & (sessions.start_s < horizon_s)
    keep &= grid.served[sessions.cell_id]
    kept = sessions.subset(keep)
    if kept.cell_id.size == 0:
        return np.zeros(steps), np.zeros((nb, steps))

    a = kept.start_s / dt_s
    b = np.minimum(kept.start_s + kept.duration_s, horizon_s) / dt_s
    ia = np.floor(a).astype(np.int64)
    ib = np.floor(b).astype(np.int64)
    fa = a - ia
    fb = b - ib
    w = kept.rate_bps

    idx = np.concatenate([ia, ia + 1, ib, ib + 1])
    val = np.concatenate([w * (1.0 - fa), w * fa, -w * (1.0 - fb), -w * fb])
    hub = np.cumsum(np.bincount(idx, weights=val, minlength=width))[:steps]

    branch = grid.deployment.sector[kept.cell_id]
    flat = np.concatenate([branch, branch, branch, branch]) * width + idx
    branch_diff = np.bincount(flat, weights=val, minlength=nb * width)
    return hub, np.cumsum(branch_diff.reshape(nb, width), axis=1)[:, :steps]
