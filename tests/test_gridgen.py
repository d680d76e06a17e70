import collections
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    bus_reachability_closed_form,
    dijkstra_from_hub,
    mst_length,
    reference_bus,
    reference_chain,
    reference_feeders,
    reference_mark_served,
    reference_tour,
    reference_tree,
    segments_intersect,
)
from plcsim import chain, nearest
from plcsim.chain import crosses_any
from plcsim.config import SimulationConfig
from plcsim.deployment import CellDeployment, assign_sectors, deploy, place_cells
from plcsim.errors import GeometryError
from plcsim.gridgen import (
    PowerGrid,
    build_bus,
    build_grid,
    build_grids,
    mark_served,
    reachability_fraction,
)
from plcsim.simulator import derive_seed


def _deployment(points, hub=(0.0, 0.0), n_branches=6, anchor_rad=0.0):
    xy = np.array(points, dtype=float).reshape(-1, 2)
    return CellDeployment(hub, xy, assign_sectors(xy, hub, n_branches, anchor_rad), 10.0)


def _one_sector(points, topology, hub=(0.0, 0.0)):
    """Grid over a single sector with 300 m reach; its bisector (the bus
    spine) points along +x."""
    cfg = SimulationConfig(topology=topology, n_branches=1, sector_anchor_rad=-math.pi)
    return build_grid(_deployment(points, hub, 1, cfg.sector_anchor_rad), cfg)


def _edge_list(grid):
    """(a, b, length_m) per edge, in emission order."""
    return list(zip(*grid.edges.T.tolist(), grid.length_m.tolist()))


def _wire(grid):
    return dict(enumerate(grid.wire_m.tolist()))


def _junctions(grid):
    return grid.node_xy[grid.node_kind == "junction"].tolist()


def _edge_segments(grid):
    coord = [tuple(p) for p in grid.node_xy.tolist()]
    return [(coord[a], coord[b]) for a, b in grid.edges.tolist()]


def _crossing_pairs(grid):
    segs = _edge_segments(grid)
    pairs = []
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            if segments_intersect(*segs[i], *segs[j]):
                pairs.append((i, j))
    return pairs


# ---------------------------------------------------------------------------
# segment intersection

def test_segments_crossing_diagonals():
    assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0)) is True


def test_segments_disjoint_collinear():
    assert segments_intersect((0, 0), (1, 0), (2, 0), (3, 0)) is False


def test_segments_shared_endpoint_exempt():
    assert segments_intersect((0, 0), (1, 1), (1, 1), (2, 0)) is False


def test_segments_t_contact_counts():
    # endpoint of one segment in the interior of the other
    assert segments_intersect((0, 0), (2, 0), (1, 0), (1, 5)) is True


def test_segments_through_foreign_endpoint_counts():
    # passes exactly through another wire's endpoint without sharing it
    assert segments_intersect((0, 0), (2, 0), (2, -1), (2, 1)) is True


def test_segments_collinear_overlap_counts():
    assert segments_intersect((0, 0), (3, 0), (1, 0), (2, 0)) is True
    assert segments_intersect((0, 0), (2, 0), (1, 0), (4, 0)) is True


def test_segments_identical_counts():
    assert segments_intersect((0, 0), (1, 2), (0, 0), (1, 2)) is True
    assert segments_intersect((0, 0), (1, 2), (1, 2), (0, 0)) is True


def test_segments_degenerate_rejected():
    with pytest.raises(GeometryError):
        segments_intersect((1, 1), (1, 1), (0, 0), (2, 2))


def _padded_rows(rows):
    """(s, t, ea, eb) arrays for rows of (query, [edges]), NaN-padded."""
    width = max(len(edges) for _, edges in rows)
    ea = np.full((len(rows), width, 2), np.nan)
    eb = np.full((len(rows), width, 2), np.nan)
    for i, (_, edges) in enumerate(rows):
        for j, (a, b) in enumerate(edges):
            ea[i, j] = a
            eb[i, j] = b
    s = np.array([q[0] for q, _ in rows], dtype=float)
    t = np.array([q[1] for q, _ in rows], dtype=float)
    return s, t, ea, eb


def test_crosses_any_matches_scalar_on_random_layouts():
    """The row-wise edge-array check must agree with the scalar predicate."""
    rng = np.random.default_rng(3)
    rows = []
    for _ in range(400):
        raw = rng.integers(0, 5, size=(9, 4)).astype(float)
        segs = [((a, b), (c, d)) for a, b, c, d in raw if (a, b) != (c, d)]
        if len(segs) < 2:
            continue
        rows.append((segs[0], segs[1:]))
    got = crosses_any(*_padded_rows(rows))
    for (query, edges), hit in zip(rows, got):
        assert hit == any(segments_intersect(*query, a, b) for a, b in edges)
    assert len(rows) > 300


_coord = st.integers(min_value=-3, max_value=3)
_segment = st.tuples(st.tuples(_coord, _coord), st.tuples(_coord, _coord)).filter(
    lambda seg: seg[0] != seg[1]
)
_row = st.tuples(_segment, st.lists(_segment, max_size=8))


@given(st.lists(_row, min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_crosses_any_rows_match_scalar_property(rows):
    """Small integer grids give many collinear and shared-endpoint cases;
    rows have unequal edge counts, so the NaN padding is exercised too."""
    got = crosses_any(*_padded_rows(rows))
    for (query, edges), hit in zip(rows, got):
        assert hit == any(segments_intersect(*query, a, b) for a, b in edges)


_point = st.tuples(_coord, _coord)


@given(st.lists(st.tuples(_point, _point, _point, st.booleans()), min_size=1, max_size=12))
@example([((0, 0), (2, 0), (1, 0), True), ((0, 0), (2, 0), (3, 0), False)])  # collinear overlaps
@example([((0, 0), (2, 0), (-1, 0), True), ((1, 1), (0, 0), (2, 2), False)])
@settings(max_examples=300, deadline=None)
def test_hits_with_a_shared_start_match_scalar_property(pairs):
    """Wire s-t against a wire that starts (head) or ends (tail) at s: the
    head and tail masks skip the endpoint rules only where they find no
    contact.  Small integer grids give many collinear overlaps."""
    pairs = [(s, t, x, head) for s, t, x, head in pairs if s != t and s != x]
    if not pairs:
        return
    s, t, x = (np.array([p[i] for p in pairs], dtype=float) for i in range(3))
    head = np.array([p[3] for p in pairs])
    ea, eb = np.where(head[:, None], s, x), np.where(head[:, None], x, s)
    got = chain._hits(s, t, ea, eb, (head, ~head))
    want = [segments_intersect(*map(tuple, w)) for w in zip(s, t, ea, eb)]
    assert got.tolist() == want == chain._hits(s, t, ea, eb).tolist()


def _contact(p, q, a, b):
    """segments_intersect, extended to a zero-length wire a == b: that
    crosses p-q where it lies on p-q other than at p or q."""
    if a != b:
        return segments_intersect(p, q, a, b)
    on_line = (q[0] - p[0]) * (a[1] - p[1]) == (q[1] - p[1]) * (a[0] - p[0])
    in_box = (
        min(p[0], q[0]) <= a[0] <= max(p[0], q[0])
        and min(p[1], q[1]) <= a[1] <= max(p[1], q[1])
    )
    return on_line and in_box and a not in (p, q)


# ---------------------------------------------------------------------------
# bus

def test_bus_perpendicular_drop():
    grid = _one_sector([(100, 30)], "bus")
    assert grid.wire_m[0] == pytest.approx(130.0)
    junctions = _junctions(grid)
    assert len(junctions) == 1
    assert junctions[0] == pytest.approx([100.0, 0.0])
    assert sorted(grid.length_m) == pytest.approx([30.0, 100.0])


def test_bus_spine_truncated_at_max_wire():
    grid = _one_sector([(400, 0)], "bus")
    assert grid.wire_m[0] == pytest.approx(400.0)
    junctions = _junctions(grid)
    assert len(junctions) == 1
    assert junctions[0] == pytest.approx([300.0, 0.0])


def test_bus_truncated_cell_is_unserved():
    grid = _one_sector([(400, 0)], "bus")
    mark_served(grid, 300.0, 35)
    assert grid.served.tolist() == [False]


def test_bus_empty_sector():
    grid = _one_sector([], "bus")
    assert grid.edges.shape == (0, 2)
    assert len(grid.node_xy) == 1


def test_bus_behind_hub_attaches_at_hub():
    grid = _one_sector([(-50, 20)], "bus")
    expected = math.hypot(50, 20)
    assert grid.wire_m[0] == pytest.approx(expected)
    assert len(grid.edges) == 1
    assert grid.edges[0, 0] == 0


def test_bus_shared_projection_single_junction():
    grid = _one_sector([(100, 30), (100, -30)], "bus")
    junctions = _junctions(grid)
    assert len(junctions) == 1
    assert grid.wire_m == pytest.approx([130.0, 130.0])


def test_bus_on_spine_cell_becomes_junction():
    grid = _one_sector([(100, 0), (100, 30)], "bus")
    assert _junctions(grid) == []
    assert grid.wire_m == pytest.approx([100.0, 130.0])
    assert sorted(grid.length_m) == pytest.approx([30.0, 100.0])


def _assert_bus_matches_reference(deployment, cfg):
    """build_bus equals the per-sector loop of tests/oracles.py:reference_bus
    field for field: the same deployment, every stored array and node view
    with its dtype and shape, n_branches and forced_crossings."""
    got, want = build_bus(deployment, cfg), reference_bus(deployment, cfg)
    assert got.deployment is want.deployment
    stored = [name for name in vars(want) if name != "deployment"]
    for name in (*stored, "node_xy", "node_kind", "node_sector"):
        value = getattr(want, name)
        if isinstance(value, np.ndarray):
            other = getattr(got, name)
            assert other.dtype == value.dtype and other.shape == value.shape, name
            assert np.array_equal(other, value), name
        else:
            assert getattr(got, name) == value, name


@pytest.mark.parametrize("hub_mode", ["center", "uniform"])
def test_bus_matches_reference_on_random_layouts(hub_mode):
    for density in (0.0, 0.1, 1.0):
        for reach in (40.0, 300.0, 1000.0):
            for seed in range(3):
                cfg = SimulationConfig(density=density, hub_mode=hub_mode, max_wire_m=reach)
                rng = np.random.default_rng(derive_seed(19, seed, 0, 0))
                _assert_bus_matches_reference(deploy(cfg, rng), cfg)


@st.composite
def _bus_cases(draw):
    """Cells on a coarse lattice around a lattice hub: many cells share a
    projection point, lie on a spine, sit on or behind the hub, or project
    past a short reach; with up to eight sectors, some are empty."""
    n_branches = draw(st.integers(min_value=1, max_value=8))
    lattice = st.integers(-4, 4).map(lambda v: 25.0 * v)
    points = draw(st.lists(st.tuples(lattice, lattice), max_size=60))
    hub = draw(st.tuples(lattice, lattice))
    anchor = draw(st.sampled_from([0.0, -math.pi, math.pi / 4, -math.pi / n_branches]))
    cfg = SimulationConfig(
        n_branches=n_branches,
        sector_anchor_rad=anchor,
        max_wire_m=draw(st.sampled_from([10.0, 30.0, 60.0, 300.0])),
    )
    return _deployment(points, hub, n_branches, anchor), cfg


@given(_bus_cases())
@settings(max_examples=300, deadline=None)
def test_bus_matches_reference_property(case):
    _assert_bus_matches_reference(*case)


# ---------------------------------------------------------------------------
# tree

def test_tree_two_collinear_cells():
    grid = _one_sector([(10, 0), (20, 0)], "tree")
    assert grid.wire_m == pytest.approx([10.0, 20.0])
    assert sorted(map(tuple, grid.edges.tolist())) == [(0, 1), (1, 2)]


def test_tree_single_cell():
    grid = _one_sector([(50, 0)], "tree")
    assert len(grid.edges) == 1
    assert grid.wire_m[0] == pytest.approx(50.0)


def test_tree_edge_count_is_cell_count():
    xy = place_cells(60, 700.0, np.random.default_rng(2))
    grid = _one_sector(xy, "tree", hub=(350.0, 350.0))
    assert len(grid.edges) == 60
    assert len(grid.node_xy) == 61


def test_tree_wire_can_exceed_euclidean():
    # the second cell routes through the first, not straight to the hub
    grid = _one_sector([(10, 0), (11, 5)], "tree")
    euclid = math.hypot(11, 5)
    assert grid.wire_m[1] == pytest.approx(10.0 + math.hypot(1, 5))
    assert grid.wire_m[1] > euclid


# ---------------------------------------------------------------------------
# chain

def test_chain_collinear_is_pure_chain():
    grid = _one_sector([(10, 0), (20, 0), (30, 0)], "chain")
    assert grid.wire_m == pytest.approx([10.0, 20.0, 30.0])
    assert sorted(map(tuple, grid.edges.tolist())) == [(0, 1), (1, 2), (2, 3)]
    assert grid.forced_crossings == 0


def test_chain_branches_to_avoid_crossing():
    # walking the chain hub->A->B->C leaves D reachable only by crossing
    # the hub-A wire, so D is branched off A instead
    grid = _one_sector([(2, 0), (2, 2), (0, 2), (3, -3)], "chain")
    assert sorted(map(tuple, grid.edges.tolist())) == [(0, 1), (1, 2), (1, 4), (2, 3)]
    assert grid.forced_crossings == 0
    assert _crossing_pairs(grid) == []
    assert grid.wire_m[3] == pytest.approx(2.0 + math.hypot(1, 3))


_FORCED = [(0, 2), (0, 3), (1, 0), (3, 0), (4, 3), (5, 3)]


def test_chain_forced_crossing_counted():
    """A fallback wire built over a not-yet-connected cell leaves that cell
    with no crossing-free attachment at all; the forced counter records it."""
    grid = _one_sector(_FORCED, "chain")
    # chain walks hub->(1,0)->(3,0)->(4,3)->(5,3); reaching (0,3) from the
    # tip would run along the (4,3)-(5,3) wire, so it falls back to the hub
    # and that wire passes straight over the cell at (0,2)
    assert sorted(map(tuple, grid.edges.tolist())) == [
        (0, 2),
        (0, 3),
        (2, 1),
        (3, 4),
        (4, 5),
        (5, 6),
    ]
    assert grid.forced_crossings == 1
    assert len(_crossing_pairs(grid)) == 1
    assert grid.wire_m[0] == pytest.approx(4.0)  # 3 up + 1 back down


def test_chain_single_cell_matches_tree():
    chain = _one_sector([(37, 21)], "chain")
    tree = _one_sector([(37, 21)], "tree")
    assert _edge_list(chain) == _edge_list(tree)
    assert chain.wire_m.tolist() == tree.wire_m.tolist()


def test_chain_never_crosses_without_flag():
    rng = np.random.default_rng(8)
    for _ in range(30):
        xy = place_cells(25, 200.0, rng)
        grid = _one_sector(xy, "chain", hub=(100.0, 100.0))
        if grid.forced_crossings == 0:
            assert _crossing_pairs(grid) == []


# ---------------------------------------------------------------------------
# whole-grid assembly

@pytest.mark.parametrize("topology", ["bus", "tree", "chain"])
def test_build_grid_is_spanning_tree(topology):
    cfg = SimulationConfig(topology=topology, density=0.1, master_seed=4)
    dep = deploy(cfg, np.random.default_rng(4))
    grid = build_grid(dep, cfg)
    n_nodes = len(grid.node_xy)
    assert len(grid.edges) == n_nodes - 1
    dist = dijkstra_from_hub(n_nodes, _edge_list(grid))
    assert len(dist) == n_nodes  # connected
    for node, cell in enumerate(grid.node_cell.tolist()):
        if grid.node_kind[node] == "cell":
            assert grid.wire_m[cell] == pytest.approx(dist[node], rel=1e-6)


@pytest.mark.parametrize("density", [0.1, 1.0])
@pytest.mark.parametrize("topology", ["bus", "tree", "chain"])
def test_cell_node_position_is_its_cell_position(topology, density):
    """A cell node's node_xy row is its cell's xy row, bit for bit (the
    layout.json writer formats each cell's coordinates once for both)."""
    cfg = SimulationConfig(topology=topology, density=density, hub_mode="uniform", master_seed=6)
    dep = deploy(cfg, np.random.default_rng(6))
    grid = build_grid(dep, cfg)
    is_cell = grid.node_cell >= 0
    assert is_cell.sum() == len(dep.xy)
    assert grid.node_xy[is_cell].tobytes() == dep.xy[grid.node_cell[is_cell]].tobytes()


def test_grid_holds_no_copy_of_its_deployment():
    """A density-20 bus grid (24,500 cells) keeps its deployment and derives
    the cell rows of its node views from it.  Bound: the grid's own arrays
    take at most 56 bytes per node; with node_xy, node_kind and node_sector
    stored it took about 93."""
    cfg = SimulationConfig(topology="bus", density=20.0, master_seed=2)
    dep = deploy(cfg, np.random.default_rng(2))
    grid = build_grid(dep, cfg)
    assert grid.deployment is dep
    is_cell = grid.node_cell >= 0
    assert grid.node_xy[is_cell].tobytes() == dep.xy[grid.node_cell[is_cell]].tobytes()
    want = reference_bus(dep, cfg)
    assert grid.node_kind.tolist() == want.node_kind.tolist()
    assert grid.node_sector.tolist() == want.node_sector.tolist()
    with pytest.raises(AttributeError):
        grid.node_xy = np.zeros((len(grid.node_cell), 2))
    own = [v for v in vars(grid).values() if isinstance(v, np.ndarray)]
    assert all(not np.shares_memory(v, a) for v in own for a in (dep.xy, dep.sector))
    assert sum(v.nbytes for v in own) <= 56 * len(grid.node_cell)


def test_build_grid_wire_at_least_euclidean():
    cfg = SimulationConfig(topology="tree", density=0.1, master_seed=6)
    dep = deploy(cfg, np.random.default_rng(6))
    grid = build_grid(dep, cfg)
    for (x, y), wire in zip(dep.xy.tolist(), grid.wire_m.tolist()):
        euclid = math.hypot(x - dep.hub[0], y - dep.hub[1])
        assert wire >= euclid - 1e-9


def test_build_grid_branch_labels_follow_sectors():
    cfg = SimulationConfig(topology="tree", density=0.05, master_seed=1)
    dep = deploy(cfg, np.random.default_rng(1))
    grid = build_grid(dep, cfg)
    cell_nodes = grid.node_kind == "cell"
    node_cells = grid.node_cell[cell_nodes]
    assert grid.node_sector[cell_nodes].tolist() == dep.sector[node_cells].tolist()


def test_build_grid_requires_hub():
    cfg = SimulationConfig()
    xy = place_cells(3, 700.0, np.random.default_rng(0))
    dep = CellDeployment((math.nan, math.nan), xy, np.zeros(3, dtype=np.intp), 10.0)
    with pytest.raises(GeometryError):
        build_grid(dep, cfg)


def test_build_grid_requires_sector_labels():
    cfg = SimulationConfig()
    xy = place_cells(3, 700.0, np.random.default_rng(0))
    dep = CellDeployment((350.0, 350.0), xy, np.full(3, -1, dtype=np.intp), 10.0)
    with pytest.raises(GeometryError):
        build_grid(dep, cfg)


# ---------------------------------------------------------------------------
# lockstep builders against the per-sector reference

def _assert_grids_match_reference(deployments, grids, topology, n_branches=6):
    """Each grid of one build_grids batch equals its deployment's
    per-sector reference feeders, bit for bit."""
    for deployment, grid in zip(deployments, grids, strict=True):
        edges, wire, forced = reference_feeders(deployment, topology, n_branches)
        assert _edge_list(grid) == edges
        assert _wire(grid) == wire
        assert grid.forced_crossings == forced


def _assert_matches_reference(deployment, topology, n_branches=6):
    """build_grid must reproduce the per-sector builders bit for bit."""
    grid = build_grid(deployment, SimulationConfig(topology=topology, n_branches=n_branches))
    _assert_grids_match_reference([deployment], [grid], topology, n_branches)


def test_lockstep_matches_reference_on_criterion_5_corpus():
    # the corpus's own topology, with chain in place of bus
    densities = [0.02, 0.05, 0.1, 0.2]
    for rep in range(1000):
        cfg = SimulationConfig(density=densities[(rep // 3) % 4])
        deployment = deploy(cfg, np.random.default_rng(derive_seed(31337, rep, 0, 0)))
        _assert_matches_reference(deployment, "tree" if rep % 3 == 1 else "chain")


@pytest.mark.parametrize("topology", ["tree", "chain"])
def test_lockstep_matches_reference_at_full_density(topology):
    cfg = SimulationConfig(density=1.0)
    for seed in range(3):
        _assert_matches_reference(deploy(cfg, np.random.default_rng(seed)), topology)


def _uneven_sectors(rng):
    """150 cells in sector 0, one in sector 3, 20 in sector 5, none elsewhere."""
    r = rng.uniform(1.0, 300.0, size=171)
    theta = np.concatenate(
        [rng.uniform(0.01, 1.0, 150), [math.pi + 0.5], rng.uniform(5.3, 6.2, 20)]
    )
    return list(zip(r * np.cos(theta), r * np.sin(theta)))


@pytest.mark.parametrize("topology", ["tree", "chain"])
def test_lockstep_matches_reference_on_edge_cases(topology):
    rng = np.random.default_rng(5)
    _assert_matches_reference(
        deploy(SimulationConfig(density=0.0), np.random.default_rng(0)), topology
    )
    # one occupied sector, five empty ones
    _assert_matches_reference(_deployment([(10, 1), (20, 3), (15, 9)]), topology)
    # duplicate coordinates, including cells on the hub itself
    _assert_matches_reference(
        _deployment([(3, 4), (3, 4), (0, 0), (0, 0), (5, 5), (3, 4), (-2, 7), (-2, 7)]),
        topology,
    )
    _assert_matches_reference(_deployment(_uneven_sectors(rng)), topology)
    # the forced-crossing layout of test_chain_forced_crossing_counted
    _assert_matches_reference(_deployment(_FORCED, n_branches=1), topology, n_branches=1)
    # integer grids: collinear hops, shared endpoints, forced crossings
    for _ in range(20):
        points = rng.integers(-6, 7, size=(int(rng.integers(1, 150)), 2)).tolist()
        _assert_matches_reference(_deployment(points), topology)
        _assert_matches_reference(_deployment(points, n_branches=1), topology, 1)


def test_single_sector_builders_match_reference():
    rng = np.random.default_rng(11)
    for _ in range(10):
        for xy in (
            place_cells(60, 200.0, rng),
            rng.integers(0, 9, size=(60, 2)).astype(float),
        ):
            for topology, reference in (("tree", reference_tree), ("chain", reference_chain)):
                grid = _one_sector(xy, topology, hub=(4.0, 4.0))
                edges, wire, forced = reference(xy, np.arange(60), (4.0, 4.0))
                assert _edge_list(grid) == edges
                assert _wire(grid) == wire
                assert grid.forced_crossings == forced


def _visit_order(grid):
    """Per sector, the cell ids in the order the grid's hops wire them."""
    child = grid.node_cell[grid.edges[:, 1]]
    return [child[grid.deployment.sector[child] == k].tolist() for k in range(grid.n_branches)]


def test_chain_visits_cells_in_greedy_tour_order():
    """A chain wires its cells in the greedy nearest-neighbour order from the
    hub, whether each hop is laid from the tip or branches."""
    rng = np.random.default_rng(23)
    deployments = [
        deploy(SimulationConfig(density=d), np.random.default_rng(derive_seed(3, i, 2, 0)))
        for i, d in enumerate((0.1, 0.25, 0.5, 1.0))
    ]
    deployments.append(_deployment(rng.integers(-5, 6, size=(90, 2)).tolist()))
    grids = build_grids(deployments, SimulationConfig(topology="chain"))
    branched = 0
    for deployment, grid in zip(deployments, grids):
        for k, order in enumerate(_visit_order(grid)):
            ids = np.flatnonzero(deployment.sector == k)
            assert order == reference_tour(deployment.xy[ids], ids, deployment.hub)
        # hops that do not start at the cell wired just before them
        hop_start = grid.node_cell[grid.edges[:, 0]]
        branched += int(np.count_nonzero(hop_start[1:] != grid.node_cell[grid.edges[:-1, 1]]))
    assert branched > 20  # the order holds across branching hops


@st.composite
def _integer_layouts(draw):
    """A batch of integer-grid layouts: collinear hops, T-contacts, duplicate
    cells and forced crossings."""
    n_branches = draw(st.sampled_from([1, 2, 6]))
    span = draw(st.integers(1, 5))
    coord = st.integers(-span, span)
    layouts = draw(
        st.lists(st.lists(st.tuples(coord, coord), min_size=1, max_size=30), min_size=1, max_size=3)
    )
    hub = draw(st.sampled_from([(0.0, 0.0), (1.0, -1.0)]))
    return n_branches, [_deployment(points, hub, n_branches) for points in layouts]


@given(_integer_layouts())
@settings(max_examples=200, deadline=None)
def test_chains_match_reference_on_integer_layouts(case):
    n_branches, deployments = case
    grids = build_grids(deployments, SimulationConfig(topology="chain", n_branches=n_branches))
    _assert_grids_match_reference(deployments, grids, "chain", n_branches)


@st.composite
def _tail_layouts(draw):
    """One sector of cells on a line through the hub, a few off it, and
    duplicates: the tour runs on along its last wire, back over it, or
    stands still, so hops touch the previous hop's tail."""
    dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1)]))
    steps = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=12))
    off = draw(st.lists(st.tuples(_coord, _coord), max_size=4))
    return _deployment([(k * dx, k * dy) for k in steps] + off, n_branches=1)


@given(_tail_layouts())
@example(_deployment([(2, 0), (-3, 0)], n_branches=1))  # back over the last wire
@example(_deployment([(2, 0), (3, 0)], n_branches=1))  # on along it
@example(_deployment([(1, 1), (1, 1), (2, 2)], n_branches=1))  # a zero-length hop
@example(_deployment([(1, 1), (1, 1), (0, 3), (1, 1)], n_branches=1))
@settings(max_examples=300, deadline=None)
def test_chains_match_reference_where_hops_touch_the_last_wire(deployment):
    """A hop's wire against the previous hop's, which ends where it starts,
    is decided by the endpoint rules for tail pairs."""
    _assert_matches_reference(deployment, "chain", n_branches=1)


# one sector where a later tour hop crosses a blocked tour hop, but not the
# wire that replaces it from the blocked hop's nearest start but the tip
_RELAID = [
    (4.9, 2.6), (4.1, 1.8), (0.8, 1.3), (0.0, 2.6), (7.2, 0.0), (6.1, 1.9), (4.9, 1.1),
    (6.6, 2.0), (3.4, 3.7), (1.1, 2.7), (7.6, 2.3), (1.6, 0.7), (2.1, 4.1), (7.1, 1.9),
    (6.4, 2.6), (9.0, 3.2), (3.8, 4.1), (3.1, 7.7), (5.5, 1.8), (8.2, 2.0), (3.6, 2.9),
    (1.7, 3.1), (7.8, 7.8), (8.5, 5.6), (1.0, 5.0), (0.8, 1.9), (4.6, 3.8),
]


def test_relaid_hop_no_longer_blocks_later_hops():
    _assert_matches_reference(_deployment(_RELAID, n_branches=1), "chain", n_branches=1)


# one-sector integer layouts whose repair rounds defer hops: a new wire,
# not the first of its row, that crosses a wire still laid after the round
# (14 cells), and one that crosses an earlier new wire of its round (25)
_DEFERRING = [
    [(-1, -4), (-3, 3), (-3, 2), (-2, 2), (-4, 4), (4, 4), (0, 1), (-3, 3), (2, -1), (4, 3),
     (-1, -4), (-3, 1), (0, 1), (-1, 3)],
    [(-2, 2), (4, -1), (4, 1), (-2, 4), (1, 1), (-2, 4), (-1, -3), (2, 0), (-2, -2), (-3, 0),
     (0, 1), (1, -3), (-2, 4), (1, 3), (4, -4), (3, -3), (1, 3), (-2, -4), (-2, 2), (-2, 0),
     (-1, -4), (2, 1), (4, 3), (-1, 0), (3, -4)],
]


def test_repair_rounds_defer_hops_for_each_reason(monkeypatch):
    """A round keeps a row's blocked hops up to the first that waits: one at
    or before which a kept re-lay changes a count, whose new wire crosses an
    earlier new wire of the round, or, not the row's first, whose new wire
    crosses a wire laid so far.  Each reason fires, and the chains still
    match the cell-by-cell growth."""
    fired = collections.Counter()
    kept = chain._kept

    def spy(first, changed, met, crossed):
        fired.update(changed=changed.any(), met=met.any(), crossed=(crossed & ~first).any())
        return kept(first, changed, met, crossed)

    monkeypatch.setattr(chain, "_kept", spy)
    for points in (_RELAID, *_DEFERRING):
        _assert_matches_reference(_deployment(points, n_branches=1), "chain", n_branches=1)
    assert fired["changed"] and fired["met"] and fired["crossed"], fired


def _third_start():
    """A deployment with one blocked hop whose wires from its nearest and
    second-nearest starts both cross, so that it takes its third."""
    cfg = SimulationConfig(density=0.5, n_branches=6, topology="chain")
    return deploy(cfg, np.random.default_rng(derive_seed(11, 3, 2, 45)))


def test_chain_search_reaches_a_third_start(monkeypatch):
    """A row's first blocked hop whose new wire crosses tries its next start
    in the next round, in (distance, node id) order, as often as it must."""
    searched = collections.Counter()
    nearest_but_tip = chain._nearest_but_tip

    def spy(node_xy, pos, r, j, c_xy, past):
        searched.update(zip(r[past >= 0].tolist(), j[past >= 0].tolist()))
        return nearest_but_tip(node_xy, pos, r, j, c_xy, past)

    monkeypatch.setattr(chain, "_nearest_but_tip", spy)
    deployments = [
        deploy(SimulationConfig(density=d), np.random.default_rng(derive_seed(1, i, 2, 0)))
        for i, d in enumerate((0.1, 0.25, 0.5, 1.0))
    ]
    deployments.append(_third_start())
    grids = build_grids(deployments, SimulationConfig(topology="chain"))
    _assert_grids_match_reference(deployments, grids, "chain")
    # the past-start searches of one hop: past its first start, then its second
    assert max(searched.values(), default=0) >= 2, searched


def test_chains_do_not_depend_on_the_chunk_sizes(monkeypatch):
    """The crossing joins take rows in groups of _WIRES wires and test
    _PAIRS candidate pairs at a time, and the repairs search the nearest
    nodes of _HOPS blocked hops at a time; no size changes a grid."""
    rng = np.random.default_rng(29)
    deployments = [
        deploy(SimulationConfig(density=d), np.random.default_rng(derive_seed(5, i, 2, 0)))
        for i, d in enumerate((0.1, 0.5))
    ]
    deployments.append(_deployment(rng.integers(-4, 5, size=(60, 2)).tolist(), n_branches=6))
    deployments += [_third_start(), _deployment(_FORCED, n_branches=1)]
    cfg = SimulationConfig(topology="chain")

    def digest():
        grids = build_grids(deployments, cfg)
        assert [g.forced_crossings for g in grids] == [0, 0, 0, 0, 1]
        return [(_edge_list(g), g.wire_m.tobytes()) for g in grids]

    expected = digest()
    for wires, pairs, hops in ((1, 1, 1), (40, 7, 3), (10**9, 10**9, 10**9)):
        monkeypatch.setattr("plcsim.chain._WIRES", wires)
        monkeypatch.setattr("plcsim.chain._PAIRS", pairs)
        monkeypatch.setattr("plcsim.chain._HOPS", hops)
        assert digest() == expected


# ---------------------------------------------------------------------------
# the screens: squared distances before np.hypot, boxes before crossing tests

class _HypotCalls:
    """numpy as plcsim.nearest sees it, counting np.hypot calls by the
    function that makes them: `grow_nearest` for the near-tie and update
    fallbacks, `keys` for a batch past the range guard."""

    def __init__(self):
        self.by = collections.Counter()

    def __getattr__(self, name):
        return getattr(np, name)

    def hypot(self, *args, **kwargs):
        self.by[sys._getframe(1).f_code.co_name] += 1
        return np.hypot(*args, **kwargs)


def _screened(monkeypatch, deployments, n_branches=6):
    """Assert that build_grids' trees and chains of one batch match
    reference_feeders; return plcsim.nearest's np.hypot calls per topology."""
    calls = {}
    for topology in ("tree", "chain"):
        calls[topology] = _HypotCalls()
        monkeypatch.setattr(nearest, "np", calls[topology])
        cfg = SimulationConfig(topology=topology, n_branches=n_branches)
        grids = build_grids(deployments, cfg)
        monkeypatch.undo()
        _assert_grids_match_reference(deployments, grids, topology, n_branches)
    return {topology: c.by for topology, c in calls.items()}


def test_screens_fall_back_on_integer_lattice_ties(monkeypatch):
    rng = np.random.default_rng(41)
    layouts = [rng.integers(-4, 5, size=(40, 2)).tolist() for _ in range(4)]
    for n_branches in (1, 6):
        calls = _screened(monkeypatch, [_deployment(p, n_branches=n_branches) for p in layouts])
        for by in calls.values():
            assert by["grow_nearest"] > 0 and by["keys"] == 0


def test_screens_fall_back_on_one_decimal_coordinates(monkeypatch):
    """Squares of one-decimal differences round, so near ties whose squares
    differ in the last bits fall back as well as exact ones."""
    rng = np.random.default_rng(43)
    layouts = [(rng.integers(-40, 41, size=(60, 2)) / 10).tolist() for _ in range(4)]
    calls = _screened(monkeypatch, [_deployment(p, hub=(0.1, 0.3)) for p in layouts])
    for by in calls.values():
        assert by["grow_nearest"] > 0 and by["keys"] == 0


def test_screens_fall_back_on_a_lone_near_tie(monkeypatch):
    """From the hub (0.1, 0.3), the squares of (-1.6, 1.5) and (1.8, -0.9)
    are both 4.33, but np.hypot puts the second one ulp nearer.  The tie is
    the only one of its step, and it still falls back: both feeders wire
    the second cell (node 2) first."""
    deployments = [_deployment([(-1.6, 1.5), (1.8, -0.9)], hub=(0.1, 0.3), n_branches=1)]
    calls = _screened(monkeypatch, deployments, 1)
    for topology in ("tree", "chain"):
        assert calls[topology]["grow_nearest"] > 0
        grid = build_grids(deployments, SimulationConfig(topology=topology, n_branches=1))[0]
        assert grid.edges[0].tolist() == [0, 2]


def test_tree_update_falls_back_on_an_equidistant_node(monkeypatch):
    """(1, 5) is as far from (2, 0) as from the hub: it stays on the hub.
    grow_tree's one np.hypot call gives the hop lengths."""
    calls = _screened(monkeypatch, [_deployment([(2, 0), (1, 5)], n_branches=1)], 1)
    assert calls["tree"] == {"grow_nearest": 2, "grow_tree": 1}


def test_screens_step_aside_past_the_range_guard(monkeypatch):
    """Squares of 1e300-scale differences overflow, and of 1e-310-scale ones
    lose their precision: a batch holding either decides on np.hypot."""
    rng = np.random.default_rng(47)
    points = [rng.integers(-9, 10, size=(30, 2)) * 0.7 for _ in range(2)]
    deployments = [_deployment(points[0] * 1e300), _deployment(points[1] * 1e-310)]
    # the chains' crossing orientations of 1e300-scale wires overflow to inf
    with np.errstate(over="ignore", invalid="ignore"):
        calls = _screened(monkeypatch, deployments)
    for by in calls.values():
        assert by["keys"] > 0


def _count_crossings(tours):
    """Per tour and hop, the earlier hops its wire touches, pairwise."""
    counts = []
    for tour in tours:
        hops = list(zip(tour, tour[1:]))
        counts.append([sum(_touch(*h, *e) for e in hops[:j]) for j, h in enumerate(hops)])
    return counts


def _touch(p, q, a, b):
    """_contact, extended to a zero-length hop p == q; two zero-length hops
    at one point are identical wires, which cross."""
    if p == q:
        return p == a if a == b else _contact(a, b, p, q)
    return _contact(p, q, a, b)


def _crossings_and_count(tours):
    """Per tour and hop, the earlier hops its wire crosses: by
    chain._crossings over the hops of all tours, tour point i as node i of
    its tour's row, and pairwise."""
    width = max(map(len, tours))
    xy = np.full((len(tours), width, 2), np.inf)
    for r, tour in enumerate(tours):
        xy[r, : len(tour)] = tour
    r, k = np.array([(r, k) for r, tour in enumerate(tours) for k in range(len(tour) - 1)]).T
    e, w = chain._crossings(xy, r, k, k + 1, k)
    assert (r[e] == r[w]).all() and (k[e] < k[w]).all()
    got = np.zeros((len(tours), width - 1), dtype=int)
    np.add.at(got, (r[w], k[w]), 1)
    count = [c + [0] * (width - 1 - len(c)) for c in _count_crossings(tours)]
    return got.tolist(), count


def _boxes_touch(p, q, a, b):
    return all(
        min(p[x], q[x]) <= max(a[x], b[x]) and min(a[x], b[x]) <= max(p[x], q[x])
        for x in (0, 1)
    )


def test_tour_crossings_pass_touching_boxes_to_the_exact_test(monkeypatch):
    """Hops that touch on a box edge, overlap collinearly or have no length
    reach the orientation test; no other pair of hops does."""
    tours = [
        [(0, 0), (2, 0), (2, 2), (1, 0), (1, -1)],  # a T-contact on a flat box
        [(0, 0), (4, 0), (4, 1), (2, 0), (6, 0)],  # collinear overlap
        [(0, 0), (1, 1), (1, 1), (2, 0), (0, 2)],  # a zero-length hop
        [(0, 0), (2, 1), (3, 3), (2, 3), (2, 1)],  # boxes sharing a corner
        [(0, 0), (3, 0)],
    ]
    tested = []
    hits = chain._hits
    monkeypatch.setattr(chain, "_hits", lambda s, *a: tested.append(len(s)) or hits(s, *a))
    got, count = _crossings_and_count(tours)
    assert got == count
    hops = [list(zip(t, t[1:])) for t in tours]
    assert sum(tested) == sum(_boxes_touch(*h[j], *e) for h in hops for j in range(len(h)) for e in h[:j])
    assert 0 < sum(tested) < 4 * 6


@given(st.lists(st.lists(st.tuples(_coord, _coord), min_size=2, max_size=9), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_tour_crossings_match_pairwise_count_property(tours):
    got, count = _crossings_and_count(tours)
    assert got == count


# bound on the tracemalloc peak of one build_grids call on a reach-sweep
# batch, in MiB
_GROWTH_PEAK_MIB = {"chain": 0.95, "tree": 0.77}


@pytest.mark.parametrize("topology", ["chain", "tree"])
def test_growth_memory_stays_at_its_bound(topology):
    """One replication per density at the bench's reach-sweep shape (4
    densities, one lockstep batch), seeds 1-3."""
    j = ("bus", "tree", "chain").index(topology)
    cfg = SimulationConfig(topology=topology, horizon_s=1.0, dt_s=1.0)
    for seed in (1, 2, 3):
        deployments = [
            deploy(SimulationConfig(density=d), np.random.default_rng(derive_seed(seed, i, j, 0)))
            for i, d in enumerate((0.1, 0.25, 0.5, 1.0))
        ]
        build_grids(deployments, cfg)
        tracemalloc.start()
        try:
            build_grids(deployments, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 2**20 <= _GROWTH_PEAK_MIB[topology], (seed, peak)


# the same bound on one paper-scale batch (32 replications at density 1.0,
# seed 1), measured before the squared-distance screens: chain 10.665 MiB,
# tree 8.409 MiB
_PAPER_PEAK_MIB = {"chain": 10.7, "tree": 8.45}


@pytest.mark.parametrize("topology", ["chain", "tree"])
def test_paper_scale_growth_memory_stays_at_its_bound(topology):
    j = ("bus", "tree", "chain").index(topology)
    cfg = SimulationConfig(topology=topology, density=1.0)
    deployments = [
        deploy(cfg, np.random.default_rng(derive_seed(1, 3, j, k))) for k in range(32)
    ]
    build_grids(deployments, cfg)
    tracemalloc.start()
    try:
        build_grids(deployments, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 <= _PAPER_PEAK_MIB[topology], peak


def test_tree_is_minimum_spanning_tree():
    """Each sector's tree is as long as the Euclidean MST over the hub and
    that sector's cells."""
    for seed in range(30):
        hub_mode = "uniform" if seed % 2 else "center"
        cfg = SimulationConfig(topology="tree", hub_mode=hub_mode)
        dep = deploy(cfg, np.random.default_rng(seed))
        grid = build_grid(dep, cfg)
        total = [0.0] * cfg.n_branches
        for (_, b), length in zip(grid.edges.tolist(), grid.length_m.tolist()):
            total[grid.node_sector[b]] += length
        for k in range(cfg.n_branches):
            points = np.vstack([dep.hub, dep.xy[dep.sector == k]])
            assert total[k] == pytest.approx(mst_length(points), rel=1e-12)


# ---------------------------------------------------------------------------
# service marking

def _bare_grid(wire, branch=None):
    """Grid with per-cell wire distances and branches and no nodes."""
    branch = np.array([0] * len(wire) if branch is None else branch, dtype=np.intp)
    return PowerGrid(
        deployment=CellDeployment((0.0, 0.0), np.zeros((branch.size, 2)), branch, 1.0),
        node_cell=np.array([-1]),
        junction_xy=np.empty((0, 2)),
        junction_sector=np.empty(0, dtype=np.intp),
        edges=np.empty((0, 2), dtype=np.intp),
        length_m=np.empty(0),
        wire_m=np.array(wire, dtype=float),
        served=np.zeros(len(wire), dtype=bool),
        n_branches=max(branch.tolist(), default=0) + 1,
    )


def test_mark_served_threshold():
    grid = _bare_grid([100.0, 250.0, 310.0])
    mark_served(grid, 300.0, 35)
    assert grid.served.tolist() == [True, True, False]


def test_mark_served_branch_cap_keeps_nearest():
    grid = _bare_grid([float(i + 1) for i in range(40)])
    mark_served(grid, 300.0, 35)
    assert grid.served.sum() == 35
    assert grid.served[:35].all()
    assert not grid.served[35:].any()


def test_mark_served_cap_tie_breaks_by_id():
    # cells 3 and 7 tie; every other cell is out of reach
    wire = [1e6] * 8
    wire[7] = wire[3] = 50.0
    grid = _bare_grid(wire)
    mark_served(grid, 300.0, 1)
    assert np.flatnonzero(grid.served).tolist() == [3]


def test_mark_served_cap_is_per_branch():
    grid = _bare_grid([10.0, 20.0, 10.0, 20.0], branch=[0, 0, 1, 1])
    mark_served(grid, 300.0, 1)
    assert grid.served.tolist() == [True, False, True, False]


def test_mark_served_empty():
    grid = _bare_grid([])
    mark_served(grid, 300.0, 35)
    assert grid.served.size == 0
    assert reachability_fraction(grid) is None


def test_reachability_fraction():
    grid = _bare_grid([10.0, 20.0, 400.0, 500.0])
    mark_served(grid, 300.0, 35)
    assert reachability_fraction(grid) == pytest.approx(0.5)
    mark_served(grid, 1000.0, 35)
    assert reachability_fraction(grid) == pytest.approx(1.0)


@st.composite
def _service_cases(draw):
    """Wire distances on a coarse grid (many ties), branches drawn from more
    labels than cells use (empty branches), and a reach equal to one of the
    distances (cells exactly at max_wire_m)."""
    n = draw(st.integers(min_value=0, max_value=40))
    n_branches = draw(st.integers(min_value=1, max_value=8))
    wire = draw(st.lists(st.integers(0, 12).map(lambda v: 25.0 * v), min_size=n, max_size=n))
    branch = draw(
        st.lists(st.integers(0, n_branches - 1), min_size=n, max_size=n)
    )
    max_wire = draw(st.sampled_from(wire) if wire else st.just(100.0))
    cap = draw(st.sampled_from([1, 2, 3, n + 1, 1000]))
    return wire, branch, max_wire, cap


@given(_service_cases())
@settings(max_examples=300, deadline=None)
def test_mark_served_matches_reference_property(case):
    wire, branch, max_wire, cap = case
    grid = mark_served(_bare_grid(wire, branch), max_wire, cap)
    want = reference_mark_served(wire, branch, max_wire, cap)
    assert dict(enumerate(grid.served.tolist())) == want


@given(_service_cases(), st.floats(0.0, 400.0), st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_mark_served_monotone_in_reach_and_cap_property(case, more_wire, more_cap):
    """On a fixed grid the served set only grows as the reach or the cap
    rises."""
    wire, branch, max_wire, cap = case
    grid = _bare_grid(wire, branch)
    base = mark_served(grid, max_wire, cap).served.copy()
    wider = mark_served(grid, max_wire + more_wire, cap).served
    assert not (base & ~wider).any()
    larger = mark_served(grid, max_wire, cap + more_cap).served
    assert not (base & ~larger).any()


# ---------------------------------------------------------------------------
# service monotonicity in the wire budget

@pytest.mark.parametrize("topology", ["tree", "chain"])
def test_served_set_monotone_in_max_wire(topology):
    cfg = SimulationConfig(topology=topology, density=0.15, master_seed=13)
    dep = deploy(cfg, np.random.default_rng(13))
    grid = build_grid(dep, cfg)
    prev: set = set()
    for m in (50.0, 150.0, 300.0, 600.0, 2000.0):
        mark_served(grid, m, cfg.max_cells_per_branch)
        cur = set(np.flatnonzero(grid.served).tolist())
        assert prev <= cur
        prev = cur


def test_bus_served_set_monotone_with_open_cap():
    # the bus spine is re-laid for each wire budget, so monotonicity is
    # only guaranteed when the fan-out cap is not binding
    prev: set = set()
    for m in (50.0, 150.0, 300.0, 600.0, 2000.0):
        cfg = SimulationConfig(
            topology="bus", density=0.15, master_seed=13, max_wire_m=m,
            max_cells_per_branch=10_000,
        )
        dep = deploy(cfg, np.random.default_rng(13))
        grid = build_grid(dep, cfg)
        mark_served(grid, m, cfg.max_cells_per_branch)
        cur = set(np.flatnonzero(grid.served).tolist())
        assert prev <= cur
        prev = cur


# ---------------------------------------------------------------------------
# bus reach against its closed form

def _bus_reach(config, seed):
    grid = build_grid(deploy(config, np.random.default_rng(seed)), config)
    mark_served(grid, config.max_wire_m, config.max_cells_per_branch)
    return reachability_fraction(grid)


def test_bus_reach_matches_closed_form():
    """Below the fan-out cap's onset (density 0.25) the mean bus reach over
    400 layouts matches bus_reachability_closed_form; bound |z| <= 4."""
    cfg = SimulationConfig(density=0.25, topology="bus")
    reach = [_bus_reach(cfg, derive_seed(99, 0, 0, k)) for k in range(400)]
    stderr = np.std(reach, ddof=1) / math.sqrt(len(reach))
    z = (np.mean(reach) - bus_reachability_closed_form(cfg)) / stderr
    assert abs(z) <= 4.0


def test_bus_reach_saturates_at_the_cap():
    """At density 1.0 every branch holds more than its cap within reach, so
    bus reach is exactly n_branches * cap / n = 210 / 1225."""
    cfg = SimulationConfig(density=1.0, topology="bus")
    assert bus_reachability_closed_form(cfg) == pytest.approx(210 / 1225, rel=1e-9)
    for seed in range(5):
        assert _bus_reach(cfg, seed) == 210 / 1225


@pytest.mark.parametrize(
    "case, density, n_branches, max_wire_m",
    [(1, 0.4, 6, 300.0), (2, 0.5, 6, 300.0), (3, 0.25, 4, 250.0), (4, 0.25, 8, 300.0)],
)
def test_bus_reach_matches_closed_form_across_cap_onset_and_geometry(
    case, density, n_branches, max_wire_m
):
    """The closed form holds where the fan-out cap starts to bind (density
    0.4, 0.5; the mean sector count passes 35 near 0.425) and for other
    sector counts and reaches inside its validity condition; mean over 200
    layouts, bound |z| <= 4."""
    cfg = SimulationConfig(
        density=density, topology="bus", n_branches=n_branches, max_wire_m=max_wire_m
    )
    reach = [_bus_reach(cfg, derive_seed(99, case, 0, k)) for k in range(200)]
    stderr = np.std(reach, ddof=1) / math.sqrt(len(reach))
    z = (np.mean(reach) - bus_reachability_closed_form(cfg)) / stderr
    assert abs(z) <= 4.0
