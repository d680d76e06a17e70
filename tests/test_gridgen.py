import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dijkstra_from_hub,
    mst_length,
    reference_chain,
    reference_feeders,
    reference_tree,
    segments_intersect,
)
from plcsim.config import SimulationConfig
from plcsim.deployment import Cell, CellDeployment, assign_sectors, deploy, place_cells
from plcsim.errors import GeometryError
from plcsim.gridgen import (
    PowerGrid,
    _crosses_any,
    build_bus,
    build_chain,
    build_grid,
    build_tree,
    mark_served,
    reachability_fraction,
    wire_distance,
)
from plcsim.simulator import derive_seed


def _cells(points):
    return [Cell(i, float(x), float(y), 10.0) for i, (x, y) in enumerate(points)]


def _edge_segments(grid):
    coord = {n.id: (n.x_m, n.y_m) for n in grid.nodes}
    return [(coord[e.a], coord[e.b]) for e in grid.edges]


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
    got = _crosses_any(*_padded_rows(rows))
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
    got = _crosses_any(*_padded_rows(rows))
    for (query, edges), hit in zip(rows, got):
        assert hit == any(segments_intersect(*query, a, b) for a, b in edges)


# ---------------------------------------------------------------------------
# bus

def test_bus_perpendicular_drop():
    grid = build_bus(_cells([(100, 30)]), (0.0, 0.0), 0.0, 300.0)
    assert grid.wire_distance_m[0] == pytest.approx(130.0)
    junctions = [n for n in grid.nodes if n.kind == "junction"]
    assert len(junctions) == 1
    assert (junctions[0].x_m, junctions[0].y_m) == pytest.approx((100.0, 0.0))
    assert sorted(e.length_m for e in grid.edges) == pytest.approx([30.0, 100.0])


def test_bus_spine_truncated_at_max_wire():
    grid = build_bus(_cells([(400, 0)]), (0.0, 0.0), 0.0, 300.0)
    assert grid.wire_distance_m[0] == pytest.approx(400.0)
    junctions = [n for n in grid.nodes if n.kind == "junction"]
    assert len(junctions) == 1
    assert (junctions[0].x_m, junctions[0].y_m) == pytest.approx((300.0, 0.0))


def test_bus_truncated_cell_is_unserved():
    grid = build_bus(_cells([(400, 0)]), (0.0, 0.0), 0.0, 300.0)
    grid.branch_of = {0: 0}
    mark_served(grid, 300.0, 35)
    assert grid.served == {0: False}


def test_bus_empty_sector():
    grid = build_bus([], (0.0, 0.0), 0.0, 300.0)
    assert grid.edges == []
    assert len(grid.nodes) == 1


def test_bus_behind_hub_attaches_at_hub():
    grid = build_bus(_cells([(-50, 20)]), (0.0, 0.0), 0.0, 300.0)
    expected = math.hypot(50, 20)
    assert grid.wire_distance_m[0] == pytest.approx(expected)
    assert len(grid.edges) == 1
    assert grid.edges[0].a == 0


def test_bus_shared_projection_single_junction():
    grid = build_bus(_cells([(100, 30), (100, -30)]), (0.0, 0.0), 0.0, 300.0)
    junctions = [n for n in grid.nodes if n.kind == "junction"]
    assert len(junctions) == 1
    assert grid.wire_distance_m == pytest.approx({0: 130.0, 1: 130.0})


def test_bus_on_spine_cell_becomes_junction():
    grid = build_bus(_cells([(100, 0), (100, 30)]), (0.0, 0.0), 0.0, 300.0)
    assert [n for n in grid.nodes if n.kind == "junction"] == []
    assert grid.wire_distance_m == pytest.approx({0: 100.0, 1: 130.0})
    assert sorted(e.length_m for e in grid.edges) == pytest.approx([30.0, 100.0])


def _with_branch(grid):
    grid.branch_of = {cid: 0 for cid in grid.wire_distance_m}
    return grid


# ---------------------------------------------------------------------------
# tree

def test_tree_two_collinear_cells():
    grid = build_tree(_cells([(10, 0), (20, 0)]), (0.0, 0.0))
    assert grid.wire_distance_m == pytest.approx({0: 10.0, 1: 20.0})
    assert sorted((e.a, e.b) for e in grid.edges) == [(0, 1), (1, 2)]


def test_tree_single_cell():
    grid = build_tree(_cells([(50, 0)]), (0.0, 0.0))
    assert len(grid.edges) == 1
    assert grid.wire_distance_m[0] == pytest.approx(50.0)


def test_tree_edge_count_is_cell_count():
    cells = place_cells(60, 700.0, np.random.default_rng(2)).cells
    grid = build_tree(cells, (350.0, 350.0))
    assert len(grid.edges) == 60
    assert len(grid.nodes) == 61


def test_tree_wire_can_exceed_euclidean():
    # the second cell routes through the first, not straight to the hub
    grid = build_tree(_cells([(10, 0), (11, 5)]), (0.0, 0.0))
    euclid = math.hypot(11, 5)
    assert grid.wire_distance_m[1] == pytest.approx(10.0 + math.hypot(1, 5))
    assert grid.wire_distance_m[1] > euclid


# ---------------------------------------------------------------------------
# chain

def test_chain_collinear_is_pure_chain():
    grid = build_chain(_cells([(10, 0), (20, 0), (30, 0)]), (0.0, 0.0))
    assert grid.wire_distance_m == pytest.approx({0: 10.0, 1: 20.0, 2: 30.0})
    assert sorted((e.a, e.b) for e in grid.edges) == [(0, 1), (1, 2), (2, 3)]
    assert grid.forced_crossings == 0


def test_chain_branches_to_avoid_crossing():
    # walking the chain hub->A->B->C leaves D reachable only by crossing
    # the hub-A wire, so D is branched off A instead
    grid = build_chain(_cells([(2, 0), (2, 2), (0, 2), (3, -3)]), (0.0, 0.0))
    assert sorted((e.a, e.b) for e in grid.edges) == [(0, 1), (1, 2), (1, 4), (2, 3)]
    assert grid.forced_crossings == 0
    assert _crossing_pairs(grid) == []
    assert grid.wire_distance_m[3] == pytest.approx(2.0 + math.hypot(1, 3))


def test_chain_forced_crossing_counted():
    """A fallback wire built over a not-yet-connected cell leaves that cell
    with no crossing-free attachment at all; the forced counter records it."""
    pts = [(0, 2), (0, 3), (1, 0), (3, 0), (4, 3), (5, 3)]
    grid = build_chain(_cells(pts), (0.0, 0.0))
    # chain walks hub->(1,0)->(3,0)->(4,3)->(5,3); reaching (0,3) from the
    # tip would run along the (4,3)-(5,3) wire, so it falls back to the hub
    # and that wire passes straight over the cell at (0,2)
    assert sorted((e.a, e.b) for e in grid.edges) == [
        (0, 2),
        (0, 3),
        (2, 1),
        (3, 4),
        (4, 5),
        (5, 6),
    ]
    assert grid.forced_crossings == 1
    assert len(_crossing_pairs(grid)) == 1
    assert grid.wire_distance_m[0] == pytest.approx(4.0)  # 3 up + 1 back down


def test_chain_single_cell_matches_tree():
    cells = _cells([(37, 21)])
    chain = build_chain(cells, (0.0, 0.0))
    tree = build_tree(cells, (0.0, 0.0))
    assert [(e.a, e.b, e.length_m) for e in chain.edges] == [
        (e.a, e.b, e.length_m) for e in tree.edges
    ]
    assert chain.wire_distance_m == tree.wire_distance_m


def test_chain_never_crosses_without_flag():
    rng = np.random.default_rng(8)
    for _ in range(30):
        cells = place_cells(25, 200.0, rng).cells
        grid = build_chain(cells, (100.0, 100.0))
        if grid.forced_crossings == 0:
            assert _crossing_pairs(grid) == []


# ---------------------------------------------------------------------------
# whole-grid assembly

@pytest.mark.parametrize("topology", ["bus", "tree", "chain"])
def test_build_grid_is_spanning_tree(topology):
    cfg = SimulationConfig(topology=topology, density=0.1, master_seed=4)
    dep = deploy(cfg, np.random.default_rng(4))
    grid = build_grid(dep, cfg)
    assert len(grid.edges) == len(grid.nodes) - 1
    dist = dijkstra_from_hub(
        len(grid.nodes), [(e.a, e.b, e.length_m) for e in grid.edges]
    )
    assert len(dist) == len(grid.nodes)  # connected
    for node in grid.nodes:
        if node.kind == "cell":
            got = grid.wire_distance_m[node.cell_id]
            assert got == pytest.approx(dist[node.id], rel=1e-6)


def test_build_grid_wire_at_least_euclidean():
    cfg = SimulationConfig(topology="tree", density=0.1, master_seed=6)
    dep = deploy(cfg, np.random.default_rng(6))
    grid = build_grid(dep, cfg)
    for cell in dep.cells:
        euclid = math.hypot(cell.x_m - dep.hub_x_m, cell.y_m - dep.hub_y_m)
        assert grid.wire_distance_m[cell.id] >= euclid - 1e-9


def test_build_grid_branch_labels_follow_sectors():
    cfg = SimulationConfig(topology="tree", density=0.05, master_seed=1)
    dep = deploy(cfg, np.random.default_rng(1))
    grid = build_grid(dep, cfg)
    for cell in dep.cells:
        assert grid.branch_of[cell.id] == cell.sector


def test_build_grid_requires_hub():
    cfg = SimulationConfig()
    dep = place_cells(3, 700.0, np.random.default_rng(0))
    with pytest.raises(GeometryError):
        build_grid(dep, cfg)


def test_build_grid_requires_sector_labels():
    cfg = SimulationConfig()
    dep = place_cells(3, 700.0, np.random.default_rng(0))
    dep.hub_x_m = dep.hub_y_m = 350.0
    with pytest.raises(GeometryError):
        build_grid(dep, cfg)


def test_wire_distance_unknown_cell():
    grid = build_tree(_cells([(10, 0)]), (0.0, 0.0))
    assert wire_distance(grid, 0) == pytest.approx(10.0)
    with pytest.raises(KeyError, match="not part of this grid"):
        wire_distance(grid, 99)


# ---------------------------------------------------------------------------
# lockstep builders against the per-sector reference

def _assert_matches_reference(deployment, topology, n_branches=6):
    """build_grid must reproduce the per-sector builders bit for bit."""
    cfg = SimulationConfig(topology=topology, n_branches=n_branches)
    grid = build_grid(deployment, cfg)
    edges, wire, forced = reference_feeders(deployment, topology, n_branches)
    assert [(e.a, e.b, e.length_m) for e in grid.edges] == edges
    assert list(grid.wire_distance_m.items()) == list(wire.items())
    assert grid.forced_crossings == forced


def _deployment(points, hub=(0.0, 0.0), n_branches=6):
    dep = CellDeployment(cells=_cells(points), hub_x_m=hub[0], hub_y_m=hub[1])
    return assign_sectors(dep, n_branches)


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
    _assert_matches_reference(
        _deployment([(0, 2), (0, 3), (1, 0), (3, 0), (4, 3), (5, 3)], n_branches=1),
        topology,
        n_branches=1,
    )
    # integer grids: collinear hops, shared endpoints, forced crossings
    for _ in range(20):
        points = rng.integers(-6, 7, size=(int(rng.integers(1, 150)), 2)).tolist()
        _assert_matches_reference(_deployment(points), topology)
        _assert_matches_reference(_deployment(points, n_branches=1), topology, 1)


def test_single_sector_builders_match_reference():
    rng = np.random.default_rng(11)
    for _ in range(10):
        for cells in (
            place_cells(60, 200.0, rng).cells,
            _cells(rng.integers(0, 9, size=(60, 2)).tolist()),
        ):
            for build, reference in (
                (build_tree, reference_tree),
                (build_chain, reference_chain),
            ):
                grid = build(cells, (4.0, 4.0))
                edges, wire, forced = reference(cells, (4.0, 4.0))
                assert [(e.a, e.b, e.length_m) for e in grid.edges] == edges
                assert grid.wire_distance_m == wire
                assert grid.forced_crossings == forced


def test_tree_is_minimum_spanning_tree():
    """Each sector's tree is as long as the Euclidean MST over the hub and
    that sector's cells."""
    for seed in range(30):
        hub_mode = "uniform" if seed % 2 else "center"
        cfg = SimulationConfig(topology="tree", hub_mode=hub_mode)
        dep = deploy(cfg, np.random.default_rng(seed))
        grid = build_grid(dep, cfg)
        total = [0.0] * cfg.n_branches
        for e in grid.edges:
            total[grid.nodes[e.b].sector] += e.length_m
        hub = (dep.hub_x_m, dep.hub_y_m)
        for k in range(cfg.n_branches):
            cells = [(c.x_m, c.y_m) for c in dep.cells if c.sector == k]
            points = np.array([hub] + cells)
            assert total[k] == pytest.approx(mst_length(points), rel=1e-12)


# ---------------------------------------------------------------------------
# service marking

def _bare_grid(wire, branch=None):
    grid = PowerGrid()
    grid.wire_distance_m = dict(wire)
    grid.branch_of = branch or {cid: 0 for cid in wire}
    return grid


def test_mark_served_threshold():
    grid = _bare_grid({0: 100.0, 1: 250.0, 2: 310.0})
    mark_served(grid, 300.0, 35)
    assert grid.served == {0: True, 1: True, 2: False}


def test_mark_served_branch_cap_keeps_nearest():
    grid = _bare_grid({i: float(i + 1) for i in range(40)})
    mark_served(grid, 300.0, 35)
    assert sum(grid.served.values()) == 35
    assert all(grid.served[i] for i in range(35))
    assert not any(grid.served[i] for i in range(35, 40))


def test_mark_served_cap_tie_breaks_by_id():
    grid = _bare_grid({7: 50.0, 3: 50.0})
    mark_served(grid, 300.0, 1)
    assert grid.served == {3: True, 7: False}


def test_mark_served_cap_is_per_branch():
    wire = {0: 10.0, 1: 20.0, 2: 10.0, 3: 20.0}
    grid = _bare_grid(wire, branch={0: 0, 1: 0, 2: 1, 3: 1})
    mark_served(grid, 300.0, 1)
    assert grid.served == {0: True, 1: False, 2: True, 3: False}


def test_mark_served_empty():
    grid = _bare_grid({})
    mark_served(grid, 300.0, 35)
    assert grid.served == {}
    assert reachability_fraction(grid) is None


def test_reachability_fraction():
    grid = _bare_grid({0: 10.0, 1: 20.0, 2: 400.0, 3: 500.0})
    mark_served(grid, 300.0, 35)
    assert reachability_fraction(grid) == pytest.approx(0.5)
    mark_served(grid, 1000.0, 35)
    assert reachability_fraction(grid) == pytest.approx(1.0)


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
        cur = {cid for cid, s in grid.served.items() if s}
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
        cur = {cid for cid, s in grid.served.items() if s}
        assert prev <= cur
        prev = cur
