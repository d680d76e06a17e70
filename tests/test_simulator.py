import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from oracles import (
    CountingRng,
    bus_reachability_closed_form,
    empty_sessions,
    mean_hub_rate_closed_form,
    reference_aggregate,
    reference_replication,
    reference_replication_v2,
)
from plcsim import chain, gridgen, nearest, simulator
from plcsim.config import SimulationConfig
from plcsim.deployment import CellDeployment, cell_count, deploy
from plcsim.errors import ConfigError
from plcsim.gridgen import PowerGrid, build_grid, mark_served
from plcsim.simulator import (
    METRICS,
    SessionSet,
    _step_count,
    aggregate_rate_series,
    compute_metrics,
    derive_seed,
    generate_traffic,
    run_replication,
    run_sweep,
)
from plcsim.traffic import BLOCK_SESSIONS, TrafficModel, session_blocks


def _grid(branch, served, n_branches=2):
    """Grid with per-cell branches and served flags and no nodes."""
    branch = np.array(branch, dtype=np.intp)
    return PowerGrid(
        deployment=CellDeployment((0.0, 0.0), np.zeros((branch.size, 2)), branch, 1.0),
        node_cell=np.array([-1]),
        junction_xy=np.empty((0, 2)),
        junction_sector=np.empty(0, dtype=np.intp),
        edges=np.empty((0, 2), dtype=np.intp),
        length_m=np.empty(0),
        wire_m=np.ones(branch.size),
        served=np.array(served, dtype=bool),
        n_branches=n_branches,
    )


def _all_served_grid(n_cells, n_branches=2):
    return _grid([i % n_branches for i in range(n_cells)], [True] * n_cells, n_branches)


def _offered(grid):
    """The offered-load view of a grid: a copy with every cell served."""
    return dataclasses.replace(grid, served=np.ones_like(grid.served))


def _sessions(*rows):
    """SessionSet of (cell id, kind, start, duration, rate) rows, sorted by
    (cell id, start) like generate_traffic's output."""
    rows = sorted(rows, key=lambda r: (r[0], r[2]))
    return SessionSet(
        np.array([r[0] for r in rows], dtype=int),
        np.array([r[1] == "data" for r in rows], dtype=bool),
        np.array([r[2] for r in rows], dtype=float),
        np.array([r[3] for r in rows], dtype=float),
        np.array([r[4] for r in rows], dtype=float),
    )


# ---------------------------------------------------------------------------
# seed derivation

def test_derive_seed_is_positional():
    assert derive_seed(42, 1, 2, 3) == derive_seed(42, 1, 2, 3)
    seen = {
        derive_seed(42, i, j, k)
        for i in range(4)
        for j in range(3)
        for k in range(50)
    }
    assert len(seen) == 4 * 3 * 50


def test_derive_seed_depends_on_every_index():
    base = derive_seed(0, 0, 0, 0)
    assert derive_seed(1, 0, 0, 0) != base
    assert derive_seed(0, 1, 0, 0) != base
    assert derive_seed(0, 0, 1, 0) != base
    assert derive_seed(0, 0, 0, 1) != base


def test_derive_seed_fits_in_64_bits():
    s = derive_seed(2**63, 10, 20, 30)
    assert 0 <= s < 2**64


# ---------------------------------------------------------------------------
# step counting

def test_step_count_exact_division():
    assert _step_count(3600.0, 1.0) == 3600


def test_step_count_rounds_up_partial_step():
    assert _step_count(10.0, 3.0) == 4


def test_step_count_tolerates_float_ratio():
    assert _step_count(0.3, 0.1) == 3


def test_step_count_minimum_one():
    assert _step_count(0.5, 1.0) == 1


# ---------------------------------------------------------------------------
# rate aggregation

def test_single_voice_session_series():
    sessions = _sessions((0, "voice", 0.0, 100.0, 128000.0))
    grid = _all_served_grid(1)
    series = aggregate_rate_series(sessions, grid, 1.0, 3600.0)
    assert series.hub.shape == (3600,)
    assert series.hub[:100] == pytest.approx(np.full(100, 128000.0))
    assert series.hub[100:] == pytest.approx(np.zeros(3500))


def test_single_session_metrics():
    sessions = _sessions((0, "voice", 0.0, 100.0, 128000.0))
    grid = _all_served_grid(1)
    series = aggregate_rate_series(sessions, grid, 1.0, 3600.0)
    report = compute_metrics(series, grid)
    assert report.avg_rate_bps == pytest.approx(128000.0 * 100.0 / 3600.0)
    assert report.max_rate_bps == pytest.approx(128000.0)


def test_half_step_overlap_prorated():
    sessions = _sessions((0, "data", 0.5, 1.0, 200.0))
    grid = _all_served_grid(1)
    series = aggregate_rate_series(sessions, grid, 1.0, 3.0)
    assert series.hub == pytest.approx([100.0, 100.0, 0.0])


def test_sub_step_session_prorated():
    sessions = _sessions((0, "data", 0.25, 0.5, 100.0))
    grid = _all_served_grid(1)
    series = aggregate_rate_series(sessions, grid, 1.0, 2.0)
    assert series.hub == pytest.approx([50.0, 0.0])


def test_session_clipped_at_horizon():
    sessions = _sessions((0, "voice", 9.0, 1e9, 128000.0))
    grid = _all_served_grid(1)
    series = aggregate_rate_series(sessions, grid, 1.0, 10.0)
    assert series.hub[:9] == pytest.approx(np.zeros(9))
    assert series.hub[9] == pytest.approx(128000.0)


@pytest.mark.parametrize("duration", [-1.0, -0.25, np.nan])
def test_session_duration_must_be_non_negative(duration):
    sessions = _sessions((0, "data", 0.5, duration, 100.0))
    with pytest.raises(ValueError, match="non-negative"):
        aggregate_rate_series(sessions, _all_served_grid(1), 1.0, 4.0)


def test_disjoint_sessions_hub_is_branch_sum():
    sessions = _sessions(
        (0, "voice", 0.0, 2.0, 128000.0),
        (1, "data", 5.0, 2.0, 1000.0),
    )
    grid = _all_served_grid(2)
    series = aggregate_rate_series(sessions, grid, 1.0, 10.0)
    assert series.branches.shape == (2, 10)
    assert series.hub == pytest.approx(series.branches.sum(axis=0))
    assert series.branches[0][0] == pytest.approx(128000.0)
    assert series.branches[1][5] == pytest.approx(1000.0)


def test_empty_sessions_all_zeros():
    grid = _all_served_grid(1)
    series = aggregate_rate_series(empty_sessions(), grid, 1.0, 10.0)
    report = compute_metrics(series, grid)
    assert report.avg_rate_bps == 0.0
    assert report.max_rate_bps == 0.0
    assert report.mean_wait_s is None


def test_unserved_sessions_excluded_bit_identically():
    cfg = SimulationConfig(density=0.1, horizon_s=200.0)
    rng = np.random.default_rng(21)
    model = TrafficModel.from_config(cfg)
    grid = _grid([0, 1, 0], [True, False, True])
    sessions = generate_traffic(rng, model, 3, cfg.horizon_s)

    full = aggregate_rate_series(sessions, grid, 1.0, cfg.horizon_s)
    ablated = aggregate_rate_series(
        sessions.subset(sessions.cell_id != 1), grid, 1.0, cfg.horizon_s
    )
    assert np.array_equal(full.hub, ablated.hub)
    assert np.array_equal(full.branches, ablated.branches)


def test_offered_view_counts_every_cell():
    grid = _grid([0, 1], [True, False])
    sessions = _sessions(
        (0, "voice", 0.0, 1.0, 100.0),
        (1, "voice", 0.0, 1.0, 100.0),
    )
    series = aggregate_rate_series(sessions, grid, 1.0, 2.0)
    offered = aggregate_rate_series(sessions, _offered(grid), 1.0, 2.0)
    assert series.hub[0] == pytest.approx(100.0)
    assert offered.hub[0] == pytest.approx(200.0)


def test_hub_equals_branch_sum_on_random_scenario():
    cfg = SimulationConfig(density=0.1, horizon_s=300.0, master_seed=3)
    report_seed = derive_seed(cfg.master_seed, 0, 0, 0)
    rng = np.random.default_rng(report_seed)
    dep = deploy(cfg, rng)
    grid = build_grid(dep, cfg)
    mark_served(grid, cfg.max_wire_m, cfg.max_cells_per_branch)
    model = TrafficModel.from_config(cfg)
    sessions = generate_traffic(rng, model, len(dep.xy), cfg.horizon_s)
    series = aggregate_rate_series(sessions, grid, cfg.dt_s, cfg.horizon_s)
    assert series.hub == pytest.approx(series.branches.sum(axis=0), rel=1e-6)


@pytest.mark.parametrize("offered", [False, True])
@pytest.mark.parametrize("topology", ["bus", "tree", "chain"])
def test_bit_conservation(topology, offered):
    """The hub carries exactly the bits the kept sessions deliver before the
    horizon, and the branch series add up to the hub series.  The step
    (0.7 s) does not divide the horizon, so steps straddle session ends."""
    cfg = SimulationConfig(density=0.25, topology=topology, horizon_s=300.0, dt_s=0.7)
    rng = np.random.default_rng(derive_seed(5, 0, 0, 0))
    dep = deploy(cfg, rng)
    grid = mark_served(build_grid(dep, cfg), cfg.max_wire_m, cfg.max_cells_per_branch)
    model = TrafficModel.from_config(cfg)
    sessions = generate_traffic(rng, model, len(dep.xy), cfg.horizon_s)
    series = aggregate_rate_series(
        sessions, _offered(grid) if offered else grid, cfg.dt_s, cfg.horizon_s
    )
    assert 0 < grid.served.sum() < grid.served.size

    served = set(np.flatnonzero(grid.served).tolist())
    delivered = 0.0
    for cell, start, duration, rate in zip(
        sessions.cell_id.tolist(),
        sessions.start_s.tolist(),
        sessions.duration_s.tolist(),
        sessions.rate_bps.tolist(),
    ):
        if offered or cell in served:
            delivered += rate * (min(start + duration, cfg.horizon_s) - start)
    assert float(series.hub.sum()) * cfg.dt_s == pytest.approx(delivered, rel=1e-9)

    scale = float(np.abs(series.hub).max())
    assert np.allclose(series.branches.sum(axis=0), series.hub, rtol=0.0, atol=1e-9 * scale)


@pytest.mark.parametrize("offered", [False, True])
@pytest.mark.parametrize("topology", ["bus", "tree", "chain"])
def test_aggregation_is_linear_in_sessions(topology, offered):
    """Aggregation is linear in the session set: splitting one
    replication's sessions into disjoint sets A and B by a seeded random
    mask, the hub and branch series of A and B add up to those of A | B,
    to 1e-9 of the series' peak."""
    cfg = SimulationConfig(density=0.25, topology=topology, horizon_s=300.0, dt_s=0.7)
    rng = np.random.default_rng(derive_seed(5, 0, 0, 0))
    dep = deploy(cfg, rng)
    grid = mark_served(build_grid(dep, cfg), cfg.max_wire_m, cfg.max_cells_per_branch)
    sessions = generate_traffic(rng, TrafficModel.from_config(cfg), len(dep.xy), cfg.horizon_s)
    in_a = np.random.default_rng(17).random(sessions.cell_id.size) < 0.5
    assert 0 < in_a.sum() < in_a.size

    view = _offered(grid) if offered else grid

    def series(subset):
        return aggregate_rate_series(subset, view, cfg.dt_s, cfg.horizon_s)

    whole = series(sessions)
    a = series(sessions.subset(in_a))
    b = series(sessions.subset(~in_a))
    scale = float(np.abs(whole.hub).max())
    assert scale > 0
    assert np.allclose(a.hub + b.hub, whole.hub, rtol=0.0, atol=1e-9 * scale)
    assert np.allclose(a.branches + b.branches, whole.branches, rtol=0.0, atol=1e-9 * scale)


def _pipeline_table(cfg, seed):
    """A replication's grid and session table, built as run_replication
    builds them: sessions of served cells only."""
    rng = np.random.default_rng(seed)
    grid = mark_served(build_grid(deploy(cfg, rng), cfg), cfg.max_wire_m, cfg.max_cells_per_branch)
    served = np.flatnonzero(grid.served)
    sessions = generate_traffic(rng, TrafficModel.from_config(cfg), served.size, cfg.horizon_s)
    sessions.cell_id = served[sessions.cell_id]
    return sessions, grid


def _assert_aggregate_matches_reference(sessions, grid, dt_s, horizon_s):
    series = aggregate_rate_series(sessions, grid, dt_s, horizon_s)
    hub, branches = reference_aggregate(sessions, grid, dt_s, horizon_s)
    assert np.array_equal(series.hub, hub)
    assert np.array_equal(series.branches, branches)


@pytest.mark.parametrize("dt_s", [1.0, 0.7])
@pytest.mark.parametrize("topology", ["bus", "tree"])
def test_aggregation_matches_reference_on_pipeline_route(topology, dt_s):
    """Sessions of served cells only, all starting in [0, H): every session
    is kept, and the series equal tests/oracles.py:reference_aggregate bit
    for bit."""
    cfg = SimulationConfig(density=1.0, topology=topology, horizon_s=600.0, dt_s=dt_s)
    for seed in range(4):
        sessions, grid = _pipeline_table(cfg, derive_seed(23, seed, 0, 0))
        assert sessions.cell_id.size > 0
        _assert_aggregate_matches_reference(sessions, grid, cfg.dt_s, cfg.horizon_s)


@pytest.mark.parametrize("dt_s", [1.0, 0.7])
def test_aggregation_matches_reference_on_masked_route(dt_s):
    """A table drawn for every cell, with unserved cells and starts moved
    outside [0, H) on both sides, goes through the masked route and still
    equals the reference bit for bit."""
    cfg = SimulationConfig(density=0.25, horizon_s=300.0, dt_s=dt_s)
    model = TrafficModel.from_config(cfg)
    for seed in range(4):
        rng = np.random.default_rng(derive_seed(29, seed, 0, 0))
        dep = deploy(cfg, rng)
        grid = mark_served(build_grid(dep, cfg), cfg.max_wire_m, cfg.max_cells_per_branch)
        sessions = generate_traffic(rng, model, len(dep.xy), cfg.horizon_s)
        sessions.start_s = sessions.start_s * 1.2 - 30.0
        starts_out = (sessions.start_s < 0.0) | (sessions.start_s >= cfg.horizon_s)
        assert starts_out.any() and not starts_out.all()
        assert 0 < grid.served.sum() < grid.served.size
        _assert_aggregate_matches_reference(sessions, grid, cfg.dt_s, cfg.horizon_s)
    _assert_aggregate_matches_reference(empty_sessions(), grid, cfg.dt_s, cfg.horizon_s)


def _route_cases():
    """(sessions, grid, dt_s, horizon_s) on every route aggregation takes."""
    cases = []
    for dt_s in (1.0, 0.7):
        cfg = SimulationConfig(density=0.25, horizon_s=40.0, dt_s=dt_s)
        sessions, grid = _pipeline_table(cfg, derive_seed(31, 0, 0, 0))
        cases.append((sessions, grid, dt_s, cfg.horizon_s))
        # the masked route: every cell's sessions, some starts moved out
        rng = np.random.default_rng(derive_seed(31, 1, 0, 0))
        grid = mark_served(build_grid(deploy(cfg, rng), cfg), cfg.max_wire_m, cfg.max_cells_per_branch)
        sessions = generate_traffic(rng, TrafficModel.from_config(cfg), grid.served.size, cfg.horizon_s)
        sessions.start_s = sessions.start_s * 1.2 - 4.0
        cases.append((sessions, grid, dt_s, cfg.horizon_s))
    cases.append((empty_sessions(), grid, 1.0, 40.0))
    # horizon / dt within 1e-9 above an integer: sessions running past the
    # horizon end on step `steps`, so their last term lands on index width - 1
    horizon_s = 30.0 + 4e-10
    grid = _all_served_grid(40, n_branches=3)
    sessions = generate_traffic(
        np.random.default_rng(37), TrafficModel.from_config(SimulationConfig()), 40, horizon_s
    )
    end = np.floor(np.minimum(sessions.start_s + sessions.duration_s, horizon_s))
    assert _step_count(horizon_s, 1.0) == 30 and (end == 30).any()
    cases.append((sessions, grid, 1.0, horizon_s))
    return cases


def test_aggregation_matches_reference_on_every_route(monkeypatch):
    """The series equal tests/oracles.py:reference_aggregate bit for bit: on
    the pipeline and masked routes at dt 1.0 and 0.7, on the empty table and
    with a last index of width - 1.  No route copies the table through
    SessionSet.subset."""
    cases = _route_cases()
    expected = [reference_aggregate(*case) for case in cases]

    def refuse(self, mask):
        raise AssertionError("SessionSet.subset called")

    monkeypatch.setattr(SessionSet, "subset", refuse)
    for case, (hub, branches) in zip(cases, expected):
        series = aggregate_rate_series(*case)
        assert np.array_equal(series.hub, hub)
        assert np.array_equal(series.branches, branches)


def _traced_aggregation(sessions, grid, cfg):
    """The tracemalloc peak inside aggregate_rate_series, in bytes, and the
    bytes of its series."""
    tracemalloc.start()
    try:
        series = aggregate_rate_series(sessions, grid, cfg.dt_s, cfg.horizon_s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, series.hub.nbytes + series.branches.nbytes


def test_aggregation_memory_is_bounded_by_the_chunk():
    """Fed the blocks of a density-1.0 bus pipeline (~75k sessions, ten
    blocks) one at a time, aggregation peaks below 1 MB, and doubling the
    horizon, and so the session count, grows the peak by no more than the
    series' own growth plus 16 KiB: each block is added whole, and its
    temporaries are gone before the next."""
    peaks = []
    for horizon_s in (3600.0, 7200.0):
        cfg = SimulationConfig(density=1.0, topology="bus", horizon_s=horizon_s)
        rng = np.random.default_rng(7)
        grid = mark_served(build_grid(deploy(cfg, rng), cfg), cfg.max_wire_m, cfg.max_cells_per_branch)
        model = TrafficModel.from_config(cfg)
        blocks = list(session_blocks(rng, model, np.flatnonzero(grid.served), cfg.horizon_s))
        n = sum(block.cell_id.size for block in blocks)
        peaks.append((n, *_traced_aggregation(iter(blocks), grid, cfg)))
    (n1, peak1, out1), (n2, peak2, out2) = peaks
    assert n1 > 70_000 and n2 > 1.9 * n1
    assert peak1 < 1_000_000
    assert peak2 - out2 <= peak1 - out1 + 16 * 1024


def _traced_load(cfg, seed):
    """The tracemalloc peak of one load half (simulator._load) of a
    replication under seed, in bytes."""
    rng = np.random.default_rng(seed)
    grid = build_grid(deploy(cfg, rng), cfg)
    model = TrafficModel.from_config(cfg)
    tracemalloc.start()
    try:
        simulator._load(cfg, model, seed, rng, grid)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_half_memory_is_bounded_by_the_block():
    """At the shape of a default density-1.0 bus simulate (~75k sessions,
    ten blocks) one load half peaks at most 1.5 MB, and doubling the
    horizon, and so the session count, grows the peak by no more than the
    rate series' own growth plus 32 KiB: sessions are held one block at a
    time."""
    peaks = []
    for horizon_s in (3600.0, 7200.0):
        cfg = SimulationConfig(density=1.0, topology="bus", horizon_s=horizon_s).validate()
        peaks.append(_traced_load(cfg, 7))
    series_growth = 8 * (SimulationConfig().n_branches + 1) * 3600
    assert peaks[0] <= 1_500_000
    assert peaks[1] - peaks[0] <= series_growth + 32 * 1024


# ---------------------------------------------------------------------------
# wait-time metrics

def test_mean_wait_pooled_gaps():
    sessions = _sessions(
        (0, "voice", 0.0, 1.0, 1.0),
        (0, "voice", 10.0, 1.0, 1.0),
        (0, "voice", 30.0, 1.0, 1.0),
    )
    grid = _all_served_grid(1)
    series = aggregate_rate_series(sessions, grid, 1.0, 40.0)
    report = compute_metrics(series, grid)
    assert report.mean_wait_s == pytest.approx(15.0)


def test_mean_wait_ignores_unserved_cells():
    sessions = _sessions(
        (0, "voice", 0.0, 1.0, 1.0),
        (0, "voice", 10.0, 1.0, 1.0),
        (1, "voice", 0.0, 1.0, 1.0),
        (1, "voice", 1.0, 1.0, 1.0),
    )
    grid = _grid([0, 1], [True, False])
    series = aggregate_rate_series(sessions, grid, 1.0, 20.0)
    report = compute_metrics(series, grid)
    assert report.mean_wait_s == pytest.approx(10.0)


def test_mean_wait_statistical():
    cfg = SimulationConfig(horizon_s=10_000.0)
    model = TrafficModel.from_config(cfg)
    rng = np.random.default_rng(17)
    n_cells = 1000
    grid = _all_served_grid(n_cells)
    sessions = generate_traffic(rng, model, n_cells, cfg.horizon_s)
    series = aggregate_rate_series(sessions, grid, 1.0, cfg.horizon_s)
    report = compute_metrics(series, grid)
    assert report.mean_wait_s == pytest.approx(10.0, abs=0.05)


def test_mean_wait_on_the_masked_route():
    """Over a table of every cell's sessions (criterion 6's shape) the
    pooled mean wait equals, bit for bit, that of the served cells'
    sessions copied out by subset, and within 1e-12 relative a per-cell
    loop over the served cells' start gaps."""
    for topology in ("bus", "tree", "chain"):
        cfg = SimulationConfig(density=0.25, topology=topology, horizon_s=2000.0)
        rng = np.random.default_rng(1)
        dep = deploy(cfg, rng)
        grid = mark_served(build_grid(dep, cfg), cfg.max_wire_m, cfg.max_cells_per_branch)
        assert 0 < grid.served.sum() < grid.served.size
        sessions = generate_traffic(rng, TrafficModel.from_config(cfg), len(dep.xy), cfg.horizon_s)
        wait = aggregate_rate_series(sessions, grid, cfg.dt_s, cfg.horizon_s).mean_wait_s
        kept = sessions.subset(grid.served[sessions.cell_id])
        assert wait == aggregate_rate_series(kept, grid, cfg.dt_s, cfg.horizon_s).mean_wait_s
        total, count = 0.0, 0
        for cell in np.flatnonzero(grid.served).tolist():
            starts = sessions.start_s[sessions.cell_id == cell].tolist()
            total += sum(b - a for a, b in zip(starts, starts[1:]))
            count += max(len(starts) - 1, 0)
        assert wait == pytest.approx(total / count, rel=1e-12)


# ---------------------------------------------------------------------------
# replication driver

def test_run_replication_deterministic():
    cfg = SimulationConfig(density=0.1, horizon_s=100.0)
    a = run_replication(cfg, 99)
    b = run_replication(cfg, 99)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)


def test_run_replication_zero_density():
    cfg = SimulationConfig(density=0.0, horizon_s=50.0)
    report = run_replication(cfg, 0)
    assert report.reachability is None
    assert report.avg_rate_bps == 0.0
    assert report.max_rate_bps == 0.0
    assert report.mean_wait_s is None


def test_run_replication_max_at_least_avg():
    cfg = SimulationConfig(density=0.1, horizon_s=200.0)
    for seed in range(5):
        report = run_replication(cfg, seed)
        assert report.max_rate_bps >= report.avg_rate_bps


def test_replication_aggregates_once(monkeypatch):
    calls = []
    real = simulator.aggregate_rate_series

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(simulator, "aggregate_rate_series", counting)
    run_replication(SimulationConfig(), 7)
    assert calls == [{}]


def test_replication_copies_no_session_table(monkeypatch):
    """Inside the pipeline every session is kept, so aggregation never
    copies the table out through SessionSet.subset."""

    def refuse(self, mask):
        raise AssertionError("SessionSet.subset called")

    monkeypatch.setattr(SessionSet, "subset", refuse)
    for cfg in (SimulationConfig(), SimulationConfig(density=0.1, topology="tree")):
        assert run_replication(cfg, 7).avg_rate_bps > 0.0


def test_replication_draws_sessions_for_served_cells_only(monkeypatch):
    """The one Poisson draw (the session counts) has one value per served
    cell, not one per deployed cell."""
    rngs, grids = [], []
    real_rng, real_mark = np.random.default_rng, simulator.mark_served

    def counting_rng(seed):
        rngs.append(CountingRng(real_rng(seed)))
        return rngs[-1]

    def recording_mark(grid, *args):
        grids.append(grid)
        return real_mark(grid, *args)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    monkeypatch.setattr(simulator, "mark_served", recording_mark)
    run_replication(SimulationConfig(density=0.25, horizon_s=50.0), 3)
    served = grids[0].served
    assert 0 < np.count_nonzero(served) < served.size
    poisson = [size for name, size in rngs[0].draws if name == "poisson"]
    assert poisson == [np.count_nonzero(served)]


def test_replication_equals_hand_built_pipeline():
    cfg = SimulationConfig(density=0.25, horizon_s=100.0)
    rng = np.random.default_rng(8)
    grid = build_grid(deploy(cfg, rng), cfg)
    mark_served(grid, cfg.max_wire_m, cfg.max_cells_per_branch)
    served = np.flatnonzero(grid.served)
    model = TrafficModel.from_config(cfg)
    sessions = generate_traffic(rng, model, served.size, cfg.horizon_s)
    sessions.cell_id = served[sessions.cell_id]
    series = aggregate_rate_series(sessions, grid, cfg.dt_s, cfg.horizon_s)
    expected = compute_metrics(series, grid, seed=8)
    assert dataclasses.asdict(run_replication(cfg, 8)) == dataclasses.asdict(expected)


def test_replication_equals_hand_built_block_route():
    """A replication that spans several blocks equals the library route fed
    with the block stream, bit for bit: session_blocks for the served
    cells, aggregate_rate_series over the blocks, then compute_metrics."""
    cfg = SimulationConfig(density=1.0, topology="bus", horizon_s=600.0)
    rng = np.random.default_rng(8)
    grid = build_grid(deploy(cfg, rng), cfg)
    mark_served(grid, cfg.max_wire_m, cfg.max_cells_per_branch)
    model = TrafficModel.from_config(cfg)
    blocks = list(session_blocks(rng, model, np.flatnonzero(grid.served), cfg.horizon_s))
    assert len(blocks) >= 2
    series = aggregate_rate_series(iter(blocks), grid, cfg.dt_s, cfg.horizon_s)
    expected = compute_metrics(series, grid, seed=8)
    assert dataclasses.asdict(run_replication(cfg, 8)) == dataclasses.asdict(expected)


@pytest.mark.parametrize("topology", ["bus", "tree"])
def test_streamed_route_conserves_bits(monkeypatch, topology):
    """The checks the bench's tracer makes on a session table, on the
    blocks that run_replication streams through aggregation: the hub
    carries exactly the bits the sessions deliver before the horizon,
    within 1e-9 relative, and the branch series add up to the hub series.
    The step (0.7 s) does not divide the horizon."""
    seen, results = [], []
    real = simulator.aggregate_rate_series

    def teeing(sessions, grid, dt_s, horizon_s):
        def tee():
            for block in sessions:
                seen.append(block)
                yield block

        results.append(real(tee(), grid, dt_s, horizon_s))
        return results[-1]

    monkeypatch.setattr(simulator, "aggregate_rate_series", teeing)
    cfg = SimulationConfig(density=1.0, topology=topology, horizon_s=600.0, dt_s=0.7)
    run_replication(cfg, 11)
    (series,) = results
    assert len(seen) >= 2
    delivered = 0.0
    for block in seen:
        assert ((block.start_s >= 0.0) & (block.start_s < cfg.horizon_s)).all()
        end = np.minimum(block.start_s + block.duration_s, cfg.horizon_s)
        delivered += float(np.sum(block.rate_bps * (end - block.start_s)))
    assert float(series.hub.sum()) * cfg.dt_s == pytest.approx(delivered, rel=1e-9)
    scale = float(np.abs(series.hub).max())
    assert np.allclose(series.branches.sum(axis=0), series.hub, rtol=0.0, atol=1e-9 * scale)


def test_block_stream_matches_one_pass_in_distribution():
    """At density 1.0 on bus over 600 s a replication draws ~12.6k sessions,
    two blocks.  avg_rate_bps, max_rate_bps and mean_wait_s of 200
    replications match 200 of the one-pass route
    (tests/oracles.py:reference_replication_v2) by two-sample KS tests,
    p > 1e-3 for each, under fixed seeds."""
    cfg = SimulationConfig(density=1.0, topology="bus", horizon_s=600.0).validate()
    new = simulator.run_cell(cfg, 43, 0, 0, 200)
    old = [reference_replication_v2(cfg, derive_seed(43, 0, 1, k)) for k in range(200)]
    n = cell_count(cfg.density, cfg.side_m, cfg.cell_area_m2)
    sessions = min(r.reachability for r in new) * n * cfg.horizon_s / cfg.mean_interarrival_s
    assert sessions > 1.2 * BLOCK_SESSIONS
    for metric in ("avg_rate_bps", "max_rate_bps", "mean_wait_s"):
        a = [getattr(r, metric) for r in new]
        b = [getattr(r, metric) for r in old]
        assert stats.ks_2samp(a, b).pvalue > 1e-3, metric


def test_replication_with_no_served_cell():
    report = run_replication(SimulationConfig(density=0.25, max_wire_m=1e-3), 4)
    assert report.reachability == 0.0
    assert report.avg_rate_bps == report.max_rate_bps == 0.0
    assert report.mean_wait_s is None


# the served-only session stream against the every-cell route of
# tests/oracles.py:reference_replication: 300 replications per side at
# density 0.25 on bus over 200 s, under fixed seeds

_SERVED_ONLY = SimulationConfig(density=0.25, topology="bus", horizon_s=200.0)


def test_served_only_traffic_keeps_layout_metrics():
    for seed in range(50):
        new = run_replication(_SERVED_ONLY, seed)
        old = reference_replication(_SERVED_ONLY, seed)
        assert new.reachability == old.reachability
        assert new.forced_crossings == old.forced_crossings


def test_served_only_traffic_matches_reference_in_distribution():
    new = [run_replication(_SERVED_ONLY, derive_seed(41, 0, 0, k)) for k in range(300)]
    old = [
        reference_replication(_SERVED_ONLY, derive_seed(41, 0, 1, k)) for k in range(300)
    ]
    for metric in ("avg_rate_bps", "max_rate_bps", "mean_wait_s"):
        a = [getattr(r, metric) for r in new]
        b = [getattr(r, metric) for r in old]
        assert None not in a + b
        assert stats.ks_2samp(a, b).pvalue > 1e-3, metric


def test_bus_hub_rate_matches_closed_form():
    """avg_rate_bps of 200 bus replications at density 0.25 matches
    mean_hub_rate_closed_form (Campbell's theorem), both given each
    replication's served count and with the mean served count of
    bus_reachability_closed_form; bound |z| <= 4 for each."""
    cfg = SimulationConfig(density=0.25, topology="bus").validate()
    reports = simulator.run_cell(cfg, 5, 0, 0, 200)
    n = cell_count(cfg.density, cfg.side_m, cfg.cell_area_m2)
    per_cell = mean_hub_rate_closed_form(cfg, 1.0)
    avg = np.array([r.avg_rate_bps for r in reports])
    served = np.round(np.array([r.reachability for r in reports]) * n)

    def z(values, expected):
        return (values.mean() - expected) / (values.std(ddof=1) / np.sqrt(values.size))

    assert abs(z(avg - per_cell * served, 0.0)) <= 4.0
    assert abs(z(avg, per_cell * n * bus_reachability_closed_form(cfg))) <= 4.0


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_shape_contract():
    cfg = SimulationConfig(horizon_s=1.0, dt_s=1.0, master_seed=5)
    result = run_sweep(cfg, [0.25], ["bus", "tree", "chain"], 100)
    assert len(result.rows) == 3
    for row in result.rows:
        assert row.topology in ("bus", "tree", "chain")
        assert row.replications == 100
        assert 0.0 <= row.reachability_mean <= 1.0
        assert row.reachability_stderr > 0.0


def test_sweep_single_replication_has_no_stderr():
    cfg = SimulationConfig(horizon_s=1.0, dt_s=1.0)
    result = run_sweep(cfg, [0.1], ["bus"], 1)
    row = result.rows[0]
    assert row.reachability_mean is not None
    assert row.reachability_stderr is None


def test_sweep_zero_density_row_is_sentinel():
    cfg = SimulationConfig(horizon_s=1.0, dt_s=1.0)
    result = run_sweep(cfg, [0.0], ["tree"], 3)
    row = result.rows[0]
    assert row.reachability_mean is None
    assert row.reachability_stderr is None
    assert row.avg_rate_bps_mean == 0.0


def test_sweep_rows_reproducible_in_isolation():
    cfg = SimulationConfig(horizon_s=1.0, dt_s=1.0, master_seed=11)
    densities = [0.05, 0.1]
    topologies = ["bus", "tree"]
    result = run_sweep(cfg, densities, topologies, 3)

    # rebuild the (i=1, j=1) cell alone from the documented seed mixing
    scenario = dataclasses.replace(cfg, density=densities[1], topology=topologies[1])
    reports = [
        run_replication(scenario, derive_seed(cfg.master_seed, 1, 1, k))
        for k in range(3)
    ]
    row = result.rows[3]
    assert row.density == densities[1]
    assert row.topology == topologies[1]
    assert row.reachability_mean == pytest.approx(
        np.mean([r.reachability for r in reports]), rel=1e-12
    )
    assert row.avg_rate_bps_mean == pytest.approx(
        np.mean([r.avg_rate_bps for r in reports]), rel=1e-12
    )


def test_sweep_is_deterministic():
    cfg = SimulationConfig(horizon_s=1.0, dt_s=1.0, master_seed=23)
    a = run_sweep(cfg, [0.05], ["chain"], 2)
    b = run_sweep(cfg, [0.05], ["chain"], 2)
    assert a.rows == b.rows


@pytest.mark.parametrize(
    "densities, topologies, field",
    [([0.1, -1.0], ["bus"], "density"), ([0.1], ["bus", "ring"], "topology")],
)
def test_sweep_validates_every_scenario_before_running(
    monkeypatch, densities, topologies, field
):
    calls = []
    real = simulator.deploy

    def counting(config, rng):
        calls.append(config.density)
        return real(config, rng)

    monkeypatch.setattr(simulator, "deploy", counting)
    cfg = SimulationConfig(horizon_s=1.0)
    with pytest.raises(ConfigError, match=field):
        run_sweep(cfg, densities, topologies, 1)
    assert calls == []


def test_sweep_row_fields_come_from_metrics():
    """A SweepRow holds the density, topology and replication count, then a
    mean and a standard error per metric of METRICS, in order; rows pickle."""
    pairs = [name + stat for name in METRICS for stat in ("_mean", "_stderr")]
    fields = [f.name for f in dataclasses.fields(simulator.SweepRow)]
    assert fields == ["density", "topology", "replications", *pairs]
    row = run_sweep(SimulationConfig(horizon_s=1.0), [0.05], ["bus"], 2).rows[0]
    assert pickle.loads(pickle.dumps(row)) == row


def test_sweep_rows_do_not_depend_on_the_row_block(monkeypatch):
    """Growing the feeders one row, seven rows or every row at a time, with
    layouts built one, two (the byte budget's share of a batch of five) or
    all replications at a time, gives the same sweep, and every row is the
    summary of its replications run alone."""
    cfg = SimulationConfig(horizon_s=1.0, dt_s=1.0, master_seed=17)
    densities, topologies = [0.1, 0.25], ["tree", "chain"]
    # a density-0.25 layout is budgeted at 306 cells * _LAYOUT_CELL_BYTES
    two = 2 * 306 * simulator._LAYOUT_CELL_BYTES
    real, results = simulator.build_grids, []
    for block, batch, budget, size in ((1, 1, 2**27, 1), (7, 5, two, 2), (10**9, 10**9, 10**12, 6)):
        monkeypatch.setattr(gridgen, "_ROW_BLOCK", block)
        monkeypatch.setattr(simulator, "_LAYOUT_BATCH", batch)
        monkeypatch.setattr(simulator, "_BATCH_BYTES", budget)
        sizes = []
        monkeypatch.setattr(
            simulator, "build_grids", lambda d, c: sizes.append(len(d)) or real(d, c)
        )
        results.append(run_sweep(cfg, densities, topologies, 3))
        assert max(sizes) == size
    assert results[0] == results[1] == results[2]
    cells = [(i, j) for i in range(len(densities)) for j in range(len(topologies))]
    for row, (i, j) in zip(results[0].rows, cells, strict=True):
        scenario = dataclasses.replace(cfg, density=densities[i], topology=topologies[j])
        reports = [run_replication(scenario, derive_seed(17, i, j, k)) for k in range(3)]
        assert row == simulator._summarize(densities[i], topologies[j], reports)


def test_sweep_grows_each_topology_in_one_lockstep(monkeypatch):
    """Route pin: a sweep grows all the tree (or chain) feeders of all its
    densities and replications in one grower call, not one per
    replication."""
    calls = []
    for module, name in ((nearest, "grow_tree"), (chain, "grow_chains")):
        real = getattr(module, name)

        def counting(node_xy, lives, real=real, name=name):
            calls.append(name)
            return real(node_xy, lives)

        monkeypatch.setattr(module, name, counting)
    cfg = SimulationConfig(horizon_s=1.0, dt_s=1.0)
    run_sweep(cfg, [0.1, 0.25], ["bus", "tree", "chain"], 3)
    assert calls == ["grow_tree", "grow_chains"]


# ---------------------------------------------------------------------------
# session containers

def test_generate_traffic_sorted_by_cell_then_start():
    model = TrafficModel.from_config(SimulationConfig())
    ss = generate_traffic(np.random.default_rng(2), model, 3, 500.0)
    order = np.lexsort((ss.start_s, ss.cell_id))
    assert np.array_equal(order, np.arange(ss.cell_id.size))

