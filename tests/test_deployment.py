import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_sectors
from plcsim.config import SimulationConfig
from plcsim.deployment import (
    assign_sectors,
    cell_count,
    deploy,
    place_cells,
    place_hub,
)


def test_cell_count_default_density():
    assert cell_count(0.25, 700.0, 400.0) == 306


def test_cell_count_zero_density():
    assert cell_count(0.0, 700.0, 400.0) == 0


def test_cell_count_full_coverage():
    assert cell_count(1.0, 700.0, 400.0) == 1225


def test_cell_count_exact_products_do_not_truncate():
    # 0.6 * 490000 / 400 = 735 exactly in real arithmetic; float rounding
    # must not shave it down to 734
    assert cell_count(0.6, 700.0, 400.0) == 735


def test_cell_count_monotone_in_density():
    counts = [cell_count(d, 700.0, 400.0) for d in np.linspace(0.0, 1.0, 101)]
    assert counts == sorted(counts)


def test_place_cells_empty():
    xy = place_cells(0, 700.0, np.random.default_rng(0))
    assert xy.shape == (0, 2)


def test_place_cells_within_square_and_mean():
    rng = np.random.default_rng(7)
    xy = place_cells(100_000, 700.0, rng)
    xs = xy[:, 0]
    ys = xy[:, 1]
    assert xs.min() >= 0.0 and xs.max() <= 700.0
    assert ys.min() >= 0.0 and ys.max() <= 700.0
    assert abs(xs.mean() - 350.0) < 1.0
    assert abs(ys.mean() - 350.0) < 1.0


def test_place_cells_deterministic():
    a = place_cells(50, 700.0, np.random.default_rng(123))
    b = place_cells(50, 700.0, np.random.default_rng(123))
    assert np.array_equal(a, b)


def test_place_cells_ids_are_sequential():
    # cell i is row i, so ids 0..9 are the ten rows
    xy = place_cells(10, 700.0, np.random.default_rng(1))
    assert xy.shape == (10, 2)


def test_place_cells_draws_x_then_y():
    # all x coordinates come first, then all y: one (n, 2) draw would
    # interleave them and change every layout
    xy = place_cells(5, 700.0, np.random.default_rng(4))
    flat = np.random.default_rng(4).uniform(0.0, 700.0, size=10)
    assert xy[:, 0].tolist() == flat[:5].tolist()
    assert xy[:, 1].tolist() == flat[5:].tolist()


def test_place_hub_center():
    cfg = SimulationConfig(hub_mode="center")
    assert place_hub(cfg, np.random.default_rng(0)) == (350.0, 350.0)


def test_place_hub_uniform_mean():
    cfg = SimulationConfig(hub_mode="uniform")
    rng = np.random.default_rng(1)
    pts = np.array([place_hub(cfg, rng) for _ in range(100_000)])
    assert abs(pts[:, 0].mean() - 350.0) < 1.0
    assert abs(pts[:, 1].mean() - 350.0) < 1.0


def test_place_hub_uniform_reproducible():
    cfg = SimulationConfig(hub_mode="uniform")
    a = place_hub(cfg, np.random.default_rng(5))
    b = place_hub(cfg, np.random.default_rng(5))
    assert a == b


def _sector_at_angle(theta_rad, n_branches, anchor_rad=0.0, r=100.0, hub=(0.0, 0.0)):
    """Sector label of one cell at polar position (r, theta) about the hub."""
    xy = np.array([[hub[0] + r * math.cos(theta_rad), hub[1] + r * math.sin(theta_rad)]])
    return int(assign_sectors(xy, hub, n_branches, anchor_rad)[0])


def test_sector_first_bin():
    assert _sector_at_angle(0.1, 6) == 0


def test_sector_bin_boundary():
    assert _sector_at_angle(math.radians(59.9), 6) == 0
    assert _sector_at_angle(math.radians(60.1), 6) == 1


def test_sector_anchor_shifts_bins():
    assert _sector_at_angle(0.1, 6, anchor_rad=math.radians(-30.0)) == 0
    assert _sector_at_angle(0.1, 6, anchor_rad=math.radians(30.0)) == 5


def test_sector_hub_coincident_cell():
    assert _sector_at_angle(0.0, 6, anchor_rad=1.0, r=0.0) == 0


@given(
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=-7.0, max_value=7.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_sector_partition_property(n_branches, anchor, seed):
    """Per-sector counts always add back up to N, all labels valid."""
    xy = place_cells(40, 700.0, np.random.default_rng(seed))
    labels = assign_sectors(xy, (350.0, 350.0), n_branches, anchor_rad=anchor).tolist()
    assert all(0 <= s < n_branches for s in labels)
    assert sum(labels.count(k) for k in range(n_branches)) == 40


@given(
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=-7.0, max_value=7.0),
    st.tuples(st.floats(0.0, 700.0), st.floats(0.0, 700.0)),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_sectors_match_scalar_reference_property(n_branches, anchor, hub, seed):
    """The labels equal tests/oracles.py:reference_sectors bit for bit, for
    random cells, cells on every sector boundary ray and cells on the hub."""
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.0, 500.0, size=(n_branches, 4))
    ray = anchor + np.arange(n_branches)[:, None] * (2.0 * math.pi / n_branches)
    xy = np.concatenate(
        (
            place_cells(40, 700.0, rng),
            np.column_stack(
                ((hub[0] + r * np.cos(ray)).ravel(), (hub[1] + r * np.sin(ray)).ravel())
            ),
            [hub, hub],
        )
    )
    got = assign_sectors(xy, hub, n_branches, anchor)
    want = reference_sectors(xy, hub, n_branches, anchor)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert got[-2:].tolist() == [0, 0]


def test_sectors_of_no_cells():
    labels = assign_sectors(np.empty((0, 2)), (1.0, 2.0), 6)
    assert labels.dtype == np.intp and labels.shape == (0,)


def test_deploy_default_config():
    cfg = SimulationConfig()
    dep = deploy(cfg, np.random.default_rng(0))
    assert dep.xy.shape == (306, 2)
    assert dep.hub == (350.0, 350.0)
    assert dep.sector.shape == (306,)
    assert ((dep.sector >= 0) & (dep.sector < cfg.n_branches)).all()
    assert dep.radius_m == pytest.approx(math.sqrt(400.0 / math.pi))


def test_deploy_deterministic():
    cfg = SimulationConfig(density=0.1, master_seed=9)
    a = deploy(cfg, np.random.default_rng(42))
    b = deploy(cfg, np.random.default_rng(42))
    assert np.array_equal(a.xy, b.xy)
    assert np.array_equal(a.sector, b.sector)
    assert a.hub == b.hub

