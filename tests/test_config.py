import numpy as np
import pytest

from plcsim.config import _MAX_BRANCH_BYTES, _MAX_POISSON_LAM, SimulationConfig
from plcsim.errors import ConfigError
from plcsim.traffic import TrafficModel, generate_traffic


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_branches", 2.5),
        ("master_seed", 1.5),
        ("max_cells_per_branch", 3.5),
        # a bool is never read as a number
        ("n_branches", True),
        ("side_m", False),
        ("density", "lots"),
        # an int too large for a float
        pytest.param("side_m", 10**400, id="side_m-10**400"),
        # finite, but outside the bound |x| < 1e9
        pytest.param("sector_anchor_rad", 2e9, id="sector_anchor_rad-2e9"),
    ],
)
def test_validate_rejects_wrong_type_naming_field(field, value):
    """A config built in library code gets the same type and bound checks
    as one read from a file or the command line, and the message states the
    rule that failed: never "finite" for a finite value."""
    with pytest.raises(ConfigError, match=field) as err:
        SimulationConfig(**{field: value}).validate()
    assert "finite" not in str(err.value)


def test_validate_normalises_types():
    cfg = SimulationConfig(side_m=700, n_branches=6.0).validate()
    assert type(cfg.side_m) is float and cfg.side_m == 700.0
    assert type(cfg.n_branches) is int and cfg.n_branches == 6


def test_arrivals_per_cell_within_poisson_limit():
    """With no cells there are no sessions, but numpy's Poisson sampler
    still rejects a mean above its limit, so validate() bounds the mean."""
    at_limit = float(_MAX_POISSON_LAM)
    cfg = SimulationConfig(density=0.0, dt_s=100.0, mean_interarrival_s=1.0, horizon_s=at_limit)
    model = TrafficModel.from_config(cfg.validate())
    sessions = generate_traffic(np.random.default_rng(0), model, 0, cfg.horizon_s)
    assert sessions.cell_id.size == 0
    cfg.horizon_s = np.nextafter(at_limit, np.inf)
    with pytest.raises(ConfigError, match="mean_interarrival_s"):
        cfg.validate()


def test_branch_count_within_byte_budget():
    """One float64 per branch must fit the documented per-array budget;
    validate() checks it without allocating anything."""
    at_limit = _MAX_BRANCH_BYTES // 8
    cfg = SimulationConfig(n_branches=at_limit, horizon_s=1.0, dt_s=1.0).validate()
    cfg.n_branches = at_limit + 1
    with pytest.raises(ConfigError, match="n_branches"):
        cfg.validate()
