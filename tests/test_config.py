import math

import numpy as np
import pytest

from plcsim.config import (
    _MAX_BRANCH_BYTES,
    _MAX_CELL_BYTES,
    _MAX_GROWTH_PAIRS,
    _MAX_POISSON_LAM,
    _MAX_ROW_BYTES,
    _MAX_RUN_BYTES,
    _MAX_RUN_SESSIONS,
    _MAX_SERIES_BYTES,
    _MIN_DATA_DURATION_S,
    _REPLICATION_BYTES,
    TOPOLOGIES,
    SimulationConfig,
    check_replications,
    check_sessions,
)
from plcsim.errors import ConfigError
from plcsim.traffic import TrafficModel, fit_duration_distribution, generate_traffic


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
    still rejects a mean above its limit, so validate() bounds the mean.
    dt_s equals the horizon, so the rate series has one step."""
    at_limit = float(_MAX_POISSON_LAM)
    cfg = SimulationConfig(density=0.0, dt_s=at_limit, mean_interarrival_s=1.0, horizon_s=at_limit)
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


@pytest.mark.parametrize(
    "field, at_limit, over, base",
    [
        # 8 bytes per cell: side_m**2 / cell_area_m2 cells at density 1
        ("density", _MAX_CELL_BYTES // 8, _MAX_CELL_BYTES // 8 + 1,
         {"side_m": 1.0, "cell_area_m2": 1.0}),
        # 8 * 7 bytes per step with the default six branches, two steps added
        ("horizon_s", _MAX_SERIES_BYTES // 56 - 2, _MAX_SERIES_BYTES // 56 - 1,
         {"density": 0.0}),
        # one cell whose start row holds 8 bytes per expected arrival, over
        # a one-step horizon of _MAX_ROW_BYTES / 8 seconds
        ("mean_interarrival_s", 1.0, np.nextafter(1.0, 0.0),
         {"side_m": 1.0, "cell_area_m2": 1.0, "density": 1.0,
          "horizon_s": _MAX_ROW_BYTES / 8, "dt_s": _MAX_ROW_BYTES / 8}),
    ],
    ids=["cell-arrays", "rate-series", "start-row"],
)
def test_memory_budget_at_its_limit(field, at_limit, over, base):
    """Each byte budget admits a config exactly at its limit and rejects
    one just over it, naming the field; validate() allocates nothing."""
    cfg = SimulationConfig(**base, **{field: float(at_limit)}).validate()
    setattr(cfg, field, float(over))
    with pytest.raises(ConfigError, match=field):
        cfg.validate()


@pytest.mark.parametrize("topology", ["tree", "chain"])
def test_growth_pairs_within_bound(topology):
    """Tree and chain growth time is quadratic in the cells per branch:
    validate() admits cells**2 / n_branches at its bound and rejects a
    density just over it, naming density and the topology.  A bus is not
    bounded by it, and the paper's largest density is far inside it."""
    base = {"side_m": 1.0, "cell_area_m2": 1.0, "n_branches": 1}
    at_limit = math.sqrt(_MAX_GROWTH_PAIRS)  # cells on one branch, exactly
    over = np.nextafter(at_limit, math.inf)
    SimulationConfig(**base, density=at_limit, topology=topology).validate()
    SimulationConfig(**base, density=over, topology="bus").validate()
    SimulationConfig(density=1.0, topology=topology, n_branches=1).validate()
    with pytest.raises(ConfigError, match=r"density.*%r" % topology):
        SimulationConfig(**base, density=over, topology=topology).validate()


def test_replications_within_byte_budget():
    """The reports and CSV rows of a run fit one budget: validate() admits
    the replication count at its limit and rejects one more, naming it, and
    check_replications bounds a sweep's replications x densities x
    topologies the same way."""
    at_limit = _MAX_RUN_BYTES // _REPLICATION_BYTES
    cfg = SimulationConfig(replications=at_limit).validate()
    cfg.replications = at_limit + 1
    with pytest.raises(ConfigError, match="replications"):
        cfg.validate()
    check_replications(at_limit, "replications * densities * topologies")
    with pytest.raises(ConfigError, match=r"replications \* densities \* topologies"):
        check_replications(at_limit + 1, "replications * densities * topologies")


def test_expected_sessions_within_work_bound():
    """A load half takes time per session: validate() admits the last
    replication count whose expected sessions stay within the bound and
    rejects one more, naming the fields.  At density 1.0 the 6 x 35
    servable cells each expect 3,600 arrivals, 756,000 sessions per
    replication."""
    per_replication = 6 * 35 * 36_000.0 / 10.0
    under = int(_MAX_RUN_SESSIONS // per_replication)
    cfg = SimulationConfig(density=1.0, horizon_s=36_000.0, replications=under).validate()
    cfg.replications = under + 1
    with pytest.raises(ConfigError, match=r"n_branches \* max_cells_per_branch.*replications \(expected"):
        cfg.validate()


def test_sweep_sessions_summed_within_work_bound():
    """run_sweep bounds the expected sessions summed over its densities and
    topologies before it runs anything; a paper-scale sweep (4 densities x
    3 topologies x 200 replications at 3,600 s, about 1.6e8 sessions) is
    far inside the bound."""
    from plcsim.simulator import run_sweep

    paper = [SimulationConfig(density=d, topology=t).validate() for d in (0.1, 0.25, 0.5, 1.0) for t in TOPOLOGIES]
    check_sessions(paper, 200)
    cfg = SimulationConfig(density=1.0, horizon_s=36_000.0)
    over = int(_MAX_RUN_SESSIONS // (12 * 6 * 35 * 3_600.0)) + 1
    with pytest.raises(ConfigError, match="summed over densities and topologies"):
        run_sweep(cfg, [1.0, 2.0, 3.0, 4.0], list(TOPOLOGIES), over)


def test_defaults_and_one_day_run_fit_the_budget():
    for cfg in (SimulationConfig(), SimulationConfig(density=1.0, horizon_s=86_400.0)):
        cfg.validate()


def test_shortest_data_duration_bounds_numpy_lognormal():
    """_MIN_DATA_DURATION_S is at most exp(mu - z sigma) for the largest |z|
    numpy's ziggurat normal can return: below its tail start r, or r - ln(U) / r
    from its tail for a double U of at least 2**-53, so at most r + 53 ln 2 / r."""
    r = 3.6541528853610088
    mu, sigma = fit_duration_distribution()
    assert _MIN_DATA_DURATION_S <= math.exp(mu - (r + 53 * math.log(2) / r) * sigma)
