import pytest

from plcsim.config import SimulationConfig
from plcsim.errors import ConfigError


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_branches", 2.5),
        ("master_seed", 1.5),
        ("max_cells_per_branch", 3.5),
        ("count_unserved_offered", 1),
        ("density", "lots"),
        # an int too large for a float
        pytest.param("side_m", 10**400, id="side_m-10**400"),
    ],
)
def test_validate_rejects_wrong_type_naming_field(field, value):
    """A config built in library code gets the same type check as one read
    from a file or the command line."""
    with pytest.raises(ConfigError, match=field):
        SimulationConfig(**{field: value}).validate()


def test_validate_normalises_types():
    cfg = SimulationConfig(side_m=700, n_branches=6.0).validate()
    assert type(cfg.side_m) is float and cfg.side_m == 700.0
    assert type(cfg.n_branches) is int and cfg.n_branches == 6
