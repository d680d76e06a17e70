"""Scenario configuration for the front-haul simulator."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError

TOPOLOGIES = ("bus", "tree", "chain")
HUB_MODES = ("center", "uniform")


@dataclass
class SimulationConfig:
    """All tunable scenario parameters with their documented defaults."""

    side_m: float = 700.0
    cell_area_m2: float = 400.0
    density: float = 0.25
    n_branches: int = 6
    topology: str = "bus"
    max_wire_m: float = 300.0
    max_cells_per_branch: int = 35
    hub_mode: str = "center"
    sector_anchor_rad: float = 0.0

    mean_interarrival_s: float = 10.0
    horizon_s: float = 3600.0
    dt_s: float = 1.0

    data_fraction: float = 0.97
    voice_rate_bps: float = 128000.0
    voice_mean_duration_s: float = 100.0
    volume_cap_bits: float = 1e9
    # bits per "kb" in the size constraint P(V < 10 kb) = 0.8; set 8000 to
    # reinterpret the constraint in kilobytes.
    kb_bits: float = 1000.0

    count_unserved_offered: bool = False
    replications: int = 1
    master_seed: int = 0

    def validate(self) -> "SimulationConfig":
        """Check every bound; raise ConfigError naming the offending field."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float):
                _require(math.isfinite(value), f.name, "finite", value)
        _require(self.side_m > 0, "side_m", "> 0", self.side_m)
        _require(self.cell_area_m2 > 0, "cell_area_m2", "> 0", self.cell_area_m2)
        _require(self.density >= 0, "density", ">= 0", self.density)
        _require(self.n_branches >= 1, "n_branches", ">= 1", self.n_branches)
        _require(
            self.topology in TOPOLOGIES,
            "topology",
            "one of %s" % (TOPOLOGIES,),
            self.topology,
        )
        _require(self.max_wire_m > 0, "max_wire_m", "> 0", self.max_wire_m)
        _require(
            self.max_cells_per_branch >= 1,
            "max_cells_per_branch",
            ">= 1",
            self.max_cells_per_branch,
        )
        _require(
            self.hub_mode in HUB_MODES,
            "hub_mode",
            "one of %s" % (HUB_MODES,),
            self.hub_mode,
        )
        _require(
            -1e9 < self.sector_anchor_rad < 1e9,
            "sector_anchor_rad",
            "finite",
            self.sector_anchor_rad,
        )
        _require(
            self.mean_interarrival_s > 0,
            "mean_interarrival_s",
            "> 0",
            self.mean_interarrival_s,
        )
        _require(self.dt_s > 0, "dt_s", "> 0", self.dt_s)
        _require(self.horizon_s >= self.dt_s, "horizon_s", ">= dt_s", self.horizon_s)
        _require(
            0.0 <= self.data_fraction <= 1.0,
            "data_fraction",
            "in [0, 1]",
            self.data_fraction,
        )
        _require(self.voice_rate_bps > 0, "voice_rate_bps", "> 0", self.voice_rate_bps)
        _require(
            self.voice_mean_duration_s > 0,
            "voice_mean_duration_s",
            "> 0",
            self.voice_mean_duration_s,
        )
        _require(
            self.volume_cap_bits > 0, "volume_cap_bits", "> 0", self.volume_cap_bits
        )
        _require(self.kb_bits > 0, "kb_bits", "> 0", self.kb_bits)
        _require(self.replications >= 1, "replications", ">= 1", self.replications)
        _require(self.master_seed >= 0, "master_seed", ">= 0", self.master_seed)
        return self

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _require(ok: bool, field: str, bound: str, value) -> None:
    if not ok:
        raise ConfigError("%s must be %s (got %r)" % (field, bound, value))


def config_fields() -> tuple[str, ...]:
    """Names of every tunable field, for config-file key validation."""
    return tuple(f.name for f in dataclasses.fields(SimulationConfig))
