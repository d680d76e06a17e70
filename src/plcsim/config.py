"""Scenario configuration for the front-haul simulator."""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

TOPOLOGIES = ("bus", "tree", "chain")
HUB_MODES = ("center", "uniform")

# largest element count numpy can give one array
_MAX_ARRAY_SIZE = np.iinfo(np.intp).max
# largest mean numpy's Poisson sampler accepts (its POISSON_LAM_MAX)
_MAX_POISSON_LAM = int(_MAX_ARRAY_SIZE - 10.0 * math.sqrt(_MAX_ARRAY_SIZE))
# half the index range, so that a drawn session total, a few standard
# deviations from its mean, cannot wrap the int64 sum of the cell counts
_MAX_SESSIONS = _MAX_ARRAY_SIZE // 2
# rates summed over the session bound stay below this, so that their squares
# summed over 2**17 replications (the reports' bound) stay finite
_MAX_RATE_SUM = 2.0**500
# the shortest data duration numpy draws, exp(mu - 13.71 sigma): its normal's
# ziggurat tail is r - ln(U) / r <= r + 53 ln 2 / r = 13.71, r = 3.654, U >= 2**-53
_MIN_DATA_DURATION_S = 7.78e-8
# byte budgets (README, "Library"): a grid build holds about a dozen arrays
# with 8 bytes per branch at once, and a run about 1.1 KB per cell, the
# layout.json column text included (the file itself is written in chunks);
# a load half holds one rate series and one block of sessions, at least one
# cell's, at about 100 bytes per session
_MAX_BRANCH_BYTES = 2**24
_MAX_CELL_BYTES = 2**21
_MAX_SERIES_BYTES = 2**28
_MAX_ROW_BYTES = 2**24
# a replication's scenario, report and CSV row, kept to the end of its run
_REPLICATION_BYTES = 2**11
_MAX_RUN_BYTES = 2**28
# tree and chain growth takes about 4-18 ns per pair of cells that share a
# sector, cells**2 / n_branches pairs in all; at this bound a chain grid
# grows in 2.7 s on 6 branches (39,200 cells) and 4.7 s on one (16,292),
# a tree in 1.4 s and 1.2 s (2-core machine, Python 3.11, numpy 2.4)
_MAX_GROWTH_PAIRS = 2**28
# a load half draws and aggregates a session in about 110-180 ns (bus,
# density 2, 6 or 60 branches, 3,600 s or 36,000 s; 2-core machine, Python
# 3.11, numpy 2.4), so a run's load halves at this bound take 31-52 minutes
_MAX_RUN_SESSIONS = 2**34


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

    replications: int = 1
    master_seed: int = 0

    def validate(self) -> "SimulationConfig":
        """Check every field's type and bound, raising ConfigError naming the
        offending field; each value is normalised in place to its field's
        type (an integral ``side_m=700`` becomes ``700.0``)."""
        for f in dataclasses.fields(self):
            value = _typed(f.name, f.default, getattr(self, f.name))
            setattr(self, f.name, value)
            if isinstance(value, float):
                _require(math.isfinite(value), f.name, "finite", value)
        for field, ok, bound in (
            ("side_m", self.side_m > 0, "> 0"),
            ("cell_area_m2", self.cell_area_m2 > 0, "> 0"),
            ("density", self.density >= 0, ">= 0"),
            ("n_branches", self.n_branches >= 1, ">= 1"),
            ("n_branches (branch count)", self.n_branches <= _MAX_ARRAY_SIZE,
             "<= %r" % _MAX_ARRAY_SIZE),
            ("topology", self.topology in TOPOLOGIES, "one of %s" % (TOPOLOGIES,)),
            ("max_wire_m", self.max_wire_m > 0, "> 0"),
            ("max_cells_per_branch", self.max_cells_per_branch >= 1, ">= 1"),
            ("hub_mode", self.hub_mode in HUB_MODES, "one of %s" % (HUB_MODES,)),
            ("sector_anchor_rad", -1e9 < self.sector_anchor_rad < 1e9, "in (-1e9, 1e9)"),
            ("mean_interarrival_s", self.mean_interarrival_s > 0, "> 0"),
            ("dt_s", self.dt_s > 0, "> 0"),
            ("horizon_s", self.horizon_s >= self.dt_s, ">= dt_s"),
            ("data_fraction", 0.0 <= self.data_fraction <= 1.0, "in [0, 1]"),
            ("voice_rate_bps", self.voice_rate_bps > 0, "> 0"),
            ("voice_mean_duration_s", self.voice_mean_duration_s > 0, "> 0"),
            ("volume_cap_bits", self.volume_cap_bits > 0, "> 0"),
            ("kb_bits", self.kb_bits > 0, "> 0"),
            ("replications", self.replications >= 1, ">= 1"),
            ("master_seed", self.master_seed >= 0, ">= 0"),
        ):
            # the first word of `field` names the field whose value failed
            _require(ok, field, bound, getattr(self, field.split()[0]))
        # sizes and bytes a run asks numpy for, and the 10 kb threshold in
        # bits, so that huge finite values fail here rather than overflowing
        # or running out of memory later
        cells = self.density * self.side_m * self.side_m / self.cell_area_m2
        arrivals = self.horizon_s / self.mean_interarrival_s
        for fields, size, limit in (
            ("8 * (n_branches + 1) * (horizon_s / dt_s + 2) (bytes of the rate series)",
             8 * (self.n_branches + 1) * (self.horizon_s / self.dt_s + 2), _MAX_SERIES_BYTES),
            ("horizon_s / mean_interarrival_s (arrivals per cell)", arrivals, _MAX_POISSON_LAM),
            ("density * side_m**2 / cell_area_m2 * horizon_s / mean_interarrival_s"
             " (session count)", cells * arrivals, _MAX_SESSIONS),
            ("8 * density * side_m**2 / cell_area_m2 (bytes of a per-cell array)",
             8 * cells, _MAX_CELL_BYTES),
            ("(density * side_m**2 / cell_area_m2)**2 / n_branches (cell pairs a %r grid"
             " grows through)" % self.topology,
             cells * cells / self.n_branches if self.topology != "bus" else 0, _MAX_GROWTH_PAIRS),
            ("8 * n_branches (bytes of a per-branch array)",
             8 * self.n_branches, _MAX_BRANCH_BYTES),
            ("8 * horizon_s / mean_interarrival_s (bytes of one cell's session starts)",
             8 * arrivals if cells > 0 else 0, _MAX_ROW_BYTES),
            ("10 * kb_bits (10 kb in bits)", 10.0 * self.kb_bits, sys.float_info.max),
            ("voice_rate_bps * %d (voice rate summed over the session count bound)"
             % _MAX_SESSIONS, self.voice_rate_bps * _MAX_SESSIONS, _MAX_RATE_SUM),
            ("volume_cap_bits / %r * %d (data rate summed over the session count bound)"
             % (_MIN_DATA_DURATION_S, _MAX_SESSIONS),
             self.volume_cap_bits / _MIN_DATA_DURATION_S * _MAX_SESSIONS, _MAX_RATE_SUM),
        ):
            _require(size <= limit, fields, "<= %r" % limit, size)
        check_replications(self.replications)
        check_sessions([self], self.replications)
        return self

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def check_replications(count: int, fields: str = "replications") -> None:
    """Bound the bytes of a run's reports and CSV rows; `fields` name `count`."""
    size = count * _REPLICATION_BYTES
    fields += " * %d (bytes of its reports and CSV rows)" % _REPLICATION_BYTES
    _require(size <= _MAX_RUN_BYTES, fields, "<= %r" % _MAX_RUN_BYTES, size)


def check_sessions(configs: list[SimulationConfig], count: int, fields: str = "replications") -> None:
    """Bound the sessions that `count` replications of each validated
    config draw on average, every cell its branches can serve loaded;
    `fields` name `count`."""
    size = count * sum(
        min(c.density * c.side_m * c.side_m / c.cell_area_m2, c.n_branches * c.max_cells_per_branch)
        * c.horizon_s / c.mean_interarrival_s for c in configs
    )
    cells = "min(density * side_m**2 / cell_area_m2, n_branches * max_cells_per_branch)"
    fields = "%s * horizon_s / mean_interarrival_s * %s (expected sessions)" % (cells, fields)
    _require(size <= _MAX_RUN_SESSIONS, fields, "<= %r" % _MAX_RUN_SESSIONS, size)


_TYPE_NOUNS = {int: "an integer", float: "a number", str: "a string"}


def _typed(field: str, default, value):
    """value read as the type of the field's default (int, float or str);
    a bool is never read as a number, nor a fractional float as an
    integer."""
    kind = type(default)
    if kind is str and isinstance(value, str):
        return value
    fractional = kind is int and isinstance(value, float) and not value.is_integer()
    if kind in (int, float) and not isinstance(value, bool) and not fractional:
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError("%s must be %s, got %r" % (field, _TYPE_NOUNS[kind], value))


def _require(ok: bool, field: str, bound: str, value) -> None:
    if not ok:
        raise ConfigError("%s must be %s (got %r)" % (field, bound, value))


def config_fields() -> tuple[str, ...]:
    """Names of every tunable field, for config-file key validation."""
    return tuple(f.name for f in dataclasses.fields(SimulationConfig))
