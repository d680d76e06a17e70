"""Monte Carlo driver: replications, rate aggregation, sweep statistics.

A replication is one random scenario end to end: drop cells, synthesize
the feeder grid, flag served cells, generate the served cells' sessions,
then accumulate per-step aggregate rates at the hub and per branch.  Session
rate contributions are prorated exactly over the time steps they overlap,
and the mean wait is pooled in the same pass.  Sessions are drawn and
aggregated one block of cells at a time (traffic.session_blocks), and
each block is added whole, so a replication holds one block and its
rate series, whatever its session count.

All randomness flows from one integer seed per replication; sweep
replications derive their seeds positionally from (master seed, density
index, topology index, replication index) so any single sweep cell can be
reproduced in isolation.  A replication has a layout half (deploy, then
build the grid) and a load half (the rest).  Grid building draws no random
numbers, so a batch of replications can deploy each on its own generator,
build all the grids at once and then run each load half on its generator,
with the results of replications run one at a time.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .config import SimulationConfig, check_replications, check_sessions
from .deployment import cell_count, deploy
from .gridgen import (
    PowerGrid,
    build_grid,  # noqa: F401  (only for the build_grid site in perfbench/tracing.py)
    build_grids,
    mark_served,
    reachability_fraction,
)
from .traffic import (
    SessionSet,
    TrafficModel,
    generate_traffic,  # noqa: F401  (the acceptance and simulator tests import it from here)
    session_blocks,
)

_MASK64 = (1 << 64) - 1


@dataclass
class RateSeries:
    hub: np.ndarray  # (steps,) aggregate bps at the hub
    branches: np.ndarray  # (n_branches, steps)
    mean_wait_s: float | None  # the mean start gap, pooled over served cells


@dataclass
class MetricsReport:
    """One replication's metrics; every field after ``seed`` is a column of
    metrics.csv and a <name>_mean, <name>_stderr pair of SweepRow."""

    seed: int | None
    reachability: float | None
    avg_rate_bps: float
    max_rate_bps: float
    mean_wait_s: float | None
    forced_crossings: int


METRICS = tuple(f.name for f in dataclasses.fields(MetricsReport))[1:]


# a sweep cell, a column of sweep.csv per field, a pair per metric (METRICS)
SweepRow = dataclasses.make_dataclass(
    "SweepRow",
    [("density", float), ("topology", str), ("replications", int)]
    + [(name + stat, float | None) for name in METRICS for stat in ("_mean", "_stderr")],
    namespace={"__module__": __name__},  # so that rows pickle
)


@dataclass
class SweepResult:
    rows: list[SweepRow]


# ---------------------------------------------------------------------------
# seed derivation

def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D49BDB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64

def derive_seed(
    master_seed: int, density_index: int, topology_index: int, rep_index: int
) -> int:
    """Positional counter scheme: one splitmix64 round per index component.

    The derived seed depends only on the three indices, never on execution
    order, so sweep cells can run in any order or in isolation.
    """
    x = master_seed & _MASK64
    for component in (density_index, topology_index, rep_index):
        x = _splitmix64(x ^ (component & _MASK64))
    return x


# ---------------------------------------------------------------------------
# aggregation

def _step_count(horizon_s: float, dt_s: float) -> int:
    ratio = horizon_s / dt_s
    if abs(ratio - round(ratio)) < 1e-9:
        return max(int(round(ratio)), 1)
    return max(int(math.ceil(ratio)), 1)


def aggregate_rate_series(
    sessions: SessionSet | Iterable[SessionSet],
    grid: PowerGrid,
    dt_s: float,
    horizon_s: float,
) -> RateSeries:
    """Accumulate aggregate rate per time step at the hub and per branch,
    and pool the mean wait.

    A session holding rate r over [start, start+duration), clipped at the
    horizon, adds r weighted by its fractional overlap with each step.
    Sessions of unserved cells contribute nothing.  The mean wait is the
    mean start gap between consecutive sessions of one served cell.
    sessions is one SessionSet, or an iterable of them (the blocks of
    session_blocks), added one after another; each is read once, in order,
    and dropped before the next is asked for.
    """
    steps = _step_count(horizon_s, dt_s)
    width = steps + 2
    # row 0: the hub's step differences; row 1 + k: those of branch k
    diff = np.zeros((grid.n_branches + 1, width))
    offset = grid.deployment.sector * width  # a cell's first index in branches
    gap_sum, gaps = 0.0, 0
    blocks = [sessions] if isinstance(sessions, SessionSet) else sessions
    for block in blocks:
        _add_block(diff, offset, block, grid.served, dt_s, horizon_s)
        # blocks never split a cell, so the gaps of a stream pool to those
        # of its blocks joined
        ids, start = block.cell_id, block.start_s
        gap = (start[1:] - start[:-1])[(ids[1:] == ids[:-1]) & grid.served[ids[1:]]]
        gap_sum += float(gap.sum())
        gaps += gap.size
        del block, ids, start, gap  # so that the next block is drawn with this one gone
    np.cumsum(diff, axis=1, out=diff)
    return RateSeries(diff[0, :steps], diff[1:, :steps], gap_sum / gaps if gaps else None)


def _add_block(
    diff: np.ndarray,
    offset: np.ndarray,
    sessions: SessionSet,
    served: np.ndarray,
    dt_s: float,
    horizon_s: float,
) -> None:
    """Add one SessionSet's step differences into diff.  A table that drops
    some session is read through one copy of its kept columns."""
    hub, branches = diff[0], diff[1:].reshape(-1)
    columns = (sessions.cell_id, sessions.start_s, sessions.duration_s, sessions.rate_bps)
    cell, start, duration, w = columns
    # sessions must start inside the observation window, at a served cell
    keep = (start >= 0.0) & (start < horizon_s) & served[cell]
    if not keep.all():
        cell, start, duration, w = (c[keep] for c in columns)
    if not (duration >= 0.0).all():
        raise ValueError("session durations must be non-negative")

    # terms 0 and 1 add w (1 - f) and w f at steps floor(a) and floor(a) + 1,
    # for a = start / dt_s and f its fraction; terms 2 and 3 the same at the
    # clipped end b, negated.  Unbuffered np.add.at adds in index order like
    # bincount, so adding term by term, and within a term in session order,
    # gives every step the sums of one bincount over the (4, n) term table.
    for term in range(4):
        x = (start if term < 2 else np.minimum(start + duration, horizon_s)) / dt_s
        floor = np.floor(x)
        at = floor.astype(np.int64)
        x -= floor  # the fraction f
        if term % 2:
            at += 1
        else:
            np.subtract(1.0, x, out=x)
        x *= w if term < 2 else -w
        np.add.at(hub, at, x)
        at += offset[cell]
        np.add.at(branches, at, x)


# ---------------------------------------------------------------------------
# metrics

def compute_metrics(
    series: RateSeries,
    grid: PowerGrid,
    seed: int | None = None,
) -> MetricsReport:
    """One replication's metrics from its series and its grid."""
    return MetricsReport(
        seed=seed,
        reachability=reachability_fraction(grid),
        avg_rate_bps=float(series.hub.mean()),
        max_rate_bps=float(series.hub.max()),
        mean_wait_s=series.mean_wait_s,
        forced_crossings=grid.forced_crossings,
    )


# ---------------------------------------------------------------------------
# replication and sweep

def _load(
    config: SimulationConfig,
    model: TrafficModel,
    seed: int,
    rng: np.random.Generator,
    grid: PowerGrid,
) -> MetricsReport:
    """The load half of a replication: flag the served cells, then draw
    their sessions from model on rng one block at a time, each aggregated
    before the next is drawn, and summarise."""
    mark_served(grid, config.max_wire_m, config.max_cells_per_branch)
    # only served cells load the link, so only they get sessions
    blocks = session_blocks(rng, model, np.flatnonzero(grid.served), config.horizon_s)
    series = aggregate_rate_series(blocks, grid, config.dt_s, config.horizon_s)
    return compute_metrics(series, grid, seed=seed)


# replications whose layouts are built together: their tree or chain
# feeders grow in one lockstep, and their layouts are held at once
_LAYOUT_BATCH = 32
_BATCH_BYTES = 2**27
_LAYOUT_CELL_BYTES = 128  # measured per cell: bus 101 (121 at most), tree or chain 65


def _replicate(scenarios: list[tuple[SimulationConfig, int]]) -> list[MetricsReport]:
    """Replications of validated (config, seed) scenarios that differ in
    density at most, _LAYOUT_BATCH at a time, or fewer if their layouts,
    at _LAYOUT_CELL_BYTES per cell of the densest, would pass _BATCH_BYTES.
    The layout halves of a batch come first: each scenario deploys on its
    own seed's generator, then build_grids grows every tree or chain feeder
    in one lockstep (see the module docstring)."""
    cells = max((cell_count(c.density, c.side_m, c.cell_area_m2) for c, _ in scenarios), default=0)
    size = max(1, min(_LAYOUT_BATCH, _BATCH_BYTES // (_LAYOUT_CELL_BYTES * max(cells, 1))))
    reports = []
    for lo in range(0, len(scenarios), size):
        batch = scenarios[lo : lo + size]
        # the traffic model reads no density, so one serves the batch
        model = TrafficModel.from_config(batch[0][0])
        rngs = [np.random.default_rng(seed) for _, seed in batch]
        deployments = [deploy(config, rng) for (config, _), rng in zip(batch, rngs)]
        grids = build_grids(deployments, batch[0][0])
        reports += [
            _load(config, model, seed, rng, grid)
            for (config, seed), rng, grid in zip(batch, rngs, grids)
        ]
        del deployments, grids  # so that the next batch is built with this one gone
    return reports


def run_replication(config: SimulationConfig, seed: int) -> MetricsReport:
    """One full scenario draw under the given seed."""
    config.validate()
    return _replicate([(config, seed)])[0]


def _mean_stderr(values: list[float | None]) -> tuple[float | None, float | None]:
    present = [v for v in values if v is not None]
    if not present:
        return None, None
    mean = float(np.mean(present))
    if len(present) < 2:
        return mean, None
    return mean, float(np.std(present, ddof=1) / math.sqrt(len(present)))


def _summarize(density: float, topology: str, reports: list[MetricsReport]) -> SweepRow:
    stats = [v for name in METRICS for v in _mean_stderr([getattr(r, name) for r in reports])]
    return SweepRow(density, topology, len(reports), *stats)


def run_cell(
    config: SimulationConfig,
    master_seed: int,
    density_index: int,
    topology_index: int,
    replications: int,
) -> list[MetricsReport]:
    """The replications of one sweep cell of a validated config,
    replication k under derive_seed(master_seed, density_index,
    topology_index, k)."""
    return _replicate(
        [
            (config, derive_seed(master_seed, density_index, topology_index, k))
            for k in range(replications)
        ]
    )


def run_sweep(
    config: SimulationConfig,
    densities: list[float],
    topologies: list[str],
    replications: int,
    master_seed: int | None = None,
) -> SweepResult:
    """Replicated grid of scenarios over densities x topologies.

    Each cell's replication seeds come from derive_seed, so results do not
    depend on the order cells are executed in, nor on how they are batched.
    Every scenario and the replication count are validated first.  The
    replications of all densities of one topology run through one
    _replicate call, so their tree or chain feeders grow in lockstep.
    """
    master = config.master_seed if master_seed is None else master_seed
    cells = len(densities) * len(topologies)
    check_replications(replications * cells, "replications * densities * topologies")
    scenarios = [
        [
            dataclasses.replace(config, density=density, topology=topology).validate()
            for topology in topologies
        ]
        for density in densities
    ]
    check_sessions(sum(scenarios, []), replications, "replications, summed over densities and topologies")
    n = replications
    # one batch per topology, density-major: cell (i, j) is the slice
    # [i * n, (i + 1) * n) of batch j
    by_topology = [
        _replicate(
            [(s, derive_seed(master, i, j, k)) for i, s in enumerate(column) for k in range(n)]
        )
        for j, column in enumerate(zip(*scenarios))
    ]
    return SweepResult(
        [
            _summarize(s.density, s.topology, by_topology[j][i * n : (i + 1) * n])
            for i, row in enumerate(scenarios)
            for j, s in enumerate(row)
        ]
    )
