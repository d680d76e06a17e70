"""Session-level traffic model for small-cell front-haul.

Requests arrive per cell as a Poisson process.  Most sessions carry data
whose volume follows a Pareto law pinned down by two published facts: 80%
of transfers stay under 10 kb, and the top decile of transfers carries 90%
of all bytes.  Data session durations follow a lognormal law pinned by its
0.8 and 0.999 quantiles (11 s and 200 s).  The rest are voice calls at a
fixed codec rate with exponentially distributed holding times.

The four fitted facts are fixed; a config only rescales the 10 kb
threshold through ``kb_bits``.  The Pareto exponent is stored as the
float its bisection gives, and the lognormal's (mu, sigma) as the two
floats its quantile formula gives.  The data fraction, voice rate,
voice holding time, mean arrival gap and volume cap are config fields.
The fitted model is immutable.  session_blocks draws the sessions of
consecutive whole cells in blocks that start every BLOCK_SESSIONS
sessions, and generate_traffic joins the same blocks into one SessionSet.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from .config import SimulationConfig

# a block of session_blocks holds the cells whose first sessions fall in one
# window of this many sessions, so at most this many plus one cell's (about
# 16,800 at a one-day horizon); a load half draws and aggregates one block at
# a time, so it holds a few arrays of that length whatever the session count
BLOCK_SESSIONS = 8192


@dataclass(frozen=True)
class TrafficModel:
    pareto_alpha: float
    pareto_xm_bits: float
    lognorm_mu: float
    lognorm_sigma: float
    data_fraction: float
    voice_rate_bps: float
    voice_mean_duration_s: float
    mean_interarrival_s: float
    volume_cap_bits: float

    @classmethod
    def from_config(cls, config: SimulationConfig) -> "TrafficModel":
        alpha, xm = fit_size_distribution(small_bits=10.0 * config.kb_bits)
        mu, sigma = fit_duration_distribution()
        return cls(
            pareto_alpha=alpha,
            pareto_xm_bits=xm,
            lognorm_mu=mu,
            lognorm_sigma=sigma,
            data_fraction=config.data_fraction,
            voice_rate_bps=config.voice_rate_bps,
            voice_mean_duration_s=config.voice_mean_duration_s,
            mean_interarrival_s=config.mean_interarrival_s,
            volume_cap_bits=config.volume_cap_bits,
        )


@dataclass
class SessionSet:
    """Column-oriented session store, sorted by (cell id, start time)."""

    cell_id: np.ndarray
    is_data: np.ndarray
    start_s: np.ndarray
    duration_s: np.ndarray
    rate_bps: np.ndarray

    def subset(self, mask: np.ndarray) -> "SessionSet":
        return SessionSet(
            self.cell_id[mask],
            self.is_data[mask],
            self.start_s[mask],
            self.duration_s[mask],
            self.rate_bps[mask],
        )


# the Pareto exponent for which the top decile of transfers carries 90% of
# the bits: alpha solves 0.1**(1 - 1/alpha) = 0.9, written out as the float
# that bisection to a residual below 1e-10 gives it (a test re-derives it)
_PARETO_ALPHA = 1.0479516371164197


def fit_size_distribution(small_bits: float = 10_000.0) -> tuple[float, float]:
    """Pareto (alpha, xm) with the top decile of transfers carrying 90% of
    the bits and P(V < small_bits) = 0.8."""
    return _PARETO_ALPHA, small_bits * (1.0 - 0.80) ** (1.0 / _PARETO_ALPHA)


def fit_duration_distribution() -> tuple[float, float]:
    """Lognormal (mu, sigma) through P(D < 11 s) = 0.8 and
    P(D > 200 s) = 0.001: with z80 and z999 the standard normal 0.8 and
    0.999 quantiles, sigma = (ln 200 - ln 11) / (z999 - z80) and
    mu = ln 11 - z80 * sigma, written out as the floats that
    ``statistics.NormalDist().inv_cdf`` gives them (a test re-derives
    them), so that no run imports ``statistics``."""
    return 1.3123109980546075, 1.2898727259234637


# ---------------------------------------------------------------------------
# sampling

def sample_data_volumes(
    rng: np.random.Generator, model: TrafficModel, n: int
) -> np.ndarray:
    """Pareto volumes in bits, clipped at the volume cap: xm * (1 + L) with
    L = expm1(E / alpha) for standard exponential E, which is numpy's own
    definition of ``pareto``, vectorised."""
    raw = rng.standard_exponential(n)
    raw /= model.pareto_alpha
    np.expm1(raw, out=raw)
    raw += 1.0
    # a huge xm can overflow to inf, which the cap clips like any volume
    with np.errstate(over="ignore"):
        raw *= model.pareto_xm_bits
    return np.minimum(raw, model.volume_cap_bits, out=raw)


def sample_data_durations(
    rng: np.random.Generator, model: TrafficModel, n: int
) -> np.ndarray:
    return rng.lognormal(model.lognorm_mu, model.lognorm_sigma, n)


def sample_voice_durations(
    rng: np.random.Generator, model: TrafficModel, n: int
) -> np.ndarray:
    return rng.exponential(model.voice_mean_duration_s, n)


def session_blocks(
    rng: np.random.Generator,
    model: TrafficModel,
    cells: np.ndarray,
    horizon_s: float,
) -> Iterator[SessionSet]:
    """Sessions for the cells of ascending ids ``cells`` starting inside
    [0, horizon), as consecutive blocks of whole cells, sorted by (id, start).

    One Poisson(horizon / mean gap) draw gives every cell's session count.
    The i-th cell goes to block floor(S_i / BLOCK_SESSIONS), S_i counting
    the sessions of the cells before it, so no cell is split.  Each block
    then draws, in this order and for its own sessions only: every start
    uniform on [0, horizon), each session's class, the data volumes, the
    data durations and the voice durations.  Given its count, a Poisson
    process's arrivals are sorted uniforms (the order-statistic property),
    so each cell's starts are sorted as a row of a table padded with +inf.
    Data sessions carry a Pareto volume over a lognormal duration; voice
    sessions run at exactly the codec rate.  With no cells, or when every
    cell starts before session BLOCK_SESSIONS, there is one block.  Each
    block is drawn when it is asked for, so a consumer that drops each
    block before asking for the next holds one at a time.
    """
    counts = rng.poisson(horizon_s / model.mean_interarrival_s, cells.size)
    key = (np.cumsum(counts) - counts) // BLOCK_SESSIONS
    edges = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), cells.size]
    del key
    for lo, hi in zip(edges[:-1], edges[1:]):
        yield _draw_block(rng, model, cells[lo:hi], counts[lo:hi], horizon_s)


def _draw_block(
    rng: np.random.Generator,
    model: TrafficModel,
    cells: np.ndarray,
    counts: np.ndarray,
    horizon_s: float,
) -> SessionSet:
    """The sessions of the given cells with the given counts: the five
    draws of one block of session_blocks."""
    total = int(counts.sum())
    slots = np.arange(counts.max(initial=0)) < counts[:, None]
    table = np.full(slots.shape, np.inf)
    table[slots] = rng.random(total)
    table.sort(axis=1)
    starts = table[slots]
    starts *= horizon_s  # scaling never reorders, so it may follow the sort
    del table, slots

    is_data = rng.random(total) < model.data_fraction
    # integer indices scatter about twice as fast as the boolean mask
    data, voice = np.flatnonzero(is_data), np.flatnonzero(~is_data)
    volumes = sample_data_volumes(rng, model, data.size)
    data_dur = sample_data_durations(rng, model, data.size)
    durations = np.empty(total)
    rates = np.empty(total)
    durations[data] = data_dur
    volumes /= data_dur
    rates[data] = volumes
    durations[voice] = sample_voice_durations(rng, model, voice.size)
    rates[voice] = model.voice_rate_bps
    return SessionSet(np.repeat(cells, counts), is_data, starts, durations, rates)


def generate_traffic(
    rng: np.random.Generator,
    model: TrafficModel,
    n_cells: int,
    horizon_s: float,
) -> SessionSet:
    """The blocks of session_blocks joined into one SessionSet, sorted by
    (cell id, start)."""
    blocks = list(session_blocks(rng, model, np.arange(n_cells), horizon_s))
    return SessionSet(
        *(np.concatenate([getattr(b, f.name) for b in blocks]) for f in fields(SessionSet))
    )
