"""Session-level traffic model for small-cell front-haul.

Requests arrive per cell as a Poisson process.  Most sessions carry data
whose volume follows a Pareto law pinned down by two published facts: 80%
of transfers stay under 10 kb, and the top decile of transfers carries 90%
of all bytes.  Data session durations follow a lognormal law pinned by its
0.8 and 0.999 quantiles (11 s and 200 s).  The rest are voice calls at a
fixed codec rate with exponentially distributed holding times.

Fitting happens once; the fitted model is immutable.  generate_traffic
draws every cell's sessions into one SessionSet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .config import SimulationConfig
from .errors import FitError

# feasibility ceiling for the Pareto exponent; the share equation drives
# alpha to infinity as top_share approaches top_q
ALPHA_CEILING = 1e6

_FIT_TOL = 1e-10


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


@lru_cache(maxsize=32)
def fit_size_distribution(
    p_small: float = 0.80,
    small_bits: float = 10_000.0,
    top_q: float = 0.10,
    top_share: float = 0.90,
) -> tuple[float, float]:
    """Fit Pareto (alpha, xm) to a small-size quantile and a Lorenz share.

    alpha solves top_q**(1 - 1/alpha) = top_share (bisection, residual
    below 1e-10); xm then follows from P(V < small_bits) = p_small in
    closed form.
    """
    if not 0.0 < p_small < 1.0:
        raise FitError("p_small must lie in (0, 1), got %r" % p_small)
    if small_bits <= 0.0:
        raise FitError("small_bits must be positive, got %r" % small_bits)
    if not 0.0 < top_q < 1.0:
        raise FitError("top_q must lie in (0, 1), got %r" % top_q)
    if not top_q < top_share < 1.0:
        raise FitError(
            "top_share must lie in (top_q, 1) for a finite-mean Pareto fit, "
            "got top_share=%r with top_q=%r" % (top_share, top_q)
        )

    def residual(alpha: float) -> float:
        return top_q ** (1.0 - 1.0 / alpha) - top_share

    lo, hi = 1.0 + 1e-12, ALPHA_CEILING
    if residual(hi) > 0.0:
        raise FitError("required Pareto exponent exceeds ceiling %g" % ALPHA_CEILING)
    alpha = 0.5 * (lo + hi)
    for _ in range(200):
        alpha = 0.5 * (lo + hi)
        r = residual(alpha)
        if abs(r) <= _FIT_TOL:
            break
        if r > 0.0:
            lo = alpha
        else:
            hi = alpha
    else:
        raise FitError("Pareto exponent search did not converge")

    xm = small_bits * (1.0 - p_small) ** (1.0 / alpha)
    return alpha, xm


@lru_cache(maxsize=32)
def fit_duration_distribution(
    p_short: float = 0.80,
    short_s: float = 11.0,
    p_long: float = 0.001,
    long_s: float = 200.0,
) -> tuple[float, float]:
    """Fit lognormal (mu, sigma) through two quantiles:
    P(D < short_s) = p_short and P(D > long_s) = p_long."""
    if not 0.0 < p_short < 1.0 or not 0.0 < p_long < 1.0:
        raise FitError("quantile probabilities must lie in (0, 1)")
    if short_s <= 0.0 or long_s <= 0.0:
        raise FitError("quantile durations must be positive")

    z_short = NormalDist().inv_cdf(p_short)
    z_long = NormalDist().inv_cdf(1.0 - p_long)
    if z_long <= z_short:
        raise FitError(
            "quantile collision: p_short=%r and p_long=%r pin the same "
            "normal quantile" % (p_short, p_long)
        )
    sigma = (math.log(long_s) - math.log(short_s)) / (z_long - z_short)
    if sigma <= 0.0:
        raise FitError("fitted sigma is not positive (are the quantiles inverted?)")
    mu = math.log(short_s) - z_short * sigma
    return mu, sigma


# ---------------------------------------------------------------------------
# sampling

def sample_data_volumes(
    rng: np.random.Generator, model: TrafficModel, n: int
) -> np.ndarray:
    """Pareto volumes in bits, clipped at the volume cap: xm * (1 + L) with
    L = expm1(E / alpha) for standard exponential E, which is numpy's own
    definition of ``pareto``, vectorised."""
    raw = np.expm1(rng.standard_exponential(n) / model.pareto_alpha)
    raw += 1.0
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


def generate_traffic(
    rng: np.random.Generator,
    model: TrafficModel,
    n_cells: int,
    horizon_s: float,
) -> SessionSet:
    """Sessions for every cell 0..n_cells-1 starting inside [0, horizon),
    sorted by (cell id, start).  One draw each, in this order,
    whatever n_cells is: every cell's Poisson(horizon / mean gap) count,
    every start uniform on [0, horizon), each session's class, the data
    volumes, the data durations and the voice durations.  Given its count,
    a Poisson process's arrivals are sorted uniforms (the order-statistic
    property), so each cell's starts are sorted as a row of a table padded
    with +inf.  Data sessions carry a Pareto volume over a lognormal
    duration; voice sessions run at exactly the codec rate."""
    counts = rng.poisson(horizon_s / model.mean_interarrival_s, n_cells)
    total = int(counts.sum())
    slots = np.arange(counts.max(initial=0)) < counts[:, None]
    table = np.full(slots.shape, np.inf)
    table[slots] = rng.random(total) * horizon_s
    table.sort(axis=1)
    starts = table[slots]

    is_data = rng.random(total) < model.data_fraction
    # integer indices scatter about twice as fast as the boolean mask
    data, voice = np.flatnonzero(is_data), np.flatnonzero(~is_data)
    volumes = sample_data_volumes(rng, model, data.size)
    data_dur = sample_data_durations(rng, model, data.size)
    durations = np.empty(total)
    rates = np.empty(total)
    durations[data] = data_dur
    rates[data] = volumes / data_dur
    durations[voice] = sample_voice_durations(rng, model, voice.size)
    rates[voice] = model.voice_rate_bps
    return SessionSet(
        np.repeat(np.arange(n_cells), counts), is_data, starts, durations, rates
    )
