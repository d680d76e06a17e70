import dataclasses
import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import (
    CountingRng,
    empty_sessions,
    expected_data_volume_bits,
    expected_session_volume_bits,
    expected_session_volume_quad,
    lognorm_two_quantile,
    pareto_alpha_bisection,
    pareto_alpha_brentq,
    pareto_alpha_closed_form,
    pareto_xm,
    reference_traffic,
    reference_traffic_v2,
)
from plcsim.config import SimulationConfig
from plcsim.traffic import (
    BLOCK_SESSIONS,
    TrafficModel,
    fit_duration_distribution,
    fit_size_distribution,
    generate_traffic,
    sample_data_volumes,
    sample_voice_durations,
    session_blocks,
)


def _default_model():
    return TrafficModel.from_config(SimulationConfig())


# ---------------------------------------------------------------------------
# size fit

def test_size_fit_against_independent_oracle():
    alpha, xm = fit_size_distribution()
    assert alpha == pytest.approx(pareto_alpha_closed_form(), rel=1e-9)
    assert alpha == pytest.approx(pareto_alpha_brentq(), rel=1e-9)
    assert xm == pytest.approx(pareto_xm(alpha), rel=1e-9)


def test_size_fit_documented_values():
    alpha, xm = fit_size_distribution()
    assert alpha == pytest.approx(1.0480, abs=5e-4)
    assert xm == pytest.approx(2153.0, abs=2.0)


def test_size_fit_small_quantile_exact():
    # P(V < 10000) = 1 - (xm/10000)^alpha must be 0.8 by construction
    alpha, xm = fit_size_distribution()
    assert 1.0 - (xm / 10_000.0) ** alpha == pytest.approx(0.8, abs=1e-12)


# ---------------------------------------------------------------------------
# duration fit

def test_duration_fit_against_independent_oracle():
    mu, sigma = fit_duration_distribution()
    mu_ref, sigma_ref = lognorm_two_quantile()
    assert mu == pytest.approx(mu_ref, rel=1e-9)
    assert sigma == pytest.approx(sigma_ref, rel=1e-9)


def test_duration_fit_documented_values():
    mu, sigma = fit_duration_distribution()
    assert mu == pytest.approx(1.3123, abs=1e-3)
    assert sigma == pytest.approx(1.2899, abs=1e-3)


def test_duration_median_matches_samples():
    mu, sigma = fit_duration_distribution()
    rng = np.random.default_rng(2)
    sample_median = float(np.median(rng.lognormal(mu, sigma, 10_000_000)))
    assert math.exp(mu) == pytest.approx(3.71, abs=0.01)
    assert sample_median == pytest.approx(math.exp(mu), abs=0.01)


def test_fit_constants_bit_for_bit():
    """The fitted constants every manifest records, pinned exactly: alpha
    is the bisection's, not the closed form's 1.0479516371446924, and xm
    scales 1.0 - 0.80 (0.19999999999999996, not 0.2).  kb_bits = 8000 is a
    route no golden output covers."""
    mu, sigma = 1.3123109980546075, 1.2898727259234637
    assert fit_duration_distribution() == (mu, sigma)
    for kb_bits, xm in ((1000.0, 2152.846716641784), (8000.0, 17222.773733134272)):
        model = TrafficModel.from_config(SimulationConfig(kb_bits=kb_bits))
        fit = (model.pareto_alpha, model.pareto_xm_bits, model.lognorm_mu, model.lognorm_sigma)
        assert fit == (1.0479516371164197, xm, mu, sigma)


def test_pareto_alpha_literal_is_the_bisection():
    """The stored Pareto exponent is, bit for bit, what bisection to a
    residual below 1e-10 gives."""
    assert fit_size_distribution()[0] == pareto_alpha_bisection()


def test_duration_fit_literals_are_the_normaldist_formula():
    """fit_duration_distribution() returns two literals; they are, bit for
    bit, what its quantile formula gives through statistics.NormalDist."""
    z_short = NormalDist().inv_cdf(0.80)
    z_long = NormalDist().inv_cdf(0.999)
    sigma = (math.log(200.0) - math.log(11.0)) / (z_long - z_short)
    assert fit_duration_distribution() == (math.log(11.0) - z_short * sigma, sigma)


# ---------------------------------------------------------------------------
# samplers

def test_data_volume_support():
    model = _default_model()
    draws = sample_data_volumes(np.random.default_rng(0), model, 100_000)
    assert draws.min() >= model.pareto_xm_bits
    assert draws.max() <= model.volume_cap_bits


def test_data_volumes_are_numpy_pareto():
    """expm1(E / alpha) is numpy's definition of `pareto`; the two routes
    differ only in the last bits of the vectorised expm1."""
    model = TrafficModel.from_config(SimulationConfig(volume_cap_bits=1e6))
    draws = sample_data_volumes(np.random.default_rng(3), model, 100_000)
    lomax = np.random.default_rng(3).pareto(model.pareto_alpha, 100_000)
    ref = np.minimum((lomax + 1.0) * model.pareto_xm_bits, model.volume_cap_bits)
    np.testing.assert_allclose(draws, ref, rtol=1e-12, atol=0.0)


def test_data_volume_small_quantile():
    model = _default_model()
    draws = sample_data_volumes(np.random.default_rng(1), model, 1_000_000)
    assert (draws < 10_000.0).mean() == pytest.approx(0.80, abs=0.01)


def test_data_volume_clipped_mean():
    model = _default_model()
    draws = sample_data_volumes(np.random.default_rng(10), model, 2_000_000)
    assert draws.mean() == pytest.approx(expected_data_volume_bits(model), rel=0.10)


def test_data_duration_quantiles():
    model = _default_model()
    rng = np.random.default_rng(4)
    draws = rng.lognormal(model.lognorm_mu, model.lognorm_sigma, 1_000_000)
    assert (draws < 11.0).mean() == pytest.approx(0.800, abs=0.005)
    assert (draws > 200.0).mean() == pytest.approx(0.0010, abs=0.0005)


def test_voice_duration_mean_and_support():
    model = _default_model()
    draws = sample_voice_durations(np.random.default_rng(5), model, 1_000_000)
    assert draws.mean() == pytest.approx(100.0, abs=0.5)
    assert draws.min() > 0.0


def test_voice_session_rate_is_exact():
    cfg = SimulationConfig(data_fraction=0.0)
    model = TrafficModel.from_config(cfg)
    ss = generate_traffic(np.random.default_rng(0), model, 1, 100.0)
    assert ss.cell_id.size > 0
    assert not ss.is_data.any()
    assert (ss.rate_bps == 128000.0).all()


def test_data_session_rate_is_volume_over_duration():
    cfg = SimulationConfig(data_fraction=1.0)
    model = TrafficModel.from_config(cfg)
    ss = generate_traffic(np.random.default_rng(0), model, 1, 100.0)
    assert ss.cell_id.size > 0
    assert ss.is_data.all()
    volume = ss.rate_bps * ss.duration_s
    assert ((model.pareto_xm_bits <= volume) & (volume <= model.volume_cap_bits)).all()


# ---------------------------------------------------------------------------
# per-cell session streams

def test_session_count_matches_poisson_mean():
    model = _default_model()
    rng = np.random.default_rng(7)
    ss = generate_traffic(rng, model, 1000, 3600.0)
    counts = np.bincount(ss.cell_id, minlength=1000)
    assert np.mean(counts) == pytest.approx(360.0, abs=2.0)


def test_session_starts_inside_horizon():
    model = _default_model()
    ss = generate_traffic(np.random.default_rng(8), model, 1, 500.0)
    assert ((ss.start_s >= 0.0) & (ss.start_s < 500.0)).all()


def test_horizon_shorter_than_first_arrival():
    model = _default_model()
    ss = generate_traffic(np.random.default_rng(0), model, 1, 1e-9)
    assert ss.cell_id.size == 0


def test_session_stream_reproducible():
    model = _default_model()
    a = generate_traffic(np.random.default_rng(12), model, 1, 1000.0)
    b = generate_traffic(np.random.default_rng(12), model, 1, 1000.0)
    for field in dataclasses.fields(a):
        assert np.array_equal(getattr(a, field.name), getattr(b, field.name))


def test_session_mix_matches_data_fraction():
    model = _default_model()
    ss = generate_traffic(np.random.default_rng(13), model, 1, 200_000.0)
    assert ss.is_data.mean() == pytest.approx(0.97, abs=0.01)


def test_offered_rate_per_cell_converges():
    # Wald: E[sum of volumes in a window] = (horizon / mean gap) * E[volume],
    # so offered bits per second per cell tends to E[volume] / mean gap.
    model = _default_model()
    rng = np.random.default_rng(21)
    horizon = 100_000.0
    n_cells = 20
    ss = generate_traffic(rng, model, n_cells, horizon)
    total_bits = float(np.sum(ss.rate_bps * ss.duration_s))
    per_cell = total_bits / horizon / n_cells
    target = expected_session_volume_bits(model) / model.mean_interarrival_s
    assert per_cell == pytest.approx(target, rel=0.15)


def test_draw_calls_are_one_plus_five_per_block():
    """One Poisson draw, then exactly five draws per block of cells, the
    block count worked out from the Poisson counts alone: one block up to
    100 cells at 100 s, about twelve at 10,000 cells."""
    model = _default_model()
    blocks = []
    for n_cells in (1, 100, 10_000):
        rng = CountingRng(np.random.default_rng(4))
        ss = generate_traffic(rng, model, n_cells, 100.0)
        assert ss.cell_id.size > 0
        counts = np.random.default_rng(4).poisson(100.0 / model.mean_interarrival_s, n_cells)
        n_blocks = np.unique((np.cumsum(counts) - counts) // BLOCK_SESSIONS).size
        assert [name for name, _ in rng.draws] == ["poisson"] + [
            "random", "random", "standard_exponential", "lognormal", "exponential"
        ] * n_blocks
        blocks.append(n_blocks)
    assert blocks[:2] == [1, 1] and blocks[2] >= 10


def _assert_same_table(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert x.dtype == y.dtype and np.array_equal(x, y), field.name


def test_one_block_equals_the_one_pass_reference():
    """When every cell starts before session BLOCK_SESSIONS, the cells make
    one block and every column equals the one-pass generator
    (tests/oracles.py:reference_traffic_v2) bit for bit: on a seed corpus,
    and at seed 143, where 820 cells at 100 s put the last cell's first
    session at 8,191.  At seed 68 it lands on 8,192, and the last cell
    opens a second block of its own."""
    model = TrafficModel.from_config(SimulationConfig(data_fraction=0.8))
    shapes = [(0, 100.0), (1, 1000.0), (30, 600.0), (200, 300.0)]
    corpus = [(seed, n, h) for seed in range(8) for n, h in shapes] + [(143, 820, 100.0)]
    for seed, n_cells, horizon in corpus:
        blocks = list(session_blocks(np.random.default_rng(seed), model, np.arange(n_cells), horizon))
        assert len(blocks) == 1
        new = generate_traffic(np.random.default_rng(seed), model, n_cells, horizon)
        _assert_same_table(new, reference_traffic_v2(np.random.default_rng(seed), model, n_cells, horizon))
    for seed, first_of_last in ((143, 8191), (68, 8192)):
        counts = np.random.default_rng(seed).poisson(10.0, 820)
        assert counts[:-1].sum() == first_of_last
    blocks = list(session_blocks(np.random.default_rng(68), model, np.arange(820), 100.0))
    assert [np.unique(b.cell_id).tolist() for b in blocks][1:] == [[819]]


@settings(max_examples=100, deadline=None)
@given(
    n_cells=st.integers(0, 300),
    horizon=st.one_of(
        st.sampled_from([1e-9, 0.1, 1.0 / 3.0, 100.0 / 7.0, 3600.0]),
        st.floats(1e-9, 5000.0),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_session_table_invariants(n_cells, horizon, seed):
    """Starts lie in [0, H), rows are sorted by (cell, start), and each
    cell holds as many sessions as its Poisson count, the first draw."""
    model = _default_model()
    ss = generate_traffic(np.random.default_rng(seed), model, n_cells, horizon)
    counts = np.random.default_rng(seed).poisson(
        horizon / model.mean_interarrival_s, n_cells
    )
    assert np.array_equal(np.bincount(ss.cell_id, minlength=n_cells), counts)
    empty = empty_sessions()
    for field in dataclasses.fields(ss):
        column = getattr(ss, field.name)
        assert column.shape == (counts.sum(),)
        assert column.dtype == getattr(empty, field.name).dtype
    assert ((ss.start_s >= 0.0) & (ss.start_s < horizon)).all()
    same_cell = np.diff(ss.cell_id) == 0
    assert (np.diff(ss.cell_id) >= 0).all()
    assert (np.diff(ss.start_s)[same_cell] >= 0.0).all()


# ---------------------------------------------------------------------------
# the one-pass stream against the per-cell reference, in distribution
#
# Each check draws at least 10^5 sessions under a fixed seed and needs
# p > 1e-3.

_GENERATORS = [
    pytest.param(generate_traffic, id="one-pass"),
    pytest.param(reference_traffic, id="per-cell"),
]


@pytest.mark.parametrize("generate", _GENERATORS)
def test_gaps_are_exponential(generate):
    """Within-cell gaps of a Poisson process are Exponential(mean).  With
    3,600 arrivals per cell, leaving out the gap that straddles the horizon
    biases the sample far below what the test resolves."""
    model = _default_model()
    ss = generate(np.random.default_rng(31), model, 30, 36_000.0)
    same_cell = ss.cell_id[1:] == ss.cell_id[:-1]
    gaps = np.diff(ss.start_s)[same_cell]
    assert gaps.size >= 100_000
    p = stats.kstest(gaps, stats.expon(scale=model.mean_interarrival_s).cdf).pvalue
    assert p > 1e-3


@pytest.mark.parametrize("generate", _GENERATORS)
def test_cell_counts_are_poisson(generate):
    """Index of dispersion: sum((c - mean)^2) / mean ~ chi2(n - 1) for
    Poisson counts; two-sided."""
    n_cells = 2000
    ss = generate(np.random.default_rng(32), _default_model(), n_cells, 600.0)
    assert ss.cell_id.size >= 100_000
    counts = np.bincount(ss.cell_id, minlength=n_cells)
    d = float(((counts - counts.mean()) ** 2).sum() / counts.mean())
    chi2 = stats.chi2(n_cells - 1)
    assert 2.0 * min(chi2.cdf(d), chi2.sf(d)) > 1e-3


def test_stream_matches_reference_in_distribution():
    model = _default_model()
    new = generate_traffic(np.random.default_rng(33), model, 300, 3600.0)
    old = reference_traffic(np.random.default_rng(34), model, 300, 3600.0)
    for ss in (new, old):
        assert ss.cell_id.size >= 100_000
        n_data = int(ss.is_data.sum())
        assert stats.binomtest(n_data, ss.is_data.size, model.data_fraction).pvalue > 1e-3
    for column in ("start_s", "duration_s", "rate_bps"):
        p = stats.ks_2samp(getattr(new, column), getattr(old, column)).pvalue
        assert p > 1e-3, column


# ---------------------------------------------------------------------------
# analytic volume helpers

def test_expected_volume_against_quadrature():
    model = _default_model()
    got = expected_data_volume_bits(model)
    ref = expected_session_volume_quad(
        model.pareto_alpha, model.pareto_xm_bits, model.volume_cap_bits,
        data_fraction=1.0, voice_rate_bps=0.0,
    )
    assert got == pytest.approx(ref, rel=1e-9)


def test_expected_session_volume_against_quadrature():
    model = _default_model()
    got = expected_session_volume_bits(model)
    ref = expected_session_volume_quad(
        model.pareto_alpha, model.pareto_xm_bits, model.volume_cap_bits
    )
    assert got == pytest.approx(ref, rel=1e-9)


def test_untruncated_mean_close_to_documented_47kb():
    alpha, xm = fit_size_distribution()
    untruncated = alpha * xm / (alpha - 1.0)
    assert untruncated == pytest.approx(47_049.0, rel=1e-3)


def test_kb_bits_switch_rescales_size_fit():
    model_kb = TrafficModel.from_config(SimulationConfig(kb_bits=1000.0))
    model_kB = TrafficModel.from_config(SimulationConfig(kb_bits=8000.0))
    assert model_kB.pareto_alpha == model_kb.pareto_alpha
    assert model_kB.pareto_xm_bits == pytest.approx(8.0 * model_kb.pareto_xm_bits)


def test_model_carries_config_knobs():
    cfg = SimulationConfig(
        voice_rate_bps=64000.0,
        voice_mean_duration_s=50.0,
        mean_interarrival_s=4.0,
        volume_cap_bits=5e8,
        data_fraction=0.9,
    )
    model = TrafficModel.from_config(cfg)
    assert model.voice_rate_bps == 64000.0
    assert model.voice_mean_duration_s == 50.0
    assert model.mean_interarrival_s == 4.0
    assert model.volume_cap_bits == 5e8
    assert model.data_fraction == 0.9
