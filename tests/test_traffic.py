import dataclasses
import math

import numpy as np
import pytest

from oracles import (
    expected_data_volume_bits,
    expected_session_volume_bits,
    expected_session_volume_quad,
    lognorm_two_quantile,
    pareto_alpha_brentq,
    pareto_alpha_closed_form,
    pareto_xm,
)
from plcsim.config import SimulationConfig
from plcsim.errors import FitError
from plcsim.simulator import generate_traffic
from plcsim.traffic import (
    TrafficModel,
    fit_duration_distribution,
    fit_size_distribution,
    sample_data_volumes,
    sample_voice_durations,
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


def test_size_fit_share_equal_to_q_is_infeasible():
    with pytest.raises(FitError):
        fit_size_distribution(top_q=0.1, top_share=0.1)


def test_size_fit_share_below_q_is_infeasible():
    with pytest.raises(FitError):
        fit_size_distribution(top_q=0.1, top_share=0.05)


def test_size_fit_rejects_bad_probabilities():
    with pytest.raises(FitError):
        fit_size_distribution(p_small=0.0)
    with pytest.raises(FitError):
        fit_size_distribution(small_bits=-1.0)


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


def test_duration_fit_quantile_collision():
    with pytest.raises(FitError):
        fit_duration_distribution(p_short=0.8, p_long=0.2)


def test_duration_median_matches_samples():
    mu, sigma = fit_duration_distribution()
    rng = np.random.default_rng(2)
    sample_median = float(np.median(rng.lognormal(mu, sigma, 10_000_000)))
    assert math.exp(mu) == pytest.approx(3.71, abs=0.01)
    assert sample_median == pytest.approx(math.exp(mu), abs=0.01)


# ---------------------------------------------------------------------------
# samplers

def test_data_volume_support():
    model = _default_model()
    draws = sample_data_volumes(np.random.default_rng(0), model, 100_000)
    assert draws.min() >= model.pareto_xm_bits
    assert draws.max() <= model.volume_cap_bits


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
