"""Envelope extraction and stretched-exponential fitting."""

import math

import numpy as np
import pytest

from deoq_dyn.analysis import (
    HBAR_EV_S,
    EnvelopeFit,
    PhysicalScale,
    extract_upper_envelope,
    fit_envelope,
    fit_trace,
    quality_factor,
    to_physical_time,
)
from deoq_dyn.disorder import NoiseSpec, ProbabilityTrace, disorder_average_quadrature
from deoq_dyn.qubit import ExchangeParams, return_probability_zero

P = ExchangeParams()


def make_trace(times, values, initial="zero"):
    return ProbabilityTrace(
        times=times, values=values, initial=initial,
        method="quadrature", params=P, noise=NoiseSpec(),
    )


def stretched(t, p_inf, p_start, t2, alpha):
    return p_inf + (p_start - p_inf) * np.exp(-((t / t2) ** alpha))


def test_envelope_of_undamped_oscillation_is_flat():
    times = np.linspace(0.0, 200.0, 8001)
    trace = make_trace(times, return_probability_zero(P, 0.0, times))
    env = extract_upper_envelope(trace)
    # grid sampling shifts peaks by at most half a step
    assert np.max(np.abs(env[:, 1] - 1.0)) <= 2e-4
    assert env[0, 0] == 0.0 and env[0, 1] == 1.0
    assert len(env) > 25


def test_envelope_reproduces_generating_decay_curve():
    times = np.linspace(0.0, 200.0, 8001)
    decay = np.exp(-((times / 20.0) ** 1.5))
    values = 0.25 + 0.375 * decay * (1.0 + np.cos(3.0 * times))
    env = extract_upper_envelope(make_trace(times, values))
    generator = 0.25 + 0.75 * np.exp(-((env[:, 0] / 20.0) ** 1.5))
    assert np.max(np.abs(env[:, 1] - generator)) <= 1e-3


def test_envelope_monotone_trace_has_single_point():
    times = np.linspace(0.0, 50.0, 501)
    values = 0.5 + 0.5 * np.exp(-times / 10.0)
    env = extract_upper_envelope(make_trace(times, values))
    assert len(env) == 1
    fit = fit_envelope(env)
    assert fit.status == "insufficient-peaks"


def test_envelope_plateau_contributes_midpoint():
    times = np.linspace(0.0, 8.0, 9)
    values = np.array([1.0, 0.6, 0.9, 0.9, 0.9, 0.6, 0.8, 0.6, 0.5])
    env = extract_upper_envelope(make_trace(times, values))
    # plateau at indices 2..4 reduces to its middle sample
    np.testing.assert_allclose(env, [[0.0, 1.0], [3.0, 0.9], [6.0, 0.8]])


def test_envelope_requires_three_points():
    with pytest.raises(ValueError, match=">= 3"):
        extract_upper_envelope(make_trace(np.array([0.0, 1.0]), np.array([1.0, 0.9])))


@pytest.mark.parametrize("t2_true,alpha_true", [(5.0, 1.0), (20.0, 1.5), (80.0, 2.0)])
def test_fit_recovers_synthetic_decay(t2_true, alpha_true):
    times = 2 * math.pi * np.arange(40)
    points = np.column_stack([times, stretched(times, 0.25, 1.0, t2_true, alpha_true)])
    fit = fit_envelope(points)
    assert fit.status == "converged"
    assert fit.t2_star == pytest.approx(t2_true, rel=0.01)
    assert fit.alpha == pytest.approx(alpha_true, rel=0.02)
    assert fit.sse < 1e-8


def test_fit_without_point_at_time_zero():
    """With no point at t = 0, e = exp(-(t/t2)^alpha) underflows to 0 at every
    point for the grid's smallest t2; those columns must not make NaN."""
    times = np.linspace(1.0, 100.0, 20)
    points = np.column_stack([times, stretched(times, 0.3, 1.0, 20.0, 1.0)])
    fit = fit_envelope(points)
    assert fit.status == "converged"
    assert fit.t2_star == pytest.approx(20.0, rel=1e-6)


def test_fit_superposition_style_start():
    times = np.linspace(0.0, 40.0, 41)
    points = np.column_stack([times, stretched(times, 0.5, 0.933, 8.0, 1.2)])
    fit = fit_envelope(points)
    assert fit.status == "converged"
    assert fit.t2_star == pytest.approx(8.0, rel=0.01)
    assert fit.p_start == pytest.approx(0.933, abs=0.01)


def test_fit_fixed_start_is_pinned():
    times = np.linspace(0.0, 60.0, 31)
    points = np.column_stack([times, stretched(times, 0.3, 1.0, 15.0, 1.8)])
    fit = fit_envelope(points, fixed_start=1.0)
    assert fit.p_start == 1.0
    assert fit.t2_star == pytest.approx(15.0, rel=0.01)


def test_fit_constant_points_report_no_decay():
    times = np.linspace(0.0, 100.0, 26)
    fit = fit_envelope(np.column_stack([times, np.ones_like(times)]))
    assert fit.status == "no-decay"
    assert math.isinf(fit.t2_star)
    assert quality_factor(fit.t2_star) == 1.0


def test_fit_slow_decay_reports_no_decay():
    # visible curvature only far beyond the window ends up as no-decay
    times = np.linspace(0.0, 10.0, 21)
    points = np.column_stack([times, stretched(times, 0.25, 1.0, 500.0, 1.0)])
    fit = fit_envelope(points)
    assert fit.status == "no-decay"
    assert math.isinf(fit.t2_star)


def test_fit_insufficient_points():
    pts = np.array([[0.0, 1.0], [1.0, 0.9], [2.0, 0.8]])
    fit = fit_envelope(pts)
    assert fit.status == "insufficient-peaks"
    assert math.isnan(fit.t2_star)


def test_fit_rejects_malformed_points():
    with pytest.raises(ValueError, match="increasing"):
        fit_envelope(np.array([[0.0, 1.0], [2.0, 0.9], [1.0, 0.8], [3.0, 0.7]]))
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        fit_envelope(np.zeros((4, 3)))
    # 1e-9 t_max underflows to 0 and its log does not exist
    with pytest.raises(ValueError, match="t_max"):
        fit_envelope(np.column_stack([np.linspace(0.0, 1e-315, 4), [1.0, 0.9, 0.8, 0.7]]))
    with pytest.raises(ValueError, match="finite"):
        fit_envelope(np.array([[0.0, 1.0], [1.0, 0.9], [2.0, math.nan], [3.0, 0.7]]))


def test_fit_follows_narrow_valley_to_alpha_bound():
    """Default-sweep cell sigma_e 0.1, sigma_j 0.5: the SSE valley curves down
    to alpha = 4; a polish on the grid alone stalls near alpha 2.2 at SSE 1.2e-5."""
    points = np.array([
        [0.0, 1.0],
        [2.45, 0.8371923885744277],
        [5.2, 0.7050517510115419],
        [7.375, 0.7053348494267322],
    ])
    fit = fit_envelope(points, fixed_start=1.0, t_max=200.0)
    assert fit.alpha == 4.0
    assert fit.sse <= 4.01e-8
    assert fit.t2_star == pytest.approx(2.5877139, rel=1e-6)


def test_fit_idempotence():
    """Refitting a fitted curve's own samples returns the same parameters."""
    times = np.linspace(0.0, 120.0, 40)
    points = np.column_stack([times, stretched(times, 0.3, 0.95, 22.0, 1.4)])
    first = fit_envelope(points)
    resampled = np.column_stack([
        times, stretched(times, first.p_infinity, first.p_start, first.t2_star, first.alpha)
    ])
    second = fit_envelope(resampled)
    assert second.t2_star == pytest.approx(first.t2_star, rel=1e-3)
    assert second.alpha == pytest.approx(first.alpha, rel=1e-3)
    assert second.p_infinity == pytest.approx(first.p_infinity, abs=1e-4)
    assert second.p_start == pytest.approx(first.p_start, abs=1e-4)


def test_fit_scale_covariance():
    times = np.linspace(0.0, 100.0, 50)
    values = stretched(times, 0.25, 1.0, 18.0, 1.6)
    base = fit_envelope(np.column_stack([times, values]))
    for k in (0.25, 4.0):
        scaled = fit_envelope(np.column_stack([k * times, values]))
        assert scaled.t2_star == pytest.approx(k * base.t2_star, rel=1e-3)
        assert scaled.alpha == pytest.approx(base.alpha, rel=1e-3)
        assert scaled.p_infinity == pytest.approx(base.p_infinity, abs=1e-5)


def test_fit_alpha_clamped_to_bounds():
    times = np.linspace(0.0, 30.0, 40)
    # generator steeper than the allowed stretching range
    points = np.column_stack([times, stretched(times, 0.25, 1.0, 12.0, 6.0)])
    fit = fit_envelope(points)
    assert fit.alpha <= 4.0


def test_envelope_fit_type_validates_converged_fields():
    with pytest.raises(ValueError, match="t2_star"):
        EnvelopeFit(0.2, 0.9, -1.0, 1.0, 0.0, "converged")
    with pytest.raises(ValueError, match="alpha"):
        EnvelopeFit(0.2, 0.9, 1.0, 9.0, 0.0, "converged")
    with pytest.raises(ValueError, match="p_infinity"):
        EnvelopeFit(0.95, 0.9, 1.0, 1.0, 0.0, "converged")
    with pytest.raises(ValueError, match="status"):
        EnvelopeFit(0.2, 0.9, 1.0, 1.0, 0.0, "diverged")


def test_quality_factor_values():
    assert quality_factor(math.inf) == 1.0
    assert quality_factor(1.0) == pytest.approx(0.36787944117144233, abs=1e-15)
    assert quality_factor(10.0) == pytest.approx(0.9048374180359595, abs=1e-15)


def test_quality_factor_monotone():
    grid = np.geomspace(0.01, 1000.0, 200)
    qs = [quality_factor(x) for x in grid]
    assert all(b > a for a, b in zip(qs, qs[1:]))
    assert all(0.0 < q <= 1.0 for q in qs)


def test_quality_factor_rejects_nonpositive():
    with pytest.raises(ValueError):
        quality_factor(0.0)
    with pytest.raises(ValueError):
        quality_factor(-3.0)
    with pytest.raises(ValueError):
        quality_factor(math.nan)


def test_physical_scale_and_time_conversion():
    scale = PhysicalScale(1e-6)
    assert scale.time_unit_s == pytest.approx(6.582119569e-10, rel=1e-12)
    assert to_physical_time(0.0, scale) == 0.0
    assert to_physical_time(1.0, scale) == pytest.approx(6.582119569e-10, rel=1e-12)
    assert to_physical_time(100.0, scale) == pytest.approx(6.582119569e-8, rel=1e-12)
    assert HBAR_EV_S == 6.582119569e-16
    with pytest.raises(ValueError):
        PhysicalScale(0.0)
    with pytest.raises(ValueError):
        PhysicalScale(-1e-6)


def test_pipeline_fit_of_simulated_traces():
    times = np.linspace(0.0, 200.0, 8001)
    noise = NoiseSpec(sigma_e=0.1, sigma_j1=0.1, sigma_j2=0.1)
    trace = disorder_average_quadrature(P, noise, "zero", times)
    fit = fit_trace(trace)
    assert fit.status == "converged"
    assert fit.p_start == 1.0
    assert 5.0 < fit.t2_star < 20.0
    sup = disorder_average_quadrature(P, noise, "superposition", times)
    fit_sup = fit_trace(sup)
    assert fit_sup.status == "converged"
    # the superposition envelope starts near its noiseless peak 0.933
    assert fit_sup.p_start == pytest.approx(0.933, abs=0.05)


def test_fitted_curve_tracks_envelope():
    times = np.linspace(0.0, 200.0, 8001)
    for se, sj in ((0.1, 0.1), (0.3, 0.05)):
        noise = NoiseSpec(sigma_e=se, sigma_j1=sj, sigma_j2=sj)
        trace = disorder_average_quadrature(P, noise, "zero", times)
        env = extract_upper_envelope(trace)
        fit = fit_trace(trace)
        assert fit.status == "converged"
        model = stretched(env[:, 0], fit.p_infinity, fit.p_start, fit.t2_star, fit.alpha)
        assert np.max(np.abs(model - env[:, 1])) <= 0.05


def test_fit_trace_monotone_decay_uses_samples_directly():
    times = np.linspace(0.0, 120.0, 1201)
    values = stretched(times, 0.25, 1.0, 20.0, 1.5)
    fit = fit_trace(make_trace(times, values))
    assert fit.status == "converged"
    assert fit.t2_star == pytest.approx(20.0, rel=1e-6)
    assert fit.alpha == pytest.approx(1.5, rel=1e-6)


def test_fit_trace_fast_decay_stays_bounded():
    # decay inside a single oscillation period still yields a finite fit
    times = np.linspace(0.0, 200.0, 8001)
    noise = NoiseSpec(sigma_j1=0.5, sigma_j2=0.5)
    trace = disorder_average_quadrature(P, noise, "zero", times)
    fit = fit_trace(trace)
    assert fit.status == "converged"
    assert 0.5 < fit.t2_star < 10.0
