"""Noise densities, sampling, and the two disorder-averaging routes."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad as integrate

from deoq_dyn import disorder
from deoq_dyn.disorder import (
    NoiseSpec,
    NumericalError,
    ProbabilityTrace,
    QuadratureSpec,
    _czt,
    _nodes_coupling,
    _nodes_delta_e,
    _reduced_rule,
    disorder_average_mc,
    disorder_average_quadrature,
    pdf_delta_e,
    pdf_exchange,
    sample_noise,
)
from deoq_dyn.qubit import (
    ExchangeParams,
    oscillation_terms,
    return_probability_superposition,
    return_probability_zero,
)
from deoq_dyn.sweep import suggested_time_grid

P = ExchangeParams()


def test_pdf_delta_e_value_and_symmetry():
    assert pdf_delta_e(0.0, 1.0) == pytest.approx(0.28209479177387814, abs=1e-14)
    assert pdf_delta_e(0.7, 0.3) == pytest.approx(pdf_delta_e(-0.7, 0.3), abs=1e-15)


def test_pdf_delta_e_normalization():
    sigma = 0.4
    total, _ = integrate(lambda x: pdf_delta_e(x, sigma), -8 * sigma * 2, 8 * sigma * 2)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_pdf_delta_e_rejects_bad_sigma():
    with pytest.raises(ValueError, match="sigma_e"):
        pdf_delta_e(0.0, 0.0)
    with pytest.raises(ValueError, match="sigma_e"):
        pdf_delta_e(0.0, -1.0)


def test_pdf_exchange_value():
    # independently computed from the truncated-Gaussian density
    assert pdf_exchange(0.5, 0.5, 0.5) == pytest.approx(0.94834437908032415, abs=1e-14)


def test_pdf_exchange_zero_below_support():
    assert pdf_exchange(-0.1, 0.5, 0.2) == 0.0
    assert pdf_exchange(-1e-12, 1.5, 0.3) == 0.0


def test_pdf_exchange_normalization():
    for j0, sigma in ((0.5, 0.2), (0.5, 0.5), (0.0, 0.3), (1.5, 1.0)):
        total, _ = integrate(lambda x: pdf_exchange(x, j0, sigma), 0.0, j0 + 10 * sigma)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_pdf_exchange_rejects_bad_arguments():
    with pytest.raises(ValueError, match="sigma_ji"):
        pdf_exchange(0.5, 0.5, 0.0)
    with pytest.raises(ValueError, match="j0i"):
        pdf_exchange(0.5, -0.5, 0.2)


def test_sample_noise_truncation_and_determinism():
    spec = NoiseSpec(sigma_e=0.5, sigma_j1=0.5, sigma_j2=0.4, j01=0.1, j02=0.2)
    j1, j2, de = sample_noise(123, spec, size=20000)
    assert j1.min() >= 0.0 and j2.min() >= 0.0
    j1b, j2b, deb = sample_noise(123, spec, size=20000)
    np.testing.assert_array_equal(j1, j1b)
    np.testing.assert_array_equal(de, deb)


def test_sample_noise_zero_sigma_degenerate():
    spec = NoiseSpec(sigma_e=0.0, sigma_j1=0.0, sigma_j2=0.0, j01=0.7, j02=1.1)
    j1, j2, de = sample_noise(0, spec)
    assert (j1, j2, de) == (0.7, 1.1, 0.0)


def test_sample_noise_delta_e_moments():
    spec = NoiseSpec(sigma_e=0.5)
    _, _, de = sample_noise(42, spec, size=1_000_000)
    # central-limit bound on the mean of a Normal(0, sqrt(2)*0.5) sample
    assert abs(de.mean()) < 4 * (math.sqrt(2) * 0.5) / 1000
    assert de.std() == pytest.approx(math.sqrt(2) * 0.5, rel=0.01)


def test_sample_noise_truncated_mean():
    spec = NoiseSpec(sigma_j1=0.5, j01=0.5)
    j1, _, _ = sample_noise(7, spec, size=400_000)
    # analytic mean of a Gaussian(0.5, 0.5) conditioned on positivity
    assert j1.mean() == pytest.approx(0.6437999854695892, abs=0.003)


def test_sample_noise_accepts_generator():
    spec = NoiseSpec(sigma_j1=0.2)
    rng = np.random.default_rng(5)
    a = sample_noise(rng, spec, size=10)
    b = sample_noise(np.random.default_rng(5), spec, size=10)
    np.testing.assert_array_equal(a[0], b[0])


def test_noise_spec_validation():
    with pytest.raises(ValueError, match="sigma_e"):
        NoiseSpec(sigma_e=-0.1)
    with pytest.raises(ValueError, match="j01"):
        NoiseSpec(j01=-1.0)
    with pytest.raises(ValueError, match="sigma_j2"):
        NoiseSpec(sigma_j2=float("nan"))


def test_quadrature_spec_validation():
    with pytest.raises(ValueError, match="n_hermite"):
        QuadratureSpec(n_hermite=0)
    with pytest.raises(ValueError, match="truncation_width"):
        QuadratureSpec(truncation_width=0.0)
    with pytest.raises(ValueError, match="delta_e_rule"):
        QuadratureSpec(delta_e_rule="spline")


def test_probability_trace_validation():
    times = np.linspace(0.0, 10.0, 11)
    good = np.linspace(1.0, 0.5, 11)
    kw = dict(initial="zero", method="quadrature", params=P, noise=NoiseSpec())
    ProbabilityTrace(times=times, values=good, **kw)
    with pytest.raises(ValueError, match="uniform"):
        ProbabilityTrace(times=times**1.5, values=good, **kw)
    with pytest.raises(ValueError, match="start at 0"):
        ProbabilityTrace(times=times + 1.0, values=good, **kw)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ProbabilityTrace(times=times, values=good + 0.5, **kw)
    with pytest.raises(ValueError, match="t=0"):
        ProbabilityTrace(times=times, values=good * 0.9, **kw)
    with pytest.raises(ValueError, match="finite"):
        ProbabilityTrace(times=times, values=np.where(times == 5.0, np.nan, good), **kw)
    for errors in (np.full(11, np.nan), np.full(11, np.inf), -np.ones(11)):
        with pytest.raises(ValueError, match="mc_std_errors"):
            ProbabilityTrace(times=times, values=good, mc_std_errors=errors, **kw)
    with pytest.raises(ValueError, match="initial"):
        ProbabilityTrace(times=times, values=good, initial="excited",
                         method="quadrature", params=P, noise=NoiseSpec())


def test_non_finite_average_is_numerical_error(monkeypatch):
    """A NaN out of the evaluator is a fault of the method, reported as such
    rather than as an invalid trace."""
    def nan_evaluator(chunks, n_nodes, band, times, evaluator):
        return np.full(len(times), np.nan), "direct"

    monkeypatch.setattr(disorder, "_evaluate", nan_evaluator)
    with pytest.raises(NumericalError, match="nan"):
        disorder_average_quadrature(P, NoiseSpec(), "zero", np.linspace(0.0, 1.0, 3))


def test_quadrature_zero_noise_equals_closed_form():
    times = np.linspace(0.0, 50.0, 501)
    for initial, closed in (
        ("zero", return_probability_zero),
        ("superposition", return_probability_superposition),
    ):
        trace = disorder_average_quadrature(P, NoiseSpec(), initial, times)
        np.testing.assert_allclose(trace.values, closed(P, 0.0, times), atol=1e-12)
        assert trace.metadata["n_nodes"] == 1


def test_quadrature_initial_values():
    noise = NoiseSpec(sigma_e=0.3, sigma_j1=0.1, sigma_j2=0.1)
    times = np.linspace(0.0, 30.0, 301)
    tz = disorder_average_quadrature(P, noise, "zero", times)
    ts = disorder_average_quadrature(P, noise, "superposition", times)
    assert abs(tz.values[0] - 1.0) < 1e-9
    assert abs(ts.values[0] - 0.5) < 1e-9
    assert tz.values.min() >= 0.0 and tz.values.max() <= 1.0
    assert ts.values.min() >= 0.0 and ts.values.max() <= 1.0


def test_quadrature_delta_e_sign_symmetry():
    """The field gradient enters through an even density, so flipping the
    sign convention of its insertion cannot move the average."""
    times = np.linspace(0.0, 80.0, 401)
    noise = NoiseSpec(sigma_e=0.4, sigma_j1=0.1, sigma_j2=0.1)
    for rule in ("hermite", "legendre"):
        q = QuadratureSpec(n_hermite=61, n_legendre=41, delta_e_rule=rule)
        for initial in ("zero", "superposition"):
            plus = disorder_average_quadrature(
                P, noise, initial, times, q=q, _delta_e_sign=1.0
            )
            minus = disorder_average_quadrature(
                P, noise, initial, times, q=q, _delta_e_sign=-1.0
            )
            np.testing.assert_allclose(plus.values, minus.values, atol=1e-12)


def test_quadrature_exchange_label_symmetry_zero_init():
    # the zero-state amplitude depends on (j1-j2)^2 and (j1+j2) only
    times = np.linspace(0.0, 100.0, 501)
    a = NoiseSpec(sigma_e=0.2, sigma_j1=0.05, sigma_j2=0.15, j01=0.5, j02=1.5)
    b = NoiseSpec(sigma_e=0.2, sigma_j1=0.15, sigma_j2=0.05, j01=1.5, j02=0.5)
    ta = disorder_average_quadrature(P, a, "zero", times)
    tb = disorder_average_quadrature(P, b, "zero", times)
    np.testing.assert_allclose(ta.values, tb.values, atol=1e-10)


def test_quadrature_convergence_check_passes_when_resolved():
    times = np.linspace(0.0, 60.0, 601)
    noise = NoiseSpec(sigma_e=0.1, sigma_j1=0.1, sigma_j2=0.1)
    trace = disorder_average_quadrature(P, noise, "zero", times, check_convergence=True)
    assert trace.metadata["quadrature_converged"] is True
    assert trace.metadata["doubling_max_change"] < 1e-5
    assert "warning" not in trace.metadata


def test_quadrature_convergence_check_flags_coarse_spec():
    times = np.linspace(0.0, 120.0, 601)
    noise = NoiseSpec(sigma_e=0.6, sigma_j1=0.3, sigma_j2=0.3)
    coarse = QuadratureSpec(n_hermite=5, n_legendre=7)
    trace = disorder_average_quadrature(
        P, noise, "zero", times, q=coarse, check_convergence=True
    )
    assert trace.metadata["quadrature_converged"] is False
    assert "warning" in trace.metadata


# (sigma_e, sigma_j1, sigma_j2, j01, j02): the Phi kink as sigma_e -> 0 (the
# Si preset sits at 0.003), asymmetric widths and their label swap, a
# symmetric case, and a narrow coupling whose truncation is a sharp edge in
# the gap; then the zero-width limits: sigma_e = 0 (a hard edge in u, as for
# 28Si), one zero sigma_j on either side (a hard edge on one side of the
# gap), both sigma_j zero (one gap node) and no noise at all (one node)
REDUCED_CASES = [
    (1e-4, 0.3, 0.3, 0.5, 1.5),
    (0.003, 0.3, 0.3, 0.5, 1.5),
    (0.2, 0.05, 0.15, 0.5, 1.5),
    (0.2, 0.15, 0.05, 1.5, 0.5),
    (0.3, 0.2, 0.2, 0.5, 1.5),
    (0.05, 0.02, 0.4, 1.5, 0.5),
    (0.0, 0.3, 0.3, 0.5, 1.5),
    (0.0, 0.05, 0.15, 0.5, 1.5),
    (0.0, 0.02, 0.4, 1.5, 0.5),
    (0.0, 0.3, 0.0, 0.5, 1.5),
    (0.0, 0.0, 0.3, 0.5, 1.5),
    (0.2, 0.3, 0.0, 0.5, 1.5),
    (0.2, 0.0, 0.3, 0.5, 1.5),
    (0.2, 0.0, 0.0, 0.5, 1.5),
    (0.0, 0.0, 0.0, 0.5, 1.5),
]


def _doubled_tensor_spec(noise, t_max):
    """The tensor rule at twice the counts that put 0.35 Gauss-Legendre
    nodes on each radian of phase span t_max * range in every dimension
    (21 delta_e and 41 coupling nodes at least): the reference for the 2D
    route."""
    w = QuadratureSpec().truncation_width
    n_de = math.ceil(0.35 * t_max * 2 * w * math.sqrt(2) * noise.sigma_e)
    spans = [(j0 + w * s) - max(0.0, j0 - w * s)
             for j0, s in ((noise.j01, noise.sigma_j1), (noise.j02, noise.sigma_j2))]
    n_j = math.ceil(0.35 * t_max * max(spans))
    return QuadratureSpec(n_hermite=2 * max(21, n_de), n_legendre=2 * max(41, n_j),
                          delta_e_rule="legendre")


@pytest.mark.parametrize("case", REDUCED_CASES)
def test_reduced_rule_matches_doubled_tensor_rule(case):
    """The adaptive 2D route agrees with the 3D tensor rule at twice the
    node counts its phase span needs."""
    noise = NoiseSpec(*case)
    times = np.linspace(0.0, 40.0, 161)
    q2 = _doubled_tensor_spec(noise, 40.0)
    for initial in ("zero", "superposition"):
        reduced = disorder_average_quadrature(P, noise, initial, times, _evaluator="direct")
        tensor = disorder_average_quadrature(P, noise, initial, times, q=q2, _evaluator="direct")
        assert reduced.metadata["rule"] == "reduced-2d"
        assert tensor.metadata["rule"] == "tensor"
        np.testing.assert_allclose(reduced.values, tensor.values, rtol=0, atol=1e-7)


@pytest.mark.parametrize("case", REDUCED_CASES + [(1.0, 0.5, 0.5, 0.5, 1.5)])
def test_reduced_rule_doubling_moves_no_point_by_1e_7(case):
    times = np.linspace(0.0, 100.0, 1001)
    for initial in ("zero", "superposition"):
        trace = disorder_average_quadrature(
            P, NoiseSpec(*case), initial, times, check_convergence=True
        )
        assert trace.metadata["doubling_max_change"] <= 1e-7


def _reduced_moments(noise):
    gap, u, w = _reduced_rule(noise, 100.0).block(slice(None))
    w = w / w.sum()
    return {"u": w @ u, "uu": w @ (u * u), "ug": w @ (u * gap), "gg": w @ (gap * gap)}


def test_reduced_rule_moments_without_truncation():
    """Far from j = 0 the weight is Gaussian in (gap, u), cut at w = 6
    standard deviations: u | gap symmetrically about mu(gap) and gap about m."""
    noise = NoiseSpec(sigma_e=0.05, sigma_j1=0.1, sigma_j2=0.2, j01=3.0, j02=4.0)
    w = QuadratureSpec().truncation_width
    cut = 1.0 - 2.0 * w * math.exp(-w * w / 2) / math.sqrt(2 * math.pi) / math.erf(w / math.sqrt(2))
    v_gap, kappa = 0.05, (0.01 - 0.04) / 0.1
    v_u = 0.01 * 0.04 / v_gap + 2 * 0.05**2
    m, mu = -1.0, 3.5
    got = _reduced_moments(noise)
    want = {
        "u": mu,
        "uu": mu * mu + (kappa * kappa * v_gap + v_u) * cut,
        "ug": mu * m + kappa * v_gap * cut,
        "gg": m * m + v_gap * cut,
    }
    for key in want:
        assert got[key] == pytest.approx(want[key], abs=1e-12), key


def _truncated_moments(j0, sigma):
    """E[j], E[j^2] of a Gaussian(j0, sigma) truncated to j >= 0."""
    if sigma == 0.0:
        return j0, j0 * j0
    alpha = -j0 / sigma
    lam = math.exp(-alpha * alpha / 2) / math.sqrt(2 * math.pi) / (0.5 * math.erfc(alpha / math.sqrt(2)))
    mean = j0 + sigma * lam
    return mean, sigma * sigma * (1 + alpha * lam - lam * lam) + mean * mean


@pytest.mark.parametrize("case", REDUCED_CASES)
def test_reduced_rule_moments_with_truncation(case):
    """Where j1, j2 >= 0 cuts the Gaussians, the node set still carries the
    moments of u = (j1 + j2)/2 - delta_e and gap = j1 - j2, up to the cuts at
    6 standard deviations (about 7e-8 of a variance): a kink or an edge in
    the wrong place biases them."""
    noise = NoiseSpec(*case)
    m1, s1 = _truncated_moments(noise.j01, noise.sigma_j1)
    m2, s2 = _truncated_moments(noise.j02, noise.sigma_j2)
    got = _reduced_moments(noise)
    want = {
        "u": 0.5 * (m1 + m2),
        "uu": 0.25 * (s1 + 2 * m1 * m2 + s2) + 2 * noise.sigma_e**2,
        "ug": 0.5 * (s1 - s2),
        "gg": s1 - 2 * m1 * m2 + s2,
    }
    for key in want:
        assert got[key] == pytest.approx(want[key], rel=1e-7, abs=1e-9), key


def _producer_input(noise, initial, times):
    """The (chunks, n_nodes, band) the 2D node producer hands to _evaluate."""
    seen = {}

    def record(chunks, n_nodes, band, times, evaluator):
        chunks = list(chunks)
        seen["args"] = (chunks, n_nodes, band)
        at_zero = sum(base + coef.sum() for _, coef, base in chunks)
        return np.full(len(times), at_zero), "direct"

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(disorder, "_evaluate", record)
        disorder_average_quadrature(P, noise, initial, times)
    return seen["args"]


@pytest.mark.parametrize(
    "noise, t_max, wide",
    [
        (NoiseSpec(sigma_e=1.0, sigma_j1=0.5, sigma_j2=0.5), 10.0, True),
        (NoiseSpec(sigma_j1=0.003, sigma_j2=0.003), 400.0, False),  # 28Si-like
    ],
    ids=["wide", "narrow"],
)
def test_binned_evaluator_within_stated_bound(noise, t_max, wide):
    """Linear deposit on bins of phase step s at t_max misses each
    cos(omega t) by at most s^2/8, within the (s^2 / 6) sum |coef| the
    evaluator states, on a band from 0 and on a band that starts well
    above 0."""
    times = np.linspace(0.0, t_max, 801)
    for initial in ("zero", "superposition"):
        chunks, n_nodes, band = _producer_input(noise, initial, times)
        assert (band[0] == 0.0) == wide
        bound = disorder._BIN_PHASE_STEP ** 2 / 6.0 * sum(np.abs(c).sum() for _, c, _ in chunks)
        direct, used_direct = disorder._evaluate(chunks, n_nodes, band, times, "direct")
        binned, used_binned = disorder._evaluate(chunks, n_nodes, band, times, "binned")
        assert (used_direct, used_binned) == ("direct", "binned")
        assert np.max(np.abs(binned - direct)) <= bound


def test_binned_evaluator_bound_is_nearly_attained():
    """One node midway between two bins where cos(omega t_max) = -1 is the
    worst case of a linear deposit, (1 - cos(h / 2)) ~ h^2 / 8 at phase step
    h = d_om t_max; on the 4096-bin grid of this band h = 0.73 of
    _BIN_PHASE_STEP, so the error is 0.4 of the stated bound, and bins of
    twice the width would break it."""
    step = disorder._BIN_PHASE_STEP
    t_max, om_max = 10.0, 3000 * step / 10.0  # below the 4096-bin floor
    d_om = om_max / 4096
    omega = np.array([(round(math.pi / (d_om * t_max) - 0.5) + 0.5) * d_om])
    times = np.linspace(0.0, t_max, 2001)
    chunks = [(omega, np.ones(1), 0.0)]
    direct, _ = disorder._evaluate(chunks, 1, (0.0, om_max), times, "direct")
    binned, _ = disorder._evaluate(chunks, 1, (0.0, om_max), times, "binned")
    error = np.max(np.abs(binned - direct))
    assert 0.3 * step**2 / 6.0 <= error <= step**2 / 6.0


def test_frequency_outside_band_is_numerical_error():
    """A node frequency outside the producer's band would be deposited past
    the bins; both evaluators refuse it and name it and the band."""
    times = np.linspace(0.0, 10.0, 21)
    for omega in (0.1, 2.0, np.nan):
        chunks = [(np.array([0.7, omega]), np.ones(2), 0.0)]
        for evaluator in ("direct", "binned"):
            with pytest.raises(NumericalError) as info:
                disorder._evaluate(chunks, 2, (0.5, 1.25), times, evaluator)
            message = str(info.value)
            assert all(s in message for s in (repr(omega), "0.5", "1.25")), message


def test_evaluator_choice_follows_cost():
    """28Si at 3 neV (2,750 nodes x 20,001 times) sums directly, which is
    about 2x faster than binning; sigma_e = 1, sigma_j = 0.5 at t_max 100
    (331,614 nodes x 4,001 times) bins, about 6x faster than the direct sum."""
    narrow = NoiseSpec(sigma_j1=0.003, sigma_j2=0.003)
    trace = disorder_average_quadrature(P, narrow, "zero", suggested_time_grid(narrow, P))
    assert trace.metadata["evaluator"] == "direct"
    wide = NoiseSpec(sigma_e=1.0, sigma_j1=0.5, sigma_j2=0.5)
    trace = disorder_average_quadrature(P, wide, "zero", np.linspace(0.0, 100.0, 4001))
    assert trace.metadata["evaluator"] == "binned"


def test_direct_evaluator_matches_cos_matrix():
    """The blocked two-GEMM direct sum equals coef @ cos(outer(omega, t))."""
    times = np.linspace(0.0, 80.0, 203)  # 15 blocks of 14, the last one ragged
    noise = NoiseSpec(sigma_e=0.3, sigma_j1=0.2, sigma_j2=0.1)
    q = QuadratureSpec(n_hermite=31, n_legendre=17, delta_e_rule="legendre")
    x1, w1 = _nodes_coupling(noise.j01, noise.sigma_j1, q)
    x2, w2 = _nodes_coupling(noise.j02, noise.sigma_j2, q)
    xe, we = _nodes_delta_e(noise.sigma_e, q, 1.0)
    j1, j2, de = (g.ravel() for g in np.meshgrid(x1, x2, xe, indexing="ij"))
    w = (w1[:, None, None] * w2[None, :, None] * we[None, None, :]).ravel()
    omega, amp_zero, amp_sup = oscillation_terms(P.j_prime, j1, j2, de)
    cos_matrix = np.cos(np.outer(omega, times))
    for initial, coef, base in (
        ("zero", 0.5 * w * amp_zero, w.sum() - 0.5 * (w * amp_zero).sum()),
        ("superposition", -0.25 * w * amp_sup, 0.5 * w.sum() + 0.25 * (w * amp_sup).sum()),
    ):
        trace = disorder_average_quadrature(P, noise, initial, times, q=q, _evaluator="direct")
        np.testing.assert_allclose(trace.values, base + coef @ cos_matrix, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n, m", [(4098, 401), (301, 1000)])
def test_czt_matches_exact_dft(n, m):
    x = np.random.default_rng(n).normal(size=n).astype(complex)
    theta = 2.4e-3
    exact = np.exp(-1j * theta * np.outer(np.arange(m), np.arange(n))) @ x
    err = np.max(np.abs(_czt(x, m, theta) - exact))
    assert err <= 1e-12 * np.sum(np.abs(x))


def test_czt_keeps_unit_modulus_at_large_size():
    """An impulse at the last of 143,519 bins (28Si at 3 neV) maps to unit-modulus outputs.

    A chirp raised from the complex exp(-i theta) drifts here by about 1e-7.
    """
    x = np.zeros(143_519, dtype=complex)
    x[-1] = 1.0
    y = _czt(x, 20_001, 1e-6)
    assert np.max(np.abs(np.abs(y) - 1.0)) <= 1e-12


def test_hermite_and_legendre_delta_e_rules_agree():
    times = np.linspace(0.0, 30.0, 301)
    noise = NoiseSpec(sigma_e=0.2)
    qh = QuadratureSpec(n_hermite=81, n_legendre=1, delta_e_rule="hermite")
    ql = QuadratureSpec(n_hermite=81, n_legendre=1, delta_e_rule="legendre")
    th = disorder_average_quadrature(P, noise, "zero", times, q=qh)
    tl = disorder_average_quadrature(P, noise, "zero", times, q=ql)
    np.testing.assert_allclose(th.values, tl.values, atol=1e-6)


def test_magnetic_noise_decays_to_steady_state():
    times = np.linspace(0.0, 200.0, 2001)
    trace = disorder_average_quadrature(P, NoiseSpec(sigma_e=0.75), "zero", times)
    late = trace.values[times > 150]
    assert late.mean() < 0.9
    assert late.mean() > 0.5
    early_amp = trace.values[times < 30].max() - trace.values[times < 30].min()
    late_amp = late.max() - late.min()
    assert late_amp < 0.3 * early_amp


def test_dampening_monotone_in_sigma_j_at_late_times():
    """Late-window peak-to-trough amplitude shrinks as charge noise grows."""
    times = np.linspace(0.0, 160.0, 3201)
    window = times >= 140
    for sigma_e in (0.0, 0.1, 0.3):
        amps = []
        for sigma_j in (0.0, 0.05, 0.1, 0.2):
            noise = NoiseSpec(sigma_e=sigma_e, sigma_j1=sigma_j, sigma_j2=sigma_j)
            v = disorder_average_quadrature(P, noise, "zero", times).values[window]
            amps.append(v.max() - v.min())
        # 1e-7 allowance: fully dampened cells sit at the quadrature floor
        assert all(b <= a + 1e-7 for a, b in zip(amps, amps[1:])), amps


def test_dampening_along_sigma_e_only_with_charge_noise_present():
    """With charge noise the sigma_e direction also dampens monotonically;
    without it the late-time amplitude is not monotone in sigma_e (the
    frequency is stationary in delta_e near 0.5, so intermediate widths
    concentrate weight there and revive the late oscillation)."""
    times = np.linspace(0.0, 160.0, 3201)
    window = times >= 140

    def late_amp(sigma_e, sigma_j):
        noise = NoiseSpec(sigma_e=sigma_e, sigma_j1=sigma_j, sigma_j2=sigma_j)
        v = disorder_average_quadrature(P, noise, "zero", times).values[window]
        return v.max() - v.min()

    with_charge = [late_amp(se, 0.05) for se in (0.0, 0.2, 0.5, 0.8)]
    assert all(b <= a + 1e-7 for a, b in zip(with_charge, with_charge[1:])), with_charge
    magnetic_only = [late_amp(se, 0.0) for se in (0.0, 0.2, 0.5, 0.8)]
    assert magnetic_only[2] > magnetic_only[1] + 0.01, magnetic_only


def test_quadrature_matches_mc_within_errors():
    times = np.linspace(0.0, 150.0, 50)
    for se, sj in ((0.1, 0.1), (0.5, 0.0), (0.3, 0.2)):
        noise = NoiseSpec(sigma_e=se, sigma_j1=sj, sigma_j2=sj)
        for initial in ("zero", "superposition"):
            q = disorder_average_quadrature(P, noise, initial, times)
            m = disorder_average_mc(P, noise, initial, times, 200_000, seed=2024)
            diff = np.abs(q.values - m.values)
            assert np.all(diff <= 3.6 * m.mc_std_errors + 1e-12)


def test_mc_deterministic_and_stderr_present():
    times = np.linspace(0.0, 40.0, 81)
    noise = NoiseSpec(sigma_e=0.2, sigma_j1=0.1, sigma_j2=0.1)
    a = disorder_average_mc(P, noise, "zero", times, 5000, seed=99)
    b = disorder_average_mc(P, noise, "zero", times, 5000, seed=99)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.mc_std_errors, b.mc_std_errors)
    assert a.mc_std_errors[0] == 0.0
    assert np.all(a.mc_std_errors[1:] > 0.0)
    c = disorder_average_mc(P, noise, "zero", times, 5000, seed=100)
    assert not np.array_equal(a.values, c.values)


def _mc_per_time(noise, initial, times, n_samples, seed):
    """The closed-form probability evaluated at every (sample, time) pair."""
    j1, j2, de = sample_noise(np.random.default_rng(seed), noise, size=n_samples)
    omega, amp_zero, amp_sup = oscillation_terms(P.j_prime, j1, j2, de)
    values = np.empty(len(times))
    errors = np.zeros(len(times))
    for k, t in enumerate(times):
        s2 = np.sin(0.5 * omega * t) ** 2
        probs = 1.0 - amp_zero * s2 if initial == "zero" else 0.5 * (1.0 + amp_sup * s2)
        values[k] = probs.mean()
        if n_samples > 1:
            errors[k] = probs.std(ddof=1) / math.sqrt(n_samples)
    return values, errors


@pytest.mark.parametrize("n_samples", [1, 2047, 2049, 5000])
def test_mc_matches_per_time_reference(n_samples):
    noise = NoiseSpec(sigma_e=0.2, sigma_j1=0.1, sigma_j2=0.1)
    for n_times in (1, 2, 81, 130):
        times = np.linspace(0.0, 60.0, n_times)
        for initial in ("zero", "superposition"):
            trace = disorder_average_mc(P, noise, initial, times, n_samples, seed=17)
            values, errors = _mc_per_time(noise, initial, times, n_samples, 17)
            np.testing.assert_allclose(trace.values, values, rtol=0, atol=1e-14)
            np.testing.assert_allclose(trace.mc_std_errors, errors, rtol=1e-10, atol=0)
            assert trace.mc_std_errors[0] == 0.0


def test_mc_single_sample_zero_noise_is_closed_form():
    times = np.linspace(0.0, 20.0, 201)
    trace = disorder_average_mc(P, NoiseSpec(), "zero", times, 1, seed=0)
    np.testing.assert_allclose(trace.values, return_probability_zero(P, 0.0, times), atol=1e-14)


def test_trace_metadata_records_quadrature_setup():
    times = np.linspace(0.0, 50.0, 201)
    noise = NoiseSpec(sigma_e=0.2, sigma_j1=0.1, sigma_j2=0.1)
    q = QuadratureSpec(n_hermite=60, n_legendre=41, delta_e_rule="legendre")
    md = disorder_average_quadrature(P, noise, "zero", times, q=q).metadata
    assert md["rule"] == "tensor"
    assert md["evaluator"] in ("direct", "binned")
    assert md["n_nodes"] == md["n_delta_e"] * md["n_j1"] * md["n_j2"]
    assert md["delta_e_rule"] == "legendre"
    assert md["quadrature_spec"] == q

    md = disorder_average_quadrature(P, noise, "zero", times).metadata
    rule = _reduced_rule(noise, 50.0)
    assert md["rule"] == "reduced-2d"
    assert md["evaluator"] == "direct"
    assert md["n_gap"] == rule.n_gap == 41
    assert md["n_u"] == rule.n_u == math.ceil(0.35 * 50.0 * 12.0 * math.sqrt(0.005 + 0.08))
    assert md["n_nodes"] == rule.n_nodes == len(rule.block(slice(None))[0])
    assert "n_delta_e" not in md and "quadrature_spec" not in md

    # 28Si-like noise (sigma_e = 0) runs on the 2D rule too
    silicon = replace(noise, sigma_e=0.0)
    md = disorder_average_quadrature(P, silicon, "zero", times).metadata
    assert md["rule"] == "reduced-2d"
    assert md["n_nodes"] == _reduced_rule(silicon, 50.0).n_nodes


def test_quadrature_rejects_bad_inputs():
    times = np.linspace(0.0, 10.0, 11)
    with pytest.raises(ValueError, match="initial"):
        disorder_average_quadrature(P, NoiseSpec(), "plus", times)
    with pytest.raises(ValueError, match="uniform"):
        disorder_average_quadrature(P, NoiseSpec(), "zero", np.array([0.0, 1.0, 3.0]))
    with pytest.raises(ValueError, match="n_samples"):
        disorder_average_mc(P, NoiseSpec(), "zero", times, 0, seed=1)
