"""Property tests over random noise (hypothesis)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from deoq_dyn import disorder  # noqa: E402
from deoq_dyn.analysis import fit_envelope  # noqa: E402
from deoq_dyn.disorder import (  # noqa: E402
    NoiseSpec,
    QuadratureSpec,
    disorder_average_quadrature,
)
from deoq_dyn.qubit import ExchangeParams  # noqa: E402

P = ExchangeParams()
TIMES = np.linspace(0.0, 15.0, 61)

# the tensor rule at more than twice the counts any drawn case needs at
# 0.35 nodes per radian of phase span (45 in delta_e for sigma_e = 0.5, 41
# per coupling)
REFERENCE = QuadratureSpec(n_hermite=96, n_legendre=96, delta_e_rule="legendre")


def width(lo, hi):
    """An exact 0, the zero-width limit of the 2D rule, or a float width."""
    return st.one_of(st.just(0.0), st.floats(lo, hi))


@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(
    sigma_e=width(0.005, 0.5),
    sigma_j1=width(0.02, 0.4),
    sigma_j2=width(0.02, 0.4),
    j01=st.floats(0.0, 2.0),
    j02=st.floats(0.0, 2.0),
    initial=st.sampled_from(["zero", "superposition"]),
)
def test_reduced_rule_equals_tensor_rule(sigma_e, sigma_j1, sigma_j2, j01, j02, initial):
    """The 2D route and a finer 3D tensor rule compute the same average."""
    noise = NoiseSpec(sigma_e, sigma_j1, sigma_j2, j01, j02)
    reduced = disorder_average_quadrature(P, noise, initial, TIMES, _evaluator="direct")
    tensor = disorder_average_quadrature(P, noise, initial, TIMES, q=REFERENCE, _evaluator="direct")
    assert reduced.metadata["rule"] == "reduced-2d"
    np.testing.assert_allclose(reduced.values, tensor.values, rtol=0, atol=1e-7)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(
    sigma_e=width(0.005, 0.5),
    sigma_j1=width(0.02, 0.4),
    sigma_j2=width(0.02, 0.4),
    j01=st.floats(0.0, 2.0),
    j02=st.floats(0.0, 2.0),
)
def test_reduced_rule_label_swap_keeps_zero_state(sigma_e, sigma_j1, sigma_j2, j01, j02):
    """The zero-state probability depends on the couplings through
    (j1 - j2)^2 and j1 + j2 only, so swapping (j01, sigma_j1) with
    (j02, sigma_j2) mirrors the gap and leaves the average unchanged; a zero
    width maps kappa = 1/2 onto kappa = -1/2."""
    a = NoiseSpec(sigma_e, sigma_j1, sigma_j2, j01, j02)
    b = NoiseSpec(sigma_e, sigma_j2, sigma_j1, j02, j01)
    ta = disorder_average_quadrature(P, a, "zero", TIMES, _evaluator="direct")
    tb = disorder_average_quadrature(P, b, "zero", TIMES, _evaluator="direct")
    np.testing.assert_allclose(ta.values, tb.values, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    sigma_e=width(0.005, 0.5),
    sigma_j1=width(0.002, 0.4),
    sigma_j2=width(0.002, 0.4),
    j01=st.floats(0.0, 2.0),
    j02=st.floats(0.0, 2.0),
    j_prime=st.floats(0.0, 2.0),
    t_max=st.floats(0.5, 200.0),
    q=st.one_of(st.none(), st.builds(
        QuadratureSpec,
        n_hermite=st.integers(1, 40),
        n_legendre=st.integers(1, 40),
        truncation_width=st.floats(0.5, 8.0),
        delta_e_rule=st.sampled_from(["hermite", "legendre"]),
    )),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_band_brackets_every_node_frequency(sigma_e, sigma_j1, sigma_j2, j01, j02, j_prime, t_max, q, sign):
    """The band a node producer derives from its detuning and gap ranges
    holds the frequency of every node of the 2D rule (q=None) or of an
    explicit tensor rule."""
    noise = NoiseSpec(sigma_e, sigma_j1, sigma_j2, j01, j02)
    params = ExchangeParams(j_prime=j_prime)
    bands, omegas = [], []

    def record(chunks, n_nodes, band, times, evaluator):
        chunks = list(chunks)
        bands.append(band)
        omegas.extend(omega for omega, _, _ in chunks)
        at_zero = sum(base + coef.sum() for _, coef, base in chunks)
        return np.full(len(times), at_zero), "direct"

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(disorder, "_evaluate", record)
        disorder_average_quadrature(params, noise, "zero", np.linspace(0.0, t_max, 3), q=q,
                                    _delta_e_sign=sign)
    (om_lo, om_max), omega = bands[0], np.concatenate(omegas)
    assert 0.0 <= om_lo <= omega.min() and omega.max() <= om_max


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(
    t2=st.floats(2.0, 60.0),
    alpha=st.floats(0.6, 3.5),
    p_inf=st.floats(0.0, 0.7),
    wobble=st.floats(0.0, 0.02),
    log_k=st.floats(-3.0, 3.0),
    pinned=st.booleans(),
)
def test_fit_is_scale_covariant(t2, alpha, p_inf, wobble, log_k, pinned):
    """Scaling the times and t_max by k scales T2* by k and leaves alpha alone.

    The wobble moves the optimum off the generating parameters, so the two
    fits must find the same minimum, not just the exact curve.
    """
    times = np.linspace(0.0, 100.0, 40)
    values = p_inf + (1.0 - p_inf) * np.exp(-((times / t2) ** alpha))
    values += wobble * np.cos(1.7 * np.arange(40))
    fixed = 1.0 if pinned else None
    k = 10.0 ** log_k
    base = fit_envelope(np.column_stack([times, values]), fixed_start=fixed, t_max=100.0)
    scaled = fit_envelope(np.column_stack([k * times, values]), fixed_start=fixed, t_max=k * 100.0)
    assert scaled.status == base.status == "converged"
    assert scaled.t2_star == pytest.approx(k * base.t2_star, rel=1e-6)
    assert scaled.alpha == pytest.approx(base.alpha, abs=1e-6)
