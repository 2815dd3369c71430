"""Closed-form two-level dynamics against independent linear-algebra oracles."""

import math

import numpy as np
import pytest
import scipy.linalg

from deoq_dyn.qubit import (
    ExchangeParams,
    build_full_hamiltonian,
    build_logical_hamiltonian,
    evolve,
    logical_basis_vectors,
    oscillation_terms,
    propagator,
    return_probability_superposition,
    return_probability_zero,
)

SQRT2 = math.sqrt(2.0)
SQRT6 = math.sqrt(6.0)


def random_params(rng):
    return ExchangeParams(
        j_prime=rng.uniform(-2, 2),
        j1=rng.uniform(0, 3),
        j2=rng.uniform(0, 3),
        ez=rng.uniform(0, 20),
    )


def test_logical_basis_components():
    zero, one = logical_basis_vectors()
    assert zero.shape == (8,) and one.shape == (8,)
    expected_zero = np.zeros(8)
    expected_zero[3] = 1 / SQRT2
    expected_zero[5] = -1 / SQRT2
    expected_one = np.zeros(8)
    expected_one[3] = 1 / SQRT6
    expected_one[5] = 1 / SQRT6
    expected_one[6] = -math.sqrt(2.0 / 3.0)
    np.testing.assert_allclose(zero, expected_zero, atol=1e-15)
    np.testing.assert_allclose(one, expected_one, atol=1e-15)


def test_logical_basis_orthonormal():
    zero, one = logical_basis_vectors()
    assert abs(np.dot(zero, zero) - 1) < 1e-14
    assert abs(np.dot(one, one) - 1) < 1e-14
    assert abs(np.dot(zero, one)) < 1e-14


def test_full_hamiltonian_shape_and_symmetry():
    h = build_full_hamiltonian(ExchangeParams())
    assert h.shape == (8, 8)
    np.testing.assert_allclose(h, h.T.conj(), atol=1e-14)
    assert np.max(np.abs(h.imag)) == 0.0


def test_projection_matches_logical_hamiltonian():
    """Projecting the three-spin Hamiltonian onto the logical pair
    reproduces the closed-form 2x2 matrix entrywise."""
    rng = np.random.default_rng(11)
    zero, one = logical_basis_vectors()
    basis = np.column_stack([zero, one])
    for _ in range(100):
        p = random_params(rng)
        full = build_full_hamiltonian(p)
        projected = basis.T @ full @ basis
        # delta_e enters the logical matrix only, as the field-gradient term
        np.testing.assert_allclose(
            projected, build_logical_hamiltonian(p, 0.0), atol=1e-12
        )


def test_logical_hamiltonian_default_entries():
    h = build_logical_hamiltonian(ExchangeParams(), 0.0)
    expected = np.array([[-5.375, 0.43301270189221935],
                         [0.43301270189221935, -5.875]])
    np.testing.assert_allclose(h, expected, atol=1e-15)


def test_logical_hamiltonian_delta_e_shift():
    p = ExchangeParams()
    h0 = build_logical_hamiltonian(p, 0.0)
    h = build_logical_hamiltonian(p, 0.4)
    np.testing.assert_allclose(h - h0, np.diag([-0.2, 0.2]), atol=1e-15)


def _propagator_oracle(h, t):
    evals, vecs = scipy.linalg.eigh(h)
    return vecs @ np.diag(np.exp(-1j * evals * t)) @ vecs.conj().T


def test_propagator_matches_eigendecomposition():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(500):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = (z + z.conj().T) / 2
        t = rng.uniform(0, 50)
        u = propagator(h, t)
        worst = max(worst, np.max(np.abs(u - _propagator_oracle(h, t))))
    assert worst < 1e-10


def test_propagator_unitary():
    rng = np.random.default_rng(8)
    for _ in range(200):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = (z + z.conj().T) / 2
        u = propagator(h, rng.uniform(0, 100))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_propagator_degenerate_spectrum():
    # equal eigenvalues: the generic formula divides by zero, the limit holds
    h = 0.7 * np.eye(2)
    u = propagator(h, 3.0)
    np.testing.assert_allclose(u, np.exp(-1j * 0.7 * 3.0) * np.eye(2), atol=1e-14)
    h2 = np.array([[1.0, 1e-13], [1e-13, 1.0]])
    np.testing.assert_allclose(propagator(h2, 5.0), _propagator_oracle(h2, 5.0), atol=1e-11)


def test_propagator_identity_at_t_zero():
    h = build_logical_hamiltonian(ExchangeParams(), 0.1)
    np.testing.assert_allclose(propagator(h, 0.0), np.eye(2), atol=1e-15)


def test_propagator_rejects_bad_input():
    with pytest.raises(ValueError):
        propagator(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
    with pytest.raises(ValueError):
        propagator(np.eye(2), -0.5)
    with pytest.raises(ValueError):
        propagator(np.eye(3), 1.0)


def test_evolve_preserves_norm():
    rng = np.random.default_rng(9)
    h = build_logical_hamiltonian(ExchangeParams(), 0.3)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    out = evolve(psi, h, 17.0)
    assert abs(np.linalg.norm(out) - 1) < 1e-12


def test_evolve_matches_closed_form_probabilities():
    """|amplitude|^2 from explicit evolution equals the closed forms for
    both initial conditions across random noise draws."""
    rng = np.random.default_rng(21)
    p = ExchangeParams()
    zero = np.array([1.0, 0.0], dtype=complex)
    plus = np.array([1.0, 1.0], dtype=complex) / SQRT2
    ts = np.linspace(0.0, 40.0, 101)
    for _ in range(50):
        j1 = abs(rng.normal(0.5, 0.3))
        j2 = abs(rng.normal(1.5, 0.3))
        de = rng.normal(0.0, 0.5)
        pn = ExchangeParams(j_prime=p.j_prime, j1=j1, j2=j2, ez=p.ez)
        h = build_logical_hamiltonian(pn, de)
        for t in ts[::10]:
            psi_t = evolve(zero, h, t)
            assert abs(abs(psi_t[0]) ** 2 - return_probability_zero(pn, de, t)) < 1e-10
            # the observable is the reference-state population, for both inits
            phi_t = evolve(plus, h, t)
            assert abs(abs(phi_t[0]) ** 2 - return_probability_superposition(pn, de, t)) < 1e-10


def test_zero_state_oscillation_extremes():
    p = ExchangeParams()
    assert return_probability_zero(p, 0.0, 0.0) == pytest.approx(1.0, abs=1e-9)
    assert return_probability_zero(p, 0.0, math.pi) == pytest.approx(0.25, abs=1e-9)
    assert return_probability_zero(p, 0.0, 2 * math.pi) == pytest.approx(1.0, abs=1e-9)
    # period 2*pi at the default working point (beta = 1/2)
    ts = np.linspace(0.0, 20.0, 301)
    np.testing.assert_allclose(
        return_probability_zero(p, 0.0, ts),
        return_probability_zero(p, 0.0, ts + 2 * math.pi),
        atol=1e-9,
    )


def test_superposition_oscillation_extremes():
    p = ExchangeParams()
    assert return_probability_superposition(p, 0.0, 0.0) == pytest.approx(0.5, abs=1e-9)
    assert return_probability_superposition(p, 0.0, math.pi) == pytest.approx(
        0.9330127018922193, abs=1e-9
    )


def test_frequency_degenerate_point_is_stationary():
    # j1 = j2 with delta_e = (j1+j2)/2 - j_prime zeroes both c and d
    p = ExchangeParams(j_prime=0.5, j1=1.0, j2=1.0, ez=10.0)
    de = 0.5
    for t in (0.0, 1.0, 17.3, 200.0):
        assert return_probability_zero(p, de, t) == 1.0
        assert return_probability_superposition(p, de, t) == 0.5


def test_probabilities_stay_in_unit_interval():
    rng = np.random.default_rng(4)
    ts = np.linspace(0.0, 100.0, 257)
    for _ in range(100):
        p = random_params(rng)
        de = rng.normal(0, 2)
        pz = return_probability_zero(p, de, ts)
        ps = return_probability_superposition(p, de, ts)
        assert np.all((pz >= -1e-12) & (pz <= 1 + 1e-12))
        assert np.all((ps >= -1e-12) & (ps <= 1 + 1e-12))


def test_oscillation_terms_consistent_with_coefficients():
    """omega and both amplitudes against the logical Hamiltonian's eigensystem.

    omega is the eigenvalue splitting.  With eigenvectors v_k, the zero-state
    amplitude is 4 |v_0[0]|^2 |v_1[0]|^2 and, writing a_k = v_k[0] <v_k|+>
    for |+> = (|0> + |1>)/sqrt(2), the superposition one is -8 a_0 a_1 (both
    are products that do not depend on the eigenvectors' signs).
    """
    rng = np.random.default_rng(5)
    plus = np.array([1.0, 1.0]) / SQRT2
    for _ in range(50):
        p = random_params(rng)
        de = rng.normal(0, 1)
        omega, amp_zero, amp_sup = oscillation_terms(p.j_prime, p.j1, p.j2, de)
        h = build_logical_hamiltonian(p, de).real
        # subtracting the mean energy keeps the rounding relative to the splitting
        h = h - 0.5 * np.trace(h) * np.eye(2)
        e0, e1 = np.linalg.eigvalsh(h)
        assert omega == pytest.approx(e1 - e0, rel=1e-12, abs=1e-15)
        if omega > 1e-12:
            v0, v1 = np.linalg.eigh(h)[1].T
            a0, a1 = v0[0] * (v0 @ plus), v1[0] * (v1 @ plus)
            assert amp_zero == pytest.approx(4 * v0[0] ** 2 * v1[0] ** 2, rel=1e-10, abs=1e-12)
            assert amp_sup == pytest.approx(-8 * a0 * a1, rel=1e-10, abs=1e-12)


def test_oscillation_terms_degenerate_amplitudes_vanish():
    omega, amp_zero, amp_sup = oscillation_terms(0.5, 1.0, 1.0, 0.5)
    assert omega == 0.0
    assert amp_zero == 0.0
    assert amp_sup == 0.0


def test_exchange_params_validation():
    with pytest.raises(ValueError):
        ExchangeParams(j1=-0.1)
    with pytest.raises(ValueError):
        ExchangeParams(j2=float("nan"))
    with pytest.raises(ValueError):
        ExchangeParams(ez=float("inf"))
