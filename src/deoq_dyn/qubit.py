"""Noise-free quantum mechanics of the double-dot exchange-only qubit.

Three electron spins, two in a left dot and one in a right dot, interact
through Heisenberg exchange (intra-dot j', inter-dot j1 and j2, all in units
of a reference scale j0) under a uniform Zeeman splitting ez.  The logical
qubit lives in the S = 1/2, Sz = -1/2 subspace; projecting the three-spin
Hamiltonian onto that subspace gives a 2x2 matrix whose free evolution is
known in closed form.  Everything here is exact, single-realization physics;
disorder averaging lives in :mod:`deoq_dyn.disorder`.

Units: energies in j0, times in hbar/j0, hbar = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT3 = math.sqrt(3.0)

# threshold on eigenvalue splitting below which the propagator switches to
# its analytic degenerate limit, in j0 units
DEGENERACY_THRESHOLD = 1e-9

_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_ID2 = np.eye(2)


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ExchangeParams:
    """Exchange couplings and Zeeman energy, all in units of j0.

    j_prime couples the two spins sharing the left dot, j1 and j2 couple
    each of them to the right-dot spin.  Superexchange through the barrier
    keeps j1 and j2 non-negative.
    """

    j_prime: float = 0.5
    j1: float = 0.5
    j2: float = 1.5
    ez: float = 10.0

    def __post_init__(self) -> None:
        for name in ("j_prime", "j1", "j2", "ez"):
            _check_finite(name, getattr(self, name))
        if self.j1 < 0:
            raise ValueError(f"j1 must be >= 0, got {self.j1}")
        if self.j2 < 0:
            raise ValueError(f"j2 must be >= 0, got {self.j2}")


def logical_basis_vectors() -> tuple[np.ndarray, np.ndarray]:
    """Return the logical |0> and |1> as 8-component spin-product vectors.

    Basis ordering is tensor order (spin1, spin2, spin3) with up = index 0,
    so product state |s1 s2 s3> sits at index 4*b1 + 2*b2 + b3 where b = 0
    for up and 1 for down.  |0> pairs the left-dot spins in a singlet with
    the right spin down; |1> is the orthogonal Sz = -1/2 partner built from
    the left-dot triplet.
    """
    zero = np.zeros(8, dtype=complex)
    one = np.zeros(8, dtype=complex)
    # |up down down> -> 3, |down up down> -> 5, |down down up> -> 6
    zero[3] = 1.0 / math.sqrt(2.0)
    zero[5] = -1.0 / math.sqrt(2.0)
    one[3] = 1.0 / math.sqrt(6.0)
    one[5] = 1.0 / math.sqrt(6.0)
    one[6] = -math.sqrt(2.0 / 3.0)
    return zero, one


def _pair_exchange(i: int, j: int) -> np.ndarray:
    """sigma_i . sigma_j on the three-spin product space."""
    out = np.zeros((8, 8), dtype=complex)
    for pauli in (_SIGMA_X, _SIGMA_Y, _SIGMA_Z):
        ops = [_ID2, _ID2, _ID2]
        ops[i] = pauli
        ops[j] = pauli
        out += np.kron(np.kron(ops[0], ops[1]), ops[2])
    return out


def build_full_hamiltonian(p: ExchangeParams) -> np.ndarray:
    """Three-spin Hamiltonian on the full 8-dimensional product space.

    H = (ez/2) sum_i sigma_i^z + (j'/4) sigma_1.sigma_2
        + (j1/4) sigma_1.sigma_3 + (j2/4) sigma_2.sigma_3
    """
    h = np.zeros((8, 8), dtype=complex)
    for i in range(3):
        ops = [_ID2, _ID2, _ID2]
        ops[i] = _SIGMA_Z
        h += 0.5 * p.ez * np.kron(np.kron(ops[0], ops[1]), ops[2])
    h += 0.25 * p.j_prime * _pair_exchange(0, 1)
    h += 0.25 * p.j1 * _pair_exchange(0, 2)
    h += 0.25 * p.j2 * _pair_exchange(1, 2)
    return h


def build_logical_hamiltonian(p: ExchangeParams, delta_e: float = 0.0) -> np.ndarray:
    """Two-level Hamiltonian in the logical basis, with field-gradient shift.

    delta_e is a quasi-static dot-to-dot Zeeman asymmetry; it is diagonal in
    the logical basis and enters antisymmetrically as -delta_e/2 on the |0>
    diagonal and +delta_e/2 on the |1> diagonal.

    Parameters
    ----------
    p : ExchangeParams
    delta_e : float
        Field-gradient energy in j0 units.

    Returns
    -------
    (2, 2) complex ndarray, Hermitian.
    """
    delta_e = _check_finite("delta_e", delta_e)
    off = -SQRT3 * (p.j1 - p.j2) / 4.0
    h00 = -p.ez / 2.0 - 3.0 * p.j_prime / 4.0 - delta_e / 2.0
    h11 = -p.ez / 2.0 + p.j_prime / 4.0 - (p.j1 + p.j2) / 2.0 + delta_e / 2.0
    return np.array([[h00, off], [off, h11]], dtype=complex)


def oscillation_terms(j_prime, j1, j2, delta_e):
    """Vectorized oscillation frequency and amplitudes of both return probabilities.

    Accepts scalars or broadcastable arrays.  With detuning d = j' - (j1 + j2)/2
    + delta_e and coupling c = sqrt(3) (j1 - j2)/4, omega = sqrt(d^2 + 4 c^2),
    amp_zero = 4 c^2 / omega^2 and amp_sup = 4 c d / omega^2; the zero-state
    return probability is
    1 - amp_zero * sin^2(omega t / 2) and the balanced-superposition one is
    (1 + amp_sup * sin^2(omega t / 2)) / 2.  Both amplitudes are defined as 0
    at the degenerate point omega = 0, where the probabilities are constant.
    """
    d = np.asarray(j_prime) - 0.5 * (np.asarray(j1) + np.asarray(j2)) + np.asarray(delta_e)
    c = (SQRT3 / 4.0) * (np.asarray(j1) - np.asarray(j2))
    om2 = d * d + 4.0 * c * c
    omega = np.sqrt(om2)
    safe = np.where(om2 > 0.0, om2, 1.0)
    amp_zero = np.where(om2 > 0.0, 4.0 * c * c / safe, 0.0)
    amp_sup = np.where(om2 > 0.0, 4.0 * c * d / safe, 0.0)
    return omega, amp_zero, amp_sup


def _validate_hermitian(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if h.shape != (2, 2):
        raise ValueError(f"hamiltonian must be 2x2, got shape {h.shape}")
    if not np.all(np.isfinite(h.view(float))):
        raise ValueError("hamiltonian entries must be finite")
    if np.max(np.abs(h - h.conj().T)) > 1e-12:
        raise ValueError("hamiltonian must be Hermitian within 1e-12")
    return h


def propagator(h: np.ndarray, t: float) -> np.ndarray:
    """Evolution operator U(t) = exp(-i H t) for a 2x2 Hermitian H.

    Uses the Cayley-Hamilton closed form
    U = e^{l1 t} I + (e^{l1 t} - e^{l2 t})/(l1 - l2) (-iH - l1 I)
    with l_k = -i E_k, switching to the first-order limit
    U = e^{l1 t} (I + t(-iH - l1 I)) when the splitting |E1 - E2| falls
    below DEGENERACY_THRESHOLD to avoid catastrophic cancellation.
    """
    h = _validate_hermitian(h)
    t = _check_finite("t", t)
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    mean = 0.5 * (h[0, 0].real + h[1, 1].real)
    half = math.hypot(0.5 * (h[0, 0].real - h[1, 1].real), abs(h[0, 1]))
    e1 = mean + half
    e2 = mean - half
    lam1 = -1j * e1
    lam2 = -1j * e2
    n1 = -1j * h - lam1 * np.eye(2)
    if abs(e1 - e2) < DEGENERACY_THRESHOLD:
        return np.exp(lam1 * t) * (np.eye(2) + t * n1)
    factor = (np.exp(lam1 * t) - np.exp(lam2 * t)) / (lam1 - lam2)
    return np.exp(lam1 * t) * np.eye(2) + factor * n1


def evolve(psi0: np.ndarray, h: np.ndarray, t: float) -> np.ndarray:
    """Apply the free propagator to a normalized logical state."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (2,):
        raise ValueError(f"state must have 2 amplitudes, got shape {psi0.shape}")
    norm = abs(psi0[0]) ** 2 + abs(psi0[1]) ** 2
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state must be normalized, |psi|^2 = {norm:.3e}")
    return propagator(h, t) @ psi0


def return_probability_zero(p: ExchangeParams, delta_e: float, t) -> np.ndarray:
    """Probability of remaining in |0> after free evolution from |0>.

    P = 1 - (4 c^2 / omega^2) sin^2(omega t / 2) (see oscillation_terms);
    exactly 1 for all t when omega = 0.  t may be a scalar or array.
    """
    omega, amp_zero, _ = oscillation_terms(p.j_prime, p.j1, p.j2, _check_finite("delta_e", delta_e))
    out = 1.0 - amp_zero * np.sin(0.5 * omega * np.asarray(t, dtype=float)) ** 2
    return float(out) if np.ndim(t) == 0 else out


def return_probability_superposition(p: ExchangeParams, delta_e: float, t) -> np.ndarray:
    """Return probability for the balanced superposition (|0> + |1>)/sqrt(2).

    P = (1 + (4 c d / omega^2) sin^2(omega t / 2)) / 2; exactly 1/2 when
    omega = 0.
    """
    omega, _, amp_sup = oscillation_terms(p.j_prime, p.j1, p.j2, _check_finite("delta_e", delta_e))
    out = 0.5 * (1.0 + amp_sup * np.sin(0.5 * omega * np.asarray(t, dtype=float)) ** 2)
    return float(out) if np.ndim(t) == 0 else out
