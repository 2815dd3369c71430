"""Quasi-static disorder averaging of the qubit return probabilities.

The dot-to-dot field gradient delta_e carries a zero-mean Gaussian of
standard deviation sqrt(2) sigma_e, and each inter-dot exchange coupling j_i
carries a Gaussian of width sigma_ji truncated to j_i >= 0 around mean j0i.
The observable is the ensemble average of the closed-form return
probability.  Two independent routes compute it:

* deterministic quadrature, and
* a Monte Carlo estimator with per-point standard errors, used as an oracle.

The probability depends on the couplings and the gradient only through the
detuning d = j' - (j1 + j2)/2 + delta_e and the gap j1 - j2.  With no
explicit QuadratureSpec, the quadrature therefore integrates (j1 + j2)/2 and
delta_e analytically and runs a 2D Gauss-Legendre rule over the gap and the
detuning under a closed-form extended skew-normal weight
(``_reduced_rule``); zero widths are limits of that weight.  An explicit
QuadratureSpec keeps the tensor rule (Gauss-Hermite or pdf-weighted
Gauss-Legendre in delta_e, pdf-weighted Gauss-Legendre per coupling), which
also serves the tests as the reference for the reduction.  Both node
producers hand (omega, coef, base) to one evaluator, ``_evaluate``, with a
band (om_lo, om_max) that ``_band`` derives from their detuning and gap
ranges and that holds every node frequency.

The evaluator sums either directly (exact up to rounding) or binned: a
linear-interpolation type-1 NUFFT (Dutt & Rokhlin 1993) that deposits the
coefficients on the bins of a frequency grid that the band occupies, sums
them by a Bluestein chirp-z transform relative to the band's first bin and
shifts the result back by that bin's frequency, with an error of at most
(_BIN_PHASE_STEP^2 / 6) sum |coef|.  A cost model fitted to the two paths
picks the cheaper one per average; a tie goes to the direct sum.

The direct quadrature sum and the Monte Carlo average use that the grid is
uniform and starts at 0: writing t = (b R + r) dt with R = isqrt(n_times),
cos(omega t) and sin(omega t / 2) follow by angle addition from
O(sqrt(n_times)) trigonometric evaluations per node or sample instead of
n_times of them.

Because the integrand oscillates as cos(omega(x) t), the node count a
dimension needs grows linearly with the phase span t_max * d(omega)/dx *
range(x); the 2D rule sizes its counts that way.  Fixed-size specs are kept
for small problems and for reproducing the plain-rule behavior.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.special
from scipy.fft import fft, ifft, next_fast_len
from scipy.special import roots_hermite

from .qubit import ExchangeParams, oscillation_terms

# phase step per frequency bin of the binned evaluator; the linear-deposit
# error is bounded by (step)^2/6 ~ 1e-6 of the summed |coef|
_BIN_PHASE_STEP = 2.4e-3

# evaluator cost model, in seconds, fitted on a 2-core x86-64 host (numpy
# 2.4.6 on OpenBLAS) over the three benchmark workloads and the default sweep
# and material grids: direct costs _COST_DIRECT per node-time product;
# binned costs _COST_FFT per n_fft log2(n_fft) of its Bluestein transform
# plus _COST_DEPOSIT per node
_COST_DIRECT = 9.6e-10
_COST_FFT = 2.7e-8
_COST_DEPOSIT = 1.8e-7

# node-time products per block of the direct sum, to bound its memory
_DIRECT_BLOCK = 2 ** 22

# node-count ceilings: per dimension about 4x what the default sweep grid and
# material presets size on the 2D rule (at most 1,225 nodes in one dimension
# and 1.21 M in all), so that rule stays under 2.5e7 nodes; the total bounds
# explicit tensor specs
_MAX_DIM_NODES = 5_000
_MAX_TENSOR_NODES = 500_000_000

# Gauss-Legendre nodes per radian of phase span t_max * range: the averaged
# trace sums cos(omega(x) t) with |d(omega)/dx| <= 1 in j0 units, and
# Gauss-Legendre resolves such oscillations once nodes exceed about 0.3 per
# radian (measured cliff); 0.35 adds margin
_NODES_PER_RADIAN = 0.35

# Gauss-Legendre nodes per panel of the reduced 2D rule: at least 16, which
# integrate a normal CDF across 6 standard deviations to 1e-15, and 8 more
# than the panel's share of the phase span, since a short panel at 0.35 nodes
# per radian sits on the resolution cliff (with 8, doubling the counts moves
# no point by more than 1e-10 at t_max from 10 to 100; with 0, by 2e-6)
_PANEL_MIN = 16
_PANEL_MARGIN = 8

# nodes per block of the reduced 2D average, to bound its memory
_BLOCK_NODES = 2 ** 20

# Monte Carlo samples per chunk; each chunk's moments merge into the total
_MC_CHUNK = 2048


class NumericalError(RuntimeError):
    """An average left its valid range: a fault of the method, not of the input."""


@dataclass(frozen=True)
class NoiseSpec:
    """Widths and means of the quasi-static noise distributions (j0 units).

    sigma_e parameterizes the field-gradient Gaussian (its standard
    deviation is sqrt(2) sigma_e); sigma_j1, sigma_j2 are the widths of the
    truncated Gaussians around means j01, j02.
    """

    sigma_e: float = 0.0
    sigma_j1: float = 0.0
    sigma_j2: float = 0.0
    j01: float = 0.5
    j02: float = 1.5

    def __post_init__(self) -> None:
        for name in ("sigma_e", "sigma_j1", "sigma_j2", "j01", "j02"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and truncation for the tensor quadrature.

    n_hermite counts the delta_e nodes, n_legendre the nodes per exchange
    coupling, truncation_width the half-range of each truncated dimension in
    units of that dimension's standard deviation.  delta_e_rule selects the
    delta_e rule: "hermite" uses Gauss-Hermite in u = delta_e/(2 sigma_e)
    (whose weight matches the gradient pdf exactly), "legendre" uses a
    pdf-weighted Gauss-Legendre rule, which tracks oscillatory integrands
    with far fewer nodes at large t_max * sigma_e.
    """

    n_hermite: int = 21
    n_legendre: int = 41
    truncation_width: float = 6.0
    delta_e_rule: str = "hermite"

    def __post_init__(self) -> None:
        if int(self.n_hermite) < 1 or int(self.n_hermite) != self.n_hermite:
            raise ValueError(f"n_hermite must be an integer >= 1, got {self.n_hermite!r}")
        if int(self.n_legendre) < 1 or int(self.n_legendre) != self.n_legendre:
            raise ValueError(f"n_legendre must be an integer >= 1, got {self.n_legendre!r}")
        if not (math.isfinite(self.truncation_width) and self.truncation_width > 0):
            raise ValueError(f"truncation_width must be > 0, got {self.truncation_width!r}")
        if self.delta_e_rule not in ("hermite", "legendre"):
            raise ValueError(f"delta_e_rule must be 'hermite' or 'legendre', got {self.delta_e_rule!r}")


@dataclass(frozen=True)
class ProbabilityTrace:
    """Disorder-averaged return probability on a uniform time grid."""

    times: np.ndarray
    values: np.ndarray
    initial: str
    method: str
    params: ExchangeParams
    noise: NoiseSpec
    mc_std_errors: Optional[np.ndarray] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        _validate_times(times)
        if values.shape != times.shape:
            raise ValueError("values and times must have the same shape")
        if not (np.all(np.isfinite(values)) and values.min() >= 0.0 and values.max() <= 1.0):
            raise ValueError("probabilities must be finite and lie in [0, 1]")
        if self.initial not in ("zero", "superposition"):
            raise ValueError(f"initial must be 'zero' or 'superposition', got {self.initial!r}")
        expected0 = 1.0 if self.initial == "zero" else 0.5
        if abs(values[0] - expected0) > 1e-9:
            raise ValueError(
                f"value at t=0 is {values[0]!r}, expected {expected0} for initial={self.initial!r}"
            )
        if self.mc_std_errors is not None:
            errs = np.asarray(self.mc_std_errors, dtype=float)
            if errs.shape != times.shape:
                raise ValueError("mc_std_errors must match the time grid")
            if not (np.all(np.isfinite(errs)) and errs.min() >= 0.0):
                raise ValueError("mc_std_errors must be finite and >= 0")
            object.__setattr__(self, "mc_std_errors", errs)


def _validate_times(times: np.ndarray) -> None:
    if times.ndim != 1 or len(times) < 1:
        raise ValueError("times must be a 1-d array with at least one point")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if abs(times[0]) > 1e-12:
        raise ValueError(f"time grid must start at 0, got {times[0]!r}")
    if len(times) > 1:
        steps = np.diff(times)
        if steps.min() <= 0:
            raise ValueError("times must be strictly increasing")
        dt = (times[-1] - times[0]) / (len(times) - 1)
        # tolerance admits grids round-tripped through 9-digit CSV output
        if np.max(np.abs(steps - dt)) > 2e-8 * max(dt, abs(times[-1]), 1.0):
            raise ValueError("times must be uniformly spaced")


def _grid_blocks(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offsets r dt (r < R) and block anchors b R dt of a validated grid.

    Point k = b R + r of the grid lies at anchor b plus offset r, with
    R = isqrt(n_times); the last block may run past the end of the grid.
    """
    n = len(times)
    r = math.isqrt(n)
    dt = (times[-1] - times[0]) / (n - 1) if n > 1 else 0.0
    return np.arange(r) * dt, (np.arange(-(-n // r)) * r) * dt


def _czt(x: np.ndarray, m: int, theta: float) -> np.ndarray:
    """Chirp-z transform X_j = sum_k x_k exp(-i theta j k), j < m (Bluestein 1968).

    The chirp exp(-i theta k^2 / 2) is taken from its real phase, so its
    modulus is 1 to rounding at every length; a power of the complex
    exp(-i theta) drifts from 1 in proportion to k^2.
    """
    n = len(x)
    chirp = -0.5j * theta * np.arange(max(m, n)) ** 2
    np.exp(chirp, out=chirp)  # in place: one complex array of max(m, n) at a time, not two
    nfft = _bluestein_length(n, m)
    kernel = fft(np.conj(np.hstack((chirp[n - 1:0:-1], chirp[:m]))), nfft)
    y = ifft(kernel * fft(x * chirp[:n], nfft))
    return y[n - 1:n + m - 1] * chirp[:m]


def _bluestein_length(n: int, m: int) -> int:
    """FFT length of ``_czt`` on n inputs and m outputs."""
    return next_fast_len(n + m - 1)


def pdf_delta_e(delta_e, sigma_e: float):
    """Gaussian density of the field gradient, std sqrt(2) sigma_e.

    f(x) = exp(-x^2 / (4 sigma_e^2)) / (2 sigma_e sqrt(pi)).  sigma_e = 0 is
    a point mass handled by the callers, not a density; it is rejected here.
    """
    if not (math.isfinite(sigma_e) and sigma_e > 0):
        raise ValueError(f"sigma_e must be > 0, got {sigma_e!r}")
    x = np.asarray(delta_e, dtype=float)
    out = np.exp(-x * x / (4.0 * sigma_e * sigma_e)) / (2.0 * sigma_e * math.sqrt(math.pi))
    return float(out) if np.ndim(delta_e) == 0 else out


def pdf_exchange(j, j0i: float, sigma_ji: float):
    """Density of a coupling: Gaussian(j0i, sigma_ji) truncated to j >= 0.

    The normalization 2 / (1 + erf(j0i / (sigma sqrt(2)))) restores unit mass
    after discarding the negative tail; the density is 0 for j < 0.
    """
    if not (math.isfinite(sigma_ji) and sigma_ji > 0):
        raise ValueError(f"sigma_ji must be > 0, got {sigma_ji!r}")
    if not (math.isfinite(j0i) and j0i >= 0):
        raise ValueError(f"j0i must be >= 0, got {j0i!r}")
    x = np.asarray(j, dtype=float)
    norm = 2.0 / (1.0 + scipy.special.erf(j0i / (sigma_ji * math.sqrt(2.0))))
    gauss = np.exp(-((x - j0i) ** 2) / (2.0 * sigma_ji * sigma_ji)) / (sigma_ji * math.sqrt(2.0 * math.pi))
    out = np.where(x >= 0.0, norm * gauss, 0.0)
    return float(out) if np.ndim(j) == 0 else out


def sample_noise(rng, spec: NoiseSpec, size: Optional[int] = None):
    """Draw (j1, j2, delta_e) from the noise distributions.

    Couplings use rejection of negative draws, which samples the truncated
    Gaussian exactly (acceptance >= 1/2 for any j0i >= 0).  ``rng`` is a
    numpy Generator or a seed for ``numpy.random.default_rng``.  With
    ``size=None`` returns three floats, otherwise three arrays.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    n = 1 if size is None else int(size)
    if n < 1:
        raise ValueError(f"size must be >= 1, got {size!r}")

    def truncated(j0, sigma):
        if sigma == 0.0:
            return np.full(n, j0)
        out = rng.normal(j0, sigma, n)
        bad = out < 0.0
        while bad.any():
            out[bad] = rng.normal(j0, sigma, int(bad.sum()))
            bad = out < 0.0
        return out

    j1 = truncated(spec.j01, spec.sigma_j1)
    j2 = truncated(spec.j02, spec.sigma_j2)
    if spec.sigma_e == 0.0:
        delta_e = np.zeros(n)
    else:
        delta_e = rng.normal(0.0, math.sqrt(2.0) * spec.sigma_e, n)
    if size is None:
        return float(j1[0]), float(j2[0]), float(delta_e[0])
    return j1, j2, delta_e


def _check_node_counts(widest: int, total: int) -> None:
    """Reject a node set too large to build, naming its sizes."""
    if widest > _MAX_DIM_NODES or total > _MAX_TENSOR_NODES:
        raise ValueError(
            f"quadrature needs {widest} nodes in one dimension and {total} in the "
            f"tensor, above the limits of {_MAX_DIM_NODES} and {_MAX_TENSOR_NODES}; "
            f"reduce the noise widths or the time window"
        )


@functools.lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points and weights on [-1, 1], computed once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _nodes_delta_e(sigma_e: float, q: QuadratureSpec, sign: float) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and unit-mass weights for the delta_e dimension."""
    if sigma_e == 0.0:
        return np.zeros(1), np.ones(1)
    if q.delta_e_rule == "hermite":
        u, wu = roots_hermite(q.n_hermite)
        return sign * 2.0 * sigma_e * u, wu / math.sqrt(math.pi)
    std = math.sqrt(2.0) * sigma_e
    x, wx = _leggauss(q.n_hermite)
    half = q.truncation_width * std
    nodes = half * x
    weights = half * wx * pdf_delta_e(nodes, sigma_e)
    return sign * nodes, weights / weights.sum()


def _nodes_coupling(j0: float, sigma: float, q: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Pdf-weighted Gauss-Legendre nodes for one truncated coupling."""
    if sigma == 0.0:
        return np.full(1, j0), np.ones(1)
    lo = max(0.0, j0 - q.truncation_width * sigma)
    hi = j0 + q.truncation_width * sigma
    x, wx = _leggauss(q.n_legendre)
    nodes = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    weights = 0.5 * (hi - lo) * wx * pdf_exchange(nodes, j0, sigma)
    return nodes, weights / weights.sum()


def _terms(p: ExchangeParams, initial: str, weights, j1, j2, delta_e) -> tuple[np.ndarray, np.ndarray, float]:
    """(omega, coef, base) of P = base + sum_k coef_k cos(omega_k t) over weighted nodes.

    The sin^2(omega t / 2) of the closed-form probabilities is rewritten as
    (1 - cos(omega t)) / 2.
    """
    omega, amp_zero, amp_sup = oscillation_terms(p.j_prime, j1, j2, delta_e)
    if initial == "zero":
        return omega, 0.5 * weights * amp_zero, float(weights.sum() - 0.5 * (weights * amp_zero).sum())
    return omega, -0.25 * weights * amp_sup, float(0.5 * weights.sum() + 0.25 * (weights * amp_sup).sum())


def _band(d_lo: float, d_hi: float, gap_lo: float, gap_hi: float) -> tuple[float, float]:
    """(om_lo, om_max) bracketing omega over detunings and gaps in these ranges.

    omega = sqrt(d^2 + 0.75 gap^2) grows with |d| and |gap|, so its extremes
    over the box lie at the corners or, where a range straddles 0, on that
    axis; the bracket is widened by 1% and 1e-9 on either side.
    """
    def nearest(lo, hi):  # smallest |x| over [lo, hi]
        return 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))

    d_min, g_min = nearest(d_lo, d_hi), nearest(gap_lo, gap_hi)
    d_max, g_max = max(abs(d_lo), abs(d_hi)), max(abs(gap_lo), abs(gap_hi))
    om_lo = math.sqrt(d_min * d_min + 0.75 * g_min * g_min) * 0.99 - 1e-9
    om_max = math.sqrt(d_max * d_max + 0.75 * g_max * g_max) * 1.01 + 1e-9
    return max(0.0, om_lo), om_max


def _cheaper_evaluator(n_nodes: int, n_times: int, n_bins: int) -> str:
    """The evaluator the cost model prices lower; a tie goes to the exact direct sum."""
    n_fft = _bluestein_length(n_bins + 2, n_times)
    direct = _COST_DIRECT * n_nodes * n_times
    binned = _COST_FFT * n_fft * math.log2(n_fft) + _COST_DEPOSIT * n_nodes
    return "direct" if direct <= binned else "binned"


def _evaluate(chunks, n_nodes: int, band: tuple[float, float], times: np.ndarray,
              evaluator: Optional[str]) -> tuple[np.ndarray, str]:
    """Sum base + sum_k coef_k cos(omega_k t) over chunks of (omega, coef, base).

    Every node producer feeds this one evaluator, with the band
    (om_lo, om_max) that ``_band`` gives for its node ranges; a frequency
    outside it is a fault of the producer and raises NumericalError.

    The direct sum is exact up to rounding.  The binned evaluator is a
    type-1 NUFFT with linear interpolation (Dutt & Rokhlin 1993): the
    frequency grid i d_om from 0 to om_max has a power-of-two step count
    with d_om t_max <= _BIN_PHASE_STEP, each coefficient is deposited
    linearly on its two nearest grid frequencies, and only the n_bins of
    them from i_lo = floor(om_lo / d_om) up are summed, by a chirp-z
    transform whose output is shifted by exp(-i i_lo d_om t).  Its error is
    at most (_BIN_PHASE_STEP^2 / 6) sum |coef_k|.  Unless ``evaluator``
    forces one, the evaluator is the one ``_cheaper_evaluator`` prices
    lower.  Returns the values and the evaluator used.
    """
    om_lo, om_max = band
    n_times = len(times)
    n_grid = int(2 ** math.ceil(math.log2(max(4096.0, om_max * times[-1] / _BIN_PHASE_STEP))))
    d_om = om_max / n_grid
    i_lo = int(om_lo / d_om)
    n_bins = n_grid - i_lo
    if evaluator is None:
        evaluator = _cheaper_evaluator(n_nodes, n_times, n_bins)
    if evaluator == "binned":
        mass = np.zeros(n_bins + 2)
    else:
        offsets, anchors = _grid_blocks(times)
        chunk = max(1, _DIRECT_BLOCK // n_times)
    base = 0.0
    osc = np.zeros(n_times)
    for omega, coef, chunk_base in chunks:
        if omega.size and not (om_lo <= omega.min() and omega.max() <= om_max):
            bad = omega[~((omega >= om_lo) & (omega <= om_max))][0]
            raise NumericalError(
                f"node frequency {bad!r} lies outside the band [{om_lo!r}, {om_max!r}]"
            )
        base += chunk_base
        if evaluator == "binned":
            pos = omega / d_om
            idx = np.floor(pos).astype(np.int64)
            frac = pos - idx
            idx -= i_lo
            mass += np.bincount(idx, coef * (1.0 - frac), minlength=n_bins + 2)
            mass += np.bincount(idx + 1, coef * frac, minlength=n_bins + 2)
        else:
            # cos(omega (anchor + offset)) by angle addition: two GEMMs
            # instead of a cos per node and time
            for s in range(0, len(omega), chunk):
                sl = slice(s, s + chunk)
                at_anchor = np.outer(anchors, omega[sl])
                at_offset = np.outer(omega[sl], offsets)
                block = (np.cos(at_anchor) * coef[sl]) @ np.cos(at_offset)
                block -= (np.sin(at_anchor) * coef[sl]) @ np.sin(at_offset)
                osc += block.ravel()[:n_times]
    if evaluator == "binned":
        if n_times > 1:
            dt = (times[-1] - times[0]) / (n_times - 1)
            spectrum = _czt(mass.astype(complex), n_times, d_om * dt)
            osc = np.real(spectrum * np.exp(-1j * (i_lo * d_om) * times))
        else:
            osc = np.array([mass.sum() * math.cos(0.0)])
    return base + osc, evaluator


def _tensor_average(
    p: ExchangeParams,
    spec: NoiseSpec,
    initial: str,
    times: np.ndarray,
    q: QuadratureSpec,
    sign: float,
    evaluator: Optional[str],
) -> tuple[np.ndarray, dict]:
    """Tensor-quadrature average over (j1, j2, delta_e), one j1 slab at a time."""
    x1, w1 = _nodes_coupling(spec.j01, spec.sigma_j1, q)
    x2, w2 = _nodes_coupling(spec.j02, spec.sigma_j2, q)
    xe, we = _nodes_delta_e(spec.sigma_e, q, sign)
    n_nodes = len(x1) * len(x2) * len(xe)
    band = _band(
        p.j_prime - 0.5 * (x1.max() + x2.max()) + xe.min(),
        p.j_prime - 0.5 * (x1.min() + x2.min()) + xe.max(),
        x1.min() - x2.max(),
        x1.max() - x2.min(),
    )
    grid2, grid_e = np.meshgrid(x2, xe, indexing="ij")
    grid2 = grid2.ravel()
    grid_e = grid_e.ravel()
    w_slab = (w2[:, None] * we[None, :]).ravel()
    slabs = (_terms(p, initial, w1[i] * w_slab, x1[i], grid2, grid_e) for i in range(len(x1)))
    values, evaluator = _evaluate(slabs, n_nodes, band, times, evaluator)
    meta = {
        "rule": "tensor",
        "n_delta_e": len(xe),
        "n_j1": len(x1),
        "n_j2": len(x2),
        "n_nodes": n_nodes,
        "delta_e_rule": q.delta_e_rule if spec.sigma_e > 0 else "collapsed",
        "evaluator": evaluator,
        "quadrature_spec": q,
    }
    return values, meta


def _gauss_panels(edges: np.ndarray, counts) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on consecutive panels.

    Panel k runs from edges[..., k] to edges[..., k + 1] and gets counts[k]
    nodes; leading axes of ``edges`` hold independent sets of panels.
    """
    nodes, weights = [], []
    for k, n in enumerate(counts):
        if n:
            x, wx = _leggauss(n)
            lo, hi = edges[..., k, None], edges[..., k + 1, None]
            half = 0.5 * (hi - lo)
            nodes.append(half * x + (lo + half))
            weights.append(half * wx)
    return np.concatenate(nodes, axis=-1), np.concatenate(weights, axis=-1)


def _panel_counts(lengths, n: int, span: float) -> list:
    """Nodes per panel: n per span of length plus a margin, 0 for an empty panel."""
    return [max(_PANEL_MIN, math.ceil(n * length / span) + _PANEL_MARGIN) if length > 0 else 0
            for length in lengths]


@dataclass(frozen=True)
class _ReducedRule:
    """The (gap, u) node set of the reduced average, per gap node.

    gap = j1 - j2 and u = (j1 + j2)/2 - delta_e, so the detuning is
    d = j' - u.  Each gap node carries up to three u panels, edges[i] with
    counts[k] nodes in panel k; the weight of (gap, u) is w_gap times the
    u panel weight times phi(u; mu, v_u) Phi((u - u_k) / tau), with Phi = 1
    when tau = 0.  v_u = 0 leaves the single node u = mu per gap node.
    """

    n_gap: int
    n_u: int
    gap: np.ndarray
    w_gap: np.ndarray
    mu: np.ndarray
    u_k: np.ndarray
    edges: np.ndarray
    counts: list
    v_u: float
    tau: float

    @property
    def n_nodes(self) -> int:
        if self.v_u == 0.0:
            return len(self.gap)
        nonempty = np.diff(self.edges, axis=1) > 0
        return int((nonempty * np.asarray(self.counts)).sum())

    def block(self, rows: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(gap, u, weight) of the nodes of gap nodes ``rows``, unnormalized."""
        if self.v_u == 0.0:  # u = mu(gap)
            return self.gap[rows], self.mu[rows], self.w_gap[rows]
        u, w_u = _gauss_panels(self.edges[rows], self.counts)
        mu = self.mu[rows, None]
        weights = self.w_gap[rows, None] * w_u * np.exp(-((u - mu) ** 2) / (2.0 * self.v_u))
        if self.tau > 0.0:  # else no node lies below u_k, a hard edge or -inf
            weights *= scipy.special.ndtr((u - self.u_k[rows, None]) / self.tau)
        keep = w_u > 0.0  # drops the nodes of empty panels
        gap = np.broadcast_to(self.gap[rows, None], u.shape)
        return gap[keep], u[keep], weights[keep]


def _reduced_rule(spec: NoiseSpec, t_max: float, scale: int = 1) -> _ReducedRule:
    """Nodes of the exact 2D reduction of the (j1, j2, delta_e) average.

    With s = (j1 + j2)/2, (s, gap) is jointly Gaussian before truncation:
    gap ~ N(m, V), V = sigma_j1^2 + sigma_j2^2, and s | gap ~ N(mu, v) with
    mu = (j01 + j02)/2 + kappa (gap - m), kappa = (sigma_j1^2 - sigma_j2^2)
    / (2 V), v = sigma_j1^2 sigma_j2^2 / V.  Truncating j1, j2 >= 0 is
    s >= |gap|/2, and integrating s against the field gradient (variance
    v_e = 2 sigma_e^2) leaves the extended skew-normal weight (Azzalini 1985)
    phi(gap; m, V) phi(u; mu, v + v_e) Phi((u - u_k) / tau) with
    u_k = (|gap|/2 (v + v_e) - mu v_e) / v and tau = sqrt(v_e (v + v_e) / v).
    Integrating u out again gives the gap mass phi(gap; m, V)
    Phi((mu - |gap|/2) / sqrt(v)).

    Gauss-Legendre panels cover gap in m +- w sqrt(V), split at the |gap|
    kink at 0 and where the gap mass falls to 0 (mu = |gap|/2, sharp when
    one coupling is much narrower than the other), and u in
    mu +- w sqrt(v + v_e), cut below where Phi < Phi(-w) and split at u_k
    and u_k + w tau, across which Phi rises from 1/2 to 1 (sharp as
    sigma_e -> 0).  Each count follows its phase span, t_max times the
    range, at _NODES_PER_RADIAN, and is shared among panels by length (see
    _PANEL_MARGIN); the u rule moves with slope kappa along gap, hence the
    gap factor (1 + |kappa|).  ``scale`` multiplies both counts.

    Zero widths are the limits of these formulas.  sigma_e = 0 gives
    tau = 0: Phi is a hard lower edge at u = |gap|/2 and the transition panel
    is empty.  One zero sigma_j gives v = 0 and kappa = +-1/2: s is fixed by
    gap, the gap mass has a hard edge on one side only and Phi is 1.  Both
    sigma_j zero leave one gap node at m, and v + v_e = 0 one u node at
    mu(gap) per gap node.  With at most _MAX_DIM_NODES per count the node
    set stays far below _MAX_TENSOR_NODES.
    """
    base = QuadratureSpec()
    w, per_radian = base.truncation_width, _NODES_PER_RADIAN
    var1, var2 = spec.sigma_j1 ** 2, spec.sigma_j2 ** 2
    v_gap = var1 + var2
    kappa = (var1 - var2) / (2.0 * v_gap) if v_gap > 0 else 0.0
    v = var1 * var2 / v_gap if v_gap > 0 else 0.0
    v_e = 2.0 * spec.sigma_e ** 2
    v_u = v + v_e
    span_gap = 2.0 * w * math.sqrt(v_gap)
    span_u = 2.0 * w * math.sqrt(v_u)
    n_gap = scale * max(base.n_legendre, math.ceil(per_radian * t_max * span_gap * (1.0 + abs(kappa))))
    n_u = scale * max(base.n_legendre, math.ceil(per_radian * t_max * span_u))
    n_gap, n_u = (n_gap if v_gap > 0 else 1), (n_u if v_u > 0 else 1)
    _check_node_counts(max(n_gap, n_u), n_gap * n_u)

    m = spec.j01 - spec.j02
    if v_gap > 0:
        # mu = |gap|/2 at g_hi >= m >= g_lo; beyond them the gap mass falls to
        # 0 over widths sqrt(v) / (1/2 -+ kappa); kappa = +-1/2 has no g_-+
        reach = 0.5 * (spec.j01 + spec.j02) - kappa * m
        g_hi, width_hi, g_lo, width_lo = math.inf, 0.0, -math.inf, 0.0
        if kappa < 0.5:
            g_hi, width_hi = reach / (0.5 - kappa), math.sqrt(v) / (0.5 - kappa)
        if kappa > -0.5:
            g_lo, width_lo = -reach / (0.5 + kappa), math.sqrt(v) / (0.5 + kappa)
        lo = max(m - 0.5 * span_gap, g_lo - w * width_lo)
        hi = min(m + 0.5 * span_gap, g_hi + w * width_hi)
        cuts = np.unique(np.clip(
            [lo, g_lo, g_lo + w * width_lo, 0.0, g_hi - w * width_hi, g_hi, hi], lo, hi
        ))
        gap, w_gap = _gauss_panels(cuts, _panel_counts(np.diff(cuts), n_gap, span_gap))
        w_gap = w_gap * np.exp(-((gap - m) ** 2) / (2.0 * v_gap))
    else:
        gap, w_gap = np.full(1, m), np.ones(1)
    mu = 0.5 * (spec.j01 + spec.j02) + kappa * (gap - m)
    if v > 0:
        u_k = (0.5 * np.abs(gap) * v_u - mu * v_e) / v
        tau = math.sqrt(v_e * v_u / v)
    else:
        u_k, tau = np.full_like(gap, -np.inf), 0.0
    hi = mu + 0.5 * span_u
    lo = np.minimum(np.maximum(mu - 0.5 * span_u, u_k - w * tau), hi)
    edges = np.stack([lo, np.clip(u_k, lo, hi), np.clip(u_k + w * tau, lo, hi), hi], axis=1)
    counts = _panel_counts(np.diff(edges, axis=1).max(axis=0), n_u, span_u)
    return _ReducedRule(n_gap, n_u, gap, w_gap, mu, u_k, edges, counts, v_u, tau)


def _reduced_average(
    p: ExchangeParams,
    spec: NoiseSpec,
    initial: str,
    times: np.ndarray,
    scale: int,
    evaluator: Optional[str],
) -> tuple[np.ndarray, dict]:
    """Average over the reduced (gap, u) rule, in blocks of gap nodes."""
    rule = _reduced_rule(spec, float(times[-1]), scale)
    # the detuning is d = j' - u
    band = _band(
        p.j_prime - float(rule.edges[:, -1].max()),
        p.j_prime - float(rule.edges[:, 0].min()),
        float(rule.gap.min()),
        float(rule.gap.max()),
    )
    mass = 0.0

    def blocks():
        # weights are normalized by their sum after the last block
        nonlocal mass
        step = max(1, _BLOCK_NODES // max(1, sum(rule.counts)))
        for s in range(0, len(rule.gap), step):
            gap, u, weights = rule.block(slice(s, s + step))
            mass += weights.sum()
            yield _terms(p, initial, weights, 0.5 * gap, -0.5 * gap, -u)

    n_nodes = rule.n_nodes
    values, evaluator = _evaluate(blocks(), n_nodes, band, times, evaluator)
    meta = {
        "rule": "reduced-2d",
        "n_gap": rule.n_gap,
        "n_u": rule.n_u,
        "n_nodes": n_nodes,
        "evaluator": evaluator,
    }
    return values / mass, meta


def _clip_probabilities(values: np.ndarray) -> np.ndarray:
    if not (values.min() >= -1e-6 and values.max() <= 1.0 + 1e-6):  # NaN fails too
        raise NumericalError(
            f"averaged probabilities left [0, 1] by more than 1e-6: "
            f"range [{values.min()!r}, {values.max()!r}]"
        )
    return np.clip(values, 0.0, 1.0)


def disorder_average_quadrature(
    p: ExchangeParams,
    spec: NoiseSpec,
    initial: str,
    times,
    q: Optional[QuadratureSpec] = None,
    check_convergence: bool = False,
    _evaluator: Optional[str] = None,
    _delta_e_sign: float = 1.0,
) -> ProbabilityTrace:
    """Disorder-averaged return probability by deterministic quadrature.

    With q=None the average runs on the exact 2D reduction over the gap
    j1 - j2 and u = (j1 + j2)/2 - delta_e (see ``_reduced_rule``), sized for
    the grid's t_max, for every noise spec including zero widths.  An
    explicit q gives a tensor rule: Gauss-Hermite in u = delta_e/(2 sigma_e)
    (or pdf-weighted Gauss-Legendre, see QuadratureSpec.delta_e_rule)
    tensored with pdf-weighted Gauss-Legendre over [max(0, j0i - w sigma_ji),
    j0i + w sigma_ji] per coupling, each dimension's weights renormalized by
    its numerically integrated mass.  Zero-sigma dimensions collapse to a
    single node at the mean.

    With check_convergence=True the average is recomputed with doubled node
    counts (n_gap and n_u on the 2D route); if any point moves by more than
    1e-5 the trace metadata carries quadrature_converged=False and a warning
    string.

    Parameters
    ----------
    p : ExchangeParams
    spec : NoiseSpec
    initial : {"zero", "superposition"}
    times : uniform ascending grid starting at 0, in hbar/j0
    q : QuadratureSpec, optional
    _evaluator : "direct" or "binned" forces the evaluator (tests)
    _delta_e_sign : sign of the delta_e nodes of the tensor rule (tests); the
        2D route integrates delta_e analytically and ignores it

    Returns
    -------
    ProbabilityTrace with method="quadrature".

    Raises
    ------
    NumericalError if the average leaves [0, 1] by more than 1e-6.
    """
    times = np.asarray(times, dtype=float)
    _validate_times(times)
    if initial not in ("zero", "superposition"):
        raise ValueError(f"initial must be 'zero' or 'superposition', got {initial!r}")
    if q is None:
        def average(scale):
            return _reduced_average(p, spec, initial, times, scale, _evaluator)
    else:
        n_de = q.n_hermite if spec.sigma_e > 0 else 1
        n_j1 = q.n_legendre if spec.sigma_j1 > 0 else 1
        n_j2 = q.n_legendre if spec.sigma_j2 > 0 else 1
        _check_node_counts(max(n_de, n_j1, n_j2), n_de * n_j1 * n_j2)

        def average(scale):
            qs = replace(q, n_hermite=scale * q.n_hermite, n_legendre=scale * q.n_legendre)
            return _tensor_average(p, spec, initial, times, qs, _delta_e_sign, _evaluator)
    values, meta = average(1)
    if check_convergence:
        values2, _ = average(2)
        change = float(np.max(np.abs(values2 - values)))
        meta["doubling_max_change"] = change
        meta["quadrature_converged"] = change <= 1e-5
        if change > 1e-5:
            meta["warning"] = f"doubling nodes moved a point by {change:.3e} (> 1e-5)"
    return ProbabilityTrace(
        times=times,
        values=_clip_probabilities(values),
        initial=initial,
        method="quadrature",
        params=p,
        noise=spec,
        metadata=meta,
    )


def disorder_average_mc(
    p: ExchangeParams,
    spec: NoiseSpec,
    initial: str,
    times,
    n_samples: int,
    seed,
) -> ProbabilityTrace:
    """Monte Carlo disorder average with per-point standard errors.

    Samples (j1, j2, delta_e) once and averages the closed-form probability
    p0 + amp sin^2(omega t / 2) over them; the standard error is the sample
    standard deviation over sqrt(n_samples).  Bit-reproducible for a given
    seed.

    Samples are taken in chunks.  Within a chunk, sin(omega t / 2) on each
    block of R = isqrt(n_times) times follows by angle addition from the
    block's anchor and a per-chunk table of offsets, so there are O(sqrt
    (n_times)) sin/cos evaluations per sample.  Each block gives the chunk's
    mean and centred sum of squares per time, and the chunks' moments merge
    by the pairwise update of Chan, Golub & LeVeque (1979).  No moment is
    formed as E[p^2] - E[p]^2, so the standard error at t = 0 is exactly 0.
    """
    times = np.asarray(times, dtype=float)
    _validate_times(times)
    if initial not in ("zero", "superposition"):
        raise ValueError(f"initial must be 'zero' or 'superposition', got {initial!r}")
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples!r}")
    rng = np.random.default_rng(seed)
    j1, j2, delta_e = sample_noise(rng, spec, size=n_samples)
    omega, amp_zero, amp_sup = oscillation_terms(p.j_prime, j1, j2, delta_e)
    if initial == "zero":
        p0, amp = 1.0, -amp_zero
    else:
        p0, amp = 0.5, 0.5 * amp_sup
    n_times = len(times)
    offsets, anchors = _grid_blocks(times)
    n_rows = len(offsets)
    count = 0
    mean = np.zeros(n_times)
    m2 = np.zeros(n_times)
    chunk_mean = np.empty(len(anchors) * n_rows)
    chunk_m2 = np.empty(len(anchors) * n_rows)
    for start in range(0, n_samples, _MC_CHUNK):
        half = 0.5 * omega[start:start + _MC_CHUNK]
        a = amp[start:start + _MC_CHUNK]
        sin_off = np.sin(np.outer(offsets, half))
        cos_off = np.cos(np.outer(offsets, half))
        x = np.empty_like(sin_off)
        for b, anchor in enumerate(anchors):
            # x = amp sin^2(h (anchor + offset)), rows = offsets, columns = samples
            np.multiply(cos_off, np.sin(half * anchor), out=x)
            x += sin_off * np.cos(half * anchor)
            np.square(x, out=x)
            x *= a
            rows = slice(b * n_rows, (b + 1) * n_rows)
            chunk_mean[rows] = x.mean(axis=1)
            x -= chunk_mean[rows, None]
            chunk_m2[rows] = np.einsum("ij,ij->i", x, x)
        n = len(half)
        delta = chunk_mean[:n_times] - mean
        total = count + n
        mean += delta * (n / total)
        m2 += chunk_m2[:n_times] + delta * delta * (count * n / total)
        count = total
    errors = np.sqrt(m2 / (n_samples - 1) / n_samples) if n_samples > 1 else np.zeros(n_times)
    return ProbabilityTrace(
        times=times,
        values=_clip_probabilities(p0 + mean),
        initial=initial,
        method="monte-carlo",
        params=p,
        noise=spec,
        mc_std_errors=errors,
        metadata={"n_samples": n_samples, "seed": seed},
    )
