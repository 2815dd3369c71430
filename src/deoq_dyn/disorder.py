"""Quasi-static disorder averaging of the qubit return probabilities.

The dot-to-dot field gradient delta_e carries a zero-mean Gaussian of
standard deviation sqrt(2) sigma_e, and each inter-dot exchange coupling j_i
carries a Gaussian of width sigma_ji truncated to j_i >= 0 around mean j0i.
The observable is the ensemble average of the closed-form return
probability.  Two node producers feed one evaluator:

* deterministic quadrature, and
* a Monte Carlo estimator with per-point standard errors, used as an oracle
  for the quadrature's node sets.

The probability depends on the couplings and the gradient only through the
detuning d = j' - u, u = (j1 + j2)/2 - delta_e, and the gap j1 - j2.  Each
quadrature rule is a node set (``_NodeSet``): chunks of (omega, weight,
weight amp_zero, weight amp_sup) spectral terms, and a band (om_lo,
om_max), from ``_band``, that holds every omega.  With no explicit
QuadratureSpec, ``polar.reduced_nodes`` integrates (j1 + j2)/2 and delta_e
analytically, which leaves a closed-form weight over the gap and u, and
integrates that by a polar rule that hands the evaluator one term per
radius node; the module ``polar`` owns that weight, its 1D limits and
their sizing, and takes from this one only the shared node-set helpers.
An explicit QuadratureSpec gives ``_tensor_nodes``: Gauss-Hermite or the
pdf-weighted Gauss-Legendre rule ``_pdf_legendre`` in delta_e, and
``_pdf_legendre`` per coupling; it also serves the tests as the reference
for the reduction.  The tensor rule and the reduction's 1D limits form
their terms with ``oscillation_terms``, through ``_node_terms``.  ``_average``
turns each chunk into (omega, coef, base) for one evaluator,
``_evaluate``, with one row of coefficients per initial state, so one
node set and one pass serve both states, and divides the sums by the
set's summed weights.  A state's row comes from the state table
``_STATES``, which gives each state's probability p0 + amp sin^2(omega t /
2) as p0 and amp of ``oscillation_terms``' (amp_zero, amp_sup); the Monte
Carlo average and ``ProbabilityTrace``'s t = 0 check read it too, and
``_state`` rejects any other state.

The evaluator is a type-1 NUFFT by Gaussian gridding at oversampling 2
(Dutt & Rokhlin 1993; Greengard & Lee 2004): each coefficient is spread in
real arithmetic onto the 2 _SPREAD nearest bins of a frequency grid that
covers the band, a chirp-z transform sums the bins at the grid times a
block at a time, and each block is shifted back by the first bin's
frequency and divided by the Gaussian's transform.  Its error is at most _NUFFT_ERROR sum |coef|
(2.1e-11 at 12 bins a side).  Every average takes this one path; there is
no cost model and no second evaluator.

The Monte Carlo average hands its N samples to the same evaluator as nodes
of weight 1/N, in blocks of _SMALL_BLOCK: one pass sums the mean and the
second moment's cos(omega t) part, another its cos(2 omega t) part on the
doubled band.  Its band, like the tensor rule's, is ``_band`` over the u
and gap brackets of its draws' ranges (``_brackets``), so each block's
terms are formed once per pass and never for a band of their own.  Only
the three draws are held whole, 24 bytes a sample.
Its standard errors come from E[X^2] - E[X]^2 with a stated bound for the
cancellation.  Monte Carlo thus checks the quadrature's node sets, not the
evaluator, which the tests hold against the exact cos-matrix sum.

Both Gauss rules run one Newton driver, ``_newton_rule``, from
asymptotic nodes in O(n) memory; each rule gives it the variable to step
in and an evaluator of the step and the weight.  The Gauss-Legendre rule,
which every node set uses, steps in theta (x = cos theta) and evaluates
P_n at all nodes at once: from Stieltjes' interior expansion, and next to
the ends from P_n's exact cosine series, in O(n) vectorized work per
pass.  The Gauss-Hermite rule, which only an explicit QuadratureSpec
reaches, steps in x on the orthonormal three-term recurrence, in O(n^2)
time.

Because the integrand oscillates as cos(omega(x) t), the node count a
dimension needs grows linearly with the phase span t_max * d(omega)/dx *
range(x).  The 2D rule sizes each panel from that span and the weight's
width there by a Bernstein-ellipse estimate (``polar._gauss_points``), so
its count of terms grows like t_max.  Fixed-size specs are kept for small
problems and for reproducing the plain-rule behavior.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional

import numpy as np

from .qubit import ExchangeParams, oscillation_terms

# largest phase omega t: a double rounds a phase phi to within 2^-52 phi, so
# past 1e-6 * 2^52 (4.5e9 rad) the phase error alone reaches the 1e-6
# tolerance of _clip_probabilities
_MAX_PHASE = 1e-6 * 2.0 ** 52

# margin of the band, relative to |j'| + max|u| + max|gap|: a node frequency
# rounds away from the band's formula by a few 2^-52 of those operands
_BAND_MARGIN = 1e-9

# the evaluator's type-1 NUFFT spreads each coefficient onto its 2 m nearest
# bins with the Gaussian exp(-a x^2) of x bins, a = pi / (sqrt(2) m); at
# oversampling 2 its truncation and its aliasing both fall as exp(-a m^2)
_SPREAD = 12
_GAUSS_A = math.pi / (math.sqrt(2.0) * _SPREAD)

# the evaluator's error bound per unit of sum |coef| (2.1e-11 at m = 12): the
# aliased Gaussian, exp(-a m^2), plus the tails past the 2 m bins, at most
# exp(-a m^2) (1 + exp(-a (2 m + 1))) / (1 - exp(-2 a m)) per node, divided
# by the Gaussian's transform, at least sqrt(pi / a) exp(-a m^2 / 8) on the window
_NUFFT_ERROR = math.exp(-_GAUSS_A * _SPREAD ** 2) * (
    1.0 + math.sqrt(_GAUSS_A / math.pi) * math.exp(_GAUSS_A * _SPREAD ** 2 / 8.0)
    * (1.0 + math.exp(-_GAUSS_A * (2 * _SPREAD + 1))) / (1.0 - math.exp(-2.0 * _GAUSS_A * _SPREAD))
)

# frequency bins of the evaluator: its chirp-z transform holds a few complex
# arrays of at most twice this length; the default sweep grid and material
# presets need at most 1,335
_MAX_BINS = 2 ** 22

# node-count ceilings: per dimension about 5x what the default sweep grid and
# material presets size on the 2D reduction (at most 906 radius or u nodes);
# the total bounds explicit tensor specs
_MAX_DIM_NODES = 5_000
_MAX_TENSOR_NODES = 500_000_000

# nodes per block of the 2D rule's weight evaluations and of the Monte Carlo
# samples, and the least of the tensor rule's chunks and of the evaluator's
# blocks of times: a block holds about 20 arrays of its length at once.  The polar rule
# of the sigma_e 1, sigma_j 0.5 cell at t_max 100 peaks at 7.2 MiB traced in
# one block and 1.0 MiB in blocks of this size; Monte Carlo at 1e5 samples x
# 8,001 times at 10.8 and 3.2 MiB; a tensor rule of 2,000 x 2,000 nodes with
# sigma_j1 = 0 at 8.4 MiB in chunks of 2^16 nodes and 0.6 MiB in these
_SMALL_BLOCK = 2 ** 12

# Gauss-Legendre P_n(cos theta): Stieltjes' interior expansion cut at 30
# terms matched the exact cosine series in dP/dtheta to 5e-15 from the 5th
# node off x = 1 on, for n from 41 to 5,000 (3e-11 at the 4th, 0.2 at the
# 2nd), so the series takes the 10 nodes next to x = 1, twice the 5 it must.
# It takes every node of a rule of up to _LEG_SERIES_MAX points: its one
# nodes x (n + 1) product per pass built a whole rule faster than the two
# evaluators up to about 90 points (0.49 against 0.73 ms at n = 60, 1.05
# against 0.93 ms at n = 100, on a 2-core x86 host)
_LEG_TERMS = 30
_LEG_END_NODES = 10
_LEG_SERIES_MAX = 90


# each initial state's return probability p0 + amp sin^2(omega t / 2) as (p0,
# amp), amp a function of oscillation_terms' (amp_zero, amp_sup)
_STATES = {"zero": (1.0, lambda amp_zero, amp_sup: -amp_zero),
           "superposition": (0.5, lambda amp_zero, amp_sup: 0.5 * amp_sup)}


def _state(initial: str) -> tuple:
    """(p0, amp) of ``initial`` in ``_STATES``; any other value raises ValueError."""
    if initial not in tuple(_STATES):
        raise ValueError(f"initial must be {' or '.join(map(repr, _STATES))}, got {initial!r}")
    return _STATES[initial]


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
        p0, _ = _state(self.initial)
        if abs(values[0] - p0) > 1e-9:
            raise ValueError(f"value at t=0 is {values[0]!r}, expected {p0} for initial={self.initial!r}")
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


def _czt(x: np.ndarray, m: int, period: int, starts=(0,)) -> Iterator[np.ndarray]:
    """Chirp-z transform X_j = sum_k x_k exp(-2 pi i j k / period) in blocks (Bluestein 1968).

    Yields, for each j0 in ``starts``, X_j for j0 <= j < j0 + m: the
    transform of x_k W^(j0 k), W = exp(-2 pi i / period) (the A of Rabiner,
    Schafer & Rader 1969), in one array that the next block overwrites.
    ``x`` is one row of n values or a (k, n) stack of rows; a block has the
    same leading shape.  The chirp exp(-i pi k^2 / period) is taken from
    its real phase, reduced exactly as the integer k^2 mod 2 period, and
    W^(j0 k) from j0 k mod period, so each is rounded once, below 2 pi; a
    power of exp(-2 pi i / period) drifts in proportion to k^2.  The
    convolution runs on the least 2^a 3^b 5^c >= n + m - 1
    (``_smooth_length``).  The chirp and the kernel's FFT are built once;
    each row is transformed on its own, in place in one work array, so a
    row of a stack comes out bit for bit as it would alone.  Beside the
    block it holds the chirp of max(m, n), the kernel, the work array and
    a twiddled chirp of n.
    """
    n = x.shape[-1]
    chirp = (-1j * math.pi / period) * (np.arange(max(m, n)) ** 2 % (2 * period))
    np.exp(chirp, out=chirp)  # in place: one complex array of max(m, n) at a time, not two
    nfft = _smooth_length(n + m - 1)
    kernel = np.zeros(nfft, dtype=complex)  # conj chirp at offsets 1 - n .. m - 1, from index 0
    np.conj(chirp[n - 1:0:-1], out=kernel[:n - 1])
    np.conj(chirp[:m], out=kernel[n - 1:n + m - 1])
    np.fft.fft(kernel, out=kernel)
    work, out = np.empty(nfft, dtype=complex), np.empty(x.shape[:-1] + (m,), dtype=complex)
    for start in starts:
        head = (-2j * math.pi / period) * (start * np.arange(n) % period)  # W^(j0 k): 1 at j0 = 0
        np.exp(head, out=head)
        head *= chirp[:n]
        for row, row_out in zip(x.reshape(-1, n), out.reshape(-1, m)):
            np.multiply(row, head, out=work[:n])
            work[n:] = 0.0
            np.fft.fft(work, out=work)
            work *= kernel
            np.fft.ifft(work, out=work)
            np.multiply(work[n - 1:n + m - 1], chirp[:m], out=row_out)
        yield out


def _smooth_length(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, an FFT length that pocketfft serves in O(n log n)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << ((n - 1) // p35).bit_length())  # the least p35 2^a >= n
            p35 *= 3
        p5 *= 5
    return best


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
    norm = 2.0 / (1.0 + math.erf(j0i / (sigma_ji * math.sqrt(2.0))))
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
    rng = np.random.default_rng(rng)  # a Generator passes through unaltered
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


def _check_node_counts(*counts: float) -> None:
    """Reject a node set too large to build, naming its sizes.

    ``counts`` are the nodes per dimension; they may be floats, even inf,
    so that a count is checked before ``math.ceil`` would overflow on it.
    A nan count, which no cap can bound, raises ArithmeticError: it is a
    rounding residue of a set-up, which its caller names.
    """
    widest, total = max(counts), math.prod(max(n, 1) for n in counts)
    if math.isnan(total):
        raise ArithmeticError("a quadrature node count is nan")
    if not (widest <= _MAX_DIM_NODES and total <= _MAX_TENSOR_NODES):
        raise ValueError(
            f"quadrature needs {np.ceil(widest):.6g} nodes in one dimension and "
            f"{np.ceil(total):.6g} in all, above the limits of {_MAX_DIM_NODES} "
            f"and {_MAX_TENSOR_NODES}; reduce the noise widths or the time window"
        )


def _newton_rule(n: int, t: np.ndarray, x_of, evaluate) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of an n-point Gauss rule of a symmetric weight, by Newton's method.

    ``t`` holds the starts of the nodes x >= 0 in the variable Newton steps
    in: the n // 2 positive nodes, then, for odd n, the node 0, which is
    exact and never stepped.  ``x_of(t)`` gives the nodes, and
    ``evaluate(t)`` the Newton step and the weight at every node.  After
    the first step under 1e-12 |t| at every node, in the variable Newton
    steps in, quadratic convergence leaves rounding error alone; one more
    pass gives the weights, and the half rule is mirrored.  Nodes that are not strictly increasing, where
    two starts found one node, raise NumericalError, and so does a rule
    that has not converged after 20 passes.  The arrays returned are read-only.
    """
    half = n // 2
    x, converged = x_of(t), False
    for _ in range(20):  # with the weights' pass, at most 4 (Legendre) and 6 (Hermite) at the sizes checked
        step, w = evaluate(t)
        if converged:
            x[half:] = 0.0  # the odd-n node 0
            x, w = np.concatenate((-x[:half], x[::-1])), np.concatenate((w[:half], w[::-1]))
            if not np.all(np.diff(x) > 0.0):  # two starts that found one node
                break
            x.flags.writeable = w.flags.writeable = False  # the cached rules are shared
            return x, w
        t_prev, t = t, np.concatenate((t[:half] - step[:half], t[half:]))
        x = x_of(t)
        converged = np.all(np.abs(t - t_prev) <= 1e-12 * np.abs(t))
    raise NumericalError(f"the {n}-point Gauss rule did not converge to {n} distinct nodes")


def _hermite(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Newton step p_n / p_n' in x and the Gauss-Hermite weight at nodes ``x``.

    The orthonormal Hermite polynomials, scaled to p_0 = 1, obey
    beta_{k+1} p_{k+1} = x p_k - beta_k p_{k-1}, beta_k = sqrt(k / 2), and
    p_n' follows from the differentiated recurrence.  A weight is the
    Christoffel-Darboux sum sqrt(pi) / (beta_n (p_n' p_{n-1} - p_{n-1}'
    p_n)), which is sqrt(pi) / (beta_n p_n' p_{n-1}) at an exact node.  The
    second term takes up the node's rounding, to which p_{n-1}, with a root
    close by near the ends, is sensitive.  Every 32 steps each node's
    recurrence is scaled by a power of 2, exactly, and the weights take the
    summed exponents back by ``np.ldexp``: unscaled, p_n overflows from
    about n = 730.  Memory is O(n), time O(n^2): about 12 numpy calls per
    step on arrays of n / 2, n steps per call.
    """
    b = [0.0, *np.sqrt(np.arange(1.0, n + 1) / 2.0)]
    p_prev, p, dp_prev, dp, exp2 = 0.0, 1.0, 0.0, 0.0, 0  # p_{k-1}, p_k and derivatives, times 2^-exp2
    for k in range(n):
        p_prev, p = p, (x * p - b[k] * p_prev) / b[k + 1]
        dp_prev, dp = dp, (p_prev + x * dp - b[k] * dp_prev) / b[k + 1]
        if k % 32 == 31:  # a step grows them by (|x| + beta_k) / beta_{k+1} < 2^8 for |x| up to 100
            shift = np.frexp(np.abs(p) + np.abs(p_prev))[1]
            p, p_prev, dp, dp_prev = (np.ldexp(v, -shift) for v in (p, p_prev, dp, dp_prev))
            exp2 += shift
    return p / dp, np.ldexp(math.sqrt(math.pi) / (b[n] * (dp * p_prev - dp_prev * p)), -2 * exp2)


def _legendre_series(n: int, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(cos theta) and dP/dtheta from the exact cosine series.

    P_n(cos t) = sum_m c_m cos((n - 2m) t), c_m = a_m a_{n-m}, a_m =
    binom(2m, m) / 4^m.  The a_m come from a product of m rounded factors;
    scaling the c_m to their exact sum P_n(1) = 1 takes up most of that
    rounding (end weights at n = 5,000: 7.5e-15 relative error unscaled,
    1.8e-15 scaled).
    """
    m = np.arange(1.0, n + 1)
    a = np.cumprod(np.concatenate(([1.0], (m - 0.5) / m)))
    c = a * a[::-1]
    c /= c.sum()
    k = n - 2.0 * np.arange(n + 1)
    phase = np.outer(theta, k)
    return np.cos(phase) @ c, -(np.sin(phase) @ (c * k))


def _legendre_interior(n: int, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(cos theta) and dP/dtheta from Stieltjes' expansion, away from the ends.

    P_n(cos t) = C_n sum_{m < _LEG_TERMS} h_m cos((n + m + 1/2) t - (m +
    1/2) pi/2) / (2 sin t)^(m + 1/2), h_0 = 1, h_m = h_{m-1} (m - 1/2)^2 /
    (m (n + m + 1/2)), C_n = (4/pi) prod_{k <= n} k / (k + 1/2) (Hale &
    Townsend 2013).  C_n is the exponential of an exactly rounded sum of
    logarithms: a plain product of the n factors puts the weight sums 2.4e-14
    off at n = 3,001.
    """
    c_n = 4.0 / math.pi * math.exp(math.fsum(np.log1p(-0.5 / np.arange(1.5, n + 1))))
    half = np.arange(_LEG_TERMS) + 0.5  # m + 1/2
    h = np.cumprod(np.concatenate(([1.0], half[:-1] ** 2 / ((half[1:] - 0.5) * (n + half[1:])))))
    amp = h * np.exp(-np.outer(np.log(2.0 * np.sin(theta)), half))
    phase = np.outer(theta, n + half) - half * (0.5 * math.pi)
    cos_part, sin_part = amp * np.cos(phase), amp * np.sin(phase)
    return c_n * cos_part.sum(axis=1), -c_n * (sin_part @ (n + half) + (cos_part @ half) / np.tan(theta))


def _legendre(n: int, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Newton step P_n / (dP/dtheta) in theta and the Gauss-Legendre weight 2 / (dP/dtheta)^2.

    ``theta`` holds the nodes x = cos(theta) >= 0 in ascending theta.  The
    first _LEG_END_NODES, or all in a rule of up to _LEG_SERIES_MAX points,
    take P_n from the cosine series, the rest from the interior expansion.
    """
    ends = len(theta) if n <= _LEG_SERIES_MAX else _LEG_END_NODES
    p, dp = _legendre_series(n, theta[:ends])
    if ends < len(theta):
        p_in, dp_in = _legendre_interior(n, theta[ends:])
        p, dp = np.concatenate((p, p_in)), np.concatenate((dp, dp_in))
    return p / dp, 2.0 / dp ** 2


# rules repeat across the traces of one command, so each size is built once
# per process and kept: a 21 x 21 sweep map holds 158 Gauss-Legendre rules,
# 0.31 MiB (tools/rule_counts.py)
@functools.cache
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points and weights on [-1, 1], computed once per n.

    ``_newton_rule`` steps in theta, x = cos(theta), on ``_legendre``'s
    evaluators, O(n) vectorized work per pass, from Tricomi's nodes (1 -
    1/(8 n^2) + 1/(8 n^3)) cos(pi (4 k - 1) / (4 n + 2)); the odd-n node 0
    sits at theta = pi/2.

    A weight taken in theta is insensitive to the node's rounding, which is
    relative in theta, and Newton stops on a step under 1e-12 theta: a step
    under 1e-12 |x| in x stopped at the end node of n = 5,000 after 6e-10
    rad and left its weight 1.6e-12 off.  Against a 50-digit recurrence the
    weights of the end, near-end and middle nodes are within 2.3e-15
    relative at n = 305, 1,233 and 5,000 (the recurrence rule it replaced:
    1.8e-12, 1.2e-12 and 3.8e-10 at the end nodes).
    """
    j = np.arange(1, n // 2 + 1)
    start = (1.0 - 1.0 / (8 * n ** 2) + 1.0 / (8 * n ** 3)) * np.cos(math.pi * (4 * j - 1) / (4 * n + 2))
    theta = np.concatenate((np.arccos(start), np.full(n % 2, 0.5 * math.pi)))
    return _newton_rule(n, theta, np.cos, functools.partial(_legendre, n))


@functools.cache
def _hermgauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite points and weights for the weight exp(-x^2), computed once per n.

    ``_newton_rule`` steps in x itself, on ``_hermite``'s recurrence, from
    the WKB starts sqrt(2 n + 1) cos(theta_k), where theta - sin(theta)
    cos(theta) = 2 pi (k - 1/4) / (2 n + 1) (Townsend, Trogdon & Olver
    2016), solved by Newton from the cube root of 3/2 times the right side,
    its small-theta limit.  The weights of nodes past about 27 underflow to
    0, as in scipy's ``roots_hermite``.
    """
    c = 2.0 * math.pi * (np.arange(1, n // 2 + 1) - 0.25) / (2 * n + 1)
    theta = np.cbrt(1.5 * c)
    for _ in range(4):  # to 1.5e-14 relative for every n up to the cap
        theta -= (theta - np.sin(theta) * np.cos(theta) - c) / (2.0 * np.sin(theta) ** 2)
    start = np.concatenate((math.sqrt(2 * n + 1) * np.cos(theta), np.zeros(n % 2)))
    return _newton_rule(n, start, np.copy, functools.partial(_hermite, n))


def _pdf_legendre(n: int, mean: float, sigma: float, lo: float, width: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes on [lo, mean + width sigma] and their unit-mass pdf weights.

    The weights take the Gaussian pdf in z = (x - mean) / sigma, so no
    square of sigma is formed, and a span that rounds away at the mean
    leaves the nodes there.  sigma = 0 gives one node at the mean.
    """
    if sigma == 0.0:
        return np.full(1, mean), np.ones(1)
    hi = mean + width * sigma
    x, wx = _leggauss(n)
    nodes = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    z = (nodes - mean) / sigma
    weights = wx * np.exp(-0.5 * z * z)
    return nodes, weights / weights.sum()


def _nodes_delta_e(sigma_e: float, q: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and unit-mass weights for the delta_e dimension.

    Each rule wins somewhere.  On E[cos(a z)], z ~ N(0, 1), Gauss-Hermite
    at 21 nodes is within 4e-16 up to a = 2.5 and 1.4e-8 off at a = 4,
    where the pdf-weighted Legendre rule on +-w sqrt(2) sigma_e is 1.0e-4
    and 1.1e-2 off; at 81 nodes and a = 16, Legendre is within 7e-10 and
    Hermite 0.12 off.
    """
    if sigma_e > 0.0 and q.delta_e_rule == "hermite":
        u, wu = _hermgauss(q.n_hermite)
        return 2.0 * sigma_e * u, wu / math.sqrt(math.pi)
    s = math.sqrt(2.0) * sigma_e
    return _pdf_legendre(q.n_hermite, 0.0, s, -q.truncation_width * s, q.truncation_width)


def _check_phase(om_max: float, t_max: float) -> None:
    """Reject phases om_max t_max whose rounding alone exceeds 1e-6 rad."""
    if not om_max * t_max <= _MAX_PHASE:  # NaN fails too
        raise ValueError(
            f"phases up to {om_max * t_max:.6g} rad (frequency {om_max:.6g} over t_max "
            f"{t_max:.6g}) exceed the bound om_max t_max <= 1e-6 * 2^52 = {_MAX_PHASE:.6g} rad, "
            f"past which rounding moves a phase by more than 1e-6 rad; shorten the time window"
        )


def _band(j_prime: float, u_range: tuple, gap_range: tuple) -> tuple[float, float]:
    """(om_lo, om_max) bracketing omega over u and gaps in these ranges.

    omega = sqrt(d^2 + 0.75 gap^2) with detuning d = j' - u grows with |d|
    and |gap|, so its extremes over the box lie at the corners or, where a
    range straddles 0, on that axis.  The bracket is widened on either side
    by _BAND_MARGIN (|j'| + max|u| + max|gap|), far more than the rounding
    of a node's frequency.  The bounds are taken as Python floats, whose
    squares overflow to inf silently.
    """
    j_prime, (u_lo, u_hi), (gap_lo, gap_hi) = float(j_prime), map(float, u_range), map(float, gap_range)
    d_lo, d_hi = j_prime - u_hi, j_prime - u_lo

    def nearest(lo, hi):  # smallest |x| over [lo, hi]
        return 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))

    d_min, g_min = nearest(d_lo, d_hi), nearest(gap_lo, gap_hi)
    d_max, g_max = max(abs(d_lo), abs(d_hi)), max(abs(gap_lo), abs(gap_hi))
    margin = _BAND_MARGIN * (abs(j_prime) + max(abs(u_lo), abs(u_hi)) + g_max)
    om_lo = math.sqrt(d_min * d_min + 0.75 * g_min * g_min) - margin
    return max(0.0, om_lo), math.sqrt(d_max * d_max + 0.75 * g_max * g_max) + margin


def _brackets(j1, j2, delta_e) -> tuple[tuple, tuple]:
    """The u and gap brackets, as Python floats, over the ranges of these j1, j2 and delta_e values."""
    (lo1, hi1), (lo2, hi2), (lo_e, hi_e) = ((float(x.min()), float(x.max())) for x in (j1, j2, delta_e))
    return (0.5 * (lo1 + lo2) - hi_e, 0.5 * (hi1 + hi2) - lo_e), (lo1 - hi2, hi1 - lo2)


def _evaluate(chunks, band: tuple[float, float], times: np.ndarray,
              om_phase: Optional[float] = None) -> tuple[np.ndarray, int, list]:
    """Sum base_s + sum_k coef_sk cos(omega_k t) for each coefficient set s.

    Each chunk is (omega, coef, base): one omega array, coef a (sets, n)
    array with one row of coefficients per set and base one number per
    set; every chunk carries the same number of sets.  ``_average`` feeds
    it every node set, one set per initial state, with the band (om_lo,
    om_max) that ``_band`` gives for the set's ranges, and
    ``disorder_average_mc`` its samples, a block per chunk; a frequency
    outside the band is a fault of the producer and raises NumericalError.  A phase om_max t_max
    whose bin index would leave the float range raises ValueError, and so
    does a phase om_phase t_max (om_phase = om_max unless given) whose
    rounding would exceed 1e-6 rad (``_check_phase``), and a band that
    needs more than _MAX_BINS bins.

    The sum is a type-1 NUFFT by Gaussian gridding (Dutt & Rokhlin 1993;
    Greengard & Lee 2004).  cos is even, so the window is [-T, T] with
    T = t_max; the frequency grid has step h = pi / (2 T) (oversampling 2)
    and starts _SPREAD - 1 bins below om_lo.  Each coefficient is convolved
    with the Gaussian exp(-(omega - omega_k)^2 / (4 tau)), tau = m pi /
    (8 sqrt(2) T^2), and spread on its 2 m nearest bins, m = _SPREAD, in real
    arithmetic: with a = h^2 / (4 tau) and x the node's offset from its bin,
    two exp per node, exp(-a x (x + 2 (m - 1))) and exp(2 a x), whose
    products with powers of the second and the tabulated exp(-a l^2) give
    the weights exp(-a (l - x)^2) of bins l = -m + 1 .. m.  A chirp-z
    transform sums the bins at b = min(n_times, max(_SMALL_BLOCK, n_bins))
    grid times at a time, the last block ending at t_max (one block: the
    whole window); each block is shifted back by the first bin's frequency
    and divided by the Gaussian's transform sqrt(4 pi tau) / h exp(-tau t^2)
    in place in the output.  Its error is at most
    _NUFFT_ERROR sum |coef_k| (2.1e-11 at m = 12), plus the rounding of the
    phases that ``_check_phase`` bounds; at t = 0 the sum is exact.

    The sets share each node's cell, offset and growth factor and the
    Gaussian's transform; each keeps its own bins, sums and bound, and
    comes out bit for bit as it would alone.  Returns the values (one row
    per set), the bin count and the error bound of each set.
    """
    om_lo, om_max = band
    t_max = float(times[-1])
    per_bin = 2.0 * t_max / math.pi  # 1 / h
    if not om_max * per_bin < 2.0 ** 1023:  # a bin index past the float range; NaN fails too
        raise ValueError(f"frequencies up to {om_max:.6g} over t_max {t_max:.6g} overflow the bin grid")
    _check_phase(om_max if om_phase is None else om_phase, t_max)
    n_cells = math.floor((om_max - om_lo) * per_bin) + 1
    n_bins = n_cells + 2 * _SPREAD - 1
    if n_bins > _MAX_BINS:
        raise ValueError(
            f"the evaluator needs {n_bins} frequency bins (band [{om_lo:.6g}, {om_max:.6g}] over "
            f"t_max {t_max:.6g}), above the limit of {_MAX_BINS}; reduce the noise widths or the time window"
        )
    bell = np.exp(-_GAUSS_A * np.arange(-_SPREAD + 1, _SPREAD + 1) ** 2)  # exp(-a l^2)
    mass = base = at_zero = abs_sum = None
    for omega, coef, chunk_base in chunks:
        if omega.size and not (om_lo <= omega.min() and omega.max() <= om_max):
            bad = omega[~((omega >= om_lo) & (omega <= om_max))][0]
            raise NumericalError(
                f"node frequency {bad!r} lies outside the band [{om_lo!r}, {om_max!r}]"
            )
        sets = len(coef)
        if mass is None:
            mass, base, at_zero, abs_sum = np.zeros((sets, n_bins)), np.zeros(sets), np.zeros(sets), np.zeros(sets)
        base += chunk_base
        at_zero += [c.sum() for c in coef]  # one row at a time: a row's sum is the sum of that set alone
        abs_sum += [np.abs(c).sum() for c in coef]
        x = omega - om_lo
        x *= per_bin
        cell = x.astype(np.intp)  # bins cell - m + 1 .. cell + m, stored from index cell
        x -= cell  # the node's offset from bin cell, in [0, 1)
        grow = np.exp(2.0 * _GAUSS_A * x)
        x *= x + 2.0 * (_SPREAD - 1)
        x *= -_GAUSS_A
        np.exp(x, out=x)
        for s, c in enumerate(coef):
            # times grow^k exp(-a l^2): c exp(-a (l - x)^2) at bin cell + l, l = k - m + 1; the
            # last set takes x's memory
            weight = x * c if s + 1 < sets else np.multiply(x, c, out=x)
            for k in range(2 * _SPREAD):
                if k:
                    weight *= grow
                mass[s, k:k + n_cells] += bell[k] * np.bincount(cell, weight, minlength=n_cells)
    n_times = len(times)
    steps = max(n_times - 1, 1)
    size = min(n_times, max(_SMALL_BLOCK, n_bins))  # times per block
    starts = [*range(0, n_times - size, size), n_times - size]  # the last block ends at t_max
    values = np.empty((len(mass), n_times))
    for start, spectrum in zip(starts, _czt(mass, size, 4 * steps, starts)):  # h dt = 2 pi / (4 steps)
        t_frac = np.arange(start, start + size, dtype=float)
        t_frac /= steps  # t / T on the block
        shift = om_lo * times[start:start + size]  # the first bin's phase
        shift -= (_SPREAD - 1) * 0.5 * math.pi * t_frac
        cos = np.cos(shift)
        np.sin(shift, out=shift)  # shift holds the phase's sine from here
        t_frac *= t_frac  # t_frac holds the Gaussian's transform from here
        t_frac *= -_GAUSS_A * _SPREAD ** 2 / 8.0
        np.exp(t_frac, out=t_frac)
        t_frac *= math.sqrt(math.pi / _GAUSS_A)
        # a row at a time: a (b,) array broadcast over the (sets, b) block takes an 8,192-element buffer
        for osc, row, b in zip(values[:, start:start + size], spectrum, base):
            np.multiply(row.real, cos, out=osc)
            row.imag *= shift
            osc += row.imag
            osc /= t_frac
            osc += b
        del t_frac, shift, cos  # the next block makes its arrays without these beside them
    values[:, 0] = base + at_zero  # cos(0) = 1
    return values, n_bins, [float(_NUFFT_ERROR * s) for s in abs_sum]


@dataclass(frozen=True)
class _NodeSet:
    """A quadrature rule as spectral terms, for ``_average``.

    ``chunks`` yields (omega, weight, weight amp_zero, weight amp_sup)
    arrays: each term adds weight times a state's probability p0 + amp
    sin^2(omega t / 2) (``_STATES``) to that state's sum.  A node set keeps
    no reference to a chunk once yielded.  The weights need not have unit
    mass: ``_average`` divides by their sum.  ``band`` (om_lo, om_max), from
    ``_band``, holds every omega.  ``meta`` describes the rule, with its
    node count ``meta["n_nodes"]``: the nodes at which the weight was
    evaluated.  The 2D reduction's ``points()`` yields its nodes as (d, c, weight) blocks in
    the plane of ``polar.reduced_nodes``, for inspection.
    """

    chunks: Iterator[tuple]
    band: tuple[float, float]
    meta: dict
    points: Optional[Callable[[], Iterator[tuple]]] = None


def _node_terms(j_prime: float, j1, j2, delta_e, weight) -> tuple:
    """The chunk of nodes (j1, j2, delta_e) of this weight, from ``oscillation_terms``."""
    omega, amp_zero, amp_sup = oscillation_terms(j_prime, j1, j2, delta_e)
    return omega, weight, weight * amp_zero, weight * amp_sup


def _tensor_nodes(spec: NoiseSpec, q: QuadratureSpec, j_prime: float, t_max: float, scale: int = 1) -> _NodeSet:
    """Tensor rule over (j1, j2, delta_e), for windows to t_max.

    Each coupling takes the pdf-weighted Gauss-Legendre rule on [max(0, j0i
    - w sigma_ji), j0i + w sigma_ji], delta_e the rule of ``_nodes_delta_e``.
    ``scale`` multiplies the node counts of ``q``, which are checked against
    the limits once scaled.  A chunk is one j1 node times a run of
    max(_SMALL_BLOCK, n_bins) // n_delta_e j2 rows (at least one), n_bins
    the band's width in the evaluator's bins at t_max, whose sums
    ``_evaluate`` pays once per chunk; so it holds at most
    max(_SMALL_BLOCK, n_bins, n_delta_e) nodes.  Each run's (j2, delta_e)
    grids are built when its first chunk is drawn and shared by its j1
    nodes.
    """
    q = replace(q, n_hermite=scale * q.n_hermite, n_legendre=scale * q.n_legendre)
    _check_node_counts(q.n_hermite if spec.sigma_e > 0 else 1,
                       q.n_legendre if spec.sigma_j1 > 0 else 1,
                       q.n_legendre if spec.sigma_j2 > 0 else 1)
    w = q.truncation_width
    x1, w1 = _pdf_legendre(q.n_legendre, spec.j01, spec.sigma_j1, max(0.0, spec.j01 - w * spec.sigma_j1), w)
    x2, w2 = _pdf_legendre(q.n_legendre, spec.j02, spec.sigma_j2, max(0.0, spec.j02 - w * spec.sigma_j2), w)
    xe, we = _nodes_delta_e(spec.sigma_e, q)
    band = _band(j_prime, *_brackets(x1, x2, xe))
    n_bins = min(_MAX_BINS, (band[1] - band[0]) * 2.0 * t_max / math.pi)  # inf and NaN give _MAX_BINS
    rows = max(1, int(max(_SMALL_BLOCK, n_bins)) // len(xe))

    def chunks():
        for s in range(0, len(x2), rows):
            grid2, grid_e = (g.ravel() for g in np.meshgrid(x2[s:s + rows], xe, indexing="ij"))
            w_chunk = (w2[s:s + rows, None] * we[None, :]).ravel()
            for i in range(len(x1)):
                yield _node_terms(j_prime, x1[i], grid2, grid_e, w1[i] * w_chunk)

    return _NodeSet(
        chunks=chunks(), band=band,
        meta={"rule": "tensor", "n_delta_e": len(xe), "n_j1": len(x1), "n_j2": len(x2),
              "n_nodes": len(x1) * len(x2) * len(xe), "quadrature_spec": q,
              "delta_e_rule": q.delta_e_rule if spec.sigma_e > 0 else "collapsed"},
    )


def _terms(initials: tuple, omega, weight, weight_zero, weight_sup) -> tuple[np.ndarray, np.ndarray, list]:
    """(omega, coef, base) of P = base + sum_k coef_k cos(omega_k t) for one chunk.

    coef has one row, and base one entry, per initial state.  A state's
    (p0, amp) in ``_STATES`` gives its probability p0 + amp sin^2(omega t /
    2), and sin^2 is rewritten as (1 - cos(omega t)) / 2: with a = amp
    applied to (weight amp_zero, weight amp_sup), base is p0 sum weight +
    sum a / 2 and coef is -a / 2.
    """
    coef, base = np.empty((len(initials), len(omega))), []
    for row, initial in zip(coef, initials):
        p0, amp = _STATES[initial]
        weight_amp = amp(weight_zero, weight_sup)
        np.multiply(-0.5, weight_amp, out=row)
        base.append(float(p0 * weight.sum() + 0.5 * weight_amp.sum()))
    return omega, coef, base


def _average(nodes: _NodeSet, initials: tuple, times: np.ndarray) -> list[tuple[np.ndarray, dict]]:
    """Average P over a node set for each initial state, in one ``_evaluate`` pass.

    Each chunk's terms carry one coefficient set per state.  Each sum is
    divided by the summed weights, in place.  Each state's metadata adds the
    evaluator's bin count and its error bound, in units of the averaged
    probability.
    """
    mass = 0.0

    def chunks():
        nonlocal mass
        for chunk in nodes.chunks:
            mass += chunk[1].sum()
            chunk = _terms(initials, *chunk)  # rebinding drops the weights before the evaluator sums the terms
            yield chunk

    values, n_bins, bounds = _evaluate(chunks(), nodes.band, times)
    return [(np.divide(v, mass, out=v), {**nodes.meta, "evaluator": "binned", "n_bins": n_bins, "error_bound": b / mass})
            for v, b in zip(values, bounds)]


def _clip_probabilities(values: np.ndarray) -> np.ndarray:
    if not (values.min() >= -1e-6 and values.max() <= 1.0 + 1e-6):  # NaN fails too
        raise NumericalError(
            f"averaged probabilities left [0, 1] by more than 1e-6: "
            f"range [{values.min()!r}, {values.max()!r}]"
        )
    return np.clip(values, 0.0, 1.0, out=values)  # callers pass their own arrays


def disorder_average_quadrature(p: ExchangeParams, spec: NoiseSpec, initial: str, times,
                                q: Optional[QuadratureSpec] = None,
                                check_convergence: bool = False) -> ProbabilityTrace:
    """Disorder-averaged return probability by deterministic quadrature.

    With q=None the average runs on the exact 2D reduction over the gap
    j1 - j2 and u = (j1 + j2)/2 - delta_e (see ``polar.reduced_nodes``), sized for
    the grid's t_max, for every noise spec including zero widths.  An
    explicit q gives a tensor rule: Gauss-Hermite in u = delta_e/(2 sigma_e)
    (or pdf-weighted Gauss-Legendre, see QuadratureSpec.delta_e_rule)
    tensored with pdf-weighted Gauss-Legendre over [max(0, j0i - w sigma_ji),
    j0i + w sigma_ji] per coupling, each dimension's weights renormalized by
    its numerically integrated mass.  Zero-sigma dimensions collapse to a
    single node at the mean.

    With check_convergence=True the average is recomputed with doubled node
    counts (in r and in phi on the 2D route); if any point moves by more than
    1e-5 the trace metadata carries quadrature_converged=False and a warning
    string.

    Parameters
    ----------
    p : ExchangeParams
    spec : NoiseSpec
    initial : {"zero", "superposition"}
    times : uniform ascending grid starting at 0, in hbar/j0
    q : QuadratureSpec, optional

    Returns
    -------
    ProbabilityTrace with method="quadrature".

    Raises
    ------
    NumericalError if the average leaves [0, 1] by more than 1e-6.
    """
    return _quadrature_traces(p, spec, (initial,), times, q, check_convergence)[0]


def _quadrature_traces(p: ExchangeParams, spec: NoiseSpec, initials: tuple, times,
                       q: Optional[QuadratureSpec] = None,
                       check_convergence: bool = False) -> list[ProbabilityTrace]:
    """``disorder_average_quadrature`` for each of ``initials``, from one node set.

    The node set is built once and one ``_evaluate`` pass sums every
    state's terms; each trace equals, bit for bit, the one
    ``disorder_average_quadrature`` gives for its state alone.
    """
    times = np.asarray(times, dtype=float)
    _validate_times(times)
    for initial in initials:
        _state(initial)
    from . import polar  # the 2D reduction, which imports this module: MC and fit runs never load it

    # every node set is built, and its counts checked, before the first average
    node_sets = [polar.reduced_nodes(spec, p.j_prime, float(times[-1]), scale) if q is None
                 else _tensor_nodes(spec, q, p.j_prime, float(times[-1]), scale)
                 for scale in ((1, 2) if check_convergence else (1,))]
    averages = _average(node_sets[0], initials, times)
    if check_convergence:
        for (values, meta), (values2, _) in zip(averages, _average(node_sets[1], initials, times)):
            change = float(np.max(np.abs(values2 - values)))
            meta["doubling_max_change"] = change
            meta["quadrature_converged"] = change <= 1e-5
            if change > 1e-5:
                meta["warning"] = f"doubling nodes moved a point by {change:.3e} (> 1e-5)"
    return [ProbabilityTrace(times=times, values=_clip_probabilities(values), initial=initial,
                             method="quadrature", params=p, noise=spec, metadata=meta)
            for initial, (values, meta) in zip(initials, averages)]


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
    p0 + X, X = amp sin^2(omega t / 2) (the state's p0 and amp in
    ``_STATES``), over them; the standard error is the
    sample standard deviation over sqrt(n_samples).  Bit-reproducible for a
    given seed.

    The N samples are nodes of weight 1/N for ``_evaluate``.  Only the three
    draws are held whole: each evaluator pass forms one block of
    _SMALL_BLOCK samples' terms at a time.  Up to one block the trace is
    bit for bit that of one whole pass; past it the sums round differently.
    The band is ``_band`` over the u and gap brackets of the draws' ranges
    (``_brackets``), as for the tensor rule, so no frequency is formed
    before the first pass checks it on the bin grid.  E[X] is
    mean(amp)/2 - sum_k amp_k / (2 N) cos(omega_k t), on that band
    [om_lo, om_max].  E[X^2] is the mean of amp^2 (3/8 - cos(omega t)/2
    + cos(2 omega t)/8); its cos(omega t) part is summed in the mean's pass,
    as a second coefficient set, and its cos(2 omega t) part on
    [2 om_lo, 2 om_max], whose phase is checked on om_max t_max like the
    others.  The standard error is
    sqrt(max(E[X^2] - E[X]^2, 0) / (N - 1)), and at t = 0, where the mean is
    exactly p0, it is 0, as it is at every time when the u bracket and the
    gap bracket are each one point (zero noise, or widths that round away
    in u and the gap): every sample then shares u and gap, and so omega and amp
    up to the rounding of its terms, and the difference would leave a
    rounding residue.  With b1 the mean's evaluator bound and b2 the
    summed bounds of the two E[X^2] sums, a standard error is off by at most
    sqrt(b2 + 2 |E[X]| b1 + b1^2) / sqrt(N - 1).  The metadata records the
    mean's ``n_bins`` and ``error_bound`` (b1) and that standard-error bound
    at the largest |E[X]| (``stderr_error_bound``).
    """
    times = np.asarray(times, dtype=float)
    _validate_times(times)
    p0, amp_of = _state(initial)
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples!r}")
    j1, j2, delta_e = sample_noise(np.random.default_rng(seed), spec, size=n_samples)

    def blocks():  # each block's omega, amp and amp^2
        for s in range(0, n_samples, _SMALL_BLOCK):
            block = j1[s:s + _SMALL_BLOCK], j2[s:s + _SMALL_BLOCK], delta_e[s:s + _SMALL_BLOCK]
            omega, amp_zero, amp_sup = oscillation_terms(p.j_prime, *block)
            amp = amp_of(amp_zero, amp_sup)
            yield omega, amp, amp * amp

    # the band brackets omega over the draws' ranges, as the tensor rule's does over its nodes'; it is
    # taken before any frequency is formed, and the first pass checks it on the bin grid
    u_range, gap_range = _brackets(j1, j2, delta_e)
    band = _band(p.j_prime, u_range, gap_range)
    # the cos(2 omega t) sum needs the most bins: it goes first, so a band past the cap costs no sum
    (twice,), _, (b_twice,) = _evaluate(((2.0 * om, sq[None] / (8.0 * n_samples), [0.0]) for om, _, sq in blocks()),
                                        (2.0 * band[0], 2.0 * band[1]), times, om_phase=band[1])
    # the mean and the second moment's cos(omega t) part share omega and the band: one pass, two
    # sets; each block adds its sums over N, so one block gives mean(amp), bit for bit
    (mean, second), n_bins, (b1, b_once) = _evaluate(
        ((om, np.stack((a, sq)) / (-2.0 * n_samples), [0.5 * (a.sum() / n_samples), 0.375 * (sq.sum() / n_samples)])
         for om, a, sq in blocks()), band, times)
    mean[0] = 0.0  # sin(0) = 0: the mean at t = 0 is exactly p0
    var = np.maximum(second + twice - mean * mean, 0.0)  # E[X^2] - E[X]^2
    var[0] = 0.0
    if u_range[0] == u_range[1] and gap_range[0] == gap_range[1]:  # samples that do not spread
        var[:] = 0.0
    dof = n_samples - 1 or math.inf  # one sample has no spread: its errors are 0
    stderr_bound = math.sqrt((b_once + b_twice + (2.0 * np.abs(mean).max() + b1) * b1) / dof)
    return ProbabilityTrace(
        times=times,
        values=_clip_probabilities(np.add(p0, mean, out=mean)),
        initial=initial,
        method="monte-carlo",
        params=p,
        noise=spec,
        mc_std_errors=np.sqrt(var / dof),
        metadata={"n_samples": n_samples, "seed": seed, "n_bins": n_bins, "error_bound": b1,
                  "stderr_error_bound": stderr_bound},
    )
