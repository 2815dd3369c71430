"""Envelope extraction, stretched-exponential fitting, and unit conversion.

A disorder-averaged trace oscillates under a decaying upper envelope.  The
envelope is collected from the trace's strict local maxima and fitted with

    F(t) = p_infinity + (p_start - p_infinity) * exp(-(t / t2_star)^alpha)

by bounded least squares.  The amplitudes p_infinity and p_start enter
linearly and are solved in closed form for each (t2_star, alpha), so the fit
searches those two only: Levenberg-Marquardt steps on the
variable-projection residual, from the line through the points on a
Weibull plot, with no restarts.  T2* comes out in hbar/j0 units;
``PhysicalScale`` converts to seconds and ``quality_factor`` maps the
dimensionless product j0*T2* to Q = exp(-1/(j0 T2*)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .disorder import ProbabilityTrace

HBAR_EV_S = 6.582119569e-16

# fitted envelope amplitude below this is indistinguishable from no decay
_NO_DECAY_AMPLITUDE = 0.02

_ALPHA_BOUNDS = (0.5, 4.0)

# the fit's search box in (log(t2_star / t_max), alpha)
_BOX_LO = np.array([math.log(1e-9), _ALPHA_BOUNDS[0]])
_BOX_HI = np.array([math.log(10.0), _ALPHA_BOUNDS[1]])


@dataclass(frozen=True)
class EnvelopeFit:
    """Result of a stretched-exponential envelope fit.

    status is "converged", "no-decay" (amplitude under 0.02 or t2_star
    beyond 5 t_max, reported with t2_star = inf), or "insufficient-peaks"
    (fewer than 4 points to fit, parameters are nan).
    """

    p_infinity: float
    p_start: float
    t2_star: float
    alpha: float
    sse: float
    status: str

    def __post_init__(self) -> None:
        if self.status not in ("converged", "no-decay", "insufficient-peaks"):
            raise ValueError(f"unknown fit status {self.status!r}")
        if self.status == "converged":
            if not (self.t2_star > 0):
                raise ValueError(f"converged fit requires t2_star > 0, got {self.t2_star!r}")
            if not (_ALPHA_BOUNDS[0] <= self.alpha <= _ALPHA_BOUNDS[1]):
                raise ValueError(f"alpha out of bounds: {self.alpha!r}")
            if not (0.0 <= self.p_infinity <= self.p_start <= 1.0):
                raise ValueError(
                    f"need 0 <= p_infinity <= p_start <= 1, got "
                    f"({self.p_infinity!r}, {self.p_start!r})"
                )


@dataclass(frozen=True)
class PhysicalScale:
    """Physical exchange energy fixing the simulation time unit."""

    j0_ev: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.j0_ev) and self.j0_ev > 0):
            raise ValueError(f"j0_ev must be finite and > 0, got {self.j0_ev!r}")

    @property
    def time_unit_s(self) -> float:
        """Seconds per dimensionless time unit, hbar / j0."""
        return HBAR_EV_S / self.j0_ev


def to_physical_time(t_dimensionless, scale: PhysicalScale):
    """Convert times in hbar/j0 units to seconds."""
    out = np.asarray(t_dimensionless, dtype=float) * scale.time_unit_s
    return float(out) if np.ndim(t_dimensionless) == 0 else out


def quality_factor(j0_t2_star: float) -> float:
    """Q = exp(-1/(j0 T2*)) in (0, 1]; an infinite argument gives exactly 1."""
    if math.isinf(j0_t2_star) and j0_t2_star > 0:
        return 1.0
    if not (j0_t2_star > 0):
        raise ValueError(f"j0_t2_star must be > 0 or +inf, got {j0_t2_star!r}")
    return math.exp(-1.0 / j0_t2_star)


def _envelope_points(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(t=0, v0) plus strict local maxima; plateaus contribute midpoints.

    Runs of equal values that are higher than the runs on both sides are
    the maxima; a run from ``start`` to the next run's start gives the
    point at (start + next_start - 1) // 2.
    """
    starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
    run = values[starts]
    peak = np.flatnonzero((run[1:-1] > run[:-2]) & (run[1:-1] > run[2:])) + 1
    mid = np.r_[0, (starts[peak] + starts[peak + 1] - 1) // 2]
    return np.column_stack((times[mid], values[mid]))


def extract_upper_envelope(trace: ProbabilityTrace) -> np.ndarray:
    """Upper-envelope points of a trace as an (n, 2) array of (time, value).

    The first point is always (0, values[0]); the rest are the strict local
    maxima (plateau runs that rise then fall contribute their midpoint).
    Fewer than 4 points means the downstream fit reports
    insufficient-peaks.

    Parameters
    ----------
    trace : ProbabilityTrace with at least 3 samples.
    """
    if len(trace.times) < 3:
        raise ValueError("envelope extraction needs a trace with >= 3 points")
    return _envelope_points(trace.times, trace.values)


def _amplitudes(e: np.ndarray, v: np.ndarray, fixed_start: Optional[float]) -> tuple[float, float, float]:
    """Best (sse, p_inf, p_start) at one (t2, alpha), in closed form.

    e holds exp(-(t/t2)^alpha) at the points and v the point values.  With
    t2 and alpha fixed, F = p_inf + (p_start - p_inf) e is linear in the
    amplitudes (variable projection, Golub & Pereyra 1973).  Under
    0 <= p_inf <= p_start <= 1 the optimum is the unconstrained
    least-squares line if it is feasible, and otherwise the best of the
    edges p_inf = 0, p_start = 1 and p_inf = p_start.  The line is clipped
    into the constraints, which leaves it unchanged when feasible and no
    better than the edges when not, so the best of the four is the optimum.
    A fixed start leaves only p_inf, clipped to [0, fixed_start].  An
    amplitude the points do not determine (e equal at every point) is 0.
    """

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    def clip(x, hi=1.0):
        return min(max(x, 0.0), hi)

    def pinned(start):  # p_start = start, p_inf clipped to [0, start]
        a = 1.0 - e
        return clip(ratio(a @ (v - start * e), a @ a), start), start

    if fixed_start is not None:
        candidates = [pinned(fixed_start)]
    else:
        e_mean, v_mean = e.sum() / len(e), v.sum() / len(v)
        ec = e - e_mean
        slope = ratio(ec @ (v - v_mean), ec @ ec)
        line = v_mean - slope * e_mean
        top = clip(line + slope)
        level = clip(v_mean)
        candidates = [(clip(line, top), top), pinned(1.0), (0.0, clip(ratio(e @ v, e @ e))), (level, level)]
    p_inf, p_start = np.array(candidates).T[:, :, None]
    sse = np.sum((p_inf + (p_start - p_inf) * e - v) ** 2, axis=1)
    best = int(np.argmin(sse))
    return float(sse[best]), float(p_inf[best, 0]), float(p_start[best, 0])


def _start(u: np.ndarray, v: np.ndarray, fixed_start: Optional[float]) -> list:
    """(log(t2 / t_max), alpha) of the Weibull-plot line through the points, where the polish starts.

    u and v are the point times (in units of t_max) and values.  A
    stretched exponential is a straight line on a Weibull plot: with
    y = (v - p_inf) / (p_start - p_inf), log(-log y) = alpha log u -
    alpha log t2 (Weibull 1951; Williams & Watts 1970).  p_start is the
    fixed start or the largest of the first 5% of the values, and p_inf the
    mean of the last tenth.  The points with u > 0 and y in (0.02, 0.98)
    give the line by least squares in closed form; its slope is alpha and
    its root log t2, both clipped into the box.  With fewer than two such
    points, or a slope that is not positive, the start is alpha = 1,
    t2 = 0.3 t_max.
    """
    n = len(v)
    p_start = fixed_start if fixed_start is not None else float(v[:math.ceil(0.05 * n)].max())
    p_inf = float(v[-math.ceil(0.1 * n):].mean())
    if p_inf < p_start:
        y = (v - p_inf) / (p_start - p_inf)
        band = (u > 0) & (y > 0.02) & (y < 0.98)
        if np.count_nonzero(band) >= 2:
            x, z = np.log(u[band]), np.log(-np.log(y[band]))
            x_mean, z_mean = x.sum() / len(x), z.sum() / len(z)
            xc = x - x_mean
            slope = float(xc @ (z - z_mean)) / float(xc @ xc)
            if slope > 0:
                return [min(max(x_mean - z_mean / slope, _BOX_LO[0]), _BOX_HI[0]),
                        min(max(slope, _BOX_LO[1]), _BOX_HI[1])]
    return [math.log(0.3), 1.0]


def _project_out(cols: list, basis: list) -> list:
    """Each of ``cols`` less its projection on the span of ``basis``.

    Gram-Schmidt, run twice per basis column (Giraud et al. 2005), makes the
    basis orthonormal; a column in the span of the ones before it, to 1e-13
    of its norm, adds nothing.
    """
    q = []
    for b in basis:
        c = b
        for _ in range(2):
            for qi in q:
                c = c - (qi @ c) * qi
        norm = math.sqrt(c @ c)
        if norm > 1e-13 * math.sqrt(b @ b):
            q.append(c / norm)
    for qi in q:
        cols = [c - (qi @ c) * qi for c in cols]
    return cols


@dataclass(frozen=True)
class Minimum:
    """Where a polish stopped, its sum of squares, and the residual calls it took."""

    x: np.ndarray
    fun: float
    nfev: int


def minimize(residual: Callable, x0, lo, hi) -> Minimum:
    """Levenberg-Marquardt minimum of |r(x)|^2 over two coordinates in the box [lo, hi], from x0.

    ``residual(x)`` returns the residual vector r and its two derivative
    columns J = (j0, j1).  Each trial step d minimizes
    |r + J d|^2 + lam |D d|^2, with D the largest column norms of J seen so
    far (More 1978): it solves (J^T J + lam D^2) d = -J^T r.  J^T J and
    J^T r are formed once per accepted point, with j1's part orthogonal to
    j0, and the damped 2 x 2 system is solved in Python floats, so a
    rejected step costs no array operation.  Eliminating d0 leaves the
    pivot a11 + lam s1^2 - a01^2 / (a00 + lam s0^2) as a sum of
    non-negative terms, the squared orthogonal part among them, so it does
    not cancel where j0 and j1 are nearly parallel.  A coordinate on a
    bound whose descent direction leaves the box is held there; one that
    the step takes out of the box stops on its bound, and the other is
    solved again.  A step that lowers |r|^2 is taken and lam rescaled by
    its gain ratio (Nielsen 1999); otherwise lam grows by 2, 4, 8, ...  The
    run stops once a step is under 1e-12 of max |x|, when no coordinate
    can move, or after 200 residual calls.
    """

    def sums(r, jac):  # J^T J, J^T r, k = a01 / a00, and |p|^2 and p.r for p = j1 - k j0
        j0, j1 = jac
        a = [[float(j0 @ j0), float(j0 @ j1)], [0.0, float(j1 @ j1)]]
        a[1][0] = a[0][1]
        k = a[0][1] / a[0][0] if a[0][0] > 0 else 0.0
        perp = j1 - k * j0
        return a, [float(j0 @ r), float(j1 @ r)], k, float(perp @ perp), float(perp @ r)

    lo, hi = [float(b) for b in lo], [float(b) for b in hi]
    x = [min(max(float(c), b_lo), b_hi) for c, b_lo, b_hi in zip(x0, lo, hi)]
    r, jac = residual(np.array(x))
    fun, nfev, lam, grow = float(r @ r), 1, 1e-3, 2.0
    a, g, k, gram, h = sums(r, jac)
    scale = [math.sqrt(a[0][0]), math.sqrt(a[1][1])]
    while nfev < 200:
        free = [not ((x[i] <= lo[i] and g[i] > 0) or (x[i] >= hi[i] and g[i] < 0)) for i in (0, 1)]
        step = [0.0, 0.0]
        while True:
            solve = [i for i in (0, 1) if free[i] and scale[i] > 0]
            if len(solve) == 2:
                d00 = a[0][0] + lam * scale[0] ** 2
                c = a[0][1] / d00
                pivot = gram + (k - c) ** 2 * a[0][0] + lam * (scale[0] * c) ** 2 + lam * scale[1] ** 2
                step[1] = -(h + (k - c) * g[0]) / pivot  # g1 - c g0 = h + (k - c) g0
                step[0] = -(g[0] + a[0][1] * step[1]) / d00
            elif solve:
                i = solve[0]
                step[i] = -(g[i] + a[i][1 - i] * step[1 - i]) / (a[i][i] + lam * scale[i] ** 2)
            # a coordinate the step takes out of the box stops on its bound,
            # and the other is solved again with it held there
            out = [i for i in solve if not lo[i] <= x[i] + step[i] <= hi[i]]
            if not out:
                break
            for i in out:
                step[i] = min(max(x[i] + step[i], lo[i]), hi[i]) - x[i]
                free[i] = False
        if max(abs(step[0]), abs(step[1])) <= 1e-12 * max(abs(x[0]), abs(x[1])):
            break
        trial = [min(max(x[i] + step[i], lo[i]), hi[i]) for i in (0, 1)]
        # |r|^2 - |r + J d|^2
        predicted = -(2.0 * (g[0] * step[0] + g[1] * step[1]) + a[0][0] * step[0] ** 2
                      + 2.0 * a[0][1] * step[0] * step[1] + a[1][1] * step[1] ** 2)
        r_trial, jac_trial = residual(np.array(trial))
        nfev += 1
        fun_trial = float(r_trial @ r_trial)
        if fun_trial < fun:
            gain = (fun - fun_trial) / predicted if predicted > 0 else 1.0
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            x, r, fun, grow = trial, r_trial, fun_trial, 2.0
            a, g, k, gram, h = sums(r, jac_trial)
            scale = [max(scale[i], math.sqrt(a[i][i])) for i in (0, 1)]
        else:
            lam, grow = lam * grow, grow * 2.0
    return Minimum(np.array(x), fun, nfev)


def fit_envelope(
    points,
    fixed_start: Optional[float] = None,
    t_max: Optional[float] = None,
) -> EnvelopeFit:
    """Least-squares stretched-exponential fit of envelope points.

    Minimizes the sum of squared residuals of
    F(t) = p_infinity + (p_start - p_infinity) exp(-(t/t2_star)^alpha)
    under 0 <= p_infinity <= p_start <= 1, t2_star in [1e-9, 10] t_max and
    alpha in [0.5, 4].  For fixed (t2_star, alpha) the amplitudes have a
    closed form (``_amplitudes``), so the search runs over
    (log(t2_star / t_max), alpha) only.  The start is the Weibull-plot line
    through the points (``_start``, in closed form).  From there
    ``minimize`` takes box-projected Levenberg-Marquardt steps on the
    residual of the best amplitudes, with Kaufman's Jacobian: the derivative
    of F with the amplitudes held fixed, less its projection on the
    amplitudes that are free of their constraints (Kaufman 1975; Golub &
    Pereyra 2003).  The result is deterministic, and scaling the times and
    t_max scales t2_star alike.

    Parameters
    ----------
    points : (n, 2) array of finite (time, value), times non-negative
        increasing.
    fixed_start : float, optional
        Pin p_start (the zero-state envelope starts at exactly 1).
    t_max : float, optional
        Scale for the t2_star bounds, defaults to the last point time.

    Returns
    -------
    EnvelopeFit
        status "insufficient-peaks" with nan parameters when fewer than 4
        points are supplied; "no-decay" with t2_star = inf when the fitted
        amplitude is under 0.02 or the fitted t2_star exceeds 5 t_max.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array of (time, value)")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    if pts.shape[0] < 4:
        return EnvelopeFit(math.nan, math.nan, math.nan, math.nan, math.nan, "insufficient-peaks")
    te, ve = pts.T
    if te[0] < 0 or np.any(np.diff(te) <= 0):
        raise ValueError("point times must be non-negative and increasing")
    if fixed_start is not None and not (0.0 <= fixed_start <= 1.0):
        raise ValueError(f"fixed_start must lie in [0, 1], got {fixed_start!r}")
    if t_max is None:
        t_max = float(te[-1])
    # t2_star ranges over [1e-9, 10] t_max, both ends representable
    if not (1e-9 * t_max > 0 and math.isfinite(10.0 * t_max)):
        raise ValueError(f"t_max must be finite with 1e-9 t_max > 0 in floating point, got {t_max!r}")

    # in units of t_max the search is the same for every time scale
    u, v = te / t_max, ve
    log_u = np.log(u, out=np.zeros_like(u), where=u > 0)

    def profiled(log_t2, alpha):  # sse, p_inf, p_start, e and (u / t2)^alpha at one point
        z = (u / np.exp(log_t2)) ** alpha
        e = np.exp(-z)
        return (*_amplitudes(e, v, fixed_start), e, z)

    def residual(x):  # F - v and its Kaufman Jacobian, one column per coordinate (log t2, alpha)
        log_t2, alpha = x
        _, p_inf, p_start, e, z = profiled(log_t2, alpha)
        # dF/dx with the amplitudes held, less its projection on the
        # amplitudes not held at a bound (p_inf = 0, p_start = 1 or fixed)
        de = (p_start - p_inf) * e * z
        free = ([] if p_inf == 0.0 else [1.0 - e]) + (
            [] if fixed_start is not None or p_start == 1.0 else [e])
        return p_inf + (p_start - p_inf) * e - v, _project_out([alpha * de, (log_t2 - log_u) * de], free)

    res = minimize(residual, _start(u, v, fixed_start), _BOX_LO, _BOX_HI)
    log_t2, alpha = res.x
    sse, p_inf, p_start, _, _ = profiled(log_t2, alpha)
    t2 = t_max * float(np.exp(log_t2))
    if (p_start - p_inf) < _NO_DECAY_AMPLITUDE or t2 > 5.0 * t_max:
        return EnvelopeFit(p_inf, p_start, math.inf, float(alpha), sse, "no-decay")
    return EnvelopeFit(p_inf, p_start, t2, float(alpha), sse, "converged")


def fit_trace(trace: ProbabilityTrace) -> EnvelopeFit:
    """Extract, condition, and fit the upper envelope of a trace.

    A monotone non-increasing trace has no carrier oscillation and is
    fitted directly on a thinned copy of its own samples.  Otherwise three
    conditioning steps keep the least-squares problem well posed:

    * the mandatory (0, v0) envelope point is dropped when it sits below the
      first maximum, since then it samples the oscillation floor (the
      superposition probability starts at its minimum 0.5);
    * when fewer than 6 envelope points stand clear of the tail level, the
      trace's local minima are reflected about the tail mean and appended,
      which pins t2_star and alpha for decays faster than one oscillation
      period; and
    * when fewer than 4 points remain, late-time samples are appended so the
      asymptote is still constrained.

    The zero-state fit pins p_start = 1; the superposition fit leaves it
    free (its envelope starts near 0.933 depending on parameters).
    """
    times = trace.times
    values = trace.values
    fixed = 1.0 if trace.initial == "zero" else None
    if np.all(np.diff(values) <= 1e-12):
        # no carrier oscillation: the samples themselves are the envelope
        idx = np.unique(np.linspace(0, len(times) - 1, 200).astype(int))
        pts = np.column_stack([times[idx], values[idx]])
        return fit_envelope(pts, fixed_start=fixed, t_max=float(times[-1]))
    env = extract_upper_envelope(trace)
    if len(env) >= 2 and env[0, 1] < env[1, 1]:
        env = env[1:]
    # the last tenth of the samples, and at least the last one
    tail_mean = float(np.mean(values[min(int(np.ceil(0.9 * len(values))), len(values) - 1):]))
    amp0 = max(abs(values[0] - tail_mean), float(values.max() - values.min()))

    def informative(pts):
        return int(np.sum(pts[:, 1] - tail_mean > 0.02 * amp0)) if len(pts) else 0

    if informative(env) < 6:
        low = _envelope_points(times, -values)
        if len(low) >= 2 and low[0, 1] < low[1, 1]:
            low = low[1:]
        reflected = np.column_stack([low[:, 0], 2.0 * tail_mean + low[:, 1]])
        env = np.vstack([env, reflected])
    if len(env) < 4:
        idx = np.linspace(0.55 * len(times), len(times) - 1, 8).astype(int)
        env = np.vstack([env, np.column_stack([times[idx], values[idx]])])
    _, keep = np.unique(env[:, 0], return_index=True)
    env = env[keep]
    return fit_envelope(env, fixed_start=fixed, t_max=float(times[-1]))
