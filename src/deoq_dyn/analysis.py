"""Envelope extraction, stretched-exponential fitting, and unit conversion.

A disorder-averaged trace oscillates under a decaying upper envelope.  The
envelope is collected from the trace's strict local maxima and fitted with

    F(t) = p_infinity + (p_start - p_infinity) * exp(-(t / t2_star)^alpha)

by bounded least squares.  The amplitudes p_infinity and p_start enter
linearly and are solved in closed form for each (t2_star, alpha), so the fit
searches those two only: a fixed grid, then one Nelder-Mead polish, with no
restarts and no start guesses.  T2* comes out in hbar/j0 units;
``PhysicalScale`` converts to seconds and ``quality_factor`` maps the
dimensionless product j0*T2* to Q = exp(-1/(j0 T2*)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .disorder import ProbabilityTrace

HBAR_EV_S = 6.582119569e-16

# fitted envelope amplitude below this is indistinguishable from no decay
_NO_DECAY_AMPLITUDE = 0.02

_ALPHA_BOUNDS = (0.5, 4.0)

# the fit's search box in (log(t2_star / t_max), alpha), and the grid over
# it whose best profiled SSE starts the polish; over the 207 fits of the
# benchmark and the default grids, a 61 x 18 grid left one T2* 16% off
_BOX_LO = np.array([math.log(1e-9), _ALPHA_BOUNDS[0]])
_BOX_HI = np.array([math.log(10.0), _ALPHA_BOUNDS[1]])
_LOG_T2_GRID = np.linspace(_BOX_LO[0], _BOX_HI[0], 121)
_ALPHA_GRID = np.linspace(_BOX_LO[1], _BOX_HI[1], 36)


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
    """(t=0, v0) plus strict local maxima; plateaus contribute midpoints."""
    pts = [(times[0], values[0])]
    n = len(values)
    i = 1
    while i < n - 1:
        if values[i] > values[i - 1]:
            j = i
            while j + 1 < n and values[j + 1] == values[j]:
                j += 1
            if j + 1 < n and values[j + 1] < values[j]:
                mid = (i + j) // 2
                pts.append((times[mid], values[mid]))
            i = j + 1
        else:
            i += 1
    return np.array(pts, dtype=float)


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


def _amplitudes(t: np.ndarray, v: np.ndarray, log_t2, alpha, fixed_start: Optional[float]):
    """Best (sse, p_inf, p_start) at each (log t2, alpha) column, in closed form.

    t and v are the point times and values as (n, 1) columns, t in the unit
    of t2.  With t2 and alpha fixed, F = p_inf + (p_start - p_inf) e with
    e = exp(-(t/t2)^alpha) is linear in the amplitudes (variable projection,
    Golub & Pereyra 1973).  Under 0 <= p_inf <= p_start <= 1 the optimum is
    the unconstrained least-squares line if it is feasible, and otherwise the
    best of the edges p_inf = 0, p_start = 1 and p_inf = p_start.  The line
    is clipped into the constraints, which leaves it unchanged when feasible
    and no better than the edges when not, so the best of the four is the
    optimum.  A fixed start leaves only p_inf, clipped to [0, fixed_start].
    An amplitude the points do not determine (e equal at every point) is 0.
    """
    e = np.exp(-((t / np.exp(log_t2)) ** alpha))

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros_like(num), where=den > 0)

    def pinned(start):  # p_start = start, p_inf clipped to [0, start]
        a = 1.0 - e
        p_inf = np.clip(ratio(np.sum(a * (v - start * e), 0), np.sum(a * a, 0)), 0.0, start)
        return p_inf, np.full_like(p_inf, start)

    if fixed_start is not None:
        candidates = [pinned(fixed_start)]
    else:
        ec = e - e.mean(0)
        slope = ratio(np.sum(ec * (v - v.mean()), 0), np.sum(ec * ec, 0))
        line = v.mean() - slope * e.mean(0)
        top = np.clip(line + slope, 0.0, 1.0)
        level = np.full_like(top, np.clip(v.mean(), 0.0, 1.0))
        candidates = [
            (np.minimum(np.clip(line, 0.0, 1.0), top), top),
            pinned(1.0),
            (np.zeros_like(top), np.clip(ratio(np.sum(e * v, 0), np.sum(e * e, 0)), 0.0, 1.0)),
            (level, level),
        ]
    p_inf, p_start = (np.array(c)[:, None] for c in zip(*candidates))
    sse = np.sum((p_inf + (p_start - p_inf) * e - v) ** 2, axis=1)
    best = (np.argmin(sse, axis=0), np.arange(e.shape[1]))
    return sse[best], p_inf[:, 0][best], p_start[:, 0][best]


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
    (log(t2_star / t_max), alpha) only: the profiled SSE on a 121 x 36 grid
    spanning the whole box, then one Nelder-Mead polish from the grid's best
    point, with the parameters clipped to the box inside the objective.
    The result is deterministic, and scaling the times and t_max scales
    t2_star alike.

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
    u, v = te[:, None] / t_max, ve[:, None]
    grid = np.array([_amplitudes(u, v, _LOG_T2_GRID, a, fixed_start)[0] for a in _ALPHA_GRID])
    i, k = np.unravel_index(np.argmin(grid), grid.shape)

    def profiled(x):  # [sse, p_inf, p_start] at x clipped into the box
        log_t2, alpha = np.clip(x, _BOX_LO, _BOX_HI)
        return [float(c[0]) for c in _amplitudes(u, v, np.array([log_t2]), alpha, fixed_start)]

    res = minimize(
        lambda x: profiled(x)[0],
        [_LOG_T2_GRID[k], _ALPHA_GRID[i]],
        method="Nelder-Mead",
        options=dict(xatol=1e-10, fatol=1e-14, maxiter=4000),
    )
    log_t2, alpha = np.clip(res.x, _BOX_LO, _BOX_HI)
    sse, p_inf, p_start = profiled(res.x)
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
    tail_mean = float(np.mean(values[int(np.ceil(0.9 * len(values))):]))
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
