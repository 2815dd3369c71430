"""The exact 2D reduction of the disorder average and its polar rule (``reduced_nodes``).

The return probability sees the noise only through the detuning d = j' - u,
u = (j1 + j2)/2 - delta_e, and the gap j1 - j2.  ``reduced_nodes``
integrates (j1 + j2)/2 and delta_e analytically, which leaves the extended
skew-normal weight W(gap, u) over the gap and u, and integrates that.  In
the plane (d, c) = r (cos phi, sin phi), c = sqrt(0.75) gap, the frequency
omega is the radius r, amp_zero = sin^2 phi and amp_sup = sin 2 phi, so
only r carries the time: the average is base + sum_k coef_k cos(r_k t)
over the r nodes, each coefficient a sum over phi in closed form (product
rules in polar coordinates: Stroud 1971; Davis & Rabinowitz 1984).  The
rule hands the evaluator one term per r node, which grows like t_max, where
a rule in (gap, u) needs t_max^2 nodes.

W is kept on its 6-sigma truncation region, a polygon in (d, c) split at
c = 0 by the |gap| kink.  Each circle meets the region in arcs, between the
closed-form angles where it crosses the region's lines and the cut lines:
c = 0, and u = u_k, u_k + w tau where the normal-CDF step is sharp
(narrower than _SHARP_STEP of the Gaussian's least deviation).  An arc
takes Gauss-Legendre nodes in phi by the weight's variation along it (its
Mahalanobis length and the step's).  The r rule is cut where the arc
structure changes in a way that matters, graded where an arc appears at a
line on which the weight does not vanish, and sized per panel by
``_gauss_points`` from the phase span t_max times the panel's length and
the width and depth of F(r), the weight summed over the circle, there:
closed-form lower bounds from the Gaussian's axes and its distance from
the panel, and the widths of the steps and hard lines it meets.  The two
limits of W that are 1D, a Gaussian in u at one gap and u fixed by the
gap, take ``panel_rule`` in their one variable, sized by the same
estimate.
"""

from __future__ import annotations

import math

import numpy as np

from . import disorder

# d = j' - u and c = sqrt(0.75) gap span the plane of the polar rule, where
# omega = sqrt(d^2 + c^2) is the radius
_C_PER_GAP = math.sqrt(0.75)

# Gauss-Legendre nodes each arc of the 2D rule adds to its share
_PANEL_MARGIN = 8

# Gauss-Legendre nodes per standard deviation along an arc of the 2D rule: a
# Gaussian over +-6 deviations takes about 25 for 1e-15
_NODES_PER_SIGMA = 2.5

# the 2D rule sizes each panel and arc for this error (see _gauss_points), on
# Gauss-Legendre ellipses up to rho = 3 + 2 sqrt(2), which pass a singularity
# one panel length beyond an end of the panel
_RULE_TOLERANCE = 1e-11
_ETA_MAX = math.log(3.0 + 2.0 * math.sqrt(2.0))

# a normal-CDF step of the 2D rule narrower than this many of the Gaussian's
# least deviations is cut out of the arcs, as a band of its own; a wider one
# is resolved with the Gaussian (cutting every step puts 54,403 nodes, not
# 34,406, on the sigma_e 1, sigma_j 0.5 cell at t_max 100)
_SHARP_STEP = 0.5

# the r panel above the foot of a hard line of the 2D rule (an edge where the
# weight does not vanish, or a cut step) is graded over at most this many of
# the Gaussian's least deviations
_GRADED_SIGMAS = 4.0


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF 0.5 erfc(-x / sqrt(2)), elementwise.

    Outside (-38.5, 8.5) the value rounds to exactly 0 or 1 and is set so,
    without evaluating erfc; the rest takes ``math.erfc`` one by one.
    """
    out = (x > 0.0).astype(float)
    live = (x > -38.5) & (x < 8.5)
    out[live] = 0.5 * np.fromiter(map(math.erfc, (-x[live] / math.sqrt(2.0)).tolist()), float)
    return out


def _gauss_points(phase, spread, depth=0.0) -> np.ndarray:
    """Gauss-Legendre points for _RULE_TOLERANCE on a Gaussian times cos(omega x) over a panel.

    ``phase`` is the span of omega x over the panel in radians, ``spread``
    that of the Gaussian's argument in standard deviations, and ``depth``
    the log of the Gaussian's largest value on the panel below its peak,
    which loosens the tolerance there by that factor.  On the Bernstein
    ellipse rho = e^eta, reaching sinh(eta) / 2 of each span off the real
    axis, the cosine grows by exp(phase sinh(eta) / 2) and the Gaussian by
    exp(spread^2 sinh(eta)^2 / 8), and an n-point rule errs by about their
    product times rho^(-2 n) (Trefethen 2008, SIAM Rev. 50).  n is the
    least over eta <= _ETA_MAX of (the exponent - ln _RULE_TOLERANCE -
    depth) / (2 eta), and the panel's own tolerance is at most 1e-2.  For a
    pure cosine that is phase / 4 + 3.5 phase^(1/3) + O(1), the cliff at
    1/4 node per radian and its transition (37 points at 81 radians, where
    1e-11 takes 36).  The counts are floats, whole numbers up to inf, and
    a span past the float range gives inf without a warning: a caller
    checks them against the caps before it casts one to int.
    """
    eta = np.linspace(0.01, _ETA_MAX, 128)[:, None]
    grow = np.sinh(eta)
    with np.errstate(over="ignore"):  # a span past the float range needs inf points
        exponent = (0.5 * np.asarray(phase) * grow + 0.125 * (np.asarray(spread) * grow) ** 2
                    + np.maximum(-math.log(_RULE_TOLERANCE) - np.asarray(depth), math.log(100.0)))
        return np.ceil((exponent / (2.0 * eta)).min(axis=0))


def panel_rule(edges, t_max: float, widths, scale: int, graded=(), depths=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the consecutive panels between ``edges``.

    Panel k of length L carries the phase span t_max L of cos(omega t),
    |d(omega)/dx| <= 1, and a weight of width widths[k] (one width may
    serve every panel); it takes scale times ``_gauss_points`` of both, at
    the weight's depth there, depths[k] (0 by default).  The panels' sum is
    checked against the caps as a float, so that a phase span past the
    float range raises with inf nodes, and only then is each panel's count
    cast to int for its rule.  A panel whose index is in ``graded`` (an
    index past the last panel grades none) starts at a point where the
    integrand grows like sqrt(x - lo): it takes x = lo + L s^2 over s in
    [0, 1], which makes it smooth, sized as a panel twice as long, since
    the node spacing in x reaches twice its mean at s = 1.  The panels'
    rules on [-1, 1] are laid end to end and mapped at once, each node t of
    weight w by its own panel's lo and L: to x = lo + L (t + 1) / 2 of
    weight L w / 2 on a plain panel, and to x = lo + L s^2 of weight L s w,
    s = (t + 1) / 2, on a graded one.
    """
    lengths = np.diff(edges)
    graded = np.isin(np.arange(len(lengths)), list(graded))
    span = lengths * (1 + graded)
    with np.errstate(over="ignore"):
        need = scale * _gauss_points(t_max * span, span / np.asarray(widths), depths)
    disorder._check_node_counts(need.sum())
    counts = need.astype(int)
    x, wx = (np.concatenate(a) for a in zip(*map(disorder._leggauss, counts.tolist())))
    lo, length, graded = (np.repeat(a, counts) for a in (np.asarray(edges)[:-1], lengths, graded))
    half, s = 0.5 * length, 0.5 * (x + 1.0)
    return (np.where(graded, lo + length * s * s, half * x + (lo + half)),
            np.where(graded, length * s * wx, half * wx))


def reduced_nodes(spec: disorder.NoiseSpec, j_prime: float, t_max: float, scale: int = 1) -> disorder._NodeSet:
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

    The truncation keeps gap in m +- w sqrt(V), cut where the gap mass falls
    below Phi(-w), and u in mu +- w sqrt(v + v_e) above u_k - w tau.  Over
    that region ``_polar_nodes`` integrates the weight in polar coordinates
    about (u, gap) = (j', 0), where omega is the radius: each radius node is
    one term (omega, weight, weight amp_zero, weight amp_sup), its sums over
    the angle taken over the arcs of its circle in the region; ``meta``
    records the weight evaluations (``n_nodes``), the terms (``n_r``) and
    the sides of gap = 0 whose normal-CDF step the arcs cut out
    (``cut_steps``).  Zero widths are the limits of these formulas.
    sigma_e = 0 gives tau = 0: Phi is a hard edge at u = |gap|/2.  One zero
    sigma_j gives v = 0 and kappa = +-1/2: s is fixed by gap, the gap mass
    has a hard edge on one side only and Phi is 1.  The two limits that are
    1D take ``panel_rule`` in their one variable, its terms from
    ``oscillation_terms``: both sigma_j zero leave a Gaussian in u at the
    one gap m, and v + v_e = 0 leaves u = mu(gap) along the gap, split at
    0; with no noise at all, one node.  A span that rounds away at its
    mean, so that it has no length, takes the zero-width limit too: the gap
    span at m zeroes both coupling variances, and the u span at (j01 +
    j02)/2 zeroes v + v_e.  ``scale`` multiplies every count of a rule.

    Each rule is checked against the caps on the counts ``panel_rule``
    sizes for it, as floats.  The polar set-up forms products of the
    variances, which overflow for widths near 1e150, so it checks them
    before it forms them and names inf nodes if they overflow.
    Widths above 1e153, whose variances' sums would overflow, raise with
    inf nodes before any of this, and a quadratic form that rounds to 0
    or below raises ValueError, as does a node count that rounds to nan.
    """
    w = disorder.QuadratureSpec.truncation_width
    if max(spec.sigma_e, spec.sigma_j1, spec.sigma_j2) > 1e153:
        disorder._check_node_counts(math.inf)
    var1, var2, v_e = spec.sigma_j1 ** 2, spec.sigma_j2 ** 2, 2.0 * spec.sigma_e ** 2
    m, mu0 = spec.j01 - spec.j02, 0.5 * (spec.j01 + spec.j02)
    if m - w * math.sqrt(var1 + var2) == m + w * math.sqrt(var1 + var2):  # rounds away at m
        var1 = var2 = 0.0
    v_gap = var1 + var2
    kappa = (var1 - var2) / (2.0 * v_gap) if v_gap > 0 else 0.0
    v = var1 * var2 / v_gap if v_gap > 0 else 0.0
    v_u = v + v_e
    half_u = w * math.sqrt(v_u)
    if mu0 - half_u == mu0 + half_u:  # rounds away at the mean
        v_u = 0.0
    # mu = |gap|/2 at g_hi >= m >= g_lo; beyond them the gap mass falls to 0
    # over widths sqrt(v) / (1/2 -+ kappa); kappa = +-1/2 has no g_-+
    reach = mu0 - kappa * m
    g_hi, width_hi, g_lo, width_lo = math.inf, 0.0, -math.inf, 0.0
    if kappa < 0.5:
        g_hi, width_hi = reach / (0.5 - kappa), math.sqrt(v) / (0.5 - kappa)
    if kappa > -0.5:
        g_lo, width_lo = -reach / (0.5 + kappa), math.sqrt(v) / (0.5 + kappa)
    gap_range = (max(m - w * math.sqrt(v_gap), g_lo - w * width_lo), min(m + w * math.sqrt(v_gap), g_hi + w * width_hi))
    if v_gap > 0.0 and v_u > 0.0:
        try:
            return _polar_nodes(j_prime, t_max, scale, m, mu0, v_gap, kappa, v, v_e, v_u, half_u, gap_range)
        except ArithmeticError:  # a quadratic form that rounded to 0, or a width below it
            raise ValueError(f"noise widths sigma_e {spec.sigma_e:.6g}, sigma_j1 {spec.sigma_j1:.6g}, sigma_j2 "
                             f"{spec.sigma_j2:.6g} are too far apart to integrate over t_max {t_max:.6g}") from None
    # a 1D limit in x: the gap with u = mu(gap), or u at the one gap m
    on_gap = v_gap > 0.0
    x0, var, (lo, hi) = (m, v_gap, gap_range) if on_gap else (mu0, v_u, (mu0 - half_u, mu0 + half_u))
    x, weight = np.full(1, x0), np.ones(1)
    if var > 0.0:
        x, weight = panel_rule([lo, 0.0, hi] if on_gap and lo < 0.0 < hi else [lo, hi], t_max, math.sqrt(var), scale)
        weight *= np.exp(-((x - x0) ** 2) / (2.0 * var))
    gap, u = (x, mu0 + kappa * (x - m)) if on_gap else (np.full_like(x, m), x)
    u_range, gap_range = ((u.min(), u.max()), (lo, hi)) if on_gap else ((lo, hi), (m, m))
    return disorder._NodeSet(chunks=(disorder._node_terms(j_prime, 0.5 * gap, -0.5 * gap, -u, weight) for _ in (0,)),
                             band=disorder._band(j_prime, u_range, gap_range),
                             meta={"rule": "reduced-2d", "n_nodes": len(x), "n_r": len(x)},
                             points=lambda: iter([(j_prime - u, _C_PER_GAP * gap, weight)]))


def _polar_nodes(j_prime, t_max, scale, m, mu0, v_gap, kappa, v, v_e, v_u, half_u, gap_range) -> disorder._NodeSet:
    """The polar rule of ``reduced_nodes``; the arguments are its weight's parameters."""
    w, s3 = disorder.QuadratureSpec.truncation_width, _C_PER_GAP
    tau = math.sqrt(v_e * v_u / v) if v > 0 else 0.0
    # the covariance of the weight's Gaussian part in the plane (d, c), and its least deviation
    cov_cc, cov_cd, cov_dd = 0.75 * v_gap, -s3 * kappa * v_gap, kappa * kappa * v_gap + v_u
    # the set-up forms the step's lines at w tau, which the mesh doubles up to 2^63 times, its
    # slopes and offset, at most (v_u + v_e) / v (1 + |mu0 - kappa m|), and the covariances'
    # quadratic forms over the Gaussian's reach: widths of 1e80 overflow them at any window
    reach = math.hypot(j_prime - mu0, s3 * m) + w * math.sqrt(cov_cc + cov_dd)
    ratio = (v_u + v_e) / v * (1.0 + abs(mu0 - kappa * m)) if v > 0 else 0.0
    if not math.isfinite(2.0 ** 64 * w * tau + ratio + 4.0 * (cov_cc + cov_dd) * reach * reach):
        disorder._check_node_counts(math.inf)
    sigma = math.sqrt(1.5 * v_gap * v_u / (cov_cc + cov_dd + math.hypot(cov_cc - cov_dd, 2.0 * cov_cd)))

    def form(x, y):  # x Lambda y, Lambda the Gaussian's precision in (d, c)
        return (cov_cc * x[0] * y[0] - cov_cd * (x[0] * y[1] + x[1] * y[0]) + cov_dd * x[1] * y[1]) / (0.75 * v_gap * v_u)

    def line(a, b, const, side=0.0, hard=False):  # a d + b c >= const, on c >= 0 (side 1), c <= 0 (-1) or both
        n = math.hypot(a, b)
        return a / n, b / n, const / n, side, hard

    # the truncation region: the gap range, mu(gap) +- w sqrt(v_u), and u >= u_k - w tau on
    # either side of gap = 0, where u_k = k gap + b; a hard line bounds a weight that does
    # not vanish on it (sigma_e = 0, or one zero sigma_j), or a sharp step
    e0 = j_prime - mu0 + kappa * m  # d = e0 - kappa c / s3 on u = mu(gap)
    region = [line(0.0, 1.0, s3 * gap_range[0], hard=v == 0.0), line(0.0, -1.0, -s3 * gap_range[1], hard=v == 0.0),
              line(1.0, kappa / s3, e0 - half_u), line(-1.0, -kappa / s3, -e0 - half_u)]
    # on a feature (r_lo, r_hi, dev, foot) circles run along the weight, F(r) shows the width
    # dev sqrt(1 - (foot / r)^2): the Gaussian's across its narrow axis through the origin
    # (within w deviations), a step's around the foot of its half-line, a hard line's
    big = math.sqrt(cov_cc + cov_dd - sigma * sigma)
    nd, nc = ((cov_cd, sigma * sigma - cov_dd) if abs(cov_dd - sigma * sigma) > abs(cov_cc - sigma * sigma)
              else (sigma * sigma - cov_cc, cov_cd))  # the narrow axis (nd, nc), the long one (-nc, nd)
    norm = math.hypot(nd, nc)
    nd, nc = (nd / norm, nc / norm) if norm > 0.0 else ((1.0, 0.0) if cov_dd <= cov_cc else (0.0, 1.0))
    center = (j_prime - mu0, s3 * m)
    off, across = nd * center[1] - nc * center[0], nd * center[0] + nc * center[1]
    features = []
    if abs(off) <= w * big:
        half = sigma * math.sqrt(w * w - (off / big) ** 2)
        features.append((max(abs(across) - half, 0.0), abs(across) + half, sigma, 0.0))
    cuts, slope, steps = [line(0.0, 1.0, 0.0)], {}, []
    if v > 0:
        b = -(mu0 - kappa * m) * v_e / v
        for side in (1.0, -1.0):
            k = slope[side] = (side * 0.5 * v_u - kappa * v_e) / v
            width = tau / math.hypot(1.0, k / s3)  # the normal-CDF step's width across its lines
            region.append(line(-1.0, -k / s3, b - w * tau - j_prime, side, hard=width < _SHARP_STEP * sigma))
            if 0.0 < width < _SHARP_STEP * sigma:  # cut at u_k and u_k + w tau
                cuts += [line(-1.0, -k / s3, b + shift - j_prime, side, hard=True) for shift in (0.0, w * tau)]
            if width > 0.0:  # around the foot of its line and its corner at c = 0
                foot = line(-1.0, -k / s3, b - j_prime, side)
                steps += [foot[:4] + (width,)] if width >= _SHARP_STEP * sigma else []
                near = abs(foot[2]) if side * foot[2] * foot[1] >= 0.0 else abs(j_prime - b)
                features += [(near - w * width, near + w * width, width, 0.0),
                             (abs(j_prime - b) - w * (tau + width), abs(j_prime - b) + w * (tau + width), width, 0.0)]

    def inside(d, c, tol):
        ok = np.ones(np.broadcast(d, c).shape, dtype=bool)
        for a_d, a_c, const, side, _ in region:
            ok &= (a_d * d + a_c * c >= const - tol) | (side * c < -tol)
        return ok

    # r is cut where an arc appears, vanishes or meets a corner that matters: at the region's
    # nearest and farthest points, at the feet of the lines from the origin, and at the corners
    # of the hard lines; the panel above the foot of a hard line is graded
    lines = np.array(region + cuts[1:])
    a_d, a_c, const, sides, hard = lines.T
    hard = hard.astype(bool)
    i, j = np.array([(i, j) for i in range(len(region)) for j in range(i + 1, len(lines))]).T
    det = a_d[i] * a_c[j] - a_d[j] * a_c[i]
    i, j, det = (x[np.abs(det) > 1e-12] for x in (i, j, det))
    d = np.concatenate(([0.0], (const[i] * a_c[j] - const[j] * a_c[i]) / det, const * a_d))
    c = np.concatenate(([0.0], (a_d[i] * const[j] - a_d[j] * const[i]) / det, const * a_c))
    side_ok = np.concatenate(([1.0], np.minimum(sides[i] * c[1:len(i) + 1], sides[j] * c[1:len(i) + 1]),
                              sides * c[len(i) + 1:])) >= 0.0
    keep = side_ok & inside(d, c, 1e-9 * (abs(e0) + half_u + s3 * max(map(abs, gap_range))))
    graded_at = np.concatenate(([False], np.zeros(len(i), dtype=bool), hard))[keep]
    cut_at = np.concatenate(([False], hard[i] | hard[j], np.ones(len(lines), dtype=bool)))[keep]
    d, c = d[keep], c[keep]
    radii = np.hypot(d, c)
    cut_at |= (radii == radii.min()) | (radii == radii.max())
    edges, starts = [], []
    for k in sorted(range(len(radii)), key=radii.__getitem__):
        if cut_at[k] and (not edges or radii[k] - edges[-1] > 1e-12 * radii.max()):
            edges.append(radii[k])
        if graded_at[k]:
            starts.append(edges[-1])
    # within w deviations of its long axis the Gaussian meets a circle of radius r at a cosine of at
    # most near / max(r, near) off its narrow axis: its radial deviation there is at least radial(r)
    near = abs(across) + w * sigma

    def radial(r):
        q = near / np.maximum(r, near)
        return np.sqrt(sigma * sigma * q * q + big * big * (1.0 - q * q))

    # along a hard line p n + s t the weight is a Gaussian in s of deviation dev = 1 / sqrt(t
    # Lambda t) about s0, and a circle of radius r meets the line at the rate r / sqrt(r^2 -
    # p^2); that matters at the radii where the line carries weight
    for a_d_, a_c_, p, _, width in [x[:4] + (0.0,) for x in region + cuts[1:] if x[4]] + steps:
        along, offset = (-a_c_, a_d_), (center[0] - p * a_d_, center[1] - p * a_c_)
        dev = 1.0 / math.sqrt(max(form(along, along), 0.0))  # a form rounded below 0 raises as at 0
        s0 = dev * dev * form(along, offset)
        rest = (offset[0] - s0 * along[0], offset[1] - s0 * along[1])
        ends = np.hypot(p, [s0 - w * dev, s0 + w * dev])
        l_lo, dev = abs(p) if abs(s0) <= w * dev else ends.min(), min(dev, width or dev)
        # a smooth step matters where it is narrower than the Gaussian there
        if form(rest, rest) <= w * w and (not width or dev < 0.5 * radial(l_lo)):
            features.append((l_lo, ends.max(), dev, abs(p)))
    # above the foot p of a hard line F(r) grows like sqrt(r - p): the first panel, at most
    # _GRADED_SIGMAS sigma long and no longer than the gaps to the foot below and to the next
    # cut, is graded, and the panels after it double in length, each as far from p as it is
    # long; beyond a feature F(r) falls like 1 / sqrt(r - r_hi), smoothed over the feature:
    # panels double from its half-length
    doubling, mesh, feet = 2.0 ** np.arange(64), [np.array(edges)], sorted(set(starts))
    for lo, hi, _, _ in features:
        mesh.append(np.append(lo, hi + 0.5 * (hi - lo) * (doubling - 1.0)))
    for below, p, next_foot in zip([-math.inf] + feet, feet, feet[1:] + [math.inf]):
        h = min(p - below, min([e for e in edges if e > p], default=math.inf) - p, _GRADED_SIGMAS * sigma)
        mesh = [x[(x <= p) | (x >= p + h)] for x in mesh]  # nothing cuts the graded panel short
        mesh.append(p + h * doubling[p + h * doubling < next_foot])
    mesh = np.concatenate(mesh)
    edges = np.array(sorted(set(mesh[(mesh >= edges[0]) & (mesh <= edges[-1])].tolist())))
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    # a panel's width: the least of radial(lo) and the features it meets above their feet; its depth: the
    # Gaussian's exponent, at least |x - center|^2 / (2 big^2), at the radius nearest |center|
    widths, rc = radial(lo), math.hypot(*center)
    depths = 0.5 * (np.maximum(np.maximum(lo - rc, rc - hi), 0.0) / big) ** 2
    for f_lo, f_hi, dev, foot in features:
        on = (f_lo < hi) & (f_hi > lo) & (foot < mid)
        widths = np.where(on, np.minimum(widths, dev * np.sqrt(np.maximum(1.0 - (foot / mid) ** 2, 0.0))), widths)
    r, w_r = panel_rule(edges, t_max, widths, scale, set(np.searchsorted(edges, starts)), depths)

    # each circle's arcs in the region, between the angles where it crosses a line
    a_d, a_c, const, sides = np.array(region + cuts)[:, :4].T
    with np.errstate(over="ignore"):  # a line out of reach: inf clips to +-1 and is not crossed
        cos_half = const / r[:, None]
    half_angle = np.arccos(np.clip(cos_half, -1.0, 1.0))
    phi = np.tile(np.arctan2(a_c, a_d), 2) + np.concatenate((-half_angle, half_angle), axis=1)
    phi = (phi + math.pi) % (2.0 * math.pi) - math.pi
    crossed = np.tile(np.abs(cos_half) < 1.0, 2) & (np.tile(sides, 2) * np.sin(phi) >= 0.0)
    ends = np.full((len(r), 1), math.pi)
    phi = np.sort(np.concatenate((-ends, np.where(crossed, phi, np.nan), ends), axis=1), axis=1)
    lo, hi = phi[:, :-1], phi[:, 1:]
    mid = 0.5 * (lo + hi)
    arc = (hi > lo) & inside(r[:, None] * np.cos(mid), r[:, None] * np.sin(mid), 0.0)
    ri, lo, hi, mid = np.nonzero(arc)[0], lo[arc], hi[arc], mid[arc]
    # an arc's count follows the weight along it: over eight chords, the Mahalanobis length
    # of the Gaussian part and the change of the normal-CDF argument within +-w, in quadrature
    count, per = np.empty(len(ri), dtype=int), disorder._SMALL_BLOCK // 8
    for s in range(0, len(ri), per):
        arcs = slice(s, s + per)
        angle = lo[arcs, None] + (hi - lo)[arcs, None] * np.linspace(0.0, 1.0, 9)
        d_k, c_k = r[ri[arcs], None] * np.cos(angle), r[ri[arcs], None] * np.sin(angle)
        dd, dc = np.diff(d_k, axis=1), np.diff(c_k, axis=1)
        chords = form((dd, dc), (dd, dc))
        if tau > 0:
            k_side = np.where(np.sin(mid[arcs]) >= 0.0, slope[1.0], slope[-1.0])[:, None]
            chords += np.diff(np.clip((j_prime - b - d_k - k_side * c_k / s3) / tau, -w, w), axis=1) ** 2
        count[arcs] = scale * (np.ceil(_NODES_PER_SIGMA * np.sqrt(chords).sum(axis=1)) + _PANEL_MARGIN)

    def weight(d, c):
        gap, u = c / s3, j_prime - d
        mu = mu0 + kappa * (gap - m)
        out = np.exp(-0.5 * ((gap - m) ** 2 / v_gap + (u - mu) ** 2 / v_u))
        if tau > 0.0:
            out *= _ndtr((u - (0.5 * np.abs(gap) * v_u - mu * v_e) / v) / tau)
        return out

    # blocks of at most disorder._SMALL_BLOCK nodes (or one arc that has more), whole arcs in their
    # order; node k of an arc of count n is entry k of the n-point rule in the rules laid end to end
    sizes, stop = sorted(set(count.tolist())), np.cumsum(count)
    x_all, w_all = (np.concatenate(a) for a in zip(*map(disorder._leggauss, sizes)))
    shift = np.cumsum([0] + sizes[:-1])[np.searchsorted(sizes, count)] - (stop - count)
    half_phi = 0.5 * (hi - lo)
    mid_phi = lo + half_phi
    splits = [0]
    while splits[-1] < len(count):
        top = stop[splits[-1]] - count[splits[-1]] + disorder._SMALL_BLOCK
        splits.append(max(splits[-1] + 1, int(np.searchsorted(stop, top, side="right"))))

    def nodes():  # each block's r index, sin phi, cos phi and weight without the Jacobian
        for a0, a1 in zip(splits, splits[1:]):
            n = count[a0:a1]
            at = np.repeat(shift[a0:a1], n) + np.arange(stop[a0] - n[0], stop[a1 - 1])
            wt = np.repeat(half_phi[a0:a1], n)
            angle = wt * x_all[at] + np.repeat(mid_phi[a0:a1], n)
            wt *= w_all[at]
            node_r = np.repeat(ri[a0:a1], n)
            sin, cos, radius = np.sin(angle), np.cos(angle), r[node_r]
            wt *= weight(radius * cos, radius * sin)
            yield node_r, sin, cos, wt

    def terms() -> tuple:
        sums = np.zeros((3, len(r)))
        for node_r, sin, cos, wt in nodes():
            for k, amp in enumerate((1.0, sin * sin, 2.0 * sin * cos)):
                sums[k] += np.bincount(node_r, wt * amp, minlength=len(r))
        sums *= w_r * r  # the Jacobian r of the polar map
        return r, sums[0], sums[1], sums[2]

    gap, u = c / s3, j_prime - d
    return disorder._NodeSet(chunks=(terms() for _ in (0,)),
                    band=disorder._band(j_prime, (u.min(), u.max()), (gap.min(), gap.max())),
                    meta={"rule": "reduced-2d", "n_nodes": int(count.sum()), "n_r": len(r), "cut_steps": len(cuts) // 2},
                    points=lambda: ((r[i] * cos, r[i] * sin, wt * (w_r * r)[i]) for i, sin, cos, wt in nodes()))
