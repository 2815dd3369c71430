"""The polar rule of the 2D disorder average (``disorder._reduced_nodes``).

The return probability sees the noise only through the detuning d = j' - u
and c = sqrt(0.75) gap.  In the plane (d, c) = r (cos phi, sin phi) the
frequency omega is the radius r, amp_zero = sin^2 phi and amp_sup =
sin 2 phi, so only r carries the time: the average is base + sum_k coef_k
cos(r_k t) over the r nodes, each coefficient a sum over phi in closed
form (product rules in polar coordinates: Stroud 1971; Davis & Rabinowitz
1984).  The rule hands the evaluator one term per r node, which grows like
t_max, where a rule in (gap, u) needs t_max^2 nodes.

The weight is the extended skew-normal W(gap, u) of ``_reduced_nodes``,
kept on its 6-sigma truncation region, a polygon in (d, c) split at c = 0
by the |gap| kink.  Each circle meets the region in arcs, between the
closed-form angles where it crosses the region's lines and the cut lines:
c = 0, and u = u_k, u_k + w tau where the normal-CDF step is sharp
(narrower than _SHARP_STEP of the Gaussian's least deviation).  An arc
takes Gauss-Legendre nodes in phi by the weight's variation along it (its
Mahalanobis length and the step's), in a few sizes that the rule cache
serves.  The r rule is cut where the arc structure changes in a way that
matters, graded where an arc appears at a line on which the weight does not
vanish, and sized per panel by ``_gauss_points`` from the phase span t_max
times the panel's length and the width of F(r), the weight summed over
the circle, there.
"""

from __future__ import annotations

import math

import numpy as np

from . import disorder

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
# is resolved with the Gaussian (cutting every step puts 56,470 nodes, not
# 38,140, on the sigma_e 1, sigma_j 0.5 cell at t_max 100)
_SHARP_STEP = 0.5

# weight evaluations per block of the 2D rule: a block holds about 20 arrays of
# its length at once, its angles, the weight's normal CDF and the sums' terms.
# Building and summing the sigma_e 1, sigma_j 0.5 rule at t_max 100 (38,140
# evaluations) peaks at 7.2 MiB traced in one block, 3.4 MiB in blocks of
# 2^14 and 1.0 MiB in blocks of this size, with no loss of speed; Si at 0.5
# ueV (58,512) at 9.8, 3.8 and 2.0 MiB, the last its rule's set-up.  A
# sixteenth of the tensor rule's _BLOCK_NODES
_POLAR_BLOCK = 2 ** 12

# the r panel above the foot of a hard line of the 2D rule (an edge where the
# weight does not vanish, or a cut step) is graded over at most this many of
# the Gaussian's least deviations
_GRADED_SIGMAS = 4.0


def _size_class(n: np.ndarray) -> np.ndarray:
    """The least size >= n of 1 to 8 and q 2^k, q in 5..8: four sizes an octave, closed under doubling."""
    step = np.exp2(np.maximum(np.ceil(np.log2(n)) - 3.0, 0.0))
    return (np.ceil(n / step) * step).astype(int)


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
    1e-11 takes 36).
    """
    eta = np.linspace(0.01, _ETA_MAX, 128)[:, None]
    grow = np.sinh(eta)
    exponent = (0.5 * np.asarray(phase) * grow + 0.125 * (np.asarray(spread) * grow) ** 2
                + np.maximum(-math.log(_RULE_TOLERANCE) - np.asarray(depth), math.log(100.0)))
    return np.ceil((exponent / (2.0 * eta)).min(axis=0)).astype(int)


def panel_rule(edges, t_max: float, widths, scale: int, graded=(), depths=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the consecutive panels between ``edges``.

    Panel k of length L carries the phase span t_max L of cos(omega t),
    |d(omega)/dx| <= 1, and a weight of width widths[k]; it takes scale
    times ``_gauss_points`` of both, at the weight's depth there, depths[k]
    (0 by default).  A panel whose index is in ``graded``
    starts at a point where the integrand grows like sqrt(x - lo): it takes
    x = lo + L s^2 over s in [0, 1], which makes it smooth, sized as a
    panel twice as long, since the node spacing in x reaches twice its
    mean at s = 1.
    """
    lengths = np.diff(edges)
    span = lengths * [2 if k in graded else 1 for k in range(len(lengths))]
    need = scale * _gauss_points(t_max * span, span / np.asarray(widths), depths)
    disorder._check_node_counts(need.sum())
    nodes, weights = [], []
    for k, (lo, length) in enumerate(zip(edges, lengths)):
        x, wx = disorder._leggauss(int(need[k]))
        if k in graded:
            s = 0.5 * (x + 1.0)
            nodes.append(lo + length * s * s)
            weights.append(length * s * wx)
        else:
            half = 0.5 * length
            nodes.append(half * x + (lo + half))
            weights.append(half * wx)
    return np.concatenate(nodes), np.concatenate(weights)


def polar_nodes(j_prime, t_max, scale, m, mu0, v_gap, kappa, v, v_e, gap_range) -> disorder._NodeSet:
    """The polar rule of ``disorder._reduced_nodes``; the arguments are its weight's parameters."""
    w, s3 = disorder.QuadratureSpec().truncation_width, disorder._C_PER_GAP
    v_u = v + v_e
    tau = math.sqrt(v_e * v_u / v) if v > 0 else 0.0
    half_u = w * math.sqrt(v_u)
    # the covariance of the weight's Gaussian part in the plane (d, c), and its least deviation
    cov_cc, cov_cd, cov_dd = 0.75 * v_gap, -s3 * kappa * v_gap, kappa * kappa * v_gap + v_u
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
    # F(r) shows a width of the weight, sigma or a step's, where circles run along it: for the
    # Gaussian where they cross the line through the origin along its narrow axis (within w
    # deviations), for a step around the foot of its half-line
    big = math.sqrt(cov_cc + cov_dd - sigma * sigma)
    nd, nc = ((cov_cd, sigma * sigma - cov_dd) if abs(cov_dd - sigma * sigma) > abs(cov_cc - sigma * sigma)
              else (sigma * sigma - cov_cc, cov_cd))  # the narrow axis (nd, nc), the long one (-nc, nd)
    norm = math.hypot(nd, nc)
    nd, nc = (nd / norm, nc / norm) if norm > 0.0 else ((1.0, 0.0) if cov_dd <= cov_cc else (0.0, 1.0))
    center = (j_prime - mu0, s3 * m)
    off, across = nd * center[1] - nc * center[0], nd * center[0] + nc * center[1]
    zones = []
    if abs(off) <= w * big:
        half = sigma * math.sqrt(w * w - (off / big) ** 2)
        zones.append((max(abs(across) - half, 0.0) if abs(across) > half else 0.0, abs(across) + half, sigma))
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
                zones += [(near - w * width, near + w * width, width),
                          (abs(j_prime - b) - w * (tau + width), abs(j_prime - b) + w * (tau + width), width)]

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
    # the Gaussian sampled over +-w deviations: each point's radius, radial deviation and
    # exponent
    grid = np.linspace(-w, w, 25)
    a, b_ = np.meshgrid(grid, grid)
    disk = a * a + b_ * b_ <= w * w
    pts = np.array([center[0] - nc * big * a[disk] + nd * sigma * b_[disk],
                    center[1] + nd * big * a[disk] + nc * sigma * b_[disk]])
    rho = np.hypot(*pts)
    order = np.argsort(rho)
    rho, pts, depth = rho[order], pts[:, order], 0.5 * (a[disk] ** 2 + b_[disk] ** 2)[order]
    spread = np.sqrt((cov_dd * pts[0] ** 2 + 2.0 * cov_cd * pts[0] * pts[1] + cov_cc * pts[1] ** 2)
                     / np.where(rho > 0.0, rho * rho, np.inf))
    spread[rho == 0.0] = sigma  # the origin: every direction is radial
    # along a hard line p n + s t the weight is a Gaussian in s of deviation dev = 1 / sqrt(t
    # Lambda t) about s0, and a circle of radius r meets the line at the rate r / sqrt(r^2 -
    # p^2); that matters at the radii l_lo .. l_hi where the line carries weight, a zone
    hard_lines = []
    for a_d_, a_c_, p, _, width in [x[:4] + (0.0,) for x in region + cuts[1:] if x[4]] + steps:
        along, offset = (-a_c_, a_d_), (center[0] - p * a_d_, center[1] - p * a_c_)
        dev = 1.0 / math.sqrt(form(along, along))
        s0 = dev * dev * form(along, offset)
        rest = (offset[0] - s0 * along[0], offset[1] - s0 * along[1])
        ends = np.hypot(p, [s0 - w * dev, s0 + w * dev])
        l_lo, dev = abs(p) if abs(s0) <= w * dev else ends.min(), min(dev, width or dev)
        at = (rho >= l_lo) & (rho <= ends.max())
        # a smooth step matters where it is narrower than the Gaussian there
        if form(rest, rest) <= w * w and (not width or at.any() and dev < 0.5 * spread[at].min()):
            hard_lines.append((abs(p), dev, l_lo, ends.max()))
            zones.append((l_lo, ends.max(), math.inf))
    # above the foot p of a hard line F(r) grows like sqrt(r - p): the first panel, at most
    # _GRADED_SIGMAS sigma long and no longer than the gaps to the foot below and to the next
    # cut, is graded, and the panels after it double in length, each as far from p as it is
    # long; beyond a zone F(r) falls like 1 / sqrt(r - r_zone), smoothed over the zone:
    # panels double from its half-length
    doubling, mesh, feet = 2.0 ** np.arange(64), [np.array(edges)], sorted(set(starts))
    for lo, hi, _ in zones:
        mesh.append(np.append(lo, hi + 0.5 * (hi - lo) * (doubling - 1.0)))
    for below, p, next_foot in zip([-math.inf] + feet, feet, feet[1:] + [math.inf]):
        h = min(p - below, min([e for e in edges if e > p], default=math.inf) - p, _GRADED_SIGMAS * sigma)
        mesh = [x[(x <= p) | (x >= p + h)] for x in mesh]  # nothing cuts the graded panel short
        mesh.append(p + h * doubling[p + h * doubling < next_foot])
    mesh = np.concatenate(mesh)
    edges = np.array(sorted(set(mesh[(mesh >= edges[0]) & (mesh <= edges[-1])].tolist())))
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    # a panel's width: the least radial deviation of the Gaussian at its sampled points
    # there (or the nearest point's), and of the zones and hard lines it meets; its depth:
    # the least of the Gaussian's exponent at its points within half the grid's spacing
    first, last = np.searchsorted(rho, lo), np.searchsorted(rho, hi, side="right")
    nearest = np.clip(np.searchsorted(rho, mid), 1, len(rho) - 1)
    nearest -= mid - rho[nearest - 1] < rho[nearest] - mid
    widths = np.array([spread[i:j].min() if j > i else spread[k] for i, j, k in zip(first, last, nearest)])
    first, last = np.searchsorted(rho, lo - 0.5 * big), np.searchsorted(rho, hi + 0.5 * big, side="right")
    depths = np.array([depth[i:j].min() if j > i else 0.5 * w * w for i, j in zip(first, last)])
    for z_lo, z_hi, width in zones:
        widths = np.where((z_lo < hi) & (z_hi > lo), np.minimum(widths, width), widths)
    for p, dev, l_lo, l_hi in hard_lines:
        on = (l_lo < hi) & (l_hi > lo) & (p < mid)
        widths = np.where(on, np.minimum(widths, dev * np.sqrt(np.maximum(1.0 - (p / mid) ** 2, 0.0))), widths)
    r, w_r = panel_rule(edges, t_max, widths, scale, set(np.searchsorted(edges, starts)), depths)

    # each circle's arcs in the region, between the angles where it crosses a line
    a_d, a_c, const, sides = np.array(region + cuts)[:, :4].T
    half_angle = np.arccos(np.clip(const / r[:, None], -1.0, 1.0))
    phi = np.tile(np.arctan2(a_c, a_d), 2) + np.concatenate((-half_angle, half_angle), axis=1)
    phi = (phi + math.pi) % (2.0 * math.pi) - math.pi
    crossed = np.tile(np.abs(const / r[:, None]) < 1.0, 2) & (np.tile(sides, 2) * np.sin(phi) >= 0.0)
    ends = np.full((len(r), 1), math.pi)
    phi = np.sort(np.concatenate((-ends, np.where(crossed, phi, np.nan), ends), axis=1), axis=1)
    lo, hi = phi[:, :-1], phi[:, 1:]
    mid = 0.5 * (lo + hi)
    arc = (hi > lo) & inside(r[:, None] * np.cos(mid), r[:, None] * np.sin(mid), 0.0)
    ri, lo, hi, mid = np.nonzero(arc)[0], lo[arc], hi[arc], mid[arc]
    # an arc's count follows the weight along it: over eight chords, the Mahalanobis length
    # of the Gaussian part and the change of the normal-CDF argument within +-w, in quadrature
    angle = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 9)
    d_k, c_k = r[ri, None] * np.cos(angle), r[ri, None] * np.sin(angle)
    dd, dc = np.diff(d_k, axis=1), np.diff(c_k, axis=1)
    chords = form((dd, dc), (dd, dc))
    if tau > 0:
        k_side = np.where(np.sin(mid) >= 0.0, slope[1.0], slope[-1.0])[:, None]
        chords += np.diff(np.clip((j_prime - b - d_k - k_side * c_k / s3) / tau, -w, w), axis=1) ** 2
    count = scale * _size_class(np.ceil(_NODES_PER_SIGMA * np.sqrt(chords).sum(axis=1)) + disorder._PANEL_MARGIN)

    def weight(d, c):
        gap, u = c / s3, j_prime - d
        mu = mu0 + kappa * (gap - m)
        out = np.exp(-0.5 * ((gap - m) ** 2 / v_gap + (u - mu) ** 2 / v_u))
        if tau > 0.0:
            out *= disorder._ndtr((u - (0.5 * np.abs(gap) * v_u - mu * v_e) / v) / tau)
        return out

    # blocks of at most _POLAR_BLOCK nodes, each a run of arcs of a few counts
    blocks, size = [[]], 0
    for n in sorted(set(count.tolist())):
        arcs, per = np.flatnonzero(count == n), max(1, _POLAR_BLOCK // n)
        for part in (arcs[s:s + per] for s in range(0, len(arcs), per)):
            if size + n * len(part) > _POLAR_BLOCK and blocks[-1]:
                blocks, size = blocks + [[]], 0
            blocks[-1].append((int(n), part))
            size += n * len(part)

    def nodes():  # each block's r index, sin phi, cos phi and weight without the Jacobian
        for block in blocks:
            angle, w_angle, node_r = [], [], []
            for n, part in block:
                x, wx = disorder._leggauss(n)
                half = 0.5 * (hi[part] - lo[part])
                angle.append((half[:, None] * x + (lo[part] + half)[:, None]).ravel())
                w_angle.append((half[:, None] * wx).ravel())
                node_r.append(ri[part].repeat(n))
            angle, wt, node_r = (np.concatenate(a) for a in (angle, w_angle, node_r))
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
