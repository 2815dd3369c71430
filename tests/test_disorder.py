"""Noise densities, sampling, and the two disorder-averaging routes."""

import functools
import gc
import itertools
import math
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.special
import scipy.stats
from scipy.integrate import quad as integrate

from deoq_dyn import disorder, polar
from deoq_dyn.disorder import (
    NoiseSpec,
    NumericalError,
    ProbabilityTrace,
    QuadratureSpec,
    _czt,
    _hermgauss,
    _leggauss,
    _tensor_nodes,
    disorder_average_mc,
    disorder_average_quadrature,
    pdf_delta_e,
    pdf_exchange,
    sample_noise,
)
from deoq_dyn.polar import _ndtr, reduced_nodes
from deoq_dyn.qubit import (
    ExchangeParams,
    oscillation_terms,
    return_probability_superposition,
    return_probability_zero,
)
from deoq_dyn.sweep import DEFAULT_J0_EV, SweepConfig, suggested_time_grid

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
    def nan_evaluator(chunks, band, times):
        sets = [len(coef) for _, coef, _ in chunks][0]  # the node set's mass is summed as its blocks are drawn
        return np.full((sets, len(times)), np.nan), 0, [0.0] * sets

    monkeypatch.setattr(disorder, "_evaluate", nan_evaluator)
    with pytest.raises(NumericalError, match="nan"):
        disorder_average_quadrature(P, NoiseSpec(), "zero", np.linspace(0.0, 1.0, 3))
    with pytest.raises(NumericalError, match="nan"):  # both states in one pass
        disorder._quadrature_traces(P, NoiseSpec(), ("zero", "superposition"), np.linspace(0.0, 1.0, 3))


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


@pytest.mark.parametrize("noise, t_max, q, check", [
    (NoiseSpec(sigma_e=1.0, sigma_j1=0.5, sigma_j2=0.5), 100.0, None, False),  # wide 2D cell
    (NoiseSpec(sigma_j1=0.003, sigma_j2=0.003), 400.0, None, False),  # 28Si: a hard edge at sigma_e = 0
    (NoiseSpec(sigma_e=0.3), 60.0, None, False),  # both sigma_j zero: the 1D limit
    (NoiseSpec(sigma_e=0.2, sigma_j1=0.1, sigma_j2=0.3), 40.0, None, True),
    (NoiseSpec(sigma_e=0.2, sigma_j1=0.1, sigma_j2=0.1), 40.0, QuadratureSpec(9, 11), True),
], ids=["wide", "28Si", "1d", "convergence", "tensor"])
def test_two_state_pass_equals_each_state_alone(noise, t_max, q, check):
    """One node set and one evaluator pass for both initial states give, bit
    for bit, the traces and metadata of one average per state."""
    times = np.linspace(0.0, t_max, 1601)
    both = disorder._quadrature_traces(P, noise, ("zero", "superposition"), times, q, check)
    for trace in both:
        alone = disorder_average_quadrature(P, noise, trace.initial, times, q, check)
        assert np.array_equal(trace.values, alone.values)
        assert trace.metadata == alone.metadata
    assert [t.initial for t in both] == ["zero", "superposition"]


def test_quadrature_delta_e_sign_symmetry(monkeypatch):
    """The field gradient enters through an even density, so flipping the
    sign of its tensor-rule nodes cannot move the average."""
    times = np.linspace(0.0, 80.0, 401)
    noise = NoiseSpec(sigma_e=0.4, sigma_j1=0.1, sigma_j2=0.1)
    nodes_delta_e, flips = disorder._nodes_delta_e, []

    def flipped(sigma_e, q):
        x, w = nodes_delta_e(sigma_e, q)
        flips.append(len(x))
        return -x, w

    for rule in ("hermite", "legendre"):
        q = QuadratureSpec(n_hermite=61, n_legendre=41, delta_e_rule=rule)
        for initial in ("zero", "superposition"):
            plus = disorder_average_quadrature(P, noise, initial, times, q=q)
            with monkeypatch.context() as mp:
                mp.setattr(disorder, "_nodes_delta_e", flipped)
                minus = disorder_average_quadrature(P, noise, initial, times, q=q)
            np.testing.assert_allclose(plus.values, minus.values, atol=1e-12)
    assert flips == [61] * 4


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
        reduced = disorder_average_quadrature(P, noise, initial, times)
        tensor = disorder_average_quadrature(P, noise, initial, times, q=q2)
        assert reduced.metadata["rule"] == "reduced-2d"
        assert tensor.metadata["rule"] == "tensor"
        np.testing.assert_allclose(reduced.values, tensor.values, rtol=0, atol=1e-7)


@pytest.mark.parametrize("case", [(1.0, 0.0, 0.0), (0.0, 0.3, 0.0), (0.0, 0.0, 0.5)],
                         ids=["u-limit", "gap-limit", "gap-limit-kappa-minus"])
def test_reduced_rule_1d_limits_doubling_moves_no_point_by_1e_10(case):
    """Both 1D limits, a Gaussian in u at the one gap and u = mu(gap)
    along the gap, take panels sized by ``_gauss_points``: at t_max 200 the
    doubled rule moves no point by more than 1e-10, for either state."""
    times = np.linspace(0.0, 200.0, 2001)
    for initial in ("zero", "superposition"):
        trace = disorder_average_quadrature(P, NoiseSpec(*case), initial, times, check_convergence=True)
        assert trace.metadata["n_r"] == trace.metadata["n_nodes"]  # one term per node: a 1D rule
        assert trace.metadata["doubling_max_change"] <= 1e-10


def test_reduced_rule_u_limit_takes_fewer_nodes_than_the_per_radian_rule():
    """Both sigma_j zero leave a Gaussian in u; at sigma_e 1, t_max 100 the
    ellipse estimate takes fewer nodes than the 602 of 0.35 per radian plus
    a margin of 8."""
    meta = reduced_nodes(NoiseSpec(sigma_e=1.0), P.j_prime, 100.0).meta
    assert meta["n_r"] == meta["n_nodes"] < 602


def test_one_panel_gap_limit_checks_its_own_node_count(monkeypatch):
    """u = mu(gap) on one panel (a gap range that does not cross 0) checks
    the 91 nodes it builds against the caps, not one count per width of a
    two-panel rule (182)."""
    calls = []
    check = disorder._check_node_counts
    monkeypatch.setattr(disorder, "_check_node_counts", lambda *counts: calls.append(counts) or check(*counts))
    nodes = reduced_nodes(NoiseSpec(0.0, 0.2, 0.0, 3.0, 0.5), P.j_prime, 100.0)
    assert [int(n) for n in calls[-1]] == [nodes.meta["n_nodes"]] == [91]


@pytest.mark.parametrize("case", REDUCED_CASES + [(1.0, 0.5, 0.5, 0.5, 1.5)])
def test_reduced_rule_doubling_moves_no_point_by_1e_7(case):
    """The name keeps the (gap, u) rule's bound; the polar rule holds 1e-10."""
    times = np.linspace(0.0, 100.0, 1001)
    for initial in ("zero", "superposition"):
        trace = disorder_average_quadrature(
            P, NoiseSpec(*case), initial, times, check_convergence=True
        )
        assert trace.metadata["doubling_max_change"] <= 1e-10


def test_reduced_rule_skips_the_u_cuts_of_a_wide_cdf_step(monkeypatch):
    """On the default sweep's worst cell at t_max 100 the normal-CDF step is
    about as wide as the Gaussian: it gets no band of its own, and the rule
    makes at most 40,000 weight evaluations (56,470 with the band cut, which
    moves no point by more than 1e-10)."""
    noise, times = NoiseSpec(1.0, 0.5, 0.5), np.linspace(0.0, 100.0, 401)
    meta = reduced_nodes(noise, P.j_prime, 100.0).meta
    assert meta["cut_steps"] == 0 and meta["n_nodes"] <= 40_000
    decided = disorder_average_quadrature(P, noise, "superposition", times)
    monkeypatch.setattr(polar, "_SHARP_STEP", math.inf)
    assert reduced_nodes(noise, P.j_prime, 100.0).meta["cut_steps"] == 2
    cut = disorder_average_quadrature(P, noise, "superposition", times)
    assert cut.metadata["n_nodes"] > 1.4 * meta["n_nodes"]
    assert np.max(np.abs(cut.values - decided.values)) <= 1e-10


def test_polar_blocks_bound_the_peak_memory_of_the_terms():
    """Summing the 34,406 weight evaluations of the sigma_e 1, sigma_j 0.5
    cell at t_max 100 into terms, block by block, peaks at about 0.8 MiB
    traced; in blocks of 2^14 it was 3.1 MiB."""
    noise = NoiseSpec(1.0, 0.5, 0.5)
    list(reduced_nodes(noise, P.j_prime, 100.0).chunks)  # the arcs' Gauss rules, cached
    nodes = reduced_nodes(noise, P.j_prime, 100.0)
    tracemalloc.start()
    try:
        list(nodes.chunks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    assert nodes.meta["n_nodes"] > 4 * disorder._SMALL_BLOCK


def test_polar_set_up_sizes_its_arcs_a_block_at_a_time():
    """The Si material point at sigma_j 0.5 ueV, whose sharp normal-CDF
    step makes 56,795 weight evaluations, averages both initial states at
    0.96 MiB traced once its Gauss rules are cached: the set-up forms the
    chord lengths that size its arcs for _SMALL_BLOCK / 8 arcs at a time.
    Formed for every arc at once, they held nine points of each and the
    average peaked at 2.0 MiB."""
    sigma_e, sigma_j = 3e-9 / DEFAULT_J0_EV, 0.5e-6 / DEFAULT_J0_EV
    noise = NoiseSpec(sigma_e, sigma_j, sigma_j, P.j1, P.j2)
    times = suggested_time_grid(noise)
    disorder._quadrature_traces(P, noise, ("zero", "superposition"), times)  # the Gauss rules, cached
    tracemalloc.start()
    try:
        traces = disorder._quadrature_traces(P, noise, ("zero", "superposition"), times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traces[0].metadata["n_nodes"] == 56_795
    assert peak < 1.25 * 2 ** 20


def test_gauss_points_meet_the_rule_tolerance():
    """The count of ``_gauss_points`` integrates a Gaussian of that many
    deviations times a cosine of that phase span over [-1, 1] within 1e-11,
    and 4 points fewer miss by more than 1e-12: the estimate is tight."""
    x_ref, w_ref = _leggauss(3000)
    for phase, spread in [(0.0, 12.0), (20.0, 12.0), (81.0, 0.0), (81.0, 2.0), (300.0, 5.0), (640.0, 0.0)]:
        n = int(polar._gauss_points(np.array([phase]), np.array([spread]))[0])
        sigma = 2.0 / spread if spread else math.inf

        def f(x):
            return np.exp(-0.5 * ((x - 0.2) / sigma) ** 2) * np.cos(0.5 * phase * x + 0.4)

        exact = w_ref @ f(x_ref)
        x, w = _leggauss(n)
        assert abs(w @ f(x) - exact) <= polar._RULE_TOLERANCE, (phase, spread)
        x, w = _leggauss(n - 4)
        assert abs(w @ f(x) - exact) > 1e-12, (phase, spread)


def panel_rule_loop(edges, t_max, widths, scale, graded=(), depths=0.0):
    """``polar.panel_rule`` one panel at a time: each panel's rule, mapped and appended."""
    lengths = np.diff(edges)
    span = lengths * [2 if k in graded else 1 for k in range(len(lengths))]
    need = scale * polar._gauss_points(t_max * span, span / np.asarray(widths), depths)
    nodes, weights = [], []
    for k, (lo, length) in enumerate(zip(edges, lengths)):
        x, wx = _leggauss(int(need[k]))
        if k in graded:
            s = 0.5 * (x + 1.0)
            nodes.append(lo + length * s * s)
            weights.append(length * s * wx)
        else:
            half = 0.5 * length
            nodes.append(half * x + (lo + half))
            weights.append(half * wx)
    return np.concatenate(nodes), np.concatenate(weights)


@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize("feet", [[], [0.3], [0.45, 1.7], [0.3, 0.45, 1.0, 1.7, 2.05], [4.0], [1.0, 4.0]],
                         ids=["plain", "first", "two", "all", "past-the-end", "one-and-past-the-end"])
def test_panel_rule_maps_its_panels_as_one_panel_at_a_time(scale, feet):
    """All panels' rules, mapped at once by each node's panel, give bit for
    bit the nodes and weights of one panel at a time, plain and graded.  A
    foot at the last edge, which ``np.searchsorted`` finds at the panel
    count, grades no panel.  A 1D limit's list of edges with one width and
    no depths maps the same way."""
    edges = np.array([0.3, 0.45, 1.0, 1.7, 2.05, 4.0])
    widths, depths = np.array([0.2, 0.05, 0.3, 1.0, 0.4]), np.array([0.0, 1.5, 0.0, 4.0, 0.2])
    graded = set(np.searchsorted(edges, feet))
    for args in [(edges, 60.0, widths, scale, graded, depths), ([-1.2, 0.0, 0.7], 30.0, 0.4, scale)]:
        (x, w), (x_loop, w_loop) = polar.panel_rule(*args), panel_rule_loop(*args)
        assert np.array_equal(x, x_loop) and np.array_equal(w, w_loop)


def test_terms_of_each_state_are_its_closed_forms():
    """``_terms`` reads each state's p0 and amplitude from the state table and
    gives bit for bit the closed forms: for the zero state base sum w - sum w
    amp_zero / 2 and coef w amp_zero / 2, for the superposition base sum w / 2
    + sum w amp_sup / 4 and coef -w amp_sup / 4."""
    rng = np.random.default_rng(38)
    omega, weight = rng.uniform(0.0, 3.0, 1000), rng.uniform(0.0, 1.0, 1000)
    weight_zero, weight_sup = weight * rng.uniform(0.0, 1.0, 1000), weight * rng.uniform(-1.0, 1.0, 1000)
    out, coef, base = disorder._terms(("zero", "superposition"), omega, weight, weight_zero, weight_sup)
    assert out is omega
    assert np.array_equal(coef[0], 0.5 * weight_zero) and base[0] == float(weight.sum() - 0.5 * weight_zero.sum())
    assert np.array_equal(coef[1], -0.25 * weight_sup)
    assert base[1] == float(0.5 * weight.sum() + 0.25 * weight_sup.sum())


@pytest.mark.parametrize("build", [
    lambda initial: disorder_average_quadrature(P, NoiseSpec(), initial, np.linspace(0.0, 1.0, 3)),
    lambda initial: disorder_average_mc(P, NoiseSpec(), initial, np.linspace(0.0, 1.0, 3), 10, 0),
], ids=["quadrature", "mc"])
def test_an_unknown_initial_state_is_invalid_input(build):
    with pytest.raises(ValueError, match="initial must be 'zero' or 'superposition', got 'plus'"):
        build("plus")


@pytest.mark.parametrize("t_max", [40.0, 100.0])
@pytest.mark.parametrize("case", [c for c in REDUCED_CASES if c[0] <= 0.003 and c[1:3] == (0.3, 0.3)])
def test_reduced_rule_keeps_the_u_cuts_of_a_sharp_cdf_step(case, t_max):
    """sigma_e = 1e-4 and 0.003 make the normal-CDF step narrow beside the
    Gaussian: both sides of gap = 0 cut it out of the arcs, as a band of its
    own, and the doubled rule moves no point by more than 1e-10; sigma_e = 0
    makes it a hard edge, with nothing to cut."""
    nodes = reduced_nodes(NoiseSpec(*case), P.j_prime, t_max)
    assert nodes.meta["cut_steps"] == (2 if case[0] > 0 else 0)
    times = np.linspace(0.0, t_max, 401)
    trace = disorder_average_quadrature(P, NoiseSpec(*case), "superposition", times, check_convergence=True)
    assert trace.metadata["doubling_max_change"] <= 1e-10


def test_largest_sweep_heavy_cell_sums_few_terms(monkeypatch):
    """The polar rule on the sweep-heavy benchmark's largest cell (sigma_e 1,
    sigma_j 0.5, t_max 100, zero state) makes at most 65,536 weight
    evaluations (the (gap, u) rule it replaced made 197,506 nodes) and hands
    the evaluator at most 400 terms, none from ``oscillation_terms``."""
    calls = []
    terms = disorder.oscillation_terms
    monkeypatch.setattr(disorder, "oscillation_terms", lambda *a: calls.append(a) or terms(*a))
    trace = disorder_average_quadrature(P, NoiseSpec(1.0, 0.5, 0.5), "zero", np.linspace(0.0, 100.0, 4001))
    assert trace.metadata["n_nodes"] <= 65_536
    assert trace.metadata["n_r"] <= 400
    chunks, _ = _producer_input(NoiseSpec(1.0, 0.5, 0.5), ("zero",), np.linspace(0.0, 100.0, 4001))
    assert sum(len(omega) for omega, _, _ in chunks) == trace.metadata["n_r"]
    assert calls == []


def _reduced_moments(noise):
    """Moments of the 2D rule's (r, phi) nodes, mapped back to (gap, u)."""
    d, c, w = (np.concatenate(a) for a in zip(*reduced_nodes(noise, P.j_prime, 100.0).points()))
    gap, u, w = c / math.sqrt(0.75), P.j_prime - d, w / w.sum()
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


def _producer_input(noise, initials, times):
    """The (chunks, band) the 2D node producer hands to _evaluate, one coefficient set per initial state."""
    seen = {}

    def record(chunks, band, times):
        chunks = list(chunks)
        seen["args"] = (chunks, band)
        at_zero = sum(np.asarray(base) + coef.sum(axis=1) for _, coef, base in chunks)
        return np.outer(at_zero, np.ones(len(times))), 0, [0.0] * len(at_zero)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(disorder, "_evaluate", record)
        disorder._quadrature_traces(P, noise, initials, times)
    return seen["args"]


def _exact_sum(chunks, times):
    """base + sum_k coef_k cos(omega_k t) for each coefficient set by the cos matrix, the evaluator's reference."""
    return sum(np.asarray(base)[:, None] + coef @ np.cos(np.outer(omega, times)) for omega, coef, base in chunks)


@pytest.mark.parametrize(
    "noise, t_max, wide",
    [
        (NoiseSpec(sigma_e=1.0, sigma_j1=0.5, sigma_j2=0.5), 10.0, True),
        (NoiseSpec(sigma_j1=0.003, sigma_j2=0.003), 400.0, False),  # 28Si-like
    ],
    ids=["wide", "narrow"],
)
def test_binned_evaluator_within_stated_bound(noise, t_max, wide):
    """The Gaussian-gridding sum stays within the _NUFFT_ERROR sum |coef| it
    states of the exact cos sum, on a band from 0 and on a narrow band well
    above 0, and reports that bound and its bin count, for each initial
    state's coefficient set of one pass."""
    times = np.linspace(0.0, t_max, 801)
    chunks, band = _producer_input(noise, ("zero", "superposition"), times)
    assert (band[0] == 0.0) == wide
    bound = disorder._NUFFT_ERROR * sum(np.abs(c).sum(axis=1) for _, c, _ in chunks)
    values, n_bins, stated = disorder._evaluate(chunks, band, times)
    assert stated == pytest.approx(bound, rel=1e-12)
    assert n_bins == math.floor((band[1] - band[0]) * 2.0 * t_max / math.pi) + 2 * disorder._SPREAD
    assert np.all(np.max(np.abs(values - _exact_sum(chunks, times)), axis=1) <= bound)


def test_binned_evaluator_bound_is_nearly_attained():
    """One node on a bin, where cos(omega t_max) = 1, misses by about 0.73 of
    the stated bound at t_max: the Gaussian's tail on the bin m below it is
    the largest term the 2 m bins leave out, and the deconvolution
    amplifies it most at t_max."""
    t_max = 10.0
    h = math.pi / (2.0 * t_max)
    omega = np.array([math.pi + 8 * h])  # omega t_max = 14 pi
    times = np.linspace(0.0, t_max, 2001)
    chunks = [(omega, np.ones((1, 1)), [0.0])]
    (values,), _, (bound,) = disorder._evaluate(chunks, (math.pi, math.pi + 12 * h), times)
    error = np.abs(values - _exact_sum(chunks, times)[0])
    assert bound == disorder._NUFFT_ERROR
    assert 0.5 * bound <= error.max() <= bound
    assert error.argmax() == len(times) - 1


def test_frequency_outside_band_is_numerical_error():
    """A node frequency outside the producer's band would be spread past
    the bins; the evaluator refuses it and names it and the band."""
    times = np.linspace(0.0, 10.0, 21)
    for omega in (0.1, 2.0, np.nan):
        chunks = [(np.array([0.7, omega]), np.ones((1, 2)), [0.0])]
        with pytest.raises(NumericalError) as info:
            disorder._evaluate(chunks, (0.5, 1.25), times)
        message = str(info.value)
        assert all(s in message for s in (repr(omega), "0.5", "1.25")), message


def test_zero_noise_band_needs_few_bins():
    """The band's margin follows the rounding of the node frequencies, so a
    zero-noise trace over t_max 1e9 sums 2 m + 3 bins (a margin of 1% gave
    it 1.27e7)."""
    trace = disorder_average_quadrature(P, NoiseSpec(), "zero", np.linspace(0.0, 1e9, 5))
    assert trace.metadata["n_bins"] == 2 * disorder._SPREAD + 3


def test_bin_count_above_the_cap_is_invalid_input():
    """An explicit tensor rule over a wide band and a long window needs more
    bins than the evaluator allows; it names the count before sizing any
    array."""
    times = np.linspace(0.0, 1e6, 11)
    with pytest.raises(ValueError, match=r"needs \d+ frequency bins .* above the limit of 4194304"):
        disorder_average_quadrature(P, NoiseSpec(sigma_e=10.0), "zero", times,
                                    q=QuadratureSpec(n_hermite=5, n_legendre=3))


@pytest.mark.parametrize("tiny, zero", [
    (NoiseSpec(sigma_e=1e-30), NoiseSpec()),
    (NoiseSpec(sigma_j1=1e-30, sigma_j2=1e-30), NoiseSpec()),
    (NoiseSpec(sigma_e=0.01, sigma_j1=1e-24, sigma_j2=1e-24), NoiseSpec(sigma_e=0.01)),
    (NoiseSpec(sigma_j1=0.1, sigma_j2=1e-30), NoiseSpec(sigma_j1=0.1)),
], ids=["sigma_e", "both-sigma_j", "sigma_j-beside-sigma_e", "one-sigma_j"])
def test_sub_resolution_width_is_its_zero_width_limit(tiny, zero):
    """A width whose span rounds away at its mean averages as a zero width
    (the 2D rule's panels had no length left and it built no nodes)."""
    times = np.linspace(0.0, 100.0, 401)
    for initial in ("zero", "superposition"):
        a = disorder_average_quadrature(P, tiny, initial, times)
        b = disorder_average_quadrature(P, zero, initial, times)
        np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-12)


@pytest.mark.parametrize("rule", ["hermite", "legendre"])
@pytest.mark.parametrize("tiny, zero", [
    (NoiseSpec(sigma_j1=1e-170), NoiseSpec()),
    (NoiseSpec(sigma_e=1e-170), NoiseSpec()),
    (NoiseSpec(sigma_e=0.1, sigma_j2=1e-300), NoiseSpec(sigma_e=0.1)),
], ids=["sigma_j1", "sigma_e", "sigma_j2-beside-sigma_e"])
def test_tensor_rule_of_underflowing_width_is_its_zero_width_limit(tiny, zero, rule):
    """Widths whose squares underflow to 0 weigh their Gauss-Legendre nodes
    by the pdf in z = (x - mean) / sigma, so the tensor rule takes the
    zero-width limit instead of 0 / 0 weights."""
    q = QuadratureSpec(n_hermite=3, n_legendre=3, delta_e_rule=rule)
    times = np.linspace(0.0, 50.0, 201)
    for initial in ("zero", "superposition"):
        a = disorder_average_quadrature(P, tiny, initial, times, q=q)
        b = disorder_average_quadrature(P, zero, initial, times, q=q)
        np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-12)


@pytest.mark.parametrize("noise, t_max, count", [
    (NoiseSpec(sigma_e=1e200), 10.0, "inf"),
    (NoiseSpec(sigma_j1=1e200, sigma_j2=0.1), 10.0, "inf"),
    (NoiseSpec(sigma_e=1.0), 1e307, r"\S+e\+307"),
    (NoiseSpec(sigma_e=1e150, sigma_j1=0.2, sigma_j2=0.2), 10.0, "inf"),
    (NoiseSpec(sigma_j1=1e150, sigma_j2=0.2), 10.0, "inf"),
    (NoiseSpec(0.3, 0.2, 0.2), 1e307, r"9\.87085e\+306"),
    (NoiseSpec(sigma_e=1e154), 10.0, "inf"),
    (NoiseSpec(sigma_j1=1e154), 10.0, "inf"),
], ids=["sigma_e", "sigma_j1", "t_max", "polar-sigma_e-1e150", "polar-sigma_j1-1e150", "polar-t_max",
        "u-limit-sigma_e-1e154", "gap-limit-sigma_j1-1e154"])
def test_unresolvable_spans_exceed_the_node_caps(noise, t_max, count):
    """Squares and counts past the float range are checked against the caps
    as floats, not raised as OverflowError or warned about as overflow.  The
    1D u limit (sigma_e alone) is checked by its panel rule; the polar rule
    on its set-up's own products, which overflow at widths of 1e150 and
    name inf nodes, and then on the count its r rule takes.  Widths of
    1e154, whose variances' sums overflow (2 sigma_e^2, or the 2 V under
    kappa), need inf nodes, in either 1D limit too."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"quadrature needs {count} nodes in one dimension"):
            disorder_average_quadrature(P, noise, "zero", np.linspace(0.0, t_max, 11))


@pytest.mark.parametrize("noise", [NoiseSpec(1e80, 0.2, 0.2), NoiseSpec(1e100, 0.2, 0.2), NoiseSpec(1e150, 0.2, 0.2),
                                   NoiseSpec(0.2, 1e150, 0.2)],
                         ids=["sigma_e-1e80", "sigma_e-1e100", "sigma_e-1e150", "sigma_j1-1e150"])
def test_polar_set_up_is_guarded_on_short_windows(noise):
    """On windows of 1e-290 to 1e-100, widths of 1e80 to 1e150 overflow the
    polar set-up's own products: tau (v_e v_u / v), which puts nan in its
    lines' corners, at sigma_e 1e80 to 1e150 (8 of these 12 runs warned
    without the check), and the covariances' quadratic forms over the
    Gaussian's reach at sigma_j1 1e150.  The set-up checks them first and
    raises with inf nodes, with no RuntimeWarning."""
    for t_max in (1e-290, 1e-200, 1e-100):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="quadrature needs inf nodes in one dimension"):
                disorder_average_quadrature(P, noise, "zero", np.linspace(0.0, t_max, 5))


def test_nan_node_count_raises_arithmetic_error():
    """A nan count passes no cap: it is a set-up's rounding residue, which
    the caller names, so it raises ArithmeticError, not the caps' message."""
    with pytest.raises(ArithmeticError, match="count is nan"):
        disorder._check_node_counts(1.0, math.nan)


def test_arcs_skip_lines_out_of_reach_without_warning():
    """A thin strip (sigma_j1 1e-160 beside sigma_e 1e-8 and sigma_j2 0.3):
    the cosine const / r of a line far beyond the smallest radii overflows
    to inf, which clips to +-1 and leaves the line uncrossed, without an
    overflow warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        nodes = reduced_nodes(NoiseSpec(1e-8, 1e-160, 0.3), P.j_prime, 1.0)
        _, total, _, _ = next(nodes.chunks)
    assert np.all(np.isfinite(total)) and total.sum() > 0.0


def test_u_limit_is_checked_on_the_count_its_rule_takes(monkeypatch):
    """sigma_e = 1 alone leaves a Gaussian in u, whose rule is checked on
    the nodes ``panel_rule`` sizes for it: 3,909 build at t_max 900, t_max
    1300 names its own 5,618, and check_convergence at t_max 700 names the
    doubled 6,108 before either average runs."""
    noise = NoiseSpec(sigma_e=1.0)
    assert reduced_nodes(noise, P.j_prime, 900.0).meta["n_r"] == 3909
    with pytest.raises(ValueError, match="quadrature needs 5618 nodes in one dimension"):
        reduced_nodes(noise, P.j_prime, 1300.0)
    calls = []
    monkeypatch.setattr(disorder, "_average", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="quadrature needs 6108 nodes in one dimension"):
        disorder_average_quadrature(P, noise, "zero", np.linspace(0.0, 700.0, 11), check_convergence=True)
    assert calls == []


def test_default_sweep_grid_builds_its_rules_at_t_max_900():
    """Every cell of the default 66-cell grid builds its rule on a window of
    900, the u limit at sigma_e 1 the largest with 3,909 radius nodes."""
    cfg = SweepConfig()
    n_r = {(se, sj): reduced_nodes(NoiseSpec(se, sj, sj, cfg.params.j1, cfg.params.j2), P.j_prime, 900.0).meta["n_r"]
           for se in cfg.grid.sigma_e_values for sj in cfg.grid.sigma_j_values}
    assert max(n_r.values()) == n_r[(1.0, 0.0)] == 3909


def test_default_grid_2d_cells_build_at_t_max_1300():
    """The ten 2D cells of the default grid at sigma_e 0.9 and 1.0 build on
    a window of 1300, checked on the count their r rule takes (2,890 to
    3,627 radius nodes), not on a rule over the gap or u span alone, which
    named 5,065-5,788 nodes for them."""
    cfg = SweepConfig()
    n_r = [reduced_nodes(NoiseSpec(se, sj, sj, cfg.params.j1, cfg.params.j2), P.j_prime, 1300.0).meta["n_r"]
           for se in (0.9, 1.0) for sj in cfg.grid.sigma_j_values if sj > 0.0]
    assert len(n_r) == 10 and min(n_r) == 2890 and max(n_r) == 3627


def test_extreme_widths_and_windows_build_or_name_the_cause():
    """Every width of {0, 1e-300, 1e-8, 0.3, 1e12, 1e80, 1e150, 1e154} for
    each of (sigma_e, sigma_j1, sigma_j2), on windows of 1e-290 to 1e307:
    the 2D rule builds, or raises ValueError naming the node caps or the
    widths too far apart, with no other exception and no RuntimeWarning."""
    widths = (0.0, 1e-300, 1e-8, 0.3, 1e12, 1e80, 1e150, 1e154)
    ends = {"built": 0, "quadrature needs": 0, "too far apart": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for se, s1, s2, t_max in itertools.product(widths, widths, widths, (1e-290, 1e-100, 1e-8, 10.0, 1300.0, 1e307)):
            try:
                reduced_nodes(NoiseSpec(se, s1, s2), P.j_prime, t_max)
                ends["built"] += 1
            except ValueError as err:
                cause = [c for c in ends if c in str(err)]
                assert cause, f"({se}, {s1}, {s2}) at t_max {t_max}: {err}"
                ends[cause[0]] += 1
    assert ends == {"built": 424, "quadrature needs": 2564, "too far apart": 84}


def test_unrepresentable_phase_is_invalid_input():
    """j' = 1e308 puts the node frequencies past the float range; the bin
    grid is not sized from an infinite count."""
    with pytest.raises(ValueError, match="overflow the bin grid"):
        disorder_average_quadrature(ExchangeParams(j_prime=1e308), NoiseSpec(), "zero",
                                    np.linspace(0.0, 10.0, 11))


@pytest.mark.parametrize("method", ["quadrature", "mc"])
def test_phase_bound_separates_resolvable_windows(method):
    """Phases up to 1e-6 * 2^52 rad (4.5e9) run; omega ~ 1 over t_max 1e10
    is past the bound, where rounding alone moves a phase by over 1e-6 rad."""
    def average(t_max):
        times = np.linspace(0.0, t_max, 5)
        if method == "mc":
            return disorder_average_mc(P, NoiseSpec(), "zero", times, 10, 1)
        return disorder_average_quadrature(P, NoiseSpec(), "zero", times)

    assert average(1e9).values[0] == 1.0
    with pytest.raises(ValueError, match=r"om_max t_max <= 1e-6 \* 2\^52"):
        average(1e10)


def test_mc_phase_bound_is_on_the_sampled_frequencies():
    """MC sums cos(2 omega t) for its standard errors, but the phase bound
    stays on omega t_max: omega = 1 over t_max 4e9 runs (2 omega t_max is
    8e9, past the bound) and 5e9 does not."""
    assert disorder_average_mc(P, NoiseSpec(), "zero", np.linspace(0.0, 4e9, 5), 10, 1).values[0] == 1.0
    with pytest.raises(ValueError, match=r"om_max t_max <= 1e-6 \* 2\^52"):
        disorder_average_mc(P, NoiseSpec(), "zero", np.linspace(0.0, 5e9, 5), 10, 1)


def test_band_of_huge_widths_raises_no_overflow_warning():
    """sigma_e 1e200 on an explicit tensor rule: the band squares its bounds
    as Python floats, so the run exits on the band alone, with no numpy
    overflow warning (which the test configuration turns into an error)."""
    with pytest.raises(ValueError, match="frequencies up to inf"):
        disorder_average_quadrature(P, NoiseSpec(sigma_e=1e200), "zero", np.linspace(0.0, 10.0, 11),
                                    q=QuadratureSpec())


def test_evaluator_matches_cos_matrix():
    """The tensor average equals base + coef @ cos(outer(omega, t)) within
    the error bound its metadata states."""
    times = np.linspace(0.0, 80.0, 203)
    noise = NoiseSpec(sigma_e=0.3, sigma_j1=0.2, sigma_j2=0.1)
    q = QuadratureSpec(n_hermite=31, n_legendre=17, delta_e_rule="legendre")
    omega, w, w_zero, w_sup = (np.concatenate(v) for v in zip(*_tensor_nodes(noise, q, P.j_prime, 80.0).chunks))
    cos_matrix = np.cos(np.outer(omega, times))
    mass = w.sum()
    for initial, coef, base in (
        ("zero", 0.5 * w_zero, mass - 0.5 * w_zero.sum()),
        ("superposition", -0.25 * w_sup, 0.5 * mass + 0.25 * w_sup.sum()),
    ):
        trace = disorder_average_quadrature(P, noise, initial, times, q=q)
        bound = trace.metadata["error_bound"]
        assert bound == pytest.approx(disorder._NUFFT_ERROR * np.abs(coef).sum() / mass, rel=1e-12)
        np.testing.assert_allclose(trace.values, (base + coef @ cos_matrix) / mass, rtol=0, atol=bound)


# padded to 4,500, 1,350, 2,160, 1, 2,400, 3,375 and 1,000: factors 3 and 5, n > m and n < m
@pytest.mark.parametrize("n, m", [(4098, 401), (301, 1000), (105, 2001), (1, 1), (2000, 376), (3000, 376), (1000, 1)])
def test_czt_matches_exact_dft(n, m):
    x = np.random.default_rng(n).normal(size=n).astype(complex)
    period = 2618  # 2 pi / period = 2.4e-3
    exact = np.exp(-2j * np.pi * (np.outer(np.arange(m), np.arange(n)) % period) / period) @ x
    err = np.max(np.abs(next(_czt(x, m, period)) - exact))
    assert err <= 1e-12 * np.sum(np.abs(x))


def test_smooth_length_is_the_least_2_3_5_smooth_length():
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    lengths = [disorder._smooth_length(n) for n in range(1, 3001)]
    assert all(smooth(k) and k >= n and not any(smooth(j) for j in range(n, k)) for n, k in enumerate(lengths, 1))
    assert disorder._smooth_length(20_105) == 20_250  # a materials window: 105 bins, 20,001 times
    assert [disorder._smooth_length(n) for n in (4498, 1300, 2105, 2375, 3375)] == [4500, 1350, 2160, 2400, 3375]


def test_czt_stacked_rows_match_single_rows_bit_for_bit():
    x = np.random.default_rng(7).normal(size=(3, 105))
    stacked = next(_czt(x, 2001, 8000))
    assert stacked.shape == (3, 2001)
    for row, out in zip(x, stacked):
        assert np.array_equal(next(_czt(row, 2001, 8000)), out)


def test_czt_peak_memory_on_a_materials_window():
    """Two rows of 105 bins at 20,001 times in one block: the result (0.61
    MiB), the chirp, the kernel and one work array of 20,250, about 1.66 MiB
    traced (1.81 while the chirp's integer index array stayed alive); with
    the power-of-two padding of 32,768 and a new array per FFT it was 2.6 MiB."""
    x = np.random.default_rng(3).normal(size=(2, 105))
    tracemalloc.start()
    try:
        next(_czt(x, 20_001, 80_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * 2 ** 20


def test_czt_keeps_unit_modulus_at_large_size():
    """An impulse at the last of 143,519 bins (28Si at 3 neV) maps to unit-modulus outputs.

    A chirp raised from the complex exp(-i theta) drifts here by about 1e-7.
    """
    x = np.zeros(143_519, dtype=complex)
    x[-1] = 1.0
    y = next(_czt(x, 20_001, 6_283_185))  # 2 pi / period = 1e-6
    assert np.max(np.abs(np.abs(y) - 1.0)) <= 1e-12


def test_czt_blocks_match_exact_dft():
    """A block at start j0 is the transform of x_k W^(j0 k): each of four
    blocks, one starting off the grid of block lengths and one ending at
    output 20,001, matches the exact DFT at its own outputs, and the one
    at j0 = 0 is the plain transform.  The blocks share one buffer."""
    x = np.random.default_rng(5).normal(size=(2, 105))
    period, m, starts = 80_000, 1000, [0, 1000, 2500, 19_001]
    blocks = [block.copy() for block in _czt(x, m, period, starts)]
    for start, block in zip(starts, blocks):
        j = np.arange(start, start + m)
        exact = x @ np.exp(-2j * np.pi * (np.outer(np.arange(105), j) % period) / period)
        assert np.max(np.abs(block - exact)) <= 1e-12 * np.abs(x).sum(axis=1).max()
    assert np.array_equal(blocks[0], next(_czt(x, m, period)))


def _band_chunks(n_bins, t_max, n_nodes=200, seed=11):
    """One chunk of two coefficient sets on a band of n_bins bins over t_max, and the band."""
    rng = np.random.default_rng(seed)
    band = (1.0, 1.0 + (n_bins - 2 * disorder._SPREAD) * math.pi / (2.0 * t_max))
    return [(rng.uniform(*band, n_nodes), rng.normal(size=(2, n_nodes)), [0.3, 0.1])], band


def _czt_calls(monkeypatch):
    """Record each _czt call's input, block length and starts."""
    calls, czt = [], disorder._czt

    def record(x, m, period, starts=(0,)):
        calls.append((x.copy(), m, period, list(starts)))
        return czt(x, m, period, starts)

    monkeypatch.setattr(disorder, "_czt", record)
    return calls


B = disorder._SMALL_BLOCK


@pytest.mark.parametrize("n_bins, n_times, blocks", [
    (100, B - 1, 1), (100, B, 1), (100, B + 1, 2), (100, 3 * B + 1000, 4), (6000, 5001, 1),
], ids=["b-1", "b", "b+1", "three-and-ragged", "wide-band"])
def test_blocked_evaluator_matches_exact_sum(monkeypatch, n_bins, n_times, blocks):
    """The evaluator sums its bins a block of b = max(4,096, n_bins) times at
    a time, the last block ending at t_max; either side of a block edge, over
    three blocks and a ragged rest, and on a band of more than 4,096 bins
    (one block of all the times), it stays within its stated bound of the
    exact cos sum."""
    t_max = 400.0
    times = np.linspace(0.0, t_max, n_times)
    chunks, band = _band_chunks(n_bins, t_max)
    calls = _czt_calls(monkeypatch)
    values, got_bins, bounds = disorder._evaluate(chunks, band, times)
    assert got_bins == n_bins
    (_, m, _, starts), = calls
    assert m == min(n_times, max(B, n_bins)) and len(starts) == blocks and starts[-1] + m == n_times
    error = np.max(np.abs(values - _exact_sum(chunks, times)), axis=1)
    assert np.all(error <= bounds)


@pytest.mark.parametrize("n_bins, n_times", [(100, 801), (100, B), (6000, 5001)])
def test_evaluator_within_one_block_is_the_whole_window_transform(monkeypatch, n_bins, n_times):
    """A window of at most one block keeps the whole-window transform and its
    tail bit for bit: one chirp-z of all the times, shifted back by the first
    bin's phase and divided by the Gaussian's transform at once."""
    times = np.linspace(0.0, 100.0, n_times)
    chunks, band = _band_chunks(n_bins, times[-1])
    calls = _czt_calls(monkeypatch)
    values, _, _ = disorder._evaluate(chunks, band, times)
    (mass, m, period, starts), = calls
    assert (m, starts) == (n_times, [0])
    steps = n_times - 1
    t_frac = np.arange(n_times) / steps
    spectrum = next(_czt(mass, n_times, 4 * steps))
    a, m = disorder._GAUSS_A, disorder._SPREAD
    shift = band[0] * times - (m - 1) * 0.5 * math.pi * t_frac
    osc = spectrum.real * np.cos(shift) + spectrum.imag * np.sin(shift)
    osc /= math.sqrt(math.pi / a) * np.exp(-a * m ** 2 / 8.0 * t_frac ** 2)
    (_, coef, base), = chunks
    osc[:, 0] = [c.sum() for c in coef]
    assert np.array_equal(values, np.asarray(base)[:, None] + osc)


@pytest.mark.parametrize("n_times, limit_mib", [(20_001, 0.8), (400_001, 8.0)])
def test_evaluator_peak_memory_is_its_output_and_one_block(n_times, limit_mib):
    """Two sets on about 100 bins: the output (0.31 MiB at 20,001 times, 6.1
    at 400,001) and one block's transform and tail, about 0.45 MiB; the
    evaluator peaked at 0.76 and 6.57 MiB traced here, where one transform
    of all the times took 1.85 and 36.8.  A first call fills numpy's cache
    of FFT plans, which outlives the evaluator."""
    times = np.linspace(0.0, 2530.0, n_times)
    chunks, band = _band_chunks(104, times[-1], n_nodes=300)
    disorder._evaluate(chunks, band, times)
    tracemalloc.start()
    try:
        values, n_bins, _ = disorder._evaluate(chunks, band, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n_bins == 104 and values.shape == (2, n_times)
    assert peak < limit_mib * 2 ** 20


def test_ndtr_matches_erfc_on_dense_grid():
    """_ndtr is 0.5 erfc(-x / sqrt 2) exactly, its shortcut to 0 and 1
    outside (-38.5, 8.5) included: the grid runs past both cut-offs."""
    x = np.linspace(-40.0, 40.0, 400_001)
    ref = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])
    got = _ndtr(x)
    assert np.array_equal(got, ref)
    assert np.any(x <= -38.5) and np.any(x >= 8.5)
    # below -10 scipy's ndtr itself drifts from math.erfc, by 3.5e-13 at -36.9
    near = x >= -10.0
    sp = scipy.special.ndtr(x[near])
    assert np.max(np.abs(got[near] - sp) / sp) <= 1e-13


@functools.cache
def _built(rule, n):
    """rule(n) and the tracemalloc peak of building it, built once for every test below."""
    tracemalloc.start()
    try:
        x, w = getattr(rule, "__wrapped__", rule)(n)  # past the rule's own cache: really built here
        return x, w, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [1, 2, 3, 21, 81, 150, 151, 399, 400, 1000, 2000, 5000])
def test_hermgauss_matches_scipy_roots_hermite(n):
    x, w, _ = _built(_hermgauss, n)
    x_ref, w_ref = scipy.special.roots_hermite(n)
    assert np.all(np.abs(x - x_ref) <= 1e-12 * np.maximum(1.0, np.abs(x_ref)))
    normal = w_ref > 1e-300
    assert np.all(np.abs(w - w_ref)[normal] <= 1e-10 * w_ref[normal])
    assert abs(w.sum() - math.sqrt(math.pi)) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 41, 1233, 5000])
def test_leggauss_matches_scipy_roots_legendre(n):
    x, w, _ = _built(_leggauss, n)
    x_ref, _ = scipy.special.roots_legendre(n)
    assert np.all(np.abs(x - x_ref) <= 1e-15)
    assert np.all(w > 0.0) and abs(w.sum() - 2.0) <= 1e-13


@pytest.mark.parametrize("n", [41, 1233, 5000])
def test_leggauss_integrates_cos_exactly(n):
    """sum w cos(a x) = 2 sin(a) / a up to a = 0.9 n, to 1e-13.  Weights
    taken as mass / (beta_n p_n' p_{n-1}) at the rounded nodes, as numpy's
    leggauss takes them, miss it by 4.9e-13 at n = 5000."""
    x, w, _ = _built(_leggauss, n)
    a = np.linspace(0.0, 0.9 * n, 64)
    assert np.max(np.abs(np.cos(np.outer(a, x)) @ w - 2.0 * np.sinc(a / np.pi))) <= 1e-13


@pytest.mark.parametrize("n", [81, 1000, 5000])
def test_hermgauss_integrates_cos_exactly(n):
    x, w, _ = _built(_hermgauss, n)
    a = np.linspace(0.0, 10.0, 64)
    assert np.max(np.abs(np.cos(np.outer(a, x)) @ w - math.sqrt(math.pi) * np.exp(-a * a / 4.0))) <= 1e-14


@pytest.mark.parametrize("rule", [_leggauss, _hermgauss])
def test_gauss_rules_take_o_n_memory_at_the_cap(rule):
    """A dense n x n Jacobi matrix at the 5,000-node cap alone takes 191 MiB."""
    assert _built(rule, disorder._MAX_DIM_NODES)[2] < 8 * 2 ** 20


@pytest.mark.parametrize("rule, mass", [(_leggauss, 2.0), (_hermgauss, math.sqrt(math.pi))],
                         ids=["legendre", "hermite"])
def test_gauss_rules_have_n_distinct_nodes_at_every_size(rule, mass):
    """Each asymptotic start leads Newton to a node of its own: every n up
    to 200 and a spread up to the cap give n strictly increasing nodes,
    non-negative weights summing to the weight's mass."""
    switches = (2 * disorder._LEG_END_NODES, disorder._LEG_SERIES_MAX)  # of the Legendre evaluators
    for n in [*range(1, 201), *(s + d for s in switches for d in (-1, 0, 1)), 257, 401, 730, 1001, 2047, 3001, 4999]:
        x, w = rule.__wrapped__(n)
        assert len(x) == n and np.all(np.diff(x) > 0.0) and np.all(w >= 0.0)
        assert abs(w.sum() - mass) <= 1e-14 * mass


def test_legendre_split_evaluators_at_small_sizes(monkeypatch):
    """With no all-series size, every rule takes the end nodes from the
    cosine series and the rest from the interior expansion; the switch then
    falls at n = 2 _LEG_END_NODES, and every n up to 200 still gives n
    strictly increasing nodes whose weights sum to 2."""
    monkeypatch.setattr(disorder, "_LEG_SERIES_MAX", 0)
    for n in range(1, 201):
        x, w = _leggauss.__wrapped__(n)
        assert len(x) == n and np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
        assert abs(w.sum() - 2.0) <= 2e-14


@pytest.mark.parametrize("n", [91, 150, 305, 629, 1233, 3001, 5000])
def test_legendre_interior_expansion_matches_cosine_series_at_the_switch(n):
    """At the nodes 6 to 15 off x = 1, around the switch after node
    _LEG_END_NODES, the two evaluators agree on P_n to 1e-15 |dP/dtheta|
    (a node shift of 1e-15 rad) and on dP/dtheta to 1e-14 relative."""
    x, _ = _leggauss(n)
    k = disorder._LEG_END_NODES
    theta = np.arccos(x[::-1][k - 5:k + 5])
    p, dp = disorder._legendre_series(n, theta)
    p_in, dp_in = disorder._legendre_interior(n, theta)
    assert np.all(np.abs(p_in - p) <= 1e-15 * np.abs(dp))
    assert np.all(np.abs(dp_in - dp) <= 1e-14 * np.abs(dp))


# Gauss-Legendre weights by index, from a 50-digit recurrence (mpmath):
# the nodes 1, 2, 10, 11 and 12 off x = 1 and a middle node (node 0 at odd n)
LEGENDRE_WEIGHTS = {
    305: {304: 7.9509892111578553976e-05, 303: 1.8507573440236924251e-04, 295: 1.0293273981191966807e-03,
          294: 1.1344890976446278488e-03, 293: 1.2395308401965158793e-03, 152: 1.0283431901772910684e-02},
    1233: {1232: 4.8771920778894787674e-06, 1231: 1.1353144084271621147e-05, 1223: 6.3238484635380775487e-05,
           1222: 6.9722934018553797744e-05, 1221: 7.6206931950560305047e-05, 616: 2.5468929027107653651e-03},
    5000: {4999: 2.967710852408797379e-07, 4998: 6.9082648257059715749e-07, 4990: 3.848352550509151679e-06,
           4989: 4.2430494289520799685e-06, 4988: 4.6377446824048036133e-06, 2500: 6.2825567100981737788e-04},
}


@pytest.mark.parametrize("n", sorted(LEGENDRE_WEIGHTS))
def test_leggauss_weights_match_a_50_digit_reference(n):
    """Within 5e-15 relative, the end node at n = 5,000 included: Newton
    stops on a step under 1e-12 theta, where a step under 1e-12 |x| left it
    1.6e-12 off (the recurrence rule before it: 3.8e-10)."""
    w = _built(_leggauss, n)[1]
    for i, ref in LEGENDRE_WEIGHTS[n].items():
        assert abs(w[i] - ref) <= 5e-15 * ref, (n, i)


@pytest.mark.parametrize("n", [1001, 5000])
def test_leggauss_end_nodes_match_mpmath(n):
    """The two nodes next to x = 1, and their weights, against Newton's
    method on the three-term recurrence in 50-digit mpmath arithmetic: within
    1e-14 relative."""
    mpmath = pytest.importorskip("mpmath")
    x, w, _ = _built(_leggauss, n)
    with mpmath.workdps(50):
        for i in (n - 1, n - 2):
            node = mpmath.mpf(float(x[i]))
            for _ in range(3):
                p_prev, p = mpmath.mpf(1), node
                for k in range(1, n):
                    p_prev, p = p, ((2 * k + 1) * node * p - k * p_prev) / (k + 1)
                dp = n * (node * p - p_prev) / (node * node - 1)
                node -= p / dp
            weight = 2 / ((1 - node * node) * dp * dp)
            assert abs(x[i] - node) <= 1e-14 * node and abs(w[i] - weight) <= 1e-14 * weight, (n, i)


# each family's rule, its Newton variable from x and back, and its evaluator
NEWTON_FAMILIES = {
    "legendre": (_leggauss, np.arccos, np.cos, disorder._legendre),
    "hermite": (_hermgauss, np.copy, np.copy, disorder._hermite),
}


@pytest.mark.parametrize("family, n, starts", [
    ("legendre", 4, [0.87, 0.86]), ("hermite", 4, [1.66, 1.64]),
    *((family, n, None) for family in ("legendre", "hermite") for n in (4, 401)),
], ids=["legendre-4-near", "hermite-4-near", "legendre-4", "legendre-401", "hermite-4", "hermite-401"])
def test_newton_rule_with_a_repeated_node_raises(family, n, starts):
    """Two starts that converge to one node leave a node unfound, for both
    families: two starts near one node of the 4-point rule (x = 0.861 and
    1.651), and a converged rule with one start copied to the next, for
    Legendre on the all-series path (n = 4) and on the interior expansion
    (n = 401)."""
    rule, t_of, x_of, evaluate = NEWTON_FAMILIES[family]
    if starts is None:
        starts = rule(n)[0][::-1][:n - n // 2].copy()  # the nodes x >= 0, node 0 last
        starts[n // 2 - 1] = starts[n // 2 - 2]
    with pytest.raises(NumericalError, match=f"{n} distinct nodes"):
        disorder._newton_rule(n, t_of(np.array(starts)), x_of, functools.partial(evaluate, n))


def test_hermite_and_legendre_delta_e_rules_agree():
    """Also at 401 Hermite nodes, past the n = 400 where numpy's hermgauss
    overflows to nan."""
    times = np.linspace(0.0, 30.0, 301)
    noise = NoiseSpec(sigma_e=0.2)
    ql = QuadratureSpec(n_hermite=81, n_legendre=1, delta_e_rule="legendre")
    tl = disorder_average_quadrature(P, noise, "zero", times, q=ql)
    for n in (81, 401):
        qh = QuadratureSpec(n_hermite=n, n_legendre=1, delta_e_rule="hermite")
        th = disorder_average_quadrature(P, noise, "zero", times, q=qh)
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


def test_mc_standard_errors_are_calibrated():
    """Monte Carlo's standard errors have the size of its errors.  At the 49
    nonzero times of criterion 4 (50 points to 150) and five cases, 200
    seeds (1000-1199) of 20,000 samples give z = (p_mc - p_quad) / stderr,
    the quadrature's own error (about 1e-11) negligible against stderrs of
    order 1e-3.  At each (case, time) the sum over seeds of z^2 must lie
    within the chi^2(200) quantiles and |mean z| within the normal quantile
    over sqrt(200), both two-sided.  The 490 statistics share a
    family-wise false-fail probability of 1e-6 by Bonferroni, which holds
    whatever the correlation across times: a correct sampler fails this
    test with probability at most 1e-6, to the normal approximation of z.
    The same z with the stderrs scaled by 0.8 or 1.25 must fail it, so the
    test is shown to have power: at these seeds the sums lie in 153-264
    against [102, 344] and |mean z| is at most 0.19 against 0.42, and x 0.8
    puts 41 sums outside, x 1.25 two (raise the seeds if it puts none)."""
    times, seeds = np.linspace(0.0, 150.0, 50), range(1000, 1200)
    z = []
    for se, sj, initial in [(0.5, 0.2, "zero"), (0.5, 0.2, "superposition"), (0.1, 0.5, "zero"),
                            (0.1, 0.5, "superposition"), (0.75, 0.0, "zero")]:
        noise = NoiseSpec(sigma_e=se, sigma_j1=sj, sigma_j2=sj)
        quad = disorder_average_quadrature(P, noise, initial, times).values[1:]
        mcs = [disorder_average_mc(P, noise, initial, times, 20_000, seed) for seed in seeds]
        z.append([(m.values[1:] - quad) / m.mc_std_errors[1:] for m in mcs])  # t = 0 is exact
    z = np.array(z)  # (case, seed, time)
    alpha = 1e-6 / (2 * z.shape[0] * z.shape[2])  # two statistics per (case, time)
    lo, hi = scipy.stats.chi2.ppf(0.5 * alpha, len(seeds)), scipy.stats.chi2.isf(0.5 * alpha, len(seeds))
    mean_bound = scipy.stats.norm.isf(0.5 * alpha) / math.sqrt(len(seeds))

    def misses(z):
        sums = np.sum(z * z, axis=1)
        return int(np.sum((sums < lo) | (sums > hi)) + np.sum(np.abs(z.mean(axis=1)) > mean_bound))

    assert misses(z) == 0
    for scale in (0.8, 1.25):
        assert misses(z / scale) > 0, scale


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


def _assert_mc_within_stated_bounds(trace, noise, initial, n_samples, seed, at=slice(None)):
    """The MC trace against the direct per-time sums at times ``at``, within
    the evaluator bounds it states: b1 = _NUFFT_ERROR mean|amp| / 2 on the
    mean, b2 = _NUFFT_ERROR mean(amp^2) (1/2 + 1/8) on E[X^2], and so
    sqrt(b2 + 2 |E[X]| b1 + b1^2) / sqrt(N - 1) on a standard error."""
    values, errors = _mc_per_time(noise, initial, trace.times[at], n_samples, seed)
    j1, j2, de = sample_noise(np.random.default_rng(seed), noise, size=n_samples)
    _, amp_zero, amp_sup = oscillation_terms(P.j_prime, j1, j2, de)
    amp = amp_zero if initial == "zero" else 0.5 * amp_sup
    b1 = disorder._NUFFT_ERROR * np.abs(amp).mean() / 2.0
    b2 = disorder._NUFFT_ERROR * (amp * amp).mean() * (1.0 / 2.0 + 1.0 / 8.0)
    assert trace.metadata["error_bound"] == pytest.approx(b1, rel=1e-12)
    assert np.all(np.abs(trace.values[at] - values) <= b1)
    p0 = 1.0 if initial == "zero" else 0.5
    assert trace.values[0] == p0 and trace.mc_std_errors[0] == 0.0
    if n_samples == 1:
        assert not trace.mc_std_errors.any() and trace.metadata["stderr_error_bound"] == 0.0
        return
    bound = np.sqrt(b2 + 2.0 * np.abs(values - p0) * b1 + b1 * b1) / math.sqrt(n_samples - 1)
    assert np.all(np.abs(trace.mc_std_errors[at] - errors) <= bound)
    assert trace.metadata["stderr_error_bound"] >= bound.max() * (1.0 - 1e-9)


@pytest.mark.parametrize("n_samples", [1, 2047, 2049, 5000])
def test_mc_matches_per_time_reference(n_samples):
    noise = NoiseSpec(sigma_e=0.2, sigma_j1=0.1, sigma_j2=0.1)
    for n_times in (1, 2, 81, 130):
        times = np.linspace(0.0, 60.0, n_times)
        for initial in ("zero", "superposition"):
            trace = disorder_average_mc(P, noise, initial, times, n_samples, seed=17)
            _assert_mc_within_stated_bounds(trace, noise, initial, n_samples, 17)


def test_mc_stderr_within_stated_bound_where_the_subtraction_cancels():
    """sigma_j = 0 and the zero state: near t = 0 the spread of the samples
    is a tiny difference of E[X^2] and E[X]^2, and the standard error there
    misses the direct sum by far more than a relative 1e-10 (7e-10 absolute
    against a true 2e-11 at t = dt), but stays within its stated bound.  The
    direct sums run at the first 256 times and every 64th after."""
    noise, n_samples = NoiseSpec(sigma_e=0.5), 100_000
    times = np.linspace(0.0, 200.0, 8001)
    trace = disorder_average_mc(P, noise, "zero", times, n_samples, seed=17)
    at = np.r_[0:256, 256:len(times):64, len(times) - 1]
    _assert_mc_within_stated_bounds(trace, noise, "zero", n_samples, 17, at)


def test_mc_single_sample_zero_noise_is_closed_form():
    times = np.linspace(0.0, 20.0, 201)
    trace = disorder_average_mc(P, NoiseSpec(), "zero", times, 1, seed=0)
    np.testing.assert_allclose(trace.values, return_probability_zero(P, 0.0, times), atol=1e-14)


def test_mc_zero_noise_has_zero_stderr():
    """Draws whose u bracket and gap bracket each round to one point give
    every sample the same u and gap, so the same omega and amp up to the
    rounding of their terms: the standard errors are exactly 0, where
    E[X^2] - E[X]^2 would leave a rounding residue (up to 4e-8 at 1,000
    samples; 3.9e-8 for the zero state at widths of 1e-17, whose sampled
    amplitudes differ in their last bit), and the bound is still recorded."""
    times = np.linspace(0.0, 20.0, 201)
    for noise in (NoiseSpec(), NoiseSpec(sigma_e=1e-300), NoiseSpec(sigma_j1=1e-17), NoiseSpec(1e-17, 1e-17, 1e-17)):
        for initial in ("zero", "superposition"):
            trace = disorder_average_mc(P, noise, initial, times, 1000, seed=3)
            assert np.all(trace.mc_std_errors == 0.0), (noise, initial)
            assert trace.metadata["stderr_error_bound"] > 0.0


def test_mc_forms_each_blocks_terms_once_per_evaluator_pass(monkeypatch):
    """The band comes from the draws' ranges, so ``oscillation_terms`` runs
    only in the two evaluator passes: at 10,000 samples, three blocks of
    _SMALL_BLOCK, that is 6 calls."""
    calls = []
    terms = disorder.oscillation_terms
    monkeypatch.setattr(disorder, "oscillation_terms", lambda *a: calls.append(len(a[1])) or terms(*a))
    disorder_average_mc(P, NoiseSpec(0.1, 0.1, 0.1), "zero", np.linspace(0.0, 20.0, 201), 10_000, seed=3)
    assert calls == 2 * [disorder._SMALL_BLOCK, disorder._SMALL_BLOCK, 10_000 - 2 * disorder._SMALL_BLOCK]


def _mc_three_passes(noise, initial, times, n_samples, seed):
    """(values, standard errors) of the Monte Carlo average with one evaluator
    pass per sum: the cos(2 omega t) part of E[X^2], the mean, and the
    cos(omega t) part of E[X^2], each a single coefficient set, on the band
    of the draws' u and gap brackets, with the same no-spread test."""
    j1, j2, delta_e = sample_noise(np.random.default_rng(seed), noise, size=n_samples)
    omega, amp_zero, amp_sup = oscillation_terms(P.j_prime, j1, j2, delta_e)
    p0, amp = (1.0, -amp_zero) if initial == "zero" else (0.5, 0.5 * amp_sup)
    u_range, gap_range = disorder._brackets(j1, j2, delta_e)
    band = disorder._band(P.j_prime, u_range, gap_range)
    sq = amp * amp

    def one(omega, coef, base, band, **kw):
        (values,), _, _ = disorder._evaluate([(omega, coef[None], [base])], band, times, **kw)
        return values

    twice = one(2.0 * omega, sq / (8.0 * n_samples), 0.0, (2.0 * band[0], 2.0 * band[1]), om_phase=band[1])
    mean = one(omega, amp / (-2.0 * n_samples), 0.5 * amp.mean(), band)
    second = one(omega, sq / (-2.0 * n_samples), 0.375 * sq.mean(), band)
    mean[0] = 0.0
    var = np.maximum(second + twice - mean * mean, 0.0)
    var[0] = 0.0
    if u_range[0] == u_range[1] and gap_range[0] == gap_range[1]:
        var[:] = 0.0
    return np.clip(p0 + mean, 0.0, 1.0), np.sqrt(var / (n_samples - 1 or math.inf))


@pytest.mark.parametrize("noise", [NoiseSpec(sigma_e=0.2, sigma_j1=0.1, sigma_j2=0.1), NoiseSpec(sigma_e=0.5),
                                   NoiseSpec()], ids=["2d", "sigma_e-only", "zero-noise"])
def test_mc_shared_pass_equals_one_pass_per_sum(noise):
    """The mean and E[X^2]'s cos(omega t) part share one evaluator pass, fed
    block by block; up to one block of samples (4,096) the trace and its
    standard errors equal, bit for bit, one whole pass per sum.  Past the
    block edge the sums round differently: at seed 8 the values moved by at
    most 7.7e-14 (zero noise, 10,000 samples) and the standard errors by
    3.5e-13 (sigma_e only), where E[X^2] - E[X]^2 cancels; over seeds 8-27
    at most 7.7e-14 and 4.4e-13, the variances by 2.7e-15.  Both are held
    to 1e-12."""
    times = np.linspace(0.0, 200.0, 2001)
    for n_samples in (3000, 4096, 4097, 10_000):
        for initial in ("zero", "superposition"):
            trace = disorder_average_mc(P, noise, initial, times, n_samples, seed=8)
            values, errors = _mc_three_passes(noise, initial, times, n_samples, 8)
            if n_samples <= disorder._SMALL_BLOCK:
                assert np.array_equal(trace.values, values)
                assert np.array_equal(trace.mc_std_errors, errors)
            else:
                np.testing.assert_allclose(trace.values, values, rtol=0, atol=1e-12)
                np.testing.assert_allclose(trace.mc_std_errors, errors, rtol=0, atol=1e-12)


def test_mc_peak_memory_is_the_draws_and_the_evaluator():
    """1e5 samples x 8,001 times: the three draws (2.3 MiB) stay whole, and
    the terms are formed a block at a time; the average peaks at 3.2 MiB
    traced, where forming every sample's terms at once took 10.8 MiB."""
    noise, times = NoiseSpec(0.1, 0.1, 0.1, P.j1, P.j2), np.linspace(0.0, 200.0, 8001)
    disorder_average_mc(P, noise, "superposition", times, 1000, seed=0)
    tracemalloc.start()
    try:
        disorder_average_mc(P, noise, "superposition", times, 100_000, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


def _node_count(nodes):
    """Nodes a node set holds: the tensor rule's terms, or the 2D rule's points."""
    if nodes.points is None:
        return sum(len(chunk[1]) for chunk in nodes.chunks)
    return sum(len(block[2]) for block in nodes.points())


def test_trace_metadata_records_quadrature_setup():
    times = np.linspace(0.0, 50.0, 201)
    noise = NoiseSpec(sigma_e=0.2, sigma_j1=0.1, sigma_j2=0.1)
    q = QuadratureSpec(n_hermite=60, n_legendre=41, delta_e_rule="legendre")
    md = disorder_average_quadrature(P, noise, "zero", times, q=q).metadata
    assert md["rule"] == "tensor"
    assert md["evaluator"] == "binned"
    assert 0.0 < md["error_bound"] <= disorder._NUFFT_ERROR
    assert md["n_bins"] >= 2 * disorder._SPREAD
    assert md["n_nodes"] == md["n_delta_e"] * md["n_j1"] * md["n_j2"]
    assert md["delta_e_rule"] == "legendre"
    assert md["quadrature_spec"] == q
    assert md["n_nodes"] == _node_count(_tensor_nodes(noise, q, P.j_prime, 50.0))

    # the 2D rule counts its weight evaluations, and the terms it hands the
    # evaluator, one per r node; its normal-CDF step is too wide to cut
    md = disorder_average_quadrature(P, noise, "zero", times).metadata
    assert md["rule"] == "reduced-2d"
    assert md["evaluator"] == "binned"
    assert 0.0 < md["error_bound"] <= disorder._NUFFT_ERROR
    nodes = reduced_nodes(noise, P.j_prime, 50.0)
    assert md["n_nodes"] == _node_count(nodes) and md["cut_steps"] == 0
    assert md["n_r"] == len(next(nodes.chunks)[0]) < md["n_nodes"]
    assert "n_delta_e" not in md and "quadrature_spec" not in md

    # 28Si-like noise (sigma_e = 0) runs on the 2D rule too; its hard edge in
    # u is a line of the region, with no band to cut
    silicon = replace(noise, sigma_e=0.0)
    md = disorder_average_quadrature(P, silicon, "zero", times).metadata
    assert md["rule"] == "reduced-2d" and md["cut_steps"] == 0
    assert md["n_nodes"] == _node_count(reduced_nodes(silicon, P.j_prime, 50.0))


@pytest.mark.parametrize("rule", ["reduced-2d", "tensor"])
def test_node_set_drops_a_block_once_yielded(rule):
    """A node set keeps no reference to a chunk's arrays once it has yielded
    it, so the evaluator's sums run with one chunk's arrays alive at a
    time."""
    noise = NoiseSpec(sigma_e=0.2, sigma_j1=0.1, sigma_j2=0.3)
    if rule == "tensor":
        nodes = _tensor_nodes(noise, QuadratureSpec(n_hermite=8, n_legendre=8), P.j_prime, 50.0)
    else:
        nodes = reduced_nodes(noise, P.j_prime, 50.0)
    chunk = next(nodes.chunks)
    refs = [weakref.ref(a) for a in chunk[1:]] + ([weakref.ref(chunk[0])] if rule == "tensor" else [])
    del chunk
    gc.collect()
    assert all(ref() is None for ref in refs)


@pytest.mark.parametrize("make, n_nodes", [
    (lambda: reduced_nodes(NoiseSpec(sigma_e=1.0, sigma_j1=0.5, sigma_j2=0.5), P.j_prime, 100.0), 34_406),
    (lambda: reduced_nodes(NoiseSpec(sigma_e=1.0, sigma_j1=0.5, sigma_j2=0.5), P.j_prime, 100.0, scale=2), 137_608),
    (lambda: _tensor_nodes(NoiseSpec(sigma_e=0.3, sigma_j2=0.2), QuadratureSpec(2000, 2000, delta_e_rule="legendre"),
                           P.j_prime, 50.0), 4_000_000),
], ids=["sweep-heavy-largest-cell", "sweep-heavy-largest-cell-doubled", "tensor-sigma-j1-0"])
def test_node_set_blocks_hold_at_most_block_nodes(make, n_nodes):
    """Every block of a node set, the 2D rule's weight evaluations or the
    tensor rule's chunks, holds at most _SMALL_BLOCK nodes, and the blocks
    hold the node count of the metadata: the largest cell of the
    sweep-heavy benchmark (sigma_e 1, sigma_j 0.5, t_max 100) and a tensor
    rule whose j1 dimension collapses, so that a j1 slab is the whole 4
    M-node rule, on a window (t_max 50) of fewer bins than _SMALL_BLOCK."""
    nodes = make()
    blocks = nodes.points() if nodes.points else nodes.chunks
    sizes = [np.size(block[2] if nodes.points else block[1]) for block in blocks]
    assert max(sizes) <= disorder._SMALL_BLOCK
    assert sum(sizes) == nodes.meta["n_nodes"] == n_nodes



def test_tensor_chunks_grow_with_the_evaluators_bins():
    """``_evaluate`` pays for its bins once per chunk, so on a long window a
    tensor chunk takes as many j2 rows as fill the bins: at (sigma_e,
    sigma_j1, sigma_j2) = (0.3, 0.2, 0.2) with 200 x 200 x 60 nodes to t_max
    2,530 (7,827 bins) a j1 node's 200 rows go in runs of 130 and 70, not
    in three runs of _SMALL_BLOCK // 60 = 68."""
    nodes = _tensor_nodes(NoiseSpec(sigma_e=0.3, sigma_j1=0.2, sigma_j2=0.2),
                          QuadratureSpec(60, 200, delta_e_rule="legendre"), P.j_prime, 2530.0)
    sizes = [len(chunk[1]) for chunk in nodes.chunks]
    assert sizes == [130 * 60] * 200 + [70 * 60] * 200

def test_convergence_check_rejects_doubled_tensor_counts_past_the_limits(monkeypatch):
    """check_convergence doubles an explicit spec's counts; the doubled counts
    are checked against the limits before either average runs."""
    monkeypatch.setattr(disorder, "_MAX_DIM_NODES", 10)
    noise = NoiseSpec(sigma_e=0.2, sigma_j1=0.1, sigma_j2=0.1)
    q = QuadratureSpec(n_hermite=5, n_legendre=8)
    times = np.linspace(0.0, 10.0, 41)
    assert disorder_average_quadrature(P, noise, "zero", times, q=q).metadata["n_nodes"] == 320
    calls = []
    monkeypatch.setattr(disorder, "_average", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="needs 16 nodes in one dimension"):
        disorder_average_quadrature(P, noise, "zero", times, q=q, check_convergence=True)
    assert calls == []


def test_quadrature_rejects_bad_inputs():
    times = np.linspace(0.0, 10.0, 11)
    with pytest.raises(ValueError, match="initial"):
        disorder_average_quadrature(P, NoiseSpec(), "plus", times)
    with pytest.raises(ValueError, match="uniform"):
        disorder_average_quadrature(P, NoiseSpec(), "zero", np.array([0.0, 1.0, 3.0]))
    with pytest.raises(ValueError, match="n_samples"):
        disorder_average_mc(P, NoiseSpec(), "zero", times, 0, seed=1)


@pytest.mark.parametrize("n_times", [B, 20_001], ids=["one-block", "five-blocks"])
def test_evaluator_tail_holds_three_block_arrays(monkeypatch, n_times):
    """Each block's tail (t / T, the phase, its cosine and sine, the
    Gaussian's transform) holds three (b,) arrays beside the output, 96 KiB
    at b = 4,096, and frees them before the next block: it works a row of
    the (sets, b) block at a time, since a (b,) array broadcast over the
    block takes numpy's 8,192-element buffer.  Broadcast, the tail peaked
    at 165,528 bytes traced on one block and 132,696 on five; row by row it
    peaks at 99,432 on both.  The chirp-z blocks are made before tracing
    starts, so the peak is the tail's alone."""
    times = np.linspace(0.0, 2530.0, n_times)
    chunks, band = _band_chunks(104, times[-1], n_nodes=300)
    czt = disorder._czt

    def made_before(x, m, period, starts=(0,)):
        blocks = [next(czt(x, m, period, (start,))).copy() for start in starts]
        tracemalloc.start()
        yield from blocks

    monkeypatch.setattr(disorder, "_czt", made_before)
    try:
        values, _, _ = disorder._evaluate(chunks, band, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert np.array_equal(values, disorder._evaluate(chunks, band, times)[0])
    assert peak < 3.5 * 8 * B


def _density(noise, gap, u):
    """The (gap, u) density: j1, j2 = s +- gap/2 and delta_e = s - u, a map of
    Jacobian 1, integrated over s."""
    def f(s):
        return (pdf_exchange(s + 0.5 * gap, noise.j01, noise.sigma_j1)
                * pdf_exchange(s - 0.5 * gap, noise.j02, noise.sigma_j2) * pdf_delta_e(s - u, noise.sigma_e))
    return integrate(f, 0.5 * abs(gap), np.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def _density_at_degeneracy(noise):
    """The (gap, u) density at gap 0, u = j', the origin of the polar plane."""
    return _density(noise, 0.0, P.j_prime)


@pytest.mark.parametrize("sigma_e, sigma_j, predicted", [
    (0.5, 0.3, -0.0478475), (1.0, 0.5, -0.1153463), (0.3, 0.1, 0.0),
])
def test_2d_tail_meets_the_degeneracy_point_endpoint_term(sigma_e, sigma_j, predicted):
    """In the plane (d, c) = r (cos phi, sin phi) of the polar rule omega = r
    and amp_zero = sin^2 phi, so P_zero(t) - P_inf = (1/2) int_0^inf r G(r)
    cos(r t) dr, with G(r) the (d, c) density times sin^2 phi summed over the
    circle of radius r.  G is even in r, so the endpoint expansion keeps
    only odd derivatives of r G:

        P_zero(t) = P_inf + A / t^2 + A4 / t^4 + O(t^-6),
        A = -G(0) / 2 = -(pi / (2 sqrt(0.75))) rho,  A4 = (3/2) G''(0),

    rho the (gap, u) density at the degeneracy point.  G''(0) = (pi / 4)
    (rho_dd + 3 rho_cc) at the origin; here it is taken from the (d, c)
    Gaussian before the couplings' truncation at 0, which leaves out a few
    percent of A4 at (1.0, 0.5) and less at the other cells.

    P_inf is eliminated by differencing t and 2 t: (4/3) t^2 (P(t) - P(2 t))
    = A + (5/4) A4 / t^2 + O(t^-4) on t in [400, 800].  The tolerance is an
    eighth of the next-order term, for its estimate, plus (8/3) t^2 times the
    trace's stated error bound at both times, 4-8e-12 here (doubling the
    rule, which these windows do not allow under the node caps, moves the
    traces to 800 by 2e-13).  Against the next-order term alone the
    differences read 2.8e-5 and 5.0e-6 at t = 400 (estimates 2.8e-5 and
    5.1e-6), and the rest stays within 4.6e-7.  At (0.3, 0.1) the
    degeneracy point lies 7 deviations out, rho is 1.8e-11, and the
    quantity reads 0 within the trace's error."""
    noise = NoiseSpec(sigma_e, sigma_j, sigma_j)
    rho = _density_at_degeneracy(noise)
    a = -(math.pi / (2.0 * polar._C_PER_GAP)) * rho
    assert a == pytest.approx(predicted, abs=1e-7)
    var_d = 0.25 * (noise.sigma_j1 ** 2 + noise.sigma_j2 ** 2) + 2.0 * noise.sigma_e ** 2
    var_c = 0.75 * (noise.sigma_j1 ** 2 + noise.sigma_j2 ** 2)
    mean_d, mean_c = P.j_prime - 0.5 * (noise.j01 + noise.j02), polar._C_PER_GAP * (noise.j01 - noise.j02)
    curvature = (mean_d ** 2 / var_d ** 2 - 1.0 / var_d) + 3.0 * (mean_c ** 2 / var_c ** 2 - 1.0 / var_c)
    a4 = 1.5 * (math.pi / 4.0) * (rho / polar._C_PER_GAP) * curvature
    times = np.linspace(0.0, 1600.0, 64_001)
    trace = disorder_average_quadrature(P, noise, "zero", times)
    error = trace.metadata["error_bound"]
    k = np.arange(16_000, 32_001)  # t in [400, 800]; 2 k is 2 t
    t = times[k]
    scaled = (4.0 / 3.0) * t ** 2 * (trace.values[k] - trace.values[2 * k])
    next_term = 1.25 * a4 / t ** 2
    assert np.all(np.abs(scaled - a - next_term) <= 0.125 * abs(next_term) + (8.0 / 3.0) * t ** 2 * error)


def test_1d_tail_meets_stationary_phase():
    """With both sigma_j zero, d = j' - u is Gaussian (mean mu, variance v =
    2 sigma_e^2) and omega = sqrt(d^2 + c^2), c = sqrt(0.75) |j01 - j02|, is
    stationary at d = 0 (omega'' = 1/c, amp_zero = 1).  With g(d) =
    rho_d(d) c^2 / (d^2 + c^2) and theta = c t + pi/4, stationary phase
    (Bender & Orszag 1978, ch. 6) gives

        P_zero(t) = P_inf + (g(0) / 2) sqrt(2 pi c / t) (cos theta
                    + A1 sin theta / t^(3/2) + A2 cos theta / t^(5/2) + ...)

    up to the prefactor, so the residual R after the leading term obeys
    R t^(3/2) = A1 sin theta + A2 cos theta / t + O(t^-2), with A1, A2 from
    the even Taylor coefficients g2, g4 of g and omega's x^4, x^6
    coefficients.  At sigma_e 0.5, A1 = 0.5918 (the 0.592 measured on
    windows to 200 and to 800) and A2 = -1.025.  The test holds
    |R t^(3/2) - A1 sin theta| to 1.25 |A2| / t, the quarter covering the
    t^-2 term (2.7 / t^2 measured, under 3% of |A2| / t from t = 100 on),
    plus t^(3/2) times the trace's stated error and 1e-9 for the rule's
    6-deviation truncation, which moves P_inf by at most half the 2e-9 of
    mass it drops.  P_inf is the Voigt mean of amp_zero, pi c V(mu; sqrt v,
    c).  t_max is 2,000: at 3,000 this rule needs 6,471 nodes, above the
    5,000 cap."""
    noise = NoiseSpec(0.5, 0.0, 0.0)
    c = polar._C_PER_GAP * abs(noise.j01 - noise.j02)
    mu, v = P.j_prime - 0.5 * (noise.j01 + noise.j02), 2.0 * noise.sigma_e ** 2
    g0 = math.exp(-mu * mu / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)
    p_inf = 1.0 - 0.5 * math.pi * c * scipy.special.voigt_profile(mu, math.sqrt(v), c)
    # g = g0 exp(al d - be d^2) (1 - d^2 / c^2 + d^4 / c^4 - ...): its even Taylor coefficients
    al, be = mu / v, 0.5 / v
    g2 = 2.0 * g0 * (al * al / 2.0 - be - 1.0 / c ** 2)
    g4 = 24.0 * g0 * (al ** 4 / 24.0 - al * al * be / 2.0 + be * be / 2.0 - (al * al / 2.0 - be) / c ** 2 + 1.0 / c ** 4)
    # omega = c + d^2 / (2 c) + b4 d^4 / 24 + b6 d^6 / 720 + ...
    a, b4, b6 = 1.0 / c, -3.0 / c ** 3, 45.0 / c ** 5
    t1 = g2 / 2.0 - g0 * b4 / (8.0 * a)
    t2 = g4 / 8.0 - 15.0 * g2 * b4 / (48.0 * a) - g0 * b6 / (48.0 * a) + 105.0 * g0 * b4 ** 2 / (1152.0 * a * a)
    a1 = -0.5 * math.sqrt(2.0 * math.pi * c) * t1 / a
    a2 = -0.5 * math.sqrt(2.0 * math.pi * c) * t2 / (a * a)
    assert a1 == pytest.approx(0.5918, abs=1e-4) and a2 == pytest.approx(-1.025, abs=1e-3)
    times = np.linspace(0.0, 2000.0, 80_001)
    trace = disorder_average_quadrature(P, noise, "zero", times)
    t, values = times[times >= 100.0], trace.values[times >= 100.0]
    theta = c * t + math.pi / 4.0
    scaled = (values - p_inf - 0.5 * g0 * np.sqrt(2.0 * math.pi * c / t) * np.cos(theta)) * t ** 1.5
    assert np.all(np.abs(scaled - a1 * np.sin(theta))
                  <= 1.25 * abs(a2) / t + (trace.metadata["error_bound"] + 1e-9) * t ** 1.5)
    assert np.max(np.abs(scaled[t >= 1000.0])) == pytest.approx(a1, abs=1e-3)


@pytest.mark.parametrize("sigma_e, sigma_j, predicted, next_coef", [
    (0.5, 0.3, -0.422396, 10.6), (1.0, 0.5, -0.0945168, -0.61),
])
def test_superposition_tail_meets_the_mixed_partials_at_degeneracy(sigma_e, sigma_j, predicted, next_coef):
    """With amp_sup = sin 2 phi, P_sup(t) - P_inf = -(1/4) int_0^inf r H(r)
    cos(r t) dr, H(r) the (d, c) density times sin 2 phi summed over the
    circle of radius r.  The angular mean of sin 2 phi kills the density's
    value and first derivatives at the origin, and of its second ones keeps
    only the mixed d-c partial, B+ on c > 0 and B- on c < 0, one-sided
    because of the |gap| kink: H(r) = (pi / 4) (B+ + B-) r^2 + O(r^3).  The endpoint expansion keeps
    the odd derivatives of r H (Watson's lemma), so the t^-5 term vanishes
    and

        P_sup(t) = P_inf + K / t^4 + L / t^6 + O(t^-8),
        K = -(3/2)(pi / 4)(B+ + B-) = (pi / 2)(rho_gu(0+, j') + rho_gu(0-, j')),

    rho_gu the mixed partial of the (gap, u) density, here one-sided in the
    gap and central in u at step 1e-3 (second order; 1e-6 from the limit).
    At (1.0, 0.5) the two sides differ, -0.02992 against -0.03025.  L is
    not derived: a least-squares fit of P_inf + K t^-4 + L t^-6 to the
    traces on [40, 400] gave L = 10.6 and -0.61, within 7.9e-12 and 1.8e-12
    of them, and K within 1.1e-4 and 2e-7 of these.  So only K is an
    independent oracle: the L term, fitted to the traces this test reads,
    at (0.5, 0.3) exceeds what the tolerance would leave without it (4.5e-3
    at t = 50), and serves to let t start at 50.

    P_inf is eliminated by differencing t and 2 t: (16/15) t^4 (P(t) -
    P(2 t)) = K + (21/20) L / t^2 + O(t^-4) on t in [50, 120], where both
    L / t^2 and the trace's error bound times t^4 stay small.  The
    tolerance is a quarter of the L term, for its estimate and the terms
    after it, plus (32/15) t^4 times the stated error bound at both times.
    What is left after the L term reads under 9% of it at (0.5, 0.3), and
    under 3e-5 at (1.0, 0.5), where the error bound's 1.3e-5 to 4.3e-4
    dominates; each side stays under a fifth of its tolerance.  The test
    fails on an under-sized rule (_RULE_TOLERANCE 1e-7, _PANEL_MARGIN 0, or
    0.7 of _gauss_points) and on one truncated at 5 deviations."""
    noise = NoiseSpec(sigma_e, sigma_j, sigma_j)
    h = 1e-3

    def mixed(side):  # d^2 rho / d gap d u at gap 0 on one side
        def d_gap(u):
            return side * (-3.0 * _density(noise, 0.0, u) + 4.0 * _density(noise, side * h, u)
                           - _density(noise, 2.0 * side * h, u)) / (2.0 * h)
        return (d_gap(P.j_prime + h) - d_gap(P.j_prime - h)) / (2.0 * h)

    k = 0.5 * math.pi * (mixed(1.0) + mixed(-1.0))
    assert k == pytest.approx(predicted, abs=1e-6)
    times = np.linspace(0.0, 240.0, 9_601)
    trace = disorder_average_quadrature(P, noise, "superposition", times)
    i = np.arange(2_000, 4_801)  # t in [50, 120]; 2 i is 2 t
    t = times[i]
    scaled = (16.0 / 15.0) * t ** 4 * (trace.values[i] - trace.values[2 * i])
    next_term = 1.05 * next_coef / t ** 2
    assert np.all(np.abs(scaled - k - next_term)
                  <= 0.25 * abs(next_term) + (32.0 / 15.0) * t ** 4 * trace.metadata["error_bound"])
