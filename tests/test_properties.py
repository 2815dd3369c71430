"""Property tests over random noise and CLI configs (hypothesis)."""

import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from deoq_dyn import disorder, polar  # noqa: E402
from deoq_dyn.analysis import _envelope_points, fit_envelope  # noqa: E402
from deoq_dyn.cli import main  # noqa: E402
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
    reduced = disorder_average_quadrature(P, noise, initial, TIMES)
    tensor = disorder_average_quadrature(P, noise, initial, TIMES, q=REFERENCE)
    assert reduced.metadata["rule"] == "reduced-2d"
    np.testing.assert_allclose(reduced.values, tensor.values, rtol=0, atol=1e-7)


def _scale1_count(span, t_max, factor=1.0):
    """Nodes of the scale-1 2D rule over a span: 0.35 per radian of phase span, 41 at least."""
    return max(41, math.ceil(0.35 * t_max * span * factor))


def _near_threshold(axis, ratio, sigma, other, t_max):
    """(sigma_e, sigma_j1, sigma_j2) whose normal-CDF step on ``axis`` is
    about ``ratio`` times the cut threshold, 4 node spacings span / n of the
    scale-1 rule, and that ratio as built.

    In u the step's width tau = sqrt(v_e v_u / v) over span 12 sqrt(v_u)
    gives the ratio sqrt(v_e / v) n_u / 48, at sigma_j1 = sigma and
    sigma_j2 = other.  On the gap, a narrow coupling s_n beside a wide s_w
    makes a step of width s_n sqrt(V) / s_w, V = s_n^2 + s_w^2, over span
    12 sqrt(V): the ratio s_n n_gap / (48 s_w), on the high side of the gap
    when j1 is the narrow coupling and on the low side when j2 is.  A few
    fixed-point passes solve for sigma_e or s_n, on which n depends.
    """
    w = QuadratureSpec().truncation_width
    if axis == "u":
        v = (sigma * other) ** 2 / (sigma ** 2 + other ** 2)
        sigma_e = 0.0
        for _ in range(8):
            n = _scale1_count(2 * w * math.sqrt(v + 2 * sigma_e ** 2), t_max)
            sigma_e = ratio * 8 * w * math.sqrt(v / 2) / n
        n = _scale1_count(2 * w * math.sqrt(v + 2 * sigma_e ** 2), t_max)
        return (sigma_e, sigma, other), math.sqrt(2 * sigma_e ** 2 / v) * n / (8 * w)
    narrow = other
    for _ in range(8):
        var = narrow ** 2 + other ** 2
        n = _scale1_count(2 * w * math.sqrt(var), t_max, 1 + abs(narrow ** 2 - other ** 2) / (2 * var))
        narrow = ratio * 8 * w * other / n
    var = narrow ** 2 + other ** 2
    n = _scale1_count(2 * w * math.sqrt(var), t_max, 1 + abs(narrow ** 2 - other ** 2) / (2 * var))
    widths = (narrow, other) if axis == "gap-hi" else (other, narrow)
    return (sigma, *widths), narrow * n / (8 * w * other)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    axis=st.sampled_from(["u", "gap-hi", "gap-lo"]),
    ratio=st.floats(1 / 3, 3.0),
    sigma=st.floats(0.02, 0.5),
    other=st.floats(0.02, 0.5),
    t_max=st.floats(1.0, 100.0),
    c1=st.floats(0.0, 3.0),
    c2=st.floats(0.0, 3.0),
    initial=st.sampled_from(["zero", "superposition"]),
)
def test_cdf_cuts_only_where_sharp_move_no_trace(axis, ratio, sigma, other, t_max, c1, c2, initial):
    """Where a normal-CDF step of the 2D rule (tau in u, or a gap mass edge)
    is within a factor 3 of the threshold the (gap, u) rule cut it at, the
    2D rule agrees with itself at 3x the node counts to 1e-10.  The means lie
    within 3 widths of 0, so the truncation puts the steps inside the
    ranges."""
    widths, built = _near_threshold(axis, ratio, sigma, other, t_max)
    hypothesis.assume(1 / 3 <= built <= 3.0)
    noise = NoiseSpec(*widths, c1 * widths[1], c2 * widths[2])
    times = np.linspace(0.0, t_max, 401)
    values = [disorder._average(polar.reduced_nodes(noise, P.j_prime, t_max, scale), (initial,), times)[0][0]
              for scale in (1, 3)]
    assert np.max(np.abs(values[0] - values[1])) <= 1e-10


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
    ta = disorder_average_quadrature(P, a, "zero", TIMES)
    tb = disorder_average_quadrature(P, b, "zero", TIMES)
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

    def record(chunks, band, times):
        chunks = list(chunks)
        bands.append(band)
        omegas.extend(omega for omega, _, _ in chunks)
        at_zero = sum(np.asarray(base) + coef.sum(axis=1) for _, coef, base in chunks)
        return np.outer(at_zero, np.ones(len(times))), 0, [0.0] * len(at_zero)

    nodes_delta_e = disorder._nodes_delta_e

    def signed(sigma_e, q):
        x, w = nodes_delta_e(sigma_e, q)
        return sign * x, w

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(disorder, "_evaluate", record)
        mp.setattr(disorder, "_nodes_delta_e", signed)
        disorder_average_quadrature(params, noise, "zero", np.linspace(0.0, t_max, 3), q=q)
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


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=50))
def test_ndtr_is_a_distribution_function(xs):
    """Values in [0, 1], monotone in x, and Phi(x) + Phi(-x) = 1."""
    x = np.sort(np.array(xs))
    phi = polar._ndtr(x)
    assert np.all((phi >= 0.0) & (phi <= 1.0))
    assert np.all(np.diff(phi) >= 0.0)
    np.testing.assert_allclose(phi + polar._ndtr(-x), 1.0, rtol=0, atol=1e-15)


def envelope_points_loop(times, values):
    """The envelope rule as a scan: each rise starts a run of equal values,
    and a run that falls afterwards gives its midpoint."""
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


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    values=st.one_of(
        st.lists(st.integers(0, 3), min_size=1, max_size=60),  # plateaus and ties
        st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=60),
    ),
    negate=st.booleans(),
)
def test_envelope_points_match_the_scan(values, negate):
    """The run-length envelope rule picks the points of the scan it replaced."""
    v = np.array(values, dtype=float) * (-1.0 if negate else 1.0)
    t = np.linspace(0.0, 3.0, len(v))
    np.testing.assert_array_equal(_envelope_points(t, v), envelope_points_loop(t, v))


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(
    sigma_e=width(0.005, 2.0),
    sigma_j1=width(0.01, 1.0),
    sigma_j2=width(0.01, 1.0),
    j01=st.floats(0.0, 2.0),
    j02=st.floats(0.0, 2.0),
    initial=st.sampled_from(["zero", "superposition"]),
)
def test_averaged_trace_stays_in_unit_interval(sigma_e, sigma_j1, sigma_j2, j01, j02, initial):
    """Before clipping, the average over any drawn noise stays within the
    1e-6 of [0, 1] that the clip forgives, so no spec raises NumericalError,
    and the trace it returns lies in [0, 1]."""
    raw = []
    clip = disorder._clip_probabilities

    def spy(values):
        raw.append(values.copy())
        return clip(values)

    disorder._clip_probabilities = spy
    try:
        trace = disorder_average_quadrature(P, NoiseSpec(sigma_e, sigma_j1, sigma_j2, j01, j02),
                                            initial, np.linspace(0.0, 60.0, 241))
    finally:
        disorder._clip_probabilities = clip
    [values] = raw
    assert -1e-6 <= values.min() and values.max() <= 1.0 + 1e-6
    assert 0.0 <= trace.values.min() and trace.values.max() <= 1.0


# --------------------------------------------------------- CLI echo round trip


def num(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def block(required=None, **optional):
    """A JSON object whose ``optional`` keys are each drawn or left out."""
    return st.fixed_dictionaries(required or {}, optional=optional)


def maybe_null(strategy):
    return st.one_of(st.none(), strategy)


PARAMS = block(j_prime=num(0.0, 1.0), j1=num(0.2, 1.0), j2=num(1.0, 2.0), ez=num(5.0, 15.0))
TIMES_BLOCK = block({"t_max": num(2.0, 30.0), "n_points": st.integers(11, 201)})
QUADRATURE = maybe_null(block(
    {"n_hermite": st.integers(3, 15), "n_legendre": st.integers(3, 15)},
    truncation_width=num(3.0, 6.0), delta_e_rule=st.sampled_from(["hermite", "legendre"]),
))
INITIAL = st.sampled_from(["zero", "superposition"])
J0_EV = num(1e-7, 1e-5)
# n_samples is always given so that a Monte Carlo run stays small; a
# quadrature run takes it and drops it
SIMULATE = block(
    {"times": TIMES_BLOCK, "n_samples": st.integers(1, 200)},
    command=maybe_null(st.just("simulate")),
    method=st.sampled_from(["quadrature", "mc"]),
    params=PARAMS,
    noise=block(sigma_e=width(0.005, 0.5), sigma_j1=width(0.005, 0.3), sigma_j2=width(0.005, 0.3),
                j01=num(0.2, 1.0), j02=num(1.0, 2.0)),
    initial=INITIAL,
    check_convergence=st.booleans(),
    quadrature=QUADRATURE,
    seed=st.integers(0, 2**31),
    j0_ev=maybe_null(J0_EV),
)
FLAGS = block(**{"--seed": st.integers(0, 99), "--method": st.sampled_from(["quadrature", "mc"]),
                 "--samples": st.integers(1, 200)})
FIT = block({"simulate": SIMULATE}, command=maybe_null(st.just("fit")), j0_ev=maybe_null(J0_EV))
SWEEP = block(
    {"grid": block({
        "sigma_e_values": st.lists(width(0.005, 0.5), min_size=1, max_size=2, unique=True).map(sorted),
        "sigma_j_values": st.lists(width(0.005, 0.3), min_size=1, max_size=1),
    }), "times": TIMES_BLOCK},
    command=maybe_null(st.just("sweep")), params=PARAMS, initial=INITIAL, quadrature=QUADRATURE,
    j0_ev=J0_EV,
)
# presets and widths are always given: null or absent means the 120 default points
MATERIALS = block(
    {"presets": st.lists(block({"name": st.text("abcSiGa", min_size=1, max_size=4),
                                 "sigma_e_floor_ev": num(0.0, 1e-7)}), min_size=1, max_size=1),
     "sigma_j_values_ev": st.lists(num(1e-7, 5e-7), min_size=1, max_size=1)},
    command=maybe_null(st.just("materials")), j0_ev=num(1e-6, 2e-6),
    both_initial_conditions=st.booleans(), params=block(j1=num(0.3, 0.7), j2=num(1.2, 1.8)),
)
CASES = st.one_of(
    st.tuples(st.just("simulate"), SIMULATE, FLAGS),
    st.tuples(st.just("fit"), FIT, FLAGS),
    st.tuples(st.just("sweep"), SWEEP, st.just({})),
    st.tuples(st.just("materials"), MATERIALS, st.just({})),
)


def run_cli(work, command, cfg, flags, name):
    cfg_path, out = work / f"{name}.json", work / f"{name}.out"
    cfg_path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(cfg_path), "--out", str(out)]
    assert main(argv + [str(v) for item in flags.items() for v in item]) == 0
    return out


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(case=CASES)
def test_cli_echo_reproduces_the_output(tmp_path_factory, case):
    """Every output embeds the config that ran; running that config, with no
    flags, writes the same bytes.  Drawn keys are present, absent or, where
    null is allowed, null."""
    command, cfg, flags = case
    work = tmp_path_factory.mktemp(command)
    first = run_cli(work, command, cfg, flags, "first")
    text = first.read_text()
    echo = json.loads(text)["config"] if command == "fit" else json.loads(text.rsplit("# config=", 1)[1])
    assert run_cli(work, command, echo, {}, "second").read_bytes() == first.read_bytes()
