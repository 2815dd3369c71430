"""Property tests over random noise (hypothesis)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from deoq_dyn.disorder import (  # noqa: E402
    NoiseSpec,
    QuadratureSpec,
    adaptive_quadrature_spec,
    disorder_average_quadrature,
)
from deoq_dyn.qubit import ExchangeParams  # noqa: E402

P = ExchangeParams()
TIMES = np.linspace(0.0, 15.0, 61)


@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(
    sigma_e=st.floats(0.005, 0.5),
    sigma_j1=st.floats(0.02, 0.4),
    sigma_j2=st.floats(0.02, 0.4),
    j01=st.floats(0.0, 2.0),
    j02=st.floats(0.0, 2.0),
    initial=st.sampled_from(["zero", "superposition"]),
)
def test_reduced_rule_equals_tensor_rule(sigma_e, sigma_j1, sigma_j2, j01, j02, initial):
    """The 2D route and the 3D tensor rule at twice its adaptive node
    counts compute the same average."""
    noise = NoiseSpec(sigma_e, sigma_j1, sigma_j2, j01, j02)
    q = adaptive_quadrature_spec(noise, TIMES[-1])
    q2 = QuadratureSpec(n_hermite=2 * q.n_hermite, n_legendre=2 * q.n_legendre,
                        delta_e_rule="legendre")
    reduced = disorder_average_quadrature(P, noise, initial, TIMES, _evaluator="direct")
    tensor = disorder_average_quadrature(P, noise, initial, TIMES, q=q2, _evaluator="direct")
    assert reduced.metadata["rule"] == "reduced-2d"
    np.testing.assert_allclose(reduced.values, tensor.values, rtol=0, atol=1e-7)
