"""Property tests for the numerical radius sweep: unitary and phase
invariance, the sandwich ||T||/2 <= omega(T) <= ||T||, and the norm it
reports."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ineqlab.linalg import operator_norm  # noqa: E402
from ineqlab.radius import numerical_radius  # noqa: E402

REL = 1e-12
# Zero entries give sparse, nilpotent and rank-deficient operators; the
# nonzero ones keep a bounded dynamic range so no product underflows.
ENTRY = st.one_of(
    st.just(0j),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1.0, allow_nan=False, allow_infinity=False),
)
SETTINGS = hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def square_matrices(draw, dim):
    return np.array(draw(st.lists(ENTRY, min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)


@st.composite
def operators(draw):
    """(T, U): T scaled into [1e-3, 1e3] and a unitary U of the same size."""
    dim = draw(st.integers(min_value=1, max_value=8))
    scale = draw(st.floats(min_value=1e-3, max_value=1e3))
    unitary, _ = np.linalg.qr(draw(square_matrices(dim)))
    return scale * draw(square_matrices(dim)), unitary


def assert_close(value, reference):
    assert abs(value - reference) <= REL * reference


@SETTINGS
@hypothesis.given(operators(), st.floats(min_value=0.0, max_value=2.0 * np.pi))
def test_radius_is_unitarily_and_phase_invariant(operator, alpha):
    t, u = operator
    omega = numerical_radius(t).omega
    assert_close(numerical_radius(np.exp(1j * alpha) * t).omega, omega)
    assert_close(numerical_radius(u.conj().T @ t @ u).omega, omega)


@SETTINGS
@hypothesis.given(operators())
def test_radius_lies_between_half_norm_and_norm(operator):
    t, _ = operator
    result = numerical_radius(t)
    assert result.norm == operator_norm(t)
    assert 0.5 * result.norm * (1.0 - REL) <= result.omega <= result.norm * (1.0 + REL)
