"""Property tests: the triangle chains compute their angle terms exactly as
:func:`ineqlab.vector_ineq.angles` does."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ineqlab.vector_ineq import angles, krein_triangle, lin_triangle_refined  # noqa: E402

ENTRY = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def complex_triples(draw):
    dim = draw(st.integers(min_value=1, max_value=6))
    vectors = [np.array(draw(st.lists(ENTRY, min_size=dim, max_size=dim))) for _ in range(3)]
    hypothesis.assume(all(np.linalg.norm(v) > 0.0 for v in vectors))
    return vectors


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(complex_triples())
def test_triangle_terms_match_angles_bit_for_bit(triple):
    x, y, z = triple
    krein = krein_triangle(x, y, z)
    assert krein.values == [angles(x, z).phi, angles(x, y).phi + angles(y, z).phi]
    lin = lin_triangle_refined(x, y, z)
    assert lin.values[0] == angles(x, y).psi
    assert lin.values[2] == angles(x, z).psi + angles(z, y).psi
