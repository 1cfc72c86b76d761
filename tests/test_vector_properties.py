"""Property tests: the triangle chains compute their angle terms exactly as
:func:`ineqlab.vector_ineq.angles` does, and every batch kernel computes,
row by row, exactly what its one-trial chain computes."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ineqlab import vector_ineq as vi  # noqa: E402
from ineqlab.ensembles import EnsembleConfig, draw, trial_stream  # noqa: E402
from ineqlab.errors import IneqLabError  # noqa: E402
from ineqlab.vector_ineq import angles, krein_triangle, lin_triangle_refined  # noqa: E402

ENTRY = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
# Faults put into one entry of one vector row: a zero row, which only the
# angle chains reject, or a non-finite entry, which every chain rejects.
FAULTS = (0.0, np.nan, np.inf, complex(0.0, -np.inf), complex(np.nan, np.nan))

# kernel, one-trial chain, number of vector inputs, fixed keyword arguments
KERNELS = {
    "buzano": (vi.buzano_batch, vi.buzano_chain, 3, {}),
    "lemma21": (vi.lemma21_batch, vi.lemma21_chain, 3, {}),
    "cs_refinement": (vi.cs_refinement_batch, vi.cs_refinement_chain, 3, {}),
    "krein_triangle": (vi.krein_triangle_batch, vi.krein_triangle, 3, {}),
    "lin_triangle_refined": (vi.lin_triangle_refined_batch, vi.lin_triangle_refined, 3, {}),
    "psi_infimum": (vi.psi_infimum_batch, vi.psi_infimum_property, 2, {}),
    "projection_buzano": (vi.projection_buzano_batch, vi.projection_buzano, 2, {}),
}


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


def _outcome(chain, *args, **kwargs):
    try:
        return chain(*args, **kwargs)
    except IneqLabError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(KERNELS))
@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_batch_rows_equal_one_trial_chain_bit_for_bit(name, data):
    kernel, chain, count, kwargs = KERNELS[name]
    trials = data.draw(st.integers(min_value=1, max_value=5))
    dim = data.draw(st.integers(min_value=1, max_value=6))
    size = trials * dim
    inputs = [np.array(data.draw(st.lists(ENTRY, min_size=size, max_size=size))).reshape(trials, dim) for _ in range(count)]
    faults = st.tuples(st.integers(0, trials - 1), st.integers(0, count - 1), st.sampled_from(FAULTS))
    fault = data.draw(st.none() | faults)
    if fault is not None:
        row, position, value = fault
        if value == 0.0:
            inputs[position][row] = 0.0
        else:
            inputs[position][row, data.draw(st.integers(0, dim - 1))] = value
    if name == "projection_buzano":
        seed = data.draw(st.integers(min_value=0, max_value=2**32))
        cfg = EnsembleConfig("projection", dim, seed, trials)
        inputs.insert(0, draw("projection", trial_stream(cfg, np.arange(trials)), dim))
    rows = [_outcome(chain, *[block[t] for block in inputs], **kwargs) for t in range(trials)]
    failures = [row for row in rows if isinstance(row, tuple)]
    if failures:
        # The kernel raises the error of the one-trial chain on the first
        # failing row: a non-finite entry, or a zero vector in an angle chain.
        assert name in ("krein_triangle", "lin_triangle_refined", "psi_infimum") or fault[2] != 0.0
        error, message = failures[0]
        with pytest.raises(error) as raised:
            kernel(*inputs, **kwargs)
        assert str(raised.value) == message
        return
    batch = kernel(*inputs, **kwargs)
    for t, row in enumerate(rows):
        assert batch.result(t) == row
        assert batch.values[t].tobytes() == np.array(row.values).tobytes()
