"""Every registry row that takes vectors reads them by one rule, whether or
not an operator stands beside them: a 2-D ndarray is a (trials, d) stack,
any other value is one trial's vector, one matrix is one trial, and a bad
row of a stack raises the error of the one-trial chain on that row."""

import warnings

import numpy as np
import pytest

from ineqlab.chains import one_trial
from ineqlab.ensembles import EnsembleConfig, draw, trial_stream
from ineqlab.errors import IneqLabError, InvalidInput
from ineqlab.harness import REGISTRY
from ineqlab.linalg import as_vector
from ineqlab.vector_ineq import krein_triangle_batch

VECTOR_ROWS = [name for name, spec in REGISTRY.items() if "unit_vector" in spec.draws]
DIM = 3


def _draws(spec, trials: int) -> list:
    stream = trial_stream(EnsembleConfig(spec.family, DIM, 31, trials), np.arange(trials))
    return [draw(family, stream, DIM) for family in spec.draws]


def _outcome(kernel, spec, drawn):
    try:
        result = kernel(*spec.arranged(drawn), **spec.kwargs)
    except IneqLabError as exc:
        return type(exc), str(exc)
    return result.values, np.array(result.values).tobytes(), np.array(result.slacks).tobytes(), result.passed


@pytest.mark.parametrize("name", VECTOR_ROWS)
def test_vectors_follow_one_rule_beside_any_operator(name):
    spec = REGISTRY[name]
    chain = one_trial(spec.kernel)
    vectors = [i for i, family in enumerate(spec.draws) if family == "unit_vector"]

    # A (1, d) ndarray row beside one matrix is one trial: the 1-D result, bit for bit.
    drawn = _draws(spec, 1)
    rows = [block if i in vectors else block[0] for i, block in enumerate(drawn)]
    alone = [block[0] for block in drawn]
    expected = _outcome(chain, spec, alone)
    assert isinstance(expected[0], list)
    assert _outcome(chain, spec, rows) == expected

    # A nested list of rows is one vector, beside a stack too: the one-vector message.
    drawn = _draws(spec, 2)
    drawn[vectors[0]] = drawn[vectors[0]].tolist()
    with pytest.raises(InvalidInput) as one_vector:
        as_vector(drawn[vectors[0]], "x")
    assert _outcome(spec.kernel, spec, drawn) == (InvalidInput, str(one_vector.value))

    # A NaN in row 1 of a vector stack raises as the one-trial chain on row 1.
    drawn = _draws(spec, 3)
    drawn[vectors[-1]][1, 0] = np.nan
    expected = _outcome(chain, spec, [block[1] for block in drawn])
    assert expected[0] is InvalidInput
    assert _outcome(spec.kernel, spec, drawn) == expected

    # A stack of empty rows is rejected, not passed on all-zero terms.
    drawn = [np.zeros((2, 0)) if i in vectors else block for i, block in enumerate(_draws(spec, 2))]
    assert _outcome(spec.kernel, spec, drawn) == (InvalidInput, "x: empty vector")


def _rows(batch) -> list:
    """Each row of a ChainBatch as :func:`_outcome` gives a one-trial result."""
    results = [batch.result(t) for t in range(len(batch.values))]
    return [(r.values, np.array(r.values).tobytes(), np.array(r.slacks).tobytes(), r.passed) for r in results]


@pytest.mark.parametrize("name", VECTOR_ROWS)
def test_real_and_integer_stacks_give_the_one_trial_rows(name):
    # A stack of any numeric dtype is read as complex, as a one-trial vector
    # is.  Real stacks used to round apart from the one-trial chain, and
    # integer stacks summed int64 squares, which wrap above about 3e9.
    spec = REGISTRY[name]
    chain = one_trial(spec.kernel)
    vectors = [i for i, family in enumerate(spec.draws) if family == "unit_vector"]
    drawn = _draws(spec, 50)
    for real in (lambda v: v.real, lambda v: np.rint(4e9 * v.real).astype(np.int64)):
        stacks = [real(block) if i in vectors else block for i, block in enumerate(drawn)]
        expected = [_outcome(chain, spec, [block[t] for block in stacks]) for t in range(50)]
        assert isinstance(expected[0][0], list)
        assert _rows(spec.kernel(*spec.arranged(stacks), **spec.kwargs)) == expected


@pytest.mark.parametrize("name", VECTOR_ROWS)
def test_faults_in_two_vector_inputs_raise_trial_by_trial(name):
    # A NaN in row 2 of the first vector input and in row 0 of the second:
    # the stack raises row 0's error, as the one-trial chain on row 0 does.
    spec = REGISTRY[name]
    vectors = [i for i, family in enumerate(spec.draws) if family == "unit_vector"]
    drawn = _draws(spec, 3)
    drawn[vectors[0]][2, 0] = np.nan
    drawn[vectors[1]][0, 0] = np.nan
    expected = _outcome(one_trial(spec.kernel), spec, [block[0] for block in drawn])
    assert expected[0] is InvalidInput
    assert _outcome(spec.kernel, spec, drawn) == expected


def test_an_integer_stack_whose_squares_wrap_int64_evaluates():
    # 4e9 squared exceeds int64: the stack raised "term 'phi_xz' is not finite".
    stack = np.array([[4_000_000_000, 0], [1, 2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = krein_triangle_batch(stack, stack, stack)
        copy = krein_triangle_batch(*[stack.astype(np.float64)] * 3)
    assert batch.values.tobytes() == copy.values.tobytes()
    assert batch.passed.all()
