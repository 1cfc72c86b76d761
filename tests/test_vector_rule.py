"""Every registry row that takes vectors reads them by one rule, whether or
not an operator stands beside them: a 2-D ndarray is a (trials, d) stack,
any other value is one trial's vector, one matrix is one trial, and a bad
row of a stack raises the error of the one-trial chain on that row."""

import numpy as np
import pytest

from ineqlab.chains import one_trial
from ineqlab.ensembles import EnsembleConfig, draw, trial_stream
from ineqlab.errors import IneqLabError, InvalidInput
from ineqlab.harness import REGISTRY
from ineqlab.linalg import as_vector

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
