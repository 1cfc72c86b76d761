"""Property tests: every operator batch kernel computes, row by row, exactly
what its one-trial chain computes, which is exactly what the literal
one-matrix formulas below compute, and a row that breaks a hypothesis makes
the kernel raise the error the one-trial chain raises on that row."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ineqlab.chains import ToleranceConfig, one_trial  # noqa: E402
from ineqlab.ensembles import EnsembleConfig, draw, trial_stream  # noqa: E402
from ineqlab.errors import DimensionMismatch, IneqLabError, InvalidInput  # noqa: E402
from ineqlab.harness import REGISTRY  # noqa: E402

KERNEL_SUITES = [
    "lemma_2A", "theorem_gap", "corollary33", "corollary33_scaled", "corollary35",
    "remark36_scaled", "remark36_polar", "corollary38_norm", "bourin_r1", "bourin_r2",
]

# Faults applied to one operator row; each breaks a hypothesis of some chain:
# a non-Hermitian entry, a spectrum pushed below every window, the zero operator.
FAULTS = {
    "not_hermitian": lambda m: m + 1e-6j * np.eye(m.shape[-1]),
    "below_window": lambda m: m - 2.0 * np.eye(m.shape[-1]),
    "zero": np.zeros_like,
}
# Faults applied to one x or y row: a non-finite entry, which every chain rejects.
VECTOR_FAULTS = {
    "nan": lambda v: np.concatenate(([np.nan], v[1:])),
    "minus_inf_imag": lambda v: np.concatenate(([complex(0.0, -np.inf)], v[1:])),
}


# The chains as one-matrix numpy and Python-float arithmetic, the form they
# had before the batch kernels: the reference every row must equal bit for bit.
def _sym(m):
    return 0.5 * (m + m.conj().T)


def _inner(x, y):
    return complex(np.vdot(y, x))


def _norm(v):
    return float(np.linalg.norm(v))


def _quad(m, v):
    return max(float(np.real(np.vdot(v, m @ v))), 0.0)


def _opnorm(m):
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _hnorm(m):
    """The norm of a Hermitian operand: max|lambda| of its eigvalsh spectrum."""
    return float(np.abs(np.linalg.eigvalsh(m)).max())


def _power(m, r):
    values, vectors = np.linalg.eigh(_sym(m))
    order = np.argsort(values)[::-1]
    result = (vectors[:, order] * np.clip(values[order], 0.0, None) ** r) @ vectors[:, order].conj().T
    return 0.5 * (result + result.conj().T)


def _lemma_2A(a, x, y):
    a = _sym(a)
    gap = 2.0 * a - a @ a
    return [abs(_inner(x - a @ x, y - a @ y)), _norm(x) * _norm(y) - np.sqrt(_quad(gap, x) * _quad(gap, y))]


def _theorem_gap(a, x, y):
    a = _sym(a)
    gap = a - a @ a
    middle = np.sqrt(_quad(gap, x) * _quad(gap, y)) - abs(_inner(gap @ x, y))
    return [0.0, middle, (_norm(x) * _norm(y) - abs(_inner(x, y))) / 4.0]


def _corollary33(a, x, y, scaled=False):
    a = _sym(a)
    group = (np.sqrt(_quad(a, x) * _quad(a, y)) - abs(_inner(a @ x, y))) / (_hnorm(a) if scaled else 1.0)
    return [abs(_inner(x, y)) + group, _norm(x) * _norm(y)]


def _corollary35(a, x, y):
    a = _sym(a)
    return [abs(_inner(a @ x, y)), 0.5 * (_norm(x) * _norm(y) + abs(_inner(x, y)))]


def _remark36_scaled(a, x, y):
    a = _sym(a)
    return [abs(_inner(a @ x, y)), 0.5 * _hnorm(a) * (abs(_inner(x, y)) + _norm(x) * _norm(y))]


def _remark36_polar(a, x, y):
    left, values, right_h = np.linalg.svd(a)
    unitary, half = left @ right_h, 0.5 * float(values[0])
    u_on_x = abs(_inner(unitary @ x, y))
    rotated = _norm(unitary.conj().T @ y)
    return [abs(_inner(a @ x, y)), half * (u_on_x + _norm(x) * rotated), half * (u_on_x + _norm(x) * _norm(y))]


def _corollary38_norm(a, s, t):
    a = _sym(a)
    return [_opnorm(s @ a @ t), 0.5 * (_opnorm(t) * _opnorm(s) + _opnorm(s @ t))]


def _bourin(m, n, power):
    top = max(float(np.linalg.eigvalsh(_sym(0.5 * (m + n)))[-1]), 0.0)
    return [top**power, 0.5 * _hnorm(_power(m, power) + _power(n, power))]


REFERENCE = {
    "lemma_2A": _lemma_2A, "theorem_gap": _theorem_gap, "corollary33": _corollary33,
    "corollary33_scaled": _corollary33, "corollary35": _corollary35, "remark36_scaled": _remark36_scaled,
    "remark36_polar": _remark36_polar, "corollary38_norm": _corollary38_norm,
    "bourin_r1": _bourin, "bourin_r2": _bourin,
}


def test_kernel_suites_are_the_batched_operator_rows():
    kernels = [REGISTRY[name].kernel for name in KERNEL_SUITES]
    assert all(k.__module__ == "ineqlab.operator_ineq" and k.__name__.endswith("_batch") for k in kernels)


# Every row's one-trial chain evaluates a two-trial stack of its inputs (2-D
# ndarray vectors, 3-D ndarray matrices) and rejects it as a stack.
@pytest.mark.parametrize("name", list(REGISTRY))
def test_one_trial_chain_rejects_a_stack(name):
    spec = REGISTRY[name]
    stream = trial_stream(EnsembleConfig(spec.family, 3, 5, 2), np.arange(2))
    inputs = spec.arranged([draw(family, stream, 3) for family in spec.draws])
    message = f"{name}: expected one trial's inputs, got a stack of 2"
    with pytest.raises(InvalidInput) as raised:
        one_trial(spec.kernel)(*inputs, tolerance=ToleranceConfig(), **spec.kwargs)
    assert (type(raised.value), str(raised.value)) == (InvalidInput, message)


def _outcome(chain, *args, **kwargs):
    try:
        return chain(*args, **kwargs)
    except IneqLabError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", KERNEL_SUITES)
@hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_batch_rows_equal_one_trial_chain_bit_for_bit(name, data):
    spec = REGISTRY[name]
    trials = data.draw(st.integers(min_value=1, max_value=5))
    dim = data.draw(st.integers(min_value=1, max_value=6))
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    stream = trial_stream(EnsembleConfig(spec.family, dim, seed, trials), np.arange(trials))
    drawn = [draw(family, stream, dim) for family in spec.draws]
    matrices = [i for i, family in enumerate(spec.draws) if family != "unit_vector"]
    vectors = [i for i, family in enumerate(spec.draws) if family == "unit_vector"]
    trial = st.integers(0, trials - 1)
    faults = [st.tuples(trial, st.sampled_from(matrices), st.sampled_from(sorted(FAULTS)))]
    if vectors:
        faults.append(st.tuples(trial, st.sampled_from(vectors), st.sampled_from(sorted(VECTOR_FAULTS))))
    fault = data.draw(st.one_of(st.none(), *faults))
    if fault is not None:
        row, position, kind = fault
        drawn[position][row] = {**FAULTS, **VECTOR_FAULTS}[kind](drawn[position][row])
    inputs = spec.arranged(drawn)
    rows = [_outcome(one_trial(spec.kernel), *[block[t] for block in inputs], **spec.kwargs) for t in range(trials)]
    failures = [row for row in rows if isinstance(row, tuple)]
    if failures:
        error, message = failures[0]
        with pytest.raises(error) as raised:
            spec.kernel(*inputs, **spec.kwargs)
        assert str(raised.value) == message
        return
    batch = spec.kernel(*inputs, **spec.kwargs)
    assert batch.values.shape == (trials, len(rows[0].terms))
    for t, row in enumerate(rows):
        assert batch.result(t) == row
        assert batch.values[t].tobytes() == np.array(row.values).tobytes()
        assert batch.slacks[t].tobytes() == np.array(row.slacks).tobytes()
        reference = REFERENCE[name](*[block[t] for block in inputs], **spec.kwargs)
        assert np.array(row.values).tobytes() == np.array(reference, dtype=float).tobytes()


@pytest.mark.parametrize(
    "name, kind, error",
    [
        ("theorem_gap", "not_hermitian", "NotHermitian"),
        ("lemma_2A", "below_window", "SpectrumOutOfRange"),
        ("corollary38_norm", "below_window", "SpectrumOutOfRange"),
        ("bourin_r2", "below_window", "NotPositiveSemidefinite"),
    ],
)
def test_kernel_raises_the_first_failing_rows_error(name, kind, error):
    # Rows 1 and 3 are broken, row 3 further: the message must be row 1's.
    spec = REGISTRY[name]
    stream = trial_stream(EnsembleConfig(spec.family, 3, 41, 5), np.arange(5))
    drawn = [draw(family, stream, 3) for family in spec.draws]
    drawn[0][1] = FAULTS[kind](drawn[0][1])
    drawn[0][3] = FAULTS[kind](FAULTS[kind](drawn[0][3]))
    inputs = spec.arranged(drawn)
    expected = _outcome(one_trial(spec.kernel), *[block[1] for block in inputs], **spec.kwargs)
    assert expected[0].__name__ == error
    with pytest.raises(expected[0]) as raised:
        spec.kernel(*inputs, **spec.kwargs)
    assert str(raised.value) == expected[1]


@pytest.mark.parametrize("name", KERNEL_SUITES)
def test_kernel_rejects_inputs_with_unequal_trial_counts(name):
    # One input holds one trial beside three-trial others: no input may broadcast.
    spec = REGISTRY[name]
    stream = trial_stream(EnsembleConfig(spec.family, 3, 43, 3), np.arange(3))
    inputs = spec.arranged([draw(family, stream, 3) for family in spec.draws])
    for position in range(len(inputs)):
        short = [block[:1] if i == position else block for i, block in enumerate(inputs)]
        with pytest.raises(DimensionMismatch, match="has shape"):
            spec.kernel(*short, **spec.kwargs)
