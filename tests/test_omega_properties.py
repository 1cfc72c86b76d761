"""Property tests: the stacked numerical radius computes, row by row, exactly
what it computes on each matrix alone, and every omega batch kernel computes,
row by row, exactly what its one-trial chain computes, which is exactly what
the literal one-matrix formulas below compute; an uncertified radius makes
the kernel raise the first failing trial's own error."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ineqlab.chains import ToleranceConfig  # noqa: E402
from ineqlab.ensembles import EnsembleConfig, draw, trial_stream  # noqa: E402
from ineqlab.errors import IneqLabError  # noqa: E402
from ineqlab.harness import REGISTRY  # noqa: E402
from ineqlab.linalg import polar_decompose, psd_power, psd_sqrt  # noqa: E402
from ineqlab.radius import numerical_radius, numerical_radius_sampling_oracle  # noqa: E402

OMEGA_SUITES = [
    "corollary37", "corollary38_omega", "power_r1", "power_r2", "power_r3",
    "final_omega_refinement", "omega_oracle",
]
SETTINGS = hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
ORACLE_SAMPLES = 64


def _bits(value) -> bytes:
    return np.asarray(value).tobytes()


@st.composite
def stacks(draw_from):
    """A seeded Ginibre stack of 1-5 trials at dims 1-6, one row maybe zeroed."""
    trials = draw_from(st.integers(min_value=1, max_value=5))
    dim = draw_from(st.integers(min_value=1, max_value=6))
    seed = draw_from(st.integers(min_value=0, max_value=2**32))
    stack = draw("ginibre", trial_stream(EnsembleConfig("ginibre", dim, seed, trials), np.arange(trials)), dim)
    zero = draw_from(st.none() | st.integers(min_value=0, max_value=trials - 1))
    if zero is not None:
        stack[zero] = 0.0
    return stack


@SETTINGS
@hypothesis.given(stacks())
def test_stacked_radius_rows_equal_one_matrix_calls(stack):
    stacked = numerical_radius(stack)
    for t, matrix in enumerate(stack):
        alone = numerical_radius(matrix)
        assert isinstance(alone.omega, float) and alone.witness.shape == matrix.shape[:1]
        for field in ("omega", "upper", "norm", "argmax_angle", "witness"):
            assert _bits(getattr(stacked, field)[t]) == _bits(getattr(alone, field))


# The chains on one trial as one-matrix radius calls and Python-float
# arithmetic, the form they had before the batch kernels: the reference
# every row must equal bit for bit.
def _sym(m):
    return 0.5 * (m + m.conj().T)


def _hnorm(m):
    """The norm of a Hermitian operand: max|lambda| of its eigvalsh spectrum."""
    return float(np.abs(np.linalg.eigvalsh(m)).max())


def _corollary37(a, b):
    product, alone, norm_b = numerical_radius(a @ _sym(b)), numerical_radius(a), _hnorm(_sym(b))
    return [product.omega, 0.5 * norm_b * (alone.omega + alone.norm), 1.5 * norm_b * alone.omega]


def _corollary38_omega(a, s, t):
    moduli = _hnorm(t.conj().T @ t + s @ s.conj().T)
    return [numerical_radius(s @ _sym(a) @ t).omega, 0.25 * moduli + 0.5 * numerical_radius(s @ t).omega]


def _power(a, s, t, power):
    moduli = _hnorm(psd_power(t.conj().T @ t, power) + psd_power(s @ s.conj().T, power))
    sandwich, product = numerical_radius(s @ _sym(a) @ t).omega, numerical_radius(s @ t).omega
    return [sandwich**power, 0.25 * moduli + 0.5 * product**power]


def _final_omega_refinement(t):
    polar = polar_decompose(t)
    whole, rotated = numerical_radius(t), numerical_radius(polar.unitary @ psd_sqrt(polar.modulus))
    root = float(np.sqrt(whole.norm))
    return [
        whole.omega,
        0.5 * (whole.norm + root * rotated.omega),
        0.5 * (whole.norm + root * rotated.norm),
        0.5 * (whole.norm + root * root),  # ||U|| = 1
        whole.norm,
    ]


def _omega_oracle(m, samples, seed):
    radius = numerical_radius(m)
    return [numerical_radius_sampling_oracle(m, samples, int(seed)), radius.omega, radius.norm]


REFERENCE = {
    "corollary37": _corollary37, "corollary38_omega": _corollary38_omega,
    "power_r1": _power, "power_r2": _power, "power_r3": _power,
    "final_omega_refinement": _final_omega_refinement, "omega_oracle": _omega_oracle,
}


def _suite_inputs(name, data):
    """Seeded draws of a suite's inputs over 1-5 trials at dims 1-6, in
    argument order, with one matrix row maybe zeroed, and the kernel's
    keyword arguments: per-trial oracle seeds for ``omega_oracle``."""
    spec = REGISTRY[name]
    trials = data.draw(st.integers(min_value=1, max_value=5))
    dim = data.draw(st.integers(min_value=1, max_value=6))
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    stream = trial_stream(EnsembleConfig(spec.family, dim, seed, trials), np.arange(trials))
    drawn = [draw(family, stream, dim) for family in spec.draws]
    zero = data.draw(st.none() | st.tuples(st.integers(0, trials - 1), st.integers(0, len(drawn) - 1)))
    if zero is not None:
        drawn[zero[1]][zero[0]] = 0.0
    if spec.suite_samples is None:
        return spec, spec.arranged(drawn), lambda rows: spec.kwargs
    seeds = stream.raw(1).reshape(-1)
    return spec, spec.arranged(drawn), lambda rows: {"samples": ORACLE_SAMPLES, "seed": seeds[rows]}


def _outcome(chain, *args, **kwargs):
    try:
        return chain(*args, **kwargs)
    except IneqLabError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", OMEGA_SUITES)
@SETTINGS
@hypothesis.given(data=st.data())
def test_omega_kernel_rows_equal_one_trial_chain(name, data):
    spec, inputs, kwargs = _suite_inputs(name, data)
    batch = spec.kernel(*inputs, tolerance=ToleranceConfig(), **kwargs(slice(None)))
    for t in range(len(inputs[0])):
        row = spec.kernel.chain(*[block[t] for block in inputs], tolerance=ToleranceConfig(), **kwargs(t))
        assert batch.result(t) == row
        assert _bits(batch.values[t]) == _bits(row.values)
        assert _bits(batch.slacks[t]) == _bits(row.slacks)
        reference = REFERENCE[name](*[block[t] for block in inputs], **kwargs(t))
        assert _bits(row.values) == _bits(np.array(reference, dtype=float))


@pytest.mark.parametrize("name", OMEGA_SUITES)
@SETTINGS
@hypothesis.given(data=st.data())
def test_omega_kernel_raises_the_first_uncertified_trials_error(name, data):
    # No radius of a nonzero operator is certified to 1e-17: upper sits at
    # omega (1 + 1e-12).  Only a trial whose radii are all zero passes.
    spec, inputs, kwargs = _suite_inputs(name, data)
    tight = ToleranceConfig(eps_rel_omega=1e-17)
    rows = [
        _outcome(spec.kernel.chain, *[block[t] for block in inputs], tolerance=tight, **kwargs(t))
        for t in range(len(inputs[0]))
    ]
    failures = [row for row in rows if isinstance(row, tuple)]
    if not failures:
        assert spec.kernel(*inputs, tolerance=tight, **kwargs(slice(None))).passed.all()
        return
    error, message = failures[0]
    assert error.__name__ == "ConvergenceError"
    with pytest.raises(error) as raised:
        spec.kernel(*inputs, tolerance=tight, **kwargs(slice(None)))
    assert str(raised.value) == message
