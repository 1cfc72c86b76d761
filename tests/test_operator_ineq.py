"""Operator inequality chains: fixed examples, preconditions, property loops."""

import re
import warnings

import numpy as np
import pytest

from ineqlab import errors, operator_ineq
from ineqlab.ensembles import EnsembleConfig, draw, trial_stream
from ineqlab.harness import REGISTRY
from ineqlab.linalg import is_positive_contraction, operator_norm, polar_decompose, psd_sqrt
from ineqlab.operator_ineq import (
    bourin_property,
    contraction_builder,
    corollary33_chain,
    corollary35_batch,
    corollary35_chain,
    corollary37_chain,
    corollary38_norm_chain,
    corollary38_omega_chain,
    final_omega_refinement_chain,
    lemma_2A_chain,
    power_chain,
    remark36_polar_chain,
    remark36_scaled,
    remark36_scaled_unchecked,
    theorem_gap_batch,
    theorem_gap_chain,
)

SHIFT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
HALF_PROJ = np.full((2, 2), 0.5)


def random_vec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_contraction(rng, n, top=1.0):
    g = random_matrix(rng, n)
    q = np.linalg.qr(g)[0]
    vals = rng.uniform(0.0, top, size=n)
    m = (q * vals) @ q.conj().T
    return 0.5 * (m + m.conj().T)


# ---------------------------------------------------------------------------
# lemma_2A and theorem_gap


def test_lemma_2A_fixed_examples():
    rng = np.random.default_rng(40)
    x, y = random_vec(rng, 3), random_vec(rng, 3)
    at_identity = lemma_2A_chain(np.eye(3), x, y)
    assert at_identity.values == pytest.approx([0.0, 0.0], abs=1e-9)
    at_zero = lemma_2A_chain(np.zeros((3, 3)), x, y)
    expected = [abs(np.vdot(y, x)), np.linalg.norm(x) * np.linalg.norm(y)]
    assert at_zero.values == pytest.approx(expected)


def test_lemma_2A_random():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = random_contraction(rng, n, top=2.0)
        assert lemma_2A_chain(a, random_vec(rng, n), random_vec(rng, n)).passed


def test_lemma_2A_rejects_out_of_range_spectrum():
    with pytest.raises(errors.SpectrumOutOfRange):
        lemma_2A_chain(3.0 * np.eye(2), [1.0, 0.0], [0.0, 1.0])
    with pytest.raises(errors.NotHermitian):
        lemma_2A_chain(SHIFT, [1.0, 0.0], [0.0, 1.0])


def test_theorem_gap_equality_at_half_identity():
    chain = theorem_gap_chain(0.5 * np.eye(2), [1.0, 0.0], [0.0, 1.0])
    assert chain.values == pytest.approx([0.0, 0.25, 0.25])
    assert chain.passed
    for a in (np.eye(2), np.zeros((2, 2))):
        degenerate = theorem_gap_chain(a, [1.0, 0.0], [0.0, 1.0])
        assert degenerate.values[1] == pytest.approx(0.0, abs=1e-12)


def test_theorem_gap_random_and_middle_nonnegative():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = random_contraction(rng, n)
        chain = theorem_gap_chain(a, random_vec(rng, n), random_vec(rng, n))
        assert chain.passed
        assert chain.values[1] >= -1e-12


def test_theorem_gap_passes_every_excursion_its_window_accepts():
    """The [0, 1] window takes a slack of HERMITIAN_TOL = 1e-10, far above the
    chain's 1e-12 floor when x = y; A = diag(1 + 5e-11, 0) with x = y = e1
    read gap_defect = -5e-11 and failed.  An accepted input never fails, and
    a stack row inside [0, 1] keeps the bits of its one-matrix call."""
    e1 = np.array([1.0, 0.0])
    for a in (np.diag([1.0 + 5e-11, 0.0]), np.diag([1.0, -5e-11]), np.diag([1.0 + 9.9e-11, -9.9e-11])):
        chain = theorem_gap_chain(a, e1, e1)
        assert chain.passed and chain.min_slack >= 0.0
    with pytest.raises(errors.SpectrumOutOfRange):
        theorem_gap_chain(np.diag([1.0 + 2e-10, 0.0]), e1, e1)
    rng = np.random.default_rng(11)
    for n in (2, 3, 5):
        q = np.linalg.qr(random_matrix(rng, n))[0]
        edges = [np.r_[1.0 + 9e-11, rng.uniform(0.0, 1.0, n - 2), -9e-11], rng.uniform(0.0, 1.0, n)]
        stack = np.stack([(q * values) @ q.conj().T for values in edges])
        near = q[:, 0] + 1e-7 * random_vec(rng, n), q[:, 0] + 1e-7 * random_vec(rng, n)
        xs, ys = np.stack([near[0], random_vec(rng, n)]), np.stack([near[1], random_vec(rng, n)])
        batch = theorem_gap_batch(stack, xs, ys)
        assert batch.passed.all(), batch.slacks
        inside = theorem_gap_batch(stack[1], xs[1], ys[1])
        assert np.array_equal(batch.values[1], inside.values[0])


def test_theorem_gap_rejects_non_contraction():
    with pytest.raises(errors.SpectrumOutOfRange):
        theorem_gap_chain(1.5 * np.eye(2), [1.0, 0.0], [0.0, 1.0])


# ---------------------------------------------------------------------------
# corollary 3.x vector bounds


def test_corollary33_fixed_examples():
    chain = corollary33_chain(HALF_PROJ, [1.0, 0.0], [1.0, 0.0])
    assert chain.values == pytest.approx([1.0, 1.0])
    rng = np.random.default_rng(43)
    x, y = random_vec(rng, 4), random_vec(rng, 4)
    identity = corollary33_chain(np.eye(4), x, y)
    assert identity.slacks[0] == pytest.approx(0.0, abs=1e-9)


def test_corollary33_scaled_mode():
    rng = np.random.default_rng(44)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        a = random_contraction(rng, n, top=5.0)
        if operator_norm(a) == 0.0:
            continue
        assert corollary33_chain(a, random_vec(rng, n), random_vec(rng, n), scaled=True).passed
    with pytest.raises(errors.ZeroOperator):
        corollary33_chain(np.zeros((2, 2)), [1.0, 0.0], [0.0, 1.0], scaled=True)
    # Unscaled mode must reject operators beyond the contraction range.
    with pytest.raises(errors.SpectrumOutOfRange):
        corollary33_chain(2.0 * np.eye(2), [1.0, 0.0], [0.0, 1.0])


def test_corollary35_fixed_and_random():
    chain = corollary35_chain(HALF_PROJ, [1.0, 0.0], [0.0, 1.0])
    assert chain.values == pytest.approx([0.5, 0.5])
    rng = np.random.default_rng(45)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = random_contraction(rng, n)
        assert corollary35_chain(a, random_vec(rng, n), random_vec(rng, n)).passed


# ---------------------------------------------------------------------------
# remark 3.6 forms


def test_remark36_scaled_holds_for_psd():
    rng = np.random.default_rng(46)
    x, y = random_vec(rng, 2), random_vec(rng, 2)
    chain = remark36_scaled(2.0 * np.eye(2), x, y)
    expected_rhs = abs(np.vdot(y, x)) + np.linalg.norm(x) * np.linalg.norm(y)
    assert chain.values[1] == pytest.approx(expected_rhs)
    assert chain.passed
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = random_contraction(rng, n, top=3.0)
        if operator_norm(a) == 0.0:
            continue
        assert remark36_scaled(a, random_vec(rng, n), random_vec(rng, n)).passed


def test_remark36_counterexample_is_rejected_then_reproduced():
    x, y = [0.0, 1.0], [1.0, 0.0]
    with pytest.raises(errors.PreconditionError):
        remark36_scaled(SHIFT, x, y)
    raw = remark36_scaled_unchecked(SHIFT, x, y)
    assert raw.values == pytest.approx([1.0, 0.5], abs=1e-15)
    assert raw.slacks[0] == pytest.approx(-0.5, abs=1e-15)
    assert not raw.passed


def test_remark36_scaled_rejects_zero():
    with pytest.raises(errors.ZeroOperator):
        remark36_scaled(np.zeros((2, 2)), [1.0, 0.0], [0.0, 1.0])


def test_remark36_polar_fixed_example():
    chain = remark36_polar_chain(SHIFT, [0.0, 1.0], [1.0, 0.0])
    assert chain.values == pytest.approx([1.0, 1.0, 1.0])
    assert chain.passed


def test_remark36_polar_random_and_zero_rejected():
    rng = np.random.default_rng(47)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        chain = remark36_polar_chain(random_matrix(rng, n), random_vec(rng, n), random_vec(rng, n))
        assert chain.passed, chain.to_dict()
    with pytest.raises(errors.ZeroOperator):
        remark36_polar_chain(np.zeros((3, 3)), [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# numerical-radius product bounds


def test_corollary37_fixed_examples():
    chain = corollary37_chain(SHIFT, np.eye(2))
    assert chain.values == pytest.approx([0.5, 0.75, 0.75], abs=1e-9)
    both_identity = corollary37_chain(np.eye(2), np.eye(2))
    assert both_identity.values == pytest.approx([1.0, 1.0, 1.5], abs=1e-9)


def test_corollary37_random_and_tail_ordering():
    rng = np.random.default_rng(48)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        a = random_matrix(rng, n)
        b = random_contraction(rng, n, top=2.0)
        chain = corollary37_chain(a, b)
        assert chain.passed, chain.to_dict()
        assert chain.values[1] <= chain.values[2] + chain.tolerance_used


def test_corollary37_rejects_non_psd():
    with pytest.raises(errors.PreconditionError):
        corollary37_chain(np.eye(2), -np.eye(2))


def test_corollary38_omega_identity_case():
    chain = corollary38_omega_chain(np.eye(2), np.eye(2), np.eye(2))
    assert chain.values == pytest.approx([1.0, 1.0], abs=1e-9)


def test_corollary38_random():
    rng = np.random.default_rng(49)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        a = random_contraction(rng, n)
        s, t = random_matrix(rng, n), random_matrix(rng, n)
        assert corollary38_omega_chain(a, s, t).passed
        assert corollary38_norm_chain(a, s, t).passed


def test_corollary38_norm_equality_case():
    chain = corollary38_norm_chain(np.eye(2), SHIFT, SHIFT.conj().T)
    assert chain.values == pytest.approx([1.0, 1.0])
    assert chain.slacks[0] == pytest.approx(0.0, abs=1e-12)
    zero_a = corollary38_norm_chain(np.zeros((2, 2)), SHIFT, SHIFT.conj().T)
    assert zero_a.values[0] == pytest.approx(0.0, abs=1e-15)


def test_corollary38_rejects_non_contraction():
    with pytest.raises(errors.SpectrumOutOfRange):
        corollary38_omega_chain(2.0 * np.eye(2), SHIFT, SHIFT)
    with pytest.raises(errors.DimensionMismatch):
        corollary38_norm_chain(np.eye(2), np.eye(3), np.eye(2))


# ---------------------------------------------------------------------------
# powers


def test_power_r1_matches_base_chain():
    rng = np.random.default_rng(50)
    n = 4
    a = random_contraction(rng, n)
    s, t = random_matrix(rng, n), random_matrix(rng, n)
    base = corollary38_omega_chain(a, s, t)
    powered = power_chain(a, s, t, 1.0)
    assert powered.values == pytest.approx(base.values, rel=1e-12)


def test_power_identity_case():
    chain = power_chain(np.eye(2), np.eye(2), np.eye(2), 2.0)
    assert chain.values == pytest.approx([1.0, 1.0], abs=1e-9)


def test_power_random_r3():
    rng = np.random.default_rng(51)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        a = random_contraction(rng, n)
        chain = power_chain(a, random_matrix(rng, n), random_matrix(rng, n), 3.0)
        assert chain.passed, chain.to_dict()


def test_power_rejects_small_exponent():
    with pytest.raises(errors.InvalidInput):
        power_chain(np.eye(2), np.eye(2), np.eye(2), 0.5)
    with pytest.raises(errors.InvalidInput):
        bourin_property(np.eye(2), np.eye(2), 0.99)
    # Not a finite real number: inf would pass vacuously (omega(0.5 I)^inf = 0),
    # True would run as r = 1, and "2" as r = 2.
    for power in (np.inf, np.nan, True, "2", 2j, None):
        with pytest.raises(errors.InvalidInput, match="power exponent must be a finite real r >= 1"):
            power_chain(0.5 * np.eye(2), np.eye(2), np.eye(2), power)
        with pytest.raises(errors.InvalidInput, match="power exponent must be a finite real r >= 1"):
            bourin_property(np.eye(2), np.eye(2), power)
    assert power_chain(0.5 * np.eye(2), np.eye(2), np.eye(2), np.int64(2)).check_name == "power_r2"


def test_bourin_property():
    rng = np.random.default_rng(52)
    m = random_contraction(rng, 4, top=3.0)
    equal = bourin_property(m, m, 2.0)
    assert equal.slacks[0] == pytest.approx(0.0, abs=1e-9)
    linear = bourin_property(m, random_contraction(rng, 4, top=2.0), 1.0)
    assert linear.slacks[0] == pytest.approx(0.0, abs=1e-9)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        chain = bourin_property(
            random_contraction(rng, n, top=2.0), random_contraction(rng, n, top=2.0), 2.0
        )
        assert chain.passed
    with pytest.raises(errors.NotPositiveSemidefinite):
        bourin_property(-np.eye(2), np.eye(2), 2.0)


# ---------------------------------------------------------------------------
# constructive device


def test_contraction_builder_fixed_points():
    b = contraction_builder((3.0 / 16.0) * np.eye(3))
    assert np.max(np.abs(b - 0.75 * np.eye(3))) < 1e-12
    assert np.max(np.abs(contraction_builder(np.zeros((2, 2))) - np.eye(2))) < 1e-12
    assert np.max(np.abs(contraction_builder(0.25 * np.eye(2)) - 0.5 * np.eye(2))) < 1e-7


def test_contraction_builder_round_trip():
    rng = np.random.default_rng(53)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        a = random_contraction(rng, n, top=0.25)
        b = contraction_builder(a)
        assert is_positive_contraction(b, tol=1e-9)
        residual = np.max(np.abs((b - b @ b) - a))
        assert residual <= 1e-10 * (1.0 + operator_norm(a))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_contraction_builder_takes_a_stack_row_by_row(n):
    rng = np.random.default_rng(54)
    stack = np.stack([random_contraction(rng, n, top=0.25) for _ in range(4)])
    built = contraction_builder(stack)
    assert built.shape == stack.shape
    for row, a in zip(built, stack):
        assert row.tobytes() == contraction_builder(a).tobytes()


def test_contraction_builder_rejects_bad_spectrum():
    with pytest.raises(errors.SpectrumOutOfRange):
        contraction_builder(0.3 * np.eye(2))
    with pytest.raises(errors.SpectrumOutOfRange):
        contraction_builder(-0.05 * np.eye(2))
    with pytest.raises(errors.NotHermitian):
        contraction_builder(SHIFT)


HALF, BIG = 0.5 * np.eye(2), 1e200 * np.eye(2)


def _overflows(product):
    return f"{product}: contains NaN or infinite entries"


@pytest.mark.parametrize(
    "chain, inputs, message",
    [
        (corollary37_chain, (BIG, BIG), _overflows("A B")),
        (corollary38_omega_chain, (HALF, BIG, BIG), _overflows("S A T")),
        (corollary38_omega_chain, (HALF, BIG, 1e-200 * np.eye(2)), _overflows("|T|^2 + |S*|^2")),
        (corollary38_norm_chain, (HALF, BIG, BIG), _overflows("S A T")),
        (corollary38_norm_chain, (np.zeros((2, 2)), BIG, BIG), _overflows("S T")),
        (lambda *m: power_chain(*m, power=1.0), (HALF, BIG, BIG), _overflows("S A T")),
        (lambda *m: power_chain(*m, power=2.0), (HALF, BIG, BIG), _overflows("S A T")),
        (lambda *m: power_chain(*m, power=2.0), (HALF, 1e100 * np.eye(2), 1e-100 * np.eye(2)),
         _overflows("|T|^{2r} + |S*|^{2r}")),
        (lambda *m: power_chain(*m, power=3.0), (HALF, BIG, BIG), _overflows("S A T")),
        (lambda *m: bourin_property(*m, power=2.0), (BIG, BIG), _overflows("M^r + N^r")),
        # U|T|^{1/2} = 1e154 I is finite; ||T|| + ||T||^{1/2} omega(U|T|^{1/2}) sums past the largest float.
        (final_omega_refinement_chain, (1e308 * np.eye(2),),
         "final_omega_refinement: term 'half_rotated_omega' is not finite"),
    ],
    ids=[
        "corollary37", "corollary38_omega", "corollary38_omega-moduli", "corollary38_norm", "corollary38_norm-ST",
        "power_r1", "power_r2", "power_r2-moduli", "power_r3", "bourin_r2", "final_omega_refinement",
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_finite_inputs_whose_products_overflow_raise_invalid_input(chain, inputs, message):
    # The finiteness check on each product a kernel builds is the guard here:
    # without it the overflowed product reaches LAPACK, which can raise
    # LinAlgError (SVD did not converge), or a term comes out non-finite.
    # The check names the product, so the message says which one left float64.
    with pytest.raises(errors.InvalidInput, match=f"^{re.escape(message)}$"):
        chain(*inputs)


def _suite_draw(name, dim, seed):
    spec = REGISTRY[name]
    stream = trial_stream(EnsembleConfig(spec.family, dim, seed, 1), np.arange(1))
    return [block[0] for block in spec.arranged([draw(family, stream, dim) for family in spec.draws])]


@pytest.mark.parametrize(
    "name, chain, scale, degree, rel",
    [
        ("corollary38_norm", corollary38_norm_chain, 1e150, 2, 1e-14),
        # S A T near 1e-320 is subnormal, so only its leading digits survive.
        ("corollary38_norm", corollary38_norm_chain, 1e-160, 2, 1e-3),
        ("bourin_r2", lambda m, n: bourin_property(m, n, 2.0), 1e150, 2, 1e-14),
    ],
    ids=["corollary38_norm-1e150", "corollary38_norm-1e-160", "bourin_r2-1e150"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_norm_chains_hold_on_operands_near_the_ends_of_float64(name, chain, scale, degree, rel):
    # The norms' Gram matrices would overflow (1e300 squared) or underflow
    # (1e-320 squared) unscaled; every term is still scale^degree times the
    # unscaled one, and no warning is raised.
    for dim in (1, 3, 8):
        inputs = _suite_draw(name, dim, 19)
        if name == "corollary38_norm":
            scaled = chain(inputs[0], scale * inputs[1], scale * inputs[2])
        else:
            scaled = chain(*(scale * m for m in inputs))
        assert scaled.passed
        expected = np.array(chain(*inputs).values) * scale**degree
        assert np.abs(np.array(scaled.values) - expected).max() <= rel * np.abs(expected).max()


def test_a_stack_raises_its_first_failing_trials_error_whichever_input_fails():
    # A NaN in x's row 0 and a non-Hermitian A in row 2.  The kernel checks
    # the operator over all trials before the vectors, so the stacked call
    # meets row 2's error first; the trial-by-trial replay finds row 0's.
    stack, x, y = np.stack([0.5 * np.eye(2)] * 3), np.ones((3, 2)), np.ones((3, 2))
    stack[2, 0, 1] = 1e-6
    x[0, 0] = np.nan
    with pytest.raises(errors.InvalidInput, match="^x: contains NaN or infinite entries$"):
        corollary35_batch(stack, x, y)
    with pytest.raises(errors.NotHermitian):
        corollary35_batch(stack[1:], x[1:], y[1:])


@pytest.mark.parametrize(
    "chain, matrix",
    [
        (lemma_2A_chain, np.eye(2)),
        (theorem_gap_chain, np.eye(2)),
        (corollary33_chain, np.eye(2)),
        (corollary35_chain, np.eye(2)),
        (remark36_scaled, np.eye(2)),
        (remark36_polar_chain, SHIFT),
    ],
    ids=["lemma_2A", "theorem_gap", "corollary33", "corollary35", "remark36_scaled", "remark36_polar"],
)
def test_vectors_whose_norms_overflow_are_rejected_by_name(chain, matrix):
    # The squares of 1e200 overflow: the chains warned "overflow encountered
    # in vecdot" and then rejected a non-finite term, or passed on inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the typed error is the only signal
        for x, y, name in (([1e200, 0.0], [1.0, 0.0], "x"), ([1.0, 0.0], [0.0, 1e200j], "y")):
            with pytest.raises(errors.InvalidInput, match=f"^{name}: norm overflows float64$"):
                chain(matrix, x, y)


# ---------------------------------------------------------------------------
# closing refinement


def test_final_omega_refinement_fixed_examples():
    chain = final_omega_refinement_chain(SHIFT)
    assert chain.values == pytest.approx([0.5, 0.75, 1.0, 1.0, 1.0], abs=1e-9)
    identity = final_omega_refinement_chain(np.eye(3))
    assert identity.values == pytest.approx([1.0] * 5, abs=1e-9)


def test_final_omega_refinement_random():
    rng = np.random.default_rng(54)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        chain = final_omega_refinement_chain(random_matrix(rng, n))
        assert chain.passed, chain.to_dict()


def test_final_omega_refinement_zero_matrix():
    chain = final_omega_refinement_chain(np.zeros((2, 2)))
    assert chain.values == pytest.approx([0.0] * 5, abs=1e-15)
    assert chain.passed


def _ginibre(dim, seed):
    return draw("ginibre", trial_stream(EnsembleConfig("ginibre", dim, seed, 1), 0), dim)


def _dropped_column(dim, seed):
    t = _ginibre(dim, seed)
    t[:, -1] = 0.0
    return t


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("make", [_ginibre, lambda dim, seed: np.zeros((dim, dim)), _dropped_column],
                         ids=["ginibre", "zero", "rank_deficient"])
def test_final_omega_refinement_half_rotated_factor_is_polar_times_root(monkeypatch, make, dim):
    # The kernel reads U|T|^{1/2} = L S^{1/2} R* off T's one SVD; the long way
    # round is the polar unitary times the PSD root of the polar modulus.  An
    # exact zero singular value keeps the two within rounding; one at rounding
    # level (a rank-one product) would not, since either route roots it to ~1e-8.
    seen, pair = [], operator_ineq._radius_pair

    def recording(first, second):
        seen.append(second)
        return pair(first, second)

    monkeypatch.setattr(operator_ineq, "_radius_pair", recording)
    t = make(dim, 60 + dim)
    final_omega_refinement_chain(t)
    polar = polar_decompose(t)
    long_way = polar.unitary @ psd_sqrt(polar.modulus)
    assert np.abs(seen[0] - long_way).max() <= 1e-12 * max(1.0, np.abs(long_way).max())


# ---------------------------------------------------------------------------
# ensemble-driven spot check mirroring the harness recipes


def test_chains_hold_on_package_ensembles():
    cfg = EnsembleConfig(family="positive_contraction", dim=5, master_seed=99, trials=20)
    for t in range(cfg.trials):
        stream = trial_stream(cfg, t)
        a = draw("positive_contraction", stream, cfg.dim)
        x = draw("unit_vector", stream, cfg.dim)
        y = draw("unit_vector", stream, cfg.dim)
        assert theorem_gap_chain(a, x, y).passed
