"""Linear algebra layer: validation, decompositions, predicates, JSON codec."""

import json

import numpy as np
import pytest

from ineqlab import errors
from ineqlab.ensembles import EnsembleConfig, draw, trial_stream
from ineqlab.linalg import (
    as_matrices,
    as_matrix,
    as_vector,
    hermitian_eigen,
    hermitian_norm,
    EigenDecomposition,
    is_positive_contraction,
    load_matrix,
    matrix_from_json_dict,
    matrix_to_json_dict,
    operator_norm,
    polar_decompose,
    psd_power,
    psd_sqrt,
    require_hermitian,
    require_operator_on,
    require_orthogonal_projection,
    require_positive_semidefinite,
    require_same_length,
    require_spectrum,
    require_window,
    vector_from_json_dict,
    vector_rows,
    vector_to_json_dict,
)
from ineqlab.operator_ineq import bourin_property, corollary35_batch
from ineqlab.radius import numerical_radius
from ineqlab.vector_ineq import projection_buzano_batch


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, n):
    g = random_complex(rng, n, n)
    return 0.5 * (g + g.conj().T)


# ---------------------------------------------------------------------------
# validation and scalars


def test_as_matrix_rejects_bad_inputs():
    with pytest.raises(errors.InvalidInput):
        as_matrix([1.0, 2.0])
    with pytest.raises(errors.InvalidInput):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(errors.InvalidInput):
        as_matrix([[]])
    with pytest.raises(errors.InvalidInput):
        as_matrix("not a matrix")


def test_as_vector_accepts_column_matrices():
    v = as_vector([[1.0], [2.0]])
    assert v.shape == (2,)
    with pytest.raises(errors.InvalidInput):
        as_vector([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(errors.InvalidInput):
        as_vector([np.inf, 1.0])


# ---------------------------------------------------------------------------
# eigendecompositions


def test_hermitian_eigen_descending_and_reconstructs():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 5, 8):
        m = random_hermitian(rng, n)
        eig = hermitian_eigen(m)
        assert np.all(np.diff(eig.eigenvalues) <= 0)
        rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - m)) < 1e-12 * (1 + np.max(np.abs(m)))
        gram = eig.eigenvectors.conj().T @ eig.eigenvectors
        assert np.max(np.abs(gram - np.eye(n))) < 1e-12


def test_hermitian_eigen_rejects_non_hermitian():
    with pytest.raises(errors.NotHermitian):
        hermitian_eigen([[0.0, 1.0], [0.0, 0.0]])


JACOBI_MAX_SWEEPS = 100
JACOBI_OFF_TOL = 1e-13


def jacobi_hermitian_eigen(matrix) -> EigenDecomposition:
    """Cyclic Jacobi eigensolver for Hermitian matrices: the oracle that the
    LAPACK path in :func:`hermitian_eigen` is cross-checked against.  Sweeps
    stop when the off-diagonal Frobenius mass falls below JACOBI_OFF_TOL times
    the Frobenius norm of the input, with a hard cap of JACOBI_MAX_SWEEPS.
    """
    work = np.asarray(matrix, dtype=np.complex128)
    work = 0.5 * (work + work.conj().T)
    n = work.shape[0]
    basis = np.eye(n, dtype=np.complex128)
    scale = float(np.linalg.norm(work))
    if n == 1 or scale == 0.0:
        values = np.real(np.diag(work)).astype(np.float64)
        order = np.argsort(values)[::-1]
        return EigenDecomposition(values[order], basis[:, order])
    target = JACOBI_OFF_TOL * scale

    def off_diag_mass(a: np.ndarray) -> float:
        # Summing the off-diagonal entries directly avoids the cancellation
        # that a total-minus-diagonal formula hits near convergence.
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        return float(np.linalg.norm(off))

    for _ in range(JACOBI_MAX_SWEEPS):
        if off_diag_mass(work) <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                b = work[p, q]
                mag = abs(b)
                if mag == 0.0:
                    continue
                phase = b / mag
                app = work[p, p].real
                aqq = work[q, q].real
                tau = (aqq - app) / (2.0 * mag)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = 1.0 / (tau - np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # 2x2 unitary: diag phase factor times a real rotation.
                rot = np.array(
                    [[c, s], [-s * np.conj(phase), c * np.conj(phase)]],
                    dtype=np.complex128,
                )
                work[:, [p, q]] = work[:, [p, q]] @ rot
                work[[p, q], :] = rot.conj().T @ work[[p, q], :]
                basis[:, [p, q]] = basis[:, [p, q]] @ rot
                work[p, q] = 0.0
                work[q, p] = 0.0
                work[p, p] = work[p, p].real
                work[q, q] = work[q, q].real
    else:
        raise AssertionError(
            f"Jacobi sweep limit {JACOBI_MAX_SWEEPS} reached with off-diagonal mass "
            f"{off_diag_mass(work):.3e} above target {target:.3e}"
        )
    values = np.real(np.diag(work)).astype(np.float64)
    order = np.argsort(values)[::-1]
    return EigenDecomposition(values[order], basis[:, order])


def test_jacobi_agrees_with_lapack_path():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4, 6, 8):
        for _ in range(5):
            m = random_hermitian(rng, n)
            ref = hermitian_eigen(m)
            jac = jacobi_hermitian_eigen(m)
            scale = 1 + np.max(np.abs(ref.eigenvalues))
            assert np.max(np.abs(jac.eigenvalues - ref.eigenvalues)) < 1e-10 * scale
            rebuilt = (jac.eigenvectors * jac.eigenvalues) @ jac.eigenvectors.conj().T
            assert np.max(np.abs(rebuilt - m)) < 1e-10 * scale
            gram = jac.eigenvectors.conj().T @ jac.eigenvectors
            assert np.max(np.abs(gram - np.eye(n))) < 1e-10


def test_jacobi_handles_diagonal_and_scalar_input():
    eig = jacobi_hermitian_eigen(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(eig.eigenvalues, [3.0, 2.0, -1.0])
    single = jacobi_hermitian_eigen([[4.0]])
    assert single.eigenvalues[0] == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# psd roots, polar


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(4)
    m = random_complex(rng, 5, 5)
    assert operator_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0])
    assert operator_norm(np.zeros((3, 3))) == 0.0


def test_hermitian_norm_is_max_abs_eigenvalue():
    rng = np.random.default_rng(14)
    g = random_complex(rng, 5, 5)
    h = g + g.conj().T - 3.0 * np.eye(5)  # indefinite
    assert hermitian_norm(h) == pytest.approx(operator_norm(h), rel=1e-14)
    sym, spectrum = require_spectrum(h, -np.inf, np.inf)
    assert np.abs(spectrum).max() == hermitian_norm(sym)
    assert list(spectrum) == sorted(spectrum, reverse=True)
    assert hermitian_norm(np.zeros((3, 3))) == 0.0


def test_hermitian_norm_takes_products_hermitian_only_up_to_rounding():
    # T*T + SS* at scale 1e6: its rounding breaks the 1e-10 Hermitian check,
    # which the norm must not apply to the product.
    rng = np.random.default_rng(15)
    t, s = (1e6 * random_complex(rng, 6, 6) for _ in range(2))
    product = t.conj().T @ t + s @ s.conj().T
    with pytest.raises(errors.NotHermitian):
        require_hermitian(product)
    assert hermitian_norm(product) == pytest.approx(operator_norm(product), rel=1e-13)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(5)
    for n in (2, 3, 6):
        g = random_complex(rng, n, n)
        m = g.conj().T @ g
        root = psd_sqrt(m)
        assert np.max(np.abs(root @ root - m)) < 1e-10 * (1 + np.max(np.abs(m)))
        assert np.max(np.abs(root - root.conj().T)) < 1e-13


def test_psd_sqrt_clamps_rounding_noise_but_rejects_negative():
    tiny = np.diag([1.0, -1e-12])
    root = psd_sqrt(tiny)
    assert root[1, 1] == 0.0
    with pytest.raises(errors.NotPositiveSemidefinite):
        psd_sqrt(np.diag([1.0, -1e-3]))


def test_psd_checks_share_one_clamp():
    # Smallest eigenvalue -1.2e-8: inside 1e-9 * (1 + 16), outside a clamp
    # scaled by the largest entry (1e-9 * (1 + 1)).
    near_psd = np.ones((16, 16)) - 1.2e-8 * np.eye(16)
    require_positive_semidefinite(near_psd)
    psd_sqrt(near_psd)
    bourin_property(near_psd, near_psd, 2.0)
    negative = np.diag([1.0, -1e-6])
    with pytest.raises(errors.NotPositiveSemidefinite):
        require_positive_semidefinite(negative)
    with pytest.raises(errors.NotPositiveSemidefinite):
        psd_sqrt(negative)
    with pytest.raises(errors.NotPositiveSemidefinite):
        bourin_property(negative, np.eye(2), 2.0)


def test_psd_power_errors_name_the_operand():
    with pytest.raises(errors.NotHermitian, match="^T\\*T: "):
        psd_power([[0.0, 1.0], [0.0, 0.0]], 2.0, "T*T")
    with pytest.raises(errors.DimensionMismatch, match="^M: "):
        psd_power(np.ones((2, 3)), 2.0, "M")
    with pytest.raises(errors.NotPositiveSemidefinite, match="^N: "):
        psd_power(np.diag([1.0, -1e-6]), 2.0, "N")


def test_psd_power_matches_eigen_power():
    rng = np.random.default_rng(6)
    g = random_complex(rng, 4, 4)
    m = g.conj().T @ g
    cubed = psd_power(m, 3.0)
    assert np.max(np.abs(cubed - m @ m @ m)) < 1e-8 * (1 + np.max(np.abs(m)) ** 3)


def test_modulus_and_polar():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5):
        m = random_complex(rng, n, n)
        pol = polar_decompose(m)
        assert pol.singular_values[0] == pytest.approx(operator_norm(m), rel=1e-14)
        assert list(pol.singular_values) == sorted(pol.singular_values, reverse=True)
        # Unitary factor and exact reconstruction.
        gram = pol.unitary.conj().T @ pol.unitary
        assert np.max(np.abs(gram - np.eye(n))) < 1e-12
        assert np.max(np.abs(pol.unitary @ pol.modulus - m)) < 1e-12 * (1 + np.max(np.abs(m)))
        # modulus agrees with the direct square root of M* M.
        direct = psd_sqrt(m.conj().T @ m)
        assert np.max(np.abs(pol.modulus - direct)) < 1e-7 * (1 + np.max(np.abs(m)))


def test_polar_requires_square():
    with pytest.raises(errors.DimensionMismatch):
        polar_decompose(np.ones((2, 3)))


def test_polar_of_singular_matrix_still_unitary():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    pol = polar_decompose(m)
    assert np.max(np.abs(pol.unitary.conj().T @ pol.unitary - np.eye(2))) < 1e-14
    assert np.max(np.abs(pol.unitary @ pol.modulus - m)) < 1e-14


# ---------------------------------------------------------------------------
# stacks: one call over a (trials, d, d) stack, exact per trial


def psd_stack(rng, trials, n):
    g = random_complex(rng, trials, n, n)
    stack = g @ g.conj().swapaxes(-1, -2)
    stack[0] = np.eye(n)  # a degenerate spectrum keeps its eigenvector order too
    return stack


STACK_HELPERS = {
    "require_spectrum": lambda m: require_spectrum(m, 0.0, np.inf, "M"),
    "require_positive_semidefinite": lambda m: require_positive_semidefinite(m, "M"),
    "hermitian_eigen": lambda m: tuple(vars(hermitian_eigen(m, "M")).values()),
    "psd_power": lambda m: (psd_power(m, 3.0, "M"),),
    "psd_sqrt": lambda m: (psd_sqrt(m, "M"),),
    "operator_norm": lambda m: (operator_norm(m),),
    "hermitian_norm": lambda m: (hermitian_norm(m),),
    "polar_decompose": lambda m: tuple(vars(polar_decompose(m)).values()),
    "as_matrices": lambda m: (as_matrices(m),),
}


@pytest.mark.parametrize("helper", sorted(STACK_HELPERS))
@pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
def test_stack_helpers_match_per_matrix_calls_bit_for_bit(helper, n):
    stack = psd_stack(np.random.default_rng(n), 6, n)
    fn = STACK_HELPERS[helper]
    stacked = fn(stack)
    for t, matrix in enumerate(stack):
        for many, one in zip(stacked, fn(matrix)):
            assert many[t].tobytes() == np.asarray(one).tobytes()


def first_error(fn, matrix):
    with pytest.raises(errors.IneqLabError) as raised:
        fn(matrix)
    return type(raised.value), str(raised.value)


@pytest.mark.parametrize(
    "check, fault",
    [
        (lambda m: require_hermitian(m, "M"), lambda m, k: m + k * 1e-6j * np.eye(3)),
        (lambda m: require_positive_semidefinite(m, "M"), lambda m, k: m - k * 40.0 * np.eye(3)),
        (lambda m: require_spectrum(m, 0.0, 1.0, "M", slack=1e-10), lambda m, k: m + k * np.eye(3)),
        (lambda m: psd_power(m, 2.0, "M"), lambda m, k: m - k * 40.0 * np.eye(3)),
        (lambda m: require_window(np.linalg.eigvalsh(m), 0.0, 1.0, "M"), lambda m, k: m + k * np.eye(3)),
        (lambda m: require_orthogonal_projection(m, "P"), lambda m, k: m + k * 0.1 * np.eye(3)),
    ],
)
def test_stack_with_two_bad_rows_names_the_first(check, fault):
    stack = psd_stack(np.random.default_rng(9), 5, 3)
    stack[2:] = stack[2:] / np.linalg.eigvalsh(stack[2:])[:, -1:, None]  # spectra inside [0, 1]
    stack[0] = np.diag([1.0, 0.0, 0.0])  # a projection
    stack[1], stack[3] = fault(stack[0], 1.0), fault(stack[3], 2.0)
    error = first_error(check, stack)
    assert error == first_error(check, stack[1])
    assert error != first_error(check, stack[3])


def test_non_finite_stack_row_raises_as_that_matrix_alone():
    stack = psd_stack(np.random.default_rng(10), 4, 3)
    stack[2, 0, 1] = np.nan
    for check in (as_matrices, operator_norm, hermitian_norm, require_positive_semidefinite):
        assert first_error(check, stack) == first_error(check, stack[2])


@pytest.mark.parametrize("value", ["abc", 5, [[1.0], [1.0, 2.0]]])
def test_vectors_beside_a_stack_raise_the_one_vector_message(value):
    stack = psd_stack(np.random.default_rng(11), 2, 3) / 100.0  # positive contractions
    y = np.ones((2, 3))
    one_vector = first_error(lambda v: as_vector(v, "x"), value)
    assert first_error(lambda v: corollary35_batch(stack, v, y), value) == one_vector


def test_a_vector_stack_names_a_nan_row_as_non_finite_not_as_overflow():
    # One P beside 3-row stacks gives the door no trial count to replay, so
    # vector_rows itself must tell a NaN row from a norm that overflows.
    calls = (lambda x: projection_buzano_batch(np.eye(3), x, np.ones((3, 3))), lambda x: vector_rows(("x", x)))
    faults = (([1.0, np.nan, 0.0], "contains NaN or infinite entries"), ([1e200] * 3, "norm overflows float64"))
    for row, message in faults:
        x = np.ones((3, 3))
        x[1] = row
        for call in calls:
            with np.errstate(over="ignore"):
                assert first_error(call, x) == (errors.InvalidInput, f"x: {message}")


def test_a_stack_of_no_trials_is_rejected_by_name():
    empty = np.zeros((0, 3, 3))
    for check in (operator_norm, hermitian_norm, numerical_radius, as_matrices):
        assert first_error(check, empty) == (errors.InvalidInput, "matrix: empty stack, no trials")
    stack = np.zeros((2, 3, 3))
    assert first_error(lambda v: corollary35_batch(stack, v, np.ones((2, 3))), np.zeros((0, 3))) == (
        errors.InvalidInput, "x: empty stack, no trials")


def test_length_checks_compare_trial_counts():
    stack, vectors = np.zeros((3, 2, 2)), np.zeros((3, 2))
    require_same_length(("x", vectors), ("y", vectors))
    require_operator_on(stack, vectors, "A", "x")
    with pytest.raises(errors.DimensionMismatch, match=r"y has shape \(1, 2\) but x has shape \(3, 2\)"):
        require_same_length(("x", vectors), ("y", vectors[:1]))
    with pytest.raises(errors.DimensionMismatch, match=r"N has shape \(2, 2\) but M has shape \(3, 2, 2\)"):
        require_same_length(("M", stack), ("N", stack[0]))
    with pytest.raises(errors.DimensionMismatch, match=r"A has shape \(3, 2, 2\) but x has shape \(1, 2\)"):
        require_operator_on(stack, vectors[:1], "A", "x")


# ---------------------------------------------------------------------------
# predicates


def test_is_positive_contraction():
    assert is_positive_contraction(np.eye(3))
    assert is_positive_contraction(np.zeros((2, 2)))
    assert is_positive_contraction(np.diag([0.3, 0.9]))
    assert not is_positive_contraction(np.diag([0.3, 1.5]))
    assert not is_positive_contraction(np.diag([-0.2, 0.5]))
    assert not is_positive_contraction([[0.0, 1.0], [0.0, 0.0]])


def test_require_orthogonal_projection():
    p = np.full((2, 2), 0.5)
    require_orthogonal_projection(p)
    with pytest.raises(errors.NotOrthogonalProjection):
        require_orthogonal_projection(np.diag([1.0, 0.5]))
    with pytest.raises(errors.NotOrthogonalProjection):
        require_orthogonal_projection([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_tolerance_test_fails_on_nan():
    # A NaN compares False with every bound, so a test written as "fail when
    # above the bound" let one pass: 1e160 * P squares to NaN entries.
    projection = draw("projection", trial_stream(EnsembleConfig("projection", 3, 5, 1), np.arange(1)), 3)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        assert first_error(require_orthogonal_projection, 1e160 * projection) == (
            errors.NotOrthogonalProjection, "matrix: max|P^2 - P| = nan exceeds tolerance 1.000e-10")
    nan = np.array([[np.nan, 0.0], [0.0, 1.0]])
    assert first_error(require_hermitian, nan)[0] is errors.NotHermitian
    assert first_error(lambda m: require_window(np.diag(m), 0.0, 1.0), nan)[0] is errors.SpectrumOutOfRange
    assert first_error(lambda m: require_window(np.diag(m), 0.0, 1.0, slack=0.0), nan)[0] is errors.SpectrumOutOfRange


# ---------------------------------------------------------------------------
# JSON codec


def test_matrix_json_round_trip_is_exact():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    doc = json.loads(json.dumps(matrix_to_json_dict(m)))
    back = matrix_from_json_dict(doc)
    assert np.array_equal(back, m)


def test_vector_json_round_trip():
    v = np.array([1.5, -2.25 + 0.5j, 3.0])
    doc = vector_to_json_dict(v)
    assert doc["cols"] == 1 and doc["rows"] == 3
    assert np.array_equal(vector_from_json_dict(doc), v)


def test_json_real_only_input_allowed():
    m = matrix_from_json_dict({"rows": 2, "cols": 2, "re": [[1.0, 0.0], [0.0, 1.0]]})
    assert np.array_equal(m, np.eye(2))


def test_json_rejects_malformed_documents():
    with pytest.raises(errors.InvalidInput):
        matrix_from_json_dict({"rows": 2, "cols": 2})
    with pytest.raises(errors.InvalidInput):
        matrix_from_json_dict({"rows": 2, "cols": 2, "re": [[1.0]]})
    with pytest.raises(errors.InvalidInput):
        matrix_from_json_dict({"rows": 0, "cols": 2, "re": []})
    with pytest.raises(errors.InvalidInput):
        matrix_from_json_dict([1, 2, 3])
    with pytest.raises(errors.InvalidInput):
        vector_from_json_dict({"rows": 2, "cols": 2, "re": [[1.0, 2.0], [3.0, 4.0]]})
    with pytest.raises(errors.InvalidInput, match="malformed entry arrays"):
        matrix_from_json_dict({"rows": 1, "cols": 2, "re": [[1.0, "a"]]})


def test_vector_files_take_flat_or_nested_columns():
    nested = vector_from_json_dict({"rows": 2, "cols": 1, "re": [[1.0], [0.0]], "im": [[0.0], [2.0]]})
    flat = vector_from_json_dict({"rows": 2, "cols": 1, "re": [1.0, 0.0], "im": [0.0, 2.0]})
    assert np.array_equal(flat, nested) and np.array_equal(flat, [1.0, 2.0j])
    assert np.array_equal(vector_from_json_dict({"rows": 2, "cols": 1, "re": [1, 0]}), [1.0, 0.0])
    with pytest.raises(errors.InvalidInput, match=r"must have shape \(2, 1\); got re \(3, 1\)"):
        vector_from_json_dict({"rows": 2, "cols": 1, "re": [1.0, 0.0, 0.0]})
    with pytest.raises(errors.InvalidInput, match=r"must have shape \(2, 2\); got re \(2,\)"):
        matrix_from_json_dict({"rows": 2, "cols": 2, "re": [1.0, 0.0]})


@pytest.mark.parametrize(
    "text",
    [
        '{"rows": true, "cols": true, "re": [[2]], "im": [[0]]}',
        '{"rows": true, "cols": true, "re": [[2]]}',
        '{"rows": 1, "cols": true, "re": [[2]]}',
    ],
)
def test_json_rejects_boolean_rows_and_cols(text):
    with pytest.raises(errors.InvalidInput) as raised:
        matrix_from_json_dict(json.loads(text), "m.json")
    assert str(raised.value) == "m.json: rows/cols must be positive integers"


def test_load_matrix_missing_file(tmp_path):
    with pytest.raises(errors.InvalidInput):
        load_matrix(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(errors.InvalidInput):
        load_matrix(str(bad))
