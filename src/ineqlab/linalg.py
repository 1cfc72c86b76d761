"""Dense complex linear algebra layer shared by every checker.

All public entry points validate their inputs (dtype, shape, finiteness) and
raise the typed errors from :mod:`ineqlab.errors`, so the numerical code above
this layer never has to defend itself.  Matrices are numpy ``complex128``
arrays; eigenvalue and singular-value arrays are real float64, sorted
descending.

Tolerances fixed here:

* ``HERMITIAN_TOL = 1e-10``: max-entry deviation ``|M - M*|`` accepted by the
  Hermitian eigensolver.
* PSD clamp, the one rule for "nonnegative up to rounding":
  :func:`psd_clamp` gives ``1e-9 * (1 + max|lambda|)`` over the eigenvalues.
  Eigenvalues in ``[-clamp, 0)`` are treated as rounding noise (and zeroed by
  :func:`psd_power`); anything lower is rejected.

Every spectral hypothesis of a chain (a PSD operator, a positive
contraction, a spectrum inside ``[low, high]``) is decided by one window
test, :func:`require_window`: :func:`require_spectrum` applies it and returns
the symmetrized matrix and its spectrum so callers compute on exactly what was
checked, and :func:`psd_power` applies it to the eigenvalues it factors.

Checks and decompositions take one matrix (a batch of one) or a ``(trials,
d, d)`` stack, exact per trial: each row is tested and rounded as on its own,
and a failing stack raises its first failing trial's own error.  Vectors
follow it too (:func:`vector_rows`), beside an operator or not: a 2-D ndarray
of any numeric dtype is a complex ``(trials, d)`` stack, any other value is
one trial's vector, and each norm, taken once, is the exact overflow test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidInput,
    NotHermitian,
    NotOrthogonalProjection,
    NotPositiveSemidefinite,
    SpectrumOutOfRange,
    ZeroVector,
)

HERMITIAN_TOL = 1e-10
PSD_CLAMP_REL = 1e-9


# ---------------------------------------------------------------------------
# input validation


def _as_array(value, name: str, kind: str, ndim: int) -> np.ndarray:
    """Coerce to an ``ndim``-D complex128 array, rejecting empty and non-finite ones."""
    try:
        arr = np.asarray(value, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{name}: cannot interpret as a complex {kind}: {exc}") from None
    if ndim == 1 and arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr[:, 0]
    if arr.ndim != ndim:
        raise InvalidInput(f"{name}: expected a {ndim}-D array, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidInput(f"{name}: empty {kind}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{name}: contains NaN or infinite entries")
    return arr


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    return _as_array(value, name, "matrix", 2)


def as_square_matrix(value, name: str = "matrix") -> np.ndarray:
    arr = as_matrix(value, name)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"{name}: expected a square matrix, got shape {arr.shape}")
    return arr


def as_vector(value, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D complex128 array; column matrices are flattened."""
    return _as_array(value, name, "vector", 1)


def per_trial(coerce, value: np.ndarray, name: str) -> np.ndarray:
    """An ndarray stack over a leading trial axis, each trial checked by ``coerce``; the first failing one raises."""
    if value.dtype.kind not in "biufc":
        raise InvalidInput(f"{name}: a stack must hold numbers, got dtype {value.dtype}")
    if not len(value):
        raise InvalidInput(f"{name}: empty stack, no trials")
    stack = np.asarray(value, dtype=np.complex128)
    bad = np.flatnonzero(~np.isfinite(stack.reshape(len(stack), -1)).all(axis=1))
    coerce(stack[bad[0] if bad.size else 0], name)
    return stack


def as_matrices(value, name: str = "matrix", coerce=as_square_matrix) -> np.ndarray:
    """``coerce`` (square by default) of one matrix, or of each of a (trials, m, n) stack."""
    stacked = isinstance(value, np.ndarray) and value.ndim == 3
    return per_trial(coerce, value, name) if stacked else coerce(value, name)


def vector_rows(*pairs) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The named vectors of ``(name, value)`` pairs as complex128 (trials, d)
    rows of one shape, and their :func:`row_norms`.

    A 2-D ndarray of any numeric dtype is a stack, one row per trial; any
    other value is one trial's :func:`as_vector`.  The first trial with a norm
    that is not finite raises that row's own error, with no warning: its first
    input with a NaN or infinite entry, else its first whose norm overflows.
    """
    rows = []
    for name, value in pairs:
        if not (isinstance(value, np.ndarray) and value.ndim == 2):
            value = as_vector(value, name)[None]
        elif value.dtype.kind in "biufc" and value.size:
            value = value.astype(np.complex128, copy=False)
        else:
            per_trial(as_vector, value, name)  # raises
        rows.append((name, value))
    require_same_length(*rows)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = [row_norms(vec) for _, vec in rows]
    finite = np.isfinite(norms)
    if not finite.all():
        trial = np.argmin(finite.all(axis=0))
        for name, vec in rows:
            as_vector(vec[trial], name)  # raises for a NaN or infinite entry
        raise InvalidInput(f"{rows[np.argmin(finite[:, trial])][0]}: norm overflows float64")
    return [vec for _, vec in rows], norms


def require_same_length(*pairs) -> None:
    """Check that the named vectors or square matrices (or stacks of them) share last dimension and trials.

    Accepts ``(name, array)`` tuples so error messages can point at the
    offending argument.
    """
    base_name, base = pairs[0]
    for name, arr in pairs[1:]:
        if arr.shape[-1] != base.shape[-1]:
            raise DimensionMismatch(
                f"{name} has dimension {arr.shape[-1]} but {base_name} has dimension {base.shape[-1]}"
            )
        if arr.shape[:-1] != base.shape[:-1]:
            raise DimensionMismatch(f"{name} has shape {arr.shape} but {base_name} has shape {base.shape}")


def require_operator_on(matrix: np.ndarray, vector: np.ndarray, mname: str, vname: str) -> None:
    if matrix.shape[-1] != vector.shape[-1]:
        raise DimensionMismatch(
            f"{mname} has shape {matrix.shape[-2:]} and cannot act on {vname} of length {vector.shape[-1]}"
        )
    if (matrix.shape[:-2] or (1,)) != vector.shape[:-1]:  # one matrix is one trial
        raise DimensionMismatch(f"{mname} has shape {matrix.shape} but {vname} has shape {vector.shape}")


def vector_pair(x, y, operator: np.ndarray, opname: str) -> tuple[np.ndarray, ...]:
    """x and y as (trials, d) rows that ``operator`` acts on, then their norms (:func:`vector_rows`)."""
    (xv, yv), (nx, ny) = vector_rows(("x", x), ("y", y))
    require_operator_on(operator, xv, opname, "x")
    return xv, yv, nx, ny


# ---------------------------------------------------------------------------
# Hermitian checks


def adjoint(matrix: np.ndarray) -> np.ndarray:
    """M* of one matrix, or of each trial of a stack."""
    return matrix.conj().swapaxes(-1, -2)


def hermitian_deviation(matrix: np.ndarray):
    """Largest entry of |M - M*|, per trial for a stack."""
    return np.abs(matrix - adjoint(matrix)).max(axis=(-2, -1))


def _first_failing(failed, *values) -> list | None:
    """``values`` at the first trial flagged in ``failed`` (0-d: one trial), or None."""
    if not failed.any():
        return None
    return [np.ravel(np.broadcast_to(v, np.shape(failed)))[np.argmax(failed)] for v in values]


def require_hermitian(matrix: np.ndarray, name: str = "matrix") -> None:
    dev = hermitian_deviation(matrix)
    if first := _first_failing(dev > HERMITIAN_TOL, dev):
        raise NotHermitian(f"{name}: max|M - M*| = {first[0]:.3e} exceeds tolerance {HERMITIAN_TOL:.3e}")


# ---------------------------------------------------------------------------
# decompositions


@dataclass
class EigenDecomposition:
    """Spectral factorization M = V diag(w) V* with w sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass
class PolarDecomposition:
    """Factorization M = unitary @ modulus, modulus = (M* M)^(1/2), and M's singular values, descending."""

    unitary: np.ndarray
    modulus: np.ndarray
    singular_values: np.ndarray


def _symmetrized(matrix, name: str) -> np.ndarray:
    """(M + M*)/2 of a square M with max|M - M*| <= HERMITIAN_TOL."""
    mat = as_matrices(matrix, name)
    require_hermitian(mat, name)
    return 0.5 * (mat + adjoint(mat))


def hermitian_eigen(matrix, name: str = "matrix") -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The input must satisfy max|M - M*| <= HERMITIAN_TOL; it is then
    symmetrized before factorization so that roundoff in the caller cannot
    leak into the result.
    """
    values, vectors = np.linalg.eigh(_symmetrized(matrix, name))
    order = np.argsort(values, axis=-1)[..., None, ::-1]
    return EigenDecomposition(np.take_along_axis(values, order[..., 0, :], -1), np.take_along_axis(vectors, order, -1))


def operator_norm(matrix):
    """Largest singular value: a float, or one per trial of a stack."""
    mat = as_matrices(matrix, coerce=as_matrix)
    top = np.linalg.svd(mat, compute_uv=False)[..., 0]
    return float(top) if mat.ndim == 2 else top


def hermitian_norm(matrix):
    """Norm of a Hermitian matrix, per trial: max|lambda| of one ``eigvalsh``, which reads one triangle only."""
    return np.abs(np.linalg.eigvalsh(as_matrices(matrix))).max(axis=-1)


def psd_clamp(eigenvalues: np.ndarray):
    """Rounding allowance below zero for a PSD spectrum (per row): 1e-9 * (1 + max|lambda|)."""
    return PSD_CLAMP_REL * (1.0 + np.abs(eigenvalues).max(axis=-1))


def psd_power(matrix, exponent: float, name: str = "matrix") -> np.ndarray:
    """Spectral power M^exponent of a positive semidefinite Hermitian matrix.

    Eigenvalues in [-psd_clamp, 0) are set to zero; anything more negative
    raises NotPositiveSemidefinite.
    """
    eig = hermitian_eigen(matrix, name)
    require_window(eig.eigenvalues, 0.0, np.inf, name, error=NotPositiveSemidefinite)
    powered = np.clip(eig.eigenvalues, 0.0, None) ** exponent
    result = (eig.eigenvectors * powered[..., None, :]) @ adjoint(eig.eigenvectors)
    return 0.5 * (result + adjoint(result))


def psd_sqrt(matrix, name: str = "matrix") -> np.ndarray:
    """Positive semidefinite square root via the spectral decomposition."""
    return psd_power(matrix, 0.5, name)


def polar_decompose(matrix) -> PolarDecomposition:
    """Polar factorization M = U |M| with U unitary.

    Both factors come from one SVD M = L diag(s) R* (U = L R*, |M| from the
    right singular vectors), so the product reconstructs M to float precision
    even when M is singular; in that case U is a unitary completion rather
    than anything canonical.
    """
    left, values, right_h = np.linalg.svd(as_matrices(matrix))
    mod = (adjoint(right_h) * values[..., None, :]) @ right_h
    return PolarDecomposition(left @ right_h, 0.5 * (mod + adjoint(mod)), values)


# ---------------------------------------------------------------------------
# predicates


def is_positive_contraction(matrix, tol: float = HERMITIAN_TOL) -> bool:
    """True when the matrix is Hermitian with spectrum inside [-tol, 1 + tol]."""
    mat = as_square_matrix(matrix)
    if hermitian_deviation(mat) > tol:
        return False
    values = np.linalg.eigvalsh(0.5 * (mat + adjoint(mat)))
    return bool(values[0] >= -tol and values[-1] <= 1.0 + tol)


def require_window(
    eigenvalues: np.ndarray,
    low: float,
    high: float,
    name: str = "matrix",
    slack: float | None = None,
    error: type[Exception] = SpectrumOutOfRange,
) -> None:
    """Raise ``error`` unless the spectrum lies inside [low - slack, high + slack].

    ``slack`` defaults to :func:`psd_clamp` of the spectrum; the eigenvalues
    may come in either order.  A (trials, d) block is tested per row and
    raises for its first failing row.
    """
    if slack is None:
        slack = psd_clamp(eigenvalues)
    bottom, top = eigenvalues.min(axis=-1), eigenvalues.max(axis=-1)
    if first := _first_failing((bottom < low - slack) | (top > high + slack), bottom, top, slack):
        raise error(
            f"{name}: spectrum [{first[0]:.6e}, {first[1]:.6e}] lies outside "
            f"[{low}, {high}] beyond tolerance {first[2]:.3e}"
        )


def require_spectrum(
    matrix,
    low: float,
    high: float,
    name: str = "matrix",
    slack: float | None = None,
    error: type[Exception] = SpectrumOutOfRange,
) -> tuple[np.ndarray, np.ndarray]:
    """Validate Hermitian + spectrum inside [low - slack, high + slack] (see
    :func:`require_window`); returns the symmetrized matrix and its spectrum."""
    sym = _symmetrized(matrix, name)
    values = np.linalg.eigvalsh(sym)[..., ::-1]
    require_window(values, low, high, name, slack, error)
    return sym, values


def require_positive_semidefinite(matrix, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Validate Hermitian + nonnegative spectrum; returns the symmetrized matrix and its spectrum."""
    return require_spectrum(matrix, 0.0, np.inf, name, error=NotPositiveSemidefinite)


def require_orthogonal_projection(matrix, name: str = "matrix") -> np.ndarray:
    """Validate P = P* = P^2 to HERMITIAN_TOL entrywise; a (trials, d, d)
    stack is checked per trial and raises for its first failing trial."""
    mat = as_matrices(matrix, name)
    herm = hermitian_deviation(mat)
    idem = np.abs(mat @ mat - mat).max(axis=(-2, -1))
    first = _first_failing((herm > HERMITIAN_TOL) | (idem > HERMITIAN_TOL), herm, idem)
    if first and first[0] > HERMITIAN_TOL:
        raise NotOrthogonalProjection(f"{name}: not Hermitian to tolerance {HERMITIAN_TOL:.3e}")
    if first:
        raise NotOrthogonalProjection(f"{name}: max|P^2 - P| = {first[1]:.3e} exceeds tolerance {HERMITIAN_TOL:.3e}")
    return mat


def inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x, y> per row, linear in the first slot: np.vdot(y, x) of each row."""
    return np.vecdot(y, x)


def matvec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """M v per trial, each row rounded as the one-matrix ``M @ v``."""
    return (matrix @ vector[..., None])[..., 0]


def modulus(z: np.ndarray) -> np.ndarray:
    return np.hypot(z.real, z.imag)  # rounds as Python's abs(complex)


def row_norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis, per row bit-identical to the 1-D
    ``np.linalg.norm`` (which sums the real and imaginary squares apart)."""
    return np.sqrt(np.vecdot(vectors.real, vectors.real) + np.vecdot(vectors.imag, vectors.imag))


def require_nonzero_vector(vector: np.ndarray, name: str = "vector") -> None:
    if not vector.any():
        raise ZeroVector(f"{name}: zero vector not allowed here")


# ---------------------------------------------------------------------------
# JSON interchange


def matrix_to_json_dict(matrix) -> dict:
    """Serializable form: rows, cols, and entrywise real/imag parts."""
    mat = as_matrix(matrix)
    return {
        "rows": int(mat.shape[0]),
        "cols": int(mat.shape[1]),
        "re": mat.real.tolist(),
        "im": mat.imag.tolist(),
    }


def vector_to_json_dict(vector) -> dict:
    """Vectors travel as single-column matrices."""
    return matrix_to_json_dict(as_vector(vector).reshape(-1, 1))


def matrix_from_json_dict(obj, name: str = "matrix") -> np.ndarray:
    """Parse the {"rows", "cols", "re", "im"} wire format.

    The "im" block may be omitted for real matrices; a column's blocks may be flat lists.
    """
    if not isinstance(obj, dict):
        raise InvalidInput(f"{name}: expected a JSON object, got {type(obj).__name__}")
    for key in ("rows", "cols", "re"):
        if key not in obj:
            raise InvalidInput(f"{name}: missing required key {key!r}")
    rows, cols = obj["rows"], obj["cols"]
    if any(not isinstance(n, int) or isinstance(n, bool) or n < 1 for n in (rows, cols)):
        raise InvalidInput(f"{name}: rows/cols must be positive integers")
    try:
        re_part = np.asarray(obj["re"], dtype=np.float64)
        im_part = (
            np.asarray(obj["im"], dtype=np.float64)
            if "im" in obj and obj["im"] is not None
            else np.zeros((rows, cols))
        )
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{name}: malformed entry arrays: {exc}") from None
    if cols == 1:
        re_part, im_part = (part.reshape(-1, 1) if part.ndim == 1 else part for part in (re_part, im_part))
    if re_part.shape != (rows, cols) or im_part.shape != (rows, cols):
        raise InvalidInput(
            f"{name}: entry arrays must have shape ({rows}, {cols}); "
            f"got re {re_part.shape}, im {im_part.shape}"
        )
    mat = re_part + 1j * im_part
    return as_matrix(mat, name)


def vector_from_json_dict(obj, name: str = "vector") -> np.ndarray:
    mat = matrix_from_json_dict(obj, name)
    if mat.shape[1] != 1:
        raise InvalidInput(f"{name}: expected a single-column matrix, got shape {mat.shape}")
    return mat[:, 0]


def read_json(path: str):
    """Parse one JSON file; unreadable files and bad JSON raise InvalidInput."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path}: invalid JSON: {exc}") from None


def load_matrix(path: str) -> np.ndarray:
    return matrix_from_json_dict(read_json(path), name=path)


def load_vector(path: str) -> np.ndarray:
    return vector_from_json_dict(read_json(path), name=path)
