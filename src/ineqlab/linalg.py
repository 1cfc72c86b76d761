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
test, :func:`require_window`: :func:`require_spectrum` applies it and
returns the symmetrized matrix so callers compute on exactly what was
checked, and :func:`psd_power` applies it to the eigenvalues it factors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
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
JACOBI_MAX_SWEEPS = 100
JACOBI_OFF_TOL = 1e-13


# ---------------------------------------------------------------------------
# input validation


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    try:
        arr = np.asarray(value, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{name}: cannot interpret as a complex matrix: {exc}") from None
    if arr.ndim != 2:
        raise InvalidInput(f"{name}: expected a 2-D array, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidInput(f"{name}: empty matrix")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{name}: contains NaN or infinite entries")
    return arr


def as_square_matrix(value, name: str = "matrix") -> np.ndarray:
    arr = as_matrix(value, name)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"{name}: expected a square matrix, got shape {arr.shape}")
    return arr


def as_vector(value, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D complex128 array; column matrices are flattened."""
    try:
        arr = np.asarray(value, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{name}: cannot interpret as a complex vector: {exc}") from None
    if arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr[:, 0]
    if arr.ndim != 1:
        raise InvalidInput(f"{name}: expected a 1-D array, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidInput(f"{name}: empty vector")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{name}: contains NaN or infinite entries")
    return arr


def require_same_length(*pairs) -> None:
    """Check that the named vectors, or square matrices, share one dimension.

    Accepts ``(name, array)`` tuples so error messages can point at the
    offending argument.
    """
    base_name, base = pairs[0]
    for name, arr in pairs[1:]:
        if arr.shape[0] != base.shape[0]:
            raise DimensionMismatch(
                f"{name} has dimension {arr.shape[0]} but {base_name} has dimension {base.shape[0]}"
            )


def require_operator_on(matrix: np.ndarray, vector: np.ndarray, mname: str, vname: str) -> None:
    if matrix.shape[1] != vector.shape[0]:
        raise DimensionMismatch(
            f"{mname} has shape {matrix.shape} and cannot act on {vname} of length {vector.shape[0]}"
        )


# ---------------------------------------------------------------------------
# Hermitian checks


def hermitian_deviation(matrix: np.ndarray) -> float:
    """Largest entry of |M - M*|."""
    return float(np.max(np.abs(matrix - matrix.conj().T)))


def require_hermitian(matrix: np.ndarray, name: str = "matrix") -> None:
    dev = hermitian_deviation(matrix)
    if dev > HERMITIAN_TOL:
        raise NotHermitian(f"{name}: max|M - M*| = {dev:.3e} exceeds tolerance {HERMITIAN_TOL:.3e}")


# ---------------------------------------------------------------------------
# decompositions


@dataclass
class EigenDecomposition:
    """Spectral factorization M = V diag(w) V* with w sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass
class PolarDecomposition:
    """Factorization M = unitary @ modulus with modulus = (M* M)^(1/2)."""

    unitary: np.ndarray
    modulus: np.ndarray


def _symmetrized(matrix, name: str) -> np.ndarray:
    """(M + M*)/2 of a square M with max|M - M*| <= HERMITIAN_TOL."""
    mat = as_square_matrix(matrix, name)
    require_hermitian(mat, name)
    return 0.5 * (mat + mat.conj().T)


def hermitian_eigen(matrix, name: str = "matrix") -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The input must satisfy max|M - M*| <= HERMITIAN_TOL; it is then
    symmetrized before factorization so that roundoff in the caller cannot
    leak into the result.
    """
    values, vectors = np.linalg.eigh(_symmetrized(matrix, name))
    order = np.argsort(values)[::-1]
    return EigenDecomposition(values[order].astype(np.float64), vectors[:, order])


def jacobi_hermitian_eigen(matrix) -> EigenDecomposition:
    """Cyclic Jacobi eigensolver for Hermitian matrices.

    Independent of the LAPACK path in :func:`hermitian_eigen`; the test suite
    cross-checks the two.  Sweeps stop when the off-diagonal Frobenius mass
    falls below 1e-13 times the Frobenius norm of the input, with a hard cap
    of 100 sweeps.
    """
    work = _symmetrized(matrix, "matrix")
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
        raise ConvergenceError(
            f"Jacobi sweep limit {JACOBI_MAX_SWEEPS} reached with off-diagonal mass "
            f"{off_diag_mass(work):.3e} above target {target:.3e}"
        )
    values = np.real(np.diag(work)).astype(np.float64)
    order = np.argsort(values)[::-1]
    return EigenDecomposition(values[order], basis[:, order])


def operator_norm(matrix) -> float:
    """Largest singular value."""
    mat = as_matrix(matrix)
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def psd_clamp(eigenvalues: np.ndarray) -> float:
    """Rounding allowance below zero for a PSD spectrum: 1e-9 * (1 + max|lambda|)."""
    return PSD_CLAMP_REL * (1.0 + float(np.max(np.abs(eigenvalues))))


def psd_power(matrix, exponent: float, name: str = "matrix") -> np.ndarray:
    """Spectral power M^exponent of a positive semidefinite Hermitian matrix.

    Eigenvalues in [-psd_clamp, 0) are set to zero; anything more negative
    raises NotPositiveSemidefinite.
    """
    eig = hermitian_eigen(matrix, name)
    require_window(eig.eigenvalues, 0.0, np.inf, name, error=NotPositiveSemidefinite)
    powered = np.clip(eig.eigenvalues, 0.0, None) ** exponent
    result = (eig.eigenvectors * powered) @ eig.eigenvectors.conj().T
    return 0.5 * (result + result.conj().T)


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
    left, values, right_h = np.linalg.svd(as_square_matrix(matrix))
    right = right_h.conj().T
    mod = (right * values) @ right_h
    return PolarDecomposition(left @ right_h, 0.5 * (mod + mod.conj().T))


# ---------------------------------------------------------------------------
# predicates


def is_positive_contraction(matrix, tol: float = HERMITIAN_TOL) -> bool:
    """True when the matrix is Hermitian with spectrum inside [-tol, 1 + tol]."""
    mat = as_square_matrix(matrix)
    if hermitian_deviation(mat) > tol:
        return False
    values = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
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
    may come in either order.
    """
    if slack is None:
        slack = psd_clamp(eigenvalues)
    bottom, top = float(eigenvalues.min()), float(eigenvalues.max())
    if bottom < low - slack or top > high + slack:
        raise error(
            f"{name}: spectrum [{bottom:.6e}, {top:.6e}] lies outside "
            f"[{low}, {high}] beyond tolerance {slack:.3e}"
        )


def require_spectrum(
    matrix,
    low: float,
    high: float,
    name: str = "matrix",
    slack: float | None = None,
    error: type[Exception] = SpectrumOutOfRange,
) -> np.ndarray:
    """Validate Hermitian + spectrum inside [low - slack, high + slack] (see
    :func:`require_window`); returns the symmetrized matrix."""
    sym = _symmetrized(matrix, name)
    require_window(np.linalg.eigvalsh(sym), low, high, name, slack, error)
    return sym


def require_positive_semidefinite(matrix, name: str = "matrix") -> np.ndarray:
    """Validate Hermitian + nonnegative spectrum; returns the symmetrized matrix."""
    return require_spectrum(matrix, 0.0, np.inf, name, error=NotPositiveSemidefinite)


def require_orthogonal_projection(matrix, name: str = "matrix") -> np.ndarray:
    """Validate P = P* = P^2 to HERMITIAN_TOL entrywise."""
    mat = as_square_matrix(matrix, name)
    if hermitian_deviation(mat) > HERMITIAN_TOL:
        raise NotOrthogonalProjection(f"{name}: not Hermitian to tolerance {HERMITIAN_TOL:.3e}")
    dev = float(np.max(np.abs(mat @ mat - mat)))
    if dev > HERMITIAN_TOL:
        raise NotOrthogonalProjection(
            f"{name}: max|P^2 - P| = {dev:.3e} exceeds tolerance {HERMITIAN_TOL:.3e}"
        )
    return mat


def require_nonzero_vector(vector: np.ndarray, name: str = "vector") -> None:
    if float(np.linalg.norm(vector)) == 0.0:
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
    vec = as_vector(vector)
    return matrix_to_json_dict(vec.reshape(-1, 1))


def matrix_from_json_dict(obj, name: str = "matrix") -> np.ndarray:
    """Parse the {"rows", "cols", "re", "im"} wire format.

    The "im" block may be omitted for real matrices.
    """
    if not isinstance(obj, dict):
        raise InvalidInput(f"{name}: expected a JSON object, got {type(obj).__name__}")
    for key in ("rows", "cols", "re"):
        if key not in obj:
            raise InvalidInput(f"{name}: missing required key {key!r}")
    rows, cols = obj["rows"], obj["cols"]
    if not isinstance(rows, int) or not isinstance(cols, int) or rows < 1 or cols < 1:
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
