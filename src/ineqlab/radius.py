"""Numerical radius by the level-set method, with a certified upper bound,
plus the sampling cross-check.

For a square matrix T, write H(theta) = (e^{i theta} T + e^{-i theta} T*)/2.
Each H(theta) is Hermitian and its largest eigenvalue g(theta) satisfies
g(theta) <= w(T) with equality at the maximizing angle, so

    w(T) = max over theta in [0, 2pi) of g(theta).

The maximum is found by the level-set method of Mengi & Overton (IMA J.
Numer. Anal. 25, 2005).  A level r is an eigenvalue of H(theta) exactly when
z = e^{i theta} is an eigenvalue of the quadratic pencil
Q(z) = z^2 T - 2 r z I + T*, so one 2n x 2n eigenproblem yields every angle
at which some eigenvalue of H crosses r.  Evaluating g at the midpoints of
consecutive crossings lifts the level; the lift converges quadratically.
Every number kept is some g(theta), so omega is a lower bound on w(T) that
never overshoots.

The same crossing test gives the upper bound: if Q has no unimodular
eigenvalue at r = omega (1 + delta), then g never reaches r, so w(T) <= r up
to the backward error of the eigensolver.  ``upper`` is the first such level
for delta in 1e-12, 1e-10, or ||T|| when that is lower or neither level
certifies.

Q is solved on the unit circle after the disc map z = (u + a)/(1 + conj(a) u)
with |a| = 1/2, which keeps the leading coefficient conj(a)^2 Q(1/conj(a))
invertible even for singular T; if it is singular anyway, a second centre a
is tried.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .linalg import as_square_matrix, operator_norm
from .prng import Stream, mix64

_ORACLE_BLOCK = 4096
_START_ANGLES = (2.0 * np.pi / 8) * np.arange(8)
# Disc-map centres, tried in order while the leading coefficient is singular.
_CENTRES = (0.5, 0.5j)
# An eigenvalue u counts as unimodular when ||u| - 1| is below the tolerance.
# Rounding can push a near-double root at the maximum about 1e-8 off the
# circle, so the lifting steps look wider than the certificate.
_LIFT_TOL = 1e-6
_CERTIFY_TOL = 1e-8
_CERTIFY_DELTAS = (1e-12, 1e-10)
_MAX_LEVEL_STEPS = 8


@dataclass
class RadiusResult:
    """Level-set output: the radius estimate, its angle, a unit witness vector
    with |<T w, w>| equal to omega up to rounding, the certified ``upper``
    bound on w(T), and ``norm`` = :func:`~ineqlab.linalg.operator_norm` of T."""

    omega: float
    argmax_angle: float
    witness: np.ndarray
    norm: float
    upper: float


def _hermitian_parts(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    adj = matrix.conj().T
    h0 = 0.5 * (matrix + adj)
    k0 = 0.5j * (matrix - adj)
    return h0, k0


def _angle_values(h0: np.ndarray, k0: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """lambda_max(H(theta)) for a batch of angles."""
    stack = (
        np.cos(thetas)[:, None, None] * h0[None, :, :]
        + np.sin(thetas)[:, None, None] * k0[None, :, :]
    )
    return np.linalg.eigvalsh(stack)[:, -1]


def _crossing_angles(matrix: np.ndarray, level: float, tol: float) -> np.ndarray | None:
    """Sorted angles in [0, 2pi) at which ``level`` is an eigenvalue of
    H(theta), or None when the pencil is singular at every centre."""
    n = matrix.shape[0]
    adj = matrix.conj().T
    eye = np.eye(n)
    companion = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    companion[:n, n:] = eye
    for a in _CENTRES:
        b = np.conj(a)
        # (1 + b u)^2 Q(z) = lead u^2 + middle u + const, with lead = b^2 Q(1/b).
        lead = matrix - (2.0 * level * b) * eye + (b * b) * adj
        middle = 2.0 * a * matrix - (2.0 * level * (1.0 + abs(a) ** 2)) * eye + 2.0 * b * adj
        const = (a * a) * matrix - (2.0 * level * a) * eye + adj
        try:
            companion[n:] = -np.linalg.solve(lead, np.hstack((const, middle)))
            u = np.linalg.eigvals(companion)
        except np.linalg.LinAlgError:
            continue
        # The disc map keeps the unit circle, so test |u| before mapping.
        u = u[np.abs(np.abs(u) - 1.0) < tol]
        return np.sort(np.mod(np.angle((u + a) / (1.0 + b * u)), 2.0 * np.pi))
    return None


def _certified_upper(matrix: np.ndarray, omega: float, norm: float) -> float:
    """Lowest level omega (1 + delta) with no crossing, else ||T||."""
    for delta in _CERTIFY_DELTAS:
        level = omega * (1.0 + delta)
        if level >= norm:
            break
        angles = _crossing_angles(matrix, level, _CERTIFY_TOL)
        if angles is not None and angles.size == 0:
            return level
    return norm


def _normalize_witness_phase(vector: np.ndarray) -> np.ndarray:
    """Deterministic representative: largest-magnitude entry made real positive."""
    idx = int(np.argmax(np.abs(vector)))
    pivot = vector[idx]
    if pivot != 0:
        vector = vector * (np.conj(pivot) / abs(pivot))
    return vector


def numerical_radius(matrix) -> RadiusResult:
    """Numerical radius of a square matrix by the level-set method above."""
    mat = as_square_matrix(matrix)
    n = mat.shape[0]
    scale = operator_norm(mat)
    if scale == 0.0:
        witness = np.zeros(n, dtype=np.complex128)
        witness[0] = 1.0
        return RadiusResult(omega=0.0, argmax_angle=0.0, witness=witness, norm=0.0, upper=0.0)

    h0, k0 = _hermitian_parts(mat)
    values = _angle_values(h0, k0, _START_ANGLES)
    best = int(np.argmax(values))
    best_theta, best_value = float(_START_ANGLES[best]), float(values[best])
    for _ in range(_MAX_LEVEL_STEPS):
        angles = _crossing_angles(mat, best_value, _LIFT_TOL)
        if angles is None or angles.size == 0:
            break
        # Midpoints of consecutive crossings, the last one across 2pi.
        mids = 0.5 * (angles + np.roll(angles, -1))
        mids[-1] += np.pi
        values = _angle_values(h0, k0, mids)
        best = int(np.argmax(values))
        rise = float(values[best]) - best_value
        if rise <= 0.0:
            break
        best_theta, best_value = float(mids[best]), float(values[best])
        # The lift converges quadratically: after a rise this small the
        # next one would be lost in rounding.
        if rise <= _CERTIFY_DELTAS[0] * best_value:
            break

    h_best = np.cos(best_theta) * h0 + np.sin(best_theta) * k0
    values, vectors = np.linalg.eigh(0.5 * (h_best + h_best.conj().T))
    witness = _normalize_witness_phase(vectors[:, -1].copy())
    witness = witness / np.linalg.norm(witness)
    attained = abs(complex(np.vdot(witness, mat @ witness)))
    omega = max(best_value, float(values[-1]), attained)
    angle = float(np.mod(best_theta, 2.0 * np.pi))
    upper = _certified_upper(mat, omega, scale)
    return RadiusResult(omega=omega, argmax_angle=angle, witness=witness, norm=scale, upper=upper)


def numerical_radius_sampling_oracle(matrix, samples: int, seed: int) -> float:
    """Monte-Carlo lower bound: max |<T x, x>| over random unit vectors.

    Uses a private counter-based stream keyed only by ``seed``, so results
    depend on nothing but (matrix, samples, seed).
    """
    mat = as_square_matrix(matrix)
    if samples < 1:
        raise InvalidInput(f"samples must be at least 1, got {samples}")
    n = mat.shape[0]
    stream = Stream(mix64(seed))
    best = 0.0
    remaining = samples
    while remaining > 0:
        block = min(remaining, _ORACLE_BLOCK)
        remaining -= block
        draws = stream.complex_gaussians(block * n).reshape(block, n)
        norms = np.linalg.norm(draws, axis=1)
        norms[norms == 0.0] = 1.0
        unit = draws / norms[:, None]
        forms = np.einsum("ij,jk,ik->i", unit.conj(), mat, unit)
        block_best = float(np.max(np.abs(forms)))
        if block_best > best:
            best = block_best
    return best
