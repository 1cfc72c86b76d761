"""Numerical radius via an angle sweep, plus the sampling cross-check.

For a square matrix T, write H(theta) = (e^{i theta} T + e^{-i theta} T*)/2.
Each H(theta) is Hermitian and its largest eigenvalue g(theta) satisfies
g(theta) <= w(T) with equality at the maximizing angle, so

    w(T) = max over theta in [0, 2pi) of lambda_max(H(theta)).

The sweep evaluates g on a uniform grid and then sharpens the best bracket
with golden-section search.  Every number it ever evaluates is a valid lower
bound on w(T), so the returned value can undershoot only by the convergence
error of the sweep, never overshoot.

The grid stage prunes provably non-maximal angles first: g is Lipschitz with
constant ||T|| (since ||H(a) - H(b)|| <= |a - b| * ||T||), so after scoring a
coarse subgrid, any grid angle whose Lipschitz upper bound falls strictly
below the best subgrid value cannot host the grid maximum and is skipped.
The outcome is identical to scoring the full grid; only the work changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .linalg import as_square_matrix, operator_norm
from .prng import Stream, mix64

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_ORACLE_BLOCK = 4096
# Golden-section search stops once the bracket is this narrow (radians), or
# after this many steps.
REFINE_TOL = 1e-12
MAX_REFINE_ITERS = 200


@dataclass
class RadiusResult:
    """Sweep output: the radius estimate, its angle, a unit witness vector
    with |<T w, w>| equal to omega up to sweep tolerance, and ``norm`` =
    :func:`~ineqlab.linalg.operator_norm` of T (the sweep's Lipschitz constant)."""

    omega: float
    argmax_angle: float
    witness: np.ndarray
    norm: float


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


def _grid_sweep(
    h0: np.ndarray, k0: np.ndarray, points: int, lipschitz: float
) -> tuple[int, float]:
    """Best (index, value) of g over the uniform grid, via Lipschitz pruning.

    Matches a full-grid evaluation exactly: pruning only drops angles whose
    upper bound is strictly below an already-evaluated value, and ties on the
    maximum resolve to the smallest grid index either way.
    """
    step = 2.0 * np.pi / points
    thetas = step * np.arange(points)
    stride = max(1, points // 45)
    sub_idx = np.arange(0, points, stride)
    values = np.full(points, -np.inf)
    values[sub_idx] = _angle_values(h0, k0, thetas[sub_idx])
    best_sub = float(values[sub_idx].max())

    rest = np.setdiff1d(np.arange(points), sub_idx, assume_unique=True)
    if rest.size:
        below = (rest // stride) * stride
        above = below + stride
        above_dist = np.where(above >= points, points - rest, above - rest)
        above_idx = np.where(above >= points, 0, above)
        bound = np.minimum(
            values[below] + lipschitz * step * (rest - below),
            values[above_idx] + lipschitz * step * above_dist,
        )
        survivors = rest[bound >= best_sub]
        if survivors.size:
            values[survivors] = _angle_values(h0, k0, thetas[survivors])

    best_idx = int(np.argmax(values))
    return best_idx, float(values[best_idx])


def _golden_refine(eval_one, a: float, b: float) -> tuple[float, float]:
    """Golden-section maximization of eval_one on [a, b].

    Returns the best (angle, value) among every point it evaluated, so the
    result never regresses even if the bracket is not unimodal.
    """
    best_theta, best_value = a, -np.inf
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = eval_one(c)
    fd = eval_one(d)
    for theta, value in ((c, fc), (d, fd)):
        if value > best_value:
            best_theta, best_value = theta, value
    iterations = 0
    while (b - a) > REFINE_TOL and iterations < MAX_REFINE_ITERS:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = eval_one(d)
            if fd > best_value:
                best_theta, best_value = d, fd
        else:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = eval_one(c)
            if fc > best_value:
                best_theta, best_value = c, fc
        iterations += 1
    return best_theta, best_value


def _normalize_witness_phase(vector: np.ndarray) -> np.ndarray:
    """Deterministic representative: largest-magnitude entry made real positive."""
    idx = int(np.argmax(np.abs(vector)))
    pivot = vector[idx]
    if pivot != 0:
        vector = vector * (np.conj(pivot) / abs(pivot))
    return vector


def numerical_radius(matrix, coarse_points: int = 720) -> RadiusResult:
    """Numerical radius of a square matrix by the angle sweep described above.

    ``coarse_points`` is the size of the uniform grid over [0, 2pi), at least 8.
    """
    if coarse_points < 8:
        raise InvalidInput(f"coarse_points must be at least 8, got {coarse_points}")
    mat = as_square_matrix(matrix)
    n = mat.shape[0]
    scale = operator_norm(mat)
    if scale == 0.0:
        witness = np.zeros(n, dtype=np.complex128)
        witness[0] = 1.0
        return RadiusResult(omega=0.0, argmax_angle=0.0, witness=witness, norm=0.0)

    h0, k0 = _hermitian_parts(mat)
    step = 2.0 * np.pi / coarse_points
    best_idx, best_value = _grid_sweep(h0, k0, coarse_points, scale)
    best_theta = step * best_idx

    def eval_one(theta: float) -> float:
        h = np.cos(theta) * h0 + np.sin(theta) * k0
        return float(np.linalg.eigvalsh(h)[-1])

    refine_theta, refine_value = _golden_refine(eval_one, best_theta - step, best_theta + step)
    if refine_value > best_value:
        best_theta, best_value = refine_theta, refine_value

    h_best = np.cos(best_theta) * h0 + np.sin(best_theta) * k0
    values, vectors = np.linalg.eigh(0.5 * (h_best + h_best.conj().T))
    witness = _normalize_witness_phase(vectors[:, -1].copy())
    witness = witness / np.linalg.norm(witness)
    attained = abs(complex(np.vdot(witness, mat @ witness)))
    omega = max(best_value, float(values[-1]), attained)
    angle = float(np.mod(best_theta, 2.0 * np.pi))
    return RadiusResult(omega=omega, argmax_angle=angle, witness=witness, norm=scale)


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
