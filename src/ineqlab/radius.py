"""Numerical radius by a Newton-polished level set, with a certified upper
bound, plus the sampling cross-check.

For a square matrix T, write H(theta) = (e^{i theta} T + e^{-i theta} T*)/2.
Each H(theta) is Hermitian and its largest eigenvalue g(theta) satisfies
g(theta) <= w(T) with equality at the maximizing angle, so

    w(T) = max over theta in [0, 2pi) of g(theta).

The maximum is found as in Mitchell (SIAM J. Sci. Comput. 45, 2023): a cheap
local ascent, then one level-set eigenproblem of Mengi & Overton (IMA J.
Numer. Anal. 25, 2005) as the globality test.  From the best of 8 start
angles, Newton steps on g polish theta, one ``eigh`` of H(theta) per step:
g' = v1* H' v1 and g'' = -g + 2 sum_j |vj* H' v1|^2 / (g - lambda_j), with
the bounded ascent step g'/||T|| where g'' >= 0.  omega is the largest g
seen, or the attained |<T w, w>| of its top eigenvector w if that is larger,
so it is a lower bound on w(T) that never overshoots, capped at ||T||.

A level r is an eigenvalue of H(theta) exactly when z = e^{i theta} is an
eigenvalue of the quadratic pencil Q(z) = z^2 T - 2 r z I + T*, so one 2n x 2n
eigenproblem yields every angle at which some eigenvalue of H crosses r.  If
Q has no unimodular eigenvalue at r = omega (1 + 1e-12), then g never
reaches r, so w(T) <= r up to the backward error of the eigensolver: that
certifies omega and is ``upper``.  If it has, the polish stopped at a local
maximum; g at the midpoints of consecutive crossings of omega lifts theta
past it, and the polish runs again.  ``upper`` is the first certified level
for delta in 1e-12, 1e-10, or ||T|| when that is lower or neither level
certifies.  So omega <= upper <= ||T||, even where the SVD rounds ||T|| low.

Q is solved on the unit circle after the disc map z = (u + a)/(1 + conj(a) u)
with |a| = 1/2, which keeps the leading coefficient conj(a)^2 Q(1/conj(a))
invertible even for singular T; if it is singular anyway, a second centre a
is tried.

A (trials, n, n) stack runs every step once over the rows still in it: one
stacked ``eigh`` for the rows still polishing, one stacked solve and
``eigvals`` for the rows being certified or lifted, ragged crossing sets
NaN-padded.  Each row is rounded exactly as the one-matrix call.

The sampling oracle is the independent lower bound max |<T x, x>| over
Gaussian unit vectors x from a counter-based stream keyed by a seed.  It
takes a stack too, with one seed per trial: one ``Stream`` holds the keys,
and each step draws the next samples of every trial, at most about 4096
complex entries in all so that its blocks stay in cache and on the heap, and
forms them with one batched BLAS matmul.  Row t equals the one-matrix call
at any chunking and step size.

The stream is counter-based, so sample j at dimension n is entries
[jn, (j+1)n) of the seed's complex-Gaussian sequence.  A scalar seed (check
mode) therefore reads its draws from one read-only table per process, at
most ``ORACLE_TABLE_ENTRIES`` = 10,000 x MAX_DIM entries (10.24 MB), which
serves any shorter request as a prefix; a longer one within the cap, or
another seed, replaces it.  An array of seeds (suite runs) or a request
above the cap streams.  Every value is the streamed one bit for bit, and
building the table costs about what streaming the same draws did.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .chains import door
from .ensembles import MAX_DIM
from .errors import InvalidInput
from .linalg import adjoint, as_matrices, inner, matvec, modulus, operator_norm, row_norms
from .prng import Stream, mix64

# Complex entries (trials x samples x n) per sampling-oracle step, and per
# chunk of a seed table: small enough to stay in cache and, as 64 KiB arrays
# under glibc's 128 KiB mmap threshold, on the heap (no fresh pages per step);
# large enough for one BLAS matmul to pay.
_ORACLE_STEP_ENTRIES = 4096
# Samples of a check-mode oracle call; a seed table holds at most that many at
# MAX_DIM (640,000 complex entries, 10.24 MB), and a longer request streams.
ORACLE_CHECK_SAMPLES = 10000
ORACLE_TABLE_ENTRIES = ORACLE_CHECK_SAMPLES * MAX_DIM
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
# Newton polish of g: at most _POLISH_STEPS eigh calls, steps of at most
# _STEP_BOUND radians, and a step below _STEP_TOL ends it.
_POLISH_STEPS = 16
_STEP_BOUND = np.pi / 8
_STEP_TOL = 1e-9


@dataclass
class RadiusResult:
    """The radius estimate, its angle, a unit witness vector with |<T w, w>|
    equal to omega up to rounding, the certified ``upper`` bound on w(T), and
    ``norm`` = :func:`~ineqlab.linalg.operator_norm` of T; arrays over trials for a stack."""

    omega: float
    argmax_angle: float
    witness: np.ndarray
    norm: float
    upper: float


def _hermitian_parts(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    adj = adjoint(matrix)
    h0 = 0.5 * (matrix + adj)
    k0 = 0.5j * (matrix - adj)
    return h0, k0


def _angle_values(h0: np.ndarray, k0: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """lambda_max(H(theta)) for a batch of angles, per row of a stack of (h0, k0)."""
    cos, sin = np.cos(thetas)[..., None, None], np.sin(thetas)[..., None, None]
    return np.linalg.eigvalsh(cos * h0[..., None, :, :] + sin * k0[..., None, :, :])[..., -1]


def _pencil_roots(lead: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Per row, the eigenvalues u of lead u^2 + middle u + const, rhs = [const, middle];
    NaN for a row whose ``lead`` is singular."""
    count, n = lead.shape[:2]
    companion = np.zeros((count, 2 * n, 2 * n), dtype=np.complex128)
    companion[:, :n, n:] = np.eye(n)
    try:
        companion[:, n:] = -np.linalg.solve(lead, rhs)
        return np.linalg.eigvals(companion)
    except np.linalg.LinAlgError:
        if count == 1:
            return np.full((1, 2 * n), np.nan)
        return np.concatenate([_pencil_roots(lead[t : t + 1], rhs[t : t + 1]) for t in range(count)])


def _crossing_angles(matrices: np.ndarray, levels: np.ndarray, tol: float) -> np.ndarray:
    """Per row t, the sorted angles in [0, 2pi) at which levels[t] is an
    eigenvalue of H(theta) of matrices[t], NaN-padded to 2n; a row whose
    pencil is singular at every centre is all +inf."""
    n = matrices.shape[-1]
    angles, eye = np.full((len(matrices), 2 * n), np.inf), np.eye(n)
    todo = np.arange(len(matrices))
    for a in _CENTRES:
        if not todo.size:
            break
        b = np.conj(a)
        mat, level = matrices[todo], levels[todo, None, None]
        adj = adjoint(mat)
        # (1 + b u)^2 Q(z) = lead u^2 + middle u + const, with lead = b^2 Q(1/b).
        lead = mat - (2.0 * level * b) * eye + (b * b) * adj
        middle = 2.0 * a * mat - (2.0 * level * (1.0 + abs(a) ** 2)) * eye + 2.0 * b * adj
        const = (a * a) * mat - (2.0 * level * a) * eye + adj
        u = _pencil_roots(lead, np.concatenate((const, middle), axis=-1))
        solved = ~np.isnan(u).any(axis=1)
        # The disc map keeps the unit circle, so test |u| before mapping.
        near = np.abs(np.abs(u[solved]) - 1.0) < tol
        u = np.where(near, u[solved], 1.0)
        angles[todo[solved]] = np.sort(np.where(near, np.mod(np.angle((u + a) / (1.0 + b * u)), 2.0 * np.pi), np.nan))
        todo = todo[~solved]
    return angles


def _certified_upper(matrices: np.ndarray, omegas: np.ndarray, norms: np.ndarray, delta: float) -> np.ndarray:
    """Per row, the level omega (1 + delta) if it is below ||T|| with no crossing, else ||T||."""
    upper, levels = norms.copy(), omegas * (1.0 + delta)
    rows = np.flatnonzero(levels < norms)
    certified = np.isnan(_crossing_angles(matrices[rows], levels[rows], _CERTIFY_TOL)).all(axis=1)
    upper[rows[certified]] = levels[rows[certified]]
    return upper


def _lift(matrices: np.ndarray, h0: np.ndarray, k0: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Per row, the midpoint of consecutive crossings of its level at which g
    is highest, when g rises above the level there; else NaN."""
    angles = _crossing_angles(matrices, levels, _LIFT_TOL)
    angles[np.isinf(angles)] = np.nan
    # Midpoints of consecutive crossings, the last one across 2pi.
    following = np.roll(angles, -1, axis=1)
    following[np.arange(len(angles)), np.count_nonzero(~np.isnan(angles), axis=1) - 1] = angles[:, 0] + 2.0 * np.pi
    mids = 0.5 * (angles + following)
    values = np.where(np.isnan(mids), -np.inf, _angle_values(h0, k0, np.nan_to_num(mids)))
    best = np.argmax(values, axis=1)[:, None]
    return np.where(np.take_along_axis(values, best, 1)[:, 0] > levels, np.take_along_axis(mids, best, 1)[:, 0], np.nan)


def _polish(h0: np.ndarray, k0: np.ndarray, theta: np.ndarray, scale: np.ndarray):
    """Newton ascent on g from ``theta`` per row: the best (g, theta, top eigenvector) seen."""
    best, best_theta, best_top = np.full(len(theta), -np.inf), theta.copy(), np.zeros(h0.shape[:2], np.complex128)
    theta, rows = theta.copy(), np.arange(len(theta))
    for _ in range(_POLISH_STEPS):
        cos, sin = np.cos(theta[rows])[:, None, None], np.sin(theta[rows])[:, None, None]
        values, vectors = np.linalg.eigh(cos * h0[rows] + sin * k0[rows])
        better = values[:, -1] > best[rows]
        best[rows[better]], best_theta[rows[better]] = values[better, -1], theta[rows[better]]
        best_top[rows[better]] = vectors[better, :, -1]
        # coupling[j] = v_j* H' v_1 with H' = -sin h0 + cos k0; a zero gap adds nothing to g''.
        coupling = matvec(adjoint(vectors), matvec(cos * k0[rows] - sin * h0[rows], vectors[..., -1]))
        gaps = values[:, -1:] - values[:, :-1]
        pull = np.divide(modulus(coupling[:, :-1]) ** 2, gaps, out=np.zeros_like(gaps), where=gaps > 0.0)
        slope, curvature = coupling[:, -1].real, 2.0 * pull.sum(axis=1) - values[:, -1]
        newton = np.divide(-slope, curvature, out=slope / scale[rows], where=curvature < 0.0)
        step = np.clip(newton, -_STEP_BOUND, _STEP_BOUND)
        theta[rows] += step
        rows = rows[np.abs(step) > _STEP_TOL]
        if not rows.size:
            break
    return best, best_theta, best_top


def _normalize_witness_phase(vectors: np.ndarray) -> np.ndarray:
    """Deterministic representative: per row, the largest-magnitude entry made real positive."""
    pivot = np.take_along_axis(vectors, np.argmax(np.abs(vectors), axis=-1)[..., None], -1)
    return vectors * (np.conj(pivot) / modulus(pivot))


@door
def numerical_radius(matrix) -> RadiusResult:
    """Numerical radius of a square matrix by the polished level set above; of
    each trial of a (trials, n, n) stack, with every field then per trial."""
    mats = as_matrices(matrix)
    stack = mats.reshape(-1, *mats.shape[-2:])
    norm = np.asarray(operator_norm(stack))
    # Past a norm of 2^±500 the polish's squares leave float64: scale by 2^-power (normal); other rows untouched.
    power = np.where(np.abs(exponent := np.frexp(norm)[1]) > 500, exponent.clip(-1021, 1021), 0)
    stack = np.where(power[:, None, None] != 0, stack * np.ldexp(1.0, -power)[:, None, None], stack)
    scale, norm = np.ldexp(1.0, power), norm * np.ldexp(1.0, -power)
    omega, angle, start, upper = np.zeros(len(stack)), np.zeros(len(stack)), np.zeros(len(stack)), norm.copy()
    witness = np.eye(1, stack.shape[-1], dtype=np.complex128).repeat(len(stack), axis=0)
    h0, k0 = _hermitian_parts(stack)
    rows = np.flatnonzero(norm > 0.0)
    start[rows] = _START_ANGLES[np.argmax(_angle_values(h0[rows], k0[rows], _START_ANGLES), axis=1)]
    for _ in range(_MAX_LEVEL_STEPS):
        value, angle[rows], top = _polish(h0[rows], k0[rows], start[rows], norm[rows])
        top = _normalize_witness_phase(top)
        witness[rows] = top = top / row_norms(top)[:, None]
        omega[rows] = np.maximum(value, modulus(inner(matvec(stack[rows], top), top)))
        # The certificate is the globality test: a crossing above omega means
        # the polish stopped at a local maximum, so lift past it and polish again.
        upper[rows] = _certified_upper(stack[rows], omega[rows], norm[rows], _CERTIFY_DELTAS[0])
        rows = rows[(upper[rows] == norm[rows]) & (omega[rows] * (1.0 + _CERTIFY_DELTAS[0]) < norm[rows])]
        if not rows.size:
            break
        start[rows] = _lift(stack[rows], h0[rows], k0[rows], omega[rows])
        rows = rows[~np.isnan(start[rows])]
    rows = np.flatnonzero(upper == norm)
    upper[rows] = _certified_upper(stack[rows], omega[rows], norm[rows], _CERTIFY_DELTAS[1])
    fields = (np.minimum(omega, norm) * scale, np.mod(angle, 2.0 * np.pi), witness, norm * scale, upper * scale)
    if mats.ndim == 3:
        return RadiusResult(*fields)
    return RadiusResult(*(field[0] if field.ndim > 1 else float(field[0]) for field in fields))


# The process's one seed table: (seed, its read-only complex Gaussians), or None.
_table: tuple[int, np.ndarray] | None = None
_table_lock = threading.Lock()


def _seed_table(seed: int, entries: int) -> np.ndarray:
    """The first ``entries`` complex Gaussians of ``seed``'s oracle stream.

    They come from the process's one table, which is built in steps into one
    preallocated array and published by one assignment; a longer request or
    another seed drops it and builds the next.
    """
    global _table
    with _table_lock:
        if _table is None or _table[0] != seed or len(_table[1]) < entries:
            _table = None
            stream, draws = Stream(mix64(seed)), np.empty(entries, dtype=np.complex128)
            for start in range(0, entries, _ORACLE_STEP_ENTRIES):
                stop = min(start + _ORACLE_STEP_ENTRIES, entries)
                draws[start:stop] = stream.complex_gaussians(stop - start)
            draws.flags.writeable = False
            _table = (seed, draws)
        return _table[1][:entries]


def numerical_radius_sampling_oracle(matrix, samples: int, seed):
    """Monte-Carlo lower bound: max |<T x, x>| over ``samples`` random unit
    vectors x; per trial of a (trials, n, n) stack, with one seed per trial
    (an array) or one for all.

    Each trial draws from a private counter-based stream keyed only by its
    seed, so its result depends on nothing but (matrix, samples, seed), not
    on the stack around it or on the step size.  A scalar seed reads its
    draws from the process's table (see the module docstring).
    """
    mats = as_matrices(matrix)
    if samples < 1:
        raise InvalidInput(f"samples must be at least 1, got {samples}")
    stack = mats.reshape(-1, *mats.shape[-2:])
    trials, n = stack.shape[:2]
    seeds = np.asarray(seed if isinstance(seed, np.ndarray) else int(seed) % 2**64, dtype=np.uint64)
    table = None
    if seeds.ndim == 0 and samples * n <= ORACLE_TABLE_ENTRIES:
        table = _seed_table(int(seeds), samples * n)
    else:
        stream = Stream(mix64(np.broadcast_to(seeds, trials)))
    step = max(2, _ORACLE_STEP_ENTRIES // (trials * n))
    best = np.zeros(trials)
    drawn = 0
    while drawn < samples:
        # A step never holds a lone last sample: numpy runs a one-row matmul
        # through gemv, which rounds unlike gemm (only samples == 1 does).
        block = samples - drawn if samples - drawn <= step + 1 else step
        if table is None:
            draws = stream.complex_gaussians(block * n)
        else:
            draws = np.broadcast_to(table[drawn * n : (drawn + block) * n], (trials, block * n))
        drawn += block
        draws = draws.reshape(trials, block, n)
        norms = np.linalg.norm(draws, axis=-1)
        norms[norms == 0.0] = 1.0
        unit = draws / norms[..., None]
        forms = np.einsum("tij,tij->ti", unit.conj(), unit @ stack.swapaxes(-1, -2))
        best = np.maximum(best, np.abs(forms).max(axis=1))
    return best if mats.ndim == 3 else float(best[0])
