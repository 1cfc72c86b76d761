"""Operator inequality chains: contractive Cauchy-Schwarz refinements,
numerical-radius product bounds, spectral power bounds, and the closing
refinement of omega(T) <= ||T||.

Each chain is one kernel, ``<chain>_batch``, on one trial's inputs or on a
stack of them over a leading trial axis: a 3-D ndarray operator is a stack,
one matrix is one trial, and vectors are read as the vector kernels read them
(:func:`~ineqlab.linalg.vector_rows`).  Its public chain, built at the end of
the module by :func:`~ineqlab.chains.one_trial`, is the kernel on one trial's
inputs.  The two numerical radii of a trial go into one stacked
:func:`~ineqlab.radius.numerical_radius` call.  Every kernel validates the
hypotheses it relies on and raises a typed error when they fail, an operator
over all trials before the vectors, which raise trial by trial; suite runs
replay a failing stack trial by trial.  The one deliberate exception,
:func:`remark36_unchecked_batch`, skips the positivity hypothesis so that the
known counterexample can be reproduced as a genuine violation.
"""

from __future__ import annotations

import numpy as np

from .chains import ChainBatch, ToleranceConfig, chain_batch, one_trial
from .errors import InvalidInput, ZeroOperator
from .linalg import (
    HERMITIAN_TOL,
    adjoint,
    as_matrices,
    hermitian_norm,
    inner,
    matvec,
    modulus,
    operator_norm,
    polar_decompose,
    psd_power,
    psd_sqrt,
    require_positive_semidefinite,
    require_same_length,
    require_spectrum,
    row_norms,
    vector_pair,
)
from .radius import RadiusResult, numerical_radius


def _as_power(power) -> float:
    """Exponent for the power-inequality checks; only r >= 1 is covered."""
    r = float(power)
    if not (r >= 1.0):
        raise InvalidInput(f"power exponent must satisfy r >= 1, got {r}")
    return r


def _require_positive_contraction(matrix, name: str = "A") -> np.ndarray:
    return require_spectrum(matrix, 0.0, 1.0, name, slack=HERMITIAN_TOL)[0]


def _require_nonzero(matrix: np.ndarray, name: str = "A") -> np.ndarray:
    if not matrix.any(axis=(-2, -1)).all():
        raise ZeroOperator(f"{name}: the zero operator is excluded here")
    return matrix


def _require_nonzero_psd(matrix, name: str = "A") -> tuple[np.ndarray, np.ndarray]:
    sym, spectrum = require_positive_semidefinite(matrix, name)
    return _require_nonzero(sym, name), np.abs(spectrum).max(axis=-1)


def _quad_form(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Re<Mv, v>, clamped at zero; used only where M is PSD up to rounding."""
    value = inner(matvec(matrix, vector), vector).real
    return np.where(value < 0.0, 0.0, value)  # Python's max(value, 0.0): keeps -0.0 and NaN


def lemma_2A_batch(A, x, y, tolerance: ToleranceConfig | None = None) -> ChainBatch:
    """Cauchy-Schwarz defect bound for (I - A) with 0 <= A <= 2I.

    |<(I-A)x, (I-A)y>| <= ||x|| ||y|| - sqrt(<(2A-A^2)x,x> <(2A-A^2)y,y>).
    """
    sym, _ = require_spectrum(A, 0.0, 2.0, "A", slack=HERMITIAN_TOL)
    xv, yv, nx, ny = vector_pair(x, y, sym, "A")
    gap = 2.0 * sym - sym @ sym
    lhs = modulus(inner(xv - matvec(sym, xv), yv - matvec(sym, yv)))
    rhs = nx * ny - np.sqrt(_quad_form(gap, xv) * _quad_form(gap, yv))
    return chain_batch("lemma_2A", [("deflated_inner_product", lhs), ("norm_minus_radical", rhs)], tolerance)


def theorem_gap_batch(A, x, y, tolerance: ToleranceConfig | None = None) -> ChainBatch:
    """Gap bound for a positive contraction: the Cauchy-Schwarz defect of
    A - A^2 is at most a quarter of the defect of the identity."""
    sym, spectrum = require_spectrum(A, 0.0, 1.0, "A", slack=HERMITIAN_TOL)
    xv, yv, nx, ny = vector_pair(x, y, sym, "A")
    gap = sym - sym @ sym
    # The window lets the spectrum leave [0, 1] by HERMITIAN_TOL, more than
    # the chain's floor absorbs; such a trial takes A - A^2 on its clipped spectrum.
    outside = (spectrum[..., -1] < 0.0) | (spectrum[..., 0] > 1.0)
    if outside.any():
        values, vectors = np.linalg.eigh(sym)
        clipped = np.clip(values, 0.0, 1.0)
        inside_gap = (vectors * (clipped - clipped**2)[..., None, :]) @ adjoint(vectors)
        gap = np.where(outside[..., None, None], inside_gap, gap)
    middle = np.sqrt(_quad_form(gap, xv) * _quad_form(gap, yv)) - modulus(inner(matvec(gap, xv), yv))
    cap = (nx * ny - modulus(inner(xv, yv))) / 4.0
    terms = [("zero", np.zeros(np.shape(middle))), ("gap_defect", middle), ("quarter_cs_defect", cap)]
    return chain_batch("theorem_gap", terms, tolerance)


def corollary33_batch(A, x, y, scaled: bool = False, tolerance: ToleranceConfig | None = None) -> ChainBatch:
    """Additive Cauchy-Schwarz refinement through a positive operator.

    Unscaled form requires a positive contraction; the scaled form accepts
    any nonzero PSD operator and divides its contribution by ||A||.
    """
    sym, denom = _require_nonzero_psd(A) if scaled else (_require_positive_contraction(A, "A"), 1.0)
    xv, yv, nx, ny = vector_pair(x, y, sym, "A")
    radical = np.sqrt(_quad_form(sym, xv) * _quad_form(sym, yv))
    lhs = modulus(inner(xv, yv)) + (radical - modulus(inner(matvec(sym, xv), yv))) / denom
    terms = [("refined_inner_product", lhs), ("norm_product", nx * ny)]
    return chain_batch("corollary33_scaled" if scaled else "corollary33", terms, tolerance)


def corollary35_batch(A, x, y, tolerance: ToleranceConfig | None = None) -> ChainBatch:
    """Buzano-type bound for a positive contraction in the middle slot."""
    sym = _require_positive_contraction(A, "A")
    xv, yv, nx, ny = vector_pair(x, y, sym, "A")
    lhs = modulus(inner(matvec(sym, xv), yv))
    rhs = 0.5 * (nx * ny + modulus(inner(xv, yv)))
    return chain_batch("corollary35", [("sandwiched_inner_product", lhs), ("buzano_bound", rhs)], tolerance)


def _remark36_terms(norm, mat: np.ndarray, xv, yv, nx, ny) -> list[tuple[str, np.ndarray]]:
    lhs = modulus(inner(matvec(mat, xv), yv))
    rhs = 0.5 * norm * (modulus(inner(xv, yv)) + nx * ny)
    return [("operator_inner_product", lhs), ("scaled_buzano_bound", rhs)]


def remark36_scaled_batch(A, x, y, tolerance: ToleranceConfig | None = None) -> ChainBatch:
    """Norm-scaled Buzano bound, valid for nonzero PSD operators only."""
    sym, norm = _require_nonzero_psd(A)
    return chain_batch("remark36_scaled", _remark36_terms(norm, sym, *vector_pair(x, y, sym, "A")), tolerance)


def remark36_unchecked_batch(A, x, y, tolerance: ToleranceConfig | None = None) -> ChainBatch:
    """Same expression as :func:`remark36_scaled` with no positivity check.

    For operators that are not PSD the bound can genuinely fail; this path
    exists so that failure can be demonstrated and asserted on.
    """
    mat = as_matrices(A, "A")
    terms = _remark36_terms(operator_norm(mat), mat, *vector_pair(x, y, mat, "A"))
    return chain_batch("remark36_counterexample", terms, tolerance)


def remark36_polar_batch(A, x, y, tolerance: ToleranceConfig | None = None) -> ChainBatch:
    """Polar-decomposition route to the scaled bound for arbitrary nonzero A.

    With A = U |A| the first inequality applies the PSD bound to |A| against
    the rotated pair (U* y stands in for y); the second uses ||U* y|| <= ||y||.
    """
    mat = _require_nonzero(as_matrices(A, "A"))
    xv, yv, nx, ny = vector_pair(x, y, mat, "A")
    polar = polar_decompose(mat)
    half_norm = 0.5 * polar.singular_values[..., 0]
    u_on_x = modulus(inner(matvec(polar.unitary, xv), yv))
    rotated = row_norms(matvec(adjoint(polar.unitary), yv))
    terms = [
        ("operator_inner_product", modulus(inner(matvec(mat, xv), yv))),
        ("polar_split_bound", half_norm * (u_on_x + nx * rotated)),
        ("scaled_buzano_bound", half_norm * (u_on_x + nx * ny)),
    ]
    return chain_batch("remark36_polar", terms, tolerance)


def _radius_pair(first: np.ndarray, second: np.ndarray) -> tuple[RadiusResult, RadiusResult]:
    """The numerical radii of two operators of one trial, or of two stacks,
    from one stacked call; every field is per trial."""
    both = numerical_radius(np.stack((first, second)).reshape(-1, *first.shape[-2:]))
    halves = [np.split(field, 2) for field in (both.omega, both.argmax_angle, both.witness, both.norm, both.upper)]
    return RadiusResult(*(half[0] for half in halves)), RadiusResult(*(half[1] for half in halves))


def corollary37_batch(A, B, tolerance: ToleranceConfig | None = None) -> ChainBatch:
    """Numerical radius of a product against a positive factor.

    omega(AB) <= (||B||/2)(omega(A) + ||A||) <= (3/2) ||B|| omega(A).
    """
    mat_a = as_matrices(A, "A")
    sym_b, spectrum_b = require_positive_semidefinite(B, "B")
    require_same_length(("A", mat_a), ("B", sym_b))
    radius_ab, radius_a = _radius_pair(mat_a @ sym_b, mat_a)
    norm_b = np.abs(spectrum_b).max(axis=-1)
    terms = [
        ("omega_product", radius_ab.omega),
        ("half_norm_split", 0.5 * norm_b * (radius_a.omega + radius_a.norm)),
        ("three_halves_bound", 1.5 * norm_b * radius_a.omega),
    ]
    return chain_batch("corollary37", terms, tolerance, radii=(radius_ab, radius_a))


def _require_triple(A, S, T) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    sym_a = _require_positive_contraction(A, "A")
    mat_s = as_matrices(S, "S")
    mat_t = as_matrices(T, "T")
    require_same_length(("A", sym_a), ("S", mat_s), ("T", mat_t))
    return sym_a, mat_s, mat_t


def corollary38_omega_batch(A, S, T, tolerance: ToleranceConfig | None = None) -> ChainBatch:
    """Sandwiched numerical radius bound:

    omega(S A T) <= (1/4) || |T|^2 + |S*|^2 || + (1/2) omega(S T).
    """
    sym_a, mat_s, mat_t = _require_triple(A, S, T)
    radius_sat, radius_st = _radius_pair(mat_s @ sym_a @ mat_t, mat_s @ mat_t)
    moduli = adjoint(mat_t) @ mat_t + mat_s @ adjoint(mat_s)
    bound = 0.25 * hermitian_norm(moduli) + 0.5 * radius_st.omega
    terms = [("omega_sandwich", radius_sat.omega), ("moduli_plus_half_omega", bound)]
    return chain_batch("corollary38_omega", terms, tolerance, radii=(radius_sat, radius_st))


def corollary38_norm_batch(A, S, T, tolerance: ToleranceConfig | None = None) -> ChainBatch:
    """Operator-norm companion bound: ||S A T|| <= (||T|| ||S|| + ||S T||)/2."""
    sym_a, mat_s, mat_t = _require_triple(A, S, T)
    lhs = operator_norm(mat_s @ sym_a @ mat_t)
    rhs = 0.5 * (operator_norm(mat_t) * operator_norm(mat_s) + operator_norm(mat_s @ mat_t))
    return chain_batch("corollary38_norm", [("norm_sandwich", lhs), ("norm_split_bound", rhs)], tolerance)


def power_batch(A, S, T, power, tolerance: ToleranceConfig | None = None) -> ChainBatch:
    """Power form of the sandwich bound, r >= 1:

    omega(S A T)^r <= (1/4) || |T|^{2r} + |S*|^{2r} || + (1/2) omega(S T)^r.

    |X|^{2r} is computed by raising the eigenvalues of the PSD matrix X* X to
    the power r, avoiding an intermediate square root.
    """
    r = _as_power(power)
    sym_a, mat_s, mat_t = _require_triple(A, S, T)
    radius_sat, radius_st = _radius_pair(mat_s @ sym_a @ mat_t, mat_s @ mat_t)
    mod_t_2r = psd_power(adjoint(mat_t) @ mat_t, r, "T*T")
    mod_s_adj_2r = psd_power(mat_s @ adjoint(mat_s), r, "SS*")
    # Python's float power, row by row: numpy's power rounds some rows differently.
    sat_r, st_r = (np.array([omega**r for omega in radius.omega.tolist()]) for radius in (radius_sat, radius_st))
    bound = 0.25 * hermitian_norm(mod_t_2r + mod_s_adj_2r) + 0.5 * st_r
    terms = [("omega_sandwich_power", sat_r), ("moduli_power_bound", bound)]
    return chain_batch(f"power_r{r:g}", terms, tolerance, radii=(radius_sat, radius_st))


def bourin_batch(M, N, power, tolerance: ToleranceConfig | None = None) -> ChainBatch:
    """Norm convexity transfer for PSD pairs: the r-th power of the average
    is dominated in norm by the average of the r-th powers; the former is
    the r-th power of the top eigenvalue of (M+N)/2, clipped at zero."""
    r = _as_power(power)
    mat_m = as_matrices(M, "M")
    power_m = psd_power(mat_m, r, "M")
    mat_n = as_matrices(N, "N")
    power_n = psd_power(mat_n, r, "N")
    require_same_length(("M", mat_m), ("N", mat_n))
    _, average = require_positive_semidefinite(0.5 * (mat_m + mat_n), "(M+N)/2")
    lhs = np.maximum(average[..., 0], 0.0) ** r
    rhs = 0.5 * hermitian_norm(power_m + power_n)
    return chain_batch(f"bourin_r{r:g}", [("power_of_average", lhs), ("average_of_powers", rhs)], tolerance)


def contraction_builder(A) -> np.ndarray:
    """Solve B - B^2 = A for a positive contraction B.

    Requires A Hermitian with spectrum in [0, 1/4]; returns the branch
    B = (I + sqrt(I - 4A))/2, whose spectrum lies in [1/2, 1].
    """
    sym, _ = require_spectrum(A, 0.0, 0.25, "A")
    eye = np.eye(sym.shape[-1], dtype=np.complex128)
    root = psd_sqrt(eye - 4.0 * sym, "I - 4A")
    return 0.5 * (eye + root)


def final_omega_refinement_batch(T, tolerance: ToleranceConfig | None = None) -> ChainBatch:
    """Refinement chain between omega(T) and ||T||.

    With T = U |T| and R = |T|^{1/2}, the numerical radius of the half-rotated
    factor U R interpolates:

    omega(T) <= (||T|| + ||T||^{1/2} omega(UR))/2
            <= (||T|| + ||T||^{1/2} ||UR||)/2
            <= (||T|| + ||T||^{1/2} ||U|| ||T||^{1/2})/2 <= ||T||,  with ||U|| = 1.
    """
    mat = as_matrices(T, "T")
    polar = polar_decompose(mat)
    radius_t, radius_ur = _radius_pair(mat, polar.unitary @ psd_sqrt(polar.modulus, "|T|"))
    norm_t = radius_t.norm
    sqrt_norm = np.sqrt(norm_t)
    terms = [
        ("omega", radius_t.omega),
        ("half_rotated_omega", 0.5 * (norm_t + sqrt_norm * radius_ur.omega)),
        ("half_rotated_norm", 0.5 * (norm_t + sqrt_norm * radius_ur.norm)),
        ("unitary_factor_bound", 0.5 * (norm_t + sqrt_norm * sqrt_norm)),
        ("operator_norm", norm_t),
    ]
    return chain_batch("final_omega_refinement", terms, tolerance, radii=(radius_t, radius_ur))


lemma_2A_chain = one_trial(lemma_2A_batch)
theorem_gap_chain = one_trial(theorem_gap_batch)
corollary33_chain = one_trial(corollary33_batch)
corollary35_chain = one_trial(corollary35_batch)
remark36_scaled = one_trial(remark36_scaled_batch)
remark36_scaled_unchecked = one_trial(remark36_unchecked_batch)
remark36_polar_chain = one_trial(remark36_polar_batch)
corollary37_chain = one_trial(corollary37_batch)
corollary38_omega_chain = one_trial(corollary38_omega_batch)
corollary38_norm_chain = one_trial(corollary38_norm_batch)
power_chain = one_trial(power_batch)
bourin_property = one_trial(bourin_batch)
final_omega_refinement_chain = one_trial(final_omega_refinement_batch)
