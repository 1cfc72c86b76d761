"""Operator inequality chains: contractive Cauchy-Schwarz refinements,
numerical-radius product bounds, spectral power bounds, and the closing
refinement of omega(T) <= ||T||.

Precondition enforcement is strict: every checker validates the operator
hypotheses it relies on and raises a typed error when they fail.  The one
deliberate exception is :func:`remark36_scaled_unchecked`, which evaluates
the scaled bound without the positivity hypothesis so that the known
counterexample can be reproduced and recorded as a genuine violation.
"""

from __future__ import annotations

import numpy as np

from .chains import ChainResult, ToleranceConfig, make_chain
from .errors import InvalidInput, ZeroOperator
from .linalg import (
    HERMITIAN_TOL,
    as_square_matrix,
    as_vector,
    operator_norm,
    polar_decompose,
    psd_power,
    psd_sqrt,
    require_operator_on,
    require_positive_semidefinite,
    require_same_length,
    require_spectrum,
)
from .radius import numerical_radius


def _as_power(power) -> float:
    """Exponent for the power-inequality checks; only r >= 1 is covered."""
    r = float(power)
    if not (r >= 1.0):
        raise InvalidInput(f"power exponent must satisfy r >= 1, got {r}")
    return r


def _power_tag(r: float) -> str:
    return f"{r:g}"


def _require_positive_contraction(matrix, name: str = "A") -> np.ndarray:
    return require_spectrum(matrix, 0.0, 1.0, name, slack=HERMITIAN_TOL)


def _require_nonzero(matrix: np.ndarray, name: str = "A") -> np.ndarray:
    if not matrix.any():
        raise ZeroOperator(f"{name}: the zero operator is excluded here")
    return matrix


def _vector_pair(x, y, operator: np.ndarray, opname: str) -> tuple[np.ndarray, np.ndarray]:
    xv = as_vector(x, "x")
    yv = as_vector(y, "y")
    require_same_length(("x", xv), ("y", yv))
    require_operator_on(operator, xv, opname, "x")
    return xv, yv


def _inner(x: np.ndarray, y: np.ndarray) -> complex:
    return complex(np.vdot(y, x))


def _quad_form(matrix: np.ndarray, vector: np.ndarray) -> float:
    """Re<Mv, v>, clamped at zero; used only where M is PSD up to rounding."""
    value = float(np.real(np.vdot(vector, matrix @ vector)))
    return max(value, 0.0)


def lemma_2A_chain(A, x, y, tolerance: ToleranceConfig | None = None) -> ChainResult:
    """Cauchy-Schwarz defect bound for (I - A) with 0 <= A <= 2I.

    |<(I-A)x, (I-A)y>| <= ||x|| ||y|| - sqrt(<(2A-A^2)x,x> <(2A-A^2)y,y>).
    """
    sym = require_spectrum(A, 0.0, 2.0, "A", slack=HERMITIAN_TOL)
    xv, yv = _vector_pair(x, y, sym, "A")
    residual = sym @ sym
    gap = 2.0 * sym - residual
    lhs = abs(_inner(xv - sym @ xv, yv - sym @ yv))
    radical = np.sqrt(_quad_form(gap, xv) * _quad_form(gap, yv))
    rhs = float(np.linalg.norm(xv)) * float(np.linalg.norm(yv)) - radical
    return make_chain(
        "lemma_2A",
        [("deflated_inner_product", lhs), ("norm_minus_radical", rhs)],
        tolerance,
    )


def theorem_gap_chain(A, x, y, tolerance: ToleranceConfig | None = None) -> ChainResult:
    """Gap bound for a positive contraction: the Cauchy-Schwarz defect of
    A - A^2 is at most a quarter of the defect of the identity."""
    sym = _require_positive_contraction(A, "A")
    xv, yv = _vector_pair(x, y, sym, "A")
    gap = sym - sym @ sym
    radical = np.sqrt(_quad_form(gap, xv) * _quad_form(gap, yv))
    middle = radical - abs(_inner(gap @ xv, yv))
    cap = (float(np.linalg.norm(xv)) * float(np.linalg.norm(yv)) - abs(_inner(xv, yv))) / 4.0
    return make_chain(
        "theorem_gap",
        [("zero", 0.0), ("gap_defect", middle), ("quarter_cs_defect", cap)],
        tolerance,
    )


def corollary33_chain(
    A, x, y, scaled: bool = False, tolerance: ToleranceConfig | None = None
) -> ChainResult:
    """Additive Cauchy-Schwarz refinement through a positive operator.

    Unscaled form requires a positive contraction; the scaled form accepts
    any nonzero PSD operator and divides its contribution by ||A||.
    """
    if scaled:
        sym = _require_nonzero(require_positive_semidefinite(A, "A"))
        denom = operator_norm(sym)
        name = "corollary33_scaled"
    else:
        sym = _require_positive_contraction(A, "A")
        denom = 1.0
        name = "corollary33"
    xv, yv = _vector_pair(x, y, sym, "A")
    radical = np.sqrt(_quad_form(sym, xv) * _quad_form(sym, yv))
    group = (radical - abs(_inner(sym @ xv, yv))) / denom
    lhs = abs(_inner(xv, yv)) + group
    rhs = float(np.linalg.norm(xv)) * float(np.linalg.norm(yv))
    return make_chain(
        name,
        [("refined_inner_product", lhs), ("norm_product", rhs)],
        tolerance,
    )


def corollary35_chain(A, x, y, tolerance: ToleranceConfig | None = None) -> ChainResult:
    """Buzano-type bound for a positive contraction in the middle slot."""
    sym = _require_positive_contraction(A, "A")
    xv, yv = _vector_pair(x, y, sym, "A")
    lhs = abs(_inner(sym @ xv, yv))
    rhs = 0.5 * (
        float(np.linalg.norm(xv)) * float(np.linalg.norm(yv)) + abs(_inner(xv, yv))
    )
    return make_chain(
        "corollary35",
        [("sandwiched_inner_product", lhs), ("buzano_bound", rhs)],
        tolerance,
    )


def _remark36_terms(sym: np.ndarray, xv: np.ndarray, yv: np.ndarray) -> list[tuple[str, float]]:
    lhs = abs(_inner(sym @ xv, yv))
    rhs = 0.5 * operator_norm(sym) * (
        abs(_inner(xv, yv)) + float(np.linalg.norm(xv)) * float(np.linalg.norm(yv))
    )
    return [("operator_inner_product", lhs), ("scaled_buzano_bound", rhs)]


def remark36_scaled(A, x, y, tolerance: ToleranceConfig | None = None) -> ChainResult:
    """Norm-scaled Buzano bound, valid for nonzero PSD operators only."""
    sym = _require_nonzero(require_positive_semidefinite(A, "A"))
    xv, yv = _vector_pair(x, y, sym, "A")
    return make_chain("remark36_scaled", _remark36_terms(sym, xv, yv), tolerance)


def remark36_scaled_unchecked(A, x, y, tolerance: ToleranceConfig | None = None) -> ChainResult:
    """Same expression as :func:`remark36_scaled` with no positivity check.

    For operators that are not PSD the bound can genuinely fail; this path
    exists so that failure can be demonstrated and asserted on.
    """
    mat = as_square_matrix(A, "A")
    xv, yv = _vector_pair(x, y, mat, "A")
    return make_chain("remark36_counterexample", _remark36_terms(mat, xv, yv), tolerance)


def remark36_polar_chain(A, x, y, tolerance: ToleranceConfig | None = None) -> ChainResult:
    """Polar-decomposition route to the scaled bound for arbitrary nonzero A.

    With A = U |A| the first inequality applies the PSD bound to |A| against
    the rotated pair (U* y stands in for y); the second uses ||U* y|| <= ||y||.
    """
    mat = _require_nonzero(as_square_matrix(A, "A"))
    xv, yv = _vector_pair(x, y, mat, "A")
    polar = polar_decompose(mat)
    half_norm = 0.5 * operator_norm(mat)
    nx = float(np.linalg.norm(xv))
    ny = float(np.linalg.norm(yv))
    u_on_x = abs(_inner(polar.unitary @ xv, yv))
    rotated = float(np.linalg.norm(polar.unitary.conj().T @ yv))
    return make_chain(
        "remark36_polar",
        [
            ("operator_inner_product", abs(_inner(mat @ xv, yv))),
            ("polar_split_bound", half_norm * (u_on_x + nx * rotated)),
            ("scaled_buzano_bound", half_norm * (u_on_x + nx * ny)),
        ],
        tolerance,
    )


def corollary37_chain(A, B, tolerance: ToleranceConfig | None = None) -> ChainResult:
    """Numerical radius of a product against a positive factor.

    omega(AB) <= (||B||/2)(omega(A) + ||A||) <= (3/2) ||B|| omega(A).
    """
    mat_a = as_square_matrix(A, "A")
    sym_b = require_positive_semidefinite(B, "B")
    require_same_length(("A", mat_a), ("B", sym_b))
    omega_ab = numerical_radius(mat_a @ sym_b).omega
    radius_a = numerical_radius(mat_a)
    norm_b = operator_norm(sym_b)
    return make_chain(
        "corollary37",
        [
            ("omega_product", omega_ab),
            ("half_norm_split", 0.5 * norm_b * (radius_a.omega + radius_a.norm)),
            ("three_halves_bound", 1.5 * norm_b * radius_a.omega),
        ],
        tolerance,
        omega_grade=True,
    )


def _require_triple(A, S, T) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    sym_a = _require_positive_contraction(A, "A")
    mat_s = as_square_matrix(S, "S")
    mat_t = as_square_matrix(T, "T")
    require_same_length(("A", sym_a), ("S", mat_s), ("T", mat_t))
    return sym_a, mat_s, mat_t


def corollary38_omega_chain(A, S, T, tolerance: ToleranceConfig | None = None) -> ChainResult:
    """Sandwiched numerical radius bound:

    omega(S A T) <= (1/4) || |T|^2 + |S*|^2 || + (1/2) omega(S T).
    """
    sym_a, mat_s, mat_t = _require_triple(A, S, T)
    omega_sat = numerical_radius(mat_s @ sym_a @ mat_t).omega
    omega_st = numerical_radius(mat_s @ mat_t).omega
    mod_t_sq = mat_t.conj().T @ mat_t
    mod_s_adj_sq = mat_s @ mat_s.conj().T
    bound = 0.25 * operator_norm(mod_t_sq + mod_s_adj_sq) + 0.5 * omega_st
    return make_chain(
        "corollary38_omega",
        [("omega_sandwich", omega_sat), ("moduli_plus_half_omega", bound)],
        tolerance,
        omega_grade=True,
    )


def corollary38_norm_chain(A, S, T, tolerance: ToleranceConfig | None = None) -> ChainResult:
    """Operator-norm companion bound: ||S A T|| <= (||T|| ||S|| + ||S T||)/2."""
    sym_a, mat_s, mat_t = _require_triple(A, S, T)
    lhs = operator_norm(mat_s @ sym_a @ mat_t)
    rhs = 0.5 * (operator_norm(mat_t) * operator_norm(mat_s) + operator_norm(mat_s @ mat_t))
    return make_chain(
        "corollary38_norm",
        [("norm_sandwich", lhs), ("norm_split_bound", rhs)],
        tolerance,
    )


def power_chain(A, S, T, power, tolerance: ToleranceConfig | None = None) -> ChainResult:
    """Power form of the sandwich bound, r >= 1:

    omega(S A T)^r <= (1/4) || |T|^{2r} + |S*|^{2r} || + (1/2) omega(S T)^r.

    |X|^{2r} is computed by raising the eigenvalues of the PSD matrix X* X to
    the power r, avoiding an intermediate square root.
    """
    r = _as_power(power)
    sym_a, mat_s, mat_t = _require_triple(A, S, T)
    omega_sat = numerical_radius(mat_s @ sym_a @ mat_t).omega
    omega_st = numerical_radius(mat_s @ mat_t).omega
    mod_t_2r = psd_power(mat_t.conj().T @ mat_t, r, "T*T")
    mod_s_adj_2r = psd_power(mat_s @ mat_s.conj().T, r, "SS*")
    bound = 0.25 * operator_norm(mod_t_2r + mod_s_adj_2r) + 0.5 * omega_st**r
    return make_chain(
        f"power_r{_power_tag(r)}",
        [("omega_sandwich_power", omega_sat**r), ("moduli_power_bound", bound)],
        tolerance,
        omega_grade=True,
    )


def bourin_property(M, N, power, tolerance: ToleranceConfig | None = None) -> ChainResult:
    """Norm convexity transfer for PSD pairs: the r-th power of the average
    is dominated in norm by the average of the r-th powers."""
    r = _as_power(power)
    mat_m = as_square_matrix(M, "M")
    power_m = psd_power(mat_m, r, "M")
    mat_n = as_square_matrix(N, "N")
    power_n = psd_power(mat_n, r, "N")
    require_same_length(("M", mat_m), ("N", mat_n))
    lhs = operator_norm(psd_power(0.5 * (mat_m + mat_n), r, "(M+N)/2"))
    rhs = 0.5 * operator_norm(power_m + power_n)
    return make_chain(
        f"bourin_r{_power_tag(r)}",
        [("power_of_average", lhs), ("average_of_powers", rhs)],
        tolerance,
    )


def contraction_builder(A) -> np.ndarray:
    """Solve B - B^2 = A for a positive contraction B.

    Requires A Hermitian with spectrum in [0, 1/4]; returns the branch
    B = (I + sqrt(I - 4A))/2, whose spectrum lies in [1/2, 1].
    """
    sym = require_spectrum(A, 0.0, 0.25, "A")
    eye = np.eye(sym.shape[0], dtype=np.complex128)
    root = psd_sqrt(eye - 4.0 * sym, "I - 4A")
    return 0.5 * (eye + root)


def final_omega_refinement_chain(T, tolerance: ToleranceConfig | None = None) -> ChainResult:
    """Refinement chain between omega(T) and ||T||.

    With T = U |T| and R = |T|^{1/2}, the numerical radius of the half-rotated
    factor U R interpolates:

    omega(T) <= (||T|| + ||T||^{1/2} omega(UR))/2
            <= (||T|| + ||T||^{1/2} ||UR||)/2
            <= (||T|| + ||T||^{1/2} ||U|| ||T||^{1/2})/2 <= ||T||.
    """
    mat = as_square_matrix(T, "T")
    polar = polar_decompose(mat)
    half_power = psd_sqrt(polar.modulus, "|T|")
    radius_t = numerical_radius(mat)
    radius_ur = numerical_radius(polar.unitary @ half_power)
    norm_t = radius_t.norm
    sqrt_norm = float(np.sqrt(norm_t))
    return make_chain(
        "final_omega_refinement",
        [
            ("omega", radius_t.omega),
            ("half_rotated_omega", 0.5 * (norm_t + sqrt_norm * radius_ur.omega)),
            ("half_rotated_norm", 0.5 * (norm_t + sqrt_norm * radius_ur.norm)),
            ("unitary_factor_bound", 0.5 * (norm_t + sqrt_norm * operator_norm(polar.unitary) * sqrt_norm)),
            ("operator_norm", norm_t),
        ],
        tolerance,
        omega_grade=True,
    )
