"""Inner-product inequality chains on vectors.

Each checker evaluates the terms of one inequality chain exactly as written
and delegates the verdict to :func:`ineqlab.chains.make_chain`.  Angle-based
checks reject zero vectors (the angle is undefined); product-based chains
accept them, since every term is still well defined.
"""

from __future__ import annotations

import numpy as np

from .chains import AngleResult, ChainResult, ToleranceConfig, make_chain
from .errors import InvalidInput
from .linalg import (
    as_vector,
    require_nonzero_vector,
    require_operator_on,
    require_orthogonal_projection,
    require_same_length,
)


def _clamped_sqrt(value: float) -> float:
    """sqrt with the radicand clamped at zero against rounding dips."""
    return float(np.sqrt(max(value, 0.0)))


def _vectors(*pairs) -> list[np.ndarray]:
    coerced = [(name, as_vector(value, name)) for name, value in pairs]
    require_same_length(*coerced)
    return [vec for _, vec in coerced]


def _units(*pairs) -> list[np.ndarray]:
    """Validated nonzero vectors scaled to unit norm, for the angle checks."""
    vectors = _vectors(*pairs)
    for (name, _), vec in zip(pairs, vectors):
        require_nonzero_vector(vec, name)
    return [vec / np.linalg.norm(vec) for vec in vectors]


def _inner(x: np.ndarray, y: np.ndarray) -> complex:
    # Linear in the first slot; inputs are validated by the callers.
    return complex(np.vdot(y, x))


def _unit_angle(u: np.ndarray, w: np.ndarray) -> float:
    """Angle between unit vectors as 2*atan2(|u - w|, |u + w|).

    Unlike acos of the cosine ratio, this stays accurate to machine epsilon
    at nearly parallel and nearly opposite inputs, so collinear vectors get
    an exact zero (or pi) instead of a sqrt(epsilon)-sized artifact.
    """
    diff = float(np.linalg.norm(u - w))
    total = float(np.linalg.norm(u + w))
    return 2.0 * float(np.arctan2(diff, total))


def _psi_of_units(u: np.ndarray, w: np.ndarray) -> float:
    """Phase-minimized angle: rotate u so the inner product is real
    nonnegative, then measure the plain angle."""
    ip = _inner(u, w)
    mag = abs(ip)
    phase = ip / mag if mag > 0.0 else 1.0
    return _unit_angle(u * np.conj(phase), w)


def angles(x, y) -> AngleResult:
    """Both angle notions between nonzero vectors.

    psi uses the modulus of the inner product and lands in [0, pi/2]; phi
    uses the real part and lands in [0, pi].  The angles themselves are
    evaluated through :func:`_unit_angle` rather than acos, so the reported
    psi or phi can disagree with acos of the reported cosine by about one
    ulp near the endpoints, in the angle's favor.
    """
    u, w = _units(("x", x), ("y", y))
    ip = _inner(u, w)
    return AngleResult(
        cos_psi=min(1.0, abs(ip)),
        psi=_psi_of_units(u, w),
        cos_phi=min(1.0, max(-1.0, ip.real)),
        phi=_unit_angle(u, w),
    )


def psi_infimum_property(x, y, grid: int = 360, tolerance: ToleranceConfig | None = None) -> ChainResult:
    """psi as the phase infimum of phi, witnessed on a uniform phase grid.

    The chain sandwiches the grid minimum of phi(e^{i theta} x, y) between
    psi and psi + pi/grid: psi is a true lower bound for every phase, and the
    grid places some phase within pi/grid of the optimal one.
    """
    if grid < 8:
        raise InvalidInput(f"grid must be at least 8, got {grid}")
    u, w = _units(("x", x), ("y", y))
    thetas = 2.0 * np.pi * np.arange(grid) / grid
    rotated = np.exp(1j * thetas)[:, None] * u[None, :]
    grid_phi = 2.0 * np.arctan2(
        np.linalg.norm(rotated - w[None, :], axis=1),
        np.linalg.norm(rotated + w[None, :], axis=1),
    )
    min_phi = float(grid_phi.min())
    psi = _psi_of_units(u, w)
    return make_chain(
        "psi_infimum",
        [
            ("psi", psi),
            ("min_phase_phi", min_phi),
            ("psi_plus_grid_band", psi + np.pi / grid),
        ],
        tolerance,
    )


def krein_triangle(x, y, z, tolerance: ToleranceConfig | None = None) -> ChainResult:
    """Triangle inequality for the real-part angle phi."""
    ux, uy, uz = _units(("x", x), ("y", y), ("z", z))
    phi_xz = _unit_angle(ux, uz)
    phi_xy = _unit_angle(ux, uy)
    phi_yz = _unit_angle(uy, uz)
    return make_chain(
        "krein_triangle",
        [("phi_xz", phi_xz), ("phi_xy_plus_phi_yz", phi_xy + phi_yz)],
        tolerance,
    )


def lin_triangle_refined(x, y, z, tolerance: ToleranceConfig | None = None) -> ChainResult:
    """Triangle inequality for psi with an interpolating refinement term.

    The middle term tightens cos(psi_xz + psi_zy) by replacing the product
    part with its deviation from cos(psi_xy):

        acos( cos(psi_xy) + |cos(psi_xy) - cos(psi_xz) cos(psi_zy)|
              - sin(psi_xz) sin(psi_zy) )

    It sits above psi_xy because the absolute deviation is at most
    sin(psi_xz) sin(psi_zy), and below psi_xz + psi_zy because dropping an
    absolute value only lowers the cosine argument.

    The acos is evaluated through the half-angle identity
    acos(g) = 2 asin(sqrt((1-g)/2)), with 1-g expanded into products of
    half-angle sines of the three psi values.  That form has no cancellation,
    so degenerate (collinear) triples come out exact instead of picking up
    sqrt(epsilon)-sized angles.
    """
    ux, uy, uz = _units(("x", x), ("y", y), ("z", z))
    p_xy = _psi_of_units(ux, uy)
    p_xz = _psi_of_units(ux, uz)
    p_zy = _psi_of_units(uz, uy)
    # 1 - g = vers(p_xy) + min of the two sign resolutions of
    # sin(p_xz) sin(p_zy) -+ (cos(p_xy) - cos(p_xz) cos(p_zy)), each a
    # product-to-sum difference of cosines.
    near = np.sin(0.5 * (p_xy + p_xz - p_zy)) * np.sin(0.5 * (p_xy - p_xz + p_zy))
    far = np.sin(0.5 * (p_xy + p_xz + p_zy)) * np.sin(0.5 * (p_xz + p_zy - p_xy))
    one_minus_g = 2.0 * np.sin(0.5 * p_xy) ** 2 + 2.0 * min(float(near), float(far))
    half = min(1.0, float(np.sqrt(max(one_minus_g, 0.0) / 2.0)))
    middle = 2.0 * float(np.arcsin(half))
    return make_chain(
        "lin_triangle_refined",
        [
            ("psi_xy", p_xy),
            ("refined_bound", middle),
            ("psi_xz_plus_psi_zy", p_xz + p_zy),
        ],
        tolerance,
    )


def buzano_chain(x, y, z, tolerance: ToleranceConfig | None = None) -> ChainResult:
    """Buzano's inequality and the doubled Cauchy-Schwarz bound above it."""
    xv, yv, zv = _vectors(("x", x), ("y", y), ("z", z))
    nx, ny, nz = (float(np.linalg.norm(v)) for v in (xv, yv, zv))
    term1 = abs(_inner(xv, zv)) * abs(_inner(yv, zv))
    term2 = 0.5 * nz**2 * (abs(_inner(xv, yv)) + nx * ny)
    term3 = nz**2 * nx * ny
    return make_chain(
        "buzano",
        [
            ("inner_product_pair", term1),
            ("buzano_bound", term2),
            ("cauchy_schwarz_twice", term3),
        ],
        tolerance,
    )


def lemma21_chain(x, y, z, tolerance: ToleranceConfig | None = None) -> ChainResult:
    """Four-step chain from a product of inner products up to the Buzano bound.

    The two middle terms interpolate: first by the triangle inequality on
    <x,y>||z||^2 - <x,z><z,y>, then by bounding that deviation with the
    Cauchy-Schwarz defect radicals.
    """
    xv, yv, zv = _vectors(("x", x), ("y", y), ("z", z))
    nx, ny, nz = (float(np.linalg.norm(v)) for v in (xv, yv, zv))
    i_xz = _inner(xv, zv)
    i_zy = _inner(zv, yv)
    i_yz = _inner(yv, zv)
    i_xy = _inner(xv, yv)
    product = abs(i_xz * i_zy)
    pair_mod = abs(i_xz * i_yz)
    deviation = abs(i_xy * nz**2 - i_xz * i_zy)
    radical = _clamped_sqrt(nx**2 * nz**2 - abs(i_xz) ** 2) * _clamped_sqrt(
        ny**2 * nz**2 - abs(i_yz) ** 2
    )
    term2 = 0.5 * (pair_mod + abs(i_xy) * nz**2 + deviation)
    term3 = 0.5 * (pair_mod + abs(i_xy) * nz**2 + radical)
    term4 = 0.5 * nz**2 * (nx * ny + abs(i_xy))
    return make_chain(
        "lemma21",
        [
            ("inner_product_pair", product),
            ("triangle_split", term2),
            ("defect_radical_bound", term3),
            ("buzano_bound", term4),
        ],
        tolerance,
    )


def cs_refinement_chain(x, y, z, tolerance: ToleranceConfig | None = None) -> ChainResult:
    """Cauchy-Schwarz with an intermediate bound through a third vector."""
    xv, yv, zv = _vectors(("x", x), ("y", y), ("z", z))
    nx, ny, nz = (float(np.linalg.norm(v)) for v in (xv, yv, zv))
    i_xy = _inner(xv, yv)
    i_xz = _inner(xv, zv)
    i_zy = _inner(zv, yv)
    i_yz = _inner(yv, zv)
    radical = _clamped_sqrt(nx**2 * nz**2 - abs(i_xz) ** 2) * _clamped_sqrt(
        ny**2 * nz**2 - abs(i_yz) ** 2
    )
    return make_chain(
        "cs_refinement",
        [
            ("inner_product_scaled", abs(i_xy) * nz**2),
            ("split_bound", abs(i_xz) * abs(i_zy) + radical),
            ("cauchy_schwarz", nz**2 * nx * ny),
        ],
        tolerance,
    )


def projection_buzano(projection, x, y, tolerance: ToleranceConfig | None = None) -> ChainResult:
    """Buzano-type bound for an orthogonal projection applied inside the
    inner product; the projection precondition is enforced."""
    proj = require_orthogonal_projection(projection, name="P")
    xv, yv = _vectors(("x", x), ("y", y))
    require_operator_on(proj, xv, "P", "x")
    nx, ny = float(np.linalg.norm(xv)), float(np.linalg.norm(yv))
    lhs = abs(_inner(proj @ xv, yv))
    rhs = 0.5 * (abs(_inner(xv, yv)) + nx * ny)
    return make_chain(
        "projection_buzano",
        [("projected_inner_product", lhs), ("buzano_bound", rhs)],
        tolerance,
    )
