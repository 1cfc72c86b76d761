"""Inner-product inequality chains on vectors, over a leading trial axis.

Each chain is one kernel, ``<chain>_batch``, that returns its terms as
arrays over the trial axis.  Its vectors, as complex (trials, d) rows, and
their norms come from :func:`~ineqlab.linalg.vector_rows`.  The public chain,
built at the end of the module by :func:`~ineqlab.chains.one_trial`, is the
kernel on one trial's inputs.  The kernels use only per-row or elementwise
operations that round as the one-trial Python arithmetic did, so no row
depends on the batch around it.

Angle-based checks reject zero vectors (the angle is undefined);
product-based chains accept them, since every term is still well defined.
"""

from __future__ import annotations

import numpy as np

from .chains import AngleResult, ChainBatch, ToleranceConfig, chain_batch, one_trial
from .errors import InvalidInput
from .linalg import (
    as_matrices,
    as_vector,
    inner,
    matvec,
    modulus,
    require_nonzero_vector,
    require_orthogonal_projection,
    row_norms,
    vector_pair,
    vector_rows,
)

PSI_GRID = 3600  # phase grid of the psi_infimum chain: its band is psi + pi/PSI_GRID
# Below this norm a row's squares reach the subnormal range and lose digits.
_LOW_NORM = np.sqrt(np.finfo(np.float64).tiny / np.finfo(np.float64).eps)


def _units(*pairs) -> list[np.ndarray]:
    """Named vectors (see :func:`~ineqlab.linalg.vector_rows`) scaled to unit
    norm per row.  A zero row raises for the first trial that has one,
    naming its first such input; a row whose squares underflow takes its
    norm after scaling by its largest entry."""
    rows, norms = vector_rows(*pairs)
    for trial in np.flatnonzero(np.any([n < _LOW_NORM for n in norms], axis=0)):
        for (name, _), vec, n in zip(pairs, rows, norms):
            require_nonzero_vector(vec[trial], name)
            if n[trial] < _LOW_NORM:
                scale = np.abs(vec[trial]).max()
                n[trial] = scale * row_norms(vec[trial] / scale)
    return [vec / n[:, None] for vec, n in zip(rows, norms)]


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex product rounded as Python's (numpy's own loop may fuse)."""
    return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag + a.imag * b.real)


def _sq(x: np.ndarray) -> np.ndarray:
    return np.float_power(x, 2.0)  # Python's x**2 (C pow); x*x differs in ~0.1% of cases


def _unit_angle(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Angle between unit vectors as 2*atan2(|u - w|, |u + w|).

    Unlike acos of the cosine ratio, this stays accurate to machine epsilon
    at nearly parallel and nearly opposite inputs, so collinear vectors get
    an exact zero (or pi) instead of a sqrt(epsilon)-sized artifact.
    """
    return 2.0 * np.arctan2(row_norms(u - w), row_norms(u + w))


def _psi_of_units(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Phase-minimized angle: rotate u so the inner product is real
    nonnegative, then measure the plain angle."""
    ip = inner(u, w)
    mag = modulus(ip)
    safe = np.where(mag > 0.0, mag, 1.0)
    phase = np.where(mag > 0.0, ip.real, 1.0) / safe + 1j * (ip.imag / safe)
    return _unit_angle(u * np.conj(phase)[:, None], w)


def angles(x, y) -> AngleResult:
    """Both angle notions between nonzero vectors.

    psi uses the modulus of the inner product and lands in [0, pi/2]; phi
    uses the real part and lands in [0, pi].  The angles themselves are
    evaluated through :func:`_unit_angle` rather than acos, so the reported
    psi or phi can disagree with acos of the reported cosine by about one
    ulp near the endpoints, in the angle's favor.
    """
    u, w = _units(("x", as_vector(x, "x")), ("y", as_vector(y, "y")))
    ip = complex(inner(u, w)[0])
    return AngleResult(
        cos_psi=min(1.0, abs(ip)),
        psi=float(_psi_of_units(u, w)[0]),
        cos_phi=min(1.0, max(-1.0, ip.real)),
        phi=float(_unit_angle(u, w)[0]),
    )


def psi_infimum_batch(x, y, grid: int = PSI_GRID, tolerance: ToleranceConfig | None = None) -> ChainBatch:
    """psi as the phase infimum of phi, witnessed on a uniform phase grid.

    The chain sandwiches the grid minimum of phi(e^{i theta} x, y) between
    psi and psi + pi/grid: psi is a true lower bound for every phase, and the
    grid places some phase within pi/grid of the optimal one.

    phi(e^{i theta} x, y) falls as Re(e^{i theta} <x, y>) rises, so the grid
    minimum lies at the grid phase nearest -arg<x, y> or at a neighbour of
    it.  Only those three phases are evaluated, each with the full grid's
    rounding, so the cost does not depend on ``grid``.  When <x, y> is at
    rounding level, phi is flat to a few ulps over the whole grid, and the
    three-phase minimum can sit a few ulps above the full-grid one.
    """
    u, w = _units(("x", x), ("y", y))
    if grid < 8:
        raise InvalidInput(f"grid must be at least 8, got {grid}")
    # Grid phases k-1, k, k+1 around the one nearest -arg<u, w>.
    turn = np.rint(np.angle(inner(u, w)) * (-grid / (2.0 * np.pi)))
    near = np.mod(turn.astype(np.int64)[:, None] + np.arange(-1, 2), grid)
    phase = np.exp(1j * (2.0 * np.pi * near / grid))[:, None, :]  # each as its entry of the full grid
    cos, sin, ub, wb = phase.real, phase.imag, u[:, :, None], w[:, :, None]
    # e^{i theta} u on those phases, in real arithmetic over (trials, dim, 3).
    re, im = cos * ub.real - sin * ub.imag, cos * ub.imag + sin * ub.real
    minus = np.sum((re - wb.real) ** 2 + (im - wb.imag) ** 2, axis=1)
    plus = np.sum((re + wb.real) ** 2 + (im + wb.imag) ** 2, axis=1)
    min_phi = 2.0 * np.arctan2(np.sqrt(minus), np.sqrt(plus)).min(axis=1)
    psi = _psi_of_units(u, w)
    terms = [("psi", psi), ("min_phase_phi", min_phi), ("psi_plus_grid_band", psi + np.pi / grid)]
    return chain_batch("psi_infimum", terms, tolerance)


def krein_triangle_batch(x, y, z, tolerance: ToleranceConfig | None = None) -> ChainBatch:
    """Triangle inequality for the real-part angle phi."""
    ux, uy, uz = _units(("x", x), ("y", y), ("z", z))
    terms = [("phi_xz", _unit_angle(ux, uz)), ("phi_xy_plus_phi_yz", _unit_angle(ux, uy) + _unit_angle(uy, uz))]
    return chain_batch("krein_triangle", terms, tolerance)


def lin_triangle_refined_batch(x, y, z, tolerance: ToleranceConfig | None = None) -> ChainBatch:
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
    one_minus_g = 2.0 * _sq(np.sin(0.5 * p_xy)) + 2.0 * np.minimum(near, far)
    middle = 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(np.maximum(one_minus_g, 0.0) / 2.0)))
    terms = [("psi_xy", p_xy), ("refined_bound", middle), ("psi_xz_plus_psi_zy", p_xz + p_zy)]
    return chain_batch("lin_triangle_refined", terms, tolerance)


@np.errstate(over="ignore", invalid="ignore")  # a term that overflows fails in chain_batch, by name
def buzano_batch(x, y, z, tolerance: ToleranceConfig | None = None) -> ChainBatch:
    """Buzano's inequality and the doubled Cauchy-Schwarz bound above it."""
    (x, y, z), (nx, ny, nz) = vector_rows(("x", x), ("y", y), ("z", z))
    pair = modulus(inner(x, z)) * modulus(inner(y, z))
    bound = 0.5 * _sq(nz) * (modulus(inner(x, y)) + nx * ny)
    terms = [("inner_product_pair", pair), ("buzano_bound", bound), ("cauchy_schwarz_twice", _sq(nz) * nx * ny)]
    return chain_batch("buzano", terms, tolerance)


def _defect_radical(nx, ny, nz, i_xz, i_yz) -> np.ndarray:
    """Product of the Cauchy-Schwarz defect radicals of (x, z) and (y, z),
    each radicand clamped at zero against rounding dips."""
    x_side = np.maximum(_sq(nx) * _sq(nz) - _sq(modulus(i_xz)), 0.0)
    return np.sqrt(x_side) * np.sqrt(np.maximum(_sq(ny) * _sq(nz) - _sq(modulus(i_yz)), 0.0))


@np.errstate(over="ignore", invalid="ignore")
def lemma21_batch(x, y, z, tolerance: ToleranceConfig | None = None) -> ChainBatch:
    """Four-step chain from a product of inner products up to the Buzano bound.

    The two middle terms interpolate: first by the triangle inequality on
    <x,y>||z||^2 - <x,z><z,y>, then by bounding that deviation with the
    Cauchy-Schwarz defect radicals.
    """
    (x, y, z), (nx, ny, nz) = vector_rows(("x", x), ("y", y), ("z", z))
    i_xz, i_zy, i_yz, i_xy = inner(x, z), inner(z, y), inner(y, z), inner(x, y)
    pair_mod = modulus(_mul(i_xz, i_yz))
    deviation = modulus(i_xy * _sq(nz) - _mul(i_xz, i_zy))
    base = pair_mod + modulus(i_xy) * _sq(nz)
    radical = 0.5 * (base + _defect_radical(nx, ny, nz, i_xz, i_yz))
    terms = [("inner_product_pair", modulus(_mul(i_xz, i_zy))), ("triangle_split", 0.5 * (base + deviation))]
    terms += [("defect_radical_bound", radical), ("buzano_bound", 0.5 * _sq(nz) * (nx * ny + modulus(i_xy)))]
    return chain_batch("lemma21", terms, tolerance)


@np.errstate(over="ignore", invalid="ignore")
def cs_refinement_batch(x, y, z, tolerance: ToleranceConfig | None = None) -> ChainBatch:
    """Cauchy-Schwarz with an intermediate bound through a third vector."""
    (x, y, z), (nx, ny, nz) = vector_rows(("x", x), ("y", y), ("z", z))
    i_xz, i_zy, i_yz = inner(x, z), inner(z, y), inner(y, z)
    split = modulus(i_xz) * modulus(i_zy) + _defect_radical(nx, ny, nz, i_xz, i_yz)
    terms = [("inner_product_scaled", modulus(inner(x, y)) * _sq(nz)), ("split_bound", split)]
    return chain_batch("cs_refinement", terms + [("cauchy_schwarz", _sq(nz) * nx * ny)], tolerance)


def projection_buzano_batch(projection, x, y, tolerance: ToleranceConfig | None = None) -> ChainBatch:
    """Buzano-type bound for an orthogonal projection applied inside the
    inner product; the projection precondition is enforced."""
    proj = as_matrices(projection, "P")
    xv, yv, nx, ny = vector_pair(x, y, proj, "P")
    require_orthogonal_projection(proj, name="P")
    lhs = modulus(inner(matvec(proj, xv), yv))
    rhs = 0.5 * (modulus(inner(xv, yv)) + nx * ny)
    return chain_batch("projection_buzano", [("projected_inner_product", lhs), ("buzano_bound", rhs)], tolerance)


psi_infimum_property = one_trial(psi_infimum_batch)
krein_triangle = one_trial(krein_triangle_batch)
lin_triangle_refined = one_trial(lin_triangle_refined_batch)
buzano_chain = one_trial(buzano_batch)
lemma21_chain = one_trial(lemma21_batch)
cs_refinement_chain = one_trial(cs_refinement_batch)
projection_buzano = one_trial(projection_buzano_batch)
