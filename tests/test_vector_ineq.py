"""Vector inequality chains: fixed examples, property loops, edge policies."""

import warnings

import numpy as np
import pytest

from ineqlab import errors
from ineqlab.vector_ineq import (
    _units,
    angles,
    buzano_chain,
    cs_refinement_chain,
    krein_triangle,
    krein_triangle_batch,
    lemma21_chain,
    lin_triangle_refined,
    lin_triangle_refined_batch,
    projection_buzano,
    psi_infimum_batch,
    psi_infimum_property,
)

S2 = 1.0 / np.sqrt(2.0)


def random_vec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# ---------------------------------------------------------------------------
# angles


def test_angles_fixed_examples():
    a = angles([1.0, 0.0], [0.0, 1.0])
    assert a.psi == pytest.approx(np.pi / 2)
    assert a.phi == pytest.approx(np.pi / 2)
    b = angles([1.0, 0.0], [S2, S2])
    assert b.psi == pytest.approx(np.pi / 4)
    c = angles([1.0, 0.0], [-1.0, 0.0])
    assert c.psi == pytest.approx(0.0)
    assert c.phi == pytest.approx(np.pi)


def test_angles_reject_zero_vectors():
    with pytest.raises(errors.ZeroVector):
        angles([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(errors.ZeroVector):
        angles([1.0, 0.0], [0.0, 0.0])


def test_psi_never_exceeds_phi():
    rng = np.random.default_rng(20)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        a = angles(random_vec(rng, n), random_vec(rng, n))
        assert 0.0 <= a.psi <= np.pi / 2 + 1e-15
        assert 0.0 <= a.phi <= np.pi + 1e-15
        assert a.psi <= a.phi + 1e-12


def test_angle_scale_invariance():
    rng = np.random.default_rng(21)
    x, y = random_vec(rng, 5), random_vec(rng, 5)
    base = angles(x, y)
    for c in (2.0, -1.0, 3j, 0.4 - 1.1j):
        scaled = angles(c * x, y)
        assert scaled.cos_psi == pytest.approx(base.cos_psi, abs=1e-12)
    # cos_phi is preserved only by positive real scaling.
    assert angles(2.5 * x, y).cos_phi == pytest.approx(base.cos_phi, abs=1e-12)
    flipped = angles(-x, y)
    assert flipped.cos_phi == pytest.approx(-base.cos_phi, abs=1e-12)


# ---------------------------------------------------------------------------
# psi as a phase infimum


def test_psi_infimum_fixed_examples():
    aligned = psi_infimum_property([1.0, 0.0], [-1.0, 0.0], grid=360)
    assert aligned.terms[0][1] == pytest.approx(0.0, abs=1e-12)
    assert aligned.terms[1][1] == pytest.approx(0.0, abs=1e-2)
    assert aligned.passed
    orth = psi_infimum_property([1.0, 0.0], [0.0, 1.0], grid=360)
    assert orth.terms[0][1] == pytest.approx(np.pi / 2)
    assert orth.terms[1][1] == pytest.approx(np.pi / 2)
    assert orth.passed


def test_psi_infimum_random_band():
    rng = np.random.default_rng(22)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        result = psi_infimum_property(random_vec(rng, n), random_vec(rng, n), grid=3600)
        assert result.passed
        gap = result.terms[1][1] - result.terms[0][1]
        assert -1e-12 <= gap <= np.pi / 3600 + 1e-9


def literal_grid_min_phi(x, y, grid):
    """The per-trial reference: phi(e^{i theta} x, y) on every grid phase as
    complex vectors, each norm summed by numpy along the vector axis."""
    u, w = (np.asarray(v, dtype=complex) / np.linalg.norm(v) for v in (x, y))
    rotated = np.exp(1j * 2.0 * np.pi * np.arange(grid) / grid)[:, None] * u[None, :]
    minus, plus = np.linalg.norm(rotated - w, axis=1), np.linalg.norm(rotated + w, axis=1)
    return float((2.0 * np.arctan2(minus, plus)).min())


def test_psi_infimum_grid_matches_literal_reference():
    # The batched grid sums each norm over the vector axis in another order,
    # so the two may differ by rounding only: a few ulps of phi <= pi.
    rng = np.random.default_rng(41)
    tolerance = 8 * np.finfo(float).eps * np.pi
    for _ in range(60):
        n = int(rng.integers(1, 18))
        x, y = random_vec(rng, n), random_vec(rng, n)
        batched = psi_infimum_property(x, y, grid=3600).terms[1][1]
        assert abs(batched - literal_grid_min_phi(x, y, 3600)) <= tolerance


def full_grid_min_phi(x, y, grid):
    """The full-grid kernel: phi(e^{i theta} u, w) on every grid phase, in
    (trials, dim, grid) blocks summed over the vector axis, then the min."""
    u, w = _units(("x", x), ("y", y))
    table = np.exp(1j * (2.0 * np.pi * np.arange(grid) / grid))
    cos, sin = table.real, table.imag
    rows = max(1, (1 << 16) // (grid * u.shape[1]))
    min_phi = np.empty(u.shape[0])
    for start in range(0, u.shape[0], rows):
        ub, wb = u[start : start + rows, :, None], w[start : start + rows, :, None]
        re, im = cos * ub.real - sin * ub.imag, cos * ub.imag + sin * ub.real
        minus = np.sum((re - wb.real) ** 2 + (im - wb.imag) ** 2, axis=1)
        plus = np.sum((re + wb.real) ** 2 + (im + wb.imag) ** 2, axis=1)
        min_phi[start : start + rows] = 2.0 * np.arctan2(np.sqrt(minus), np.sqrt(plus)).min(axis=1)
    return min_phi


def nearest_phase_min_phi(x, y, grid):
    return psi_infimum_batch(x, y, grid=grid).values[:, 1]


def complex_rows(rng, rows, dim):
    return rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))


def orthogonal_part(rng, x):
    """Random rows orthogonal to the rows of x (rounding-level at dim 1)."""
    v = complex_rows(rng, *x.shape)
    return v - (np.sum(v * x.conj(), axis=1) / np.sum(x * x.conj(), axis=1).real)[:, None] * x


PHASE_GRIDS = (8, 9, 360, 3600, 3601)


@pytest.mark.parametrize("grid", PHASE_GRIDS)
def test_psi_infimum_nearest_phases_match_full_grid(grid):
    rng = np.random.default_rng(grid)
    rows = 6
    for dim in range(1, 34):
        x = complex_rows(rng, rows, dim)
        unimodular = np.exp(1j * rng.uniform(-np.pi, np.pi, (rows, 1)))
        # Optimum halfway between two grid phases: -arg<x, c x> = arg c.
        tie = np.exp(1j * 2.0 * np.pi * (rng.integers(0, grid, (rows, 1)) + 0.5) / grid)
        cases = {
            "complex": (x, complex_rows(rng, rows, dim)),
            "real": (rng.standard_normal((rows, dim)), rng.standard_normal((rows, dim))),
            "real_opposite": (x.real, -2.5 * x.real),
            "collinear": (x, rng.uniform(0.1, 3.0, (rows, 1)) * unimodular * x),
            "tie_collinear": (x, tie * x),
            "tie_mixed": (x, tie * x + 0.5 * orthogonal_part(rng, x)),
        }
        for name, (a, b) in cases.items():
            got, want = nearest_phase_min_phi(a, b, grid), full_grid_min_phi(a, b, grid)
            assert np.array_equal(got, want), (name, dim, got - want)


@pytest.mark.parametrize("grid", PHASE_GRIDS)
def test_psi_infimum_near_orthogonal_within_ulps_above_full_grid(grid):
    # With |<u, w>| at rounding level phi is flat over the whole grid, and a
    # far phase can round a few ulps lower than the three nearest ones.
    rng = np.random.default_rng(100 + grid)
    for dim in range(2, 34):
        x = complex_rows(rng, 8, dim)
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        v = orthogonal_part(rng, x)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        y = v + 1e-14 * np.exp(1j * rng.uniform(0, 2 * np.pi, (8, 1))) * x
        u, w = _units(("x", x), ("y", y))
        assert np.all(np.abs(np.sum(u * w.conj(), axis=1)) <= 1e-13)
        got, want = nearest_phase_min_phi(x, y, grid), full_grid_min_phi(x, y, grid)
        assert np.all(got >= want)
        assert np.all(got - want <= 4 * np.spacing(want)), (dim, (got - want) / np.spacing(want))


def test_psi_infimum_cost_does_not_grow_with_grid():
    # A full grid of 10**8 phases would need (128, 16, 10**8) blocks; the
    # three nearest phases need (128, 16, 3).
    rng = np.random.default_rng(8)
    grid = 10**8
    batch = psi_infimum_batch(complex_rows(rng, 128, 16), complex_rows(rng, 128, 16), grid=grid)
    assert batch.passed.all()
    psi, min_phi, band = batch.values.T
    assert np.array_equal(band, psi + np.pi / grid)
    gap = min_phi - psi
    assert np.all((gap >= -1e-12) & (gap <= np.pi / grid + 1e-12))


# Kernels that scale their inputs to unit rows, with the term that a bad
# entry in x (side 0) or in y (side 1) first makes non-finite.  Test ids keep
# the psi-only form, side-bad, for psi_infimum.
_UNIT_KERNELS = [
    ("", psi_infimum_batch, 2, {"grid": 3600}, ("psi", "psi")),
    ("krein_triangle-", krein_triangle_batch, 3, {}, ("phi_xz", "phi_xy_plus_phi_yz")),
    ("lin_triangle_refined-", lin_triangle_refined_batch, 3, {}, ("psi_xy", "psi_xy")),
]


@pytest.mark.parametrize(
    "kernel, arity, kwargs, terms, side, bad",
    [
        pytest.param(kernel, arity, kwargs, terms, side, bad, id=f"{prefix}{side}-{bad}")
        for prefix, kernel, arity, kwargs, terms in _UNIT_KERNELS
        for side in (0, 1)
        for bad in (np.nan, np.inf, complex(0.0, -np.inf), complex(np.nan, np.nan))
    ],
)
def test_psi_infimum_non_finite_row_raises_without_new_warnings(kernel, arity, kwargs, terms, side, bad):
    rng = np.random.default_rng(5)
    inputs = [complex_rows(rng, 4, 3) for _ in range(arity)]
    inputs[side][2, 1] = bad
    name = kernel.__name__.removesuffix("_batch")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the typed error is the only signal
        with pytest.raises(errors.InvalidInput, match=f"^{name}: term '{terms[side]}' is not finite$"):
            kernel(*inputs, **kwargs)


def test_psi_infimum_validates_grid():
    with pytest.raises(errors.InvalidInput):
        psi_infimum_property([1.0], [1.0], grid=4)


# ---------------------------------------------------------------------------
# triangle inequalities


def test_krein_triangle_fixed_examples():
    eq = krein_triangle([1.0, 0.0], [S2, S2], [0.0, 1.0])
    assert eq.terms[0][1] == pytest.approx(np.pi / 2)
    assert eq.terms[1][1] == pytest.approx(np.pi / 2)
    assert eq.passed
    triv = krein_triangle([1.0, 0.0], [1.0, 0.0], [1.0, 0.0])
    assert triv.values == pytest.approx([0.0, 0.0], abs=1e-12)


def test_krein_triangle_random():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        assert krein_triangle(random_vec(rng, n), random_vec(rng, n), random_vec(rng, n)).passed


def test_lin_triangle_fixed_examples():
    chain = lin_triangle_refined([1.0, 0.0], [S2, S2], [0.0, 1.0])
    expected = [np.pi / 4, np.pi / 4, 3 * np.pi / 4]
    assert chain.values == pytest.approx(expected, abs=1e-12)
    same = lin_triangle_refined([1.0, 2.0], [1.0, 2.0], [1.0, 2.0])
    assert same.values == pytest.approx([0.0, 0.0, 0.0], abs=1e-6)


def test_lin_triangle_random():
    rng = np.random.default_rng(24)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        chain = lin_triangle_refined(random_vec(rng, n), random_vec(rng, n), random_vec(rng, n))
        assert chain.passed, chain.to_dict()


def test_lin_triangle_rejects_zero():
    with pytest.raises(errors.ZeroVector):
        lin_triangle_refined([1.0, 0.0], [0.0, 0.0], [0.0, 1.0])


# ---------------------------------------------------------------------------
# product chains


def test_buzano_equality_triple():
    chain = buzano_chain([1.0, 0.0], [0.0, 1.0], [S2, S2])
    assert chain.values == pytest.approx([0.5, 0.5, 1.0])
    assert chain.slacks[0] == pytest.approx(0.0, abs=1e-12)
    assert chain.passed


def test_buzano_unit_self():
    chain = buzano_chain([1.0, 0.0], [1.0, 0.0], [1.0, 0.0])
    assert chain.values == pytest.approx([1.0, 1.0, 1.0])


def test_buzano_random_and_outer_bound():
    rng = np.random.default_rng(25)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        chain = buzano_chain(random_vec(rng, n), random_vec(rng, n), random_vec(rng, n))
        assert chain.passed
        # First term never exceeds the outer Cauchy-Schwarz term on its own.
        assert chain.values[0] <= chain.values[2] + chain.tolerance_used


def test_lemma21_fixed_examples():
    chain = lemma21_chain([1.0, 0.0], [0.0, 1.0], [S2, S2])
    assert chain.values == pytest.approx([0.5, 0.5, 0.5, 0.5])
    zero_z = lemma21_chain([1.0, 2.0], [3.0, 4.0], [0.0, 0.0])
    assert zero_z.values == pytest.approx([0.0, 0.0, 0.0, 0.0], abs=1e-15)


def test_lemma21_random_and_buzano_tail():
    rng = np.random.default_rng(26)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        x, y, z = (random_vec(rng, n) for _ in range(3))
        chain = lemma21_chain(x, y, z)
        assert chain.passed, chain.to_dict()
        # The final term is the same expression as the Buzano middle term.
        buz = buzano_chain(x, y, z)
        assert chain.values[3] == pytest.approx(buz.values[1], rel=1e-12, abs=1e-12)


def test_cs_refinement_examples_and_random():
    rng = np.random.default_rng(27)
    x = random_vec(rng, 4)
    y = random_vec(rng, 4)
    # z aligned with x: the defect radical vanishes, first equals second.
    chain = cs_refinement_chain(x, y, x / np.linalg.norm(x))
    assert chain.slacks[0] == pytest.approx(0.0, abs=1e-9)
    assert chain.passed
    # Orthogonal z: the middle term is carried by the radicals alone.
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    e3 = np.array([0.0, 0.0, 1.0])
    orth = cs_refinement_chain(e1 + e2, e2, e3)
    assert orth.passed
    zero = cs_refinement_chain(x, y, np.zeros(4))
    assert zero.values == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        assert cs_refinement_chain(random_vec(rng, n), random_vec(rng, n), random_vec(rng, n)).passed


# ---------------------------------------------------------------------------
# projection form


def test_projection_buzano_examples():
    identity = projection_buzano(np.eye(2), [1.0, 0.0], [1.0, 0.0])
    assert identity.values == pytest.approx([1.0, 1.0])
    half = np.full((2, 2), 0.5)
    equality = projection_buzano(half, [1.0, 0.0], [0.0, 1.0])
    assert equality.values == pytest.approx([0.5, 0.5])
    assert equality.passed
    zero = projection_buzano(np.zeros((2, 2)), [1.0, 0.0], [0.0, 1.0])
    assert zero.values[0] == 0.0
    assert zero.passed


def test_projection_buzano_rejects_non_projection():
    with pytest.raises(errors.NotOrthogonalProjection):
        projection_buzano(np.diag([1.0, 0.5]), [1.0, 0.0], [0.0, 1.0])


def test_projection_buzano_random():
    rng = np.random.default_rng(29)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        g = random_vec(rng, n)
        u = g / np.linalg.norm(g)
        p = np.outer(u, u.conj())
        assert projection_buzano(p, random_vec(rng, n), random_vec(rng, n)).passed


# ---------------------------------------------------------------------------
# scalar micro-lemma used by the operator proofs


def test_scalar_product_difference_lemma():
    rng = np.random.default_rng(30)
    for _ in range(2000):
        a, b = sorted(rng.uniform(0.0, 10.0, size=2), reverse=True)
        c, d = sorted(rng.uniform(0.0, 10.0, size=2), reverse=True)
        lhs = (a * a - b * b) * (c * c - d * d)
        rhs = (a * c - b * d) ** 2
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)


def test_dimension_mismatch_raised():
    with pytest.raises(errors.DimensionMismatch):
        buzano_chain([1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0])
