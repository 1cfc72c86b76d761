"""Vector inequality chains: fixed examples, property loops, edge policies."""

import numpy as np
import pytest

from ineqlab import errors
from ineqlab.vector_ineq import (
    angles,
    buzano_chain,
    cs_refinement_chain,
    krein_triangle,
    lemma21_chain,
    lin_triangle_refined,
    projection_buzano,
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
