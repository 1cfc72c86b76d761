"""Numerical radius sweep: exact cases, sandwich bounds, witness contract,
pruning equivalence, and the sampling oracle."""

import numpy as np
import pytest

from ineqlab.errors import DimensionMismatch, InvalidInput
from ineqlab.linalg import operator_norm
from ineqlab.radius import (
    _angle_values,
    _grid_sweep,
    _hermitian_parts,
    numerical_radius,
    numerical_radius_sampling_oracle,
)

SHIFT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_nilpotent_shift_radius_is_half():
    result = numerical_radius(SHIFT)
    assert abs(result.omega - 0.5) <= 1e-10


def test_zero_matrix():
    result = numerical_radius(np.zeros((3, 3)))
    assert result.norm == 0.0
    assert result.omega == 0.0
    assert result.argmax_angle == 0.0
    assert np.linalg.norm(result.witness) == pytest.approx(1.0)


def test_hermitian_radius_equals_norm():
    rng = np.random.default_rng(10)
    for n in (2, 3, 5, 8):
        for _ in range(10):
            g = random_complex(rng, n)
            h = 0.5 * (g + g.conj().T)
            assert abs(numerical_radius(h).omega - operator_norm(h)) <= 1e-9


def test_radius_scaling_homogeneity():
    rng = np.random.default_rng(11)
    t = random_complex(rng, 4)
    base = numerical_radius(t).omega
    for c in (2.0, -3.0, 1.5j, 0.7 - 0.2j):
        scaled = numerical_radius(c * t).omega
        assert scaled == pytest.approx(abs(c) * base, rel=1e-9, abs=1e-9)


def test_radius_sandwich_bounds():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4, 8):
        for _ in range(10):
            t = random_complex(rng, n)
            nrm = operator_norm(t)
            omega = numerical_radius(t).omega
            assert omega >= 0.5 * nrm - 1e-9
            assert omega <= nrm + 1e-9


def test_witness_attains_omega():
    rng = np.random.default_rng(13)
    for n in (2, 4, 6):
        for _ in range(10):
            t = random_complex(rng, n)
            result = numerical_radius(t)
            assert np.linalg.norm(result.witness) == pytest.approx(1.0, abs=1e-12)
            attained = abs(np.vdot(result.witness, t @ result.witness))
            assert abs(attained - result.omega) <= 1e-9 * (1.0 + operator_norm(t))
            assert 0.0 <= result.argmax_angle < 2.0 * np.pi


def test_witness_phase_is_deterministic():
    rng = np.random.default_rng(14)
    t = random_complex(rng, 5)
    a = numerical_radius(t)
    b = numerical_radius(t)
    assert np.array_equal(a.witness, b.witness)
    pivot = a.witness[int(np.argmax(np.abs(a.witness)))]
    assert pivot.imag == pytest.approx(0.0, abs=1e-15)
    assert pivot.real > 0


def test_doubling_grid_barely_moves_result():
    rng = np.random.default_rng(15)
    for n in (2, 3, 4, 8):
        for _ in range(8):
            t = random_complex(rng, n)
            base = numerical_radius(t, 720).omega
            fine = numerical_radius(t, 1440).omega
            assert abs(base - fine) <= 1e-9 * operator_norm(t)


def test_pruned_sweep_matches_full_grid_exactly():
    rng = np.random.default_rng(16)
    for n in (2, 3, 5, 9):
        for _ in range(6):
            t = random_complex(rng, n)
            h0, k0 = _hermitian_parts(t)
            points = 720
            idx, value = _grid_sweep(h0, k0, points, operator_norm(t))
            thetas = (2.0 * np.pi / points) * np.arange(points)
            full = _angle_values(h0, k0, thetas)
            assert idx == int(np.argmax(full))
            assert value == float(full.max())


def test_config_validation():
    with pytest.raises(InvalidInput):
        numerical_radius(SHIFT, 4)
    with pytest.raises(DimensionMismatch):
        numerical_radius(np.ones((2, 3)))


def test_more_coarse_points_accepted_and_monotone_safe():
    # The sweep is a max over evaluations, so more points never lose ground
    # beyond tolerance.
    rng = np.random.default_rng(17)
    t = random_complex(rng, 6)
    small = numerical_radius(t, 8).omega
    big = numerical_radius(t, 2880).omega
    assert small <= big + 1e-9 * operator_norm(t)


def test_sampling_oracle_is_lower_bound_and_deterministic():
    rng = np.random.default_rng(18)
    for n in (2, 4, 8):
        for _ in range(5):
            t = random_complex(rng, n)
            omega = numerical_radius(t).omega
            val = numerical_radius_sampling_oracle(t, 4000, seed=77)
            assert val <= omega + 1e-9
            assert val == numerical_radius_sampling_oracle(t, 4000, seed=77)
            assert val != numerical_radius_sampling_oracle(t, 4000, seed=78)


def test_sampling_oracle_converges_for_hermitian():
    # For Hermitian T the supremum is omega = ||T||; with many samples the
    # oracle should get reasonably close.
    rng = np.random.default_rng(19)
    g = random_complex(rng, 2)
    h = 0.5 * (g + g.conj().T)
    val = numerical_radius_sampling_oracle(h, 20000, seed=5)
    assert val <= operator_norm(h) + 1e-9
    assert val >= 0.8 * operator_norm(h)


def test_sampling_oracle_rejects_bad_sample_count():
    with pytest.raises(InvalidInput):
        numerical_radius_sampling_oracle(SHIFT, 0, seed=1)
