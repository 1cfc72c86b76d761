"""Numerical radius by the level-set method: exact cases, closed-form radii
at dims up to 32, sandwich bounds, witness contract, agreement with the
grid + golden-section sweep it replaced, the certified upper bound, and the
sampling oracle with its per-process seed table."""

import math
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ineqlab import radius as radius_module
from ineqlab.ensembles import MAX_DIM, EnsembleConfig, draw, trial_stream
from ineqlab.errors import DimensionMismatch, InvalidInput
from ineqlab.linalg import as_square_matrix, operator_norm
from ineqlab.prng import Stream, derive_key, mix64
from ineqlab.radius import (
    _CERTIFY_TOL,
    ORACLE_CHECK_SAMPLES,
    _angle_values,
    _crossing_angles,
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", [2, 3, 8, 16])
@pytest.mark.parametrize("power", [-600, 500, 600, 1000, 1020])
def test_radius_scales_exactly_past_the_squares_range(power, dim):
    # From 2^512 on, the polish's squares overflowed: it warned, and omega
    # drifted from 2^k times the unscaled one by up to 8e-13 relative.
    stack = draw("ginibre", trial_stream(EnsembleConfig("ginibre", dim, 5, 4), np.arange(4)), dim)
    for matrix in (stack[0], stack):
        base, scaled = numerical_radius(matrix), numerical_radius(2.0**power * matrix)
        for field in ("omega", "upper", "norm"):
            np.testing.assert_allclose(getattr(scaled, field) / 2.0**power, getattr(base, field), rtol=1e-14, atol=0)
        assert np.all(scaled.omega <= scaled.upper) and np.all(scaled.upper <= scaled.norm)


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


def test_config_validation():
    with pytest.raises(DimensionMismatch):
        numerical_radius(np.ones((2, 3)))


# -- oracle: the grid + golden-section sweep that the level-set method replaced.
# The sweep scored a Lipschitz-pruned 720-point grid; pruning only skipped
# provably dominated angles, so scoring the full grid gives the same result.

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _sweep_omega(matrix) -> float:
    mat = np.asarray(matrix, dtype=np.complex128)
    if operator_norm(mat) == 0.0:
        return 0.0
    h0, k0 = _hermitian_parts(mat)
    points = 720
    step = 2.0 * np.pi / points
    grid = _angle_values(h0, k0, step * np.arange(points))
    best_idx = int(np.argmax(grid))
    best_theta, best_value = step * best_idx, float(grid[best_idx])

    def eval_one(theta):
        return float(np.linalg.eigvalsh(np.cos(theta) * h0 + np.sin(theta) * k0)[-1])

    # Golden-section search on the bracket around the grid winner, keeping
    # the best point it ever evaluates.
    a, b = best_theta - step, best_theta + step
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = eval_one(c), eval_one(d)
    for theta, value in ((c, fc), (d, fd)):
        if value > best_value:
            best_theta, best_value = theta, value
    iterations = 0
    while (b - a) > 1e-12 and iterations < 200:
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

    h_best = np.cos(best_theta) * h0 + np.sin(best_theta) * k0
    values, vectors = np.linalg.eigh(0.5 * (h_best + h_best.conj().T))
    witness = vectors[:, -1] / np.linalg.norm(vectors[:, -1])
    attained = abs(complex(np.vdot(witness, mat @ witness)))
    return max(best_value, float(values[-1]), attained)


ORACLE_REL = 1e-13
ROUNDING = 4.0 * np.finfo(float).eps
DRAW_DIMS = (1, 2, 3, 4, 8, 16)


def seeded_draws(per_dim=12):
    rng = np.random.default_rng(20)
    return [random_complex(rng, n) for n in DRAW_DIMS for _ in range(per_dim)]


def named_cases():
    rng = np.random.default_rng(21)
    g = random_complex(rng, 5)
    unitary, _ = np.linalg.qr(random_complex(rng, 5))
    return {
        "shift": (SHIFT, 0.5),
        "jordan8": (np.diag(np.ones(7), 1), math.cos(math.pi / 9)),
        "rank_deficient6": (random_complex(rng, 6)[:, :3] @ random_complex(rng, 6)[:3, :], None),
        "hermitian": (g + g.conj().T, None),
        "normal": (unitary @ np.diag(rng.standard_normal(5) + 1j * rng.standard_normal(5)) @ unitary.conj().T, None),
        "real": (rng.standard_normal((6, 6)), None),
        "one_by_one": (np.array([[2.0 - 1.0j]]), math.sqrt(5.0)),
        "zero": (np.zeros((3, 3)), 0.0),
    }


def assert_matches_sweep(matrix):
    omega = numerical_radius(matrix).omega
    swept = _sweep_omega(matrix)
    assert abs(omega - swept) <= ORACLE_REL * swept
    return omega


def test_level_set_matches_sweep_on_ginibre_draws():
    for t in seeded_draws():
        assert_matches_sweep(t)


@pytest.mark.parametrize("name", sorted(named_cases()))
def test_level_set_matches_sweep_on_named_cases(name):
    matrix, exact = named_cases()[name]
    omega = assert_matches_sweep(matrix)
    if exact is not None:
        assert omega == pytest.approx(exact, rel=1e-14, abs=1e-300)


def test_upper_is_certified_within_1e10():
    for t in seeded_draws() + [matrix for matrix, _ in named_cases().values()]:
        result = numerical_radius(t)
        assert result.omega <= result.upper * (1.0 + ROUNDING)
        assert result.upper <= result.norm
        assert result.upper - result.omega <= 1e-10 * result.omega


def degenerate_cases():
    """Matrices whose g is flat or has a multiple top eigenvalue at its maximum."""
    rng = np.random.default_rng(23)
    t = random_complex(rng, 3)
    unitary, _ = np.linalg.qr(random_complex(rng, 4))
    phases = np.diag([1.5, 1.5j, -0.4, 0.2 + 0.1j])
    g = random_complex(rng, 4)
    return {
        "shift": SHIFT,
        "t_plus_t": np.block([[t, np.zeros((3, 3))], [np.zeros((3, 3)), t]]),
        "normal_equal_moduli": unitary @ phases @ unitary.conj().T,
        "hermitian": g + g.conj().T,
        "rank_one": np.outer(random_complex(rng, 5)[:, 0], random_complex(rng, 5)[0]),
        "one_by_one": np.array([[-0.3 + 0.4j]]),
        "zero": np.zeros((4, 4)),
    }


@pytest.mark.parametrize("name", sorted(degenerate_cases()))
def test_polish_on_flat_or_multiple_maxima(name):
    matrix = degenerate_cases()[name]
    assert_matches_sweep(matrix)
    result = numerical_radius(matrix)
    assert result.upper - result.omega <= 1e-10 * result.omega


def test_one_pencil_per_radius_on_ginibre_draws(monkeypatch):
    # Each row handed to the crossing test is one 2n x 2n pencil solve.
    pencils = []
    crossing_angles = radius_module._crossing_angles

    def counted(matrix, level, tol):
        pencils.append(np.size(level))
        return crossing_angles(matrix, level, tol)

    monkeypatch.setattr(radius_module, "_crossing_angles", counted)
    calls = 0
    for dim in (2, 4, 8, 16):
        stream = trial_stream(EnsembleConfig("ginibre", dim, 7, 40), np.arange(40))
        for matrix in draw("ginibre", stream, dim):
            numerical_radius(matrix)
            calls += 1
    assert sum(pencils) / calls <= 1.25


def test_level_test_finds_crossings_below_omega():
    rng = np.random.default_rng(22)
    for n in (2, 4, 8):
        t = random_complex(rng, n)
        level = 0.99 * numerical_radius(t).omega
        angles = _crossing_angles(t[None], np.array([level]), _CERTIFY_TOL)[0]
        assert np.count_nonzero(np.isfinite(angles)) >= 2
        h0, k0 = _hermitian_parts(t)
        for theta in angles[np.isfinite(angles)]:
            spectrum = np.linalg.eigvalsh(np.cos(theta) * h0 + np.sin(theta) * k0)
            assert np.min(np.abs(spectrum - level)) <= 1e-9 * level


def test_singular_leading_coefficient_falls_back_to_second_centre(monkeypatch):
    # At level 5/4 the first block of diag(1, 2) vanishes at z = 2, the image
    # of the first centre, so the leading coefficient is exactly singular.
    t = np.diag([1.0, 2.0]).astype(complex)
    expected = np.sort(np.mod([math.acos(0.625), -math.acos(0.625)], 2.0 * np.pi))
    angles = _crossing_angles(t[None], np.array([1.25]), _CERTIFY_TOL)[0]
    assert np.allclose(angles[:2], expected, rtol=0.0, atol=1e-12)
    assert np.isnan(angles[2:]).all()
    monkeypatch.setattr(radius_module, "_CENTRES", radius_module._CENTRES[:1])
    assert np.isposinf(_crossing_angles(t[None], np.array([1.25]), _CERTIFY_TOL)).all()


def test_a_stack_with_one_singular_leading_coefficient_solves_row_by_row():
    # At level 5/8, row 0 is diag(1, 2) / 2 of the test above: singular at
    # the first centre, so the stacked solve fails and each row is solved alone.
    stack = np.array([np.diag([0.5, 1.0]), np.diag([0.3, 1.0])], dtype=complex)
    levels = np.array([0.625, 0.625])
    angles = _crossing_angles(stack, levels, _CERTIFY_TOL)
    rows = [_crossing_angles(stack[t : t + 1], levels[t : t + 1], _CERTIFY_TOL)[0] for t in range(2)]
    assert angles.tobytes() == np.array(rows).tobytes()
    expected = np.sort(np.mod([math.acos(0.625), -math.acos(0.625)], 2.0 * np.pi))
    for row in angles:
        assert np.allclose(row[:2], expected, rtol=0.0, atol=1e-12)
        assert np.isnan(row[2:]).all()


def einsum_sampling_oracle(matrix, samples, seed):
    """The one-matrix oracle that the stacked one replaced: blocks of 4096
    samples and the 3-operand einsum, kept as the reference."""
    mat = as_square_matrix(matrix)
    n = mat.shape[0]
    stream = Stream(mix64(seed))
    best = 0.0
    remaining = samples
    while remaining > 0:
        block = min(remaining, 4096)
        remaining -= block
        draws = stream.complex_gaussians(block * n).reshape(block, n)
        norms = np.linalg.norm(draws, axis=1)
        norms[norms == 0.0] = 1.0
        unit = draws / norms[:, None]
        forms = np.einsum("ij,jk,ik->i", unit.conj(), mat, unit)
        best = max(best, float(np.max(np.abs(forms))))
    return best


@pytest.mark.parametrize("samples", [1, 3, 512, 10000])
def test_stacked_sampling_oracle_rows_equal_one_matrix_calls(samples, monkeypatch):
    """Row t is the one-matrix call on row t bit for bit, in every chunking of
    the stack and at every step budget."""
    rng = np.random.default_rng(samples)
    trials = 8
    seeds = derive_key(samples, np.arange(trials))
    for n in range(1, 17):
        stack = np.stack([random_complex(rng, n) for _ in range(trials)])
        alone = np.array([numerical_radius_sampling_oracle(m, samples, int(s)) for m, s in zip(stack, seeds)])
        for chunk in (1, 7, trials):
            parts = [
                numerical_radius_sampling_oracle(stack[i : i + chunk], samples, seeds[i : i + chunk])
                for i in range(0, trials, chunk)
            ]
            assert np.array_equal(np.concatenate(parts), alone), (n, chunk)
        # The chunkings above already step 10000 samples 32 to 4096 at a time;
        # steps of two would take 5000 numpy rounds per call.
        for budget in (1, 100, 10**6) if samples <= 512 else (10**6,):
            monkeypatch.setattr(radius_module, "_ORACLE_STEP_ENTRIES", budget)
            assert np.array_equal(numerical_radius_sampling_oracle(stack, samples, seeds), alone), (n, budget)
        monkeypatch.undo()


TABLE_DIMS = (1, 2, 3, 4, 5, 8, 16, 33, 64)
TABLE_SEEDS = (0, 7, 2**63 + 5)


def table_sample_counts(n: int, trials: int) -> list[int]:
    """1, 2, 10000 and the step size +-1 and +2 at this stack size, where the
    no-lone-last-sample rule changes the step partition."""
    step = max(2, radius_module._ORACLE_STEP_ENTRIES // (trials * n))
    return sorted({1, 2, step - 1, step, step + 1, step + 2, 10000})


def streamed(stack, samples, seed):
    """The oracle through the streamed path: the seed as a per-trial array."""
    return numerical_radius_sampling_oracle(stack, samples, np.full(len(stack), seed % 2**64, dtype=np.uint64))


@pytest.fixture
def fresh_table(monkeypatch):
    """No seed table at the start, and none left behind for other tests."""
    monkeypatch.setattr(radius_module, "_table", None)


def test_seed_table_equals_the_streamed_path_bit_for_bit(fresh_table):
    """A scalar seed reads its draws from the process's table; every result
    equals the streamed path's, one matrix or a stack sharing the seed, with
    the seeds called alternately so that the table is rebuilt between them."""
    rng = np.random.default_rng(2024)
    for n in TABLE_DIMS:
        one, stack = random_complex(rng, n), np.stack([random_complex(rng, n) for _ in range(3)])
        for samples in table_sample_counts(n, 1) + table_sample_counts(n, 3):
            for seed in TABLE_SEEDS:
                assert numerical_radius_sampling_oracle(one, samples, seed) == streamed(one[None], samples, seed)[0]
                assert np.array_equal(numerical_radius_sampling_oracle(stack, samples, seed), streamed(stack, samples, seed))


@pytest.mark.parametrize("dims", [(16, 2, 4), (2, 4, 16)], ids=["shrinking", "growing"])
def test_seed_table_serves_every_dim_as_a_prefix(dims, fresh_table):
    """Sample j at dim n is entries [jn, (j+1)n) of the seed's sequence: a
    table built for one dim serves a smaller one as a prefix, and a larger
    one rebuilds it, in either order."""
    rng = np.random.default_rng(dims[0])
    matrices = {n: random_complex(rng, n) for n in dims}
    expected = {n: streamed(matrices[n][None], 10000, 0)[0] for n in dims}
    for n in dims:
        assert numerical_radius_sampling_oracle(matrices[n], 10000, 0) == expected[n]
        assert len(radius_module._table[1]) == 10000 * max(dims[: dims.index(n) + 1])
    for n in dims:  # now all from the largest table
        assert numerical_radius_sampling_oracle(matrices[n], 10000, 0) == expected[n]


def test_the_process_holds_one_read_only_table_within_the_cap(fresh_table):
    rng = np.random.default_rng(5)
    mat = random_complex(rng, 4)
    numerical_radius_sampling_oracle(mat, 100, 7)
    seed, table = radius_module._table
    assert (seed, len(table)) == (7, 400)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 0.0
    first = weakref.ref(table)
    del table
    numerical_radius_sampling_oracle(mat, 100, 0)  # another seed drops the first table
    assert first() is None and radius_module._table[0] == 0
    second = weakref.ref(radius_module._table[1])
    numerical_radius_sampling_oracle(mat, 1000, 0)  # a longer request drops it too
    assert second() is None and len(radius_module._table[1]) == 4000
    assert radius_module.ORACLE_TABLE_ENTRIES == ORACLE_CHECK_SAMPLES * MAX_DIM == 640_000
    # The largest check-mode request fills the cap exactly, in 16 bytes an entry.
    numerical_radius_sampling_oracle(random_complex(rng, MAX_DIM), ORACLE_CHECK_SAMPLES, 0)
    assert radius_module._table[1].nbytes == 10_240_000


def test_a_request_above_the_cap_builds_no_table(fresh_table, monkeypatch):
    """Above the cap the oracle streams in steps as the seed-array path does,
    and leaves the table as it was."""
    monkeypatch.setattr(radius_module, "ORACLE_TABLE_ENTRIES", 1000)
    rng = np.random.default_rng(6)
    mat = random_complex(rng, 8)
    assert numerical_radius_sampling_oracle(mat, 126, 3) == streamed(mat[None], 126, 3)[0]
    assert radius_module._table is None
    numerical_radius_sampling_oracle(mat, 125, 3)
    kept = radius_module._table[1]
    assert numerical_radius_sampling_oracle(mat, 4000, 3) == streamed(mat[None], 4000, 3)[0]
    assert radius_module._table[1] is kept


def test_threads_sharing_the_table_get_the_streamed_results(fresh_table):
    """More threads than cores, switching often, each alternating seeds and
    dims so that the table is replaced while the others read it: every call
    still returns the streamed value."""
    rng = np.random.default_rng(8)
    cases = [(random_complex(rng, n), seed) for n in (16, 2, 4) for seed in (0, 7)]
    expected = [streamed(mat[None], 2000, seed)[0] for mat, seed in cases]
    start = threading.Barrier(4)

    def run(shift):
        start.wait(timeout=60)
        order = [(i + shift) % len(cases) for i in range(len(cases))] * 3
        return [(i, numerical_radius_sampling_oracle(cases[i][0], 2000, cases[i][1])) for i in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run, shift) for shift in range(4)]
            results = [future.result(timeout=300) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert [len(result) for result in results] == [3 * len(cases)] * 4
    assert all(value == expected[i] for result in results for i, value in result)


def test_sampling_oracle_agrees_with_einsum_reference():
    """Within 1e-15 of ||T||: the rounding of a quadratic form scales with T,
    not with the form, and one sample's form can sit far below ||T||."""
    rng = np.random.default_rng(23)
    cases = [np.zeros((3, 3)), 2.5 * np.eye(4), (0.3 - 1.1j) * np.eye(2), SHIFT]
    cases += [random_complex(rng, n) for n in range(1, 17)]
    for t in cases:
        scale = operator_norm(t)
        for samples in (1, 513, 10000):
            for seed in (0, 77, -5):
                new = numerical_radius_sampling_oracle(t, samples, seed)
                assert abs(new - einsum_sampling_oracle(t, samples, seed)) <= 1e-15 * scale
                if scale == 0.0:
                    assert new == 0.0


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
    for samples in (2.5, True, "8", None):
        with pytest.raises(InvalidInput, match="^samples must be an integer$"):
            numerical_radius_sampling_oracle(SHIFT, samples, 0)
    for seed in (1.5, True, "1", np.array([1.0, 2.0]), np.array([True, False])):
        with pytest.raises(InvalidInput, match="^seed must be an integer$"):
            numerical_radius_sampling_oracle(np.stack([SHIFT, SHIFT]), 8, seed)
    numpy_integers = numerical_radius_sampling_oracle(SHIFT, np.int64(8), np.uint64(3))
    assert numpy_integers == numerical_radius_sampling_oracle(SHIFT, 8, 3)


# ---------------------------------------------------------------------------
# closed-form radii: the stacked call and the one-matrix call against exact values

ORACLE_DIMS = [2, 3, 5, 8, 16, 32]
ORACLE_TRIALS = 3
# omega is a lower bound on w(T) only up to rounding: over 6,000 draws of each
# construction below at dims 2-32 it exceeded the closed form by at most 8.8
# eps relative (T^2 = 0; J_n 1.6, uv* 5.5, normal 5.4).  The allowance is 4x
# that worst case taken as 9 eps; it is not to be loosened.
OVERSHOOT_EPS = 36


def haar_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def jordan_block(rng, n):
    """J_n, ones on the superdiagonal: w = cos(pi/(n+1)) (Haagerup and de la Harpe, 1992)."""
    return np.eye(n, k=1, dtype=complex), math.cos(math.pi / (n + 1))


def rank_one(rng, n):
    """uv*: w = (|<u, v>| + ||u|| ||v||)/2."""
    u, v = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
    return np.outer(u, v.conj()), (abs(np.vdot(v, u)) + np.linalg.norm(u) * np.linalg.norm(v)) / 2.0


def square_zero(rng, n):
    """T with T^2 = 0, a block [[0, B], [0, 0]] moved by a unitary: w = ||T||/2."""
    k = n // 2
    block = np.zeros((n, n), dtype=complex)
    block[:k, k:] = random_complex(rng, n)[:k, k:]
    u = haar_unitary(rng, n)
    return u @ block @ u.conj().T, np.linalg.svd(block, compute_uv=False)[0] / 2.0


def normal(rng, n):
    """U diag(lambda) U*: w is the spectral radius max|lambda|."""
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    u = haar_unitary(rng, n)
    return (u * values) @ u.conj().T, np.abs(values).max()


@pytest.mark.parametrize("n", ORACLE_DIMS)
@pytest.mark.parametrize("construction", [jordan_block, rank_one, square_zero, normal])
def test_radius_matches_closed_form_values(construction, n):
    rng = np.random.default_rng(n)
    cases = [construction(rng, n) for _ in range(ORACLE_TRIALS)]
    stack, exact = np.stack([m for m, _ in cases]), np.array([w for _, w in cases])
    stacked = numerical_radius(stack)
    alone = [numerical_radius(m) for m, _ in cases]
    # For normal T, omega = ||T||, so no level certifies and upper is the SVD
    # norm, which can sit a few ulps below: 1.2e-15 relative at worst on 280
    # such draws at n <= 32.  Every other upper is a certified level.
    floor = exact * (1.0 - 1e-14) if construction is normal else exact
    for omega, upper in [(stacked.omega, stacked.upper), ([r.omega for r in alone], [r.upper for r in alone])]:
        assert np.abs(np.asarray(omega) - exact).max() <= 1e-14 * exact.max()
        assert (np.asarray(omega) <= exact * (1.0 + OVERSHOOT_EPS * np.finfo(float).eps)).all()
        assert (np.asarray(upper) >= floor).all()
        assert (np.asarray(upper) >= np.asarray(omega)).all()
