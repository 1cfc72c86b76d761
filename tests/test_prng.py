"""Generator-level checks: the vectorized stream must agree with a plain
scalar splitmix64 walk, and the derived distributions must behave."""

import numpy as np

from ineqlab.prng import GAMMA, MIX_1, MIX_2, Stream, derive_key, mix64

MASK = 0xFFFFFFFFFFFFFFFF


def scalar_splitmix(seed: int, count: int) -> list[int]:
    """Independent stateful reference: advance by GAMMA, then finalize."""
    state = seed & MASK
    out = []
    for _ in range(count):
        state = (state + GAMMA) & MASK
        z = state
        z = ((z ^ (z >> 30)) * MIX_1) & MASK
        z = ((z ^ (z >> 27)) * MIX_2) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_stream_matches_scalar_reference():
    for key in (0, 1, 1234567, 0xDEADBEEFCAFEBABE):
        expected = scalar_splitmix(key, 64)
        got = Stream(key).raw(64).tolist()
        assert got == expected


def test_mix64_matches_finalizer_used_by_stream():
    # Output i of a stream is the finalizer applied to key + (i+1) * GAMMA.
    key = 987654321
    raw = Stream(key).raw(5)
    for i in range(5):
        assert int(raw[i]) == mix64(key + (i + 1) * GAMMA)


def test_stream_resumes_without_gaps():
    a = Stream(42)
    first = a.raw(7)
    second = a.raw(9)
    whole = Stream(42).raw(16)
    assert np.array_equal(np.concatenate([first, second]), whole)


def test_derive_key_separates_trials():
    keys = {derive_key(2026, t) for t in range(1000)}
    assert len(keys) == 1000
    assert derive_key(2026, 3) == derive_key(2026, 3)
    assert derive_key(2026, 3) != derive_key(2027, 3)


def test_uniform_ranges():
    u = Stream(7).uniforms(100000)
    assert u.min() >= 0.0 and u.max() < 1.0
    v = Stream(7).uniforms_open(100000)
    assert v.min() > 0.0 and v.max() <= 1.0
    # Same raw draws shifted by one quantum.
    assert np.allclose(v - Stream(7).uniforms(100000), 2.0**-53)


def test_uniform_moments():
    u = Stream(99).uniforms(200000)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_complex_gaussian_moments():
    z = Stream(5).complex_gaussians(200000)
    assert abs(z.mean()) < 0.01
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01
    # Real and imaginary parts each carry half the variance.
    assert abs(np.var(z.real) - 0.5) < 0.01
    assert abs(np.var(z.imag) - 0.5) < 0.01


def test_complex_gaussian_draw_order_is_pinned():
    # One value consumes exactly two raw draws, interleaved u1, u2.
    raw = Stream(11).raw(4)
    u1 = ((int(raw[0]) >> 11) + 1) * 2.0**-53
    u2 = (int(raw[1]) >> 11) * 2.0**-53
    expected = np.sqrt(-np.log(u1)) * np.exp(2j * np.pi * u2)
    z = Stream(11).complex_gaussians(2)
    assert z[0] == expected


def test_batched_stream_rows_match_one_key_streams():
    # A stream over an array of keys gives, in row t, exactly the block of a
    # stream holding key t alone, draw after draw.
    keys = derive_key(2026, np.arange(9))
    assert [int(k) for k in keys] == [derive_key(2026, t) for t in range(9)]
    batched = Stream(keys)
    blocks = [batched.raw(5), batched.uniforms(3), batched.complex_gaussians(4)]
    for t, key in enumerate(keys):
        alone = Stream(int(key))
        for block, row in zip(blocks, [alone.raw(5), alone.uniforms(3), alone.complex_gaussians(4)]):
            assert block.shape[0] == 9
            assert block[t].tobytes() == row.tobytes()
