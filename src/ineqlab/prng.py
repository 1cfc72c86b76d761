"""Counter-based pseudo-random stream used by the ensembles and the sampling oracle.

The generator is a splitmix64 counter sequence: output ``i`` of a stream with
key ``k`` is ``mix64(k + (i+1)*GAMMA)`` where ``mix64`` is the standard
splitmix64 avalanche finalizer.  Because each output is a pure function of
``(key, counter)``, blocks of draws can be produced with vectorized uint64
arithmetic and any draw can be regenerated without replaying the stream.
Gaussians come from the polar form of Box-Muller, so no platform library
distribution is involved anywhere.

A stream may hold one key per trial of a chunk: ``raw(count)`` then returns
a ``(trials, count)`` block from one vectorized call, whose row t is exactly
what trial t's key alone gives.

Pinned constants:

* ``GAMMA  = 0x9E3779B97F4A7C15``  (2^64 / golden ratio, counter increment)
* ``MIX_1  = 0xBF58476D1CE4E5B9``, ``MIX_2 = 0x94D049BB133111EB`` with shift
  pattern 30/27/31 (splitmix64 finalizer)

Changing any of these changes every sampled ensemble, so they are frozen.
"""

from __future__ import annotations

import numpy as np

GAMMA = 0x9E3779B97F4A7C15
MIX_1 = 0xBF58476D1CE4E5B9
MIX_2 = 0x94D049BB133111EB
_MASK = 0xFFFFFFFFFFFFFFFF

_U64_GAMMA = np.uint64(GAMMA)
_U64_MIX_1 = np.uint64(MIX_1)
_U64_MIX_2 = np.uint64(MIX_2)
_TWO_NEG_53 = float(2.0 ** -53)


def mix64(value):
    """Splitmix64 avalanche finalizer on a Python int (mod 2^64), or on each
    entry of a uint64 array."""
    if isinstance(value, np.ndarray):
        return _mix64_array(value)
    return int(_mix64_array(np.array([value & _MASK], dtype=np.uint64))[0])


def derive_key(master_seed: int, index):
    """Per-trial stream key: avalanche of the seed advanced by the trial
    counter; an index array gives a uint64 key per trial."""
    if not isinstance(index, np.ndarray):
        return mix64((master_seed + (int(index) + 1) * GAMMA) & _MASK)
    counters = np.asarray(index, dtype=np.uint64) + np.uint64(1)
    return _mix64_array(np.uint64(master_seed & _MASK) + counters * _U64_GAMMA)


def _mix64_array(states: np.ndarray) -> np.ndarray:
    z = states
    z = (z ^ (z >> np.uint64(30))) * _U64_MIX_1
    z = (z ^ (z >> np.uint64(27))) * _U64_MIX_2
    return z ^ (z >> np.uint64(31))


class Stream:
    """Sequential view over the counter-based generator for one key, or for
    an array of per-trial keys (``batched``) advancing together; draws have
    shape ``(count,)`` or ``(trials, count)``.

    Draw order is part of every consumer's determinism contract: callers must
    request values in a fixed order.
    """

    def __init__(self, key):
        self.keys = np.asarray(key if isinstance(key, np.ndarray) else key & _MASK, dtype=np.uint64)
        self.batched = self.keys.ndim == 1
        self._cursor = 0

    def raw(self, count: int) -> np.ndarray:
        """Next ``count`` uint64 outputs of every key."""
        start = self._cursor
        self._cursor += count
        counters = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        return _mix64_array(self.keys[..., None] + counters * _U64_GAMMA)

    def uniforms(self, count: int) -> np.ndarray:
        """Uniform float64 in [0, 1), 53-bit resolution."""
        return (self.raw(count) >> np.uint64(11)).astype(np.float64) * _TWO_NEG_53

    def uniforms_open(self, count: int) -> np.ndarray:
        """Uniform float64 in (0, 1]; safe as a log argument."""
        bits = (self.raw(count) >> np.uint64(11)).astype(np.float64)
        return (bits + 1.0) * _TWO_NEG_53

    def complex_gaussians(self, count: int) -> np.ndarray:
        """i.i.d. standard complex normal draws (E|z|^2 = 1).

        Polar Box-Muller: |z|^2 ~ Exp(1) via -log(u1), phase uniform via u2.
        Consumes two uint64 draws per value, interleaved (u1_0, u2_0, u1_1, ...).
        """
        raw = self.raw(2 * count)
        u1 = ((raw[..., 0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _TWO_NEG_53
        u2 = (raw[..., 1::2] >> np.uint64(11)).astype(np.float64) * _TWO_NEG_53
        radius = np.sqrt(-np.log(u1))
        return radius * np.exp(2j * np.pi * u2)
