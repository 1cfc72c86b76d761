"""Seeded random vectors and structured operator families.

Every draw is a pure function of (family, dim, master_seed, trial_index).
A per-trial stream key is derived by avalanche-mixing the master seed with
the trial counter (see :mod:`ineqlab.prng`), so trials can be generated in
any order or concurrently and still agree bit for bit with a serial run.

Draw order within a family is pinned and documented on each builder, because
changing it silently changes every sampled instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .prng import Stream, derive_key

FAMILIES = (
    "ginibre",
    "hermitian",
    "psd",
    "positive_contraction",
    "projection",
    "unitary",
    "unit_vector",
)

MAX_DIM = 64


@dataclass(frozen=True)
class EnsembleConfig:
    """One sampling plan: a family, a dimension, a master seed, and how many
    trials the plan covers."""

    family: str
    dim: int
    master_seed: int
    trials: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidInput(
                f"unknown ensemble family {self.family!r}; expected one of {', '.join(FAMILIES)}"
            )
        if not (1 <= self.dim <= MAX_DIM):
            raise InvalidInput(f"dim must lie in [1, {MAX_DIM}], got {self.dim}")
        if self.trials < 1:
            raise InvalidInput(f"trials must be at least 1, got {self.trials}")
        # Stream keys reduce the seed mod 2^64, so -1 would alias 2^64 - 1.
        if not (0 <= self.master_seed < 2**64):
            raise InvalidInput(f"master seed must lie in [0, 2^64), got {self.master_seed}")


def trial_stream(cfg: EnsembleConfig, trial_index: int) -> Stream:
    """Fresh generator for one trial; rejects out-of-range indices."""
    if not (0 <= trial_index < cfg.trials):
        raise InvalidInput(
            f"trial_index {trial_index} outside [0, {cfg.trials}) for this config"
        )
    return Stream(derive_key(cfg.master_seed, trial_index))


def draw_ginibre(stream: Stream, dim: int) -> np.ndarray:
    """dim^2 i.i.d. standard complex Gaussians, filled row-major."""
    return stream.complex_gaussians(dim * dim).reshape(dim, dim)


def draw_hermitian(stream: Stream, dim: int) -> np.ndarray:
    """Hermitian part of one Ginibre draw."""
    g = draw_ginibre(stream, dim)
    return 0.5 * (g + g.conj().T)


def draw_psd(stream: Stream, dim: int) -> np.ndarray:
    """PSD matrix with spectral norm in (0, 2].

    Order: dim^2 Gaussians for G, then one uniform.  G* G is normalized to
    unit spectral norm and rescaled by 2u with u drawn from the open interval
    (0, 1], so the result is never the zero operator.
    """
    g = draw_ginibre(stream, dim)
    w = g.conj().T @ g
    w = 0.5 * (w + w.conj().T)
    top = float(np.linalg.eigvalsh(w)[-1])
    scale = 2.0 * float(stream.uniforms_open(1)[0])
    return w * (scale / top)


def draw_unitary(stream: Stream, dim: int) -> np.ndarray:
    """Haar-style unitary: QR of a Ginibre draw with the R diagonal's phases
    pushed into Q so the factorization is unambiguous."""
    g = draw_ginibre(stream, dim)
    q, r = np.linalg.qr(g)
    d = np.diag(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def draw_positive_contraction(stream: Stream, dim: int) -> np.ndarray:
    """V diag(u) V* with u uniform in [0,1): order is dim^2 Gaussians for the
    unitary V, then dim uniforms for the spectrum."""
    v = draw_unitary(stream, dim)
    u = stream.uniforms(dim)
    m = (v * u) @ v.conj().T
    return 0.5 * (m + m.conj().T)


def draw_projection(stream: Stream, dim: int) -> np.ndarray:
    """V diag(bits) V*: order is dim^2 Gaussians for V, then dim uniforms
    thresholded at 1/2 for the 0/1 pattern.  Rank 0 and rank dim can occur."""
    v = draw_unitary(stream, dim)
    bits = (stream.uniforms(dim) < 0.5).astype(np.float64)
    m = (v * bits) @ v.conj().T
    return 0.5 * (m + m.conj().T)


def draw_unit_vector(stream: Stream, dim: int) -> np.ndarray:
    """Normalized complex Gaussian vector (dim draws)."""
    vec = stream.complex_gaussians(dim)
    length = float(np.linalg.norm(vec))
    if length == 0.0:
        vec = np.zeros(dim, dtype=np.complex128)
        vec[0] = 1.0
        return vec
    return vec / length


_BUILDERS = {
    "ginibre": draw_ginibre,
    "hermitian": draw_hermitian,
    "psd": draw_psd,
    "positive_contraction": draw_positive_contraction,
    "projection": draw_projection,
    "unitary": draw_unitary,
    "unit_vector": draw_unit_vector,
}


def draw(family: str, stream: Stream, dim: int) -> np.ndarray:
    """Dispatch one draw of the named family on an existing stream."""
    try:
        builder = _BUILDERS[family]
    except KeyError:
        raise InvalidInput(
            f"unknown ensemble family {family!r}; expected one of {', '.join(FAMILIES)}"
        ) from None
    return builder(stream, dim)
