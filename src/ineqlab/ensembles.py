"""Seeded random vectors and structured operator families.

Every draw is a pure function of (family, dim, master_seed, trial_index).
A per-trial stream key is derived by avalanche-mixing the master seed with
the trial counter (see :mod:`ineqlab.prng`), so trials can be generated in
any order or concurrently and still agree bit for bit with a serial run.
A stream over many trial keys draws them all at once: every builder stacks
one draw per key on a leading axis, and a single draw is a batch of one.

Draw order within a family is pinned and documented on each builder, because
changing it silently changes every sampled instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .linalg import adjoint, hermitian_part, row_norms, spectral
from .prng import Stream, derive_key

MAX_DIM = 64


def as_integer(value, name: str) -> int:
    """The package's integer rule: an int or numpy integer, as an int; a bool, a float or a string raises."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInput(f"{name} must be an integer")
    return int(value)  # a numpy integer breaks the seed mix and the JSON report


def as_integers(value, name: str):
    """:func:`as_integer` of one value, or an ndarray of an integer dtype as it is (0-d: its one int)."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iu":
        return value if value.ndim else int(value)
    return as_integer(value, name)


@dataclass(frozen=True)
class EnsembleConfig:
    """One sampling plan: a family, a dimension, a master seed, and how many
    trials the plan covers."""

    family: str
    dim: int
    master_seed: int
    trials: int

    def __post_init__(self):
        for key, attr in (("dim", "dim"), ("trials", "trials"), ("seed", "master_seed")):
            object.__setattr__(self, attr, as_integer(getattr(self, attr), key))
        _require_family(self.family)
        if not (1 <= self.dim <= MAX_DIM):
            raise InvalidInput(f"dim must lie in [1, {MAX_DIM}], got {self.dim}")
        if self.trials < 1:
            raise InvalidInput(f"trials must be at least 1, got {self.trials}")
        # Stream keys reduce the seed mod 2^64, so -1 would alias 2^64 - 1.
        if not (0 <= self.master_seed < 2**64):
            raise InvalidInput(f"master seed must lie in [0, 2^64), got {self.master_seed}")


def trial_stream(cfg: EnsembleConfig, trial_index) -> Stream:
    """Fresh generator for one trial, or for an array of trials (one key
    each, see :class:`ineqlab.prng.Stream`); rejects out-of-range indices."""
    trial_index = as_integers(trial_index, "trial_index")
    indices = trial_index if isinstance(trial_index, np.ndarray) else [trial_index]
    if not all(0 <= index < cfg.trials for index in indices):
        raise InvalidInput(
            f"trial_index {trial_index} outside [0, {cfg.trials}) for this config"
        )
    return Stream(derive_key(cfg.master_seed, trial_index))


def draw_ginibre(stream: Stream, dim: int) -> np.ndarray:
    """dim^2 i.i.d. standard complex Gaussians, filled row-major."""
    return stream.complex_gaussians(dim * dim).reshape(-1, dim, dim)


def draw_hermitian(stream: Stream, dim: int) -> np.ndarray:
    """Hermitian part of one Ginibre draw."""
    return hermitian_part(draw_ginibre(stream, dim))


def draw_psd(stream: Stream, dim: int) -> np.ndarray:
    """PSD matrix with spectral norm in (0, 2].

    Order: dim^2 Gaussians for G, then one uniform.  G* G is normalized to
    unit spectral norm and rescaled by 2u with u drawn from the open interval
    (0, 1], so the result is never the zero operator.
    """
    g = draw_ginibre(stream, dim)
    w = hermitian_part(adjoint(g) @ g)
    top = np.linalg.eigvalsh(w)[:, -1]
    scale = 2.0 * stream.uniforms_open(1).reshape(-1)
    return w * (scale / top)[:, None, None]


def draw_unitary(stream: Stream, dim: int) -> np.ndarray:
    """Haar-style unitary: QR of a Ginibre draw with the R diagonal's phases
    pushed into Q so the factorization is unambiguous."""
    g = draw_ginibre(stream, dim)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[:, None, :]


def draw_positive_contraction(stream: Stream, dim: int) -> np.ndarray:
    """V diag(u) V* with u uniform in [0,1): order is dim^2 Gaussians for the
    unitary V, then dim uniforms for the spectrum."""
    v = draw_unitary(stream, dim)
    return spectral(v, stream.uniforms(dim))


def draw_projection(stream: Stream, dim: int) -> np.ndarray:
    """V diag(bits) V*: order is dim^2 Gaussians for V, then dim uniforms
    thresholded at 1/2 for the 0/1 pattern.  Rank 0 and rank dim can occur."""
    v = draw_unitary(stream, dim)
    return spectral(v, (stream.uniforms(dim) < 0.5).astype(np.float64))


def draw_unit_vector(stream: Stream, dim: int) -> np.ndarray:
    """Normalized complex Gaussian vector (dim draws); e_1 if all are zero."""
    vec = stream.complex_gaussians(dim).reshape(-1, dim)
    length = row_norms(vec)
    if not length.all():
        vec[length == 0.0], length[length == 0.0] = np.eye(1, dim), 1.0
    return vec / length[:, None]


_BUILDERS = {
    "ginibre": draw_ginibre,
    "hermitian": draw_hermitian,
    "psd": draw_psd,
    "positive_contraction": draw_positive_contraction,
    "projection": draw_projection,
    "unitary": draw_unitary,
    "unit_vector": draw_unit_vector,
}
FAMILIES = tuple(_BUILDERS)


def _require_family(family) -> None:
    """Reject all but a family name (a tuple test, so unhashable values too)."""
    if family not in FAMILIES:
        raise InvalidInput(f"unknown ensemble family {family!r}; expected one of {', '.join(FAMILIES)}")


def draw(family: str, stream: Stream, dim: int) -> np.ndarray:
    """Dispatch one draw of the named family on an existing stream: one array
    for a one-key stream, a stack with one row per key for a batched one."""
    _require_family(family)
    drawn = _BUILDERS[family](stream, dim)
    return drawn if stream.batched else drawn[0]
