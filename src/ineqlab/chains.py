"""Chain-of-terms result type and the shared tolerance policy.

Every inequality checker in this package reduces to the same shape: an
ordered list of real terms that is claimed to be nondecreasing.  The chain
verdict lives here so that each checker only has to compute its terms.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from numbers import Real
from typing import Sequence

import numpy as np

from .errors import InvalidInput


# Largest accepted tolerance: far above the shipped 1e-12/1e-9/1e-8, far
# below the -1/2 slack of the remark-3.6 counterexample.  A larger or
# non-finite value would let every chain pass vacuously.
MAX_TOLERANCE = 1e-3


@dataclass(frozen=True)
class ToleranceConfig:
    """Slack tolerance: a chain passes when every consecutive difference is
    at least -(eps_abs + eps_rel * max|term|).

    ``eps_rel_omega`` replaces ``eps_rel`` for chains whose terms include a
    numerical radius, since those values carry the sweep's own convergence
    error on top of roundoff.  Every value must be a real number (not a
    bool or a string) in (0, MAX_TOLERANCE].
    """

    eps_abs: float = 1e-12
    eps_rel: float = 1e-9
    eps_rel_omega: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, Real) or not 0.0 < value <= MAX_TOLERANCE:
                raise InvalidInput(
                    f"tolerance {f.name} must be a number in (0, {MAX_TOLERANCE:g}], got {value!r}"
                )

    def slack_floor(self, terms: Sequence[float], omega_grade: bool) -> float:
        rel = self.eps_rel_omega if omega_grade else self.eps_rel
        scale = max((abs(t) for t in terms), default=0.0)
        return self.eps_abs + rel * scale


DEFAULT_TOLERANCE = ToleranceConfig()


@dataclass
class ChainResult:
    """Evaluated inequality chain.

    ``terms`` is the ordered list of (label, value) pairs; ``slacks[k]`` is
    ``terms[k+1] - terms[k]`` so the chain holds when every slack is
    nonnegative up to ``tolerance_used``.
    """

    check_name: str
    terms: list[tuple[str, float]]
    slacks: list[float]
    passed: bool
    tolerance_used: float

    @property
    def min_slack(self) -> float:
        return min(self.slacks)

    @property
    def values(self) -> list[float]:
        return [value for _, value in self.terms]

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "terms": [{"label": label, "value": value} for label, value in self.terms],
            "slacks": list(self.slacks),
            "passed": self.passed,
            "tolerance_used": self.tolerance_used,
        }


def make_chain(
    check_name: str,
    terms: Sequence[tuple[str, float]],
    tolerance: ToleranceConfig | None = None,
    omega_grade: bool = False,
) -> ChainResult:
    """Assemble a ChainResult from labeled term values.

    Values must be finite reals; at least two terms are required for the
    slack list to be meaningful.
    """
    if len(terms) < 2:
        raise InvalidInput(f"{check_name}: a chain needs at least two terms")
    values = []
    for label, value in terms:
        value = float(value)
        if not np.isfinite(value):
            raise InvalidInput(f"{check_name}: term {label!r} is not finite")
        values.append(value)
    tol = tolerance if tolerance is not None else DEFAULT_TOLERANCE
    floor = tol.slack_floor(values, omega_grade)
    slacks = [values[k + 1] - values[k] for k in range(len(values) - 1)]
    passed = all(s >= -floor for s in slacks)
    return ChainResult(
        check_name=check_name,
        terms=[(label, float(value)) for label, value in terms],
        slacks=slacks,
        passed=passed,
        tolerance_used=floor,
    )


@dataclass
class AngleResult:
    """The two angle notions between nonzero vectors.

    ``psi`` ignores the phase of the inner product (uses its modulus), so it
    lives in [0, pi/2]; ``phi`` keeps the real part and lives in [0, pi].
    Cosines are clamped to the valid interval before taking arccos.
    """

    cos_psi: float
    psi: float
    cos_phi: float
    phi: float
