"""Chain-of-terms result types, the shared tolerance policy, and the one
door into every chain.

Every inequality checker in this package reduces to the same shape: an
ordered list of real terms that is claimed to be nondecreasing.  The chain
verdict lives here, in one function over a leading trial axis
(:func:`chain_batch`), so that each checker only has to compute its terms.
Each checker is one batch kernel, on one trial's inputs or a stack of them:
an ndarray with a trial axis (2-D for a vector, 3-D for a matrix) is a
stack, and any other value is one trial's input.  :func:`kernel` gives each
its stacked and one-trial forms, and decides how every kernel is entered.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from numbers import Real
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, IneqLabError, InvalidInput


# Largest accepted tolerance: far above the shipped 1e-12/1e-9/1e-8, far
# below the -1/2 slack of the remark-3.6 counterexample.  A larger or
# non-finite value would let every chain pass vacuously.
MAX_TOLERANCE = 1e-3


@dataclass(frozen=True)
class ToleranceConfig:
    """Slack tolerance: a chain passes when every consecutive difference is
    at least -(eps_abs + eps_rel * max|term|).

    ``eps_rel_omega`` replaces ``eps_rel`` for chains whose terms include a
    numerical radius.  It is checked, not assumed: such a chain raises
    ConvergenceError unless each radius is certified, ``upper - omega <=
    eps_rel_omega * omega``.  Every value must be a real number (not a
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

    def slack_floor(self, terms, omega_grade: bool):
        """Allowed dip of one chain's terms, or per row of a (trials, terms) block."""
        rel = self.eps_rel_omega if omega_grade else self.eps_rel
        return self.eps_abs + rel * np.abs(terms).max(axis=-1, initial=0.0)


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


@dataclass
class ChainBatch:
    """One chain on many trials: row t of every array is trial t.  ``values``
    is (trials, terms) and ``slacks`` (trials, terms - 1)."""

    check_name: str
    labels: tuple[str, ...]
    values: np.ndarray
    slacks: np.ndarray
    passed: np.ndarray
    tolerance_used: np.ndarray

    def result(self, row: int | None = None) -> ChainResult:
        if row is None and len(self.values) != 1:  # a one-trial call given a stack
            raise InvalidInput(f"{self.check_name}: expected one trial's inputs, got a stack of {len(self.values)}")
        row = row or 0
        terms = list(zip(self.labels, self.values[row].tolist()))
        passed, floor = bool(self.passed[row]), float(self.tolerance_used[row])
        return ChainResult(self.check_name, terms, self.slacks[row].tolist(), passed, floor)


def chain_batch(
    check_name: str, terms: Sequence[tuple[str, np.ndarray]], tolerance: ToleranceConfig | None = None, radii=()
) -> ChainBatch:
    """The verdict on labeled terms, each an array over the trial axis.

    Values must be finite reals, and a chain needs at least two terms; the
    first term with a non-finite value raises.  ``radii`` holds the
    :class:`~ineqlab.radius.RadiusResult` (per trial) of every numerical radius
    in the terms; a chain with any is omega-grade, and the first radius not
    certified to ``eps_rel_omega`` raises.  :func:`kernel` picks the trial.
    """
    if len(terms) < 2:
        raise InvalidInput(f"{check_name}: a chain needs at least two terms")
    labels = tuple(label for label, _ in terms)
    values = np.array([value for _, value in terms], dtype=np.float64).T.reshape(-1, len(labels))
    if not (finite := np.isfinite(values).all(axis=0)).all():
        raise InvalidInput(f"{check_name}: term {labels[np.argmin(finite)]!r} is not finite")
    tol = tolerance if tolerance is not None else DEFAULT_TOLERANCE
    for r in radii:
        if (loose := ~np.ravel(r.upper - r.omega <= tol.eps_rel_omega * r.omega)).any():
            omega, upper = (float(np.ravel(v)[np.argmax(loose)]) for v in (r.omega, r.upper))
            raise ConvergenceError(
                f"{check_name}: numerical radius {omega!r} is certified only up to "
                f"{upper!r}, beyond eps_rel_omega={tol.eps_rel_omega:g}"
            )
    floor = tol.slack_floor(values, bool(radii))
    slacks = values[:, 1:] - values[:, :-1]
    passed = (slacks >= -floor[:, None]).all(axis=1)
    return ChainBatch(check_name, labels, values, slacks, passed, floor)


def _replay(body, kinds: str, args: tuple, kwargs: dict) -> None:
    """``body`` on each trial in turn of a stack call (see :func:`kernel`)."""
    lengths = {
        len(x) if isinstance(x, np.ndarray) and x.dtype.kind in "biufc" and x.ndim == {"v": 2, "m": 3}[kind] else -1
        for x, kind in zip(args, kinds)
    }
    trials = lengths.pop() if len(lengths) == 1 else -1
    for t in range(trials):
        row = [x[t] if i < len(kinds) else x for i, x in enumerate(args)]
        keywords = {k: v[t] if isinstance(v, np.ndarray) and v.shape[:1] == (trials,) else v for k, v in kwargs.items()}
        body(*row, **keywords)


# The one floating-point rule (a reentrant decorator) of every kernel, numerical_radius and angles.
door = np.errstate(over="ignore", invalid="ignore")


def kernel(body: Callable[..., ChainBatch], kinds: str) -> tuple[Callable[..., ChainBatch], Callable]:
    """The stacked kernel and the one-trial chain of a batch kernel ``body``
    whose leading positional inputs are ``kinds`` (``m`` a matrix, ``v`` a vector).

    Both run ``body`` through ``door``: overflow and invalid operations are
    silent, so a NaN shows only as the typed error of the check that meets it.
    A stack call (each named input a numeric ndarray with a trial axis, all of
    one length) that raises runs again trial by trial, keyword ndarrays of that
    length sliced too, so it raises its first failing trial's own error.  The
    chain adds :meth:`ChainBatch.result`, which rejects a stack.
    """
    quiet = door(body)

    @functools.wraps(body)
    def stacked(*args, **kwargs) -> ChainBatch:
        try:
            return quiet(*args, **kwargs)
        except IneqLabError:
            _replay(quiet, kinds, args, kwargs)
            raise

    @functools.wraps(stacked)
    def chain(*args, **kwargs) -> ChainResult:
        return stacked(*args, **kwargs).result()

    stacked.kinds, stacked.chain = kinds, chain
    return stacked, chain


make_chain = kernel(chain_batch, "")[1]


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
