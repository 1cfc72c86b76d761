"""Metamorphic tests over the whole registry: a chain's terms do not change
when its inputs are moved by a unitary similarity (x -> Ux, A -> UAU*), nor
when its vector inputs take a global phase, one phase shared by all of them
or one of its own each.  Every row of ``REGISTRY`` is covered, so a new
suite is guarded without edits here."""

import numpy as np
import pytest

from ineqlab.chains import ToleranceConfig
from ineqlab.ensembles import EnsembleConfig, draw, trial_stream
from ineqlab.harness import REGISTRY
from ineqlab.linalg import adjoint, matvec

TRIALS = 8
SEED = 29
# Relative to max|term| of the trial.  On these draws the worst case is
# 4.7e-15 under a similarity (power_r3, d2) and 1.5e-15 under a phase
# (theorem_gap, d2).  theorem_gap's middle term is a difference of close
# values: over 64 trials its own-phase case reaches 5.7e-14 at d2.
BOUND = 1e-13

# Rows whose terms are not a function of the drawn inputs alone.
EXEMPT = {
    # The sampled term maximizes over random unit vectors of its own seed,
    # which the similarity does not move, so it is invariant only in law.
    "omega_oracle",
    # The suite evaluates one fixed non-PSD operator, not the row's draws.
    "remark36_counterexample",
}
# Rows that are invariant only under a phase shared by all their vectors.
OWN_PHASE_EXEMPT = {
    # The grid of phases stays put while the phase of x moves against y, so
    # the grid minimum of phi(e^{i theta} x, y) moves within its pi/grid band.
    "psi_infimum",
    # phi is the angle of Re<x, y>, which a phase of x alone changes.
    "krein_triangle",
}

ROWS = [name for name in REGISTRY if name not in EXEMPT]
VECTOR_ROWS = [name for name in ROWS if "unit_vector" in REGISTRY[name].draws]


def haar_unitaries(rng, trials, dim):
    """Haar-distributed unitaries: QR of a complex Ginibre stack with the
    phases of R's diagonal moved into Q."""
    g = rng.standard_normal((trials, dim, dim)) + 1j * rng.standard_normal((trials, dim, dim))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def drawn_inputs(name, dim):
    """The row's seeded inputs in argument order, and which of them are vectors."""
    spec = REGISTRY[name]
    stream = trial_stream(EnsembleConfig(spec.family, dim, SEED, TRIALS), np.arange(TRIALS))
    inputs = spec.arranged([draw(family, stream, dim) for family in spec.draws])
    vectors = spec.arranged([family == "unit_vector" for family in spec.draws])
    return inputs, vectors


def terms(name, inputs):
    spec = REGISTRY[name]
    return spec.kernel(*inputs, tolerance=ToleranceConfig(), **spec.kwargs).values


def assert_terms_unchanged(before, after):
    scale = np.abs(before).max(axis=1, keepdims=True)
    assert (np.abs(after - before) <= BOUND * scale).all(), np.abs(after - before).max()


@pytest.mark.parametrize("dim", [2, 4, 16])
@pytest.mark.parametrize("name", ROWS)
def test_terms_are_invariant_under_a_unitary_similarity(name, dim):
    inputs, vectors = drawn_inputs(name, dim)
    u = haar_unitaries(np.random.default_rng(dim), TRIALS, dim)
    moved = [matvec(u, x) if vector else u @ x @ adjoint(u) for x, vector in zip(inputs, vectors)]
    assert_terms_unchanged(terms(name, inputs), terms(name, moved))


@pytest.mark.parametrize("dim", [2, 4, 16])
@pytest.mark.parametrize(
    "name, shared",
    [(name, True) for name in VECTOR_ROWS] + [(name, False) for name in VECTOR_ROWS if name not in OWN_PHASE_EXEMPT],
)
def test_terms_are_invariant_under_a_global_phase_on_the_vectors(name, shared, dim):
    inputs, vectors = drawn_inputs(name, dim)
    rng = np.random.default_rng(dim)
    common = np.exp(2j * np.pi * rng.random((TRIALS, 1)))

    def phase():
        return common if shared else np.exp(2j * np.pi * rng.random((TRIALS, 1)))

    moved = [x * phase() if vector else x for x, vector in zip(inputs, vectors)]
    assert_terms_unchanged(terms(name, inputs), terms(name, moved))
