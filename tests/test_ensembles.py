"""Ensemble families: determinism, constructed-class membership, validation."""

import numpy as np
import pytest

from ineqlab.ensembles import (
    FAMILIES,
    EnsembleConfig,
    draw,
    trial_stream,
)
from ineqlab.errors import InvalidInput
from ineqlab.linalg import is_positive_contraction


def test_config_validation():
    with pytest.raises(InvalidInput):
        EnsembleConfig(family="laplace", dim=4, master_seed=0, trials=10)
    with pytest.raises(InvalidInput):
        EnsembleConfig(family="ginibre", dim=0, master_seed=0, trials=10)
    with pytest.raises(InvalidInput):
        EnsembleConfig(family="ginibre", dim=65, master_seed=0, trials=10)
    with pytest.raises(InvalidInput):
        EnsembleConfig(family="ginibre", dim=4, master_seed=0, trials=0)
    # Integers only, checked before the family: each of these reached run_suite.
    for key, args in (
        ("dim", ("ginibre", 4.0, 0, 10)),
        ("trials", ("ginibre", 4, 0, 10.0)),
        ("seed", ("ginibre", 4, 1.5, 10)),
        ("dim", ("laplace", True, 0, 10)),
    ):
        with pytest.raises(InvalidInput, match=rf"^{key} must be an integer$"):
            EnsembleConfig(*args)
    # Numpy integers are read as Python ints: an int64 seed broke the key mix.
    cfg = EnsembleConfig("ginibre", np.int64(4), np.int64(7), np.int32(10))
    assert cfg == EnsembleConfig("ginibre", 4, 7, 10)
    assert all(type(value) is int for value in (cfg.dim, cfg.master_seed, cfg.trials))
    assert draw("ginibre", trial_stream(cfg, 3), cfg.dim).shape == (4, 4)


def test_trial_index_range_enforced():
    cfg = EnsembleConfig(family="ginibre", dim=3, master_seed=1, trials=5)
    with pytest.raises(InvalidInput):
        trial_stream(cfg, 5)
    with pytest.raises(InvalidInput):
        trial_stream(cfg, -1)
    for index in (1.5, True, np.float64(1.0), np.array([0.0, 1.5]), np.array([True, False]), "1"):
        with pytest.raises(InvalidInput, match="^trial_index must be an integer$"):
            trial_stream(cfg, index)
    for index in (np.int64(4), np.array(4, dtype=np.uint8)):
        assert trial_stream(cfg, index).keys == trial_stream(cfg, 4).keys
    assert (trial_stream(cfg, np.arange(5, dtype=np.uint64)).keys == trial_stream(cfg, np.arange(5)).keys).all()


def test_bitwise_reproducibility():
    cfg = EnsembleConfig(family="hermitian", dim=6, master_seed=123456, trials=10)
    for t in (0, 3, 9):
        first = draw(cfg.family, trial_stream(cfg, t), cfg.dim)
        assert np.array_equal(first, draw(cfg.family, trial_stream(cfg, t), cfg.dim))


def test_trials_are_order_independent():
    cfg = EnsembleConfig(family="ginibre", dim=4, master_seed=7, trials=10)
    direct = draw(cfg.family, trial_stream(cfg, 7), cfg.dim)
    # Drawing other trials first must not affect trial 7.
    for t in (2, 9, 0):
        draw(cfg.family, trial_stream(cfg, t), cfg.dim)
    assert np.array_equal(direct, draw(cfg.family, trial_stream(cfg, 7), cfg.dim))


def test_different_trials_and_seeds_differ():
    cfg = EnsembleConfig(family="ginibre", dim=4, master_seed=7, trials=10)
    other = EnsembleConfig(family="ginibre", dim=4, master_seed=8, trials=10)
    base = draw("ginibre", trial_stream(cfg, 0), 4)
    assert not np.array_equal(base, draw("ginibre", trial_stream(cfg, 1), 4))
    assert not np.array_equal(base, draw("ginibre", trial_stream(other, 0), 4))


def test_family_membership_properties():
    for dim in (1, 2, 5, 16):
        cfg_seed = 1000 + dim
        for t in range(8):
            stream = trial_stream(
                EnsembleConfig(family="ginibre", dim=dim, master_seed=cfg_seed, trials=8), t
            )
            herm = draw("hermitian", stream, dim)
            assert np.max(np.abs(herm - herm.conj().T)) < 1e-14

            psd = draw("psd", stream, dim)
            vals = np.linalg.eigvalsh(psd)
            assert vals[0] >= -1e-12
            assert 0.0 < vals[-1] <= 2.0 + 1e-12

            contraction = draw("positive_contraction", stream, dim)
            assert is_positive_contraction(contraction, tol=1e-10)

            proj = draw("projection", stream, dim)
            assert np.max(np.abs(proj @ proj - proj)) < 1e-10
            assert np.max(np.abs(proj - proj.conj().T)) < 1e-10

            unitary = draw("unitary", stream, dim)
            assert np.max(np.abs(unitary.conj().T @ unitary - np.eye(dim))) < 1e-10

            vec = draw("unit_vector", stream, dim)
            assert vec.shape == (dim,)
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_ginibre_moments():
    cfg = EnsembleConfig(family="ginibre", dim=16, master_seed=55, trials=60)
    entries = np.concatenate(
        [draw("ginibre", trial_stream(cfg, t), 16).ravel() for t in range(cfg.trials)]
    )
    assert abs(entries.mean()) < 0.02
    assert abs(np.mean(np.abs(entries) ** 2) - 1.0) < 0.02


def test_projection_hits_both_ranks_eventually():
    cfg = EnsembleConfig(family="projection", dim=4, master_seed=3, trials=64)
    projections = (draw("projection", trial_stream(cfg, t), 4) for t in range(cfg.trials))
    ranks = {int(round(np.real(np.trace(p)))) for p in projections}
    assert len(ranks) >= 3


def test_draw_rejects_unknown_family():
    cfg = EnsembleConfig(family="ginibre", dim=2, master_seed=0, trials=1)
    stream = trial_stream(cfg, 0)
    with pytest.raises(InvalidInput):
        draw("cauchy", stream, 2)
    assert set(FAMILIES) == {
        "ginibre",
        "hermitian",
        "psd",
        "positive_contraction",
        "projection",
        "unitary",
        "unit_vector",
    }


@pytest.mark.parametrize("family", (["psd"], "nope"))
def test_draw_rejects_a_non_family_with_the_config_message(family):
    stream = trial_stream(EnsembleConfig(family="ginibre", dim=2, master_seed=0, trials=1), 0)
    with pytest.raises(InvalidInput) as from_config:
        EnsembleConfig(family=family, dim=2, master_seed=0, trials=1)
    with pytest.raises(InvalidInput) as from_draw:
        draw(family, stream, 2)
    assert str(from_draw.value) == str(from_config.value)
    assert str(from_draw.value) == f"unknown ensemble family {family!r}; expected one of {', '.join(FAMILIES)}"


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("dim", (1, 2, 3, 16, 17, 64))
def test_batched_draws_match_per_trial_draws(family, dim):
    # One stream over a chunk of trial keys draws every trial at once; row t
    # must equal the one-trial draw bit for bit.
    cfg = EnsembleConfig(family=family, dim=dim, master_seed=dim * 1009 + 3, trials=6)
    stacked = draw(family, trial_stream(cfg, np.arange(6)), dim)
    assert stacked.shape[0] == 6
    for t in range(6):
        assert stacked[t].tobytes() == draw(family, trial_stream(cfg, t), dim).tobytes()
