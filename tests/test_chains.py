"""Chain assembly and the tolerance policy."""

import numpy as np
import pytest

from ineqlab.chains import MAX_TOLERANCE, ToleranceConfig, make_chain
from ineqlab.errors import ConvergenceError, InvalidInput
from ineqlab.radius import RadiusResult


def test_slacks_and_verdict():
    chain = make_chain("demo", [("a", 1.0), ("b", 1.5), ("c", 1.5)])
    assert chain.slacks == [0.5, 0.0]
    assert chain.passed
    assert chain.min_slack == 0.0
    assert chain.values == [1.0, 1.5, 1.5]


def test_negative_slack_within_tolerance_passes():
    tol = ToleranceConfig()
    floor = tol.slack_floor([1.0, 1.0], omega_grade=False)
    chain = make_chain("demo", [("a", 1.0), ("b", 1.0 - 0.5 * floor)], tol)
    assert chain.passed
    chain = make_chain("demo", [("a", 1.0), ("b", 1.0 - 10.0 * floor)], tol)
    assert not chain.passed


def test_tolerance_scales_with_magnitude():
    tol = ToleranceConfig()
    small = tol.slack_floor([1.0, 1.0], omega_grade=False)
    large = tol.slack_floor([1e6, 1.0], omega_grade=False)
    assert large == pytest.approx(1e6 * small, rel=1e-3)


def test_omega_grade_widens_relative_band():
    tol = ToleranceConfig()
    plain = tol.slack_floor([2.0], omega_grade=False)
    omega = tol.slack_floor([2.0], omega_grade=True)
    assert omega > plain
    assert omega == pytest.approx(tol.eps_abs + tol.eps_rel_omega * 2.0)


def radius_with_upper(omega, upper):
    return RadiusResult(omega=omega, argmax_angle=0.0, witness=np.ones(1, dtype=complex), norm=2.0, upper=upper)


def test_radii_make_chain_omega_grade_and_check_certificate():
    tol = ToleranceConfig()
    terms = [("omega", 1.0), ("norm", 2.0)]
    fitted = radius_with_upper(1.0, 1.0 + 0.5 * tol.eps_rel_omega)
    chain = make_chain("demo", terms, tol, radii=(fitted,))
    assert chain.tolerance_used == tol.slack_floor([1.0, 2.0], omega_grade=True)
    loose = radius_with_upper(1.0, 1.0 + 2.0 * tol.eps_rel_omega)
    with pytest.raises(ConvergenceError):
        make_chain("demo", terms, tol, radii=(fitted, loose))


def test_make_chain_rejects_degenerate_input():
    with pytest.raises(InvalidInput):
        make_chain("demo", [("only", 1.0)])
    with pytest.raises(InvalidInput):
        make_chain("demo", [("a", 1.0), ("b", np.nan)])


def test_to_dict_shape():
    doc = make_chain("demo", [("a", 0.0), ("b", 1.0)]).to_dict()
    assert doc["check_name"] == "demo"
    assert doc["terms"] == [{"label": "a", "value": 0.0}, {"label": "b", "value": 1.0}]
    assert doc["slacks"] == [1.0]
    assert doc["passed"] is True
    assert doc["tolerance_used"] > 0


def test_tolerance_rejects_non_finite_and_absurd_values():
    with pytest.raises(InvalidInput):
        ToleranceConfig(eps_abs=float("inf"))
    for bad in (0.0, -1e-12, float("nan"), 2 * MAX_TOLERANCE):
        with pytest.raises(InvalidInput):
            ToleranceConfig(eps_rel=bad)
    assert ToleranceConfig(eps_rel_omega=MAX_TOLERANCE).eps_rel_omega == MAX_TOLERANCE
