"""Chain assembly and the tolerance policy."""

import numpy as np
import pytest

from ineqlab.chains import MAX_TOLERANCE, ToleranceConfig, make_chain
from ineqlab.ensembles import EnsembleConfig, draw, trial_stream
from ineqlab.errors import ConvergenceError, IneqLabError, InvalidInput
from ineqlab.harness import REGISTRY
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
    with pytest.raises(ConvergenceError):  # an upper bound that is NaN certifies nothing
        make_chain("demo", terms, tol, radii=(radius_with_upper(1.0, np.nan),))


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


# Every row at dim 3, with one input, all its vectors or all its inputs scaled
# far past the square root of the largest float: an overflow inside a kernel
# shows only as a typed error, and a chain it does not stop still holds.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(REGISTRY))
def test_inputs_scaled_to_overflow_raise_typed_errors_and_no_warning(name):
    spec = REGISTRY[name]
    stream = trial_stream(EnsembleConfig(spec.family, 3, 5, 1), np.arange(1))
    drawn = spec.arranged([draw(family, stream, 3) for family in spec.draws])
    vectors = {i for i, kind in enumerate(spec.kernel.kinds) if kind == "v"}
    for scale in (1e100, 1e160, 1e200, 1e300):
        for scaled in [{i} for i in range(len(drawn))] + [vectors, set(range(len(drawn)))]:
            inputs = [scale * block if i in scaled else block for i, block in enumerate(drawn)]
            try:
                batch = spec.kernel(*inputs, **spec.kwargs)
            except IneqLabError:
                continue
            assert spec.expect_violation or batch.passed.all(), (scale, scaled)


def test_kernels_declare_their_inputs_and_share_one_chain_form():
    for spec in REGISTRY.values():
        kinds = ["v" if family == "unit_vector" else "m" for family in spec.arranged(spec.draws)]
        assert spec.kernel.kinds == "".join(kinds)
        assert spec.kernel.chain.__wrapped__ is spec.kernel
    matrix = np.array([[0.0, 1.0], [0.0, 0.0]])
    # The oracle row takes tolerance=None like every other kernel.
    oracle = REGISTRY["omega_oracle"]
    assert oracle.kernel.chain(matrix, **oracle.kwargs).passed
