"""Numerical verification lab for inner-product, operator-norm and
numerical-radius inequality chains over seeded random ensembles."""

from types import ModuleType as _Module

from .chains import AngleResult, ChainResult, ToleranceConfig, make_chain
from .ensembles import FAMILIES, EnsembleConfig, draw, trial_stream
from .errors import (
    ConvergenceError,
    DimensionMismatch,
    IneqLabError,
    InvalidInput,
    NotHermitian,
    NotOrthogonalProjection,
    NotPositiveSemidefinite,
    PreconditionError,
    SpectrumOutOfRange,
    ZeroOperator,
    ZeroVector,
)
from .harness import (
    REGISTRY,
    SuiteReport,
    SuiteSpec,
    check_single,
    default_config,
    run_all,
    run_suite,
    suite_names,
)
from .linalg import (
    EigenDecomposition,
    PolarDecomposition,
    hermitian_eigen,
    is_positive_contraction,
    matrix_from_json_dict,
    matrix_to_json_dict,
    operator_norm,
    polar_decompose,
    psd_power,
    psd_sqrt,
    vector_from_json_dict,
    vector_to_json_dict,
)
from .operator_ineq import (
    bourin_property,
    contraction_builder,
    corollary33_chain,
    corollary35_chain,
    corollary37_chain,
    corollary38_norm_chain,
    corollary38_omega_chain,
    final_omega_refinement_chain,
    lemma_2A_chain,
    power_chain,
    remark36_polar_chain,
    remark36_scaled,
    remark36_scaled_unchecked,
    theorem_gap_chain,
)
from .radius import (
    RadiusResult,
    numerical_radius,
    numerical_radius_sampling_oracle,
)
from .vector_ineq import (
    angles,
    buzano_chain,
    cs_refinement_chain,
    krein_triangle,
    lemma21_chain,
    lin_triangle_refined,
    projection_buzano,
    psi_infimum_property,
)

__version__ = "0.1.0"

# The public names are the ones imported above: no private name and no submodule.
__all__ = sorted(name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _Module)))
