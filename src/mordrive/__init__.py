"""Stability-equation model-order reduction and DC-drive controller design."""

__version__ = "0.1.0"

from .controller_design import (
    DesignReport,
    SweepPoint,
    closed_current_loop,
    design_conventional,
    design_via_mor,
    solve_damping_gain,
    sweep_gain,
)
from .drive_model import (
    DerivedDriveModel,
    MotorDriveParams,
    derive_model,
    kc_from_K,
    worked_example_params,
)
from .mor_engine import (
    ReductionConfig,
    ReductionResult,
    adjust_denominator,
    match_numerator,
    reduce,
    reduce_denominator,
)
from .poly_tf import (
    Polynomial,
    StabilityFactorization,
    TransferFunction,
    dc_gain,
    even_odd_factor,
    is_stable,
    poly_eval,
    poly_mul,
    poly_roots,
)
from .sim_analysis import (
    BodeTrace,
    ResponseMetrics,
    StepTrace,
    bode,
    ise,
    response_metrics,
    step_response,
)

__all__ = [
    "__version__",
    "BodeTrace", "DerivedDriveModel", "DesignReport", "MotorDriveParams",
    "Polynomial", "ReductionConfig", "ReductionResult", "ResponseMetrics",
    "StabilityFactorization", "StepTrace", "SweepPoint", "TransferFunction",
    "adjust_denominator", "bode", "closed_current_loop", "dc_gain",
    "derive_model", "design_conventional", "design_via_mor",
    "even_odd_factor", "is_stable", "ise", "kc_from_K", "match_numerator",
    "poly_eval", "poly_mul", "poly_roots", "reduce", "reduce_denominator",
    "response_metrics", "solve_damping_gain", "step_response", "sweep_gain",
    "worked_example_params",
]
