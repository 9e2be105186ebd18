"""Verification laboratory for a stability bound on entire functions.

Given two functions from a growth-and-decay class whose zeros coincide in a
disk B(0, R), the package derives every constant of the resulting bound on
|psi2/psi1 - 1|, builds concrete function pairs with prescribed coinciding
zeros, and certifies each inequality of the chain numerically with measured
preconditions.
"""

from .constants import (
    ClassParams,
    CofactorTable,
    DerivedConstants,
    ParameterError,
    constant_Ap,
    constant_Ap_interval,
    constant_C2,
    constant_C3,
    derive_constants,
    final_exponent,
    select_p,
    threshold_c,
    threshold_r1,
    threshold_r2,
    vandermonde_cofactors,
)
from .factors import (
    DomainError,
    TailProductSpec,
    ZeroSet,
    cexpm1,
    guard_radius,
    log_primary_factor_grid,
    log_tail_product_grid,
)
from .grids import DiskGrid, parse_disk_grid, segment_points
from .jost import (
    DivergenceError,
    GrowthFit,
    JostFn,
    Kernel,
    NoDecayError,
    RayFit,
    boost_ray_decay,
    growth_fit,
    kernel_from_json,
    kernel_to_json,
    load_kernel,
    ray_decay_fit,
    ray_envelope_constant,
    save_kernel,
)
from .models import (
    CountCompliance,
    EntireModel,
    MeasuredConstants,
    PairBuild,
    PairConstructionError,
    PairSpec,
    build_pair,
    compliant_tail_zeros,
    count_compliance,
    engineered_pair,
    load_pair_file,
    save_pair_file,
)
from .report import (
    FAIL,
    PASS,
    PASS_UNMET,
    Precondition,
    VerificationReport,
    format_float,
    precondition,
    reports_to_json,
)
from .verifier import (
    check_decomposition,
    check_lemma2,
    check_lemma3,
    check_remark5,
    check_step5_bounds,
    check_theorem,
    default_disk_grid,
)
from .zeros import (
    AnalyticFn,
    CountResult,
    EvaluationError,
    as_analytic,
    count_zeros,
    jensen_check,
    locate_zeros,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
