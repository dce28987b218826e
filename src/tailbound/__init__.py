"""tailbound: instance-dependent tail bounds for finite empirical processes.

Computes Chernoff confidence radii T_r(f) from exact cumulant generating
functions, class deviation coefficients w_r, Orlicz-norm machinery with
closed-form exponential-type bounds, the rank-k Gaussian spectral bound, and
deflated generic-chaining bounds with replayable certificates. A seeded Monte
Carlo harness empirically verifies every probabilistic guarantee.
"""

from .numerics import NumericError
from .cgf import (
    CENTERING_TOL,
    DiscreteDistribution,
    TabulatedFunction,
    rate_bound_T,
    rate_bound_T_rows,
)
from .orlicz import (
    OrliczGenerator,
    UnsupportedGeneratorError,
    bernstein_phi_star,
    conversion_factor_M,
    exp_moment_integral,
    make_generator,
    orlicz_norm,
    orlicz_norm_rows,
    wr_exponential_type,
    wr_quadrature_bound,
)
from .gaussian import (
    GaussianBoundReport,
    GaussianModel,
    LinearFunctional,
    cgf_norm,
    gaussian_instance_bound,
    gaussian_instance_bound_rows,
    optimal_rank,
)
from .chaining import (
    ChainBoundReport,
    DeflatedSet,
    DeflationPlan,
    FunctionFamily,
    OptimizeResult,
    build_deflation,
    cgf_functional_norm,
    class_wr,
    deflate,
    epsilon_ell,
    extremal_difference,
    gamma_functional,
    optimize_deflation,
    replay_certificate,
    theorem_main_bound,
    validate_plan,
)
from .verify import TrialPlan, VerificationReport, run_trials, sweep

__version__ = "0.1.0"

__all__ = [
    "CENTERING_TOL",
    "ChainBoundReport",
    "DeflatedSet",
    "DeflationPlan",
    "DiscreteDistribution",
    "FunctionFamily",
    "GaussianBoundReport",
    "GaussianModel",
    "LinearFunctional",
    "NumericError",
    "OptimizeResult",
    "OrliczGenerator",
    "TabulatedFunction",
    "TrialPlan",
    "UnsupportedGeneratorError",
    "VerificationReport",
    "bernstein_phi_star",
    "build_deflation",
    "cgf_functional_norm",
    "cgf_norm",
    "class_wr",
    "conversion_factor_M",
    "deflate",
    "epsilon_ell",
    "exp_moment_integral",
    "extremal_difference",
    "gamma_functional",
    "gaussian_instance_bound",
    "gaussian_instance_bound_rows",
    "make_generator",
    "optimal_rank",
    "optimize_deflation",
    "orlicz_norm",
    "orlicz_norm_rows",
    "rate_bound_T",
    "rate_bound_T_rows",
    "replay_certificate",
    "run_trials",
    "sweep",
    "theorem_main_bound",
    "validate_plan",
    "wr_exponential_type",
    "wr_quadrature_bound",
]
