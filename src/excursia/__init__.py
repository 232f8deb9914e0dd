"""Zero-level exceedance-time approximation for smooth stationary Gaussian
processes.

The library turns an analytic autocovariance into (i) the survival function
of the geometric divisor of the approximated exceedance-time distribution,
(ii) validity checks for when that approximation is a proper distribution,
(iii) exact samplers for the divisor and the compound exceedance time, and
(iv) persistency exponents by Laplace-pole search and Monte Carlo tail
regression, cross-checked against switch-process simulations.
"""

__version__ = "0.1.0"

from .covariance import (
    CovarianceModel,
    Diffusion,
    GeneralizedLaplace,
    MaternHalfInteger,
    ModelSpecError,
    RandomAcceleration,
    ShiftedGaussian,
    builtin_models,
    clipped_autocovariance,
    eval_dr,
    eval_r,
    parse_model_spec,
    second_derivative_at_zero,
)
from .slepian import (
    TailClass,
    ValidityError,
    ValidityReport,
    check_equivalence,
    crossing_intensity,
    e0,
    e0_closed,
    mean_excursion,
    validate_iia,
)
from .laplace import (
    AtPoleError,
    DivergenceError,
    LaplaceEvaluator,
    PoleNotFoundError,
    find_pole,
    laplace_e0,
    psi_divisor,
    psi_excursion,
)
from .samplers import (
    DivisorSampler,
    ExponentialDivisor,
    RngStream,
    g_forward,
    g_inverse,
    poly_inverse_b,
    sample_divisor,
    sample_excursions,
    sample_geometric_half,
)
from .switching import (
    SwitchingTimeDistribution,
    covariance_from_expectation,
    divisor_switching,
    excursion_switching,
    exponential_switching,
    gamma_switching,
    laplace_expectation,
    laplace_state_probability,
    laplace_stationary_covariance,
    point_mass_switching,
)
from .persistency import (
    DegenerateTailError,
    ExponentEstimate,
    TailBoundReport,
    tail_bound_check,
    tail_exponent,
    tail_exponent_ci,
)
