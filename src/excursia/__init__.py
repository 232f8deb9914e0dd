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
    RandomAcceleration,
    ShiftedGaussian,
    clipped_autocovariance,
    parse_model_spec,
)
from .slepian import (
    ValidityError,
    check_equivalence,
    crossing_intensity,
    e0,
    mean_excursion,
    validate_iia,
)
from .laplace import find_pole, laplace_e0, psi_divisor
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
from .persistency import tail_bound_check, tail_exponent, tail_exponent_ci
