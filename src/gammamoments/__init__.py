"""Gamma-product Stieltjes moment problems.

Construct principal weight functions for moment sequences built from
products of gamma factors, attach vanishing-moment perturbations to form
explicit non-unique solution families, and decide uniqueness numerically
via the Carleman, Krein, and converse-Carleman criteria.
"""

from .classes import (Perturbation, certify_nonnegative, class_member,
                      find_gamma_max, omega2, omega2_via_convolution, omega3,
                      perturbation, perturbation_tm1, perturbation_tm2,
                      perturbation_tm3)
from .criteria import (CarlemanResult, ConverseCarlemanResult, CriterionReport,
                       KreinResult, carleman, converse_carleman, full_report,
                       krein)
from .errors import (ConstraintError, ConvergenceError, DomainError,
                     GammomentsError, PoleError, RefusesError, SearchError,
                     TruncationError)
from .mellin import (ContourSpec, adapted_contour, contour_log_densities,
                     contour_log_density, inverse_mellin_log,
                     mellin_convolve_many)
from .moments import (MomentSequence, gamma_product, log_moment,
                      mellin_symbol, parse_descriptor, tm1, tm2, tm3, tm4)
from .special import bessel_k0_complex, ln_gamma, log_bessel_k0
from .verify import MomentCheckResult, check_moment, check_vanishing
from .weights import WeightFunction, principal_solution, w1, w2, w3, w4

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "GammomentsError", "DomainError", "PoleError", "ConstraintError",
    "TruncationError", "ConvergenceError", "SearchError", "RefusesError",
    # special functions
    "ln_gamma", "log_bessel_k0", "bessel_k0_complex",
    # moment sequences
    "MomentSequence", "tm1", "tm2", "tm3", "tm4", "gamma_product",
    "log_moment", "mellin_symbol", "parse_descriptor",
    # mellin machinery
    "ContourSpec", "adapted_contour", "inverse_mellin_log",
    "contour_log_density", "contour_log_densities", "mellin_convolve_many",
    # weights
    "WeightFunction", "principal_solution", "w1", "w2", "w3", "w4",
    # classes
    "Perturbation", "perturbation", "class_member", "omega2",
    "omega2_via_convolution", "omega3",
    "perturbation_tm1", "perturbation_tm2", "perturbation_tm3",
    "find_gamma_max", "certify_nonnegative",
    # verification
    "MomentCheckResult", "check_moment", "check_vanishing",
    # criteria
    "CarlemanResult", "KreinResult", "ConverseCarlemanResult",
    "CriterionReport", "carleman", "krein", "converse_carleman",
    "full_report",
]
