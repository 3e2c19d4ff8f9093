"""Numerical construction of the Atiyah-Hitchin metric from its coefficient
ODE system, with machine verification of the geometry of its minimal sphere:
the hyper-Kaehler curvature identities, strong stability, the calibration
bound, and two-convexity of the squared distance function."""

from .config import ModelParams, RunConfig
from .convexity import (SignReport, brute_force_plane_min, chain_margins,
                        hessian_r2, hessian_r2_diagonal,
                        min_trace_over_kplanes, second_derivative_signs)
from .curvature import (ConnectionCoefficients, CurvatureComponents,
                        asd_residual, connection_coefficients,
                        curvature_components, fiber_gauss_curvature, kappa,
                        kappa_at_zero)
from .ode import (CoefficientSample, IntegrationError, IntegrationStats,
                  MetricProfile, ShapePoint, integrate,
                  product_identity_residual, region_margins, rhs,
                  sample_from_series, second_derivatives, shape_point)
from .series import SeriesCoefficients, expand, formal_residual_ok
from .verify import CheckResult, VerificationReport, run_verification
from .zero_section import (CalibrationResult, calibration_check,
                           second_fundamental_form, stability_operator)

__version__ = "0.1.0"
