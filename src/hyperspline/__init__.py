"""Spline strain-energy models for incompressible isotropic hyperelasticity.

The package calibrates B-spline representations of the strain-energy
function W(I1, I2) — separable, bivariate surface, or a surface mapped onto
the physically admissible invariant region — from homogeneous-deformation
stress data by constrained linear least squares.
"""

from .domain import (BoundaryEval, DomainMapConfig, MapJacobian, boundary,
                     map_forward, map_inverse, map_jacobian, poly_transform,
                     poly_transform_inverse, width)
from .kinematics import (Dataset, DeformationMode, Sample, StressCoefficients,
                         invariants, max_invariants, stress_coefficients)
from .model import (ActivationReport, FitMetrics, ModelKind, ModelSpec,
                    ModelState, activation, assemble_design, default_spec,
                    energy, fixed_zero_indices, metrics, predict_stress,
                    predict_stress_clamped, sensitivity_derivatives)
from .operators import (InequalityOperator, PenaltyOperator,
                        curvature_operator, inequality_operator)
from .solver import (CalibrationProblem, LCurveResult, Solution,
                     default_lambda_grid, discrete_curvature, kkt_check,
                     lcurve, solve)
from .splines import (Curve, DirectionOps, KnotVector, Surface, basis_at,
                      basis_row, collocation_matrix, derivative_operator,
                      eval_coeffs, interpolate_curve, make_knots,
                      sensitivity_set)

__version__ = "0.1.0"

__all__ = [
    "ActivationReport",
    "BoundaryEval",
    "CalibrationProblem",
    "Curve",
    "Dataset",
    "DeformationMode",
    "DirectionOps",
    "DomainMapConfig",
    "FitMetrics",
    "InequalityOperator",
    "KnotVector",
    "LCurveResult",
    "MapJacobian",
    "ModelKind",
    "ModelSpec",
    "ModelState",
    "PenaltyOperator",
    "Sample",
    "Solution",
    "StressCoefficients",
    "Surface",
    "activation",
    "assemble_design",
    "basis_at",
    "basis_row",
    "boundary",
    "collocation_matrix",
    "curvature_operator",
    "default_lambda_grid",
    "default_spec",
    "derivative_operator",
    "discrete_curvature",
    "energy",
    "eval_coeffs",
    "fixed_zero_indices",
    "inequality_operator",
    "interpolate_curve",
    "invariants",
    "kkt_check",
    "lcurve",
    "make_knots",
    "map_forward",
    "map_inverse",
    "map_jacobian",
    "max_invariants",
    "metrics",
    "poly_transform",
    "poly_transform_inverse",
    "predict_stress",
    "predict_stress_clamped",
    "sensitivity_derivatives",
    "sensitivity_set",
    "solve",
    "stress_coefficients",
    "width",
]
