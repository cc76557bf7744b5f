"""Semiclassical pseudomodes for 1-D non-self-adjoint operators.

L_h f = -h^2 a f'' - i h b f' + c f on an interval: symbol geometry and the
bracket-positive region, JWKB quasimode construction to arbitrary expansion
order, one-sided boundary quasimodes with Robin combinations, distorted FBI
transforms, finite frames with semigroup/pseudospectral bounds, and the banded
measurement substrate (residuals, order fits, resolvent maps).
"""

from .boundary import (boundary_band, boundary_mode, boundary_phase,
                       exit_condition, inside_parabola,
                       laplace_constant_boundary, quadratic_roots,
                       robin_combination, robin_residual)
from .cutoff import CutoffSpec
from .errors import (BoundViolationError, BranchPointError, ConfigError,
                     ConvergenceError, DegenerateRootError, DomainError,
                     EllipticityError, NotInOmegaError, PreconditionError,
                     PseudomodeError, SingularPointError, TruncationError)
from .fbi import (DistortedFBI, asymptotic_orthogonality,
                  boundedness_profile, g_limit, g_profile,
                  gaussian_kernel_compare, gaussian_overlap,
                  generalized_kappa_check, near_isometry_probe,
                  orthogonality_decay, phase_space_grid,
                  scaled_distorted_grids, transform_frame)
from .frame import (FrameMatrix, build_frame, column_residual_max, defect,
                    evolve_approx, frame_bounds, homomorphism_defect,
                    numerical_abscissa, positivity_floor,
                    pseudospectrum_inclusion, quantize, quantize_regularized,
                    reconstruct, regularized_inverse, semigroup_bound_check)
from .grid import (BoundaryCondition, DenseOperator, Grid1D, discretize,
                   filling_probe, order_fit, propagate, residual_stencil,
                   residual_triple, resolvent_map, smallest_singular_value)
from .operators import (advection_exit, complex_airy, davies_rotated,
                        get_operator, polynomial_field)
from .symbol import (AnalyticJet, CoefficientField, PolynomialJet,
                     RegionMask, in_omega, multiplicity, poisson_bracket,
                     principal_symbol, region_mask, symbol_derivatives,
                     symbol_image, twist_curvature)
from .wkb import (PhaseSeries, Pseudomode, assemble_mode, choose_delta,
                  eikonal_phase, gaussian_distance, gaussian_mode,
                  laplace_constant, phi_coefficient_series, rough_mode,
                  transport_recursion)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
