"""Corrected BDF-k time stepping for tempered subdiffusion models, with a
numerical verification suite for the positivity and A-stability properties
of the multiplier-based energy analysis."""

from .coefficients import (CoefficientTable, FracParams, bdf_g_coefficients,
                           bdf_l_coefficients, bdf_polynomial, series_oracle)
from .errors import GridTooCoarseError, InternalConsistencyError, ParameterDomainError
from .multipliers import (MultiplierSet, QTable, ReciprocalSeries, multiplier_set,
                          q_coefficients, reciprocal_series)
from .operators import (DiscreteTimeOperator, DistributedOrder, FractionalOperatorSpec,
                        MultiTerm, QuadratureRule, SingleTerm, apply_history,
                        discretize, operator_spec_from_dict)
from .solver import (ConvergenceReport, DenseSPDOperator, ScalarOperator, SolveResult,
                     SubdiffusionProblem, TridiagonalLaplacian, convergence_harness,
                     correction_weights, problem_from_dict, scalar_problem,
                     stability_experiment, stability_refinement, step_solve)
from .special import exact_scalar_solution, mittag_leffler
from .stability import (ArgumentSweep, ENERGY_CONSTANTS, ExtremaReport,
                        TrigPolynomial, argument_sweep, composite_angle,
                        lower_bound_extrema, multiplier_energy_check,
                        positivity_generating_function, quadrature_positivity_check,
                        toeplitz_eigencheck, trig_min)

__version__ = "0.1.0"
