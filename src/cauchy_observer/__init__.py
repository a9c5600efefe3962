"""Boundary-data recovery for the two-dimensional Laplace equation by an
iterative marching observer, plus the spectral diagnostics that back it."""

from .discrete_ops import SystemMatrices, assemble, sweep_form
from .gain import (GainVector, ObservabilityDeficient, PlacementFailed,
                   PoleSpec, ackermann_gain, observability_matrix,
                   ring_poles, settle_steps, uniform_poles)
from .grid import RectGrid, build_grid
from .observer import (NonFiniteState, ObserverConfig, ObserverProblem,
                       SweepReport, error_bottom, run, top_residual)
from .reference import (CauchyData, ReferenceSolution, TrigTerm, bottom_trace,
                        combo_example, dirichlet_example, evaluate,
                        make_cauchy_data, neumann_example, sample_state_field)
from .spectral import (EigenMode, FunctionPair, ModeSet, default_mode_set,
                       eigen_residual, eval_mode, gram_matrix, inner_product,
                       observability_lower_bound, observation, sample_mode,
                       semigroup_apply)

__version__ = "0.1.0"
