"""Boundary-data recovery for the two-dimensional Laplace equation by an
iterative marching observer, plus the spectral diagnostics that back it."""

from .discrete_ops import SystemMatrices, assemble
from .gain import (GainVector, ObservabilityDeficient, PlacementFailed,
                   PoleSpec, ackermann_gain, observability_matrix,
                   ring_poles, settle_steps, uniform_poles)
from .grid import RectGrid, build_grid
from .observer import (NonFiniteState, ObserverConfig, ObserverProblem,
                       SweepReport, design, error_bottom, run, top_residual)
from .reference import (CauchyData, ReferenceSolution, TrigTerm, bottom_trace,
                        combo_example, dirichlet_example, evaluate,
                        make_cauchy_data, neumann_example, sample_state_field)
from .spectral import (FunctionPair, ModeSet, eigen_residual, gram_matrix,
                       inner_product, observability_lower_bound, sample_mode,
                       semigroup_apply)

__version__ = "0.1.0"
