"""Sparse Lyapunov feedback stabilization of nonlocal transport equations."""

__version__ = "0.1.0"

from .measures import (GridMeasure, ParticleMeasure, SupportBall, barycenter,
                       moment, sup_norm, total_mass, wasserstein_1d)
from .kernels import (HKKernel, InteractionKernel, constant_kernel, make_kernel,
                      nonlocal_field)
from .lyapunov import (MomentFunctional, lie_derivative,
                       lie_derivative_fd_oracle, value, variance_about)
from .controller import (ActiveControl, BumpParams, ControlDecision,
                         ControllerState, bump_1d, decide_multi,
                         search_maximizer)
from .solver import (SolverConfig, SupportEscapeError, TrajectoryLog, check_linf_bound,
                     evolve, step_grid, step_particles)
from .scenarios import (ClusterReport, ScenarioSpec, detect_clusters,
                        run_concentration_demo, run_hk)
