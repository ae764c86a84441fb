"""Boundary-stencil identification for a 1D staggered-grid wave model.

The package integrates the wave system with controllable derivative
stencils at the boundary-adjacent rows, fits those coefficients to exact
trigonometric solutions by adjoint-based variational assimilation, and
checks the identified values against closed-form dispersion predictions.
"""

from .adjoint import adjoint_sweep, control_dim, misfit_gradient, tlm_run
from .analysis import (
    DispersionReport,
    beta2,
    beta4,
    dispersion_report,
    fit_kernel_line,
    kernel_tangent,
    period_slip_time,
    predicted_c_p,
    predicted_c_u,
    second_order_c_singularity,
    xi_series,
)
from .exact import ModeSpec, project_initial, sample_observations
from .minimize import MinimizeConfig, OptimResult, lbfgs
from .objective import CostConfig, CostReport, evaluate, make_objective
from .wave import (
    BoundaryScheme,
    GridSpec,
    IntegrationDiverged,
    InteriorStencil,
    Trajectory,
    integrate,
    interior_stencil,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryScheme",
    "CostConfig",
    "CostReport",
    "DispersionReport",
    "GridSpec",
    "IntegrationDiverged",
    "InteriorStencil",
    "MinimizeConfig",
    "ModeSpec",
    "OptimResult",
    "Trajectory",
    "adjoint_sweep",
    "beta2",
    "beta4",
    "control_dim",
    "dispersion_report",
    "evaluate",
    "fit_kernel_line",
    "integrate",
    "interior_stencil",
    "kernel_tangent",
    "lbfgs",
    "make_objective",
    "misfit_gradient",
    "period_slip_time",
    "predicted_c_p",
    "predicted_c_u",
    "project_initial",
    "sample_observations",
    "second_order_c_singularity",
    "tlm_run",
    "xi_series",
]
