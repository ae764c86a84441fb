"""Boundary-stencil identification for a 1D staggered-grid wave model.

The package integrates the wave system with controllable derivative
stencils at the boundary-adjacent rows, fits those coefficients to exact
trigonometric solutions by adjoint-based variational assimilation, and
checks the identified values against closed-form dispersion predictions.
The top level exports the README example's names; import the rest from
their modules.
"""

from .analysis import xi_series
from .exact import ModeSpec, sample_observations
from .minimize import lbfgs
from .objective import Window, make_objective
from .wave import BoundaryScheme, GridSpec, integrate, interior_stencil

__version__ = "0.1.0"

__all__ = [
    "BoundaryScheme",
    "GridSpec",
    "ModeSpec",
    "Window",
    "integrate",
    "interior_stencil",
    "lbfgs",
    "make_objective",
    "sample_observations",
    "xi_series",
]
