"""Cost function over the boundary coefficients: misfit plus regularization.

The misfit is the time integral over the assimilation window of the
discrete L2 distance between model and observations; the optional
regularization penalizes the squared coefficient sum of each stencil
group, which selects the zero-order-consistent point inside an otherwise
flat (Hessian-kernel) direction.  ``evaluate`` is the single entry point
the minimizer calls: it returns the cost breakdown and the exact
gradient assembled from the adjoint sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .adjoint import control_dim, misfit_gradient, time_weights
from .exact import Observations
from .wave import (
    BoundaryScheme,
    GridSpec,
    IntegrationDiverged,
    InteriorStencil,
    State,
    integrate,
)

__all__ = [
    "BLOWUP_PENALTY",
    "GROUP_NAMES",
    "CostConfig",
    "CostReport",
    "evaluate",
    "make_objective",
    "window_steps",
]

BLOWUP_PENALTY = 1.0e12

GROUP_NAMES = ("alpha_u", "alpha_u_tilde", "alpha_p", "alpha_p_tilde")


@dataclass(frozen=True)
class CostConfig:
    """Assimilation window length, regularization weight, regularized groups."""

    T_window: float
    eta: float = 0.0
    groups: tuple[str, ...] = GROUP_NAMES

    def __post_init__(self):
        if self.T_window <= 0.0:
            raise ValueError(f"window length must be positive, got {self.T_window}")
        if self.eta < 0.0:
            raise ValueError(f"regularization weight must be >= 0, got {self.eta}")
        unknown = set(self.groups) - set(GROUP_NAMES)
        if unknown:
            raise ValueError(f"unknown stencil groups: {sorted(unknown)}")


@dataclass(frozen=True)
class CostReport:
    """Cost breakdown; total = misfit + regularization.

    ``level_misfit`` holds the spatial misfit norm at each window level
    (before time weighting); it is empty when the run diverged.
    """

    total: float
    misfit: float
    regularization: float
    level_misfit: np.ndarray

    def __post_init__(self):
        if self.total < 0.0 or self.misfit < 0.0 or self.regularization < 0.0:
            raise ValueError("cost contributions must be non-negative")


def window_steps(cfg: CostConfig, grid: GridSpec) -> int:
    """Number of leapfrog steps inside the window; T_window must be a multiple of tau."""
    m = int(round(cfg.T_window / grid.tau))
    if m < 1 or abs(m * grid.tau - cfg.T_window) > 1e-9 * max(1.0, cfg.T_window):
        raise ValueError(
            f"window length {cfg.T_window} is not a positive multiple of tau = {grid.tau}"
        )
    if m > grid.n_steps:
        raise ValueError(
            f"window of {m} steps exceeds the configured horizon of {grid.n_steps}"
        )
    return m


def evaluate(
    x: np.ndarray,
    cfg: CostConfig,
    obs: Observations,
    ic: State,
    stencil: InteriorStencil,
    grid: GridSpec,
    J: int,
) -> tuple[CostReport, np.ndarray]:
    """Cost and gradient at control vector x.

    A diverged integration yields the blow-up penalty with a zero gradient,
    which makes any line search backtrack out of the unstable region.
    """
    bs = BoundaryScheme.from_control_vector(x, J)
    m = window_steps(cfg, grid)
    if obs.n_levels < m + 1:
        raise ValueError(
            f"observations cover {obs.n_levels} levels, window needs {m + 1}"
        )
    wgrid = replace(grid, n_steps=m)

    try:
        traj = integrate(ic, stencil, bs, wgrid)
    except IntegrationDiverged:
        report = CostReport(BLOWUP_PENALTY, BLOWUP_PENALTY, 0.0, np.empty(0))
        return report, np.zeros(control_dim(J))

    level_misfit, grad = misfit_gradient(traj, obs)
    w = time_weights(m, grid.tau)
    misfit = float(w @ level_misfit)

    reg = 0.0
    if cfg.eta > 0.0:
        sums = bs.group_sums()
        width = J + 1
        offsets = {name: i * width for i, name in enumerate(GROUP_NAMES)}
        for name in cfg.groups:
            s = sums[name]
            reg += cfg.eta * s * s
            # d/d alpha_j of eta * (sum alpha)^2 is the same for every j.
            lo = offsets[name]
            grad[lo : lo + width] += 2.0 * cfg.eta * s

    return CostReport(misfit + reg, misfit, reg, level_misfit), grad


def make_objective(
    cfg: CostConfig,
    obs: Observations,
    ic: State,
    stencil: InteriorStencil,
    grid: GridSpec,
    J: int,
):
    """Bind everything but x; the result is the callback ``lbfgs`` consumes."""

    def f_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        report, grad = evaluate(x, cfg, obs, ic, stencil, grid, J)
        return report.total, grad

    return f_and_grad
