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

import math
from dataclasses import dataclass, replace

import numpy as np

from .adjoint import control_dim, misfit_gradient
from .wave import (
    BLOCK_LEVELS,
    BoundaryScheme,
    GridSpec,
    IntegrationDiverged,
    InteriorStencil,
    integrate,
)

__all__ = [
    "BLOWUP_PENALTY",
    "CostConfig",
    "CostReport",
    "evaluate",
    "make_objective",
    "window_steps",
]

BLOWUP_PENALTY = math.inf


@dataclass(frozen=True)
class CostConfig:
    """Assimilation window length and regularization weight."""

    T_window: float
    eta: float = 0.0

    def __post_init__(self):
        if self.T_window <= 0.0:
            raise ValueError(f"window length must be positive, got {self.T_window}")
        if self.eta < 0.0:
            raise ValueError(f"regularization weight must be >= 0, got {self.eta}")


@dataclass(frozen=True)
class CostReport:
    """Cost breakdown; total = misfit + regularization."""

    total: float
    misfit: float
    regularization: float

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
    obs: np.ndarray,
    ic: np.ndarray,
    stencil: InteriorStencil,
    grid: GridSpec,
    J: int,
    buffers: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[CostReport, np.ndarray]:
    """Cost and gradient at control vector x from the stacked start state ic.

    A diverged integration costs BLOWUP_PENALTY (+inf) with a zero
    gradient: the line search treats a non-finite value as an infeasible
    step and backtracks out of the unstable region.  buffers (see
    ``make_objective``) are overwritten; nothing returned refers to them.
    """
    bs = BoundaryScheme.from_control_vector(x, J)
    wgrid = replace(grid, n_steps=window_steps(cfg, grid))
    z_out, res_out = buffers or (None, None)
    try:
        traj = integrate(ic, stencil, bs, wgrid, out=z_out)
    except IntegrationDiverged:
        report = CostReport(BLOWUP_PENALTY, BLOWUP_PENALTY, 0.0)
        return report, np.zeros(control_dim(J))
    misfit, grad = misfit_gradient(traj, obs, out=res_out)

    # One row per stencil group; a sum does not depend on the reversed
    # order of the tilde groups.  d/d alpha_j of eta * (sum alpha)^2 is the
    # same for every j of the group.
    sums = np.reshape(x, (4, J + 1)).sum(axis=1)
    reg = float(cfg.eta * (sums @ sums))
    grad += np.repeat(2.0 * cfg.eta * sums, J + 1)
    return CostReport(misfit + reg, misfit, reg), grad


def make_objective(
    cfg: CostConfig,
    obs: np.ndarray,
    ic: np.ndarray,
    stencil: InteriorStencil,
    grid: GridSpec,
    J: int,
):
    """Bind everything but x for ``lbfgs``; all calls share one set of window buffers."""
    m, d = window_steps(cfg, grid), 2 * grid.N + 1
    buffers = (np.empty((m + 2 * BLOCK_LEVELS + 1, d)), np.empty((m + 1, d)))

    def f_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        report, grad = evaluate(x, cfg, obs, ic, stencil, grid, J, buffers)
        return report.total, grad

    return f_and_grad
