"""Cost function over the boundary coefficients: misfit plus regularization.

The misfit is the time integral over the assimilation window of the
discrete L2 distance between model and observations; the optional
regularization penalizes the squared coefficient sum of each stencil
group, which selects the zero-order-consistent point inside an otherwise
flat (Hessian-kernel) direction.  ``cost`` returns the cost breakdown
alone; ``evaluate``, which the minimizer calls through ``make_objective``,
returns the same breakdown and the exact gradient assembled from the
adjoint sweep.  Both run one code path up to the gradient, so their
costs agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .adjoint import control_dim, misfit_gradient, window_misfit
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
    "cost",
    "evaluate",
    "make_objective",
    "window_buffers",
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


def window_buffers(cfg: CostConfig, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Window trajectory and residual storage that ``cost`` and ``evaluate`` refill."""
    m, d = window_steps(cfg, grid), 2 * grid.N + 1
    return np.empty((m + 2 * BLOCK_LEVELS + 1, d)), np.empty((m + 1, d))


def _window_cost(x, cfg, obs, ic, stencil, grid, J, buffers, squares):
    """integrate, misfit and regularization at x: (report, traj, residual, reg gradient).

    squares goes to ``window_misfit``.  traj and the residual are None when
    the integration diverged.
    """
    bs = BoundaryScheme.from_control_vector(x, J)
    wgrid = replace(grid, n_steps=window_steps(cfg, grid))
    z_out, res_out = buffers or (None, None)
    try:
        traj = integrate(ic, stencil, bs, wgrid, out=z_out)
    except IntegrationDiverged:
        return CostReport(BLOWUP_PENALTY, BLOWUP_PENALTY, 0.0), None, None, None
    misfit, res = window_misfit(traj, obs, out=res_out, squares=squares)

    # One row per stencil group; a sum does not depend on the reversed
    # order of the tilde groups.  d/d alpha_j of eta * (sum alpha)^2 is the
    # same for every j of the group.
    sums = np.reshape(x, (4, J + 1)).sum(axis=1)
    reg = float(cfg.eta * (sums @ sums))
    reg_grad = np.repeat(2.0 * cfg.eta * sums, J + 1)
    return CostReport(misfit + reg, misfit, reg), traj, res, reg_grad


def cost(
    x: np.ndarray,
    cfg: CostConfig,
    obs: np.ndarray,
    ic: np.ndarray,
    stencil: InteriorStencil,
    grid: GridSpec,
    J: int,
    buffers: tuple[np.ndarray, np.ndarray],
) -> CostReport:
    """Cost at control vector x from the stacked start state ic, with no adjoint.

    The same bits as ``evaluate``'s report.  buffers (see
    ``window_buffers``) are overwritten on every call.  No residual is read
    afterwards, so it is squared in place.
    """
    return _window_cost(x, cfg, obs, ic, stencil, grid, J, buffers, buffers[1])[0]


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
    ``window_buffers``) are overwritten; nothing returned refers to them.
    """
    # The residual becomes the adjoint forcing, so its square needs storage of its own.
    report, traj, res, reg_grad = _window_cost(x, cfg, obs, ic, stencil, grid, J, buffers, None)
    if traj is None:
        return report, np.zeros(control_dim(J))
    grad = misfit_gradient(traj, res)
    grad += reg_grad
    return report, grad


def make_objective(
    cfg: CostConfig,
    obs: np.ndarray,
    ic: np.ndarray,
    stencil: InteriorStencil,
    grid: GridSpec,
    J: int,
):
    """Bind everything but x for ``lbfgs``; all calls share one set of window buffers."""
    buffers = window_buffers(cfg, grid)

    def f_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        report, grad = evaluate(x, cfg, obs, ic, stencil, grid, J, buffers)
        return report.total, grad

    return f_and_grad
