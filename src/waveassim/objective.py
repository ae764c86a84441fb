"""Cost function over the boundary coefficients: misfit plus regularization.

The misfit is the time integral over the assimilation window of the
discrete L2 distance between model and observations; the optional
regularization penalizes the squared coefficient sum of each stencil
group, which selects the zero-order-consistent point inside an otherwise
flat (Hessian-kernel) direction.  A ``Window`` binds everything the cost
depends on but the coefficients: observations, start state, interior
stencil, the window grid, J and eta, plus the ``wave.Storage`` that
holds every buffer an evaluation writes, so that evaluations allocate
nothing large.
``cost`` returns the cost breakdown alone; ``evaluate``, which the
minimizer calls through ``make_objective``, returns the same breakdown
and the exact gradient assembled from the adjoint sweep.  Both run one code path up to the
gradient, so their costs agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adjoint import control_dim, misfit_gradient, window_misfit
from .wave import (
    BoundaryScheme,
    GridSpec,
    IntegrationDiverged,
    InteriorStencil,
    Storage,
    integrate,
)

__all__ = [
    "BLOWUP_PENALTY",
    "CostReport",
    "Window",
    "cost",
    "evaluate",
    "make_objective",
    "window_steps",
]

BLOWUP_PENALTY = math.inf


@dataclass(frozen=True)
class CostReport:
    """Cost breakdown; total = misfit + regularization."""

    total: float
    misfit: float
    regularization: float

    def __post_init__(self):
        if self.total < 0.0 or self.misfit < 0.0 or self.regularization < 0.0:
            raise ValueError("cost contributions must be non-negative")


@dataclass(frozen=True, eq=False)
class Window:
    """One assimilation window and the storage its evaluations refill.

    grid is the window grid: the cost integrates levels 0..grid.n_steps,
    and obs holds the observed stacked states of at least those levels.
    storage (the trajectory, its chain stack, the residual and the scratch
    of the chain runs, see ``wave.Storage``) is allocated once here; every
    ``cost`` and ``evaluate`` overwrites it.
    """

    obs: np.ndarray
    ic: np.ndarray
    stencil: InteriorStencil
    grid: GridSpec
    J: int
    eta: float = 0.0
    storage: Storage = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.eta < math.inf:
            raise ValueError(f"regularization weight must be >= 0 and finite, got {self.eta}")
        object.__setattr__(self, "storage", Storage(self.grid.n_steps, self.grid.N))


def window_steps(T_window: float, grid: GridSpec) -> int:
    """Number of leapfrog steps inside the window; T_window must be a multiple of tau."""
    m = int(round(T_window / grid.tau))
    if m < 1 or abs(m * grid.tau - T_window) > 1e-9 * max(1.0, T_window):
        raise ValueError(
            f"window length {T_window} is not a positive multiple of tau = {grid.tau}"
        )
    if m > grid.n_steps:
        raise ValueError(
            f"window of {m} steps exceeds the configured horizon of {grid.n_steps}"
        )
    return m


def _window_cost(x, win):
    """integrate, misfit and regularization at x: (report, traj, residual, reg gradient).

    traj and the residual, both in the window's storage, are None when the
    integration diverged.
    """
    bs = BoundaryScheme.from_control_vector(x, win.J)
    try:
        traj = integrate(win.ic, win.stencil, bs, win.grid, out=win.storage)
    except IntegrationDiverged:
        return CostReport(BLOWUP_PENALTY, BLOWUP_PENALTY, 0.0), None, None, None
    misfit, res = window_misfit(traj, win.obs)

    # One row per stencil group; a sum does not depend on the reversed
    # order of the tilde groups.  d/d alpha_j of eta * (sum alpha)^2 is the
    # same for every j of the group.  eta * sums first keeps a zero sum's
    # gradient zero at any finite eta; a penalty that overflows costs +inf,
    # an infeasible step for the line search, as a diverged run is.
    sums = np.reshape(x, (4, win.J + 1)).sum(axis=1)
    with np.errstate(over="ignore"):
        reg = float(win.eta * (sums @ sums))
        reg_grad = np.repeat(2.0 * (win.eta * sums), win.J + 1)
    return CostReport(misfit + reg, misfit, reg), traj, res, reg_grad


def cost(x: np.ndarray, win: Window) -> CostReport:
    """Cost at control vector x over the window, with no adjoint.

    The same bits as ``evaluate``'s report.
    """
    return _window_cost(x, win)[0]


def evaluate(x: np.ndarray, win: Window) -> tuple[CostReport, np.ndarray]:
    """Cost and gradient at control vector x over the window.

    A diverged integration costs BLOWUP_PENALTY (+inf) with a zero
    gradient: the line search treats a non-finite value as an infeasible
    step and backtracks out of the unstable region.  Nothing returned
    refers to the window's storage.
    """
    report, traj, res, reg_grad = _window_cost(x, win)
    if traj is None:
        return report, np.zeros(control_dim(win.J))
    grad = misfit_gradient(traj, res)
    grad += reg_grad
    return report, grad


def make_objective(win: Window):
    """Bind the window for ``lbfgs``: x -> (total cost, gradient)."""

    def f_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        report, grad = evaluate(x, win)
        return report.total, grad

    return f_and_grad
