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
``evaluate``, which the minimizer calls through ``make_objective``,
returns the cost breakdown and the exact gradient assembled from the
adjoint sweep.  ``cost`` returns the breakdown alone from a ``wave.run``
that keeps no levels, in the dtype of its control vector; it reduces
each level as ``evaluate`` does (``adjoint.level_misfit``), so a float
cost agrees with ``evaluate``'s bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adjoint import control_dim, level_misfit, misfit_gradient, time_weights, window_misfit
from .wave import BoundaryScheme, GridSpec, IntegrationDiverged, InteriorStencil, Storage
from .wave import integrate, run

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
    """Cost breakdown; total = misfit + regularization.

    Each is complex for a complex control vector (see ``cost``).  Its real
    part is then the cost less a term of the order of the squared step,
    which may dip below zero, so only a real cost must be non-negative.
    """

    total: float
    misfit: float
    regularization: float

    def __post_init__(self):
        parts = (self.total, self.misfit, self.regularization)
        if any(part < 0.0 for part in parts if not isinstance(part, complex)):
            raise ValueError("cost contributions must be non-negative")


@dataclass(frozen=True, eq=False)
class Window:
    """One assimilation window and the storage its evaluations refill.

    grid is the window grid: the cost integrates levels 0..grid.n_steps,
    and obs holds the observed stacked states of at least those levels.
    storage (the trajectory, its chain stack, the residual and the scratch
    of the chain runs, see ``wave.Storage``) is allocated once here; every
    ``evaluate`` overwrites it (``cost`` streams through a storage of its
    own).
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
        shape, need = np.shape(self.obs), (self.grid.n_steps + 1, 2 * self.grid.N + 1)
        if len(shape) != 2 or shape[0] < need[0] or shape[1] != need[1]:
            raise ValueError(f"observations of shape {shape} do not cover a window of shape {need}")
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


def _regularization(x, win):
    """eta times the squared coefficient sum of each stencil group, and its gradient.

    One row per stencil group; a sum does not depend on the reversed order
    of the tilde groups.  d/d alpha_j of eta * (sum alpha)^2 is the same
    for every j of the group.  eta * sums first keeps a zero sum's gradient
    zero at any finite eta; a penalty that overflows costs +inf, an
    infeasible step for the line search, as a diverged run is.
    """
    sums = np.reshape(x, (4, win.J + 1)).sum(axis=1)
    with np.errstate(over="ignore"):
        return (win.eta * (sums @ sums)).item(), np.repeat(2.0 * (win.eta * sums), win.J + 1)


def cost(x: np.ndarray, win: Window) -> CostReport:
    """Cost at control vector x over the window, with no adjoint.

    The run (``wave.run``) streams through a Storage(0, N) of its own in x's
    dtype: each chunk of levels is reduced by ``adjoint.level_misfit`` as
    it is stepped, and no level is kept.  A float x gives ``evaluate``'s
    report bit for bit.  A complex x gives the cost's analytic
    continuation, whose imaginary part at x0 + i h v over h is the
    derivative along v (the complex step of ``cli`` gradcheck).
    """
    bs = BoundaryScheme.from_control_vector(x, win.J)
    grid = win.grid
    storage = Storage(0, grid.N, bs.alpha_u.dtype)
    chunk = storage.chunk
    levels = np.empty(grid.n_steps + 1, chunk.dtype)

    def consume(t: int, rows: np.ndarray) -> None:
        for s in range(0, len(rows), len(chunk)):
            r = rows[s : s + len(chunk)]
            res = np.subtract(r, win.obs[t + s : t + s + len(r)], out=chunk[: len(r)])
            level_misfit(res, res, levels[t + s : t + s + len(r)])

    try:
        run(win.ic, win.stencil, bs, grid, storage, consume)
    except IntegrationDiverged:
        return CostReport(BLOWUP_PENALTY, BLOWUP_PENALTY, 0.0)
    misfit = (time_weights(grid.n_steps, grid.tau) @ levels).item()
    reg = _regularization(x, win)[0]
    return CostReport(misfit + reg, misfit, reg)


def evaluate(x: np.ndarray, win: Window) -> tuple[CostReport, np.ndarray]:
    """Cost and gradient at control vector x over the window.

    A diverged integration costs BLOWUP_PENALTY (+inf) with a zero
    gradient: the line search treats a non-finite value as an infeasible
    step and backtracks out of the unstable region.  Nothing returned
    refers to the window's storage.
    """
    bs = BoundaryScheme.from_control_vector(x, win.J)
    try:
        traj = integrate(win.ic, win.stencil, bs, win.grid, out=win.storage)
    except IntegrationDiverged:
        return CostReport(BLOWUP_PENALTY, BLOWUP_PENALTY, 0.0), np.zeros(control_dim(win.J))
    misfit, res = window_misfit(traj, win.obs)
    reg, reg_grad = _regularization(x, win)
    grad = misfit_gradient(traj, res)
    grad += reg_grad
    return CostReport(misfit + reg, misfit, reg), grad


def make_objective(win: Window):
    """Bind the window for ``lbfgs``: x -> (total cost, gradient)."""

    def f_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        report, grad = evaluate(x, win)
        return report.total, grad

    return f_and_grad
