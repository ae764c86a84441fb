"""Sensitivity of the wave model to the boundary stencil coefficients.

Each time level of the forward model adds a tendency that is bilinear in
(coefficients, state): perturbing the boundary coefficients by d_alpha
injects, at every level, a field that is zero except at the four
controlled derivative rows, with weights read from the unperturbed
trajectory.  ``tlm_run`` propagates such a perturbation forward along the
trajectory's two staggered chains with its chain stack W, sources
included (products of the perturbations between coefficients and state
are dropped, so the map is linear in d_alpha).  ``adjoint_sweep`` applies
the exact transpose of that linear map: one backward pass over the same
chains with W^T that yields the adjoint at the controlled rows, then one
projection of those values onto coefficient space.

Control vector layout (length 4(J+1)), matching
``BoundaryScheme.to_control_vector``:

    [a_u_0..a_u_J, at_u_J..at_u_0, a_p_0..a_p_J, at_p_J..at_p_0]

where ``a``/``at`` are the left/right stencils.  The descending order of
the right-boundary halves makes each controlled row a contiguous dot
product with the adjacent field values.
"""

from __future__ import annotations

import numpy as np

from .exact import Observations
from .wave import BLOCK_LEVELS, Trajectory, advance_chains, controlled_rows, transpose_chains

__all__ = [
    "adjoint_sweep",
    "control_dim",
    "misfit_gradient",
    "split_control",
    "time_weights",
    "tlm_run",
]


def control_dim(J: int) -> int:
    return 4 * (J + 1)


def split_control(dalpha: np.ndarray, J: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a control vector into its u and p halves."""
    dalpha = np.asarray(dalpha, dtype=float)
    if dalpha.shape != (control_dim(J),):
        raise ValueError(
            f"control vector must have length {control_dim(J)}, got {dalpha.shape}"
        )
    w = 2 * (J + 1)
    return dalpha[:w], dalpha[w:]


def _sensitivity(traj: Trajectory) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Controlled rows of A z and their derivatives with respect to the control.

    Returns (rows, S_half, S): perturbing stencil group g (in control-vector
    order) by d_g changes row rows[g] of A z by S[..., g, :] @ d_g, where
    S_half (4, J+1) is read from z_half and S (n_steps, 4, J+1) from levels
    0..n_steps-1, the levels whose tendency the trajectory uses.  Read
    forward it gives the tangent-linear sources; contracted with adjoint
    values it gives their transpose.
    """
    N, J = traj.N, traj.bs.J

    def read(z: np.ndarray) -> np.ndarray:
        return np.stack(
            [
                z[..., : J + 1],  # alpha_u: du/dx at the first half-node
                -z[..., N - J : N + 1],  # alpha_u_tilde: du/dx at the last half-node
                z[..., N + 1 : N + 2 + J],  # alpha_p: dp/dx at node 1
                -z[..., 2 * N - J :],  # alpha_p_tilde: dp/dx at node N-1
            ],
            axis=-2,
        ) / (1.0 / N)

    return controlled_rows(N), read(traj.z_half), read(traj.z[:-1])


def tlm_run(traj: Trajectory, dalpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Propagate a coefficient perturbation along a stored trajectory.

    The perturbation starts from zero fields, so the first step reduces to
    the injected sources.  Returns (du, dp) with du of shape
    (n_steps+1, N+1) (boundary columns stay zero) and dp of shape
    (n_steps+1, N).
    """
    n, N, tau, A = traj.n_steps, traj.N, traj.tau, traj.A
    # One row per stencil group, in control-vector order.
    dg = np.reshape(split_control(dalpha, traj.bs.J), (4, -1))
    rows, S_half, S = _sensitivity(traj)

    # src[t] is the controlled-row source that the tendency of level t-1
    # adds to level t >= 2.
    src = np.zeros((n + 2 * BLOCK_LEVELS + 1, 4))
    src[2 : n + 1] = 2.0 * tau * (S[1:] * dg).sum(axis=-1)
    dz = np.zeros((n + 2 * BLOCK_LEVELS + 1, 2 * N + 1))
    dz_half = np.zeros(2 * N + 1)
    dz_half[rows] = 0.5 * tau * (S[0] * dg).sum(axis=-1)
    dz[1] = tau * (A @ dz_half)
    dz[1, rows] += tau * (S_half * dg).sum(axis=-1)
    advance_chains(dz, traj.W, n, src)
    return dz[: n + 1, : N + 1], dz[: n + 1, N + 1 :]


def _sweep(traj: Trajectory, a: np.ndarray) -> np.ndarray:
    """Adjoint of tlm_run for the stacked forcing a, which is overwritten."""
    n, tau = traj.n_steps, traj.tau
    rows, S_half, S = _sensitivity(traj)
    lam = transpose_chains(a, traj.W, n)

    # Transpose of the sources: level t feeds level t+1 with weight 2 tau,
    # and the split first step feeds a[1] through z_half and through z_0.
    w = np.empty((n, 4))
    w[0] = 0.5 * tau * (tau * (a[1] @ traj.A[:, rows]))
    w[1:] = 2.0 * tau * lam[2 : n + 1]
    g = np.einsum("tgj,tg->gj", S, w) + S_half * (tau * a[1, rows])[:, None]
    return g.ravel()


def adjoint_sweep(
    traj: Trajectory, forcing_u: np.ndarray, forcing_p: np.ndarray
) -> np.ndarray:
    """Fold per-level forcing fields back onto coefficient space.

    Returns the vector g with  <tlm_run(d), (forcing_u, forcing_p)> = <d, g>
    for every control perturbation d, where the left side is the plain
    Euclidean product over all levels and grid points.  forcing_u has shape
    (n_steps+1, N+1) (boundary columns are ignored: the perturbation is
    identically zero there) and forcing_p (n_steps+1, N).  Level 0
    contributes nothing because the perturbation trajectory starts at zero.
    """
    if forcing_u.shape != traj.u.shape or forcing_p.shape != traj.p.shape:
        raise ValueError(
            f"forcing shapes {forcing_u.shape}, {forcing_p.shape} do not match "
            f"the trajectory {traj.u.shape}, {traj.p.shape}"
        )
    return _sweep(traj, np.concatenate([forcing_u, forcing_p], axis=1, dtype=float))


def time_weights(m: int, tau: float) -> np.ndarray:
    """Trapezoid weights for the time integral over levels 0..m."""
    if m < 1:
        raise ValueError(f"need at least one step in the window, got m = {m}")
    w = np.full(m + 1, tau)
    w[0] = w[-1] = 0.5 * tau
    return w


def misfit_gradient(
    traj: Trajectory, obs: Observations, out: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Windowed misfit cost and its gradient with respect to the control vector.

    The cost is the trapezoid time integral over the trajectory's levels of
    the spatial integral of (u - u_obs)^2 + (p - p_obs)^2 (weight h on the
    p half-nodes and interior u nodes; u vanishes at the walls), so the
    adjoint forcing at level t is 2 w_t h (misfit fields).  The
    observations must cover at least as many levels as the trajectory
    stores.  out, if given, is the traj.z-shaped forcing storage.
    """
    m, N = traj.n_steps, traj.N
    if obs.n_levels < m + 1:
        raise ValueError(
            f"observations cover {obs.n_levels} levels, trajectory needs {m + 1}"
        )
    h = 1.0 / N
    w = time_weights(m, traj.tau)
    res = np.empty_like(traj.z) if out is None else out
    np.subtract(traj.u, obs.u[: m + 1], out=res[:, : N + 1])
    np.subtract(traj.p, obs.p[: m + 1], out=res[:, N + 1 :])
    core = res[:, 1:N]
    dp = res[:, N + 1 :]
    level_misfit = h * ((core * core).sum(axis=1) + (dp * dp).sum(axis=1))
    res *= 2.0 * h * w[:, None]
    return float(w @ level_misfit), _sweep(traj, res)
