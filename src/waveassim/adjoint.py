"""Sensitivity of the wave model to the boundary stencil coefficients.

Each time level of the forward model adds a tendency that is bilinear in
(coefficients, state): perturbing the boundary coefficients by d_alpha
injects, at every level, a field that is zero except at the four
controlled derivative rows, with weights read from the unperturbed
trajectory.  ``tlm_run`` computes those sources and has
``wave.advance_chains`` step them forward from zero fields (products of
the perturbations between coefficients and state are dropped, so the map
is linear in d_alpha).  ``adjoint_sweep`` applies the exact transpose of
that linear map: ``wave.transpose_chains`` yields the adjoint of the
sources, then one projection takes it onto coefficient space.  Both keep
the stacked layout of the trajectory: ``tlm_run`` returns dz shaped like
traj.z and ``adjoint_sweep`` takes a forcing of that shape.  Both take
their scratch from the trajectory's ``wave.Storage``.  The misfit, its
weights and the forcing they give the adjoint are ``objective``'s.

The control vector is ``BoundaryScheme.to_control_vector``; the operator
entries each of its four stencil groups sets, and so the sensitivity of
the model to it, are laid out once by ``wave.boundary_entries``.
"""

from __future__ import annotations

import numpy as np

from .wave import Trajectory, advance_chains, boundary_entries, transpose_chains

__all__ = ["adjoint_sweep", "control_dim", "tlm_run"]


def control_dim(J: int) -> int:
    return 4 * (J + 1)


def _sensitivity(z: np.ndarray, J: int) -> np.ndarray:
    """Derivatives of the controlled rows of A z with respect to the control.

    z holds stacked rows (..., 2N+1).  Returns S (..., 4, J+1): perturbing
    stencil group g (in control-vector order) by d_g changes row rows[g] of
    A z by S[..., g, :] @ d_g, with rows from ``boundary_entries``.  Read
    forward it gives the tangent-linear sources; contracted with adjoint
    values it gives their transpose.
    """
    N = z.shape[-1] // 2
    _, cols, sign = boundary_entries(N, J)
    S = z[..., cols]  # a copy, scaled in place: sign * z / h
    S *= sign[:, None]
    S /= 1.0 / N
    return S


def tlm_run(traj: Trajectory, dalpha: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Propagate a coefficient perturbation along a stored trajectory.

    The perturbation starts from zero fields and is driven by the tendency
    sources of every level.  Returns dz, shaped like traj.z (its u wall
    columns stay zero), as the leading rows of out: the buffer filled,
    shaped like traj.storage.z but other than it.
    """
    n, J = traj.n_steps, traj.bs.J
    dalpha = np.asarray(dalpha, dtype=float)
    if dalpha.shape != (control_dim(J),):
        raise ValueError(f"control vector must have length {control_dim(J)}, got {dalpha.shape}")
    if out.shape != traj.storage.z.shape:
        raise ValueError(
            f"out of shape {out.shape} is not shaped like the storage's z {traj.storage.z.shape}"
        )
    dg = dalpha.reshape(4, J + 1)  # one row per stencil group, in control-vector order
    S_half, S = _sensitivity(traj.z_half, J), _sensitivity(traj.z[:-1], J)
    out[0] = 0.0
    q, q_half = (S * dg).sum(-1), (S_half * dg).sum(-1)
    advance_chains(out, traj.A, traj.storage, traj.tau, n, q, q_half)
    return out[: n + 1]


def adjoint_sweep(traj: Trajectory, forcing: np.ndarray) -> np.ndarray:
    """Fold per-level forcing back onto coefficient space.

    Returns the vector g with  <tlm_run(d), forcing> = <d, g>  for every
    control perturbation d, where the left side is the plain Euclidean
    product over all levels and grid points.  forcing is shaped like
    traj.z (its u wall columns are ignored: the perturbation is identically
    zero there).  Level 0 contributes nothing because the perturbation
    trajectory starts at zero.
    """
    if np.shape(forcing) != traj.z.shape:
        raise ValueError(
            f"forcing shape {np.shape(forcing)} does not match the trajectory {traj.z.shape}"
        )
    J = traj.bs.J
    S_half, S = _sensitivity(traj.z_half, J), _sensitivity(traj.z[:-1], J)
    a = np.asarray(forcing, dtype=float)
    w, w_half = transpose_chains(a, traj.A, traj.storage, traj.tau)
    g = np.einsum("tgj,tg->gj", S, w) + S_half * w_half[:, None]
    return g.ravel()

