"""Dispersion-theory predictions and trajectory error diagnostics.

The leapfrog staggered scheme propagates mode k with a wave speed that
differs from 1; the ``beta2``/``beta4`` closed forms quantify that speed
ratio for the two interior stencils.  A boundary stencil cannot fix the
speed, but it can rescale the two cells adjacent to the boundaries so
the mis-sped wave traverses an effectively modified interval in the
right time; ``h_modified_ratio`` and the predicted coefficients
``predicted_c_u``/``predicted_c_p`` express that compensation, and
``kernel_tangent`` gives the slope of the line of p-stencil pairs that
leave the derivative of the cosine mode unchanged (the flat direction of
the misfit Hessian).  All formulas take the mode integer k and use the
angular wavenumber k*pi internally.

``xi_series`` measures trajectory error against the exact solution as a
plain grid-point sum of squares (no quadrature weight), the convention
used for all quoted error levels; multiply by h for the integral norm.
It samples the exact fields a chunk of levels at a time, not all at once.
``horizon_report`` gives the same series, and strided u rows, for a run
that it steps, checks and reduces a chunk at a time without storing it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .exact import ModeSpec, exact_fields, mode_shapes
from .wave import BLOCK_LEVELS, CHUNK, DEFAULT_BLOWUP_THRESHOLD, BoundaryScheme, GridSpec
from .wave import InteriorStencil, Storage, Trajectory, advance_chains, check_levels, start_run

__all__ = [
    "beta2",
    "beta4",
    "dispersion_report",
    "fit_kernel_line",
    "h_modified_ratio",
    "horizon_report",
    "kernel_tangent",
    "period_slip_time",
    "predicted_c_p",
    "predicted_c_u",
    "second_order_c_singularity",
    "xi_series",
]


def beta2(k: int, h: float, tau: float) -> float:
    """Numerical/exact wave-speed ratio of the second-order interior scheme.

    Exactly 1.0 when tau = h/2: the two sine arguments coincide bit for bit.
    """
    kappa = k * np.pi
    s = np.sin(kappa * (0.5 * h))
    if abs(s) < 1e-12:
        raise ZeroDivisionError(f"mode k = {k} is not resolvable on h = {h}")
    return h * np.sin(kappa * tau) / (2.0 * tau * s)


def beta4(k: int, h: float, tau: float) -> float:
    """Numerical/exact wave-speed ratio of the fourth-order interior scheme."""
    kappa = k * np.pi
    s = 27.0 * np.sin(kappa * (0.5 * h)) - np.sin(kappa * (1.5 * h))
    if abs(s) < 1e-12:
        raise ZeroDivisionError(f"mode k = {k} is not resolvable on h = {h}")
    return 12.0 * h * np.sin(kappa * tau) / (tau * s)


def h_modified_ratio(N: int, beta: float) -> float:
    """Length ratio of the two boundary cells that compensates speed ratio beta."""
    return 1.0 - 0.5 * N * (beta - 1.0) / beta


def predicted_c_u(N: int, beta: float) -> float:
    """Predicted factor on the classical u derivative at the boundary rows."""
    return 1.0 / h_modified_ratio(N, beta)


def predicted_c_p(N: int, beta: float) -> float:
    """Predicted factor on the classical p derivative at the boundary rows.

    The first p derivative spans half a modified cell and half a regular
    one, hence 2 / (ratio + 1) instead of 1 / ratio.
    """
    return 2.0 / (h_modified_ratio(N, beta) + 1.0)


def kernel_tangent(k: int, h: float) -> float:
    """Slope d(alpha_p_1)/d(alpha_p_0) of the p-stencil null line for mode k.

    Displacements along this line change the two coefficients so that
    their combination with the cosine mode values at the first two
    half-nodes stays constant; cos(3t) = 4cos^3(t) - 3cos(t) reduces the
    value ratio to the closed form below.
    """
    c = np.cos(0.5 * k * np.pi * h)
    return -1.0 / (4.0 * c * c - 3.0)


def period_slip_time(k: int, beta: float) -> float:
    """Time for the numerical mode-k wave to slip one full period.

    At this time the numerical and exact solutions realign and the error
    norm returns to (near) zero; the error peaks at half of it.
    """
    return (2.0 / k) / abs(beta - 1.0)


def _compensation_denominator(kappa, h: float, tau: float):
    return (h * h - 0.5 * h) * np.sin(kappa * tau) + tau * np.sin(0.5 * kappa * h)


def second_order_c_singularity(h: float, tau: float) -> float | None:
    """Angular wavenumber where the compensating factor blows up and flips sign.

    The compensating u-derivative factor of the second-order interior
    scheme is

        c(kappa) = h^2 sin(kappa tau) / ((h^2 - h/2) sin(kappa tau)
                   + tau sin(kappa h / 2)).

    Returns the smallest positive root of its denominator; modes beyond it
    would need a negative, unstable boundary coefficient and cannot be
    compensated.  None when the denominator has no root below
    pi / min(tau, h/2), the end of the scan.
    """
    # The denominator starts positive (~ kappa tau h^2); scan for the first
    # sign change at a resolution finer than both oscillation scales.
    k_max = np.pi / min(tau, 0.5 * h)
    grid = np.linspace(0.0, k_max, 20001)[1:]
    values = _compensation_denominator(grid, h, tau)
    sign_flip = np.nonzero(values <= 0.0)[0]
    if sign_flip.size == 0:
        return None
    i = sign_flip[0]
    lo, hi = (grid[i - 1] if i > 0 else grid[0] * 0.5), grid[i]
    # Bisect the bracket (denominator > 0 at lo, <= 0 at hi) down to two
    # adjacent floats, then take the one with the smaller residual.
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _compensation_denominator(mid, h, tau) > 0.0:
            lo = mid
        else:
            hi = mid
    return float(min(lo, hi, key=lambda k: abs(_compensation_denominator(k, h, tau))))


def dispersion_report(k: int, N: int, tau: float) -> dict[str, float]:
    """Closed-form predictions for mode k on N cells with time step tau.

    The keys are the ones result.json and markers.json print per mode.
    """
    h = 1.0 / N
    b2 = beta2(k, h, tau)
    return {
        "beta2_minus_1": b2 - 1.0,
        "beta4_minus_1": beta4(k, h, tau) - 1.0,
        "h_mod_ratio": h_modified_ratio(N, b2),
        "c_u": predicted_c_u(N, b2),
        "c_p": predicted_c_p(N, b2),
        "T_shift": period_slip_time(k, b2),
        "kernel_tangent": kernel_tangent(k, h),
    }


# Levels of exact fields that xi_series samples and reduces at a time.  Each
# series builds the mode shapes and one (XI_CHUNK, 2N+1) buffer of exact rows
# once and refills it per chunk; the chunk size bounds that buffer and the
# per-mode product that exact_fields adds into it (125 kB each at N = 30).
XI_CHUNK = 256


def xi_series(
    traj: Trajectory, modes: Sequence[ModeSpec]
) -> tuple[np.ndarray, np.ndarray]:
    """Grid-point error sum against the exact solution at every level.

    xi(t) = sum_i (u_i - u_exact)^2 + sum_i (p_{i-1/2} - p_exact)^2,
    an unweighted sum over grid points.
    """
    grid = GridSpec(traj.N, traj.tau, traj.n_steps)
    xi = np.empty(grid.n_steps + 1)
    _xi_rows(modes, grid)(traj.z, grid.times, xi)
    return grid.times, xi


def _xi_rows(modes, grid: GridSpec):
    """A function that writes the xi of stacked rows z at times into xi.

    It reduces XI_CHUNK levels at a time into exact rows that it refills:
    the mode shapes and that buffer are made once, here, for every call.
    """
    shapes = mode_shapes(modes, grid)
    exact = np.empty((XI_CHUNK, 2 * grid.N + 1))

    def reduce(z: np.ndarray, times: np.ndarray, xi: np.ndarray) -> None:
        for t0 in range(0, times.size, XI_CHUNK):
            rows = slice(t0, t0 + XI_CHUNK)
            dz = exact_fields(modes, grid, times[rows], shapes, exact[: len(times[rows])])
            np.square(np.subtract(z[rows], dz, out=dz), out=dz)
            xi[rows] = dz[:, : grid.N + 1].sum(axis=1)
            xi[rows] += dz[:, grid.N + 1 :].sum(axis=1)

    return reduce


def horizon_report(
    z0: np.ndarray, stencil: InteriorStencil, bs: BoundaryScheme, grid: GridSpec,
    modes: Sequence[ModeSpec], stride: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """xi_series of the run from z0 and, with a stride, its u rows at levels 0, stride, ...

    The bits and IntegrationDiverged of integrate + xi_series, but each chunk of
    levels is checked and reduced as it is stepped in a one-chunk Storage, so
    no trajectory is stored.
    """
    times, xi = grid.times, np.empty(grid.n_steps + 1)
    u = None if stride is None else np.empty((len(times[::stride]), grid.N + 1))
    reduce_xi = _xi_rows(modes, grid)

    def consume(t: int, rows: np.ndarray) -> None:
        check_levels(rows[1:] if t == 0 else rows, t or 1, grid.tau, DEFAULT_BLOWUP_THRESHOLD)
        reduce_xi(rows, times[t : t + len(rows)], xi[t : t + len(rows)])
        if stride is not None:
            sampled = rows[-t % stride :: stride, : grid.N + 1]
            u[-(-t // stride) :][: len(sampled)] = sampled

    storage = Storage(min(grid.n_steps, 2 * BLOCK_LEVELS * CHUNK), grid.N)
    A = start_run(z0, stencil, bs, grid, storage)
    advance_chains(storage.z, A, storage, grid.tau, grid.n_steps, emit=consume)
    return times, xi, u


def fit_kernel_line(points: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    """Least-squares line through (alpha_p_0, alpha_p_1) pairs.

    Returns (slope, intercept, rms residual).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError(f"need at least two (x, y) points, got shape {pts.shape}")
    slope, intercept = np.polyfit(pts[:, 0], pts[:, 1], 1)
    residual = pts[:, 1] - (slope * pts[:, 0] + intercept)
    return float(slope), float(intercept), float(np.sqrt(np.mean(residual**2)))
