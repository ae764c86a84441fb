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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exact import ModeSpec, exact_fields
from .wave import GridSpec, Trajectory

__all__ = [
    "DispersionReport",
    "beta2",
    "beta4",
    "compensation_coefficient",
    "dispersion_report",
    "first_peak_and_return",
    "fit_kernel_line",
    "h_modified_ratio",
    "kernel_tangent",
    "log_growth_rate",
    "period_slip_time",
    "plateau_level",
    "predicted_c_p",
    "predicted_c_u",
    "second_order_c_singularity",
    "trend_drift",
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


def compensation_coefficient(kappa: float, h: float, tau: float) -> float:
    """Compensating u-derivative factor as a function of angular wavenumber.

    c(kappa) = h^2 sin(kappa tau) / ((h^2 - h/2) sin(kappa tau)
               + tau sin(kappa h / 2)); second-order interior scheme.
    """
    return h * h * np.sin(kappa * tau) / _compensation_denominator(kappa, h, tau)


def _compensation_denominator(kappa, h: float, tau: float):
    return (h * h - 0.5 * h) * np.sin(kappa * tau) + tau * np.sin(0.5 * kappa * h)


def second_order_c_singularity(h: float, tau: float) -> float:
    """Angular wavenumber where the compensating factor blows up and flips sign.

    Returns the smallest positive root of the denominator of
    ``compensation_coefficient``; modes beyond it would need a negative,
    unstable boundary coefficient and cannot be compensated.
    """
    # Imported here, not at module level: this is the package's only scipy
    # use, and loading scipy.optimize adds about 0.5 s and 49 MB to every
    # command, while only ``dispersion`` needs it.
    from scipy.optimize import brentq

    # The denominator starts positive (~ kappa tau h^2); scan for the first
    # sign change at a resolution finer than both oscillation scales.
    k_max = np.pi / min(tau, 0.5 * h)
    grid = np.linspace(0.0, k_max, 20001)[1:]
    values = _compensation_denominator(grid, h, tau)
    sign_flip = np.nonzero(values <= 0.0)[0]
    if sign_flip.size == 0:
        raise ValueError(f"no singularity below kappa = {k_max:.3g} for h = {h}, tau = {tau}")
    i = sign_flip[0]
    lo = grid[i - 1] if i > 0 else grid[0] * 0.5
    return float(
        brentq(_compensation_denominator, lo, grid[i], args=(h, tau), xtol=1e-13, rtol=8.9e-16)
    )


@dataclass(frozen=True)
class DispersionReport:
    """Closed-form predictions for one mode on one grid."""

    k: int
    beta2: float
    beta4: float
    h_mod_ratio: float
    c_u: float
    c_p: float
    T_shift: float
    kernel_tangent: float


def dispersion_report(k: int, N: int, tau: float) -> DispersionReport:
    h = 1.0 / N
    b2 = beta2(k, h, tau)
    ratio = h_modified_ratio(N, b2)
    return DispersionReport(
        k=k,
        beta2=b2,
        beta4=beta4(k, h, tau),
        h_mod_ratio=ratio,
        c_u=predicted_c_u(N, b2),
        c_p=predicted_c_p(N, b2),
        T_shift=period_slip_time(k, b2),
        kernel_tangent=kernel_tangent(k, h),
    )


# Levels of exact fields that xi_series samples and reduces at a time.  A
# chunk's (XI_CHUNK, 2N+1) arrays stay under glibc's default 128 kB mmap
# threshold at N = 30, so they reuse heap pages instead of faulting in fresh
# ones per chunk.
XI_CHUNK = 256


def xi_series(
    traj: Trajectory, modes: Sequence[ModeSpec]
) -> tuple[np.ndarray, np.ndarray]:
    """Grid-point error sum against the exact solution at every level.

    xi(t) = sum_i (u_i - u_exact)^2 + sum_i (p_{i-1/2} - p_exact)^2,
    an unweighted sum over grid points.
    """
    N = traj.N
    grid = GridSpec(N, traj.tau, traj.n_steps)
    times = traj.times
    xi = np.empty(times.size)
    for t0 in range(0, times.size, XI_CHUNK):
        rows = slice(t0, t0 + XI_CHUNK)
        dz = exact_fields(modes, grid, times[rows])
        np.square(np.subtract(traj.z[rows], dz, out=dz), out=dz)
        xi[rows] = dz[:, : N + 1].sum(axis=1)
        xi[rows] += dz[:, N + 1 :].sum(axis=1)
    return times, xi


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


def first_peak_and_return(
    times: np.ndarray, xi: np.ndarray
) -> tuple[float, float, float, float]:
    """Locate the first error maximum and the following minimum.

    Returns (t_peak, xi_peak, t_return, xi_return) using the global maximum
    and the smallest value after it; adequate for the beat-shaped error of
    a mis-sped single mode.
    """
    i_peak = int(np.argmax(xi))
    tail = xi[i_peak:]
    i_ret = i_peak + int(np.argmin(tail))
    return float(times[i_peak]), float(xi[i_peak]), float(times[i_ret]), float(xi[i_ret])


def _window(times: np.ndarray, t0: float, t1: float | None) -> np.ndarray:
    if t1 is None:
        t1 = float(times[-1])
    mask = (times >= t0) & (times <= t1)
    if mask.sum() < 2:
        raise ValueError(f"window [{t0}, {t1}] selects fewer than two samples")
    return mask


def plateau_level(times: np.ndarray, xi: np.ndarray, t0: float, t1: float | None = None) -> float:
    """Mean error level over [t0, t1]."""
    mask = _window(times, t0, t1)
    return float(np.mean(xi[mask]))


def log_growth_rate(times: np.ndarray, xi: np.ndarray, t0: float, t1: float | None = None) -> float:
    """Slope of log(xi) over [t0, t1]; exponential-equivalent growth rate."""
    mask = _window(times, t0, t1)
    return float(np.polyfit(times[mask], np.log(np.maximum(xi[mask], 1e-300)), 1)[0])


def trend_drift(
    times: np.ndarray, xi: np.ndarray, t0: float, t1: float | None = None
) -> tuple[float, float]:
    """Linear drift of xi over [t0, t1] versus its oscillation scale.

    Returns (|slope| * span, std of the detrended series); a series with no
    trend growth has drift at or below the oscillation scale.
    """
    mask = _window(times, t0, t1)
    t = times[mask]
    y = xi[mask]
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    return float(abs(slope) * (t[-1] - t[0])), float(np.std(resid))
