"""Shared builders and independent oracle helpers for the test suite.

The naive_* helpers re-implement the discrete operators with explicit
index loops straight from their definitions; they stay deliberately
separate from the vectorized library code so the two can check each
other.
"""

import contextlib

import numpy as np
import pytest

from waveassim import minimize
from waveassim.adjoint import tlm_run
from waveassim.exact import ModeSpec, sample_observations
from waveassim.wave import BoundaryScheme, GridSpec, interior_stencil


def make_setup(k=3, N=30, tau=1.0 / 120.0, n_steps=720, order=2, J=1):
    """Grid, stencil, classical scheme, observations, and start state for mode k."""
    grid = GridSpec(N, tau, n_steps)
    stencil = interior_stencil(order)
    bs = BoundaryScheme.classical(J)
    modes = (ModeSpec(k, 1.0, 1.0),)
    obs = sample_observations(modes, grid)
    ic = obs[0].copy()
    return grid, stencil, bs, modes, obs, ic


@contextlib.contextmanager
def minimizer(**values):
    """The minimizer's module constants set for the block, named in lower case.

    minimizer(max_iters=50, grad_tol=1e-12) sets minimize.MAX_ITERS and
    minimize.GRAD_TOL and restores both on exit; an unknown name raises.
    """
    with pytest.MonkeyPatch.context() as mp:
        for name, value in values.items():
            mp.setattr(minimize, name.upper(), value)
        yield


def tlm(traj, dalpha):
    """tlm_run on a new buffer shaped like the trajectory's storage z."""
    return tlm_run(traj, dalpha, np.empty_like(traj.storage.z))


def split(z, N):
    """The u and p parts of stacked rows."""
    return z[..., : N + 1], z[..., N + 1 :]


def naive_misfit(traj, obs):
    """The window misfit of traj against obs, and the residual traj.z - obs, written longhand.

    The trapezoid rule in time over the trajectory's levels of the squared
    residual, weight h on the interior u nodes and the p half-nodes: the
    bits of ``objective``'s misfit.  The residual is a new array.
    """
    m, N, h = traj.n_steps, traj.N, 1.0 / traj.N
    w = np.full(m + 1, traj.tau)
    w[0] = w[-1] = 0.5 * traj.tau
    res = traj.z - obs[: m + 1]
    core, dp = res[:, 1:N], res[:, N + 1 :]
    return float(w @ (h * ((core * core).sum(axis=1) + (dp * dp).sum(axis=1)))), res


def naive_derivative_p(p, a, alpha_p, alpha_p_tilde, N, h):
    """Loop implementation of dp/dx at interior nodes, straight from the row definitions."""
    J = len(alpha_p) - 1
    out = np.zeros(N - 1)
    out[0] = sum(alpha_p[j] * p[j] for j in range(J + 1)) / h
    for i in range(2, N - 1):
        out[i - 1] = sum(a[j + 1] * p[i + j - 1] for j in range(-1, 3)) / h
    out[N - 2] = -sum(alpha_p_tilde[j] * p[N - 1 - j] for j in range(J + 1)) / h
    return out


def naive_derivative_u(u, a, alpha_u, alpha_u_tilde, N, h):
    """Loop implementation of du/dx at the half nodes."""
    J = len(alpha_u) - 1
    out = np.zeros(N)
    out[0] = sum(alpha_u[j] * u[j] for j in range(J + 1)) / h
    for i in range(1, N - 1):
        out[i] = sum(a[j + 1] * u[i + j] for j in range(-1, 3)) / h
    out[N - 1] = -sum(alpha_u_tilde[j] * u[N - j] for j in range(J + 1)) / h
    return out


def naive_first_step(u0, p0, a, bs, N, h, tau):
    """Two-stage Euler start written longhand."""
    du0 = naive_derivative_p(p0, a, bs.alpha_p, bs.alpha_p_tilde, N, h)
    dp0 = naive_derivative_u(u0, a, bs.alpha_u, bs.alpha_u_tilde, N, h)
    u_half = u0.copy()
    u_half[1:-1] = u0[1:-1] + 0.5 * tau * du0
    p_half = p0 + 0.5 * tau * dp0
    du_half = naive_derivative_p(p_half, a, bs.alpha_p, bs.alpha_p_tilde, N, h)
    dp_half = naive_derivative_u(u_half, a, bs.alpha_u, bs.alpha_u_tilde, N, h)
    u1 = u0.copy()
    u1[1:-1] = u0[1:-1] + tau * du_half
    p1 = p0 + tau * dp_half
    return (u_half, p_half), (u1, p1)


def naive_leapfrog_step(u_prev, p_prev, u_curr, p_curr, a, bs, N, h, tau):
    """One leapfrog step written longhand: levels n-1 and n in, level n+1 out."""
    u_new = u_prev.copy()
    u_new[1:-1] = u_prev[1:-1] + 2 * tau * naive_derivative_p(
        p_curr, a, bs.alpha_p, bs.alpha_p_tilde, N, h
    )
    p_new = p_prev + 2 * tau * naive_derivative_u(u_curr, a, bs.alpha_u, bs.alpha_u_tilde, N, h)
    return u_new, p_new


def naive_integrate(u0, p0, a, bs, N, h, tau, n_steps):
    """Levels 0..n_steps as (u, p) arrays, one longhand step per level."""
    _, (u1, p1) = naive_first_step(u0, p0, a, bs, N, h, tau)
    us, ps = [u0, u1], [p0, p1]
    for _ in range(1, n_steps):
        u, p = naive_leapfrog_step(us[-2], ps[-2], us[-1], ps[-1], a, bs, N, h, tau)
        us.append(u)
        ps.append(p)
    return np.array(us), np.array(ps)


def exact_mode(k, x, t):
    """Unit-amplitude mode with u(x,0) = sin(k pi x), p(x,0) = cos(k pi x), in closed form."""
    x = np.asarray(x, dtype=float)
    w = k * np.pi
    u = -np.sqrt(2.0) * np.sin(w * t - np.pi / 4.0) * np.sin(w * x)
    p = np.sqrt(2.0) * np.cos(w * t - np.pi / 4.0) * np.cos(w * x)
    return u, p


def phase_fit_speed(traj, k, N):
    """Measured phase speed of mode k from a trajectory.

    Projects u onto sin(k pi x) and p onto cos(k pi x), unwraps the phase of
    the rotating pair, and fits its slope; returns the speed ratio (angular
    rate divided by k pi).  Independent of the dispersion formulas.
    """
    x_nodes = np.arange(N + 1) / N
    x_half = (np.arange(N) + 0.5) / N
    s = np.sin(k * np.pi * x_nodes)
    c = np.cos(k * np.pi * x_half)
    f = traj.u @ s / (s @ s)
    g = traj.p @ c / (c @ c)
    theta = np.unwrap(np.arctan2(-f, g))
    rate = np.polyfit(np.arange(len(theta)) * traj.tau, theta, 1)[0]
    return abs(rate) / (k * np.pi)


def compensation_coefficient(kappa, h, tau):
    """Compensating u-derivative factor of the second-order scheme, in closed form.

    c(kappa) = h^2 sin(kappa tau) / ((h^2 - h/2) sin(kappa tau) + tau sin(kappa h / 2)).
    """
    s = np.sin(kappa * tau)
    return h * h * s / ((h * h - 0.5 * h) * s + tau * np.sin(0.5 * kappa * h))


def first_peak_and_return(times, xi):
    """(t_peak, xi_peak, t_return, xi_return): the global maximum, the least value after it."""
    i_peak = int(np.argmax(xi))
    i_ret = i_peak + int(np.argmin(xi[i_peak:]))
    return float(times[i_peak]), float(xi[i_peak]), float(times[i_ret]), float(xi[i_ret])


def _span(times, t0, t1=None):
    """The samples of [t0, t1]; t1 defaults to the last time."""
    if t1 is None:
        t1 = float(times[-1])
    mask = (times >= t0) & (times <= t1)
    if mask.sum() < 2:
        raise ValueError(f"window [{t0}, {t1}] selects fewer than two samples")
    return mask


def plateau_level(times, xi, t0, t1=None):
    """Mean error level over [t0, t1]."""
    return float(np.mean(xi[_span(times, t0, t1)]))


def log_growth_rate(times, xi, t0, t1):
    """Slope of log(xi) over [t0, t1]; exponential-equivalent growth rate."""
    mask = _span(times, t0, t1)
    return float(np.polyfit(times[mask], np.log(np.maximum(xi[mask], 1e-300)), 1)[0])


def trend_drift(times, xi, t0, t1):
    """(|slope| * span, std of the detrended series) of xi over [t0, t1].

    A series with no trend growth has drift at or below the oscillation scale.
    """
    mask = _span(times, t0, t1)
    t, y = times[mask], xi[mask]
    slope, intercept = np.polyfit(t, y, 1)
    return float(abs(slope) * (t[-1] - t[0])), float(np.std(y - (slope * t + intercept)))


@pytest.fixture
def k3_small():
    """Small, fast k = 3 window setup shared by adjoint/objective tests."""
    return make_setup(k=3, N=30, tau=1.0 / 120.0, n_steps=240, order=2, J=1)
