"""Cost function, norm, regularization, and their assembly."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_setup, split
from waveassim.adjoint import misfit_gradient
from waveassim.analysis import xi_series
from waveassim.objective import (
    BLOWUP_PENALTY,
    CostConfig,
    CostReport,
    evaluate,
    make_objective,
    window_steps,
)
from waveassim.wave import BoundaryScheme, GridSpec, integrate, second_order


@pytest.fixture
def grid30():
    return GridSpec(30, 1.0 / 120.0, 720)


def state_norm2(du, dp, grid):
    """Per-level misfit of a zero trajectory against observations (-du, -dp).

    Both levels of the one-step window are equal, so the windowed misfit
    divided by tau is that level's norm.
    """
    one = replace(grid, n_steps=1)
    traj = integrate(np.zeros(2 * grid.N + 1), second_order(), BoundaryScheme.classical(1), one)
    obs = -np.tile(np.concatenate([du, dp]), (2, 1))
    return misfit_gradient(traj, obs)[0] / one.tau


class TestStateNorm:
    """The per-level misfit is the discrete state norm of the residual fields:
    weight h on the p half-nodes and interior u nodes, zero on the walls."""

    def test_zero_fields(self, grid30):
        assert state_norm2(np.zeros(31), np.zeros(30), grid30) == 0.0

    def test_sine_mode_discrete_parseval(self, grid30):
        du = np.sin(3 * np.pi * grid30.x_nodes)
        assert state_norm2(du, np.zeros(30), grid30) == pytest.approx(0.5, rel=1e-12)

    def test_boundary_nodes_carry_no_weight(self, grid30):
        du = np.zeros(31)
        du[0] = 5.0
        du[-1] = -7.0
        assert state_norm2(du, np.zeros(30), grid30) == 0.0

    def test_shape_check(self, grid30):
        with pytest.raises(ValueError):
            state_norm2(np.zeros(30), np.zeros(30), grid30)

    @settings(max_examples=20, deadline=None)
    @given(c=st.floats(-10.0, 10.0, allow_nan=False))
    def test_quadratic_scaling(self, c):
        grid = GridSpec(12, 0.01, 5)
        rng = np.random.default_rng(0)
        du = rng.standard_normal(13)
        dp = rng.standard_normal(12)
        base = state_norm2(du, dp, grid)
        assert state_norm2(c * du, c * dp, grid) == pytest.approx(c * c * base, rel=1e-12)


class TestCostConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CostConfig(T_window=-1.0)
        with pytest.raises(ValueError):
            CostConfig(T_window=1.0, eta=-2.0)

    def test_window_steps(self, grid30):
        assert window_steps(CostConfig(T_window=6.0), grid30) == 720
        assert window_steps(CostConfig(T_window=1.0), grid30) == 120
        with pytest.raises(ValueError):
            window_steps(CostConfig(T_window=6.001), grid30)
        with pytest.raises(ValueError):
            window_steps(CostConfig(T_window=7.0), grid30)  # beyond horizon

    def test_report_invariant(self):
        with pytest.raises(ValueError):
            CostReport(-1.0, 0.0, 0.0)


class TestEvaluate:
    def test_perfect_twin_zero_cost_zero_gradient(self):
        grid, stencil, bs, modes, obs, ic = make_setup(n_steps=120)
        traj = integrate(ic, stencil, bs, grid)
        report, g = evaluate(
            bs.to_control_vector(), CostConfig(T_window=1.0), traj.z.copy(), ic, stencil, grid, 1
        )
        assert report.total == 0.0
        assert report.misfit == 0.0
        assert np.abs(g).max() < 1e-14
        assert report.total == report.misfit + report.regularization

    def test_regularization_arithmetic(self):
        # eta (sum alpha)^2 with alpha_p = (-1.5, 1.55): R = 1e3 * 0.05^2 = 2.5
        # and each alpha_p component gets gradient 2 * 1e3 * 0.05 = 100.
        grid, stencil, _, modes, obs, ic = make_setup(n_steps=60)
        bs = BoundaryScheme([-1.0, 1.0], [-1.5, 1.55], [-1.0, 1.0], [-1.0, 1.0])
        traj = integrate(ic, stencil, bs, grid)
        report, g = evaluate(
            bs.to_control_vector(),
            CostConfig(T_window=0.5, eta=1e3),
            traj.z.copy(),
            ic,
            stencil,
            grid,
            1,
        )
        assert report.misfit == 0.0
        assert report.regularization == pytest.approx(2.5, rel=1e-10)
        assert report.total == pytest.approx(2.5, rel=1e-10)
        np.testing.assert_allclose(g[4:6], 100.0, rtol=1e-10)  # alpha_p block
        np.testing.assert_allclose(g[:4], 0.0, atol=1e-12)  # zero-sum groups
        np.testing.assert_allclose(g[6:], 0.0, atol=1e-12)

    def test_blowup_penalty(self):
        grid, stencil, _, modes, obs, ic = make_setup(n_steps=720)
        flipped = BoundaryScheme([1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, 1.0])
        report, g = evaluate(
            flipped.to_control_vector(), CostConfig(T_window=6.0), obs, ic, stencil, grid, 1
        )
        assert report.total == BLOWUP_PENALTY == math.inf
        assert not g.any()
        assert report.misfit == BLOWUP_PENALTY and report.regularization == 0.0

    def test_gradient_with_regularization_vs_fd(self):
        grid, stencil, bs, modes, obs, ic = make_setup(n_steps=240)
        cfg = CostConfig(T_window=2.0, eta=1e3)
        x0 = bs.to_control_vector() + np.array(
            [0.011, -0.007, 0.013, -0.009, 0.008, 0.012, -0.011, 0.009]
        )
        _, g = evaluate(x0, cfg, obs, ic, stencil, grid, 1)
        eps = 1e-5
        fd = np.zeros(8)
        for j in range(8):
            e = np.zeros(8)
            e[j] = eps
            rp, _ = evaluate(x0 + e, cfg, obs, ic, stencil, grid, 1)
            rm, _ = evaluate(x0 - e, cfg, obs, ic, stencil, grid, 1)
            fd[j] = (rp.total - rm.total) / (2 * eps)
        rel = np.abs(g - fd) / np.maximum(np.abs(g), np.maximum(np.abs(fd), 1e-12))
        assert rel.max() < 1e-6

    def test_misfit_mirror_invariance(self):
        # x -> 1 - x maps (u, p) -> (u reversed, -p reversed) and swaps the
        # plain and tilde stencils; the misfit must not change.
        grid, stencil, _, modes, obs, ic = make_setup(n_steps=240)
        cfg = CostConfig(T_window=2.0)
        bs = BoundaryScheme([-1.0, 1.05], [-1.1, 1.02], [-0.97, 1.01], [-1.03, 0.99])
        def mirror(z):
            u, p = split(z, grid.N)
            return np.concatenate([u[..., ::-1], -p[..., ::-1]], axis=-1)

        ic_m, obs_m = mirror(ic), mirror(obs)
        bs_m = BoundaryScheme(bs.alpha_u_tilde, bs.alpha_p_tilde, bs.alpha_u, bs.alpha_p)
        r1, _ = evaluate(bs.to_control_vector(), cfg, obs, ic, stencil, grid, 1)
        r2, _ = evaluate(bs_m.to_control_vector(), cfg, obs_m, ic_m, stencil, grid, 1)
        assert r2.misfit == pytest.approx(r1.misfit, rel=1e-12)

    def test_level_misfit_assembles_total(self):
        grid, stencil, bs, modes, obs, ic = make_setup(n_steps=240)
        cfg = CostConfig(T_window=2.0)
        report, _ = evaluate(bs.to_control_vector(), cfg, obs, ic, stencil, grid, 1)
        _, xi = xi_series(integrate(ic, stencil, bs, grid), modes)
        w = np.full(241, grid.tau)
        w[0] = w[-1] = grid.tau / 2
        assert xi.size == 241
        assert report.misfit == pytest.approx(1.0 / grid.N * float(w @ xi), rel=1e-13)
        assert xi[0] == pytest.approx(0.0, abs=1e-20)


def test_make_objective_matches_evaluate():
    grid, stencil, bs, modes, obs, ic = make_setup(n_steps=120)
    cfg = CostConfig(T_window=1.0)
    f = make_objective(cfg, obs, ic, stencil, grid, 1)
    x = bs.to_control_vector()
    fx, gx = f(x)
    report, g = evaluate(x, cfg, obs, ic, stencil, grid, 1)
    assert fx == report.total
    np.testing.assert_array_equal(gx, g)


def test_make_objective_buffers_leave_no_trace():
    # Every call refills the same window buffers, also after a diverged
    # trial has left them full of overflow.  Each result must equal an
    # evaluation with fresh storage bit for bit, and must not change when
    # later calls overwrite the buffers.
    grid, stencil, bs, modes, obs, ic = make_setup(n_steps=240)
    cfg = CostConfig(T_window=2.0, eta=0.5)
    f = make_objective(cfg, obs, ic, stencil, grid, 1)
    x1 = bs.to_control_vector()
    x2 = x1 + np.array([0.011, -0.007, 0.013, -0.009, 0.008, 0.012, -0.011, 0.009])
    diverging = BoundaryScheme([1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, 1.0])
    xs = [x1, diverging.to_control_vector(), x2, x1]
    results = [f(x) for x in xs]
    assert results[1][0] == math.inf and math.isfinite(results[2][0])
    for x, (fx, gx) in zip(xs, results):
        report, g = evaluate(x, cfg, obs, ic, stencil, grid, 1)
        assert fx == report.total
        assert np.array_equal(gx, g)
