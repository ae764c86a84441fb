"""Cost function, norm, regularization, and their assembly."""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_setup, split, tlm
from waveassim import cli
from waveassim.adjoint import misfit_gradient, tlm_run, window_misfit
from waveassim.analysis import xi_series
from waveassim.objective import (
    BLOWUP_PENALTY,
    CostReport,
    Window,
    cost,
    evaluate,
    make_objective,
    window_steps,
)
from waveassim.wave import BLOCK_LEVELS, CHUNK, BoundaryScheme, GridSpec, integrate, interior_stencil


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def grid30():
    return GridSpec(30, 1.0 / 120.0, 720)


def state_norm2(du, dp, grid):
    """Per-level misfit of a zero trajectory against observations (-du, -dp).

    Both levels of the one-step window are equal, so the windowed misfit
    divided by tau is that level's norm.
    """
    one = replace(grid, n_steps=1)
    traj = integrate(np.zeros(2 * grid.N + 1), interior_stencil(2), BoundaryScheme.classical(1), one)
    obs = -np.tile(np.concatenate([du, dp]), (2, 1))
    return window_misfit(traj, obs)[0] / one.tau


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


class TestWindow:
    def test_validation(self, grid30):
        _, stencil, _, _, obs, ic = make_setup(n_steps=720)
        for eta in (-2.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                Window(obs, ic, stencil, grid30, 1, eta=eta)
        with pytest.raises(ValueError):
            window_steps(-1.0, grid30)

    def test_storage_fits_the_window(self, grid30):
        _, stencil, _, _, obs, ic = make_setup(n_steps=720)
        win = Window(obs, ic, stencil, replace(grid30, n_steps=120), 1)
        # z holds at least one chunk of levels, for a run that emits them.
        z_rows = max(120, 2 * BLOCK_LEVELS * CHUNK) + 2 * BLOCK_LEVELS + 1
        assert win.storage.z.shape == (z_rows, 61)
        assert win.storage.W.shape == (BLOCK_LEVELS * 61, 61 + 4 * BLOCK_LEVELS)
        assert win.storage.lam.shape == (120 + 2 * BLOCK_LEVELS + 1, 4)
        assert win.storage.res.shape == (121, 61)

    def test_two_windows_share_no_storage(self, grid30):
        _, stencil, _, _, obs, ic = make_setup(n_steps=720)
        a, b = (Window(obs, ic, stencil, grid30, 1) for _ in range(2))
        buffers = [list(vars(w.storage).values()) for w in (a, b)]
        assert len(buffers[0]) == 6
        for x in buffers[0]:
            for y in buffers[1]:
                assert not np.shares_memory(x, y)

    def test_window_steps(self, grid30):
        assert window_steps(6.0, grid30) == 720
        assert window_steps(1.0, grid30) == 120
        with pytest.raises(ValueError):
            window_steps(6.001, grid30)
        with pytest.raises(ValueError):
            window_steps(7.0, grid30)  # beyond horizon

    def test_report_invariant(self):
        with pytest.raises(ValueError):
            CostReport(-1.0, 0.0, 0.0)


class TestEvaluate:
    def test_perfect_twin_zero_cost_zero_gradient(self):
        grid, stencil, bs, modes, obs, ic = make_setup(n_steps=120)
        traj = integrate(ic, stencil, bs, grid)
        report, g = evaluate(bs.to_control_vector(), Window(traj.z.copy(), ic, stencil, grid, 1))
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
            bs.to_control_vector(), Window(traj.z.copy(), ic, stencil, grid, 1, eta=1e3)
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
        report, g = evaluate(flipped.to_control_vector(), Window(obs, ic, stencil, grid, 1))
        assert report.total == BLOWUP_PENALTY == math.inf
        assert not g.any()
        assert report.misfit == BLOWUP_PENALTY and report.regularization == 0.0

    def test_largest_eta_keeps_a_zero_sum_gradient_finite(self):
        # At the classical start every group sums to 0: 2 * eta overflows at
        # eta = 1e308, and inf * 0 would give NaN.  A trial step whose
        # penalty overflows costs +inf, with no floating-point warning.
        grid, stencil, bs, modes, obs, ic = make_setup(n_steps=120)
        win = Window(obs, ic, stencil, grid, 1, eta=1e308)
        x0 = bs.to_control_vector()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, g = evaluate(x0, win)
            assert np.isfinite(g).all() and report.regularization == 0.0
            assert report.total == report.misfit
            np.testing.assert_array_equal(g, evaluate(x0, replace(win, eta=0.0))[1])
            report, _ = evaluate(x0 + 1.4 * np.eye(8)[4], win)  # alpha_p sums to 1.4
        assert report.total == report.regularization == math.inf
        assert math.isfinite(report.misfit)

    def test_gradient_with_regularization_vs_fd(self):
        grid, stencil, bs, modes, obs, ic = make_setup(n_steps=240)
        win = Window(obs, ic, stencil, grid, 1, eta=1e3)
        x0 = bs.to_control_vector() + np.array(
            [0.011, -0.007, 0.013, -0.009, 0.008, 0.012, -0.011, 0.009]
        )
        _, g = evaluate(x0, win)
        eps = 1e-5
        fd = np.zeros(8)
        for j in range(8):
            e = np.zeros(8)
            e[j] = eps
            rp, _ = evaluate(x0 + e, win)
            rm, _ = evaluate(x0 - e, win)
            fd[j] = (rp.total - rm.total) / (2 * eps)
        rel = np.abs(g - fd) / np.maximum(np.abs(g), np.maximum(np.abs(fd), 1e-12))
        assert rel.max() < 1e-6

    def test_misfit_mirror_invariance(self):
        # x -> 1 - x maps (u, p) -> (u reversed, -p reversed) and swaps the
        # plain and tilde stencils; the misfit must not change.
        grid, stencil, _, modes, obs, ic = make_setup(n_steps=240)
        bs = BoundaryScheme([-1.0, 1.05], [-1.1, 1.02], [-0.97, 1.01], [-1.03, 0.99])
        def mirror(z):
            u, p = split(z, grid.N)
            return np.concatenate([u[..., ::-1], -p[..., ::-1]], axis=-1)

        ic_m, obs_m = mirror(ic), mirror(obs)
        bs_m = BoundaryScheme(bs.alpha_u_tilde, bs.alpha_p_tilde, bs.alpha_u, bs.alpha_p)
        r1, _ = evaluate(bs.to_control_vector(), Window(obs, ic, stencil, grid, 1))
        r2, _ = evaluate(bs_m.to_control_vector(), Window(obs_m, ic_m, stencil, grid, 1))
        assert r2.misfit == pytest.approx(r1.misfit, rel=1e-12)

    def test_level_misfit_assembles_total(self):
        grid, stencil, bs, modes, obs, ic = make_setup(n_steps=240)
        report, _ = evaluate(bs.to_control_vector(), Window(obs, ic, stencil, grid, 1))
        _, xi = xi_series(integrate(ic, stencil, bs, grid), modes)
        w = np.full(241, grid.tau)
        w[0] = w[-1] = grid.tau / 2
        assert xi.size == 241
        assert report.misfit == pytest.approx(1.0 / grid.N * float(w @ xi), rel=1e-13)
        assert xi[0] == pytest.approx(0.0, abs=1e-20)


@pytest.mark.parametrize("m", [1, 2, 513, 514, 515, 1026, 1027, 2400])
def test_float_cost_is_evaluates_report(m):
    # cost reduces the levels as it steps them: the chain run hands them
    # over 514 and then 512 at a time, and cost squares at most 512 at a
    # time.  evaluate reduces the stored trajectory.  Same report, bit for bit.
    grid, stencil, _, _, obs, ic = make_setup(k=2, n_steps=m, J=4)
    win = Window(obs, ic, stencil, grid, 4, eta=0.5)
    x = BoundaryScheme.classical(4).to_control_vector()
    x += 0.01 * np.random.default_rng(m).standard_normal(x.size)
    report = cost(x, win)
    assert report == evaluate(x, win)[0]
    assert type(report.total) is float


@pytest.mark.parametrize("eta", [0.0, 0.5])
@pytest.mark.parametrize("J", [1, 4])
@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_complex_step_matches_the_adjoint(preset, J, eta):
    # Each preset's initial data on a small grid, at a scheme near the
    # classical one: Im cost(x + i h v) / h is the adjoint's g . v to within
    # 1e-13 of |g| |v|, the scale of gradcheck's gate, and the real part is
    # the float cost to rounding.
    overrides = {"N": 12, "tau": 1.0 / 48.0, "n_steps": 96, "T_window": 2.0, "J": J, "eta": eta}
    exp = cli.setup_experiment(cli.resolve_config(preset, None, overrides))
    win = cli._window(exp, 2.0)
    rng = np.random.default_rng(J)
    x = BoundaryScheme.classical(J).to_control_vector()
    x += 0.01 * rng.standard_normal(x.size)
    report, g = evaluate(x, win)
    for v in rng.standard_normal((3, x.size)):
        stepped = cost(x + 1j * cli.COMPLEX_STEP * v, win)
        assert stepped.total.real == pytest.approx(report.total, rel=1e-14)
        slope = stepped.total.imag / cli.COMPLEX_STEP
        assert abs(g @ v - slope) <= 1e-13 * np.linalg.norm(g) * np.linalg.norm(v)


def test_make_objective_matches_evaluate():
    grid, stencil, bs, modes, obs, ic = make_setup(n_steps=120)
    win = Window(obs, ic, stencil, grid, 1)
    f = make_objective(win)
    x = bs.to_control_vector()
    fx, gx = f(x)
    report, g = evaluate(x, win)
    assert fx == report.total
    np.testing.assert_array_equal(gx, g)


def test_make_objective_buffers_leave_no_trace():
    # Every call refills the same window storage, also after a diverged
    # trial has left it full of overflow.  Each result must equal an
    # evaluation on a fresh window bit for bit, and must not change when
    # later calls overwrite the storage.  The cost-only path, on a window
    # of its own, must give evaluate's report field for field.
    grid, stencil, bs, modes, obs, ic = make_setup(n_steps=240)

    def window():
        return Window(obs, ic, stencil, grid, 1, eta=0.5)

    f = make_objective(window())
    x1 = bs.to_control_vector()
    x2 = x1 + np.array([0.011, -0.007, 0.013, -0.009, 0.008, 0.012, -0.011, 0.009])
    diverging = BoundaryScheme([1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, 1.0])
    xs = [x1, diverging.to_control_vector(), x2, x1]
    shared = window()
    costs = [cost(x, shared) for x in xs]
    results = [f(x) for x in xs]
    assert results[1][0] == math.inf and math.isfinite(results[2][0])
    assert costs[1] == CostReport(math.inf, math.inf, 0.0)
    for x, (fx, gx), c in zip(xs, results, costs):
        report, g = evaluate(x, window())
        assert fx == report.total
        assert c == report
        assert np.array_equal(gx, g)


def _garbled(win):
    """win with every buffer but the chain stack's zero blocks full of NaN."""
    for name, buf in vars(win.storage).items():
        if name != "W":
            buf.fill(np.nan)
    return win


@pytest.mark.parametrize("J, m", [(1, 1037), (4, 1037), (4, 514)])
def test_storage_gives_the_bits_of_fresh_arrays(J, m):
    # The window's storage, refilled with NaN first so that nothing is read
    # before it is written, against the library calls that allocate every
    # array fresh: cost, evaluate and tlm_run give the same bits.  m = 1037
    # ends on a partial third chunk, m = 514 on a one-level block.
    grid, stencil, _, _, obs, ic = make_setup(k=2, n_steps=m, order=4, J=J)
    x = BoundaryScheme.classical(J).to_control_vector()
    x += 0.01 * np.random.default_rng(5).standard_normal(x.size)
    bs = BoundaryScheme.from_control_vector(x, J)
    plain = integrate(ic, stencil, bs, grid)
    misfit, res = window_misfit(plain, obs)
    grad = misfit_gradient(plain, res)

    win = _garbled(Window(obs, ic, stencil, grid, J))
    assert cost(x, win).total == misfit
    win = _garbled(win)
    report, g = evaluate(x, win)
    assert report.total == misfit
    np.testing.assert_array_equal(g, grad)

    win = _garbled(win)
    traj = integrate(ic, stencil, bs, grid, out=win.storage)
    np.testing.assert_array_equal(traj.z, plain.z)
    dalpha = np.random.default_rng(6).standard_normal(x.size)
    out = np.full_like(win.storage.z, np.nan)
    dz = tlm_run(traj, dalpha, out)
    assert np.shares_memory(dz, out)
    np.testing.assert_array_equal(dz, tlm(plain, dalpha))


def test_evaluations_repeat_on_reused_storage():
    # x1, x2, then x1 again on one window: the third result is the first.
    grid, stencil, bs, _, obs, ic = make_setup(k=2, n_steps=1037, J=4)
    win = Window(obs, ic, stencil, grid, 4)
    x1 = bs.to_control_vector()
    x2 = x1 + 0.01 * np.random.default_rng(7).standard_normal(x1.size)
    first, second, third = (evaluate(x, win) for x in (x1, x2, x1))
    assert first[0] == third[0] != second[0]
    np.testing.assert_array_equal(first[1], third[1])


FAULTS = """
import resource
from waveassim.cli import _window, resolve_config, setup_experiment
from waveassim.objective import evaluate
from waveassim.wave import BoundaryScheme

exp = setup_experiment(resolve_config("single-mode-second", None, {}))
win = _window(exp, exp.config.T_window)
x = BoundaryScheme.classical(1).to_control_vector()
evaluate(x, win)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for k in range(20):
    evaluate(x + 1e-4 * k, win)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def test_evaluate_faults_in_no_pages():
    # Every buffer of an evaluation belongs to the window, so after the
    # first call none is handed back to the kernel and faulted in again.
    # A fresh process keeps earlier tests' allocations from hiding it.
    pytest.importorskip("resource")
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run(
        [sys.executable, "-c", FAULTS], env=env, capture_output=True, text=True, check=True
    )
    assert float(out.stdout) <= 5.0
