"""Exact solutions, modal projection, and observation sampling."""

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import exact_mode, split
from waveassim.exact import (
    ModeSpec,
    exact_fields,
    mode_shapes,
    project_initial,
    sample_observations,
)
from waveassim.wave import GridSpec


def polyexp_u0(x):
    return 20.0 * x**2 * (1.0 - x) * np.exp(-5.0 * x)


def tilted_exp_p0(x):
    return (x - 0.5) * np.exp(2.0 * x)


def pde_residual(u_of_xt, p_of_xt, x, t, delta=1e-4):
    """Centered finite-difference residuals of du/dt - dp/dx and dp/dt - du/dx."""
    du_dt = (u_of_xt(x, t + delta) - u_of_xt(x, t - delta)) / (2 * delta)
    dp_dx = (p_of_xt(x + delta, t) - p_of_xt(x - delta, t)) / (2 * delta)
    dp_dt = (p_of_xt(x, t + delta) - p_of_xt(x, t - delta)) / (2 * delta)
    du_dx = (u_of_xt(x + delta, t) - u_of_xt(x - delta, t)) / (2 * delta)
    return np.abs(du_dt - dp_dx).max(), np.abs(dp_dt - du_dx).max()


class TestExactMode:
    def test_initial_time_shapes(self):
        x = np.linspace(0.0, 1.0, 101)
        u, p = exact_mode(3, x, 0.0)
        np.testing.assert_allclose(u, np.sin(3 * np.pi * x), atol=1e-14)
        np.testing.assert_allclose(p, np.cos(3 * np.pi * x), atol=1e-14)

    def test_node_of_mode_three(self):
        for t in (0.0, 0.3, 1.7, 12.0):
            u, _ = exact_mode(3, 1.0 / 3.0, t)
            assert abs(u) < 1e-13

    def test_satisfies_wave_system(self):
        u_f = lambda x, t: exact_mode(3, x, t)[0]
        p_f = lambda x, t: exact_mode(3, x, t)[1]
        x = np.linspace(0.05, 0.95, 7)
        for t in (0.1, 0.9, 2.3):
            r1, r2 = pde_residual(u_f, p_f, x, t)
            assert r1 < 1e-8 and r2 < 1e-8


def sampled(modes, N, tau, t):
    """sample_observations at time t (a multiple of tau): x_nodes, x_half, u, p."""
    level = int(round(t / tau))
    grid = GridSpec(N, tau, max(level, 1))
    obs = sample_observations(modes, grid)
    return (grid.x_nodes, grid.x_half, *split(obs[level], N))


class TestSuperposition:
    def test_single_mode_reduces_to_exact_mode(self):
        # 50 nodes as in np.linspace(0, 1, 50); every t is a level of tau = 0.01.
        for t in (0.0, 0.37, 5.1):
            x, x_half, u2, p2 = sampled([ModeSpec(3, 1.0, 1.0)], 49, 0.01, t)
            u1, _ = exact_mode(3, x, t)
            _, p1 = exact_mode(3, x_half, t)
            np.testing.assert_allclose(u2, u1, atol=1e-13)
            np.testing.assert_allclose(p2, p1, atol=1e-13)

    def test_two_modes_at_t0(self):
        x, x_half, u, p = sampled([ModeSpec(2, 1, 1), ModeSpec(5, 1, 1)], 49, 0.01, 0.0)
        np.testing.assert_allclose(u, np.sin(2 * np.pi * x) + np.sin(5 * np.pi * x), atol=1e-14)
        np.testing.assert_allclose(
            p, np.cos(2 * np.pi * x_half) + np.cos(5 * np.pi * x_half), atol=1e-14
        )

    def test_two_modes_satisfy_wave_system(self):
        # Centered differences on the staggered grid with tau = h/2: both
        # sides of each equation span h, so for these travelling-wave
        # solutions the truncation errors cancel and only rounding is left.
        modes = [ModeSpec(2, 1, 1), ModeSpec(5, 1, 1)]
        N, tau, level = 1000, 0.0005, 1200  # t = 0.6
        obs = sample_observations(modes, GridSpec(N, tau, level + 1))
        u, p = split(obs, N)
        i = np.round(np.linspace(0.1, 0.9, 5) * N).astype(int)
        h = 1.0 / N
        r1 = (u[level + 1, i] - u[level - 1, i]) / (2 * tau) - (p[level, i] - p[level, i - 1]) / h
        r2 = (p[level + 1, i] - p[level - 1, i]) / (2 * tau) - (u[level, i + 1] - u[level, i]) / h
        assert np.abs(r1).max() < 1e-7 and np.abs(r2).max() < 1e-7

    def test_linear_in_coefficients(self):
        _, _, u1, p1 = sampled([ModeSpec(4, 0.3, -1.1)], 32, 0.01, 0.8)
        _, _, u2, p2 = sampled([ModeSpec(4, 0.6, -2.2)], 32, 0.01, 0.8)
        np.testing.assert_allclose(u2, 2 * u1, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(p2, 2 * p1, rtol=1e-13, atol=1e-15)

    def test_steady_mode(self):
        _, _, u, p = sampled([ModeSpec(0, 0.0, 0.7)], 10, 0.01, 4.2)
        np.testing.assert_allclose(u, 0.0, atol=1e-15)
        np.testing.assert_allclose(p, 0.7, atol=1e-15)

    def test_steady_mode_rejects_u_component(self):
        with pytest.raises(ValueError):
            ModeSpec(0, 1.0, 0.5)

    def test_negative_mode_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ModeSpec(-1)


class TestProjectInitial:
    def test_orthogonality_single_mode(self):
        modes = project_initial(
            lambda x: np.sin(3 * np.pi * x), lambda x: np.cos(3 * np.pi * x), k_max=10
        )
        by_k = {m.k: m for m in modes}
        assert by_k[3].a == pytest.approx(1.0, abs=1e-12)
        assert by_k[3].b == pytest.approx(1.0, abs=1e-12)
        for k, m in by_k.items():
            if k not in (3,):
                assert abs(m.a) < 1e-12 and abs(m.b) < 1e-12

    def test_needs_a_mode_past_the_steady_one(self):
        with pytest.raises(ValueError, match="k_max must be at least 1"):
            project_initial(np.sin, np.cos, k_max=0)

    def test_zero_functions(self):
        modes = project_initial(lambda x: 0.0 * x, lambda x: 0.0 * x, k_max=5)
        assert all(m.a == 0.0 and m.b == 0.0 for m in modes)

    def test_polyexp_against_quad_oracle(self):
        # Frozen values from scipy.integrate.quad at 1e-14 tolerances.
        modes = project_initial(polyexp_u0, tilted_exp_p0, k_max=10)
        by_k = {m.k: m for m in modes}
        assert by_k[1].a == pytest.approx(0.2185471175810852, abs=1e-12)
        assert by_k[2].a == pytest.approx(0.09667045607408528, abs=1e-12)
        assert by_k[3].a == pytest.approx(0.00838236066078987, abs=1e-12)
        assert by_k[10].a == pytest.approx(-0.0020214268508660987, abs=1e-12)
        assert by_k[0].b == pytest.approx(0.5, abs=1e-13)
        assert by_k[1].b == pytest.approx(-1.4332488490073556, abs=1e-12)
        assert by_k[2].b == pytest.approx(0.6257141295846481, abs=1e-12)
        assert by_k[5].b == pytest.approx(-0.11574099401053685, abs=1e-12)

    def test_polyexp_against_runtime_quad(self):
        modes = project_initial(polyexp_u0, tilted_exp_p0, k_max=12)
        for m in modes:
            if m.k == 0:
                ref = quad(tilted_exp_p0, 0, 1, epsabs=1e-13, epsrel=1e-13)[0]
                assert m.b == pytest.approx(ref, abs=1e-12)
                continue
            w = m.k * np.pi
            a_ref = 2 * quad(lambda x: polyexp_u0(x) * np.sin(w * x), 0, 1,
                             epsabs=1e-13, epsrel=1e-13, limit=200)[0]
            b_ref = 2 * quad(lambda x: tilted_exp_p0(x) * np.cos(w * x), 0, 1,
                             epsabs=1e-13, epsrel=1e-13, limit=200)[0]
            assert m.a == pytest.approx(a_ref, abs=1e-12)
            assert m.b == pytest.approx(b_ref, abs=1e-12)


class TestSampleObservations:
    def test_zero_modes(self):
        grid = GridSpec(20, 0.01, 15)
        obs = sample_observations([], grid)
        assert obs.shape == (16, 41)
        assert not obs.any()

    def test_t0_matches_initial_condition(self):
        grid = GridSpec(30, 1.0 / 120.0, 10)
        obs = sample_observations([ModeSpec(3, 1, 1)], grid)
        u0, p0 = split(obs[0], 30)
        np.testing.assert_allclose(u0, np.sin(3 * np.pi * grid.x_nodes), atol=1e-13)
        np.testing.assert_allclose(p0, np.cos(3 * np.pi * grid.x_half), atol=1e-13)

    def test_rows_depend_on_their_time_alone(self):
        # exact_fields at any subset of the levels reproduces those rows bit
        # for bit, which lets callers sample a window or a chunk at a time.
        grid = GridSpec(30, 1.0 / 120.0, 700)
        modes = [ModeSpec(3, 1, 1), ModeSpec(7, -0.4, 0.2)]
        obs = sample_observations(modes, grid)
        np.testing.assert_array_equal(exact_fields(modes, grid, grid.times[:1]), obs[:1])
        np.testing.assert_array_equal(exact_fields(modes, grid, grid.times[::7]), obs[::7])
        short = sample_observations(modes, GridSpec(30, 1.0 / 120.0, 100))
        np.testing.assert_array_equal(short, obs[:101])

    def test_given_shapes_and_storage_give_the_same_bits(self):
        # A chunked caller builds the shapes once and refills one buffer,
        # whatever it held before.
        grid = GridSpec(30, 1.0 / 120.0, 700)
        modes = [ModeSpec(0, 0, -0.5), ModeSpec(3, 1, 1), ModeSpec(7, -0.4, 0.2)]
        obs = sample_observations(modes, grid)
        shapes = mode_shapes(modes, grid)
        out = np.full((256, 61), np.nan)
        for t0 in range(0, 701, 256):
            rows = exact_fields(modes, grid, grid.times[t0 : t0 + 256], shapes, out[: 701 - t0])
            assert np.shares_memory(rows, out)
            np.testing.assert_array_equal(rows, obs[t0 : t0 + 256])

    def test_boundary_values_exactly_zero(self):
        grid = GridSpec(30, 1.0 / 120.0, 50)
        obs = sample_observations([ModeSpec(3, 1, 1), ModeSpec(4, 0.5, -0.25)], grid)
        assert np.abs(obs[:, 0]).max() == 0.0
        assert np.abs(obs[:, 30]).max() == 0.0

    @pytest.mark.parametrize(
        "modes",
        [
            [ModeSpec(3, 1, 1)],
            [ModeSpec(2, 1, 1), ModeSpec(5, 1, 1)],
            [ModeSpec(0, 0, 0.4), ModeSpec(1, 0.7, -0.2), ModeSpec(6, -0.3, 0.9)],
        ],
    )
    def test_energy_identity(self, modes):
        # int (u^2 + p^2) dx is constant in time; trapezoid over nodes and
        # midpoint over half-nodes evaluate it exactly for resolvable modes.
        grid = GridSpec(30, 1.0 / 120.0, 400)
        obs = sample_observations(modes, grid)
        w_nodes = np.full(grid.N + 1, grid.h)
        w_nodes[0] = w_nodes[-1] = grid.h / 2
        u, p = split(obs, grid.N)
        energy = (u**2) @ w_nodes + (p**2).sum(axis=1) * grid.h
        assert np.abs(energy - energy[0]).max() < 1e-10
