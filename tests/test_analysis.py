"""Dispersion formulas, kernel-line predictions, and error diagnostics."""

import warnings

import numpy as np
import pytest

from conftest import (
    compensation_coefficient,
    first_peak_and_return,
    log_growth_rate,
    make_setup,
    phase_fit_speed,
    plateau_level,
    trend_drift,
)
from waveassim import analysis
from waveassim.exact import ModeSpec, sample_observations
from waveassim.wave import (
    BLOCK_LEVELS,
    CHUNK,
    BoundaryScheme,
    GridSpec,
    IntegrationDiverged,
    integrate,
    interior_stencil,
)


H30 = 1.0 / 30.0
TAU30 = 1.0 / 120.0


class TestSpeedRatios:
    def test_beta2_reference_value(self):
        # k = 3 on the reference grid; frozen from the closed form.
        assert analysis.beta2(3, H30, TAU30) - 1.0 == pytest.approx(3.0921985e-3, abs=1e-9)
        assert abs((analysis.beta2(3, H30, TAU30) - 1.0) - 3.09e-3) < 1e-5

    def test_beta4_reference_value(self):
        assert analysis.beta4(3, H30, TAU30) - 1.0 == pytest.approx(-9.8241824e-4, abs=1e-9)
        assert abs((analysis.beta4(3, H30, TAU30) - 1.0) - (-9.82e-4)) < 1e-5

    @pytest.mark.parametrize("k,h", [(3, H30), (7, 0.1), (1, 0.02)])
    def test_beta2_exact_at_half_ratio(self, k, h):
        assert analysis.beta2(k, h, h / 2.0) == 1.0

    def test_beta4_consistency_limit(self):
        assert analysis.beta4(3, 1e-4, 1e-5) == pytest.approx(1.0, abs=1e-6)
        assert analysis.beta2(3, 1e-4, 1e-5) == pytest.approx(1.0, abs=1e-6)

    def test_unresolvable_mode_guarded(self):
        with pytest.raises(ZeroDivisionError):
            analysis.beta2(60, H30, TAU30)  # sin(k pi h / 2) = sin(pi) = 0
        with pytest.raises(ZeroDivisionError, match="not resolvable"):
            analysis.beta4(60, H30, TAU30)  # and sin(3 k pi h / 2) = sin(3 pi) = 0

    def test_second_order_phase_fit(self):
        # Independent oracle: project the k = 3 trajectory onto its mode
        # shapes and fit the rotation rate of the (f, g) pair over 50 units.
        grid = GridSpec(30, TAU30, 6000)
        obs = sample_observations([ModeSpec(3, 1, 1)], grid)
        ic = obs[0].copy()
        traj = integrate(ic, interior_stencil(2), BoundaryScheme.classical(1), grid)
        measured = phase_fit_speed(traj, 3, 30)
        assert abs(abs(measured - 1.0) - abs(analysis.beta2(3, H30, TAU30) - 1.0)) < 1e-4

    def test_fourth_order_phase_fit(self):
        # The fourth-order formula describes the interior stencil alone, so
        # measure on a grid fine enough that the second-order boundary rows
        # carry negligible weight.
        N = 120
        grid = GridSpec(N, 1.0 / (4 * N), 20000)
        obs = sample_observations([ModeSpec(3, 1, 1)], grid)
        ic = obs[0].copy()
        traj = integrate(ic, interior_stencil(4), BoundaryScheme.classical(1), grid)
        measured = phase_fit_speed(traj, 3, N)
        assert abs(abs(measured - 1.0) - abs(analysis.beta4(3, 1.0 / N, 1.0 / (4 * N)) - 1.0)) < 1e-5


class TestCompensationPredictions:
    def test_reference_grid_k3(self):
        b2 = analysis.beta2(3, H30, TAU30)
        assert analysis.h_modified_ratio(30, b2) == pytest.approx(1.0 - 0.0462, abs=5e-4)
        assert analysis.predicted_c_u(30, b2) == pytest.approx(1.048, abs=1e-3)
        assert analysis.predicted_c_u(30, b2) == pytest.approx(1.0484818, abs=1e-6)
        assert analysis.predicted_c_p(30, b2) == pytest.approx(1.023, abs=1e-3)
        assert analysis.predicted_c_p(30, b2) == pytest.approx(1.0236672, abs=1e-6)

    def test_other_modes(self):
        assert analysis.predicted_c_u(30, analysis.beta2(2, H30, TAU30)) == pytest.approx(
            1.021, abs=1e-3
        )
        # The closed form gives 1.1472 for k = 5; quoted empirical values sit
        # slightly lower (the modified-length argument is leading order).
        assert analysis.predicted_c_u(30, analysis.beta2(5, H30, TAU30)) == pytest.approx(
            1.1472193, abs=1e-6
        )

    def test_no_velocity_error_means_no_compensation(self):
        assert analysis.h_modified_ratio(30, 1.0) == 1.0
        assert analysis.predicted_c_u(30, 1.0) == 1.0
        assert analysis.predicted_c_p(30, 1.0) == 1.0

    def test_c_p_below_c_u_for_fast_schemes(self):
        # The p derivative spans only half a modified cell, so its factor
        # stays closer to 1 whenever beta > 1.
        for N in (10, 30, 100):
            for beta in np.linspace(1.0 + 1e-6, 1.0 + 0.9 / N, 25):
                assert analysis.predicted_c_p(N, beta) < analysis.predicted_c_u(N, beta)


class TestKernelLine:
    def test_reference_tangent(self):
        assert analysis.kernel_tangent(3, H30) == pytest.approx(-1.1085085, abs=5e-4)

    def test_continuum_limit(self):
        assert analysis.kernel_tangent(3, 1e-9) == pytest.approx(-1.0, abs=1e-12)

    def test_displacements_on_line_null_the_cosine_mode(self):
        # Moving along the predicted line through (-1.023, 1.023) leaves the
        # stencil response to the k = 3 cosine values unchanged.
        slope = analysis.kernel_tangent(3, H30)
        c_half = np.cos(3 * np.pi * H30 / 2)
        c_three_half = np.cos(9 * np.pi * H30 / 2)
        anchor = np.array([-1.023, 1.023])
        for step in (0.1, -0.7, 2.3):
            point = anchor + step * np.array([1.0, slope])
            d0, d1 = point - anchor
            assert abs(d0 * c_half + d1 * c_three_half) < 1e-12

    def test_fit_recovers_synthetic_line(self):
        x = np.linspace(-5.0, -1.5, 9)
        y = -1.108 * x + 0.087
        slope, intercept, resid = analysis.fit_kernel_line(np.column_stack([x, y]))
        assert slope == pytest.approx(-1.108, abs=1e-12)
        assert intercept == pytest.approx(0.087, abs=1e-12)
        assert resid < 1e-12

    def test_fit_two_points_exact(self):
        slope, intercept, resid = analysis.fit_kernel_line([(0.0, 1.0), (2.0, 5.0)])
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(1.0)
        assert resid < 1e-14

    def test_fit_requires_two_points(self):
        with pytest.raises(ValueError):
            analysis.fit_kernel_line([(1.0, 2.0)])


class TestSingularity:
    def test_critical_wavenumber(self):
        kappa = analysis.second_order_c_singularity(H30, TAU30)
        assert kappa / np.pi == pytest.approx(14.026, abs=0.01)

    def test_root_residual(self):
        kappa = analysis.second_order_c_singularity(H30, TAU30)
        h, tau = H30, TAU30
        den = (h * h - 0.5 * h) * np.sin(kappa * tau) + tau * np.sin(0.5 * kappa * h)
        assert abs(den) < 1e-10
        # The closed-form factor blows up there and flips sign.
        assert compensation_coefficient(kappa * (1.0 - 1e-9), h, tau) > 1e8
        assert compensation_coefficient(kappa * (1.0 + 1e-9), h, tau) < -1e8

    @pytest.mark.parametrize("tau", [1.0 / 120.0, 0.01])
    def test_no_root_below_the_scan_limit(self, tau):
        # On h = 1/64 the denominator keeps its sign up to pi / min(tau, h/2),
        # where the scan ends: there is no root to return.
        h = 1.0 / 64.0
        kappa = np.linspace(0.0, np.pi / min(tau, 0.5 * h), 20001)[1:]
        den = (h * h - 0.5 * h) * np.sin(kappa * tau) + tau * np.sin(0.5 * kappa * h)
        assert (den > 0.0).all()
        assert analysis.second_order_c_singularity(h, tau) is None

    def test_compensation_at_fifteen_pi(self):
        c = compensation_coefficient(15 * np.pi, H30, TAU30)
        assert c == pytest.approx(-7.05, abs=0.05)

    def test_closed_form_on_reference_grid(self):
        # On h = 1/30, tau = 1/120 the factor reduces to
        # 1 / (15 cos(kappa/120) - 14).
        for kappa in (np.pi, 5 * np.pi, 12 * np.pi, 15 * np.pi):
            expect = 1.0 / (15.0 * np.cos(kappa / 120.0) - 14.0)
            assert compensation_coefficient(kappa, H30, TAU30) == pytest.approx(
                expect, rel=1e-12
            )


class TestSlipTime:
    def test_reference_value(self):
        b2 = analysis.beta2(3, H30, TAU30)
        assert analysis.period_slip_time(3, b2) == pytest.approx(215.596, abs=0.01)

    def test_consistent_with_measured_error_return(self):
        grid = GridSpec(30, TAU30, 30000)
        _, stencil, bs, modes, obs, ic = make_setup(n_steps=30000)
        traj = integrate(ic, stencil, bs, grid)
        times, xi = analysis.xi_series(traj, modes)
        _, _, t_zero, _ = first_peak_and_return(times, xi)
        T = analysis.period_slip_time(3, analysis.beta2(3, H30, TAU30))
        assert abs(t_zero - T) / T < 5e-3


class TestErrorSeries:
    def test_xi_starts_at_zero_for_twin_start(self):
        grid, stencil, bs, modes, obs, ic = make_setup(n_steps=100)
        traj = integrate(ic, stencil, bs, grid)
        times, xi = analysis.xi_series(traj, modes)
        assert xi[0] < 1e-25
        assert times[0] == 0.0 and times[-1] == pytest.approx(100 * TAU30)

    def test_mirror_invariance(self):
        grid, stencil, _, modes, obs, ic = make_setup(n_steps=150)
        bs = BoundaryScheme([-1.0, 1.05], [-1.1, 1.02], [-0.97, 1.01], [-1.03, 0.99])
        traj = integrate(ic, stencil, bs, grid)
        _, xi = analysis.xi_series(traj, modes)

        from dataclasses import replace

        # Only the fields are mirrored: xi_series reads nothing else.
        z_m = np.concatenate([traj.u[:, ::-1], -traj.p[:, ::-1]], axis=1)
        traj_m = replace(traj, z=z_m)
        modes_m = [ModeSpec(m.k, -((-1.0) ** m.k) * m.a, -((-1.0) ** m.k) * m.b) for m in modes]
        _, xi_m = analysis.xi_series(traj_m, modes_m)
        np.testing.assert_allclose(xi_m, xi, rtol=1e-12, atol=1e-15)

    def test_no_second_cfl_warning(self):
        # The grid the run was integrated on has given it.
        with pytest.warns(UserWarning, match="CFL"):
            grid, stencil, bs, modes, _, ic = make_setup(tau=0.04, n_steps=20)
        traj = integrate(ic, stencil, bs, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            analysis.xi_series(traj, modes)

    def test_first_peak_and_return_on_synthetic_beat(self):
        t = np.linspace(0.0, 10.0, 2001)
        xi = 4.0 * np.sin(0.4 * t) ** 2
        t_peak, xi_peak, t_zero, xi_min = first_peak_and_return(t, xi)
        assert t_peak == pytest.approx(np.pi / 0.8, abs=0.01)
        assert xi_peak == pytest.approx(4.0, abs=1e-4)
        assert t_zero == pytest.approx(np.pi / 0.4, abs=0.01)
        assert xi_min < 1e-5


K = BLOCK_LEVELS


class TestHorizonReport:
    @pytest.mark.parametrize(
        "n_steps",
        [1, 2, 5, 2 * K * CHUNK + 1, 2 * K * CHUNK + 2, 1037, 2 * K * CHUNK - 1, 2 * K * CHUNK],
    )
    @pytest.mark.parametrize("stride", [1, 13])
    def test_streamed_run_matches_the_stored_one(self, n_steps, stride):
        # One chunk holds levels 0..2*K*CHUNK+1; the edges and 1037 levels
        # (three chunks, the last one partial) hand over mid-stride.  The run
        # steps in Storage(0, N), which holds the whole run up to 2*K*CHUNK + 1
        # levels (1, 2, 5, 2*K*CHUNK - 1 and 2*K*CHUNK, and the first edge) and
        # is refilled a chunk at a time past that (2*K*CHUNK + 2 and 1037).
        grid, stencil, bs, modes, _, ic = make_setup(k=5, n_steps=n_steps, order=4)
        traj = integrate(ic, stencil, bs, grid)
        times, xi = analysis.xi_series(traj, modes)
        s_times, s_xi, u = analysis.horizon_report(ic, stencil, bs, grid, modes, stride)
        assert np.array_equal(s_times, times)
        assert np.array_equal(s_xi, xi)
        assert np.array_equal(u, traj.u[::stride])
        assert analysis.horizon_report(ic, stencil, bs, grid, modes)[2] is None

    @pytest.mark.parametrize(
        "order, tau, level",
        [(2, 0.501 / 30, 1372), (2, 0.502 / 30, 678), (2, 0.503 / 30, 516), (4, 0.03, 19)],
    )
    def test_divergence_names_the_level_integrate_names(self, order, tau, level):
        # Past the CFL limit of the classical boundary: the second-order
        # runs first pass the threshold after the first chunk, the
        # fourth-order one inside it.
        grid, stencil, bs, modes, _, ic = make_setup(tau=tau, n_steps=3000, order=order)
        with pytest.raises(IntegrationDiverged) as stored:
            integrate(ic, stencil, bs, grid)
        with pytest.raises(IntegrationDiverged) as streamed:
            analysis.horizon_report(ic, stencil, bs, grid, modes, 7)
        assert stored.value.step == streamed.value.step == level
        assert streamed.value.time == stored.value.time
        assert streamed.value.amplitude == stored.value.amplitude


class TestTrendDiagnostics:
    def test_plateau_level(self):
        t = np.linspace(0.0, 10.0, 101)
        xi = np.where(t < 5.0, 1.0, 3.0)
        assert plateau_level(t, xi, 5.1) == pytest.approx(3.0)
        assert plateau_level(t, xi, 0.0, 4.9) == pytest.approx(1.0)

    def test_log_growth_rate(self):
        t = np.linspace(0.0, 20.0, 400)
        xi = 0.3 * np.exp(0.17 * t)
        assert log_growth_rate(t, xi, 2.0, 18.0) == pytest.approx(0.17, rel=1e-6)

    def test_trend_drift_separates_growth_from_oscillation(self):
        t = np.linspace(0.0, 30.0, 1500)
        flat = 1.0 + 0.2 * np.sin(3.0 * t)
        rising = 1.0 + 0.2 * np.sin(3.0 * t) + 0.15 * t
        d_flat, o_flat = trend_drift(t, flat, 0.0, 30.0)
        d_rise, o_rise = trend_drift(t, rising, 0.0, 30.0)
        assert d_flat < 0.5 * o_flat
        assert d_rise > 10.0 * o_rise

    def test_window_validation(self):
        t = np.linspace(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            plateau_level(t, t, 5.0, 6.0)


def test_dispersion_report_bundle():
    # The keys are the per-mode fields of result.json and markers.json.
    rep = analysis.dispersion_report(3, 30, TAU30)
    assert set(rep) == {
        "beta2_minus_1", "beta4_minus_1", "h_mod_ratio", "c_u", "c_p", "T_shift",
        "kernel_tangent",
    }
    assert rep["c_u"] == pytest.approx(1.0 / rep["h_mod_ratio"], rel=1e-14)
    assert rep["beta2_minus_1"] + 1.0 == pytest.approx(analysis.beta2(3, H30, TAU30))
    assert rep["T_shift"] == pytest.approx(215.596, abs=0.01)
