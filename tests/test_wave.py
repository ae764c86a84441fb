"""Discrete operators and time stepping."""

import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    first_peak_and_return,
    make_setup,
    split,
    naive_derivative_p,
    naive_derivative_u,
    naive_first_step,
    naive_integrate,
    naive_leapfrog_step,
)
from waveassim import analysis, cli, wave
from waveassim.adjoint import _sensitivity
from waveassim.exact import ModeSpec, sample_observations
from waveassim.objective import BLOWUP_PENALTY, CostReport, Window, cost, evaluate
from waveassim.wave import (
    BLOCK_LEVELS,
    CHUNK,
    BLOWUP_THRESHOLD,
    BoundaryScheme,
    GridSpec,
    IntegrationDiverged,
    InteriorStencil,
    Storage,
    boundary_entries,
    integrate,
    interior_stencil,
    stacked_operator,
)


def blocks(stencil, bs, grid):
    """The D_p and D_u blocks of the stacked operator."""
    A = stacked_operator(stencil, bs, grid)
    N = grid.N
    return A[1:N, N + 1 :], A[N + 1 :, : N + 1]


def apply_D_p(p, stencil, bs, grid):
    """dp/dx at the interior u nodes through the D_p block."""
    return blocks(stencil, bs, grid)[0] @ p


def apply_D_u(u, stencil, bs, grid):
    """du/dx at the half nodes through the D_u block."""
    return blocks(stencil, bs, grid)[1] @ u


def first_levels(u0, p0, stencil, bs, grid):
    """integrate's half state and levels 1 and 2 as (u, p) pairs."""
    traj = integrate(np.concatenate([u0, p0]), stencil, bs, replace(grid, n_steps=2))
    N = grid.N
    half = (traj.z_half[: N + 1], traj.z_half[N + 1 :])
    return half, (traj.u[1], traj.p[1]), (traj.u[2], traj.p[2])


@pytest.fixture
def grid30():
    return GridSpec(30, 1.0 / 120.0, 720)


@pytest.fixture
def classical():
    return BoundaryScheme.classical(1)


class TestTypes:
    def test_grid_invariants(self):
        grid = GridSpec(30, 1.0 / 120.0, 10)
        assert grid.h * grid.N == 1.0
        assert grid.x_nodes[0] == 0.0 and grid.x_nodes[-1] == 1.0
        assert np.allclose(np.diff(grid.x_nodes), grid.h)
        assert np.allclose(grid.x_half, grid.x_nodes[:-1] + grid.h / 2)

    def test_grid_rejects_bad_input(self):
        with pytest.raises(ValueError):
            GridSpec(2, 0.01, 10)
        with pytest.raises(ValueError):
            GridSpec(30, -0.1, 10)
        with pytest.raises(ValueError):
            GridSpec(30, 0.01, 0)
        for tau in (np.nan, np.inf):
            with pytest.raises(ValueError, match="time step"):
                GridSpec(30, tau, 10)
        for N, n_steps in ((30.5, 20), (30, 20.5), (30, True)):
            with pytest.raises(ValueError, match="must be an integer"):
                GridSpec(N, 1.0 / 120.0, n_steps)

    def test_cfl_soft_warning(self):
        with pytest.warns(UserWarning, match="CFL") as record:
            GridSpec(30, 1.0 / 10.0, 5)
        # The warning names the line that made the grid.
        assert record[0].filename == __file__

    def test_interior_presets_consistent(self):
        offsets = np.array([-1, 0, 1, 2])
        for stencil in (interior_stencil(2), interior_stencil(4)):
            assert abs(stencil.a.sum()) < 1e-15
            assert abs(((offsets - 0.5) * stencil.a).sum() - 1.0) < 1e-14

    def test_inconsistent_stencil_rejected(self):
        with pytest.raises(ValueError):
            InteriorStencil(np.array([0.0, 1.0, 1.0, 0.0]))
        with pytest.raises(ValueError):
            InteriorStencil(np.array([0.0, -2.0, 2.0, 0.0]) / 3)
        with pytest.raises(ValueError, match="needs 4 coefficients"):
            InteriorStencil(np.array([-1.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="interior order must be 2 or 4"):
            interior_stencil(3)

    def test_control_vector_round_trip(self):
        rng = np.random.default_rng(0)
        for J in (1, 2, 4):
            x = rng.standard_normal(4 * (J + 1))
            bs = BoundaryScheme.from_control_vector(x, J)
            assert bs.J == J
            np.testing.assert_array_equal(bs.to_control_vector(), x)

    def test_control_vector_ordering(self):
        bs = BoundaryScheme(
            alpha_u=[1.0, 2.0],
            alpha_p=[5.0, 6.0],
            alpha_u_tilde=[3.0, 4.0],
            alpha_p_tilde=[7.0, 8.0],
        )
        # tilde halves enter in descending coefficient order
        np.testing.assert_array_equal(
            bs.to_control_vector(), [1.0, 2.0, 4.0, 3.0, 5.0, 6.0, 8.0, 7.0]
        )

    def test_groups_follow_the_group_table(self):
        # BOUNDARY_GROUPS orders the groups, and its orientation is both the
        # descending storage of the tilde groups and their sign in A.
        bs = BoundaryScheme([1.0, 2.0], [5.0, 6.0], [3.0, 4.0], [7.0, 8.0])
        assert list(bs.groups()) == ["alpha_u", "alpha_u_tilde", "alpha_p", "alpha_p_tilde"]
        assert list(bs.group_sums().values()) == [3.0, 7.0, 11.0, 15.0]
        np.testing.assert_array_equal(boundary_entries(30, 1)[2], [1.0, -1.0, 1.0, -1.0])

    def test_state_boundary_condition_enforced(self, grid30, classical):
        for wall in (0, 30):
            z0 = np.zeros(61)
            z0[wall] = 1.0
            with pytest.raises(ValueError, match="vanish"):
                integrate(z0, interior_stencil(2), classical, grid30)

    def test_start_state_shape_checked(self, grid30, classical):
        for z0 in (np.zeros(60), np.zeros((2, 61)), np.zeros(31)):
            with pytest.raises(ValueError, match="start state"):
                integrate(z0, interior_stencil(2), classical, grid30)


class TestDerivativeP:
    def test_constant_field_zero_sum_stencil(self, grid30, classical):
        p = np.full(30, 2.7)
        out = apply_D_p(p, interior_stencil(2), classical, grid30)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_linear_field_exact(self, grid30, classical):
        p = grid30.x_half.copy()
        out = apply_D_p(p, interior_stencil(2), classical, grid30)
        np.testing.assert_allclose(out, 1.0, rtol=1e-12)

    def test_boundary_row_cosine_field(self, grid30):
        # alpha_p = (-1.023, 1.023) applied to p = cos(3 pi x) at the first row;
        # frozen value from direct stencil evaluation.
        bs = BoundaryScheme(
            [-1.0, 1.0], [-1.023, 1.023], [-1.0, 1.0], [-1.023, 1.023]
        )
        p = np.cos(3 * np.pi * grid30.x_half)
        out = apply_D_p(p, interior_stencil(2), bs, grid30)
        direct = 1.023 * (p[1] - p[0]) / grid30.h
        assert out[0] == pytest.approx(direct, rel=1e-14)
        assert out[0] == pytest.approx(-2.9671649455237694, rel=1e-12)

    @pytest.mark.parametrize("order", [2, 4])
    def test_matches_naive_oracle(self, order):
        rng = np.random.default_rng(3)
        grid = GridSpec(16, 1.0 / 64.0, 10)
        bs = BoundaryScheme(*(rng.standard_normal(3) for _ in range(4)))
        p = rng.standard_normal(16)
        st_ = interior_stencil(order)
        expected = naive_derivative_p(p, st_.a, bs.alpha_p, bs.alpha_p_tilde, 16, grid.h)
        np.testing.assert_allclose(
            apply_D_p(p, st_, bs, grid), expected, rtol=1e-13, atol=1e-13
        )

    def test_dimension_mismatch(self, grid30, classical):
        with pytest.raises(ValueError):
            apply_D_p(np.zeros(29), interior_stencil(2), classical, grid30)

    def test_wide_stencil_rejected(self, classical):
        grid = GridSpec(5, 0.05, 5)
        wide = BoundaryScheme.classical(4)
        with pytest.raises(ValueError):
            apply_D_p(np.zeros(5), interior_stencil(2), wide, grid)
        # Nor does any scheme have groups of different or no width.
        with pytest.raises(ValueError, match="share one width"):
            BoundaryScheme([-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0, 0.0], [-1.0, 1.0])
        with pytest.raises(ValueError, match="at least one coefficient"):
            BoundaryScheme([], [], [], [])
        with pytest.raises(ValueError, match="needs J >= 1"):
            BoundaryScheme.classical(0)
        for length in (7, 9):
            with pytest.raises(ValueError, match="control vector must have length 8"):
                BoundaryScheme.from_control_vector(np.zeros(length), 1)


class TestDerivativeU:
    def test_zero_field(self, grid30, classical):
        out = apply_D_u(np.zeros(31), interior_stencil(2), classical, grid30)
        np.testing.assert_array_equal(out, 0.0)

    def test_linear_field_exact(self, grid30, classical):
        u = grid30.x_nodes.copy()
        out = apply_D_u(u, interior_stencil(2), classical, grid30)
        np.testing.assert_allclose(out, 1.0, rtol=1e-12)

    def test_boundary_row_sine_field(self, grid30):
        bs = BoundaryScheme(
            [-1.048, 1.048], [-1.0, 1.0], [-1.048, 1.048], [-1.0, 1.0]
        )
        u = np.sin(3 * np.pi * grid30.x_nodes)
        out = apply_D_u(u, interior_stencil(2), bs, grid30)
        direct = 1.048 * (u[1] - u[0]) / grid30.h
        assert out[0] == pytest.approx(direct, rel=1e-14)
        assert out[0] == pytest.approx(9.715494303148347, rel=1e-12)

    @pytest.mark.parametrize("order", [2, 4])
    def test_matches_naive_oracle(self, order):
        rng = np.random.default_rng(4)
        grid = GridSpec(16, 1.0 / 64.0, 10)
        bs = BoundaryScheme(*(rng.standard_normal(3) for _ in range(4)))
        u = rng.standard_normal(17)
        st_ = interior_stencil(order)
        expected = naive_derivative_u(u, st_.a, bs.alpha_u, bs.alpha_u_tilde, 16, grid.h)
        np.testing.assert_allclose(
            apply_D_u(u, st_, bs, grid), expected, rtol=1e-13, atol=1e-13
        )


class TestClassicalExactness:
    def test_second_order_linear_everywhere(self, grid30, classical):
        u = 2.0 * grid30.x_nodes - 0.3
        p = -1.5 * grid30.x_half + 0.7
        np.testing.assert_allclose(
            apply_D_u(u, interior_stencil(2), classical, grid30), 2.0, rtol=1e-12
        )
        np.testing.assert_allclose(
            apply_D_p(p, interior_stencil(2), classical, grid30), -1.5, rtol=1e-12
        )

    def test_fourth_order_cubic_at_interior_rows(self, grid30, classical):
        p = grid30.x_half**3
        out = apply_D_p(p, interior_stencil(4), classical, grid30)
        interior = 3.0 * (grid30.x_nodes[2:-2]) ** 2
        np.testing.assert_allclose(out[1:-1], interior, rtol=1e-11, atol=1e-13)
        u = grid30.x_nodes**3
        out_u = apply_D_u(u, interior_stencil(4), classical, grid30)
        np.testing.assert_allclose(
            out_u[1:-1], 3.0 * grid30.x_half[1:-1] ** 2, rtol=1e-11, atol=1e-13
        )


class TestFirstStep:
    def test_zero_initial_condition(self, grid30, classical):
        zero = np.zeros(61)
        traj = integrate(zero, interior_stencil(2), classical, replace(grid30, n_steps=1))
        assert not traj.z_half.any()
        assert not traj.z[1].any()

    def test_matches_naive_two_stage_oracle(self, grid30, classical):
        u0 = np.sin(3 * np.pi * grid30.x_nodes)
        u0[0] = u0[-1] = 0.0
        p0 = np.cos(3 * np.pi * grid30.x_half)
        half, one, _ = first_levels(u0, p0, interior_stencil(2), classical, grid30)
        st_ = interior_stencil(2)
        (uh, ph), (u1, p1) = naive_first_step(u0, p0, st_.a, classical, 30, grid30.h, grid30.tau)
        np.testing.assert_allclose(half[0], uh, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(half[1], ph, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(one[0], u1, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(one[1], p1, rtol=1e-13, atol=1e-15)

    @pytest.mark.filterwarnings("ignore:tau/h")
    def test_start_is_locally_third_order(self):
        # Fine grid so the spatial error is negligible against the tau^3 term;
        # tau/h is far above the CFL bound but only one split step is taken.
        N = 400
        errs = []
        for tau in (0.2, 0.1, 0.05):
            grid = GridSpec(N, tau, 1)
            x = grid.x_nodes
            u0 = np.sin(np.pi * x)
            u0[0] = u0[-1] = 0.0
            ic = np.concatenate([u0, np.cos(np.pi * grid.x_half)])
            one = integrate(ic, interior_stencil(2), BoundaryScheme.classical(1), grid).u[1]
            u_exact = -np.sqrt(2.0) * np.sin(np.pi * tau - np.pi / 4) * np.sin(np.pi * x)
            errs.append(np.abs(one - u_exact).max())
        ratios = [errs[i + 1] / errs[i] for i in range(2)]
        # halving tau divides a tau^3 error by 8
        assert all(0.09 < r < 0.17 for r in ratios)
        C = errs[0] / 0.2**3
        assert errs[1] < 1.1 * C * 0.1**3
        assert errs[2] < 1.1 * C * 0.05**3


class TestLeapfrogStep:
    def test_zero_states(self, grid30, classical):
        _, _, two = first_levels(np.zeros(31), np.zeros(30), interior_stencil(2), classical, grid30)
        assert not two[0].any() and not two[1].any()

    def test_matches_direct_formula(self, grid30, classical):
        st_ = interior_stencil(2)
        u0 = np.sin(3 * np.pi * grid30.x_nodes)
        u0[0] = u0[-1] = 0.0
        p0 = np.cos(3 * np.pi * grid30.x_half)
        _, one, two = first_levels(u0, p0, st_, classical, grid30)
        expect_u, expect_p = naive_leapfrog_step(
            u0, p0, one[0], one[1], st_.a, classical, 30, grid30.h, grid30.tau
        )
        np.testing.assert_allclose(two[0], expect_u, rtol=1e-14)
        np.testing.assert_allclose(two[1], expect_p, rtol=1e-14)

    def test_linearity_over_superposition(self, grid30, classical):
        st_ = interior_stencil(2)
        obs2 = sample_observations([ModeSpec(2, 1, 1)], grid30)
        obs5 = sample_observations([ModeSpec(5, 1, 1)], grid30)

        def step_pair(u0, p0):
            return first_levels(u0, p0, st_, classical, grid30)[2]

        s2 = step_pair(*split(obs2[0], 30))
        s5 = step_pair(*split(obs5[0], 30))
        s_sum = step_pair(*split(obs2[0] + obs5[0], 30))
        np.testing.assert_allclose(s_sum[0], s2[0] + s5[0], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(s_sum[1], s2[1] + s5[1], rtol=1e-12, atol=1e-14)


class TestIntegrate:
    def test_zero_ic_zero_trajectory(self, grid30, classical):
        traj = integrate(np.zeros(61), interior_stencil(2), classical, grid30)
        assert not traj.u.any() and not traj.p.any()
        assert traj.n_steps == grid30.n_steps

    def test_first_levels_match_first_step(self, grid30, classical):
        grid = GridSpec(30, 1.0 / 120.0, 3)
        _, st_, bs, _, obs, ic = make_setup(n_steps=3)
        traj = integrate(ic, st_, bs, grid)
        u0, p0 = split(ic, 30)
        (uh, ph), (u1, p1) = naive_first_step(u0, p0, st_.a, bs, 30, grid.h, grid.tau)
        # matvec vs loop evaluation differ by summation order only
        np.testing.assert_allclose(traj.z_half[:31], uh, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(traj.z_half[31:], ph, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(traj.u[1], u1, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(traj.p[1], p1, rtol=1e-14, atol=1e-15)
        u2, _ = naive_leapfrog_step(u0, p0, u1, p1, st_.a, bs, 30, grid.h, grid.tau)
        np.testing.assert_allclose(traj.u[2], u2, rtol=1e-14, atol=1e-15)

    def test_boundary_values_stay_zero(self):
        _, st_, bs, _, obs, ic = make_setup(n_steps=500)
        grid = GridSpec(30, 1.0 / 120.0, 500)
        traj = integrate(ic, st_, bs, grid)
        assert np.abs(traj.u[:, 0]).max() == 0.0
        assert np.abs(traj.u[:, -1]).max() == 0.0

    def test_linearity(self):
        grid = GridSpec(30, 1.0 / 120.0, 300)
        st_ = interior_stencil(2)
        bs = BoundaryScheme.classical(1)
        obs2 = sample_observations([ModeSpec(2, 1, 1)], grid)
        obs5 = sample_observations([ModeSpec(5, 1, 1)], grid)
        a, b = 1.7, -0.4
        t2 = integrate(obs2[0], st_, bs, grid)
        t5 = integrate(obs5[0], st_, bs, grid)
        t_mix = integrate(a * obs2[0] + b * obs5[0], st_, bs, grid)
        np.testing.assert_allclose(t_mix.u, a * t2.u + b * t5.u, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(t_mix.p, a * t2.p + b * t5.p, rtol=1e-12, atol=1e-12)

    def test_leapfrog_reversibility(self):
        # The leapfrog update with tau -> -tau started from (level n, n-1)
        # recovers level n-2 to rounding.
        grid = GridSpec(30, 1.0 / 120.0, 50)
        _, st_, bs, _, obs, ic = make_setup(n_steps=50)
        traj = integrate(ic, st_, bs, grid)
        n = traj.n_steps
        u_rec, p_rec = naive_leapfrog_step(
            traj.u[n], traj.p[n], traj.u[n - 1], traj.p[n - 1], st_.a, bs, 30, grid.h, -grid.tau
        )
        np.testing.assert_allclose(u_rec, traj.u[n - 2], rtol=0, atol=1e-13)
        np.testing.assert_allclose(p_rec, traj.p[n - 2], rtol=0, atol=1e-13)

    def test_unstable_boundary_scheme_diverges(self):
        grid = GridSpec(30, 1.0 / 120.0, 36000)
        _, st_, _, _, obs, ic = make_setup(n_steps=36000)
        flipped = BoundaryScheme([1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, 1.0])
        with pytest.raises(IntegrationDiverged) as err:
            integrate(ic, st_, flipped, grid)
        assert err.value.time < 300.0

    def test_divergence_survives_a_pickle(self):
        # A sweep window that diverges in a forked worker comes back to
        # the parent as a pickle.
        exc = IntegrationDiverged(19, 0.57, 1e7)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is IntegrationDiverged
        assert str(back) == str(exc)
        assert (back.step, back.time, back.amplitude) == (19, 0.57, 1e7)

    def test_storage_of_another_dtype_is_refused(self):
        # A complex scheme would drop its imaginary part into a float
        # storage, and a float one would run in complex: both are refused.
        grid = GridSpec(30, 1.0 / 120.0, 40)
        _, st_, bs, _, _, ic = make_setup(n_steps=40)
        stepped = BoundaryScheme.from_control_vector(bs.to_control_vector() + 1e-30j, 1)
        assert stepped.alpha_p.dtype == complex
        for scheme, dtype in [(bs, complex), (stepped, float)]:
            storage = Storage(40, 30, dtype)
            assert all(buf.dtype == dtype for buf in vars(storage).values())
            with pytest.raises(ValueError, match="scheme cannot run on a .* Storage"):
                integrate(ic, st_, scheme, grid, out=storage)

    @pytest.mark.parametrize("kept, cells", [(10, 30), (1000, 20)], ids=["short", "other-N"])
    def test_storage_that_cannot_hold_the_run_is_refused(self, kept, cells):
        # A 40-level run on N = 30 needs a Storage of at least 40 levels on
        # 30 cells.  Any other is refused before the run writes into it.
        grid = GridSpec(30, 1.0 / 120.0, 40)
        _, st_, bs, _, _, ic = make_setup(n_steps=40)
        storage = Storage(kept, cells)
        need = "a run of 40 levels on 30 cells"
        with pytest.raises(ValueError, match=f"Storage of {kept} levels on {cells} cells.*{need}"):
            integrate(ic, st_, bs, grid, out=storage)
        assert not storage.W.any()
        # A storage that keeps more levels than the run holds it.
        z = integrate(ic, st_, bs, grid, out=Storage(41, 30)).z
        np.testing.assert_array_equal(z, integrate(ic, st_, bs, grid).z)

    def test_second_order_error_beat(self):
        # Classical scheme, k = 3: the error norm rises to ~120 and returns
        # to ~0 when the numerical wave has slipped one full period.
        grid = GridSpec(30, 1.0 / 120.0, 36000)
        _, st_, bs, modes, obs, ic = make_setup(n_steps=36000)
        traj = integrate(ic, st_, bs, grid)
        times, xi = analysis.xi_series(traj, modes)
        t_peak, xi_peak, t_zero, xi_min = first_peak_and_return(times, xi)
        assert xi_peak == pytest.approx(120.0, rel=0.05)
        assert abs(t_peak - 108.3) < 1.0
        assert abs(t_zero - 215.9) < 1.0
        assert xi_min < 0.05

    def test_fourth_order_error_peak_time(self):
        grid = GridSpec(30, 1.0 / 120.0, 66000)
        stencil = interior_stencil(4)
        bs = BoundaryScheme.classical(1)
        obs = sample_observations([ModeSpec(3, 1, 1)], grid)
        ic = obs[0].copy()
        traj = integrate(ic, stencil, bs, grid)
        times, xi = analysis.xi_series(traj, [ModeSpec(3, 1, 1)])
        i_peak = int(np.argmax(xi))
        assert xi[i_peak] == pytest.approx(120.0, rel=0.05)
        assert abs(times[i_peak] - 491.1) < 5.0


@settings(max_examples=15, deadline=None)
@given(
    a=st.floats(-3.0, 3.0, allow_nan=False),
    b=st.floats(-3.0, 3.0, allow_nan=False),
    k1=st.integers(1, 7),
    k2=st.integers(1, 7),
)
def test_integrate_linearity_property(a, b, k1, k2):
    grid = GridSpec(16, 1.0 / 64.0, 40)
    st_ = interior_stencil(2)
    bs = BoundaryScheme.classical(1)
    o1 = sample_observations([ModeSpec(k1, 1, 1)], grid)
    o2 = sample_observations([ModeSpec(k2, 1, 1)], grid)
    t1 = integrate(o1[0], st_, bs, grid)
    t2 = integrate(o2[0], st_, bs, grid)
    t_mix = integrate(a * o1[0] + b * o2[0], st_, bs, grid)
    np.testing.assert_allclose(t_mix.u, a * t1.u + b * t2.u, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(t_mix.p, a * t1.p + b * t2.p, rtol=1e-12, atol=1e-12)


def test_derivative_matrices_consistent_with_functions():
    # The D_p and D_u blocks of the stacked operator against the loop oracles.
    rng = np.random.default_rng(9)
    grid = GridSpec(12, 1.0 / 48.0, 5)
    bs = BoundaryScheme(*(rng.standard_normal(3) for _ in range(4)))
    for order in (2, 4):
        st_ = interior_stencil(order)
        D_p, D_u = blocks(st_, bs, grid)
        p = rng.standard_normal(12)
        u = rng.standard_normal(13)
        np.testing.assert_allclose(
            D_p @ p, naive_derivative_p(p, st_.a, bs.alpha_p, bs.alpha_p_tilde, 12, grid.h),
            rtol=1e-13,
        )
        np.testing.assert_allclose(
            D_u @ u, naive_derivative_u(u, st_.a, bs.alpha_u, bs.alpha_u_tilde, 12, grid.h),
            rtol=1e-13,
        )


@settings(max_examples=30, deadline=None)
@given(
    N=st.integers(6, 40),
    order=st.sampled_from([2, 4]),
    J=st.integers(1, 4),
    seed=st.integers(0, 2**31),
)
def test_stacked_operator_property(N, order, J, seed):
    # J + 1 <= N - 1 holds for every drawn pair.
    rng = np.random.default_rng(seed)
    grid = GridSpec(N, 1.0 / (4 * N), 20)
    st_ = interior_stencil(order)
    bs = BoundaryScheme(*(rng.standard_normal(J + 1) for _ in range(4)))
    A = stacked_operator(st_, bs, grid)
    D_p, D_u = A[1:N, N + 1 :], A[N + 1 :, : N + 1]
    p = rng.standard_normal(N)
    u = rng.standard_normal(N + 1)
    np.testing.assert_allclose(
        D_p @ p, naive_derivative_p(p, st_.a, bs.alpha_p, bs.alpha_p_tilde, N, grid.h),
        rtol=1e-13, atol=1e-13,
    )
    np.testing.assert_allclose(
        D_u @ u, naive_derivative_u(u, st_.a, bs.alpha_u, bs.alpha_u_tilde, N, grid.h),
        rtol=1e-13, atol=1e-13,
    )
    # Outside the two blocks A is exactly zero: no u row reads u, no p row
    # reads p, and the wall u rows are empty.
    assert not A[: N + 1, : N + 1].any() and not A[N + 1 :, N + 1 :].any()
    assert not A[[0, N]].any()
    u0 = rng.standard_normal(N + 1)
    u0[0] = u0[-1] = 0.0
    z0 = np.concatenate([u0, rng.standard_normal(N)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wave, "BLOWUP_THRESHOLD", 1e300)
        traj = integrate(z0, st_, bs, grid)
    assert not traj.u[:, 0].any() and not traj.u[:, -1].any()


@settings(max_examples=30, deadline=None)
@given(
    N=st.integers(6, 40),
    order=st.sampled_from([2, 4]),
    J=st.integers(1, 4),
    g=st.integers(0, 3),
    data=st.data(),
    seed=st.integers(0, 2**31),
)
def test_operator_and_sensitivity_agree(N, order, J, g, data, seed):
    # A unit coefficient (g, j) changes A z only at row rows[g], and by the
    # sensitivity the adjoint reads there: both come from boundary_entries.
    j = data.draw(st.integers(0, J), label="j")
    grid = GridSpec(N, 1.0 / (4 * N), 20)
    st_ = interior_stencil(order)
    e = np.zeros(4 * (J + 1))
    e[g * (J + 1) + j] = 1.0
    A0 = stacked_operator(st_, BoundaryScheme.from_control_vector(np.zeros_like(e), J), grid)
    A1 = stacked_operator(st_, BoundaryScheme.from_control_vector(e, J), grid)
    z = np.random.default_rng(seed).standard_normal(2 * N + 1)
    dAz = (A1 - A0) @ z
    row = boundary_entries(N, J)[0][g]
    np.testing.assert_allclose(dAz[row], _sensitivity(z, J)[g, j], rtol=1e-14)
    assert not np.delete(dAz, row).any()


K = BLOCK_LEVELS


@settings(max_examples=30, deadline=None)
@given(
    N=st.integers(6, 24),
    order=st.sampled_from([2, 4]),
    J=st.integers(1, 4),
    n_steps=st.sampled_from(
        [1, 2, 3, K - 1, K, K + 1, 2 * K - 1, 2 * K, 2 * K + 1, 2 * K + 2, 3 * K + 2, 4 * K + 3]
        + [2 * K * CHUNK + 1, 2 * K * CHUNK + 2]
    ),
    seed=st.integers(0, 2**31),
)
def test_integrate_matches_level_loop_at_block_edges(N, order, J, n_steps, seed):
    # The chain stack against one longhand step per level, for runs that
    # end before, on and just past the edge of a 2K-level block (2K + 1
    # levels fill one) and of a chunk of blocks.  Each level is checked
    # against the longhand step from the run's own levels before it, so
    # the rounding of a random, mostly unstable scheme does not compound
    # over the run; the scale is the amplitude of the run's last block.
    rng = np.random.default_rng(seed)
    grid = GridSpec(N, 1.0 / (4 * N), n_steps)
    st_ = interior_stencil(order)
    bs = BoundaryScheme(*(rng.standard_normal(J + 1) for _ in range(4)))
    u0 = rng.standard_normal(N + 1)
    u0[0] = u0[-1] = 0.0
    p0 = rng.standard_normal(N)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wave, "BLOWUP_THRESHOLD", 1e300)
        traj = integrate(np.concatenate([u0, p0]), st_, bs, grid)
    u, p = traj.u, traj.p
    assert u.shape == (n_steps + 1, N + 1) and p.shape == (n_steps + 1, N)
    assert np.array_equal(u[0], u0) and np.array_equal(p[0], p0)
    step = (st_.a, bs, N, grid.h, grid.tau)
    levels = [naive_first_step(u0, p0, *step)[1]]
    for t in range(2, n_steps + 1):
        levels.append(naive_leapfrog_step(u[t - 2], p[t - 2], u[t - 1], p[t - 1], *step))
    want_u, want_p = map(np.array, zip(*levels))
    scale = np.abs(traj.z[-2 * K :]).max()
    assert np.abs(u[1:] - want_u).max() <= 1e-13 * scale
    assert np.abs(p[1:] - want_p).max() <= 1e-13 * scale


def test_divergence_reports_first_level_over_threshold(monkeypatch):
    # A flipped boundary scheme grows by about 19 % per level from level 9
    # on.  For every level L that sets a new amplitude record, a threshold
    # between the old record and amps[L] must trip at L exactly, wherever L
    # falls in its block or chunk.
    N, n = 12, 2 * K * CHUNK + 40
    grid = GridSpec(N, 1.0 / 48.0, n)
    st_ = interior_stencil(2)
    flipped = BoundaryScheme([1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, 1.0])
    u0 = np.sin(np.pi * grid.x_nodes)
    u0[0] = u0[-1] = 0.0
    p0 = np.cos(np.pi * grid.x_half)
    z0 = np.concatenate([u0, p0])
    u, p = naive_integrate(u0, p0, st_.a, flipped, N, grid.h, grid.tau, n)
    amps = np.maximum(np.abs(u).max(axis=1), np.abs(p).max(axis=1))
    checked = []
    edge = 2 * K * CHUNK + 1  # the last level of the first chunk
    for L in [*range(1, 4 * K + 9), *range(edge - 2 * K, edge + 2 * K + 2)]:
        record = amps[1:L].max(initial=0.5 * amps[1])
        if amps[L] <= record * (1.0 + 1e-9):
            continue
        threshold = np.sqrt(record * amps[L])
        monkeypatch.setattr(wave, "BLOWUP_THRESHOLD", threshold)
        with pytest.raises(IntegrationDiverged) as err:
            integrate(z0, st_, flipped, grid)
        assert err.value.step == L
        assert err.value.time == pytest.approx(L * grid.tau)
        assert err.value.amplitude == pytest.approx(amps[L], rel=1e-12)
        checked.append(L)
    # Level 1 (the split first step), the first level of a block, every
    # position inside one, and the levels around the first chunk edge are
    # covered.
    assert 1 in checked and 2 in checked
    assert {(L - 2) % (2 * K) for L in checked if L >= 2} == set(range(2 * K))
    assert set(range(edge - 2 * K, edge + 2 * K + 2)) <= set(checked)


def test_divergence_past_float_range_inside_a_chunk():
    # alpha_p scaled by 1e4 grows the field about 1000x per level: its chain
    # heads overflow float64 well before the first chunk of blocks ends.
    # The blow-up must still be reported at the first level over the
    # threshold, and with no floating-point warning.
    grid, st_, bs, _, obs, ic = make_setup(n_steps=720)
    unstable = replace(bs, alpha_p=1e4 * bs.alpha_p)
    with np.errstate(over="ignore", invalid="ignore"):
        u0, p0 = split(ic, grid.N)
        u, p = naive_integrate(u0, p0, st_.a, unstable, grid.N, grid.h, grid.tau, grid.n_steps)
        amps = np.maximum(np.abs(u).max(axis=1), np.abs(p).max(axis=1))
    assert not np.isfinite(amps[: 2 * BLOCK_LEVELS * CHUNK + 1]).all()
    L = int(np.argmin(amps <= BLOWUP_THRESHOLD))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationDiverged) as err:
            integrate(ic, st_, unstable, grid)
        assert err.value.step == L
        assert err.value.amplitude == pytest.approx(amps[L], rel=1e-12)
        report, g = evaluate(unstable.to_control_vector(), Window(obs, ic, st_, grid, 1))
        streamed = cost(unstable.to_control_vector(), Window(obs, ic, st_, grid, 1))
    assert report.total == BLOWUP_PENALTY
    assert not g.any()
    assert streamed == CostReport(BLOWUP_PENALTY, BLOWUP_PENALTY, 0.0)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="np.longdouble is float64 here"
)
@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_float64_run_stays_near_its_longdouble_run(preset):
    # The same engine, A, tau and start state in np.longdouble: an oracle
    # for the float64 rounding of the chains.  Over 2400 levels of the
    # classical scheme, level t stays within (t + 1) eps of the longdouble
    # run, relative to its amplitude (at most 0.25 of that on the presets).
    exp = cli.setup_experiment(cli.resolve_config(preset, None, {"n_steps": 2400}))
    bs = BoundaryScheme.classical(1)
    z = integrate(exp.ic, exp.stencil, bs, exp.grid).z
    wide = BoundaryScheme.from_control_vector(bs.to_control_vector().astype(np.longdouble), 1)
    storage = Storage(2400, exp.grid.N, np.longdouble)
    oracle = integrate(exp.ic, exp.stencil, wide, exp.grid, out=storage).z
    assert oracle.dtype == np.longdouble
    gap = np.abs(z - oracle).max(axis=1) / np.abs(oracle).max()
    assert (gap <= np.finfo(float).eps * np.arange(1, 2402)).all()
