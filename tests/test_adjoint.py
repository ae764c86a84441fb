"""Tangent-linear model, adjoint sweep, and the misfit gradient."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_misfit, tlm
from waveassim.adjoint import adjoint_sweep, control_dim, tlm_run
from waveassim.exact import ModeSpec, sample_observations
from waveassim import wave
from waveassim.objective import Window, evaluate, misfit_gradient, time_weights
from waveassim.wave import (
    BLOCK_LEVELS,
    CHUNK,
    BoundaryScheme,
    GridSpec,
    Storage,
    integrate,
    interior_stencil,
)


K = BLOCK_LEVELS
# Runs that end before, on and just past the edges of the 2K-level blocks
# (n_steps = 2K + 1 fills exactly one), the old K-level block edges, and
# the edge of a chunk of CHUNK blocks.
CHAIN_EDGES = [1, 2, 3, K, K + 2, 2 * K - 1, 2 * K, 2 * K + 1, 2 * K + 2, 2 * K + 3, 4 * K + 3]
CHUNK_EDGES = [2 * K * CHUNK + 1, 2 * K * CHUNK + 2]


def random_forcing(rng, traj):
    """Random stacked forcing shaped like traj.z, drawn as the u rows then the p rows."""
    return np.hstack([rng.standard_normal(traj.u.shape), rng.standard_normal(traj.p.shape)])


def small_case(N=12, J=1, n_steps=25, order=2, k=3):
    grid = GridSpec(N, 1.0 / (4 * N), n_steps)
    stencil = interior_stencil(order)
    bs = BoundaryScheme.classical(J)
    obs = sample_observations([ModeSpec(k, 1, 1)], grid)
    ic = obs[0].copy()
    traj = integrate(ic, stencil, bs, grid)
    return grid, stencil, bs, obs, ic, traj


class TestTangentLinearModel:
    def test_zero_perturbation(self):
        grid, stencil, bs, obs, ic, traj = small_case()
        assert not tlm(traj, np.zeros(control_dim(1))).any()

    @pytest.mark.parametrize("length", [7, 9, 16])
    def test_wrong_control_length_rejected(self, length):
        grid, stencil, bs, obs, ic, traj = small_case()
        with pytest.raises(ValueError, match="control vector must have length 8"):
            tlm(traj, np.zeros(length))

    @pytest.mark.parametrize("rows, width", [(100, 61), (None, 41)], ids=["short", "narrow"])
    def test_out_of_another_shape_rejected(self, rows, width):
        # A short out used to be written two rows deep before a reshape failed.
        grid, stencil, bs, obs, ic, traj = small_case(N=30, n_steps=720)
        out = np.full((rows or len(traj.storage.z), width), np.nan)
        shapes = f"{out.shape} is not shaped like the storage's z {traj.storage.z.shape}"
        with pytest.raises(ValueError, match=re.escape(shapes)):
            tlm_run(traj, np.ones(control_dim(1)), out)
        assert np.isnan(out).all()

    def test_output_is_stacked_like_the_trajectory(self):
        grid, stencil, bs, obs, ic, traj = small_case()
        dz = tlm(traj, np.random.default_rng(1).standard_normal(8))
        assert dz.shape == traj.z.shape
        assert np.abs(dz[1:, 1:12]).max() > 0.0 and np.abs(dz[1:, 13:]).max() > 0.0
        assert not dz[:, 0].any() and not dz[:, 12].any()

    def test_linearity(self):
        rng = np.random.default_rng(2)
        grid, stencil, bs, obs, ic, traj = small_case()
        d1 = rng.standard_normal(8)
        d2 = rng.standard_normal(8)
        a, b = 1.3, -0.8
        dz1 = tlm(traj, d1)
        dz2 = tlm(traj, d2)
        dz = tlm(traj, a * d1 + b * d2)
        np.testing.assert_allclose(dz, a * dz1 + b * dz2, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("comp", range(8))
    def test_finite_difference_consistency(self, comp):
        # The model is bilinear in (coefficients, state): the forward
        # difference minus the tangent response shrinks linearly in eps.
        grid, stencil, bs, obs, ic, traj = small_case(N=16, n_steps=40)
        e = np.zeros(8)
        e[comp] = 1.0
        dz = tlm(traj, e)
        x0 = bs.to_control_vector()

        def residual(eps):
            bs_p = BoundaryScheme.from_control_vector(x0 + eps * e, 1)
            traj_p = integrate(ic, stencil, bs_p, grid)
            r = (traj_p.z - traj.z) / eps - dz
            return np.sqrt((r * r).sum())

        r1, r2 = residual(1e-6), residual(5e-7)
        scale = np.sqrt((dz * dz).sum())
        assert r1 < 1e-5 * max(scale, 1.0)
        if r1 > 1e-12 * max(scale, 1.0):  # ratio is meaningful above rounding
            assert 0.35 < r2 / r1 < 0.65


    @pytest.mark.parametrize("n_steps", CHAIN_EDGES + CHUNK_EDGES)
    @pytest.mark.parametrize("J,order", [(2, 2), (4, 4)])
    def test_matches_central_difference_at_block_edges(self, J, order, n_steps):
        # The trajectory is polynomial in the coefficients: its central
        # difference matches the tangent response to O(eps^2) and rounding,
        # measured at most 5e-10 of the response here.
        rng = np.random.default_rng(9)
        grid, stencil, bs, obs, ic, traj = small_case(N=12, J=J, n_steps=n_steps, order=order)
        d = rng.standard_normal(control_dim(J))
        x, eps = bs.to_control_vector(), 1e-6
        plus, minus = (
            integrate(ic, stencil, BoundaryScheme.from_control_vector(x + sign * eps * d, J), grid)
            for sign in (1.0, -1.0)
        )
        tl = tlm(traj, d)
        fd = (plus.z - minus.z) / (2.0 * eps)
        assert np.abs(fd - tl).max() <= 1e-8 * np.abs(tl).max()


class TestAdjointSweep:
    def test_zero_forcing(self):
        grid, stencil, bs, obs, ic, traj = small_case()
        g = adjoint_sweep(traj, np.zeros_like(traj.z))
        assert not g.any()

    def test_forcing_shape_checked_and_left_unchanged(self):
        grid, stencil, bs, obs, ic, traj = small_case()
        for bad in (traj.u, traj.z[1:], traj.z.T):
            with pytest.raises(ValueError, match="forcing shape"):
                adjoint_sweep(traj, bad)
        f = random_forcing(np.random.default_rng(4), traj)
        kept = f.copy()
        adjoint_sweep(traj, f)
        np.testing.assert_array_equal(f, kept)

    def test_scratch_comes_from_the_trajectory_storage(self):
        # integrate without out gives the trajectory a Storage of its own,
        # and the sweep takes its chunk, source adjoints and block products
        # from it: at m = 720 no call allocates even one chunk buffer.
        grid, stencil, bs, obs, ic, traj = small_case(N=30, n_steps=720)
        assert isinstance(traj.storage, Storage)
        f = random_forcing(np.random.default_rng(8), traj)
        tracemalloc.start()
        try:
            adjoint_sweep(traj, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < traj.storage.chunk.nbytes

    @pytest.mark.parametrize(
        "J, n_steps",
        [(2, n) for n in CHAIN_EDGES + CHUNK_EDGES] + [(1, 12)],
        ids=[str(n) for n in CHAIN_EDGES + CHUNK_EDGES] + ["J1-12"],
    )
    def test_matches_dense_transpose_at_block_edges(self, J, n_steps):
        # Build the full linear map column by column through the TLM and
        # compare its dense transpose against the sweep.
        rng = np.random.default_rng(6)
        grid, stencil, bs, obs, ic, traj = small_case(N=8, J=J, n_steps=n_steps)
        dim = control_dim(J)
        A = np.column_stack([tlm(traj, e).ravel() for e in np.eye(dim)])
        f = random_forcing(rng, traj)
        np.testing.assert_allclose(adjoint_sweep(traj, f), A.T @ f.ravel(), rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize(
        "J, order, n_steps",
        [(1, 2, n) for n in CHAIN_EDGES + [3 * K + 2] + CHUNK_EDGES]
        + [(4, 4, n) for n in CHAIN_EDGES + [3 * K + 2] + CHUNK_EDGES]
        + [(1, 2, 30), (4, 2, 30), (1, 4, 30), (4, 4, 30)],
    )
    def test_dot_product_identity_at_block_edges(self, J, order, n_steps):
        rng = np.random.default_rng(5)
        grid, stencil, bs, obs, ic, traj = small_case(
            N=14, J=J, n_steps=n_steps, order=order
        )
        for _ in range(5):
            d = rng.standard_normal(control_dim(J))
            f = random_forcing(rng, traj)
            lhs = float((tlm(traj, d) * f).sum())
            rhs = float(d @ adjoint_sweep(traj, f))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_equals_sum_of_per_level_sweeps(self):
        # One backward pass carrying every forcing level at once must agree
        # with running one backward integration per forcing level.
        rng = np.random.default_rng(7)
        grid, stencil, bs, obs, ic, traj = small_case(N=10, n_steps=20)
        f = random_forcing(rng, traj)
        total = np.zeros(control_dim(1))
        for level in range(traj.n_steps + 1):
            f_l = np.zeros_like(f)
            f_l[level] = f[level]
            total += adjoint_sweep(traj, f_l)
        full = adjoint_sweep(traj, f)
        np.testing.assert_allclose(full, total, rtol=1e-12, atol=1e-14)


@settings(max_examples=20, deadline=None)
@given(
    N=st.integers(8, 20),
    J=st.integers(0, 3),
    n_steps=st.integers(1, 30),
    order=st.sampled_from([2, 4]),
    seed=st.integers(0, 2**31),
)
def test_dot_product_identity_property(N, J, n_steps, order, seed):
    if J + 1 > N - 1:
        return
    rng = np.random.default_rng(seed)
    grid = GridSpec(N, 1.0 / (4 * N), n_steps)
    stencil = interior_stencil(order)
    bs = BoundaryScheme(*(rng.standard_normal(J + 1) for _ in range(4)))
    u0 = rng.standard_normal(N + 1)
    u0[0] = u0[-1] = 0.0
    ic = np.concatenate([u0, rng.standard_normal(N)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wave, "BLOWUP_THRESHOLD", 1e12)
        traj = integrate(ic, stencil, bs, grid)
    d = rng.standard_normal(control_dim(J))
    f = random_forcing(rng, traj)
    lhs = float((tlm(traj, d) * f).sum())
    rhs = float(d @ adjoint_sweep(traj, f))
    assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), abs(rhs), 1.0)


class TestMisfitGradient:
    def test_zero_for_perfect_twin(self):
        grid, stencil, bs, obs, ic, traj = small_case()
        misfit, res = naive_misfit(traj, traj.z.copy())
        assert misfit == 0.0
        assert np.abs(misfit_gradient(traj, res)).max() < 1e-14

    def test_linear_in_misfit(self):
        grid, stencil, bs, obs, ic, traj = small_case(n_steps=30)
        g1 = misfit_gradient(traj, naive_misfit(traj, obs)[1])
        # observations at 2*obs - traj double the misfit fields
        g2 = misfit_gradient(traj, naive_misfit(traj, 2 * obs[: traj.n_steps + 1] - traj.z)[1])
        np.testing.assert_allclose(g2, 2 * g1, rtol=1e-12, atol=1e-16)

    def test_against_finite_differences(self, k3_small):
        grid, stencil, bs, modes, obs, ic = k3_small
        win = Window(obs, ic, stencil, grid, 1)
        x0 = bs.to_control_vector() + np.array(
            [0.011, -0.007, 0.013, -0.009, 0.008, 0.012, -0.011, 0.009]
        )
        _, g = evaluate(x0, win)
        eps = 1e-5
        fd = np.zeros_like(g)
        for j in range(8):
            e = np.zeros(8)
            e[j] = eps
            rp, _ = evaluate(x0 + e, win)
            rm, _ = evaluate(x0 - e, win)
            fd[j] = (rp.total - rm.total) / (2 * eps)
        rel = np.abs(g - fd) / np.maximum(np.abs(g), np.maximum(np.abs(fd), 1e-12))
        assert rel.max() < 1e-6

    def test_descent_direction(self, k3_small):
        grid, stencil, bs, modes, obs, ic = k3_small
        win = Window(obs, ic, stencil, grid, 1)
        x0 = bs.to_control_vector()
        r0, g = evaluate(x0, win)
        r1, _ = evaluate(x0 - 1e-3 * g / np.linalg.norm(g), win)
        assert r1.total < r0.total

    def test_mirror_symmetry_of_gradient(self, k3_small):
        # Single-mode data are mirror symmetric about x = 1/2, so the right-
        # boundary stencil gradients equal the left ones.
        grid, stencil, bs, modes, obs, ic = k3_small
        win = Window(obs, ic, stencil, grid, 1)
        _, g = evaluate(bs.to_control_vector(), win)
        gs = BoundaryScheme.from_control_vector(g, 1)
        np.testing.assert_allclose(gs.alpha_u_tilde, gs.alpha_u, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(gs.alpha_p_tilde, gs.alpha_p, rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("order, J", [(2, 1), (4, 3)])
    def test_bit_identical_to_the_residual_formula(self, order, J):
        # evaluate puts the residual straight into the window storage's res
        # and squares it into its chunk; cost and gradient must equal, bit for
        # bit, the longhand misfit and a copy of the trajectory minus the
        # observations weighted as the adjoint forcing, which res then holds.
        obs = sample_observations(
            [ModeSpec(2, 1.0, 0.5), ModeSpec(5, 0.3, 1.0)], GridSpec(30, 1.0 / 120.0, 300)
        )
        ic = obs[0].copy()
        x = BoundaryScheme.classical(J).to_control_vector()
        x += 0.01 * np.random.default_rng(3).standard_normal(x.size)
        bs = BoundaryScheme.from_control_vector(x, J)
        grid = GridSpec(30, 1.0 / 120.0, 250)
        win = Window(obs, ic, interior_stencil(order), grid, J)
        report, grad = evaluate(x, win)

        traj = integrate(ic, interior_stencil(order), bs, grid)
        misfit, res = naive_misfit(traj, obs)
        res *= 2.0 * (1.0 / traj.N) * time_weights(traj.n_steps, traj.tau)[:, None]
        assert misfit > 0.0
        np.testing.assert_array_equal(report.misfit, misfit)
        np.testing.assert_array_equal(win.storage.res, res)
        np.testing.assert_array_equal(grad, adjoint_sweep(traj, res))

    def test_u_zero_columns_have_zero_gradient(self, k3_small):
        # u vanishes at both walls, so the leading coefficient of each
        # u stencil never enters the dynamics.
        grid, stencil, bs, modes, obs, ic = k3_small
        win = Window(obs, ic, stencil, grid, 1)
        _, g = evaluate(bs.to_control_vector(), win)
        assert g[0] == 0.0  # alpha_u_0
        assert g[3] == 0.0  # alpha_u_tilde_0 (stored reversed)


def test_time_weights_trapezoid():
    w = time_weights(4, 0.1)
    np.testing.assert_allclose(w, [0.05, 0.1, 0.1, 0.1, 0.05])
    assert w.sum() == pytest.approx(0.4)
    with pytest.raises(ValueError):
        time_weights(0, 0.1)
