"""L-BFGS minimizer and the strong-Wolfe line search."""

import math

import numpy as np
import pytest

from waveassim.minimize import MinimizeConfig, lbfgs, wolfe_line_search


def rosenbrock(x):
    f = (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
    g = np.array(
        [
            -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
            200.0 * (x[1] - x[0] ** 2),
        ]
    )
    return f, g


class TestLbfgs:
    def test_1d_quadratic(self):
        res = lbfgs(lambda x: ((x[0] - 1.0) ** 2, np.array([2.0 * (x[0] - 1.0)])), np.zeros(1))
        assert abs(res.x[0] - 1.0) < 1e-10
        assert res.termination == "gradient"

    def test_rosenbrock(self):
        res = lbfgs(rosenbrock, np.array([-1.2, 1.0]))
        assert np.abs(res.x - 1.0).max() < 1e-6
        assert res.termination == "gradient"

    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_spd_quadratic_solved_to_tiny_gradient(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((8, 8))
        A = M @ M.T + 8.0 * np.eye(8)
        x0 = rng.standard_normal(8)
        res = lbfgs(
            lambda x: (0.5 * x @ A @ x, A @ x),
            x0,
            MinimizeConfig(memory=8, grad_tol=1e-12, max_iters=50),
        )
        assert np.linalg.norm(A @ res.x) < 1e-10
        assert res.n_iterations <= 50

    @pytest.mark.parametrize("seed", [5, 19])
    def test_spd_with_linear_term_matches_solve(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((8, 8))
        A = M @ M.T + 8.0 * np.eye(8)
        b = rng.standard_normal(8)
        res = lbfgs(
            lambda x: (0.5 * x @ A @ x + b @ x, A @ x + b),
            np.zeros(8),
            MinimizeConfig(memory=8, grad_tol=1e-12, max_iters=60),
        )
        x_star = np.linalg.solve(A, -b)
        assert np.abs(res.x - x_star).max() < 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cg_equivalence_on_quadratics(self, seed):
        # With memory = n and an accurate line search, L-BFGS inherits the
        # conjugate-gradient finite-termination behavior (loosely: <= 2n).
        n = 8
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, n))
        A = M @ M.T + n * np.eye(n)
        x0 = rng.standard_normal(n)
        res = lbfgs(
            lambda x: (0.5 * x @ A @ x, A @ x),
            x0,
            MinimizeConfig(memory=n, grad_tol=1e-10, max_iters=60, c2=0.1),
        )
        assert res.termination == "gradient"
        assert res.n_iterations <= 2 * n

    def test_cost_history_monotone(self):
        res = lbfgs(rosenbrock, np.array([-1.2, 1.0]))
        assert np.all(np.diff(res.cost_history) <= 0.0)
        assert res.cost_history.size == res.n_iterations + 1
        assert res.grad_norm_history.size == res.n_iterations + 1

    def test_penalty_region_backtracked(self):
        # An infinite cost standing in for an unstable region: the search
        # must stay out of it and keep the history monotone.
        def cliff(x):
            if x[0] > 1.0:
                return math.inf, np.zeros(1)
            return (x[0] - 3.0) ** 2, np.array([2.0 * (x[0] - 3.0)])

        res = lbfgs(cliff, np.zeros(1), MinimizeConfig(max_iters=50))
        assert res.x[0] <= 1.0
        assert res.f < cliff(np.zeros(1))[0]
        assert np.all(np.diff(res.cost_history) <= 0.0)

    def test_infinite_start_returns_after_one_evaluation(self):
        # A start inside the unstable region has nothing to minimize; the
        # caller tells this case apart by f == inf.
        res = lbfgs(lambda x: (math.inf, np.zeros(2)), np.ones(2))
        assert res.f == math.inf
        assert res.n_evaluations == 1 and res.n_iterations == 0
        np.testing.assert_array_equal(res.x, np.ones(2))

    def test_unbounded_descent_hits_max_iters(self):
        res = lbfgs(
            lambda x: (float(x[0]), np.array([1.0])),
            np.zeros(1),
            MinimizeConfig(max_iters=5),
        )
        assert res.termination == "max_iters"
        assert res.n_iterations == 5

    def test_stationary_start_returns_immediately(self):
        res = lbfgs(lambda x: (0.0, np.zeros(3)), np.ones(3))
        assert res.termination == "gradient"
        assert res.n_iterations == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MinimizeConfig(memory=0)
        with pytest.raises(ValueError):
            MinimizeConfig(grad_tol=2.0)
        with pytest.raises(ValueError):
            MinimizeConfig(c1=0.5, c2=0.3)


class TestWolfeLineSearch:
    @staticmethod
    def _phi_factory(f_and_grad, x, d):
        def phi(a):
            f, g = f_and_grad(x + a * d)
            return f, float(g @ d), g

        return phi

    def _assert_strong_wolfe(self, phi, f0, dphi0, cfg):
        hit = wolfe_line_search(phi, f0, dphi0, cfg)
        assert hit is not None
        a, f_a, dphi_a, _ = hit
        assert f_a <= f0 + cfg.c1 * a * dphi0 + 1e-15
        assert abs(dphi_a) <= -cfg.c2 * dphi0 + 1e-15
        return a

    def test_quadratic_direction(self):
        cfg = MinimizeConfig()
        A = np.diag([1.0, 30.0])
        f = lambda x: (0.5 * x @ A @ x, A @ x)
        x = np.array([4.0, -2.0])
        d = -f(x)[1]
        phi = self._phi_factory(f, x, d)
        f0, dphi0 = f(x)[0], float(f(x)[1] @ d)
        self._assert_strong_wolfe(phi, f0, dphi0, cfg)

    def test_rosenbrock_direction(self):
        cfg = MinimizeConfig()
        x = np.array([-1.2, 1.0])
        d = -rosenbrock(x)[1]
        phi = self._phi_factory(rosenbrock, x, d)
        f0, dphi0 = rosenbrock(x)[0], float(rosenbrock(x)[1] @ d)
        self._assert_strong_wolfe(phi, f0, dphi0, cfg)

    def test_penalty_wall_respected(self):
        cfg = MinimizeConfig()

        def f(x):
            if x[0] > 2.0:
                return math.inf, np.zeros(1)
            return (x[0] - 10.0) ** 2, np.array([2.0 * (x[0] - 10.0)])

        x = np.zeros(1)
        d = np.array([20.0])  # first unit trial lands inside the wall
        phi = self._phi_factory(f, x, d)
        f0, dphi0 = f(x)[0], float(f(x)[1] @ d)
        hit = wolfe_line_search(phi, f0, dphi0, cfg)
        assert hit is not None
        a = hit[0]
        assert x[0] + a * d[0] <= 2.0
        assert hit[1] < f0

    def test_non_finite_trials_never_accepted(self):
        # The first trial (expansion) and a zoom trial return NaN with a
        # zero slope, which would pass the curvature test if taken at face
        # value; a +inf trial in between must not be interpolated through.
        cfg = MinimizeConfig()
        bad = {1.0: math.nan, 0.5: math.inf, 0.25: math.nan}
        trials = []

        def phi(a):
            trials.append(a)
            if a in bad:
                return bad[a], 0.0, None
            return (a - 0.125) ** 2, 2.0 * (a - 0.125), a

        hit = wolfe_line_search(phi, 0.125**2, -0.25, cfg)
        assert trials[:3] == [1.0, 0.5, 0.25]
        assert hit is not None
        a, f_a, _, payload = hit
        assert math.isfinite(f_a) and f_a < 0.125**2
        assert a not in bad and payload == a

    def test_ascent_direction_rejected(self):
        with pytest.raises(ValueError):
            wolfe_line_search(lambda a: (a, 1.0, None), 0.0, 1.0)
