"""Staggered-grid discretization of the 1D wave system.

The model integrates

    du/dt = dp/dx,   dp/dt = du/dx,   0 < x < 1,   u(0, t) = u(1, t) = 0,

with u carried at the N+1 cell nodes x_i = i*h and p at the N cell
midpoints x_{i-1/2} = (i - 1/2)*h, h = 1/N (a 1D analogue of a C-type
staggered grid).  Away from the boundaries both first derivatives use a
fixed four-point stencil.  The derivative rows adjacent to the
boundaries (the first and last row of each derivative operator) instead
use free one-sided stencils whose coefficients are the control
variables identified by assimilation; see :class:`BoundaryScheme`.

The state is one stacked vector z = (u_0..u_N, p_1/2..p_N-1/2) and the
semi-discrete system is dz/dt = A z with one operator A per scheme; see
:func:`stacked_operator`.  Time stepping is leapfrog; the first step is
split into two forward Euler half-stages so the start is second-order
accurate and does not excite the odd/even leapfrog mode.  The leapfrog
levels advance BLOCK_LEVELS at a time: :func:`block_propagator` unrolls
the recurrence into one matrix per scheme, so each block costs two
matvecs instead of one per level.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BLOCK_LEVELS",
    "DEFAULT_BLOWUP_THRESHOLD",
    "BoundaryScheme",
    "GridSpec",
    "IntegrationDiverged",
    "InteriorStencil",
    "State",
    "Trajectory",
    "fourth_order",
    "integrate",
    "interior_stencil",
    "second_order",
    "stacked_operator",
]

DEFAULT_BLOWUP_THRESHOLD = 1.0e6

# Leapfrog levels advanced per block propagator product.
BLOCK_LEVELS = 8

# Offsets j = -1..2 of the interior stencil relative to the output row.
_OFFSETS = np.array([-1.0, 0.0, 1.0, 2.0])


class IntegrationDiverged(RuntimeError):
    """A field amplitude passed the blow-up threshold during integration."""

    def __init__(self, step: int, time: float, amplitude: float):
        super().__init__(
            f"integration diverged at step {step} (t = {time:.6g}): "
            f"max |field| = {amplitude:.3e}"
        )
        self.step = step
        self.time = time
        self.amplitude = amplitude


@dataclass(frozen=True)
class GridSpec:
    """Spatial and temporal resolution of a run.

    Attributes
    ----------
    N : int
        Number of cells; h = 1/N.
    tau : float
        Leapfrog time step.
    n_steps : int
        Number of stored leapfrog levels after level 0 (the split first
        step produces level 1; levels 2..n_steps come from leapfrog).
    """

    N: int
    tau: float
    n_steps: int

    def __post_init__(self):
        if self.N < 4:
            raise ValueError(f"need at least 4 cells, got N = {self.N}")
        if self.tau <= 0.0:
            raise ValueError(f"time step must be positive, got tau = {self.tau}")
        if self.n_steps < 1:
            raise ValueError(f"need at least one step, got n_steps = {self.n_steps}")
        if self.tau > self.h * (1.0 + 1e-12):
            # Unit wave speed: tau/h > 1 is outside the leapfrog stability
            # region for the uniform second-order scheme.  Warn, don't fail:
            # short runs and derivative evaluations are still meaningful.
            warnings.warn(
                f"tau/h = {self.tau * self.N:.3f} exceeds the CFL bound 1",
                stacklevel=2,
            )

    @property
    def h(self) -> float:
        return 1.0 / self.N

    @property
    def x_nodes(self) -> np.ndarray:
        """Positions of the u nodes, x_i = i*h."""
        return np.arange(self.N + 1) / self.N

    @property
    def x_half(self) -> np.ndarray:
        """Positions of the p nodes, x_{i-1/2} = (i - 1/2)*h."""
        return (np.arange(self.N) + 0.5) / self.N

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.tau


@dataclass(frozen=True)
class InteriorStencil:
    """Four-point first-derivative stencil applied away from the boundaries.

    The derivative of p at node i is (1/h) * sum_j a[j] p_{i+j-1/2} and the
    derivative of u at half-node i+1/2 is (1/h) * sum_j a[j] u_{i+j}, with
    j = -1..2.  Consistency requires sum a_j = 0 and sum (j - 1/2) a_j = 1.
    """

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.shape != (4,):
            raise ValueError(f"interior stencil needs 4 coefficients, got {a.shape}")
        object.__setattr__(self, "a", a)
        if abs(a.sum()) > 1e-12:
            raise ValueError("stencil does not annihilate constants")
        if abs(((_OFFSETS - 0.5) * a).sum() - 1.0) > 1e-12:
            raise ValueError("stencil is not exact for linear fields")


def second_order() -> InteriorStencil:
    """Centered two-point stencil, second order on the staggered grid."""
    return InteriorStencil(np.array([0.0, -1.0, 1.0, 0.0]))


def fourth_order() -> InteriorStencil:
    """Four-point stencil, fourth order on the staggered grid."""
    return InteriorStencil(np.array([1.0, -27.0, 27.0, -1.0]) / 24.0)


def interior_stencil(order: int) -> InteriorStencil:
    if order == 2:
        return second_order()
    if order == 4:
        return fourth_order()
    raise ValueError(f"interior order must be 2 or 4, got {order}")


@dataclass(frozen=True)
class BoundaryScheme:
    """One-sided derivative stencils at the rows adjacent to the boundaries.

    With J+1 coefficients per stencil the controlled rows are

        (dp/dx)_1       = (1/h) sum_j alpha_p[j] p_{j+1/2}
        (du/dx)_{1/2}   = (1/h) sum_j alpha_u[j] u_j
        (dp/dx)_{N-1}   = -(1/h) sum_j alpha_p_tilde[j] p_{N-j-1/2}
        (du/dx)_{N-1/2} = -(1/h) sum_j alpha_u_tilde[j] u_{N-j}

    so a scheme that is mirror symmetric about x = 1/2 has tilde
    coefficients equal to the plain ones.  All four groups together form
    the 4(J+1)-dimensional control space; `to_control_vector` fixes the
    ordering used throughout (plain groups ascending, tilde groups
    descending, u block before p block).
    """

    alpha_u: np.ndarray
    alpha_p: np.ndarray
    alpha_u_tilde: np.ndarray
    alpha_p_tilde: np.ndarray

    def __post_init__(self):
        arrays = {}
        for name in ("alpha_u", "alpha_p", "alpha_u_tilde", "alpha_p_tilde"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            arrays[name] = arr
            object.__setattr__(self, name, arr)
        widths = {arr.shape for arr in arrays.values()}
        if len(widths) != 1 or arrays["alpha_u"].ndim != 1:
            raise ValueError(f"stencil groups must share one width, got {widths}")
        if arrays["alpha_u"].size < 1:
            raise ValueError("boundary stencils need at least one coefficient")

    @property
    def J(self) -> int:
        return self.alpha_u.size - 1

    @classmethod
    def classical(cls, J: int = 1) -> "BoundaryScheme":
        """Plain two-point boundary derivatives, zero-padded to width J+1."""
        if J < 1:
            raise ValueError(f"the classical boundary stencil needs J >= 1, got {J}")
        coeff = np.zeros(J + 1)
        coeff[0] = -1.0
        coeff[1] = 1.0
        return cls(coeff.copy(), coeff.copy(), coeff.copy(), coeff.copy())

    def to_control_vector(self) -> np.ndarray:
        """Flatten the four groups into the canonical control ordering."""
        return np.concatenate(
            [
                self.alpha_u,
                self.alpha_u_tilde[::-1],
                self.alpha_p,
                self.alpha_p_tilde[::-1],
            ]
        )

    @classmethod
    def from_control_vector(cls, x: np.ndarray, J: int) -> "BoundaryScheme":
        x = np.asarray(x, dtype=float)
        w = J + 1
        if x.shape != (4 * w,):
            raise ValueError(f"control vector must have length {4 * w}, got {x.shape}")
        return cls(
            x[:w].copy(),
            x[2 * w : 3 * w].copy(),
            x[w : 2 * w][::-1].copy(),
            x[3 * w :][::-1].copy(),
        )

    def group_sums(self) -> dict[str, float]:
        """Coefficient sum of each group (the order -1 Taylor term)."""
        return {
            "alpha_u": float(self.alpha_u.sum()),
            "alpha_u_tilde": float(self.alpha_u_tilde.sum()),
            "alpha_p": float(self.alpha_p.sum()),
            "alpha_p_tilde": float(self.alpha_p_tilde.sum()),
        }


@dataclass(frozen=True)
class State:
    """u and p fields at one time level."""

    u: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "p", p)
        if u.ndim != 1 or p.ndim != 1 or u.size != p.size + 1:
            raise ValueError(
                f"need u at N+1 nodes and p at N half-nodes, got {u.shape}, {p.shape}"
            )
        if max(abs(u[0]), abs(u[-1])) > 1e-9:
            raise ValueError("u must vanish at both boundaries")


@dataclass(frozen=True)
class Trajectory:
    """Stacked states z = (u_0..u_N, p_1/2..p_N-1/2) at every leapfrog level.

    z has shape (n_steps+1, 2N+1); ``u`` (n_steps+1, N+1) and ``p``
    (n_steps+1, N) are views into it.  z_half holds the intermediate state
    at t = tau/2 that the split first step produces, A the stacked operator
    the run was integrated with, F its block propagator (see
    :func:`block_propagator`) and bs the scheme they were built from: the
    sensitivity model reads all of them.
    """

    z: np.ndarray
    z_half: np.ndarray
    tau: float
    A: np.ndarray
    F: np.ndarray
    bs: BoundaryScheme

    @property
    def N(self) -> int:
        return self.z.shape[1] // 2

    @property
    def u(self) -> np.ndarray:
        return self.z[:, : self.N + 1]

    @property
    def p(self) -> np.ndarray:
        return self.z[:, self.N + 1 :]

    @property
    def n_steps(self) -> int:
        return self.z.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.z.shape[0]) * self.tau


def stacked_operator(
    stencil: InteriorStencil, bs: BoundaryScheme, grid: GridSpec
) -> np.ndarray:
    """The (2N+1, 2N+1) operator A of dz/dt = A z on z = (u, p).

    Rows 1..N-1 hold D_p, dp/dx at the interior u nodes from the N p-values;
    the N p rows hold D_u, du/dx at the half-nodes from the N+1 u-values.
    Rows 0 and -1 of each block carry the boundary stencils, every other row
    the interior stencil.  The wall rows 0 and N stay zero, so u stays
    exactly zero at the walls; the wall columns keep D_u's entries, which
    therefore only ever multiply zeros.
    """
    N, J, a = grid.N, bs.J, stencil.a
    if J + 1 > N - 1:
        raise ValueError(
            f"boundary stencil width J+1 = {J + 1} reaches the opposite "
            f"boundary region on an N = {N} grid"
        )
    A = np.zeros((2 * N + 1, 2 * N + 1))
    D_p = A[1:N, N + 1 :]
    D_u = A[N + 1 :, : N + 1]
    D_p[0, : J + 1] = bs.alpha_p
    for r in range(1, N - 2):
        D_p[r, r - 1 : r + 3] = a
    D_p[N - 2, N - 1 - J :] = -bs.alpha_p_tilde[::-1]
    D_u[0, : J + 1] = bs.alpha_u
    for r in range(1, N - 1):
        D_u[r, r - 1 : r + 3] = a
    D_u[N - 1, N - J :] = -bs.alpha_u_tilde[::-1]
    return A / grid.h


def controlled_rows(N: int) -> list[int]:
    """Rows of z set by the boundary stencils, in control-vector group order.

    alpha_u and alpha_u_tilde give du/dx at the first and last half-node
    (the first and last p rows), alpha_p and alpha_p_tilde dp/dx at nodes
    1 and N-1.
    """
    return [N + 1, 2 * N, 1, N - 1]


def block_propagator(A: np.ndarray, tau: float, levels: int) -> np.ndarray:
    """The leapfrog recurrence unrolled over ``levels`` levels.

    With B = 2 tau A and E placing a 4-vector on the controlled rows, the
    step z_{t+1} = z_{t-1} + B z_t + E s_{t+1} unrolls to

        z_{t+k} = P_{k-1} z_{t-1} + P_k z_t + sum_{i=1..k} P_{k-i} E s_{t+i},

    P_0 = I, P_1 = B, P_k = P_{k-2} + B P_{k-1}.  Row block k-1 of the
    returned (levels*d, 2d + 4*levels) matrix F holds those coefficients,
    so F @ [z_{t-1}; z_t; s_{t+1}; ...; s_{t+levels}] stacks levels
    t+1..t+levels.  The source columns are block lower triangular: the
    first k row blocks do not read the sources past s_{t+k}.
    """
    d = A.shape[0]
    # P[k + 1] holds P_k, so P[0] = P_{-1} = 0 starts the recurrence exactly.
    P = np.zeros((levels + 2, d, d))
    P[1] = np.eye(d)
    B = 2.0 * tau * A
    for k in range(2, levels + 2):
        P[k] = P[k - 2] + B @ P[k - 1]
    F = np.zeros((levels, d, 2 * d + 4 * levels))
    F[:, :, :d] = P[1:-1]
    F[:, :, d : 2 * d] = P[2:]
    PE = P[1:-1][:, :, controlled_rows(d // 2)]
    for i in range(levels):
        F[i:, :, 2 * d + 4 * i : 2 * d + 4 * i + 4] = PE[: levels - i]
    return F.reshape(levels * d, 2 * d + 4 * levels)


def integrate(
    ic: State,
    stencil: InteriorStencil,
    bs: BoundaryScheme,
    grid: GridSpec,
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
) -> Trajectory:
    """Integrate the model over grid.n_steps leapfrog levels.

    Raises
    ------
    IntegrationDiverged
        If max(|u|, |p|) exceeds ``blowup_threshold`` (or turns non-finite)
        at any level; the exception names the first such level.  Unstable
        boundary schemes reached during a minimization line search end up
        here.
    """
    A = stacked_operator(stencil, bs, grid)
    N, tau, n = grid.N, grid.tau, grid.n_steps
    d = 2 * N + 1
    F = block_propagator(A, tau, min(BLOCK_LEVELS, n - 1))

    Z = np.empty((n + 1, d))
    Z[0, : N + 1] = ic.u
    Z[0, 0] = Z[0, N] = 0.0
    Z[0, N + 1 :] = ic.p
    z_half = Z[0] + 0.5 * tau * (A @ Z[0])
    Z[1] = Z[0] + tau * (A @ z_half)

    def _check(levels: np.ndarray, first: int) -> None:
        amp = np.abs(levels).max()
        if not amp <= blowup_threshold:  # also catches NaN
            amps = np.abs(levels).max(axis=1)
            i = int(np.argmin(amps <= blowup_threshold))
            raise IntegrationDiverged(first + i, (first + i) * tau, amps[i])

    _check(Z[1:2], 1)
    for t in range(1, n, BLOCK_LEVELS):
        k = min(BLOCK_LEVELS, n - t)
        block = Z[t + 1 : t + 1 + k].reshape(-1)
        # The z_t product first, then the z_{t-1} term, so that the first
        # level of a block rounds as z_{t-1} + 2 tau A z_t.
        np.matmul(F[: k * d, d : 2 * d], Z[t], out=block)
        block += F[: k * d, :d] @ Z[t - 1]
        _check(Z[t + 1 : t + 1 + k], t + 1)
    return Trajectory(Z, z_half, tau, A, F, bs)
