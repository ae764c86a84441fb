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
:func:`stacked_operator`.  The start state, trajectory, exact fields,
tangent-linear output and adjoint forcing all use this layout.  Time
stepping is leapfrog; the first step is split into two forward Euler
half-stages so the start is second-order accurate and does not excite
the odd/even leapfrog mode.  Since A only couples u with p, the
leapfrog splits into two staggered chains with step 2 tau;
:func:`chain_stack` unrolls them over BLOCK_LEVELS steps into one matrix
per scheme.  :func:`advance_chains` moves both chains a block per small
product and fills a chunk of blocks' levels per large one, and
:func:`transpose_chains` is its exact transpose for the adjoint.
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
    "Trajectory",
    "fourth_order",
    "integrate",
    "interior_stencil",
    "second_order",
    "stacked_operator",
]

DEFAULT_BLOWUP_THRESHOLD = 1.0e6

# Steps of each staggered chain per block (2 * BLOCK_LEVELS leapfrog
# levels), and blocks per chunk filled by one product.
BLOCK_LEVELS = 8
CHUNK = 32

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
class Trajectory:
    """Stacked states z = (u_0..u_N, p_1/2..p_N-1/2) at every leapfrog level.

    z has shape (n_steps+1, 2N+1); ``u`` (n_steps+1, N+1) and ``p``
    (n_steps+1, N) are views into it.  z_half holds the intermediate state
    at t = tau/2 that the split first step produces, A the stacked operator
    the run was integrated with, W its chain stack (see :func:`chain_stack`)
    and bs the scheme they were built from: the sensitivity model reads all
    of them.
    """

    z: np.ndarray
    z_half: np.ndarray
    tau: float
    A: np.ndarray
    W: np.ndarray
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


def chain_stack(A: np.ndarray, tau: float, steps: int) -> np.ndarray:
    """The two staggered leapfrog chains unrolled over ``steps`` steps.

    A couples u only with p, so z_{t+1} = z_{t-1} + B z_t (B = 2 tau A)
    splits into the chains (u_even, p_odd) and (u_odd, p_even).  A step of
    either maps y = (u_{t-1}, p_t) to (u_{t+1}, p_{t+2}) = M y + G s, with
    M = I + E, E = [[0, B D_p], [B D_u, B D_u B D_p]], and G taking the
    controlled-row sources s to u_{t+1} (and through B D_u to p_{t+2}) and
    p_{t+2}.  Row block j-1 of the result holds M^j - I and M^{j-i} G for
    i = 1..steps (zero for i > j), so y_j = y + (row block) @ [y; s_1; ...].
    M^j - I, not M^j, keeps the first step's rounding u_{t-1} + B D_p p_t.
    """
    d = A.shape[0]
    N = d // 2
    rows = controlled_rows(N)
    B = 2.0 * tau * A
    E = B.copy()
    E[N + 1 :, N + 1 :] = B[N + 1 :, : N + 1] @ B[: N + 1, N + 1 :]
    G = np.eye(d)[:, rows]
    G[:, 2:] += B[:, rows[2:]]  # a u source reaches p_{t+2} through B D_u
    W = np.zeros((steps, d, d + 4 * steps))
    P = W[:, :, :d]  # P[j-1] = M^j - I, by P[j] = P[j-1] + E + E P[j-1]
    P[0] = Pj = E
    for j in range(1, steps):
        P[j] = Pj = Pj + E + E @ Pj
    MG = G + np.concatenate([np.zeros((1, d, d)), P[:-1]]) @ G  # M^q G, q < steps
    for i in range(steps):
        W[i:, :, d + 4 * i : d + 4 * i + 4] = MG[: steps - i]
    return W.reshape(steps * d, d + 4 * steps)


def _chain_view(levels: np.ndarray, m: int) -> np.ndarray:
    """The 2*BLOCK_LEVELS*m rows of m blocks as (block, chain, step, column)."""
    return levels.reshape(m, BLOCK_LEVELS, 2, -1).transpose(0, 2, 1, 3)


def advance_chains(Z: np.ndarray, W: np.ndarray, n: int, src: np.ndarray | None = None) -> None:
    """Fill levels 2..n of Z from levels 0 and 1 with the chain stack W.

    p_2 = p_0 + B D_u u_1 starts the second chain.  Then per CHUNK blocks of
    BLOCK_LEVELS steps, one product per block moves the two chain heads and
    one product fills all the chunk's levels from them.  Z and src (the
    controlled-row sources of each level, zero at levels 0, 1 and past n)
    have n + 2*BLOCK_LEVELS + 1 rows, for what the last block overshoots.
    Every level is filled, however large it grows: blow-up is the caller's
    check (see :func:`integrate`).
    """
    d = Z.shape[1]
    N, K = d // 2, BLOCK_LEVELS
    uu, pp = slice(0, N + 1), slice(N + 1, d)
    cols = d if src is None else d + 4 * K
    Z[2, pp] = Z[0, pp] + W[N + 1 : d, : N + 1] @ Z[1, uu]
    if src is not None:
        Z[2, controlled_rows(N)[:2]] += src[2, :2]
    # X[b, c]: the head (u_{s-1+c}, p_{s+c}) of chain c at block b, then the
    # sources of its K steps; out[b, c, j] is that head after j+1 steps.
    X = np.zeros((CHUNK + 1, 2, cols))
    X[0, :, uu], X[0, :, pp] = Z[0:2, uu], Z[1:3, pp]
    out = np.empty((CHUNK, 2, K, d))
    last, rest = W[(K - 1) * d :, :cols].T, W[: (K - 1) * d, :cols].T
    nb = (n + 2 * K - 2) // (2 * K)
    for b0 in range(0, nb, CHUNK):
        s, m = 1 + 2 * K * b0, min(CHUNK, nb - b0)
        if src is not None:
            xs = X[:m, :, d:].reshape(m, 2, K, 4)
            xs[..., :2] = _chain_view(src[s + 2 : s + 2 + 2 * K * m, :2], m)
            xs[..., 2:] = _chain_view(src[s + 1 : s + 1 + 2 * K * m, 2:], m)
        for b in range(m):
            h = X[b + 1, :, :d]
            np.matmul(X[b], last, out=h)
            h += X[b, :, :d]
        o = out[:m]
        np.matmul(X[:m].reshape(2 * m, cols), rest, out=o[:, :, :-1].reshape(2 * m, -1))
        o[:, :, :-1] += X[:m, :, None, :d]
        o[:, :, -1] = X[1 : m + 1, :, :d]
        _chain_view(Z[s + 1 : s + 1 + 2 * K * m, uu], m)[...] = o[..., uu]
        _chain_view(Z[s + 2 : s + 2 + 2 * K * m, pp], m)[...] = o[..., pp]
        X[0] = X[m]


def transpose_chains(a: np.ndarray, W: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The transpose of advance_chains from level 1 and the sources on.

    a (n+1, 2N+1) holds the adjoint forcing of every level.  Returns lam
    (n+1, 4), at levels 2..n the full adjoint at the controlled rows, which
    is the adjoint of those levels' sources, and a1, the full adjoint at
    level 1: a[1] plus what the chains carry back to it (level 0, where
    perturbations start from zero, gets none).
    """
    d = a.shape[1]
    N, K = d // 2, BLOCK_LEVELS
    uu, pp = slice(0, N + 1), slice(N + 1, d)
    # Chunks and blocks in reverse.  W^T takes a chunk's forcing onto each
    # block's share of the adjoint of its heads and of its sources; the
    # carry from the next block adds through the last row block of W.
    lam = np.zeros((n + 2 * K + 1, 4))
    x = np.empty((CHUNK, 2, K, d))
    last = W[(K - 1) * d :]
    carry, carried = np.zeros((2, d)), np.empty((2, last.shape[1]))
    nb = (n + 2 * K - 2) // (2 * K)
    for b0 in reversed(range(0, nb, CHUNK)):
        s, m = 1 + 2 * K * b0, min(CHUNK, nb - b0)
        f = a[s + 1 : s + 2 + 2 * K * m]
        if len(f) < 2 * K * m + 1:  # the last block runs past level n
            f = np.concatenate([f, np.zeros((2 * K * m + 1 - len(f), d))])
        xm = x[:m]
        xm[..., uu] = _chain_view(f[:-1, uu], m)
        xm[..., pp] = _chain_view(f[1:, pp], m)
        c = (xm.reshape(2 * m, K * d) @ W).reshape(m, 2, -1)
        c[:, :, :d] += xm.sum(axis=2)
        for b in reversed(range(m)):
            c[b] += np.matmul(carry, last, out=carried)
            c[b, :, :d] += carry
            carry = c[b, :, :d]
        ls = c[:, :, d:].reshape(m, 2, K, 4)
        _chain_view(lam[s + 2 : s + 2 + 2 * K * m, :2], m)[...] = ls[..., :2]
        _chain_view(lam[s + 1 : s + 1 + 2 * K * m, 2:], m)[...] = ls[..., 2:]
    a1 = a[1].copy()
    if n > 1:  # the first heads (u_0, p_1) and (u_1, p_2 = p_0 + B D_u u_1)
        lam_p2 = carry[1, pp] + a[2, pp]
        lam[2, :2] = lam_p2[[0, N - 1]]
        a1[uu] += carry[1, uu] + W[N + 1 : d, : N + 1].T @ lam_p2
        a1[pp] += carry[0, pp]
    return lam[: n + 1], a1


def integrate(
    z0: np.ndarray,
    stencil: InteriorStencil,
    bs: BoundaryScheme,
    grid: GridSpec,
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
    out: np.ndarray | None = None,
) -> Trajectory:
    """Integrate the model from the stacked start state z0 over grid.n_steps levels.

    out, if given, is the (n_steps + 2*BLOCK_LEVELS + 1, 2N+1) storage filled.

    Raises
    ------
    ValueError
        If z0 is not a (2N+1,) row or u does not vanish at the walls.
    IntegrationDiverged
        If max(|u|, |p|) exceeds ``blowup_threshold`` (or turns non-finite)
        at any level; one scan of the computed levels names the first
        such level.  Unstable boundary schemes reached during a
        minimization line search end up here.
    """
    N, tau, n = grid.N, grid.tau, grid.n_steps
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (2 * N + 1,):
        raise ValueError(f"start state must be a ({2 * N + 1},) row, got {z0.shape}")
    if max(abs(z0[0]), abs(z0[N])) > 1e-9:
        raise ValueError("u must vanish at both boundaries")
    A = stacked_operator(stencil, bs, grid)
    W = chain_stack(A, tau, BLOCK_LEVELS)

    Z = np.empty((n + 2 * BLOCK_LEVELS + 1, 2 * N + 1)) if out is None else out
    Z[0] = z0
    Z[0, 0] = Z[0, N] = 0.0
    z_half = Z[0] + 0.5 * tau * (A @ Z[0])
    Z[1] = Z[0] + tau * (A @ z_half)

    # An unstable scheme overflows; the scan below names where it passed the threshold.
    with np.errstate(over="ignore", invalid="ignore"):
        advance_chains(Z, W, n)
    levels = Z[1 : n + 1]
    if not np.maximum(levels.max(), -levels.min()) <= blowup_threshold:  # or NaN
        amps = np.maximum(levels.max(axis=1), -levels.min(axis=1))
        i = int(np.argmin(amps <= blowup_threshold))
        raise IntegrationDiverged(i + 1, (i + 1) * tau, amps[i])
    return Trajectory(Z[: n + 1], z_half, tau, A, W, bs)
