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
per scheme.  A run and its sensitivity runs write only into the run's
:class:`Storage`, so repeated runs on one storage allocate nothing large.
:func:`advance_chains` takes the split start, then moves both chains a
block per small product and fills a chunk of blocks' levels per large
one, tangent-linear sources included, and hands each chunk on;
:func:`transpose_chains` is its exact transpose for the adjoint.  Every
forward run is one :func:`run`: the start state into the storage, A and
W, the chains, and a blow-up scan of each chunk before its consumer gets
it.  The forward engine runs in the dtype of the scheme and its storage:
float64, or complex for the complex-step cost of ``objective.cost``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BLOWUP_THRESHOLD",
    "BoundaryScheme",
    "GridSpec",
    "IntegrationDiverged",
    "InteriorStencil",
    "Storage",
    "Trajectory",
    "integrate",
    "interior_stencil",
    "stacked_operator",
]

BLOWUP_THRESHOLD = 1.0e6

# Steps of each staggered chain per block (2 * BLOCK_LEVELS leapfrog
# levels), and blocks per chunk filled by one product.
BLOCK_LEVELS = 8
CHUNK = 32

# Offsets j = -1..2 of the interior stencil relative to the output row.
_OFFSETS = np.array([-1.0, 0.0, 1.0, 2.0])

# The four boundary stencil groups of BoundaryScheme in control-vector order,
# each with its orientation.  A tilde group acts from the far wall: it enters
# A with sign -1, and the control vector holds it descending (x[::sign]).
BOUNDARY_GROUPS = (("alpha_u", 1), ("alpha_u_tilde", -1), ("alpha_p", 1), ("alpha_p_tilde", -1))


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

    def __reduce__(self):
        # args hold only the message; a pickle (a worker's error, see
        # cli._map) rebuilds the exception from its fields.
        return type(self), (self.step, self.time, self.amplitude)


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
        for name in ("N", "n_steps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.N < 4:
            raise ValueError(f"need at least 4 cells, got N = {self.N}")
        if not 0.0 < self.tau < np.inf:
            raise ValueError(f"time step must be positive and finite, got tau = {self.tau}")
        if self.n_steps < 1:
            raise ValueError(f"need at least one step, got n_steps = {self.n_steps}")
        if self.tau > self.h * (1.0 + 1e-12):
            # Unit wave speed: tau/h > 1 is outside the leapfrog stability
            # region for the uniform second-order scheme.  Warn, don't fail:
            # short runs and derivative evaluations are still meaningful.
            warnings.warn(
                f"tau/h = {self.tau * self.N:.3f} exceeds the CFL bound 1",
                stacklevel=3,
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

    @classmethod
    def quiet(cls, N: int, tau: float, n_steps: int) -> "GridSpec":
        """GridSpec(N, tau, n_steps) for an N and tau that a grid has checked.

        That grid gave the CFL warning, if any; this one gives it no second time.
        """
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "tau/h", UserWarning)
            return cls(N, tau, n_steps)


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


def interior_stencil(order: int) -> InteriorStencil:
    """The centered two-point (order 2) or four-point (order 4) staggered stencil."""
    if order == 2:
        return InteriorStencil(np.array([0.0, -1.0, 1.0, 0.0]))
    if order == 4:
        return InteriorStencil(np.array([1.0, -27.0, 27.0, -1.0]) / 24.0)
    raise ValueError(f"interior order must be 2 or 4, got {order}")


def _inexact(x) -> np.ndarray:
    """x as a float64 array, or in its own dtype if that is a wider float or a complex one."""
    x = np.asarray(x)
    return x.astype(np.result_type(x, float), copy=False)


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
    the 4(J+1)-dimensional control space, laid out as ``BOUNDARY_GROUPS``
    lists them (u groups before p groups, tilde groups descending).
    Complex or wider float groups keep their dtype, and A and its runs take
    it (see :class:`Storage`); any other becomes float64.
    """

    alpha_u: np.ndarray
    alpha_p: np.ndarray
    alpha_u_tilde: np.ndarray
    alpha_p_tilde: np.ndarray

    def __post_init__(self):
        for name, g in self.groups().items():
            object.__setattr__(self, name, _inexact(np.atleast_1d(g)))
        widths = {g.shape for g in self.groups().values()}
        if len(widths) != 1 or self.alpha_u.ndim != 1:
            raise ValueError(f"stencil groups must share one width, got {widths}")
        if self.alpha_u.size < 1:
            raise ValueError("boundary stencils need at least one coefficient")

    def groups(self) -> dict[str, np.ndarray]:
        """The four coefficient groups by name, in control-vector order."""
        return {name: getattr(self, name) for name, _ in BOUNDARY_GROUPS}

    @property
    def J(self) -> int:
        return self.alpha_u.size - 1

    @classmethod
    def classical(cls, J: int) -> "BoundaryScheme":
        """Plain two-point boundary derivatives, zero-padded to width J+1."""
        if J < 1:
            raise ValueError(f"the classical boundary stencil needs J >= 1, got {J}")
        coeff = np.zeros(J + 1)
        coeff[0] = -1.0
        coeff[1] = 1.0
        return cls(coeff.copy(), coeff.copy(), coeff.copy(), coeff.copy())

    def to_control_vector(self) -> np.ndarray:
        """Flatten the four groups into the canonical control ordering."""
        return np.concatenate([getattr(self, name)[::sign] for name, sign in BOUNDARY_GROUPS])

    @classmethod
    def from_control_vector(cls, x: np.ndarray, J: int) -> "BoundaryScheme":
        x = _inexact(x)
        w = J + 1
        if x.shape != (4 * w,):
            raise ValueError(f"control vector must have length {4 * w}, got {x.shape}")
        rows = x.reshape(4, w)
        return cls(**{name: g[::sign].copy() for (name, sign), g in zip(BOUNDARY_GROUPS, rows)})

    def group_sums(self) -> dict[str, float]:
        """Coefficient sum of each group (the order -1 Taylor term)."""
        return {name: float(g.sum()) for name, g in self.groups().items()}


class Storage:
    """Every buffer that a run keeping n levels on 2N+1 values writes, allocated once.

    z holds levels 0..n, or one chunk of levels if that is more, and what
    the last block overshoots; a run longer than that refills it a chunk
    at a time, so Storage(0, N) serves a run of any length, and the
    rows that a shorter run never writes are never touched.  W is a chain
    stack whose structurally zero blocks are written here, once (see
    :func:`chain_stack`).  chunk holds one chunk of chain levels: the output
    of :func:`advance_chains`, the forcing of :func:`transpose_chains`, or
    a caller's rows in between (the squared misfit residual of
    ``objective``, the exact rows of ``analysis``).  heads holds the chain
    heads and their sources, or the adjoint's block products (a forward
    and an adjoint run never overlap), lam the adjoint's source values and
    res the misfit residual of levels 0..n, which ``objective.evaluate``
    scales into the adjoint forcing; integrate checks its shape.  Each run
    overwrites them, so a Trajectory lasts until the next run on its
    storage.  Every buffer has the storage's dtype, which the run's scheme
    must share: a complex one carries a complex step (see
    ``objective.cost``).
    """

    def __init__(self, n: int, N: int, dtype=np.float64):
        d, K = 2 * N + 1, BLOCK_LEVELS
        self.z = np.empty((max(n, 2 * K * CHUNK) + 2 * K + 1, d), dtype)
        self.W = np.zeros((K * d, d + 4 * K), dtype)
        self.chunk = np.empty((2 * K * CHUNK, d), dtype)
        self.heads = np.empty((CHUNK + 1, 2, d + 4 * K), dtype)
        self.lam = np.empty((n + 2 * K + 1, 4), dtype)
        self.res = np.empty((n + 1, d), dtype)


@dataclass(frozen=True)
class Trajectory:
    """Stacked states z = (u_0..u_N, p_1/2..p_N-1/2) at every leapfrog level.

    z has shape (n_steps+1, 2N+1); ``u`` (n_steps+1, N+1) and ``p``
    (n_steps+1, N) are views into it.  z_half holds the intermediate state
    at t = tau/2 that the split first step produces, A the stacked operator
    the run was integrated with and bs the scheme it was built from.
    storage is the Storage the run was integrated on: z lives in it, its W
    is A's chain stack (see :func:`chain_stack`), and the sensitivity runs
    take their scratch from it.
    """

    z: np.ndarray
    z_half: np.ndarray
    tau: float
    A: np.ndarray
    bs: BoundaryScheme
    storage: Storage

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


def boundary_entries(N: int, J: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the boundary stencils sit in A, in control-vector group order.

    Group g of the control vector (``BoundaryScheme.to_control_vector``
    reshaped to (4, J+1)) fills A[rows[g], cols[g]] = sign[g] * x_g / h:
    alpha_u and alpha_u_tilde give du/dx at the first and last half-node
    (the first and last p rows), alpha_p and alpha_p_tilde dp/dx at nodes 1
    and N-1.  sign is each group's orientation in ``BOUNDARY_GROUPS``; as
    the tilde groups are stored descending, each group's columns ascend.
    rows does not depend on J.
    """
    rows = np.array([N + 1, 2 * N, 1, N - 1])
    cols = np.array([0, N - J, N + 1, 2 * N - J])[:, None] + np.arange(J + 1)
    return rows, cols, np.array([sign for _, sign in BOUNDARY_GROUPS], dtype=float)


def stacked_operator(
    stencil: InteriorStencil, bs: BoundaryScheme, grid: GridSpec
) -> np.ndarray:
    """The (2N+1, 2N+1) operator A of dz/dt = A z on z = (u, p).

    Rows 1..N-1 hold D_p, dp/dx at the interior u nodes from the N p-values;
    the N p rows hold D_u, du/dx at the half-nodes from the N+1 u-values.
    Rows 0 and -1 of each block carry the boundary stencils (see
    :func:`boundary_entries`), every other row the interior stencil.  The
    wall rows 0 and N stay zero, so u stays exactly zero at the walls; the
    wall columns keep D_u's entries, which therefore only ever multiply
    zeros.  A has the dtype of bs's coefficients.
    """
    N, J, a = grid.N, bs.J, stencil.a
    if J + 1 > N - 1:
        raise ValueError(
            f"boundary stencil width J+1 = {J + 1} reaches the opposite "
            f"boundary region on an N = {N} grid"
        )
    A = np.zeros((2 * N + 1, 2 * N + 1), bs.alpha_u.dtype)
    for D in (A[1:N, N + 1 :], A[N + 1 :, : N + 1]):  # D_p, then D_u
        r = np.arange(1, len(D) - 1)[:, None]  # every row but the two boundary ones
        D[r, r - 1 + np.arange(4)] = a
    rows, cols, sign = boundary_entries(N, J)
    A[rows[:, None], cols] = sign[:, None] * np.reshape(bs.to_control_vector(), (4, J + 1))
    return A / grid.h


def chain_stack(A: np.ndarray, tau: float, storage: Storage) -> None:
    """The two staggered leapfrog chains unrolled over K = BLOCK_LEVELS steps.

    A couples u only with p, so z_{t+1} = z_{t-1} + B z_t (B = 2 tau A)
    splits into the chains (u_even, p_odd) and (u_odd, p_even).  A step of
    either maps y = (u_{t-1}, p_t) to (u_{t+1}, p_{t+2}) = M y + G s, with
    M = I + E, E = [[0, B D_p], [B D_u, B D_u B D_p]], and G taking the
    controlled-row sources s to u_{t+1} (and through B D_u to p_{t+2}) and
    p_{t+2}.  Row block j-1 of the result holds M^j - I and M^{j-i} G for
    i = 1..K (zero for i > j), so y_j = y + (row block) @ [y; s_1; ...].
    M^j - I, not M^j, keeps the first step's rounding u_{t-1} + B D_p p_t.
    The result fills storage.W, whose blocks for i > j hold the zeros that
    the storage was made with: no call writes them.
    """
    d = A.shape[0]
    N, K = d // 2, BLOCK_LEVELS
    rows = boundary_entries(N, 0)[0]
    B = 2.0 * tau * A
    E = B.copy()
    E[N + 1 :, N + 1 :] = B[N + 1 :, : N + 1] @ B[: N + 1, N + 1 :]
    G = np.eye(d, dtype=A.dtype)[:, rows]
    G[:, 2:] += B[:, rows[2:]]  # a u source reaches p_{t+2} through B D_u
    W = storage.W.reshape(K, d, d + 4 * K)
    P = W[:, :, :d]  # P[j-1] = M^j - I, by P[j] = P[j-1] + E + E P[j-1]
    P[0] = Pj = E
    for j in range(1, K):
        P[j] = Pj = Pj + E + E @ Pj
    MG = np.concatenate([G[None], G + P[:-1] @ G])  # M^q G, q < K
    for i in range(K):
        W[i:, :, d + 4 * i : d + 4 * i + 4] = MG[: K - i]


def _chain_view(levels: np.ndarray, m: int) -> np.ndarray:
    """The 2*BLOCK_LEVELS*m rows of m blocks as (block, chain, step, column)."""
    return levels.reshape(m, BLOCK_LEVELS, 2, levels.shape[1]).transpose(0, 2, 1, 3)


def _to_chains(dst: np.ndarray, levels: np.ndarray) -> None:
    """Write levels into dst (m, 2, BLOCK_LEVELS, w) as _chain_view lays them out.

    levels holds at most the m blocks' 2*BLOCK_LEVELS*m rows: the last chunk
    of a run may hold fewer, and dst is zero past them.
    """
    m, K = dst.shape[0], BLOCK_LEVELS
    full, r = divmod(len(levels), 2 * K)
    dst[:full] = _chain_view(levels[: 2 * K * full], full)
    if full < m:
        dst[full:] = 0.0
        dst[full, 0, : (r + 1) // 2] = levels[2 * K * full :: 2]
        dst[full, 1, : r // 2] = levels[2 * K * full + 1 :: 2]


@np.errstate(over="ignore", invalid="ignore")
def advance_chains(
    Z: np.ndarray, A: np.ndarray, storage: Storage, tau: float, n: int,
    q=None, q_half=None, emit=None,
) -> np.ndarray:
    """Fill levels 1..n of Z from level 0 with A and its chain stack storage.W; return z_half.

    The split first step z_half = z_0 + tau/2 A z_0, z_1 = z_0 + tau A z_half
    and p_2 = p_0 + B D_u u_1 start the two chains.  Then per CHUNK blocks of
    BLOCK_LEVELS steps, one product per block moves the chain heads and one
    product fills all the chunk's levels from them.  The tangent-linear
    sources q (n, 4) at the controlled rows of levels 0..n-1 and q_half (4,)
    at the half stage add tau/2 q[0] to z_half, tau q_half to z_1 and
    2 tau q[t] to level t+1; each chunk weights its own rows of q.  Z is
    storage.z or shaped like it, for what the last block overshoots; one too
    short for the run is refilled a chunk at a time (see :class:`Storage`).
    Every level is filled, however large it grows: blow-up is the caller's
    check.  emit(t, rows) gets each chunk's finished levels t, t+1, ... in
    turn.  storage also holds the chunk and the heads.
    """
    d, W = Z.shape[1], storage.W
    N, K = d // 2, BLOCK_LEVELS
    uu, pp = slice(0, N + 1), slice(N + 1, d)
    rows = boundary_entries(N, 0)[0]
    z_half = Z[0] + 0.5 * tau * (A @ Z[0])
    if q is not None:
        z_half[rows] += 0.5 * tau * q[0]
    Z[1] = Z[0] + tau * (A @ z_half)
    if q is not None:
        Z[1, rows] += tau * q_half
    Z[2, pp] = Z[0, pp] + W[N + 1 : d, : N + 1] @ Z[1, uu]
    if q is not None and n > 1:
        Z[2, rows[:2]] += 2.0 * tau * q[1, :2]
    cols = d if q is None else d + 4 * K
    # X[b, c]: the head (u_{s-1+c}, p_{s+c}) of chain c at block b, then the
    # sources of its K steps; out[b, c, j] is that head after j+1 steps.
    # Without sources the heads are narrower rows, read from storage.heads' start.
    X = storage.heads.reshape(-1)[: (CHUNK + 1) * 2 * cols].reshape(CHUNK + 1, 2, cols)
    X[0, :, uu], X[0, :, pp] = Z[0:2, uu], Z[1:3, pp]
    out = storage.chunk.reshape(CHUNK, 2, K, d)
    last, rest = W[(K - 1) * d :, :cols].T, W[: (K - 1) * d, :cols].T
    nb = max(1, (n + 2 * K - 2) // (2 * K))  # a one-level run steps a block too
    refill = len(Z) < 2 * K * nb + 3  # Z cannot hold the run, so it keeps a chunk at a time
    t = e = 0  # the level in row 0 of Z, and the first level not yet emitted
    for b0 in range(0, nb, CHUNK):
        s, m = 1 + 2 * K * b0, min(CHUNK, nb - b0)
        if refill and b0:
            Z[0], t = Z[e - t], e
        if q is not None:  # level t+1 takes 2 tau q[t], up to level n
            xs = X[:m, :, d:].reshape(m, 2, K, 4)
            _to_chains(xs[..., :2], q[s + 1 : s + 1 + 2 * K * m, :2])
            _to_chains(xs[..., 2:], q[s : s + 2 * K * m, 2:])
            xs *= 2.0 * tau
        for b in range(m):
            h = X[b + 1, :, :d]
            np.matmul(X[b], last, out=h)
            h += X[b, :, :d]
        o = out[:m]
        np.matmul(X[:m].reshape(2 * m, cols), rest, out=o[:, :, :-1].reshape(2 * m, -1))
        o[:, :, :-1] += X[:m, :, None, :d]
        o[:, :, -1] = X[1 : m + 1, :, :d]
        r = s - t
        _chain_view(Z[r + 1 : r + 1 + 2 * K * m, uu], m)[...] = o[..., uu]
        _chain_view(Z[r + 2 : r + 2 + 2 * K * m, pp], m)[...] = o[..., pp]
        X[0] = X[m]
        f = min(s + 1 + 2 * K * m, n + 1)  # levels e..f-1 are finished
        if emit is not None:
            emit(e, Z[e - t : f - t])
        e = f
    return z_half


def transpose_chains(
    a: np.ndarray, A: np.ndarray, storage: Storage, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """The adjoint (w, w_half) of advance_chains' q and q_half, from a zero level 0.

    a (n+1, 2N+1) holds the adjoint forcing of every level.  w (n, 4) and
    w_half (4,) are the adjoint at the controlled rows each source reaches,
    times the weight it enters with; w is a view of storage.lam.  storage
    holds the chain stack W, the chunk, the block products (in heads) and
    the source adjoints.
    """
    n, d, W = a.shape[0] - 1, a.shape[1], storage.W
    N, K = d // 2, BLOCK_LEVELS
    uu, pp = slice(0, N + 1), slice(N + 1, d)
    rows = boundary_entries(N, 0)[0]
    # Chunks and blocks in reverse.  W^T takes a chunk's forcing onto each
    # block's share of the adjoint of its heads and of its sources; the
    # carry from the next block adds through the last row block of W.
    lam, x = storage.lam, storage.chunk.reshape(CHUNK, 2, K, d)
    cm = storage.heads[:CHUNK]
    last = W[(K - 1) * d :]
    carry, carried = np.zeros((2, d)), np.empty((2, last.shape[1]))
    nb = (n + 2 * K - 2) // (2 * K)
    for b0 in reversed(range(0, nb, CHUNK)):
        s, m = 1 + 2 * K * b0, min(CHUNK, nb - b0)
        xm = x[:m]  # the forcing of the m blocks, zero past level n
        _to_chains(xm[..., uu], a[s + 1 : s + 1 + 2 * K * m, uu])
        _to_chains(xm[..., pp], a[s + 2 : s + 2 + 2 * K * m, pp])
        c = cm[:m]
        np.matmul(xm.reshape(2 * m, K * d), W, out=c.reshape(2 * m, -1))
        c[:, :, :d] += xm.sum(axis=2)
        for b in reversed(range(m)):
            c[b] += np.matmul(carry, last, out=carried)
            np.add(c[b, :, :d], carry, out=carry)  # only c[..., d:] is read below
        ls = c[:, :, d:].reshape(m, 2, K, 4)
        _chain_view(lam[s + 2 : s + 2 + 2 * K * m, :2], m)[...] = ls[..., :2]
        _chain_view(lam[s + 1 : s + 1 + 2 * K * m, 2:], m)[...] = ls[..., 2:]
    a1 = a[1].copy()  # the full adjoint at level 1
    if n > 1:  # the first heads (u_0, p_1) and (u_1, p_2 = p_0 + B D_u u_1)
        lam_p2 = carry[1, pp] + a[2, pp]
        lam[2, :2] = lam_p2[rows[:2] - (N + 1)]
        a1[uu] += carry[1, uu] + W[N + 1 : d, : N + 1].T @ lam_p2
        a1[pp] += carry[0, pp]
    # Level t feeds level t+1 with weight 2 tau; the split first step feeds
    # level 1 through z_half (q[0]) and directly (q_half).
    w = lam[1 : n + 1]
    w[1:] *= 2.0 * tau
    w[0] = 0.5 * tau * (tau * (a1 @ A[:, rows]))
    return w, tau * a1[rows]


def check_levels(levels: np.ndarray, t: int, tau: float) -> None:
    """Raise IntegrationDiverged at the first of levels t, t+1, ... past BLOWUP_THRESHOLD.

    Complex levels are checked on their real part.
    """
    levels = levels.real
    if not np.maximum(levels.max(), -levels.min()) <= BLOWUP_THRESHOLD:  # or NaN
        amps = np.maximum(levels.max(axis=1), -levels.min(axis=1))
        i = t + int(np.argmin(amps <= BLOWUP_THRESHOLD))
        raise IntegrationDiverged(i, i * tau, amps[i - t])


def run(
    z0: np.ndarray, stencil: InteriorStencil, bs: BoundaryScheme, grid: GridSpec,
    storage: Storage, consume=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Step the model from z0 over grid.n_steps levels on storage; return A and z_half.

    z0 goes into level 0 with u zeroed at the walls, storage.W takes A's
    chain stack, and each chunk of levels is scanned for blow-up as it is
    stepped, then handed to consume(t, rows) (see :func:`advance_chains`).

    Raises
    ------
    ValueError
        If z0 is not a finite (2N+1,) row, u does not vanish at the walls
        or the storage's dtype is not the scheme's.
    IntegrationDiverged
        At the end of the chunk that holds the first level past level 0
        over ``BLOWUP_THRESHOLD`` (or not finite), naming that level.
    """
    N, tau = grid.N, grid.tau
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (2 * N + 1,):
        raise ValueError(f"start state must be a ({2 * N + 1},) row, got {z0.shape}")
    if not np.isfinite(np.maximum(z0.max(), -z0.min())):  # max |z0|, NaN if any is
        raise ValueError("start state must be finite")
    if max(abs(z0[0]), abs(z0[N])) > 1e-9:
        raise ValueError("u must vanish at both boundaries")
    A = stacked_operator(stencil, bs, grid)
    if A.dtype != storage.W.dtype:
        raise ValueError(f"a {A.dtype} scheme cannot run on a {storage.W.dtype} Storage")
    chain_stack(A, tau, storage)
    storage.z[0] = z0
    storage.z[0, [0, N]] = 0.0

    def emit(t: int, rows: np.ndarray) -> None:
        check_levels(rows[1:] if t == 0 else rows, t or 1, tau)
        if consume is not None:
            consume(t, rows)

    return A, advance_chains(storage.z, A, storage, tau, grid.n_steps, emit=emit)


def integrate(
    z0: np.ndarray,
    stencil: InteriorStencil,
    bs: BoundaryScheme,
    grid: GridSpec,
    out: Storage | None = None,
) -> Trajectory:
    """Integrate the model from the stacked start state z0 over grid.n_steps levels.

    The run and the sensitivity runs on its trajectory write into out, a
    Storage that keeps at least grid.n_steps levels on grid.N cells;
    without out they write into a new one.

    Raises
    ------
    ValueError
        If out cannot hold the run, z0 is not a finite (2N+1,) row or u
        does not vanish at the walls.
    IntegrationDiverged
        If max(|u|, |p|) exceeds ``BLOWUP_THRESHOLD`` (or turns non-finite)
        at any level (see :func:`run`).  Unstable boundary schemes reached
        during a minimization line search end up here.
    """
    n = grid.n_steps
    storage = Storage(n, grid.N) if out is None else out
    kept, d = storage.res.shape
    if kept <= n or d != 2 * grid.N + 1:
        need = f"a run of {n} levels on {grid.N} cells"
        raise ValueError(f"a Storage of {kept - 1} levels on {d // 2} cells cannot hold {need}")
    A, z_half = run(z0, stencil, bs, grid, storage)
    return Trajectory(storage.z[: n + 1], z_half, grid.tau, A, bs, storage)
